//! The benchmark-side attacker: `ScratchAdversary::default()`, with an
//! optional log of when each attack started and ended.
//!
//! `DynamicEngine::apply` attacks twice per churn event, first the
//! repaired (adopted) placement and then the oracle replan. The two log
//! entries of an event therefore split it into repair, adopted attack,
//! oracle replan, oracle attack and tail without any timer inside the
//! program.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use wcp_adversary::ScratchAdversary;
use wcp_core::engine::{AttackOutcome, Attacker};
use wcp_core::Placement;

/// Start and end of every attack, in call order.
pub type AttackLog = Arc<Mutex<Vec<(Instant, Instant)>>>;

/// `ScratchAdversary::default()`, timed when a log is attached.
#[derive(Debug)]
pub struct TimedAttacker {
    inner: ScratchAdversary,
    log: Option<AttackLog>,
}

impl TimedAttacker {
    /// The default scratch adversary; with `log`, every attack is
    /// appended to it.
    pub fn new(log: Option<AttackLog>) -> Self {
        Self {
            inner: ScratchAdversary::default(),
            log,
        }
    }
}

impl Attacker for TimedAttacker {
    fn attack(&self, placement: &Placement, s: u16, k: u16) -> AttackOutcome {
        let Some(log) = &self.log else {
            return self.inner.attack(placement, s, k);
        };
        let start = Instant::now();
        let outcome = self.inner.attack(placement, s, k);
        let end = Instant::now();
        log.lock().expect("attack log poisoned").push((start, end));
        outcome
    }
}

/// Takes every logged attack out of `log`.
pub fn drain(log: &AttackLog) -> Vec<(Instant, Instant)> {
    std::mem::take(&mut *log.lock().expect("attack log poisoned"))
}
