//! Thread-count configuration shared by every parallel subsystem.
//!
//! A [`Parallelism`] value is a *resolved* worker count: construction
//! collapses "0 = all cores" and the `WCP_THREADS` environment override
//! into a concrete `threads ≥ 1`, so everything downstream — the sweep
//! fan-out, the parallel adversary ladder — receives one unambiguous
//! number and the determinism contract ("bit-identical results for any
//! thread count") can be stated against it.
//!
//! This module holds plain configuration only; the actual threading
//! machinery lives in [`crate::sweep`] (the one sanctioned home for
//! `std::thread::scope` and atomics inside `wcp-core`).

/// A resolved worker-thread count (always ≥ 1).
///
/// # Examples
///
/// ```
/// use wcp_core::Parallelism;
///
/// assert_eq!(Parallelism::single().threads(), 1);
/// assert!(Parallelism::new(0).threads() >= 1); // 0 = all cores
/// assert_eq!(Parallelism::new(4).threads(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Parallelism {
    threads: usize,
}

impl Parallelism {
    /// A pool of exactly `threads` workers; `0` means all available
    /// cores.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        Self {
            threads: if threads == 0 {
                Self::available()
            } else {
                threads
            },
        }
    }

    /// One worker: every task runs inline on the caller's thread, in
    /// task order. Deterministic subsystems return the same results as
    /// at any other count.
    #[must_use]
    pub fn single() -> Self {
        Self { threads: 1 }
    }

    /// Resolves the ambient configuration: the `WCP_THREADS` environment
    /// variable if set to a positive integer, otherwise all available
    /// cores.
    #[must_use]
    pub fn from_env() -> Self {
        let requested = std::env::var("WCP_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&t| t > 0);
        Self::new(requested.unwrap_or(0))
    }

    /// The resolved worker count (≥ 1).
    #[must_use]
    pub fn threads(self) -> usize {
        self.threads
    }

    fn available() -> usize {
        std::thread::available_parallelism().map_or(1, usize::from)
    }
}

impl Default for Parallelism {
    /// All available cores.
    fn default() -> Self {
        Self::new(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_resolves_to_at_least_one() {
        assert!(Parallelism::new(0).threads() >= 1);
        assert!(Parallelism::default().threads() >= 1);
    }

    #[test]
    fn explicit_counts_pass_through() {
        for t in 1..=8 {
            assert_eq!(Parallelism::new(t).threads(), t);
        }
    }

    #[test]
    fn from_env_is_positive() {
        // Whatever the ambient WCP_THREADS says (including unset or
        // garbage), resolution never yields zero workers.
        assert!(Parallelism::from_env().threads() >= 1);
    }
}
