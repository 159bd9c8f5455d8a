//! The one place that calls service API the ROADMAP plans to change.
//!
//! Snapshot construction is infallible today and becomes fallible when
//! the forward map's `u32` offsets are guarded (ROADMAP direction 5).
//! Every snapshot the benchmark builds itself comes from here, so that
//! change touches this function only.

use wcp_core::Placement;
use wcp_service::{NodeId, Snapshot};

/// The forward map of `placement`, with `pins` (sorted by object)
/// overriding their objects, as the service would publish it.
pub fn snapshot(placement: &Placement, pins: &[(u64, Vec<NodeId>)]) -> Snapshot {
    Snapshot::from_placement(0, placement, pins, None)
}
