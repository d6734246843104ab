//! First-come-first-served occupancy servers.
//!
//! The paper models contention "at the memory bus" and "at the network
//! interfaces" (Section 4). A [`Resource`] is the standard protocol-level
//! abstraction for that: a single server that is busy for an *occupancy*
//! period per transaction and grants access in request order. Requesters
//! arriving while the server is busy are delayed until it frees up; the
//! delay is the queueing component of their latency.

use crate::time::Cycles;

/// A FCFS single server modeling one contended hardware resource.
///
/// Typical instances in this workspace: one split-transaction memory bus
/// per node, one network-interface port per node and direction, and one
/// protocol-controller (RAD) occupancy per node.
///
/// # Example
///
/// ```
/// use rnuma_sim::{Cycles, Resource};
///
/// let mut ni = Resource::new();
/// // Two messages injected at the same time serialize.
/// let g0 = ni.acquire(Cycles(100), Cycles(16));
/// let g1 = ni.acquire(Cycles(100), Cycles(16));
/// assert_eq!(g0, Cycles(100));
/// assert_eq!(g1, Cycles(116));
/// assert_eq!(ni.total_wait(), Cycles(16));
/// ```
#[derive(Clone, Debug, Default)]
pub struct Resource {
    next_free: Cycles,
    total_wait: Cycles,
}

impl Resource {
    /// Creates an idle resource.
    #[must_use]
    pub fn new() -> Resource {
        Resource::default()
    }

    /// Requests the resource at time `now` for `occupancy` cycles.
    ///
    /// Returns the *grant time*: `now` if the resource is idle, otherwise
    /// the time the previous holder releases it. The caller's transaction
    /// completes at `grant + occupancy` (plus any downstream latency).
    ///
    /// This sits on the innermost simulation loop (several acquisitions
    /// per miss), so the accounting is branchless: the wait term is zero
    /// on the uncontended path and folds into the same add either way.
    #[inline]
    pub fn acquire(&mut self, now: Cycles, occupancy: Cycles) -> Cycles {
        let grant = Cycles(now.0.max(self.next_free.0));
        self.total_wait.0 += grant.0 - now.0;
        self.next_free = Cycles(grant.0 + occupancy.0);
        grant
    }

    /// The time the resource next becomes free.
    #[must_use]
    pub fn next_free(&self) -> Cycles {
        self.next_free
    }

    /// Sum of all queueing delays imposed.
    #[must_use]
    pub fn total_wait(&self) -> Cycles {
        self.total_wait
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_resource_grants_immediately() {
        let mut r = Resource::new();
        assert_eq!(r.acquire(Cycles(50), Cycles(8)), Cycles(50));
        assert_eq!(r.next_free(), Cycles(58));
        assert_eq!(r.total_wait(), Cycles::ZERO);
    }

    #[test]
    fn contenders_serialize_in_arrival_order() {
        let mut r = Resource::new();
        let g0 = r.acquire(Cycles(0), Cycles(10));
        let g1 = r.acquire(Cycles(3), Cycles(10));
        let g2 = r.acquire(Cycles(4), Cycles(10));
        assert_eq!((g0, g1, g2), (Cycles(0), Cycles(10), Cycles(20)));
        assert_eq!(r.total_wait(), Cycles(7 + 16));
    }

    #[test]
    fn gaps_leave_the_resource_idle() {
        let mut r = Resource::new();
        r.acquire(Cycles(0), Cycles(4));
        let g = r.acquire(Cycles(100), Cycles(4));
        assert_eq!(g, Cycles(100));
        assert_eq!(r.next_free(), Cycles(104));
        assert_eq!(r.total_wait(), Cycles::ZERO);
    }

    #[test]
    fn zero_occupancy_is_allowed() {
        let mut r = Resource::new();
        let g0 = r.acquire(Cycles(5), Cycles::ZERO);
        let g1 = r.acquire(Cycles(5), Cycles(2));
        assert_eq!(g0, Cycles(5));
        assert_eq!(g1, Cycles(5));
    }
}
