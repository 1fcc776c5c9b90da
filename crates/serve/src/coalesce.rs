//! Request coalescing: one in-flight execution per spec digest.
//!
//! While a job for some spec is queued or running, a second submission of
//! the same spec should not enqueue a duplicate execution — it attaches to
//! the in-flight job and polls the same job id. The [`InflightMap`] is the
//! digest → job-id index that makes that attachment; it is **not**
//! internally locked because the job-lifecycle core
//! ([`crate::coord::Coordinator`]) mutates it only under its backend's
//! lock, where the claim/release transitions are atomic with the
//! job-table updates they describe.

use std::collections::HashMap;

/// Digest → in-flight job id. Owned by the coordinator core.
#[derive(Debug, Default)]
pub struct InflightMap {
    inner: HashMap<u64, u64>,
}

impl InflightMap {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// The in-flight job id for `digest`, if one is queued or running.
    pub fn get(&self, digest: u64) -> Option<u64> {
        self.inner.get(&digest).copied()
    }

    /// Claims `digest` for job `id` if unclaimed. A `fresh=1` re-execution
    /// can find the digest already claimed by an earlier in-flight job —
    /// the earlier claim wins, so coalescing always attaches to the oldest
    /// in-flight execution. Returns whether this call made the claim.
    pub fn claim(&mut self, digest: u64, id: u64) -> bool {
        match self.inner.entry(digest) {
            std::collections::hash_map::Entry::Occupied(_) => false,
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(id);
                true
            }
        }
    }

    /// Releases `digest` when job `id` reaches a terminal state. A no-op
    /// if another job holds the claim (a `fresh` re-execution finishing
    /// after the claim-holder must not free someone else's claim).
    pub fn release(&mut self, digest: u64, id: u64) {
        if self.inner.get(&digest) == Some(&id) {
            self.inner.remove(&digest);
        }
    }

    /// Number of in-flight digests.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_claim_wins_and_release_is_owner_checked() {
        let mut m = InflightMap::new();
        assert!(m.claim(100, 1));
        assert!(!m.claim(100, 2), "second claim attaches, not replaces");
        assert_eq!(m.get(100), Some(1));
        // A non-owner release is a no-op.
        m.release(100, 2);
        assert_eq!(m.get(100), Some(1));
        m.release(100, 1);
        assert_eq!(m.get(100), None);
        assert!(m.is_empty());
    }
}
