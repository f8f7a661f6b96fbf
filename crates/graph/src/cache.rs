//! The plan cache and the stateful executor a serving worker owns.
//!
//! Steady-state serving traffic repeats a handful of batch geometries
//! (one per length bucket), so a tiny LRU keyed by [`PlanKey`] makes
//! planning a once-per-bucket cost and replay the only per-batch work.
//! The executor also owns the arena, grown to the largest plan seen and
//! then reused forever — zero allocations per forward once warm.

use std::sync::Arc;

use crate::exec::{execute, GraphModel};
use crate::ir::PlanKey;
use crate::plan::Plan;

/// A small most-recently-used plan cache. Serving sees at most a few
/// geometries per worker (length buckets × batch envelope), so a linear
/// scan over an MRU-ordered vec beats a hash map at this size.
pub struct PlanCache {
    cap: usize,
    entries: Vec<(PlanKey, Arc<Plan>)>,
}

impl PlanCache {
    /// Create a cache holding at most `cap` plans.
    pub fn new(cap: usize) -> Self {
        PlanCache {
            cap: cap.max(1),
            entries: Vec::new(),
        }
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Fetch the plan for `key`, building (and instrumenting the build
    /// of) it on first sight. Returns the plan and whether it was a hit.
    pub fn get_or_build(&mut self, key: PlanKey) -> (Arc<Plan>, bool) {
        if let Some(pos) = self.entries.iter().position(|(k, _)| *k == key) {
            let entry = self.entries.remove(pos);
            let plan = entry.1.clone();
            self.entries.insert(0, entry);
            return (plan, true);
        }
        let plan = {
            let _span = em_obs::span!("graph/plan_build");
            Arc::new(Plan::build(key))
        };
        em_obs::gauge_set("graph/arena_bytes", (plan.arena_len * 4) as f64);
        em_obs::gauge_set("graph/fused_ops", plan.fused_ops as f64);
        self.entries.insert(0, (key, plan.clone()));
        self.entries.truncate(self.cap);
        (plan, false)
    }
}

/// A worker-owned lazy executor: plan cache + reusable arena + hit
/// accounting. Not shared — each serving worker (or bench thread) owns
/// one, so no locks sit on the forward path.
pub struct GraphExecutor {
    cache: PlanCache,
    arena: Vec<f32>,
    hits: u64,
    misses: u64,
}

impl Default for GraphExecutor {
    fn default() -> Self {
        Self::new()
    }
}

impl GraphExecutor {
    /// Executor with the default plan-cache capacity (16 geometries).
    pub fn new() -> Self {
        GraphExecutor {
            cache: PlanCache::new(16),
            arena: Vec::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Run the frozen forward for `key`'s geometry over the flat
    /// `[batch*seq, hidden]` states `x`, planning on first sight and
    /// replaying the cached schedules afterwards; the `[batch, hidden]`
    /// final states of the rows at `cls` (one sequence position per
    /// example, so `cls.len()` is the batch) are left at the front of
    /// `x`. The batch may be any size ≤ `key.batch_cap`. Returns the
    /// plan that ran (for reporting: arena size, fusion counts).
    pub fn run(
        &mut self,
        key: PlanKey,
        model: &dyn GraphModel,
        x: &mut [f32],
        mask: Option<&[f32]>,
        rel: Option<&[f32]>,
        cls: &[usize],
    ) -> Arc<Plan> {
        let (plan, hit) = self.cache.get_or_build(key);
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        if self.arena.len() < plan.arena_len {
            self.arena.resize(plan.arena_len, 0.0);
        }
        execute(&plan, model, x, mask, rel, cls, &mut self.arena);
        plan
    }

    /// Plan-cache hits since the last [`GraphExecutor::take_counts`].
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Plan-cache misses (= plans built) since the last take.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Drain the (hits, misses) counters — callers forward them to
    /// their own stats outside the measured forward path.
    pub fn take_counts(&mut self) -> (u64, u64) {
        (
            std::mem::take(&mut self.hits),
            std::mem::take(&mut self.misses),
        )
    }

    /// Current arena footprint in bytes (high-water across plans).
    pub fn arena_bytes(&self) -> usize {
        self.arena.len() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(seq: usize, cap: usize) -> PlanKey {
        PlanKey {
            layers: 2,
            hidden: 16,
            heads: 2,
            inner: 32,
            has_rel: false,
            batch_cap: cap,
            seq,
        }
    }

    #[test]
    fn cache_hits_on_repeat_geometry() {
        let mut cache = PlanCache::new(4);
        let (_, hit) = cache.get_or_build(key(8, 4));
        assert!(!hit);
        let (_, hit) = cache.get_or_build(key(8, 4));
        assert!(hit);
        let (_, hit) = cache.get_or_build(key(16, 4));
        assert!(!hit);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn cache_evicts_least_recently_used() {
        let mut cache = PlanCache::new(2);
        cache.get_or_build(key(8, 1));
        cache.get_or_build(key(16, 1));
        cache.get_or_build(key(8, 1)); // refresh 8
        cache.get_or_build(key(24, 1)); // evicts 16
        assert_eq!(cache.len(), 2);
        let (_, hit) = cache.get_or_build(key(8, 1));
        assert!(hit);
        let (_, hit) = cache.get_or_build(key(16, 1));
        assert!(!hit, "16 was the LRU entry and must have been evicted");
    }
}
