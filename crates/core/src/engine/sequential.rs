//! The sequential update engine: the `sp` baseline, `secure_WB`'s
//! eviction path, and relaxed tree-level persistence (`triad_nvm`).
//!
//! `triad_nvm` is the same walk stopped at a floor: each persist
//! strictly updates the deepest levels, serialized like `sp` because
//! that slice carries the crash-consistency claim. The levels above
//! the floor live in the metadata cache and flush lazily off the
//! critical path, so they are neither charged nor reported as node
//! updates. The relaxation costs elsewhere: recovery rebuilds the
//! upper slice (`RecoveryManager`'s suffix rebuild), and a crash in
//! the lazy-flush window is a *detected* loss, pinned by the crash
//! harness.

use plp_events::Cycle;

use super::{EngineCtx, UpdateEngine, UpdateRequest};

/// Fully sequential leaf-to-floor updates: one persist at a time, one
/// level at a time (§IV-A1's baseline atomic persist, and the path
/// `secure_WB` evictions take, with floor 1: the whole path).
///
/// At the paper's defaults (9 levels × 40-cycle MAC) each full-path
/// persist occupies the engine for at least 360 cycles, which is
/// exactly the bottleneck §VII's gamess arithmetic demonstrates.
#[derive(Debug, Clone)]
pub struct SequentialEngine {
    /// Shallowest strictly-persisted level (level 1 = root). The walk
    /// covers levels `floor..=levels` and stops.
    floor: u32,
    busy_until: Cycle,
}

impl SequentialEngine {
    /// Creates an idle engine persisting levels `floor..=levels`.
    pub fn new(floor: u32) -> Self {
        SequentialEngine {
            floor,
            busy_until: Cycle::ZERO,
        }
    }
}

impl UpdateEngine for SequentialEngine {
    /// Schedules the leaf-to-floor walk; returns the time the floor
    /// level (the root, for floor 1) is done. Levels above the floor
    /// are neither walked nor counted.
    fn persist(&mut self, req: UpdateRequest, ctx: &mut EngineCtx<'_>) -> Cycle {
        let start = req.now.max(self.busy_until);
        let levels = self.floor..=ctx.geometry.levels();
        let t = ctx.walk(req.leaf, levels, start, |_| Cycle::ZERO, |_, _, _, _| {});
        self.busy_until = t;
        t
    }

    fn drained_at(&self) -> Cycle {
        self.busy_until
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::testutil::CtxHarness;

    #[test]
    fn full_walk_costs_levels_times_mac() {
        let mut h = CtxHarness::ideal();
        let mut e = SequentialEngine::new(1);
        let req = h.req(0, 0);
        let done = e.persist(req, &mut h.ctx());
        // 4 levels x 40 cycles.
        assert_eq!(done, Cycle::new(160));
        assert_eq!(h.stats.node_updates, 4);
    }

    #[test]
    fn persists_serialize() {
        let mut h = CtxHarness::ideal();
        let mut e = SequentialEngine::new(1);
        let r1 = h.req(0, 0);
        let r2 = h.req(100, 0);
        let d1 = e.persist(r1, &mut h.ctx());
        let d2 = e.persist(r2, &mut h.ctx());
        assert_eq!(d1, Cycle::new(160));
        assert_eq!(d2, Cycle::new(320), "second persist must wait");
        assert_eq!(e.drained_at(), d2);
    }

    #[test]
    fn idle_gap_resets_start() {
        let mut h = CtxHarness::ideal();
        let mut e = SequentialEngine::new(1);
        e.persist(h.req(0, 0), &mut h.ctx());
        let late = h.req(1, 10_000);
        let done = e.persist(late, &mut h.ctx());
        assert_eq!(done, Cycle::new(10_160));
    }

    #[test]
    fn cold_bmt_cache_adds_fetches() {
        let mut h = CtxHarness::cold();
        let mut e = SequentialEngine::new(1);
        let done_cold = e.persist(h.req(0, 0), &mut h.ctx());
        assert!(done_cold > Cycle::new(160), "misses must add latency");
        assert!(h.stats.bmt_fetches > 0);
        // A second persist on the same path hits the now-warm cache.
        let start = done_cold;
        let fetches_before = h.stats.bmt_fetches;
        let done_warm = e.persist(h.req(0, start.get()), &mut h.ctx());
        assert_eq!(done_warm, start + Cycle::new(160));
        assert_eq!(h.stats.bmt_fetches, fetches_before);
    }

    #[test]
    fn truncated_walk_costs_persisted_levels_only() {
        let mut h = CtxHarness::ideal();
        // 4-level tree, persist the 2 deepest levels: floor = 3.
        let mut e = SequentialEngine::new(3);
        let done = e.persist(h.req(0, 0), &mut h.tapped_ctx());
        // 2 levels x 40 cycles, not sp's 4 x 40.
        assert_eq!(done, Cycle::new(80));
        assert_eq!(h.stats.node_updates, 2);
        // The tap sees only the strict slice, deepest levels first.
        assert_eq!(h.tap.len(), 2);
        assert_eq!(h.tap[0].level, 4);
        assert_eq!(h.tap[1].level, 3);
    }

    #[test]
    fn persists_serialize_like_sp_over_the_slice() {
        let mut h = CtxHarness::ideal();
        let mut e = SequentialEngine::new(3);
        let d1 = e.persist(h.req(0, 0), &mut h.ctx());
        let d2 = e.persist(h.req(100, 0), &mut h.ctx());
        assert_eq!(d1, Cycle::new(80));
        assert_eq!(d2, Cycle::new(160), "second persist must wait");
        assert_eq!(e.drained_at(), d2);
    }

    #[test]
    fn node_updates_stay_below_sequential() {
        let mut h1 = CtxHarness::ideal();
        let mut triad = SequentialEngine::new(3);
        for i in 0..20 {
            let _ = triad.persist(h1.req(i % 8, 0), &mut h1.ctx());
        }
        let mut h2 = CtxHarness::ideal();
        let mut sp = SequentialEngine::new(1);
        for i in 0..20 {
            let _ = sp.persist(h2.req(i % 8, 0), &mut h2.ctx());
        }
        assert!(
            h1.stats.node_updates < h2.stats.node_updates,
            "triad {} must update fewer nodes than sp {}",
            h1.stats.node_updates,
            h2.stats.node_updates
        );
    }

    #[test]
    fn floor_one_degenerates_to_the_full_walk() {
        let mut h = CtxHarness::ideal();
        let mut e = SequentialEngine::new(1);
        let done = e.persist(h.req(0, 0), &mut h.ctx());
        assert_eq!(done, Cycle::new(160));
        assert_eq!(h.stats.node_updates, 4);
    }
}
