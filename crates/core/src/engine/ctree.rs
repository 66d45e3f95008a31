//! §V-D extension: strict persistency on an SGX-style *counter tree*
//! (`sp_ctree`), and the `phoenix` scheme from the related literature,
//! which adds a dual-copy root commit to it.
//!
//! Unlike a Bonsai Merkle Tree — where interior nodes are
//! reconstructible and only the root must persist — an SGX counter
//! tree computes each child's MAC from its *parent counter*, so crash
//! recovery needs the entire update path, leaf to root, durable and
//! mutually consistent. Invariants 1 and 2 expand to every node on the
//! path, and each persist must write `levels` tree blocks to NVM
//! instead of one counter block.
//!
//! The paper stops at describing this cost ("we focus only on BMT due
//! to the extra cost incurred by the counter tree"); this engine makes
//! it measurable: a sequential 2SP walk whose completion additionally
//! waits for the whole path to drain to the NVM device. The matching
//! ablation lives in the `sgx_compare` harness binary.
//!
//! `phoenix` then commits the root twice, a working copy and a shadow
//! copy in a distinct device block, so one of them is intact whatever
//! instant a crash lands on: the highest per-persist cost in the zoo
//! for recovery that rebuilds nothing (the `RecoveryManager`'s
//! shadow-root strategy cross-checks the two copies).

use plp_events::Cycle;

use super::{EngineCtx, UpdateEngine, UpdateRequest};
use crate::meta::{bmt_node_block_addr, shadow_root_block_addr};

/// Strict-persistency updates over an SGX-style counter tree, with the
/// `phoenix` shadow-root commit when asked for.
#[derive(Debug, Clone)]
pub struct CounterTreeEngine {
    /// Whether each persist also writes the shadow root (`phoenix`).
    shadow_root: bool,
    busy_until: Cycle,
    drained: Cycle,
}

impl CounterTreeEngine {
    /// Creates an idle engine; `shadow_root` adds `phoenix`'s dual-copy
    /// root commit to every persist.
    pub fn new(shadow_root: bool) -> Self {
        CounterTreeEngine {
            shadow_root,
            busy_until: Cycle::ZERO,
            drained: Cycle::ZERO,
        }
    }
}

impl UpdateEngine for CounterTreeEngine {
    /// Schedules the sequential walk, the per-level NVM persists and
    /// (for `phoenix`) the shadow-root commit; returns the time
    /// everything is durable.
    fn persist(&mut self, req: UpdateRequest, ctx: &mut EngineCtx<'_>) -> Cycle {
        let start = req.now.max(self.busy_until);
        let levels = 1..=ctx.geometry.levels();
        let mut path_durable = start;
        // Every node on the path must persist (shadow-copy writes in a
        // real design; modelled as posted NVM writes whose completion
        // gates the persist).
        let t = ctx.walk(
            req.leaf,
            levels,
            start,
            |_| Cycle::ZERO,
            |nvm, label, _, done| {
                path_durable = path_durable.max(nvm.write(done, bmt_node_block_addr(label)));
            },
        );
        let mut done = t.max(path_durable);
        if self.shadow_root {
            // Dual-copy commit: the shadow root is written only after
            // the working path is fully durable, so a crash can tear at
            // most one of the two copies.
            done = done.max(ctx.nvm.write(done, shadow_root_block_addr()));
        }
        self.busy_until = t;
        self.drained = self.drained.max(done);
        done
    }

    fn drained_at(&self) -> Cycle {
        self.drained
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::testutil::CtxHarness;

    #[test]
    fn persist_waits_for_whole_path_to_drain() {
        let mut h = CtxHarness::ideal();
        let mut e = CounterTreeEngine::new(false);
        let done = e.persist(h.req(0, 0), &mut h.ctx());
        // The MAC walk alone is 160 cycles; each node write costs 600
        // cycles of NVM write time on top, so completion is far later.
        assert!(done > Cycle::new(160), "path drain ignored: {done}");
        assert_eq!(h.stats.node_updates, 4);
        assert_eq!(h.nvm.stats().writes + h.nvm.stats().writes_combined, 4);
    }

    #[test]
    fn costs_more_than_bmt_sequential() {
        use crate::engine::SequentialEngine;
        let mut h1 = CtxHarness::ideal();
        let mut ctree = CounterTreeEngine::new(false);
        let mut last_ctree = Cycle::ZERO;
        for i in 0..20 {
            last_ctree = ctree.persist(h1.req(i % 8, 0), &mut h1.ctx());
        }
        let mut h2 = CtxHarness::ideal();
        let mut bmt = SequentialEngine::new(1);
        let mut last_bmt = Cycle::ZERO;
        for i in 0..20 {
            last_bmt = bmt.persist(h2.req(i % 8, 0), &mut h2.ctx());
        }
        assert!(
            last_ctree > last_bmt,
            "counter tree {last_ctree} must cost more than BMT {last_bmt}"
        );
    }

    #[test]
    fn repeated_paths_benefit_from_write_combining() {
        let mut h = CtxHarness::ideal();
        let mut e = CounterTreeEngine::new(false);
        for _ in 0..4 {
            let req = h.req(3, 0);
            let _ = e.persist(req, &mut h.ctx());
        }
        // Re-persisting the same path while earlier writes are pending
        // merges in the write queue instead of re-writing the media.
        assert!(h.nvm.stats().writes_combined > 0);
        assert!(e.drained_at() > Cycle::ZERO);
    }

    #[test]
    fn persist_waits_for_path_and_shadow_commit() {
        let mut h = CtxHarness::ideal();
        let mut e = CounterTreeEngine::new(true);
        let done = e.persist(h.req(0, 0), &mut h.ctx());
        // The MAC walk alone is 160 cycles; four path writes plus the
        // shadow commit put completion far later.
        assert!(done > Cycle::new(160), "durability ignored: {done}");
        assert_eq!(h.stats.node_updates, 4);
        // Four path blocks plus the shadow root block.
        assert_eq!(h.nvm.stats().writes + h.nvm.stats().writes_combined, 5);
    }

    #[test]
    fn costs_more_than_the_counter_tree() {
        let mut h1 = CtxHarness::ideal();
        let mut phoenix = CounterTreeEngine::new(true);
        let mut last_phoenix = Cycle::ZERO;
        for i in 0..20 {
            last_phoenix = phoenix.persist(h1.req(i % 8, 0), &mut h1.ctx());
        }
        let mut h2 = CtxHarness::ideal();
        let mut ctree = CounterTreeEngine::new(false);
        let mut last_ctree = Cycle::ZERO;
        for i in 0..20 {
            last_ctree = ctree.persist(h2.req(i % 8, 0), &mut h2.ctx());
        }
        assert!(
            last_phoenix >= last_ctree,
            "the dual-copy commit {last_phoenix} cannot be cheaper than sp_ctree {last_ctree}"
        );
    }

    #[test]
    fn shadow_commit_serializes_after_the_path() {
        let mut h = CtxHarness::ideal();
        let mut e = CounterTreeEngine::new(true);
        let d1 = e.persist(h.req(0, 0), &mut h.ctx());
        let d2 = e.persist(h.req(100, 0), &mut h.ctx());
        // The MAC walks serialize through the engine; the dual-copy
        // shadow writes may *write-combine* in the device queue, so
        // completions are monotone but not necessarily distinct.
        assert!(d2 >= d1, "persists must not reorder: {d1} then {d2}");
        assert_eq!(e.drained_at(), d2);
        // Both persists walked the full path.
        assert_eq!(h.stats.node_updates, 8);
    }
}
