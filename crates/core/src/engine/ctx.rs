//! The scheduling context every engine runs in, and the one primitive
//! through which an engine updates BMT nodes, [`EngineCtx::walk`].
//!
//! Every scheme walks a contiguous range of its path's levels, deepest
//! first; only the per-level gate and what the engine records after
//! each update differ. The single-node update, its fetch and its
//! report are private to this module, so no engine can skip a level,
//! reorder the walk or fetch a node without reporting it: rustc
//! rejects the call. The one exception is the [`mutant`] child module,
//! whose seeded ordering bugs are the sanitizer's test corpus.

use std::ops::RangeInclusive;

use plp_bmt::{BmtGeometry, NodeLabel};
use plp_events::Cycle;
use plp_nvm::NvmDevice;

use super::EngineStats;
use crate::meta::{bmt_node_block_addr, MetadataCaches};
use crate::sanitizer::NodeUpdateEvent;

mod mutant;

pub use mutant::{MutantEngine, Mutation};

/// Mutable context an engine needs while scheduling: the BMT cache,
/// the NVM device (for miss fetches), statistics and (when the
/// invariant sanitizer is on) the node-update event tap.
pub struct EngineCtx<'a> {
    /// Tree shape.
    pub geometry: BmtGeometry,
    /// Effective MAC latency ([`crate::SystemConfig::effective_mac`]),
    /// charged once per node update and once per fetched-node
    /// verification.
    pub mac_latency: Cycle,
    /// The metadata caches (BMT cache lookups).
    pub meta: &'a mut MetadataCaches,
    /// The NVM device for miss fetches.
    pub nvm: &'a mut NvmDevice,
    /// Engine statistics.
    pub stats: &'a mut EngineStats,
    /// Sanitizer event tap: when present, every node update the engine
    /// schedules is recorded for shadow verification (see
    /// [`crate::sanitizer`]). `None` when the sanitizer is off — the
    /// tap then costs one branch per update.
    pub tap: Option<&'a mut Vec<NodeUpdateEvent>>,
    /// Reusable label scratch, owned by the simulation so the mutant's
    /// reverse walk — the one walk that needs a materialized update
    /// path — borrows it instead of allocating one per persist.
    pub path_scratch: &'a mut Vec<NodeLabel>,
    /// The named-failpoint registry, when the crash harness armed one:
    /// every node update visits the `between-levels` failpoint through
    /// it. `None` on ordinary runs — one branch per node update, like
    /// the tap.
    pub failpoints: Option<&'a mut crate::failpoint::FailpointRegistry>,
}

impl EngineCtx<'_> {
    /// Updates the node of `leaf`'s path at every level in `levels`,
    /// deepest level first, and returns the cycle the last (shallowest)
    /// update completes — `start` when the range is empty.
    ///
    /// Each update starts no earlier than the previous one completed
    /// (`start` for the first) and no earlier than `gate(level)`, the
    /// scheme's ordering constraint for that level. It waits until the
    /// node is on chip, charges one MAC and reports itself to the
    /// statistics, the sanitizer tap and the failpoint registry. Then
    /// `hook` sees the NVM device, the node, its level and the cycle
    /// it completed.
    ///
    /// `leaf` must be a leaf and `levels` must lie within the tree
    /// (level 1 is the root).
    ///
    /// An engine outside this crate plugs in through it:
    ///
    /// ```
    /// use plp_core::engine::{EngineCtx, UpdateEngine, UpdateRequest};
    /// use plp_events::Cycle;
    ///
    /// #[derive(Debug, Default)]
    /// struct Walker {
    ///     busy_until: Cycle,
    /// }
    ///
    /// impl UpdateEngine for Walker {
    ///     fn persist(&mut self, req: UpdateRequest, ctx: &mut EngineCtx<'_>) -> Cycle {
    ///         let start = req.now.max(self.busy_until);
    ///         let levels = 1..=ctx.geometry.levels();
    ///         let t = ctx.walk(req.leaf, levels, start, |_| Cycle::ZERO, |_, _, _, _| {});
    ///         self.busy_until = t;
    ///         t
    ///     }
    ///
    ///     fn drained_at(&self) -> Cycle {
    ///         self.busy_until
    ///     }
    /// }
    /// ```
    ///
    /// The same engine walking the path by hand does not compile: it
    /// could skip a level or reorder the walk, so the single-node
    /// update is private to this module.
    ///
    /// ```compile_fail,E0624
    /// use plp_core::engine::{EngineCtx, UpdateEngine, UpdateRequest};
    /// use plp_events::Cycle;
    ///
    /// #[derive(Debug, Default)]
    /// struct Walker {
    ///     busy_until: Cycle,
    /// }
    ///
    /// impl UpdateEngine for Walker {
    ///     fn persist(&mut self, req: UpdateRequest, ctx: &mut EngineCtx<'_>) -> Cycle {
    ///         let mut t = req.now.max(self.busy_until);
    ///         for (label, level) in ctx.geometry.walk_up(req.leaf) {
    ///             t = ctx.update_node(label, level, t);
    ///         }
    ///         self.busy_until = t;
    ///         t
    ///     }
    ///
    ///     fn drained_at(&self) -> Cycle {
    ///         self.busy_until
    ///     }
    /// }
    /// ```
    #[inline]
    pub fn walk(
        &mut self,
        leaf: NodeLabel,
        levels: RangeInclusive<u32>,
        start: Cycle,
        mut gate: impl FnMut(u32) -> Cycle,
        mut hook: impl FnMut(&mut NvmDevice, NodeLabel, u32, Cycle),
    ) -> Cycle {
        let (lo, hi) = levels.into_inner();
        if lo > hi {
            return start;
        }
        let geometry = self.geometry;
        debug_assert_eq!(geometry.level(leaf), geometry.levels());
        debug_assert!(lo >= 1 && hi <= geometry.levels());
        let top = if hi == geometry.levels() {
            leaf
        } else {
            geometry.ancestor_at_level(leaf, hi)
        };
        let mut t = start;
        for (label, level) in geometry.walk_up(top).take_while(|&(_, level)| level >= lo) {
            t = self.update_node(label, level, t.max(gate(level)));
            hook(self.nvm, label, level, t);
        }
        t
    }

    /// Updates BMT node `label` at tree `level`, starting no earlier
    /// than `gate`: waits until the node is on chip, charges one MAC
    /// and reports the update. Returns the cycle the update completes.
    #[inline]
    fn update_node(&mut self, label: NodeLabel, level: u32, gate: Cycle) -> Cycle {
        let done = self.node_ready(label, gate) + self.mac_latency;
        self.note_update(label, level, done);
        done
    }

    /// Records one node update completing at `done`: bumps the
    /// statistics counter, pushes the event onto the tap when the
    /// sanitizer is listening and visits the `between-levels`
    /// failpoint when one is armed.
    fn note_update(&mut self, label: NodeLabel, level: u32, done: Cycle) {
        debug_assert_eq!(level, self.geometry.level(label));
        self.stats.node_updates += 1;
        if let Some(tap) = self.tap.as_deref_mut() {
            tap.push(NodeUpdateEvent { label, level, done });
        }
        if let Some(fp) = self.failpoints.as_deref_mut() {
            fp.hit(crate::failpoint::Failpoint::BetweenLevels);
        }
    }

    /// When node `label` is available on chip for an update requested
    /// at `at`: immediately for the root (an on-chip register) and BMT
    /// cache hits; after an NVM fetch plus integrity verification on a
    /// miss. Sibling values share the fetched 64-byte node block
    /// (eight 8-byte nodes per block), so one fetch covers the MAC
    /// inputs of the level.
    fn node_ready(&mut self, label: NodeLabel, at: Cycle) -> Cycle {
        if label.is_root() {
            return at;
        }
        if self.meta.access_bmt(label, true) {
            at
        } else {
            self.stats.bmt_fetches += 1;
            let fetched = self.nvm.read(at, bmt_node_block_addr(label));
            fetched + self.mac_latency // verify the fetched node
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::testutil::CtxHarness;
    use crate::engine::{SequentialEngine, UpdateEngine};

    #[test]
    fn walk_feeds_stats_and_tap() {
        let mut h = CtxHarness::ideal();
        let mut e = SequentialEngine::new(1);
        let req = h.req(0, 0);
        let _ = e.persist(req, &mut h.tapped_ctx());
        assert_eq!(h.stats.node_updates, 4);
        assert_eq!(h.tap.len(), 4);
        // Events arrive leaf-first with monotone completions.
        assert_eq!(h.tap[0].level, 4);
        assert_eq!(h.tap[3].level, 1);
        assert!(h.tap.windows(2).all(|w| w[0].done <= w[1].done));
        // Without the tap, only the counter moves.
        let req = h.req(1, 0);
        let _ = e.persist(req, &mut h.ctx());
        assert_eq!(h.stats.node_updates, 8);
        assert_eq!(h.tap.len(), 4);
    }

    #[test]
    fn update_node_charges_one_mac_after_the_gate() {
        let mut h = CtxHarness::ideal();
        let leaf = h.geometry.leaf(0);
        let done = h.tapped_ctx().update_node(leaf, 4, Cycle::new(100));
        assert_eq!(done, Cycle::new(140));
        assert_eq!(
            h.tap,
            vec![NodeUpdateEvent {
                label: leaf,
                level: 4,
                done
            }]
        );
        // A cold miss fetches the node and verifies it first.
        let mut h = CtxHarness::cold();
        let done = h.ctx().update_node(leaf, 4, Cycle::new(100));
        assert!(done > Cycle::new(180), "fetch + verify + MAC: {done}");
        assert_eq!(h.stats.bmt_fetches, 1);
        assert_eq!(h.stats.node_updates, 1);
    }

    #[test]
    fn walk_updates_each_level_of_the_range_once_deepest_first() {
        for (lo, hi) in [(1, 4), (2, 3), (3, 4), (1, 1), (4, 4)] {
            let mut h = CtxHarness::cold();
            let leaf = h.geometry.leaf(9);
            let mut gates = Vec::new();
            let mut seen = Vec::new();
            let done = h.tapped_ctx().walk(
                leaf,
                lo..=hi,
                Cycle::new(50),
                |level| {
                    gates.push(level);
                    Cycle::new(u64::from(level) * 7)
                },
                |_, label, level, t| seen.push((label, level, t)),
            );
            let n = (hi - lo + 1) as usize;
            assert_eq!(h.stats.node_updates, n as u64, "{lo}..={hi}");
            // One gate and one hook call per level, deepest first.
            let want: Vec<u32> = (lo..=hi).rev().collect();
            assert_eq!(gates, want);
            let levels: Vec<u32> = seen.iter().map(|&(_, level, _)| level).collect();
            assert_eq!(levels, want);
            // The hook sees each completion exactly as the tap does.
            let tapped: Vec<_> = h
                .tap
                .iter()
                .map(|ev| (ev.label, ev.level, ev.done))
                .collect();
            assert_eq!(seen, tapped);
            // Each node is the leaf's ancestor at its level.
            for &(label, level, _) in &seen {
                assert_eq!(label, h.geometry.ancestor_at_level(leaf, level));
            }
            // Each update starts no earlier than the previous one
            // completed: at least one MAC after it.
            assert!(seen[0].2 >= Cycle::new(50) + h.mac);
            for w in seen.windows(2) {
                assert!(w[1].2 >= w[0].2 + h.mac, "{w:?}");
            }
            assert_eq!(done, seen[n - 1].2);
        }
    }

    #[test]
    fn empty_range_updates_nothing() {
        let mut h = CtxHarness::ideal();
        let leaf = h.geometry.leaf(0);
        // Coalescing's own walk below an LCA at the leaf level.
        let lca_level = h.geometry.levels();
        let mut calls = 0;
        let done = h.ctx().walk(
            leaf,
            lca_level + 1..=lca_level,
            Cycle::new(77),
            |_| Cycle::ZERO,
            |_, _, _, _| calls += 1,
        );
        assert_eq!(done, Cycle::new(77));
        assert_eq!(calls, 0);
        assert_eq!(h.stats.node_updates, 0);
    }
}
