//! The scheduling context every engine runs in, and the one primitive
//! through which an engine updates a BMT node.
//!
//! Every scheme updates a node the same way: it waits until the node
//! is on chip, charges one MAC and reports the update. Only the gate —
//! the earliest cycle the update may start — differs from scheme to
//! scheme, and the engine computes it. [`EngineCtx::update_node`] does
//! the rest. The fetch (`node_ready`) and the report (`note_update`)
//! are private to this module, so no engine can fetch a node without
//! reporting its update: rustc rejects the call.

use plp_bmt::{BmtGeometry, NodeLabel};
use plp_events::Cycle;
use plp_nvm::NvmDevice;

use super::EngineStats;
use crate::meta::{bmt_node_block_addr, MetadataCaches};
use crate::sanitizer::NodeUpdateEvent;

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
    /// Reusable label scratch, owned by the simulation so engines that
    /// need a materialized update path (the mutant's reverse walk)
    /// borrow it instead of allocating one per persist.
    pub walk: &'a mut Vec<NodeLabel>,
    /// The named-failpoint registry, when the crash harness armed one:
    /// every node update visits the `between-levels` failpoint through
    /// it. `None` on ordinary runs — one branch per node update, like
    /// the tap.
    pub failpoints: Option<&'a mut crate::failpoint::FailpointRegistry>,
}

impl EngineCtx<'_> {
    /// Updates BMT node `label` at tree `level`, starting no earlier
    /// than `gate`: waits until the node is on chip, charges one MAC
    /// and reports the update to the statistics, the sanitizer tap and
    /// the failpoint registry. Returns the cycle the update completes.
    ///
    /// This is the only way an engine touches a node, so every node an
    /// engine schedules is reported. Callers pass the level they
    /// already track for their walk — recomputing it here per update
    /// would put label arithmetic back on the hot path.
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
    ///
    /// The same engine fetching a node without reporting it does not
    /// compile: it differs only in the one call, and `node_ready` is
    /// private to this module.
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
    ///             t = ctx.node_ready(label, t);
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
    pub fn update_node(&mut self, label: NodeLabel, level: u32, gate: Cycle) -> Cycle {
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
    fn update_node_feeds_stats_and_tap() {
        let mut h = CtxHarness::ideal();
        let mut e = SequentialEngine::default();
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
}
