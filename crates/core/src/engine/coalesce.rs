//! PLP mechanism 3: BMT update coalescing (epoch persistency).

use plp_bmt::NodeLabel;
use plp_events::Cycle;

use super::{EngineCtx, OooEngine, UpdateEngine, UpdateRequest};

/// The chained-handoff persist awaiting its shared-suffix walk.
#[derive(Debug, Clone, Copy)]
struct Carrier {
    /// The leaf whose update path the carrier owns.
    leaf: NodeLabel,
    /// Deepest level of the carrier's path not yet committed
    /// (levels `suffix_from ..= 1` remain); 0 means nothing remains.
    suffix_from: u32,
    /// Completion time of the carrier's last committed node.
    ready: Cycle,
}

/// The coalescing engine of §IV-B2/§V-C: out-of-order epoch updates
/// plus paired LCA coalescing. When a new persist arrives, the
/// previous (pending) persist commits its path only up to their least
/// common ancestor and delegates the shared suffix to the newcomer —
/// the LCA update waits for the newcomer's sub-LCA work, so the single
/// walk covers both persists (Fig. 5's example: 12 node updates become
/// 7). The reduction in superfluous updates is the mechanism's benefit;
/// its runtime is close to `o3` because the older update waits for the
/// younger to reach the LCA (§VII).
#[derive(Debug, Clone)]
pub struct CoalescingEngine {
    inner: OooEngine,
    levels: u32,
    carrier: Option<Carrier>,
    /// Node updates saved by coalescing (vs. every persist walking the
    /// full path).
    saved_updates: u64,
}

impl CoalescingEngine {
    /// Creates an idle engine.
    ///
    /// # Panics
    ///
    /// Panics if `ett_entries` is zero.
    pub fn new(levels: u32, ett_entries: usize) -> Self {
        CoalescingEngine {
            inner: OooEngine::new(levels, ett_entries),
            levels,
            carrier: None,
            saved_updates: 0,
        }
    }

    /// Commits the carrier's path at levels `to_level ..=
    /// carrier.suffix_from` (deep to shallow), with `extra_gate`
    /// additionally constraining the shallowest (`to_level`, i.e.
    /// LCA) update. Returns the completion of the last committed node.
    fn commit_carrier_levels(
        &mut self,
        carrier: Carrier,
        to_level: u32,
        extra_gate: Cycle,
        ctx: &mut EngineCtx<'_>,
    ) -> Cycle {
        let levels = to_level..=carrier.suffix_from;
        self.inner
            .epoch_walk(ctx, carrier.leaf, levels, carrier.ready, extra_gate)
    }
}

impl UpdateEngine for CoalescingEngine {
    /// Schedules a persist. If a carrier is pending, the carrier
    /// commits through the pair's LCA (gated on this persist's sub-LCA
    /// work) and this persist inherits the shared suffix; otherwise
    /// this persist becomes the carrier. Returns the completion of the
    /// work scheduled *now* for this persist (delegated suffixes finish
    /// at [`UpdateEngine::seal_epoch`]).
    fn persist(&mut self, req: UpdateRequest, ctx: &mut EngineCtx<'_>) -> Cycle {
        let now = req.now.max(self.inner.floor());
        let Some(carrier) = self.carrier.take() else {
            self.carrier = Some(Carrier {
                leaf: req.leaf,
                suffix_from: self.levels,
                ready: now,
            });
            return now;
        };

        let lca_level = ctx.geometry.level(ctx.geometry.lca(carrier.leaf, req.leaf));
        if lca_level > carrier.suffix_from {
            // The junction is below the carrier's remaining suffix (it
            // already committed past it, e.g. a same-page revisit):
            // no handoff is possible. Finalize the carrier's suffix and
            // start a fresh chain with this persist.
            let done = self.commit_carrier_levels(carrier, 1, Cycle::ZERO, ctx);
            self.carrier = Some(Carrier {
                leaf: req.leaf,
                suffix_from: self.levels,
                ready: now,
            });
            return done.max(now);
        }

        // This persist walks its own nodes strictly below the LCA.
        let own = lca_level + 1..=self.levels;
        let own_done = self.inner.epoch_walk(ctx, req.leaf, own, now, Cycle::ZERO);
        // The carrier commits down to the LCA, whose update must also
        // wait for this persist's sub-LCA work.
        let carrier_done = self.commit_carrier_levels(carrier, lca_level, own_done, ctx);
        // Updates saved: this persist will never walk levels
        // `lca_level ..= 1` of its own path; the carrier covered the
        // LCA, and the suffix above it is inherited (and may be saved
        // again at the next handoff).
        self.saved_updates += 1;
        self.carrier = Some(Carrier {
            leaf: req.leaf,
            suffix_from: lca_level.saturating_sub(1),
            ready: own_done.max(carrier_done),
        });
        own_done.max(carrier_done)
    }

    /// Seals the epoch: the pending carrier walks its remaining suffix
    /// to the root, then the inner ETT rotates. Returns the epoch's
    /// completion time.
    fn seal_epoch(&mut self, ctx: &mut EngineCtx<'_>) -> Option<Cycle> {
        if let Some(carrier) = self.carrier.take() {
            self.commit_carrier_levels(carrier, 1, Cycle::ZERO, ctx);
        }
        self.inner.seal_epoch(ctx)
    }

    fn drained_at(&self) -> Cycle {
        self.inner.drained_at()
    }

    /// Node updates eliminated by coalescing so far.
    fn saved_updates(&self) -> u64 {
        self.saved_updates
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::testutil::CtxHarness;

    /// Fig. 5's scenario on an (8, 4) tree: three persists in one epoch
    /// with LCAs at level 3 (δ1, δ2) and level 2 (chain, δ3).
    #[test]
    fn fig5_update_counts() {
        let mut h = CtxHarness::ideal();
        let mut e = CoalescingEngine::new(4, 2);
        // δ1: page 0 (leaf X41); δ2: page 1 (leaf X42, same level-3
        // parent); δ3: page 24 (different level-3 parent, same level-2
        // ancestor X21).
        let _ = e.persist(h.req(0, 0), &mut h.ctx());
        let _ = e.persist(h.req(1, 0), &mut h.ctx());
        let _ = e.persist(h.req(24, 0), &mut h.ctx());
        let _ = e.seal_epoch(&mut h.ctx());
        // Without coalescing: 3 x 4 = 12 updates. Fig. 5 reports 7.
        assert_eq!(h.stats.node_updates, 7);
        assert_eq!(e.saved_updates(), 2);
    }

    #[test]
    fn lone_persist_walks_full_path_at_seal() {
        let mut h = CtxHarness::ideal();
        let mut e = CoalescingEngine::new(4, 2);
        let _ = e.persist(h.req(5, 0), &mut h.ctx());
        assert_eq!(h.stats.node_updates, 0, "work deferred until handoff");
        let c = e.seal_epoch(&mut h.ctx()).expect("coalescing seals epochs");
        assert_eq!(h.stats.node_updates, 4);
        assert_eq!(c, Cycle::new(160));
    }

    #[test]
    fn same_page_persists_share_one_walk() {
        // §IV-B2: blocks of the same encryption page updated within an
        // epoch produce a single counter block and, with coalescing, a
        // single leaf-to-root walk instead of two.
        let mut h = CtxHarness::ideal();
        let mut e = CoalescingEngine::new(4, 2);
        let _ = e.persist(h.req(7, 0), &mut h.ctx());
        let _ = e.persist(h.req(7, 0), &mut h.ctx());
        let _ = e.seal_epoch(&mut h.ctx());
        assert_eq!(h.stats.node_updates, 4);
        assert_eq!(e.saved_updates(), 1);
    }

    #[test]
    fn junction_below_committed_frontier_restarts_chain() {
        // carrier = leaf1 with suffix at level 2 after a handoff; a new
        // persist whose LCA with leaf1 is at level 3 (deeper than the
        // frontier) cannot delegate — the chain finalizes and restarts.
        let mut h = CtxHarness::ideal();
        let mut e = CoalescingEngine::new(4, 2);
        let _ = e.persist(h.req(0, 0), &mut h.ctx()); // carrier leaf0
        let _ = e.persist(h.req(1, 0), &mut h.ctx()); // handoff at L3
        let _ = e.persist(h.req(0, 0), &mut h.ctx()); // junction at L3 again
        let _ = e.seal_epoch(&mut h.ctx());
        // delta1: leaf0+X3 by handoff (2) + delta2's own leaf1 (1)
        // + finalize X2+root (2) + fresh chain full walk at seal (4).
        assert_eq!(h.stats.node_updates, 9);
        assert_eq!(e.saved_updates(), 1);
    }

    #[test]
    fn coalescing_never_updates_more_than_ooo() {
        use crate::engine::OooEngine as Plain;
        let pages = [0u64, 1, 2, 64, 65, 100, 101, 300, 300, 5];
        let mut hc = CtxHarness::ideal();
        let mut c = CoalescingEngine::new(4, 2);
        for &p in &pages {
            let req = hc.req(p, 0);
            let _ = c.persist(req, &mut hc.ctx());
        }
        let _ = c.seal_epoch(&mut hc.ctx());
        let coalesced = hc.stats.node_updates;

        let mut ho = CtxHarness::ideal();
        let mut o = Plain::new(4, 2);
        for &p in &pages {
            let req = ho.req(p, 0);
            let _ = o.persist(req, &mut ho.ctx());
        }
        let _ = o.seal_epoch(&mut ho.ctx());
        let plain = ho.stats.node_updates;

        assert!(coalesced < plain, "coalescing saved nothing");
        assert_eq!(plain, pages.len() as u64 * 4);
    }

    #[test]
    fn cross_epoch_ordering_preserved() {
        let mut h = CtxHarness::ideal();
        let mut e = CoalescingEngine::new(4, 2);
        let _ = e.persist(h.req(0, 0), &mut h.ctx());
        let c1 = e.seal_epoch(&mut h.ctx()).expect("coalescing seals epochs");
        let _ = e.persist(h.req(511, 0), &mut h.ctx());
        let c2 = e.seal_epoch(&mut h.ctx()).expect("coalescing seals epochs");
        assert!(c2 > c1, "epoch completions must stay ordered");
    }

    #[test]
    fn lca_update_waits_for_younger_sublca_work() {
        // The carrier's LCA commit is gated on the newcomer's sub-LCA
        // completion — the reason coalescing's runtime stays close to
        // o3 (§VII).
        let mut h = CtxHarness::ideal();
        let mut e = CoalescingEngine::new(4, 2);
        let _ = e.persist(h.req(0, 0), &mut h.ctx());
        // Newcomer arrives late: the chain cannot commit the LCA any
        // earlier than the newcomer's leaf update.
        let done = e.persist(h.req(1, 1_000), &mut h.ctx());
        // Newcomer's leaf done at 1040; carrier then commits leaf(0)
        // at >= its ready and LCA at >= 1040.
        assert!(done >= Cycle::new(1040 + 40));
    }
}
