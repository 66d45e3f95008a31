//! Property-based tests over the update engines: the ordering rules
//! each scheme promises must hold for arbitrary persist streams.

use plp_bmt::BmtGeometry;
use plp_core::engine::{
    CoalescingEngine, CounterTreeEngine, EngineCtx, EngineStats, OooEngine, PipelinedEngine,
    SequentialEngine, UpdateEngine, UpdateRequest,
};
use plp_core::meta::MetadataCaches;
use plp_events::Cycle;
use plp_nvm::{NvmConfig, NvmDevice};
use proptest::prelude::*;

const LEVELS: u32 = 4;

struct Harness {
    geometry: BmtGeometry,
    meta: MetadataCaches,
    nvm: NvmDevice,
    stats: EngineStats,
    path_scratch: Vec<plp_bmt::NodeLabel>,
}

impl Harness {
    fn new(ideal: bool) -> Self {
        Harness {
            geometry: BmtGeometry::new(8, LEVELS),
            meta: MetadataCaches::new(32 << 10, ideal),
            nvm: NvmDevice::new(NvmConfig::paper_default()),
            stats: EngineStats::default(),
            path_scratch: Vec::new(),
        }
    }

    fn ctx(&mut self) -> EngineCtx<'_> {
        EngineCtx {
            geometry: self.geometry,
            mac_latency: Cycle::new(40),
            meta: &mut self.meta,
            nvm: &mut self.nvm,
            stats: &mut self.stats,
            tap: None,
            path_scratch: &mut self.path_scratch,
            failpoints: None,
        }
    }
}

/// A persist stream: (page, arrival-gap) pairs.
fn arb_stream() -> impl Strategy<Value = Vec<(u64, u64)>> {
    prop::collection::vec((0u64..512, 0u64..100), 1..60)
}

proptest! {
    /// The in-order pipeline's promise: root updates complete in
    /// persist order, strictly — regardless of arrival times, page
    /// reuse or cold BMT caches.
    #[test]
    fn pipeline_roots_strictly_ordered(stream in arb_stream(), ideal in any::<bool>()) {
        let mut h = Harness::new(ideal);
        let mut e = PipelinedEngine::new(LEVELS, 64);
        let mut now = Cycle::ZERO;
        let mut last = Cycle::ZERO;
        for (page, gap) in stream {
            now += Cycle::new(gap);
            let done = e.persist(
                UpdateRequest { leaf: h.geometry.leaf(page), now },
                &mut h.ctx(),
            );
            prop_assert!(done > last, "root order violated: {done} after {last}");
            last = done;
        }
    }

    /// Sequential updates are never faster than pipelined ones on the
    /// same stream, and both perform identical node-update counts.
    #[test]
    fn sequential_dominates_pipeline(stream in arb_stream()) {
        let mut hs = Harness::new(true);
        let mut hp = Harness::new(true);
        let mut seq = SequentialEngine::new(1);
        let mut pipe = PipelinedEngine::new(LEVELS, 64);
        let mut now = Cycle::ZERO;
        let (mut last_s, mut last_p) = (Cycle::ZERO, Cycle::ZERO);
        for (page, gap) in stream {
            now += Cycle::new(gap);
            let rs = UpdateRequest { leaf: hs.geometry.leaf(page), now };
            last_s = last_s.max(seq.persist(rs, &mut hs.ctx()));
            let rp = UpdateRequest { leaf: hp.geometry.leaf(page), now };
            last_p = last_p.max(pipe.persist(rp, &mut hp.ctx()));
        }
        prop_assert!(last_s >= last_p, "sequential {last_s} beat pipeline {last_p}");
        prop_assert_eq!(hs.stats.node_updates, hp.stats.node_updates);
    }

    /// Epoch completions are monotone under OOO, and every epoch's
    /// completion respects the ETT floor (no epoch finishes before the
    /// one two back when ETT = 2).
    #[test]
    fn ooo_epoch_completions_monotone(
        epochs in prop::collection::vec(prop::collection::vec(0u64..512, 1..12), 1..12),
    ) {
        let mut h = Harness::new(true);
        let mut e = OooEngine::new(LEVELS, 2);
        let mut completions: Vec<Cycle> = Vec::new();
        for (i, pages) in epochs.iter().enumerate() {
            let flush = Cycle::new(i as u64 * 50);
            for &p in pages {
                let _ = e.persist(
                    UpdateRequest { leaf: h.geometry.leaf(p), now: flush },
                    &mut h.ctx(),
                );
            }
            completions.push(e.seal_epoch(&mut h.ctx()).expect("o3 seals epochs"));
        }
        for w in completions.windows(2) {
            prop_assert!(w[1] >= w[0], "epoch completions regressed");
        }
    }

    /// Coalescing never performs more node updates than plain OOO on
    /// the same epoch structure, and their epoch completions are both
    /// valid (coalescing may trade a bounded amount of latency).
    #[test]
    fn coalescing_never_exceeds_ooo_updates(
        epochs in prop::collection::vec(prop::collection::vec(0u64..512, 1..16), 1..8),
    ) {
        let mut ho = Harness::new(true);
        let mut hc = Harness::new(true);
        let mut o3 = OooEngine::new(LEVELS, 2);
        let mut co = CoalescingEngine::new(LEVELS, 2);
        for (i, pages) in epochs.iter().enumerate() {
            let flush = Cycle::new(i as u64 * 200);
            for &p in pages {
                let _ = o3.persist(
                    UpdateRequest { leaf: ho.geometry.leaf(p), now: flush },
                    &mut ho.ctx(),
                );
                let _ = co.persist(
                    UpdateRequest { leaf: hc.geometry.leaf(p), now: flush },
                    &mut hc.ctx(),
                );
            }
            let _ = o3.seal_epoch(&mut ho.ctx());
            let _ = co.seal_epoch(&mut hc.ctx());
        }
        prop_assert!(
            hc.stats.node_updates <= ho.stats.node_updates,
            "coalescing did {} updates, o3 only {}",
            hc.stats.node_updates,
            ho.stats.node_updates
        );
        prop_assert!(co.saved_updates() <= ho.stats.node_updates);
    }

    /// The SGX-style counter tree never completes a persist earlier
    /// than a plain sequential BMT walk of the same stream.
    #[test]
    fn counter_tree_dominates_sequential(stream in arb_stream()) {
        let mut hs = Harness::new(true);
        let mut hc = Harness::new(true);
        let mut seq = SequentialEngine::new(1);
        let mut ct = CounterTreeEngine::new(false);
        let mut now = Cycle::ZERO;
        for (page, gap) in stream {
            now += Cycle::new(gap);
            let rs = UpdateRequest { leaf: hs.geometry.leaf(page), now };
            let ds = seq.persist(rs, &mut hs.ctx());
            let rc = UpdateRequest { leaf: hc.geometry.leaf(page), now };
            let dc = ct.persist(rc, &mut hc.ctx());
            prop_assert!(dc >= ds, "counter tree {dc} beat BMT {ds}");
        }
    }
}
