//! Engine-model microbenchmarks: scheduling throughput of the four
//! PLP update engines, and the simulated completion times of a fixed
//! burst (an ablation of mechanism cost vs mechanism benefit — the
//! *simulated* cycles differ per engine; the *host* cost of scheduling
//! is what criterion measures).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use plp_bmt::BmtGeometry;
use plp_core::engine::{
    CoalescingEngine, EngineCtx, EngineStats, OooEngine, PipelinedEngine, SequentialEngine,
    UpdateEngine, UpdateRequest,
};
use plp_core::meta::MetadataCaches;
use plp_events::Cycle;
use plp_nvm::{NvmConfig, NvmDevice};
use std::hint::black_box;

struct Harness {
    geometry: BmtGeometry,
    meta: MetadataCaches,
    nvm: NvmDevice,
    stats: EngineStats,
    walk: Vec<plp_bmt::NodeLabel>,
}

impl Harness {
    fn new() -> Self {
        Harness {
            geometry: BmtGeometry::new(8, 9),
            meta: MetadataCaches::new(128 << 10, true),
            nvm: NvmDevice::new(NvmConfig::paper_default()),
            stats: EngineStats::default(),
            walk: Vec::new(),
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
            walk: &mut self.walk,
            failpoints: None,
        }
    }
}

const BURST: u64 = 256;

fn bench_sequential(c: &mut Criterion) {
    c.bench_function("engine/sequential-256-persists", |b| {
        b.iter_batched(
            || (Harness::new(), SequentialEngine::default()),
            |(mut h, mut e)| {
                let mut last = Cycle::ZERO;
                for i in 0..BURST {
                    let req = UpdateRequest {
                        leaf: h.geometry.leaf(i * 13 % 4096),
                        now: Cycle::new(i),
                    };
                    last = e.persist(req, &mut h.ctx());
                }
                black_box(last)
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_pipelined(c: &mut Criterion) {
    c.bench_function("engine/pipelined-256-persists", |b| {
        b.iter_batched(
            || (Harness::new(), PipelinedEngine::new(9, 64)),
            |(mut h, mut e)| {
                let mut last = Cycle::ZERO;
                for i in 0..BURST {
                    let req = UpdateRequest {
                        leaf: h.geometry.leaf(i * 13 % 4096),
                        now: Cycle::new(i),
                    };
                    last = e.persist(req, &mut h.ctx());
                }
                black_box(last)
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_ooo(c: &mut Criterion) {
    c.bench_function("engine/ooo-8-epochs-of-32", |b| {
        b.iter_batched(
            || (Harness::new(), OooEngine::new(9, 2)),
            |(mut h, mut e)| {
                let mut last = None;
                for epoch in 0..8u64 {
                    for i in 0..32u64 {
                        let req = UpdateRequest {
                            leaf: h.geometry.leaf((epoch * 32 + i) * 13 % 4096),
                            now: Cycle::new(epoch * 100),
                        };
                        let _ = e.persist(req, &mut h.ctx());
                    }
                    last = e.seal_epoch(&mut h.ctx());
                }
                black_box(last)
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_coalescing(c: &mut Criterion) {
    c.bench_function("engine/coalescing-8-epochs-of-32", |b| {
        b.iter_batched(
            || (Harness::new(), CoalescingEngine::new(9, 2)),
            |(mut h, mut e)| {
                let mut last = None;
                for epoch in 0..8u64 {
                    for i in 0..32u64 {
                        let req = UpdateRequest {
                            // Page-local bursts so LCAs sit low in the
                            // tree, the coalescing-friendly case.
                            leaf: h.geometry.leaf(epoch * 64 + i / 8),
                            now: Cycle::new(epoch * 100),
                        };
                        let _ = e.persist(req, &mut h.ctx());
                    }
                    last = e.seal_epoch(&mut h.ctx());
                }
                black_box(last)
            },
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(
    benches,
    bench_sequential,
    bench_pipelined,
    bench_ooo,
    bench_coalescing
);
criterion_main!(benches);
