//! Per-layer figures shared by every workload's traced run.
//!
//! `Simulation::run` hides the cache, crypto, BMT and NVM layers, so
//! their host cost comes from standalone replays of each layer's public
//! API over a run's own trace and persist records. The replays run in
//! the traced run only, never in a timed phase. Counts and hit rates
//! come from the simulated `RunReport`s and are exact.

use std::collections::BTreeMap;
use std::time::Instant;

use plp_bmt::BonsaiTree;
use plp_cache::{CacheStats, Hierarchy, WriteMode};
use plp_core::{RunReport, SimSetup};
use plp_crypto::{CtrEngine, MacEngine};
use plp_nvm::NvmDevice;
use plp_trace::{Op, Trace};

use crate::out::{median, percentile, Checks, Outcome};
use crate::spans::{SpanId, Tracer};

/// Host cost of the standalone layer replays, summed over runs.
#[derive(Default)]
pub struct Replays {
    cache_ns: f64,
    cache_accesses: u64,
    crypto_ns: f64,
    crypto_blocks: u64,
    bmt_ns: f64,
    bmt_updates: u64,
    nvm_ns: f64,
    nvm_writes: u64,
}

impl Replays {
    /// Replays `trace` through a fresh `Hierarchy` with the run's LLC.
    pub fn cache(&mut self, tracer: &Tracer, parent: SpanId, trace: &Trace, llc_bytes: usize) {
        let mut h = Hierarchy::paper_default(llc_bytes);
        let started = Instant::now();
        tracer.span("replay.cache", parent, |_| {
            for ev in trace {
                match ev.op {
                    Op::Load { addr } => std::hint::black_box(h.load(addr)),
                    Op::Store { addr, .. } => {
                        std::hint::black_box(h.store(addr, WriteMode::WriteBack))
                    }
                };
            }
        });
        self.cache_ns += started.elapsed().as_nanos() as f64;
        self.cache_accesses += trace.op_count() as u64;
    }

    /// Re-runs `setup` with persist records on and replays the records
    /// through `CtrEngine::encrypt` + `MacEngine::compute`,
    /// `BonsaiTree::update_leaf` and `NvmDevice::write` (at each
    /// record's issue time, in execution order). The replayed
    /// ciphertexts, MACs and final root must equal the run's own.
    pub fn records(
        &mut self,
        tracer: &Tracer,
        parent: SpanId,
        setup: &SimSetup,
        trace: &Trace,
        checks: &mut Checks,
    ) {
        let mut config = setup.config().clone();
        config.record_persists = true;
        let scheme = config.scheme.name();
        let recording = SimSetup::with_base_ipc(config.clone(), setup.base_ipc())
            .expect("a valid config stays valid with records on");
        let (report, finished) = tracer.span("replay.record_run", parent, |_| {
            recording.simulation().run_with_state(trace)
        });
        let records = &report.records;
        // Overflow re-encryptions carry ids counted down from u64::MAX;
        // they re-encrypt blocks but do not update the tree.
        let is_overflow = |id: u64| id > u64::MAX / 2;

        let ctr = CtrEngine::new(config.key);
        let mac = MacEngine::new(config.key);
        let mut crypto_ok = true;
        let started = Instant::now();
        tracer.span("replay.crypto", parent, |_| {
            for r in records {
                let gamma = r.counters_after.value_for(r.addr);
                let cipher = ctr.encrypt(r.plaintext, r.addr, gamma);
                let tag = mac.compute(&cipher, r.addr, gamma);
                crypto_ok &= cipher == r.ciphertext && tag == r.mac;
            }
        });
        self.crypto_ns += started.elapsed().as_nanos() as f64;
        self.crypto_blocks += records.len() as u64;
        checks.op(crypto_ok, || {
            format!("{scheme}: replayed ciphertext or MAC differs")
        });

        let mut tree = BonsaiTree::new(config.bmt, config.key);
        let mut updates = 0u64;
        let started = Instant::now();
        tracer.span("replay.bmt", parent, |_| {
            for r in records.iter().filter(|r| !is_overflow(r.id.0)) {
                std::hint::black_box(tree.update_leaf(r.addr.page().index(), &r.counters_after));
                updates += 1;
            }
        });
        self.bmt_ns += started.elapsed().as_nanos() as f64;
        self.bmt_updates += updates;
        checks.op(tree.root() == finished.architectural_root(), || {
            format!("{scheme}: replayed BMT root differs from the run's")
        });

        let mut nvm = NvmDevice::new(config.nvm);
        let started = Instant::now();
        tracer.span("replay.nvm", parent, |_| {
            for r in records {
                std::hint::black_box(nvm.write(r.issued_at, r.addr));
            }
        });
        self.nvm_ns += started.elapsed().as_nanos() as f64;
        self.nvm_writes += records.len() as u64;
    }
}

/// One simulation of the traced pass.
pub struct Run<'a> {
    pub scheme: &'static str,
    /// Host ms of the job: minting the simulation and running it.
    pub job_ms: f64,
    pub report: &'a RunReport,
}

/// Everything the per-layer figures are computed from.
pub struct LayerInputs<'a> {
    pub runs: Vec<Run<'a>>,
    /// Host ms of each `Simulation::run` in the traced pass.
    pub run_ms: Vec<f64>,
    /// Host ms building `SimSetup`s and minting simulations.
    pub setup_ms: f64,
    /// Host ms in `TraceGenerator::generate`, and what it produced.
    pub generate_ms: f64,
    pub trace_instructions: u64,
    pub trace_events: u64,
    /// The scaling probe's result (see [`scaling`]).
    pub scaling: (f64, f64, String),
    pub replays: Replays,
    /// Traced pass vs untraced passes of the same work, in percent.
    pub overhead_pct: f64,
}

/// Emits `name = num / den` with its base, or, when the base is zero,
/// a line saying so and no rate.
fn rate(out: &mut Outcome, name: &'static str, num: f64, den: u64, unit: &'static str, base: &str) {
    if den == 0 {
        out.note(format!("{name:<32} no rate: 0 {base}"));
    } else {
        out.metric(name, num / den as f64, unit, format!("base {den} {base}"));
    }
}

fn hit_rate(out: &mut Outcome, name: &'static str, stats: impl Iterator<Item = CacheStats>) {
    let (hits, misses) = stats.fold((0, 0), |(h, m), s| (h + s.hits, m + s.misses));
    rate(
        out,
        name,
        hits as f64,
        hits + misses,
        "ratio",
        &format!("accesses, {hits} hits"),
    );
}

/// Per-scheme host cost, per instruction and per node update. A scheme
/// with no node updates (secure_WB) gets no per-update rate.
fn per_scheme(out: &mut Outcome, runs: &[Run<'_>]) {
    let mut by: BTreeMap<&str, (usize, f64, u64, u64, u64, u64)> = BTreeMap::new();
    for r in runs {
        let e = by.entry(r.scheme).or_default();
        e.0 += 1;
        e.1 += r.job_ms;
        e.2 += r.report.instructions;
        e.3 += r.report.persists;
        e.4 += r.report.writebacks;
        e.5 += r.report.engine.node_updates;
    }
    out.note("per scheme: runs, job ms, instructions, persists, writebacks, node updates, ns/inst, ns/node update");
    for (scheme, (n, ms, inst, persists, wbs, updates)) in by {
        let per_update = if updates == 0 {
            "no rate (0 node updates)".to_string()
        } else {
            format!("{:.1}", ms * 1e6 / updates as f64)
        };
        out.note(format!(
            "  {scheme:<11} {n:>4} {ms:>10.1} {inst:>11} {persists:>9} {wbs:>9} {updates:>10} {:>8.1} {per_update}",
            ms * 1e6 / inst as f64
        ));
    }
}

/// Appends every per-layer metric, in `BENCHMARK.json` order.
pub fn emit(out: &mut Outcome, i: LayerInputs<'_>) {
    per_scheme(out, &i.runs);
    let rs: Vec<&RunReport> = i.runs.iter().map(|r| r.report).collect();
    let sum = |f: &dyn Fn(&RunReport) -> u64| rs.iter().map(|r| f(r)).sum::<u64>();
    let count =
        |out: &mut Outcome, name: &'static str, value: u64, unit: &'static str, what: &str| {
            out.metric(name, value as f64, unit, what.to_string());
        };
    let instructions = sum(&|r| r.instructions);
    let node_updates = sum(&|r| r.engine.node_updates);
    let persists = sum(&|r| r.persists);
    let run_ms: f64 = i.run_ms.iter().sum();
    let n = i.run_ms.len();

    out.metric(
        "trace.generate_ms",
        i.generate_ms,
        "ms",
        "TraceGenerator::generate, all traces".into(),
    );
    rate(
        out,
        "trace.ns_per_inst",
        i.generate_ms * 1e6,
        i.trace_instructions,
        "ns/inst",
        "generated instructions",
    );
    count(
        out,
        "trace.events",
        i.trace_events,
        "count",
        "trace events generated",
    );

    out.metric(
        "core.setup_ms",
        i.setup_ms,
        "ms",
        "SimSetup::for_profile + SimSetup::simulation".into(),
    );
    out.metric(
        "core.run_ms",
        run_ms,
        "ms",
        format!("Simulation::run, {n} runs"),
    );
    rate(
        out,
        "core.ns_per_inst",
        run_ms * 1e6,
        instructions,
        "ns/inst",
        "simulated instructions",
    );
    rate(
        out,
        "core.ns_per_node_update",
        run_ms * 1e6,
        node_updates,
        "ns/update",
        "BMT node updates",
    );
    out.metric(
        "core.run_ms_p50",
        median(&i.run_ms),
        "ms",
        format!("n={n} runs"),
    );
    out.metric(
        "core.run_ms_p98",
        percentile(&i.run_ms, 98.0),
        "ms",
        format!("n={n} runs"),
    );
    let (short, long, which) = i.scaling;
    out.metric(
        "core.scaling_4x",
        long / short,
        "ratio",
        format!("{which}: {long:.1} ms over {short:.1} ms, best of 5 each; linear is 4"),
    );
    count(out, "core.persists", persists, "count", "ordered persists");
    count(
        out,
        "core.writebacks",
        sum(&|r| r.writebacks),
        "count",
        "eviction write-backs",
    );
    count(
        out,
        "core.epochs",
        sum(&|r| r.epochs),
        "count",
        "epochs sealed",
    );
    count(
        out,
        "core.overflow_blocks",
        sum(&|r| r.overflow_blocks),
        "count",
        "blocks re-encrypted by overflows",
    );

    count(
        out,
        "wpq.stall_cycles",
        sum(&|r| r.wpq_stall_cycles),
        "cycles",
        "simulated",
    );
    let peak = rs.iter().map(|r| r.wpq_peak as u64).max().unwrap_or(0);
    count(out, "wpq.peak", peak, "entries", "max over runs");
    hit_rate(
        out,
        "mdc.ctr_hit_rate",
        rs.iter().map(|r| r.metadata.counter),
    );
    hit_rate(out, "mdc.mac_hit_rate", rs.iter().map(|r| r.metadata.mac));
    hit_rate(out, "mdc.bmt_hit_rate", rs.iter().map(|r| r.metadata.bmt));

    count(
        out,
        "sanitizer.checked_node_updates",
        sum(&|r| r.sanitizer.checked_node_updates),
        "count",
        "node updates the sanitizer checked",
    );
    count(
        out,
        "sanitizer.violations",
        sum(&|r| r.sanitizer.total_violations()),
        "count",
        "must be 0",
    );

    let rp = &i.replays;
    rate(
        out,
        "cache.replay_ns_per_access",
        rp.cache_ns,
        rp.cache_accesses,
        "ns/access",
        "Hierarchy::load/store calls replayed",
    );
    hit_rate(
        out,
        "cache.l1_hit_rate",
        rs.iter().map(|r| r.data_caches[0]),
    );
    hit_rate(
        out,
        "cache.l2_hit_rate",
        rs.iter().map(|r| r.data_caches[1]),
    );
    hit_rate(
        out,
        "cache.l3_hit_rate",
        rs.iter().map(|r| r.data_caches[2]),
    );

    rate(
        out,
        "crypto.ns_per_block",
        rp.crypto_ns,
        rp.crypto_blocks,
        "ns/block",
        "blocks through CtrEngine::encrypt + MacEngine::compute",
    );
    count(
        out,
        "crypto.blocks",
        rp.crypto_blocks,
        "count",
        "persisted blocks replayed",
    );

    rate(
        out,
        "bmt.ns_per_update_leaf",
        rp.bmt_ns,
        rp.bmt_updates,
        "ns/call",
        "BonsaiTree::update_leaf calls",
    );
    count(
        out,
        "bmt.node_updates",
        node_updates,
        "count",
        "engine node updates",
    );
    rate(
        out,
        "bmt.node_updates_per_persist",
        node_updates as f64,
        persists,
        "ratio",
        "persists",
    );
    count(
        out,
        "bmt.fetches",
        sum(&|r| r.engine.bmt_fetches),
        "count",
        "BMT node fetches",
    );
    count(
        out,
        "bmt.coalesced_saved",
        sum(&|r| r.coalesced_saved_updates),
        "count",
        "node updates removed by coalescing",
    );

    rate(
        out,
        "nvm.ns_per_write",
        rp.nvm_ns,
        rp.nvm_writes,
        "ns/write",
        "NvmDevice::write calls replayed at issue time",
    );
    count(
        out,
        "nvm.reads",
        sum(&|r| r.nvm.reads),
        "count",
        "simulated",
    );
    count(
        out,
        "nvm.writes",
        sum(&|r| r.nvm.writes),
        "count",
        "simulated",
    );
    count(
        out,
        "nvm.writes_combined",
        sum(&|r| r.nvm.writes_combined),
        "count",
        "simulated",
    );
    let row_hits = sum(&|r| r.nvm.row_hits);
    rate(
        out,
        "nvm.row_hit_rate",
        row_hits as f64,
        row_hits + sum(&|r| r.nvm.row_misses),
        "ratio",
        "row accesses",
    );
    count(
        out,
        "nvm.queue_stall_cycles",
        sum(&|r| r.nvm.queue_stall_cycles),
        "cycles",
        "simulated",
    );

    out.metric(
        "tracing.overhead_pct",
        i.overhead_pct,
        "%",
        "traced pass vs the mean of the untraced passes before and after it".into(),
    );
}

/// The scaling probe: host ms of the profile-bound `setup` running its
/// trace of `n` instructions and of `4n`, each the best of five runs
/// taken alternately (host noise only ever adds time), and which run
/// that is.
pub fn scaling(setup: &SimSetup, n: u64) -> (f64, f64, String) {
    let short = setup.generate_trace(n);
    let long = setup.generate_trace(4 * n);
    let time = |trace: &Trace| {
        let sim = setup.simulation();
        let started = Instant::now();
        std::hint::black_box(sim.run(trace));
        started.elapsed().as_secs_f64() * 1e3
    };
    let (mut s, mut l) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..5 {
        s = s.min(time(&short));
        l = l.min(time(&long));
    }
    let profile = setup.profile().map_or("?", |p| p.name.as_str());
    let which = format!(
        "{}/{profile} at {} vs {n} instructions",
        setup.config().scheme.name(),
        4 * n
    );
    (s, l, which)
}
