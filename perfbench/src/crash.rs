//! `crash_recover`: simulate with a file-backed durable image, cut the
//! image as a crash would, and recover every cut twice.
//!
//! This is what someone running crash-recovery simulations runs, and
//! the only workload that writes the durable image and reads it back.
//! One scheme per image shape and rebuild strategy: `sp` (strict tuple
//! frames, full rebuild), `o3` (epoch frames, full rebuild) and
//! `triad_nvm` (suffix rebuild). Runs stay short, below where the NVM
//! bank cost grows faster than the run, so the sink and recovery do
//! most of the work.

use std::collections::{BTreeSet, HashMap};
use std::path::{Path, PathBuf};
use std::time::Instant;

use plp_core::{
    recover_image, replay_image, DurableSink, FaultVerdict, ObserverExpectation, PersistRecord,
    RebuildStrategy, RecoveryManager, RunReport, SimSetup, SystemConfig, UpdateScheme,
};
use plp_trace::spec;

use crate::layers::{self, LayerInputs, Replays, Run};
use crate::long::{job_name, Prepared, PROFILES};
use crate::out::{median, percentile, ratio, Checks, Outcome};
use crate::spans::{SpanId, Tracer};
use crate::{par_map, Ctx, Plan, Unit};

const SCHEMES: [UpdateScheme; 3] = [UpdateScheme::Sp, UpdateScheme::O3, UpdateScheme::TriadNvm];

const INSTRUCTIONS: u64 = 400_000;

/// Byte fractions of the image after its header at which it is cut;
/// 1.0 is the clean-shutdown control.
const CUTS: [f64; 4] = [0.25, 0.5, 0.75, 1.0];

/// The image header the sink writes before the run starts; no crash
/// can cut into it.
const HEADER_BYTES: usize = 32;

/// The workload's set-up; recovery needs the persist records.
fn prepare(tracer: &Tracer, seed: u64, instructions: u64) -> Prepared {
    crate::long::prepare(tracer, &SCHEMES, seed, instructions, true)
}

/// Program-order fold of the completely persisted prefix: what a
/// correct recovery must give back.
fn expectation_for(records: &[PersistRecord], complete: &BTreeSet<u64>) -> ObserverExpectation {
    let mut plaintexts = HashMap::new();
    for r in records.iter().filter(|r| complete.contains(&r.id.0)) {
        plaintexts.insert(r.addr, r.plaintext);
    }
    ObserverExpectation { plaintexts }
}

/// What a job measured beyond its report; simulated, so the same in
/// every pass.
#[derive(Clone, Default)]
struct Figures {
    /// Worst simulated recovery latency over the cuts.
    worst_recovery_cycles: u64,
    clean: u64,
    recoveries: u64,
    frames: u64,
    image_bytes: u64,
}

/// What one job measured.
struct JobResult {
    report: RunReport,
    checks: Checks,
    /// Host ms of every `recover_image` call.
    recover_ms: Vec<f64>,
    figures: Figures,
}

fn job(tracer: &Tracer, p: &Prepared, j: usize, dir: &Path) -> JobResult {
    let (t, setup) = &p.jobs[j];
    let scheme = setup.config().scheme;
    let name = job_name(p, j);
    let mut checks = Checks::default();
    tracer.span("job", None, |job| {
        let image = dir.join(format!("job{j}.img"));
        let (report, finished) = tracer.span("Simulation::run_with_state+sink", job, |_| {
            let mut sim = setup.simulation();
            match DurableSink::create(&image, setup.config(), setup.seed()) {
                Ok(sink) => sim.attach_durable_sink(sink),
                Err(e) => checks.op(false, || format!("{name}: cannot create image: {e}")),
            }
            sim.run_with_state(&p.traces[*t])
        });
        checks.op(finished.durable_error().is_none(), || {
            format!("{name}: durable sink error")
        });
        let bytes = std::fs::read(&image).unwrap_or_default();
        let _ = std::fs::remove_file(&image);
        let mut result = JobResult {
            report,
            checks: Checks::default(),
            recover_ms: Vec::new(),
            figures: Figures {
                image_bytes: bytes.len() as u64,
                ..Figures::default()
            },
        };
        let manager = RecoveryManager::for_config(setup.config());
        let correct = UpdateScheme::correct().contains(&scheme);
        for (c, cut) in CUTS.iter().enumerate() {
            let header = HEADER_BYTES.min(bytes.len());
            let len = header + ((bytes.len() - header) as f64 * cut) as usize;
            let path = dir.join(format!("job{j}-cut{c}.img"));
            cut_recover(
                tracer,
                job,
                &mut result,
                &mut checks,
                &manager,
                setup,
                &path,
                &bytes[..len],
                correct,
                &name,
            );
            let _ = std::fs::remove_file(&path);
        }
        result.checks = checks;
        result
    })
}

/// Replays one cut image, recovers it, and recovers it again to check
/// the fixpoint.
#[allow(clippy::too_many_arguments)]
fn cut_recover(
    tracer: &Tracer,
    parent: SpanId,
    result: &mut JobResult,
    checks: &mut Checks,
    manager: &RecoveryManager,
    setup: &SimSetup,
    path: &PathBuf,
    bytes: &[u8],
    correct: bool,
    name: &str,
) {
    let key = setup.config().key;
    let records = &result.report.records;
    if let Err(e) = std::fs::write(path, bytes) {
        checks.op(false, || format!("{name}: cannot write cut image: {e}"));
        return;
    }
    let replayed = match tracer.span("replay_image", parent, |_| replay_image(path, key)) {
        Ok(r) => r,
        Err(e) => {
            checks.op(false, || format!("{name}: replay failed: {e:?}"));
            return;
        }
    };
    if bytes.len() as u64 >= result.figures.image_bytes {
        result.figures.frames += replayed.frames as u64;
    }
    let expected = expectation_for(records, &replayed.complete_ids);
    if tracer.is_on() {
        tracer.span("RecoveryManager::recover", parent, |_| {
            std::hint::black_box(manager.recover(&replayed.image, records, &expected))
        });
    }
    for attempt in 0..2 {
        let started = Instant::now();
        let wb = tracer.span("recover_image", parent, |_| {
            recover_image(path, key, manager, records, &expected, None)
        });
        result
            .recover_ms
            .push(started.elapsed().as_secs_f64() * 1e3);
        let wb = match wb {
            Ok(wb) => wb,
            Err(e) => {
                checks.op(false, || format!("{name}: recover_image failed: {e:?}"));
                return;
            }
        };
        let verdict = wb.outcome.verdict();
        if attempt == 0 {
            let f = &mut result.figures;
            f.recoveries += 1;
            f.clean += u64::from(verdict == FaultVerdict::Clean);
            f.worst_recovery_cycles = f.worst_recovery_cycles.max(wb.outcome.recovery_cycles);
            let silent = matches!(
                verdict,
                FaultVerdict::UndetectedCorruption | FaultVerdict::StaleRollback
            );
            checks.op(!(correct && silent), || {
                format!("{name}: correct scheme recovered to {verdict:?}")
            });
        } else {
            checks.op(!wb.rewritten, || {
                format!("{name}: re-recovery rewrote a recovered image")
            });
        }
    }
}

/// What the passes measured beyond their reports.
#[derive(Default)]
struct Stats {
    /// Host ms of every `recover_image` call, over every pass.
    recover_ms: Vec<f64>,
    /// Each job's figures.
    figures: Vec<Figures>,
}

/// One pass over every job; a unit is one job with its sink, cuts and
/// recoveries.
fn pass(
    threads: usize,
    tracer: &Tracer,
    p: &Prepared,
    dir: &Path,
    checks: &mut Checks,
    stats: &mut Stats,
) -> Vec<Unit> {
    let results = par_map(threads, p.jobs.len(), |j| {
        let started = Instant::now();
        (job(tracer, p, j, dir), started.elapsed().as_secs_f64())
    });
    stats.figures.clear();
    results
        .into_iter()
        .enumerate()
        .map(|(j, (r, seconds))| {
            checks.absorb(r.checks);
            stats.recover_ms.extend(r.recover_ms);
            stats.figures.push(r.figures);
            Unit {
                reports: vec![(job_name(p, j), r.report)],
                seconds,
            }
        })
        .collect()
}

pub fn run(ctx: &Ctx, out: &mut Outcome) {
    let instructions = ctx.instructions.unwrap_or(INSTRUCTIONS);
    if ctx.trace {
        traced(ctx, out, instructions);
        return;
    }
    let mut stats = Stats::default();
    crate::measure(
        ctx,
        out,
        Plan {
            setup_what: "trace generation + SimSetup".into(),
            unit_what: format!(
                "one simulation with its sink, {} cuts and 2 recoveries per cut",
                CUTS.len()
            ),
        },
        || prepare(&ctx.tracer, ctx.seed, instructions),
        |threads, tracer, p: &Prepared, checks: &mut Checks| {
            pass(threads, tracer, p, &ctx.work_dir, checks, &mut stats)
        },
    );
    let recover_ms = &stats.recover_ms;
    out.line(
        "recover_ms_p50",
        median(recover_ms),
        "ms",
        &format!(
            "n={} recover_image calls; p90 {:.3} ms",
            recover_ms.len(),
            percentile(recover_ms, 90.0)
        ),
    );
    let worst = stats.figures.iter().map(|f| f.worst_recovery_cycles).max();
    out.line(
        "recovery_kcycles",
        worst.unwrap_or(0) as f64 / 1e3,
        "kcycles",
        "worst cut over every run, simulated, exact",
    );
    out.note("paper_err_pct                    model unvalidated on this workload");
    out.note(format!(
        "workload: {} x {} at {instructions} instructions, rebuild strategies {}",
        SCHEMES.map(|s| s.name()).join(","),
        PROFILES.join(","),
        SCHEMES
            .map(|s| RebuildStrategy::for_config(&SystemConfig::for_scheme(s)).name())
            .join(",")
    ));
}

fn traced(ctx: &Ctx, out: &mut Outcome, instructions: u64) {
    let tracer = &ctx.tracer;
    let dir = &ctx.work_dir;
    let p = prepare(tracer, ctx.seed, instructions);
    let setup_ms = tracer.total_ms("SimSetup::for_profile");
    let mut checks = Checks::default();
    let mut stats = Stats::default();
    let (units, overhead_pct) =
        crate::traced_passes(ctx, &mut checks, &p, |threads, tracer, p, checks| {
            pass(threads, tracer, p, dir, checks, &mut stats)
        });
    let reports: Vec<&RunReport> = units.iter().map(|u| &u.reports[0].1).collect();
    let sum = |f: fn(&Figures) -> u64| stats.figures.iter().map(f).sum::<u64>();
    let frames = sum(|f| f.frames);
    let clean = sum(|f| f.clean);
    let recoveries = sum(|f| f.recoveries);

    // Each simulation again, one at a time, without and with the sink:
    // the difference prices the sink.
    let image = dir.join("sink.img");
    let mut sink_ms = 0.0;
    let mut runs = Vec::new();
    for ((t, setup), with_sink) in p.jobs.iter().zip(reports) {
        let started = Instant::now();
        let sim = tracer.span("SimSetup::simulation", None, |_| setup.simulation());
        let plain = tracer.span("Simulation::run", None, |_| sim.run(&p.traces[*t]));
        let plain_ms = started.elapsed().as_secs_f64() * 1e3;
        runs.push(Run {
            scheme: setup.config().scheme.name(),
            job_ms: plain_ms,
            report: with_sink,
        });
        let mut sim = setup.simulation();
        let started = Instant::now();
        if let Ok(sink) = DurableSink::create(&image, setup.config(), setup.seed()) {
            sim.attach_durable_sink(sink);
        }
        std::hint::black_box(sim.run(&p.traces[*t]));
        sink_ms += started.elapsed().as_secs_f64() * 1e3 - plain_ms;
        let _ = std::fs::remove_file(&image);
        checks.op(plain == *with_sink, || {
            "attaching the durable sink changed the run".to_string()
        });
    }

    let mut replays = Replays::default();
    for (t, trace) in p.traces.iter().enumerate() {
        replays.cache(tracer, None, trace, p.jobs[t].1.config().llc_bytes);
    }
    for (t, setup) in &p.jobs {
        replays.records(tracer, None, setup, &p.traces[*t], &mut checks);
    }

    let profile = spec::benchmark(PROFILES[0]).expect("registered SPEC profile");
    let probe = SimSetup::for_profile(SystemConfig::for_scheme(SCHEMES[0]), &profile, ctx.seed)
        .expect("paper-default config is valid");
    let scaling = layers::scaling(&probe, instructions);

    out.checks.absorb(checks);
    layers::emit(
        out,
        LayerInputs {
            runs,
            run_ms: tracer.durations_ms("Simulation::run"),
            setup_ms: setup_ms + tracer.total_ms("SimSetup::simulation"),
            generate_ms: tracer.total_ms("TraceGenerator::generate"),
            trace_instructions: p.traces.iter().map(|t| t.total_instructions()).sum(),
            trace_events: p.traces.iter().map(|t| t.op_count() as u64).sum(),
            scaling,
            replays,
            overhead_pct,
        },
    );
    out.line(
        "crash.sink_ns_per_frame",
        ratio(sink_ms * 1e6, frames as f64).unwrap_or(f64::NAN),
        "ns/frame",
        &format!("run with sink minus run without, base {frames} frames"),
    );
    out.line(
        "crash.frames",
        frames,
        "count",
        "intact frames in the uncut images",
    );
    out.line(
        "crash.image_bytes",
        sum(|f| f.image_bytes),
        "bytes",
        "uncut images",
    );
    out.line(
        "crash.replay_ms",
        tracer.total_ms("replay_image"),
        "ms",
        "replay_image, every cut",
    );
    out.line(
        "recovery.recover_ms",
        tracer.total_ms("RecoveryManager::recover"),
        "ms",
        "RecoveryManager::recover, every cut",
    );
    out.line(
        "crash.recover_image_ms",
        tracer.total_ms("recover_image"),
        "ms",
        "recover_image, every cut twice",
    );
    out.line(
        "recovery.clean_frac",
        ratio(clean as f64, recoveries as f64).unwrap_or(f64::NAN),
        "ratio",
        &format!("{clean} clean / {recoveries} first recoveries"),
    );
}
