//! `paper_sweep`: every paper artefact's runs through the supervised,
//! cached run matrix, as `all` executes them.
//!
//! This is what someone regenerating the paper's tables and figures
//! runs. It is the only workload that goes through
//! `matrix::execute_supervised`, the run cache and the supervisor.
//! Each pass starts from an empty run-cache directory. Its runs are
//! short, so trace generation and per-run set-up take a large share.

use std::collections::{BTreeMap, HashSet};
use std::path::Path;
use std::time::Instant;

use plp_bench::matrix::{self, MatrixOptions, ResultSet, RunRequest};
use plp_bench::{all_specs, RunSettings, RunVerdict, SupervisorOptions};
use plp_core::{RunReport, SimSetup, SystemConfig, UpdateScheme};
use plp_trace::{spec, Trace, TraceGenerator};

use crate::layers::{self, LayerInputs, Replays, Run};
use crate::out::{geomean, Checks, Outcome};
use crate::spans::Tracer;
use crate::{par_map, Ctx, Plan, Unit};

/// Instructions per run at which the sweep is timed.
const INSTRUCTIONS: u64 = 100_000;

/// The size and seed of the committed `results/*.txt` artefacts.
const COMMITTED: RunSettings = RunSettings {
    instructions: 400_000,
    seed: 7,
};

/// The paper's gmean normalized execution times (quoted in
/// `results/summary.txt`), against secure_WB.
const PAPER_GMEANS: [(UpdateScheme, f64); 4] = [
    (UpdateScheme::Sp, 8.2),
    (UpdateScheme::Pipeline, 3.1),
    (UpdateScheme::O3, 1.207),
    (UpdateScheme::Coalescing, 1.202),
];

/// Every spec's requests, and how many are distinct.
fn requests(settings: RunSettings) -> (Vec<RunRequest>, usize) {
    let requests: Vec<RunRequest> = all_specs()
        .iter()
        .flat_map(|spec| spec.runs_needed(settings))
        .collect();
    let unique = requests
        .iter()
        .map(RunRequest::key)
        .collect::<HashSet<_>>()
        .len();
    (requests, unique)
}

/// Everything `all` prints, rendered from `results`.
fn render(results: &ResultSet, settings: RunSettings) -> Vec<(&'static str, String)> {
    all_specs()
        .iter()
        .map(|spec| (spec.id, spec.output(results, settings)))
        .collect()
}

/// What a sweep leaves beyond its reports.
struct Sweep {
    results: ResultSet,
    stats: matrix::MatrixStats,
    retries: usize,
}

/// One sweep from an empty cache directory, as a pass of one unit; the
/// reports are in key order.
fn sweep(
    tracer: &Tracer,
    threads: usize,
    reqs: &[RunRequest],
    cache: &Path,
    checks: &mut Checks,
) -> (Unit, Sweep) {
    let started = Instant::now();
    let _ = std::fs::remove_dir_all(cache);
    let sup = SupervisorOptions::new(MatrixOptions {
        threads,
        cache_dir: Some(cache.to_path_buf()),
    });
    let (results, stats, degradation) = tracer.span("matrix::execute_supervised", None, |_| {
        matrix::execute_supervised(reqs, &sup)
    });
    let seconds = started.elapsed().as_secs_f64();
    let mut retries = 0;
    for (key, log) in degradation.entries() {
        retries += usize::from(matches!(log.verdict, RunVerdict::Retried { .. }));
        checks.op(log.verdict == RunVerdict::Ok, || {
            format!("{key}: supervisor verdict {}", log.verdict.name())
        });
    }
    checks.op(reqs.iter().all(|r| results.contains(r)), || {
        "sweep lost runs".to_string()
    });
    let reports: BTreeMap<String, RunReport> = results
        .iter()
        .map(|(k, r)| (k.clone(), r.clone()))
        .collect();
    let unit = Unit {
        reports: reports.into_iter().collect(),
        seconds,
    };
    (
        unit,
        Sweep {
            results,
            stats,
            retries,
        },
    )
}

/// Mean absolute relative error, in percent, of the simulated gmean
/// normalized execution times against the paper's.
fn paper_err_pct(results: &ResultSet, settings: RunSettings) -> (f64, String) {
    let profiles = spec::all_benchmarks();
    let mut errs = Vec::new();
    let mut shown = Vec::new();
    for (scheme, paper) in PAPER_GMEANS {
        let values: Vec<f64> = profiles
            .iter()
            .map(|p| {
                let base = results.report(
                    &p.name,
                    &SystemConfig::for_scheme(UpdateScheme::SecureWb),
                    settings,
                );
                results
                    .report(&p.name, &SystemConfig::for_scheme(scheme), settings)
                    .normalized_to(base)
            })
            .collect();
        let g = geomean(&values);
        errs.push((g - paper).abs() / paper * 100.0);
        shown.push(format!("{} {g:.3}x vs {paper}x", scheme.name()));
    }
    (
        errs.iter().sum::<f64>() / errs.len() as f64,
        shown.join(", "),
    )
}

pub fn run(ctx: &Ctx, out: &mut Outcome) {
    let settings = RunSettings {
        instructions: ctx.instructions.unwrap_or(INSTRUCTIONS),
        seed: ctx.seed,
    };
    if ctx.trace {
        traced(ctx, out, settings);
        return;
    }

    let cache = ctx.work_dir.join("run-cache");
    let mut last = None;
    let (reqs, unique) = crate::measure(
        ctx,
        out,
        Plan {
            setup_what: "building and deduplicating the request list".into(),
            unit_what: "a cold sweep from an empty run cache".into(),
        },
        || requests(settings),
        |threads, tracer, (reqs, _): &(Vec<RunRequest>, usize), checks: &mut Checks| {
            let (unit, s) = sweep(tracer, threads, reqs, &cache, checks);
            last = Some(s);
            vec![unit]
        },
    );
    let _ = std::fs::remove_dir_all(&cache);
    let results = &last.expect("at least one sweep ran").results;

    // At the committed size and seed, every artefact `all` renders
    // must equal its committed file byte for byte; a file that cannot
    // be read fails the check too.
    if settings == COMMITTED {
        for (id, text) in render(results, settings) {
            let path = Path::new("results").join(format!("{id}.txt"));
            let same = std::fs::read_to_string(&path).is_ok_and(|c| c == text);
            out.checks.op(same, || {
                format!(
                    "{} is missing or differs from the rendered {id}",
                    path.display()
                )
            });
        }
    }

    let (err, shown) = paper_err_pct(results, settings);
    out.line(
        "paper_err_pct",
        err,
        "%",
        &format!("mean |sim - paper| / paper over 4 gmeans quoted from the paper, not measured here: {shown}"),
    );
    out.note(format!(
        "workload: {} specs, {} requests, {unique} unique runs at {} instructions",
        all_specs().len(),
        reqs.len(),
        settings.instructions
    ));
}

fn traced(ctx: &Ctx, out: &mut Outcome, settings: RunSettings) {
    let tracer = &ctx.tracer;
    let (reqs, unique) = tracer.span("requests", None, |_| requests(settings));
    let mut checks = Checks::default();
    let cache = ctx.work_dir.join("run-cache");

    let mut last = None;
    let (units, overhead_pct) =
        crate::traced_passes(ctx, &mut checks, &reqs, |threads, tracer, reqs, checks| {
            let (unit, s) = sweep(tracer, threads, reqs, &cache, checks);
            last = Some(s);
            vec![unit]
        });
    let cold = last.expect("three sweeps ran");
    let cold_reports: BTreeMap<&String, &RunReport> =
        units[0].reports.iter().map(|(k, r)| (k, r)).collect();
    // The same sweep again over the run cache the last pass filled.
    let sup = SupervisorOptions::new(MatrixOptions {
        threads: ctx.threads,
        cache_dir: Some(cache.clone()),
    });
    let warm_started = Instant::now();
    let (_, warm, _) = matrix::execute_supervised(&reqs, &sup);
    let warm_ms = warm_started.elapsed().as_secs_f64() * 1e3;
    let _ = std::fs::remove_dir_all(&cache);

    // Every unique run again, standalone, to see inside it.
    let mut seen = HashSet::new();
    let unique_reqs: Vec<&RunRequest> = reqs.iter().filter(|r| seen.insert(r.key())).collect();
    let trace_key = |r: &RunRequest| (r.bench.clone(), r.instructions, r.seed);
    let mut traces: BTreeMap<(String, u64, u64), Trace> = BTreeMap::new();
    for r in &unique_reqs {
        traces.entry(trace_key(r)).or_insert_with(|| {
            let profile = spec::benchmark(&r.bench).expect("registered SPEC profile");
            tracer.span("TraceGenerator::generate", None, |_| {
                TraceGenerator::new(profile, r.seed).generate(r.instructions)
            })
        });
    }
    let setups: Vec<SimSetup> = unique_reqs
        .iter()
        .map(|r| {
            let profile = spec::benchmark(&r.bench).expect("registered SPEC profile");
            tracer.span("SimSetup::for_profile", None, |_| {
                SimSetup::for_profile(r.config.clone(), &profile, r.seed)
                    .expect("registry configs are valid")
            })
        })
        .collect();
    let trace_of = |i: usize| &traces[&trace_key(unique_reqs[i])];
    let timed = par_map(ctx.threads, unique_reqs.len(), |i| {
        let started = Instant::now();
        let report = tracer.span("job", None, |job| {
            let sim = tracer.span("SimSetup::simulation", job, |_| setups[i].simulation());
            tracer.span("Simulation::run", job, |_| sim.run(trace_of(i)))
        });
        (report, started.elapsed().as_secs_f64() * 1e3)
    });
    let runs: Vec<Run> = timed
        .iter()
        .zip(&unique_reqs)
        .map(|((report, job_ms), r)| Run {
            scheme: r.config.scheme.name(),
            job_ms: *job_ms,
            report,
        })
        .collect();
    for (i, (r, _)) in timed.iter().enumerate() {
        let key = unique_reqs[i].key();
        checks.op(cold_reports.get(&key) == Some(&r), || {
            format!("{key}: standalone run differs from the matrix's")
        });
    }

    let mut replays = Replays::default();
    for trace in traces.values() {
        replays.cache(tracer, None, trace, SystemConfig::default().llc_bytes);
    }
    for (i, setup) in setups.iter().enumerate() {
        replays.records(tracer, None, setup, trace_of(i), &mut checks);
    }

    let profile = spec::benchmark("gcc").expect("registered SPEC profile");
    let probe = SimSetup::for_profile(
        SystemConfig::for_scheme(UpdateScheme::O3),
        &profile,
        ctx.seed,
    )
    .expect("paper-default config is valid");
    let scaling = layers::scaling(&probe, settings.instructions);

    out.checks.absorb(checks);
    layers::emit(
        out,
        LayerInputs {
            runs,
            run_ms: tracer.durations_ms("Simulation::run"),
            setup_ms: tracer.total_ms("SimSetup::for_profile")
                + tracer.total_ms("SimSetup::simulation"),
            generate_ms: tracer.total_ms("TraceGenerator::generate"),
            trace_instructions: traces.values().map(|t| t.total_instructions()).sum(),
            trace_events: traces.values().map(|t| t.op_count() as u64).sum(),
            scaling,
            replays,
            overhead_pct,
        },
    );
    out.line(
        "bench.matrix_ms",
        tracer.total_ms("matrix::execute_supervised"),
        "ms",
        "traced cold sweep, empty run cache",
    );
    out.line(
        "bench.requested_runs",
        cold.stats.requested,
        "count",
        "requests from every spec",
    );
    out.line("bench.unique_runs", unique, "count", "after deduplication");
    out.line(
        "bench.warm_ms",
        warm_ms,
        "ms",
        "the same sweep again over the filled run cache",
    );
    out.line(
        "bench.cache_hits",
        warm.cache_hits,
        "count",
        &format!("warm sweep, base {} unique runs", warm.unique),
    );
    out.line(
        "bench.retries",
        cold.retries,
        "count",
        "supervisor retries in the last cold sweep",
    );
}
