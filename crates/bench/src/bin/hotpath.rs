//! Hot-path microbenchmark: steady-state host cost of the simulator
//! per scheme, a linearity probe, plus the cold/warm wall-clock of a
//! reduced experiment sweep.
//!
//! Per scheme, the benchmark generates one trace, warms the process
//! with an untimed run, then times `--reps` full simulations and
//! reports the *fastest* observed host nanoseconds per simulated
//! instruction (never zero, whatever the scheme) and per BMT node
//! update (schemes that make no persist-path call — every call updates
//! at least its leaf — report none). Host noise is strictly additive,
//! so the minimum is the stable estimator of the code's actual cost —
//! a median would gate on machine load. Each ns/instruction sample is
//! additionally divided by the wall-clock of a fixed pure-CPU
//! calibration workload timed around it, yielding a load-normalized
//! *relative cost*: a slow or contended machine inflates numerator and
//! denominator alike, while a code regression inflates only the
//! numerator.
//!
//! The scaling probe times o3 on gcc at [`SCALING_INSTRUCTIONS`] and at
//! 4× that (best of `--reps` each) and fails the run when the ratio
//! exceeds [`SCALING_LIMIT`]: a cost that grows superlinearly with run
//! length hides below the fixed size the per-scheme section times. The
//! sweep section executes every registered experiment's requests at a
//! reduced instruction count, cold then warm, through
//! [`plp_bench::matrix::time_sweep`].
//!
//! The result is written to `BENCH_hotpath.json` (override with
//! `--out`). With `--check <baseline.json>` the run compares its
//! per-scheme *relative costs* against the committed baseline's
//! `relative_cost` section and exits 1 on a >10% regression; raw
//! nanoseconds and wall-clock numbers are reported but never gate
//! (they track machine load, not just code).
//!
//! Host timing is intentionally nondeterministic (it measures this
//! machine); simulated results never flow through this binary.
//!
//! Usage: `hotpath [--out PATH] [--check BASELINE] [--instructions N]
//! [--seed N] [--reps N] [--sweep-instructions N] [--threads N]`

use std::path::PathBuf;
use std::time::Instant;

use plp_bench::matrix::{time_sweep, MatrixOptions, RunRequest, SweepTiming};
use plp_bench::{all_specs, RunSettings};
use plp_core::{SimSetup, SystemConfig, UpdateScheme};
use plp_trace::{spec, TraceGenerator};

/// Tolerated per-scheme slowdown before `--check` fails the run.
const REGRESSION_TOLERANCE: f64 = 1.10;

/// The scaling probe's short run length; the long run is 4× this.
const SCALING_INSTRUCTIONS: u64 = 400_000;

/// Largest tolerated host-time ratio of the scaling probe's long run
/// to its short one. Linear code measures about 4.6 on o3/gcc; the
/// quadratic NVM bank prune measured 11.5–14.5.
const SCALING_LIMIT: f64 = 6.0;

struct Options {
    out: PathBuf,
    check: Option<PathBuf>,
    instructions: u64,
    seed: u64,
    reps: usize,
    sweep_instructions: u64,
    threads: usize,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            out: PathBuf::from("BENCH_hotpath.json"),
            check: None,
            instructions: 100_000,
            seed: 7,
            reps: 7,
            sweep_instructions: 50_000,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: hotpath [--out PATH] [--check BASELINE] [--instructions N] \
         [--seed N] [--reps N] [--sweep-instructions N] [--threads N]"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut o = Options::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => match args.next() {
                Some(p) => o.out = PathBuf::from(p),
                None => usage(),
            },
            "--check" => match args.next() {
                Some(p) => o.check = Some(PathBuf::from(p)),
                None => usage(),
            },
            "--instructions" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => o.instructions = n,
                _ => usage(),
            },
            "--seed" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => o.seed = n,
                None => usage(),
            },
            "--reps" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => o.reps = n,
                _ => usage(),
            },
            "--sweep-instructions" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => o.sweep_instructions = n,
                _ => usage(),
            },
            "--threads" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => o.threads = n,
                _ => usage(),
            },
            _ => usage(),
        }
    }
    o
}

/// Iterations of the calibration workload (a fixed pure-CPU mul/add
/// chain the optimizer cannot elide).
const CAL_ITERS: u64 = 1 << 22;

/// Times the fixed calibration workload once, in nanoseconds. Pure
/// CPU with no memory traffic: machine load slows it and the
/// simulator alike, so their ratio is load-invariant.
fn calibration_ns() -> f64 {
    // lint: allow(nondeterminism) host wall-clock is the measurand
    let started = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..CAL_ITERS {
        x = std::hint::black_box(x.wrapping_mul(0x0100_0000_01B3).wrapping_add(i));
    }
    std::hint::black_box(x);
    started.elapsed().as_nanos() as f64
}

/// One scheme's steady-state host cost.
struct SchemeCost {
    scheme: UpdateScheme,
    /// Host ns per simulated instruction.
    ns_per_inst: f64,
    /// Host ns per BMT node update; `None` when the run made no
    /// persist-path call.
    ns_per_node_update: Option<f64>,
    /// The load-normalized gate metric: host time per million
    /// instructions in units of the calibration workload timed around
    /// the same sample.
    relative_cost: f64,
}

/// Measures one scheme on milc: one untimed warmup run, then the
/// minimum over `reps` timed runs of each metric.
fn scheme_cost(scheme: UpdateScheme, o: &Options) -> SchemeCost {
    let profile = spec::benchmark("milc").expect("milc is a registered benchmark");
    let trace = TraceGenerator::new(profile.clone(), o.seed).generate(o.instructions);
    let mut cfg = SystemConfig::for_scheme(scheme);
    cfg.ideal_metadata = true;
    let setup = SimSetup::for_profile(cfg, &profile, o.seed).expect("paper-default config");

    let instructions = trace.total_instructions() as f64;
    let _ = setup.simulation().run(&trace); // warmup
    let (mut best_ns, mut best_rel) = (f64::INFINITY, f64::INFINITY);
    let mut node_updates = 0;
    for _ in 0..o.reps {
        let cal_before = calibration_ns();
        let sim = setup.simulation();
        // lint: allow(nondeterminism) host wall-clock is the measurand
        let started = Instant::now();
        let report = sim.run(&trace);
        let ns = started.elapsed().as_nanos() as f64;
        let cal = cal_before.min(calibration_ns());
        node_updates = report.engine.node_updates;
        best_ns = best_ns.min(ns);
        best_rel = best_rel.min(ns / instructions * 1e6 / cal);
    }
    SchemeCost {
        scheme,
        ns_per_inst: best_ns / instructions,
        ns_per_node_update: (node_updates > 0).then(|| best_ns / node_updates as f64),
        relative_cost: best_rel,
    }
}

/// The scaling probe: best-of-`reps` host time of o3 on gcc at
/// [`SCALING_INSTRUCTIONS`] and at 4× that, taken alternately; returns
/// the ratio of the long run's time to the short one's.
fn scaling_ratio(o: &Options) -> f64 {
    let profile = spec::benchmark("gcc").expect("gcc is a registered benchmark");
    let setup = SimSetup::for_profile(SystemConfig::for_scheme(UpdateScheme::O3), &profile, o.seed)
        .expect("paper-default config");
    let short = setup.generate_trace(SCALING_INSTRUCTIONS);
    let long = setup.generate_trace(4 * SCALING_INSTRUCTIONS);
    let time = |trace| {
        let sim = setup.simulation();
        // lint: allow(nondeterminism) host wall-clock is the measurand
        let started = Instant::now();
        std::hint::black_box(sim.run(trace));
        started.elapsed().as_secs_f64()
    };
    let (mut s, mut l) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..o.reps {
        s = s.min(time(&short));
        l = l.min(time(&long));
    }
    l / s
}

/// The reduced all-experiments sweep, executed cold then warm through
/// a fresh throwaway cache directory.
fn sweep_timing(o: &Options) -> SweepTiming {
    let settings = RunSettings {
        instructions: o.sweep_instructions,
        seed: o.seed,
    };
    let mut requests: Vec<RunRequest> = Vec::new();
    for spec in all_specs() {
        requests.extend(spec.runs_needed(settings));
    }
    let cache_dir = std::env::temp_dir().join(format!(
        "plp-hotpath-cache-{}-{}",
        std::process::id(),
        o.seed
    ));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let opts = MatrixOptions {
        threads: o.threads,
        cache_dir: Some(cache_dir.clone()),
    };
    let timing = time_sweep(&requests, &opts);
    let _ = std::fs::remove_dir_all(&cache_dir);
    timing
}

/// One `"scheme": value` line per scheme, as a JSON object body.
fn json_section(
    out: &mut String,
    name: &str,
    costs: &[SchemeCost],
    value: impl Fn(&SchemeCost) -> String,
) {
    out.push_str(&format!("  \"{name}\": {{\n"));
    for (i, c) in costs.iter().enumerate() {
        let comma = if i + 1 < costs.len() { "," } else { "" };
        out.push_str(&format!(
            "    \"{}\": {}{}\n",
            c.scheme.name(),
            value(c),
            comma
        ));
    }
    out.push_str("  },\n");
}

fn render_json(o: &Options, costs: &[SchemeCost], scaling: f64, sweep: &SweepTiming) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"format\": 2,\n");
    out.push_str(&format!("  \"instructions\": {},\n", o.instructions));
    out.push_str(&format!("  \"seed\": {},\n", o.seed));
    out.push_str(&format!("  \"reps\": {},\n", o.reps));
    out.push_str(&format!(
        "  \"sweep_instructions\": {},\n",
        o.sweep_instructions
    ));
    json_section(&mut out, "relative_cost", costs, |c| {
        format!("{:.6}", c.relative_cost)
    });
    json_section(&mut out, "ns_per_inst", costs, |c| {
        format!("{:.2}", c.ns_per_inst)
    });
    json_section(&mut out, "ns_per_node_update", costs, |c| {
        c.ns_per_node_update
            .map_or("null".to_string(), |ns| format!("{ns:.1}"))
    });
    out.push_str(&format!(
        "  \"scaling_instructions\": {SCALING_INSTRUCTIONS},\n"
    ));
    out.push_str(&format!("  \"scaling_4x_o3_gcc\": {scaling:.3},\n"));
    out.push_str(&format!("  \"sweep_unique_runs\": {},\n", sweep.unique_runs));
    out.push_str(&format!(
        "  \"cold_sweep_ms\": {:.1},\n",
        sweep.cold.as_secs_f64() * 1e3
    ));
    out.push_str(&format!(
        "  \"warm_sweep_ms\": {:.1}\n",
        sweep.warm.as_secs_f64() * 1e3
    ));
    out.push_str("}\n");
    out
}

/// Pulls `"key": number` out of a flat JSON document (the only shape
/// this tool reads or writes — no dependency needed).
fn json_number(doc: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let start = doc.find(&needle)? + needle.len();
    let rest = doc[start..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Compares fresh per-scheme relative costs against the committed
/// baseline's `relative_cost` section; returns the regression report
/// lines (empty = gate passes). Only the load-normalized metric
/// gates — raw nanoseconds track the machine, not the code.
fn check_regressions(baseline: &str, costs: &[SchemeCost]) -> Vec<String> {
    let rel_section = match baseline.find("\"relative_cost\"") {
        Some(pos) => &baseline[pos..],
        None => return vec!["  baseline has no \"relative_cost\" section".to_string()],
    };
    let mut failures = Vec::new();
    for c in costs {
        let (scheme, rel) = (c.scheme, c.relative_cost);
        let Some(base) = json_number(rel_section, scheme.name()) else {
            // A scheme missing from the baseline is not a regression —
            // the next baseline refresh will pin it.
            continue;
        };
        if rel > base * REGRESSION_TOLERANCE {
            failures.push(format!(
                "  {}: relative cost {:.4} vs baseline {:.4} (+{:.0}%)",
                scheme.name(),
                rel,
                base,
                (rel / base - 1.0) * 100.0
            ));
        }
    }
    failures
}

fn main() {
    let o = parse_args();

    let mut costs = Vec::new();
    for scheme in UpdateScheme::all_extended() {
        let c = scheme_cost(scheme, &o);
        let per_update = c
            .ns_per_node_update
            .map_or("no persist-path calls".to_string(), |ns| {
                format!("{ns:>8.1} ns/node-update")
            });
        eprintln!(
            "hotpath: {:<10} {:>7.2} ns/inst  {per_update}  (relative cost {:.4})",
            scheme.name(),
            c.ns_per_inst,
            c.relative_cost
        );
        costs.push(c);
    }

    let scaling = scaling_ratio(&o);
    eprintln!(
        "hotpath: scaling o3/gcc {SCALING_INSTRUCTIONS} -> {} instructions: {scaling:.2}x \
         (limit {SCALING_LIMIT:.1}x)",
        4 * SCALING_INSTRUCTIONS
    );

    let sweep = sweep_timing(&o);
    eprintln!(
        "hotpath: sweep ({} unique runs) cold {:.2}s, warm {:.2}s",
        sweep.unique_runs,
        sweep.cold.as_secs_f64(),
        sweep.warm.as_secs_f64()
    );

    let doc = render_json(&o, &costs, scaling, &sweep);
    if let Err(e) = std::fs::write(&o.out, &doc) {
        eprintln!("hotpath: cannot write {}: {e}", o.out.display());
        std::process::exit(2);
    }
    eprintln!("hotpath: wrote {}", o.out.display());

    if scaling > SCALING_LIMIT {
        eprintln!(
            "hotpath: SCALING GATE FAILED: o3/gcc took {scaling:.2}x as long at 4x the \
             instructions (limit {SCALING_LIMIT:.1}x)"
        );
        std::process::exit(1);
    }

    if let Some(baseline_path) = &o.check {
        let baseline = match std::fs::read_to_string(baseline_path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("hotpath: cannot read baseline {}: {e}", baseline_path.display());
                std::process::exit(2);
            }
        };
        let failures = check_regressions(&baseline, &costs);
        if !failures.is_empty() {
            eprintln!(
                "hotpath: PERF GATE FAILED (>{:.0}% over baseline):",
                (REGRESSION_TOLERANCE - 1.0) * 100.0
            );
            for f in &failures {
                eprintln!("{f}");
            }
            std::process::exit(1);
        }
        eprintln!("hotpath: perf gate passed against {}", baseline_path.display());
    }
}
