//! Benchmark of the PLP persist-path simulator, measured from outside
//! through the public API of the workspace crates.
//!
//! Usage:
//! `plp-perfbench --workload NAME --seed N --seconds S --trace 0|1
//! [--instructions N]`
//!
//! Workloads: `paper_sweep`, `overlap_long`, `serial_long`,
//! `crash_recover` (see `README.md` beside this package for why each
//! exists). With `--trace 0` the run times its workload for about
//! `--seconds` seconds and reports the end-to-end metrics; with
//! `--trace 1` it reports per-layer metrics from spans and standalone
//! layer replays instead. The last line of stdout is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod crash;
mod layers;
mod long;
mod out;
mod paper;
mod spans;

use std::path::PathBuf;
use std::process::ExitCode;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use plp_core::RunReport;

use out::{geomean, median, peak_rss_mb, Checks, Outcome, RSS_DETAIL};
use spans::Tracer;

/// Everything a workload needs to know about this invocation.
pub struct Ctx {
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Worker threads: the host's parallelism, at most 2.
    pub threads: usize,
    /// Overrides the workload's instructions per run.
    pub instructions: Option<u64>,
    pub trace: bool,
    /// Set up once, print the set-up seconds and exit (see
    /// [`setup_sample`]).
    pub setup_child: bool,
    /// Scratch directory inside the checkout for images and caches.
    pub work_dir: PathBuf,
    pub tracer: Tracer,
}

const WORKLOADS: [&str; 4] = [
    "paper_sweep",
    "overlap_long",
    "serial_long",
    "crash_recover",
];

fn usage() -> ExitCode {
    eprintln!(
        "usage: plp-perfbench --workload {} --seed N --seconds S --trace 0|1 \
         [--instructions N]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

/// Maps `f` over `0..n` on up to `threads` workers, keeping order.
pub fn par_map<R: Send>(threads: usize, n: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let results = std::sync::Mutex::new(&mut slots);
    std::thread::scope(|s| {
        for _ in 0..threads.clamp(1, n.max(1)) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f(i);
                results.lock().expect("no worker panics holding the slots")[i] = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("every index ran"))
        .collect()
}

/// One timed unit of a pass (a job, or `paper_sweep`'s whole sweep):
/// the reports it produced, each with its name, and its host seconds.
pub struct Unit {
    pub reports: Vec<(String, RunReport)>,
    pub seconds: f64,
}

/// How a workload's timed run is described.
pub struct Plan {
    /// What one set-up builds.
    pub setup_what: String,
    /// What one timed unit holds beyond its simulations.
    pub unit_what: String,
}

/// Fewest timed passes: every run is checked against repeats of
/// itself, and each unit's best time has three samples to choose from.
const MIN_PASSES: usize = 3;

/// Set-ups timed per run, the run's own first one included.
const SETUP_SAMPLES: usize = 16;

/// Runs this benchmark again with the same arguments in a child process
/// that only sets up, and returns the set-up seconds it prints. `None`
/// if the child could not run or printed no time.
fn setup_sample() -> Option<f64> {
    let out = Command::new(std::env::current_exe().ok()?)
        .args(std::env::args_os().skip(1))
        .args(["--setup-child", "1"])
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    out.status.success().then(|| text.trim().parse().ok())?
}

/// Checks a pass's reports: each is sanitizer-clean and, when a
/// reference pass is given, equals the reference's report of the same
/// name.
fn check_pass(checks: &mut Checks, units: &[Unit], reference: Option<&[Unit]>) {
    for (u, unit) in units.iter().enumerate() {
        for (k, (name, r)) in unit.reports.iter().enumerate() {
            checks.op(r.sanitizer.total_violations() == 0, || {
                format!(
                    "{name}: {} sanitizer violations",
                    r.sanitizer.total_violations()
                )
            });
            if let Some(reference) = reference {
                let same = reference
                    .get(u)
                    .and_then(|ru| ru.reports.get(k))
                    .is_some_and(|(n, f)| n == name && f == r);
                checks.op(same, || format!("{name}: repeated run differs"));
            }
        }
    }
}

/// The timed run every workload shares, and the end-to-end metrics it
/// gives: `setup_s`, `sim_minst_per_s`, `peak_rss_mb`,
/// `sim_cpi_geomean`, and the `outputs_digest` line.
///
/// Set-up, then one untimed reference pass on a single thread, where
/// `peak_rss_mb` is read, then timed passes on `ctx.threads` until
/// `ctx.seconds` have passed, each checked against the reference.
///
/// `setup_s` is the median of [`SETUP_SAMPLES`] set-ups, each the first
/// in a fresh process: this one's, and children's spawned at even
/// intervals over the timed phase, between passes. A set-up made in
/// this process after a pass instead reused memory the pass had freed,
/// or not, and took 2.6 or 5 ms on `paper_sweep` depending on the
/// heap's state; set-ups made back to back all land in one host regime,
/// and on a shared host the same set-up drifts between regimes a few
/// seconds long (13 to 25 ms for the long workloads' set-up on a 2-vCPU
/// host). Either way the median fell in one of two modes from one run
/// to the next.
///
/// `pass(threads, tracer, prepared, checks)` runs every unit once and
/// counts the workload's own checks in `checks`. Returns the prepared
/// input.
pub fn measure<P>(
    ctx: &Ctx,
    out: &mut Outcome,
    plan: Plan,
    prepare: impl FnOnce() -> P,
    mut pass: impl FnMut(usize, &Tracer, &P, &mut Checks) -> Vec<Unit>,
) -> P {
    let started = Instant::now();
    let p = prepare();
    let mut setup_s = vec![started.elapsed().as_secs_f64()];
    if ctx.setup_child {
        println!("{}", setup_s[0]);
        std::process::exit(0);
    }

    let tracer = &ctx.tracer;
    let mut checks = Checks::default();
    let reference = pass(1, tracer, &p, &mut checks);
    check_pass(&mut checks, &reference, None);
    let rss_mb = peak_rss_mb();

    let mut seconds = vec![Vec::new(); reference.len()];
    let started = Instant::now();
    let mut passes = 0;
    let mut samples = 1;
    while passes < MIN_PASSES || started.elapsed().as_secs_f64() < ctx.seconds {
        let units = pass(ctx.threads, tracer, &p, &mut checks);
        check_pass(&mut checks, &units, Some(&reference));
        for (s, u) in seconds.iter_mut().zip(&units) {
            s.push(u.seconds);
        }
        passes += 1;
        let interval = ctx.seconds / SETUP_SAMPLES as f64;
        while samples < SETUP_SAMPLES
            && started.elapsed().as_secs_f64() >= samples as f64 * interval
        {
            let sample = setup_sample();
            checks.op(sample.is_some(), || "a set-up child process failed".into());
            setup_s.extend(sample);
            samples += 1;
        }
    }
    out.checks.absorb(checks);

    let (lo, hi) = (min(&setup_s), setup_s.iter().copied().fold(0.0, f64::max));
    out.metric(
        "setup_s",
        median(&setup_s),
        "s",
        format!(
            "median of {} set-ups ({lo:.4}..{hi:.4} s): {}",
            setup_s.len(),
            plan.setup_what
        ),
    );
    let reports = || reference.iter().flat_map(|u| &u.reports);
    // Each unit's time is its best over the passes: on a shared host,
    // other tenants' load only ever adds time, and it comes in bursts
    // longer than one unit, so the fastest pass is the cost of the code.
    let total: u64 = reports().map(|(_, r)| r.instructions).sum();
    let time: f64 = seconds.iter().map(|s| min(s)).sum();
    out.metric(
        "sim_minst_per_s",
        total as f64 / time / 1e6,
        "Minst/s",
        format!(
            "{total} instructions / {time:.4} s, sum over {} units of each unit's best host \
             time, n={} timings; {passes} passes on {} threads; a unit is {}",
            seconds.len(),
            seconds.iter().map(Vec::len).sum::<usize>(),
            ctx.threads,
            plan.unit_what
        ),
    );
    out.metric("peak_rss_mb", rss_mb, "MB", RSS_DETAIL.to_string());
    let cpis: Vec<f64> = reports()
        .map(|(_, r)| r.total_cycles.get() as f64 / r.instructions as f64)
        .collect();
    out.metric(
        "sim_cpi_geomean",
        geomean(&cpis),
        "cycles/inst",
        format!("geomean of {} runs, exact", cpis.len()),
    );
    let (digest, n) = out::outputs_digest(reports().map(|(k, r)| (k.clone(), r)));
    out.note(format!(
        "outputs_digest                   {digest} ({n} RunReports)"
    ));
    p
}

/// The traced run's passes: untraced, traced, untraced, so that linear
/// drift cancels out of `tracing.overhead_pct`. Every pass is checked
/// against the first. Returns the traced pass and the overhead in
/// percent.
pub fn traced_passes<P>(
    ctx: &Ctx,
    checks: &mut Checks,
    p: &P,
    mut pass: impl FnMut(usize, &Tracer, &P, &mut Checks) -> Vec<Unit>,
) -> (Vec<Unit>, f64) {
    let untraced = ctx.tracer.off();
    let (mut plain_s, mut traced_s) = (0.0, 0.0);
    let mut first: Option<Vec<Unit>> = None;
    let mut traced_units = Vec::new();
    for traced in [false, true, false] {
        let tracer = if traced { &ctx.tracer } else { &untraced };
        let started = Instant::now();
        let units = pass(ctx.threads, tracer, p, checks);
        let elapsed = started.elapsed().as_secs_f64();
        check_pass(checks, &units, first.as_deref());
        if traced {
            traced_s = elapsed;
            traced_units = units;
        } else {
            plain_s += elapsed / 2.0;
            first.get_or_insert(units);
        }
    }
    (traced_units, (traced_s / plain_s - 1.0) * 100.0)
}

fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = host.min(2);
    let mut instructions = None;
    let mut setup_child = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let value = args.next();
        let Some(value) = value else { return usage() };
        match arg.as_str() {
            "--workload" => workload = WORKLOADS.iter().copied().find(|w| *w == value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = value.parse::<u8>().ok().filter(|t| *t <= 1),
            "--instructions" => match value.parse::<u64>() {
                Ok(n) if n >= 4_000 => instructions = Some(n),
                _ => return usage(),
            },
            "--setup-child" => setup_child = value == "1",
            _ => return usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage();
    };

    let ctx = Ctx {
        seed,
        seconds,
        threads,
        instructions,
        trace: trace == 1,
        setup_child,
        work_dir: PathBuf::from("perfbench")
            .join("work")
            .join(format!("{workload}-{}", std::process::id())),
        tracer: Tracer::new(workload, trace == 1),
    };
    // A set-up child exits before it would use the scratch directory.
    if !setup_child {
        if let Err(e) = std::fs::create_dir_all(&ctx.work_dir) {
            eprintln!("perfbench: cannot create {}: {e}", ctx.work_dir.display());
            return ExitCode::from(1);
        }
    }

    let mut outcome = Outcome::default();
    outcome.note(format!(
        "perfbench workload={workload} seed={seed} seconds={seconds} trace={trace} \
         threads={threads} (host parallelism {host})"
    ));
    outcome.note(
        "note: every simulation starts with empty modelled caches (no warm-up); \
         simulated statistics are exact, host times are measured on this host",
    );
    match workload {
        "paper_sweep" => paper::run(&ctx, &mut outcome),
        "overlap_long" => long::run(&ctx, &mut outcome, long::OVERLAP),
        "serial_long" => long::run(&ctx, &mut outcome, long::SERIAL),
        _ => crash::run(&ctx, &mut outcome),
    }

    if ctx.trace {
        let path = PathBuf::from("perfbench")
            .join("work")
            .join(format!("spans-{workload}-seed{seed}.jsonl"));
        match ctx.tracer.write(&path) {
            Ok(()) => outcome.note(format!("spans written to {}", path.display())),
            Err(e) => outcome.note(format!("spans not written to {}: {e}", path.display())),
        }
        outcome.note("span self time (calls, total ms, self ms):");
        for (name, (calls, total, own)) in ctx.tracer.self_times() {
            outcome.note(format!("  {name:<36} {calls:>7} {total:>12.3} {own:>12.3}"));
        }
    }
    let _ = std::fs::remove_dir_all(&ctx.work_dir);
    print!("{}", out::render(&outcome));
    ExitCode::SUCCESS
}
