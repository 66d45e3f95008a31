//! `overlap_long` and `serial_long`: long single simulations on the
//! profiles with the highest non-stack store rate.
//!
//! `overlap_long` runs the paper's PLP schemes, whose engines book NVM
//! fetches and flushes ahead of the schedule frontier, so at this
//! length the NVM bank model sets the host cost. `serial_long` runs
//! `sp` on the same traces: each persist finishes its walk before the
//! next starts, so bank bookings stay at the frontier and BMT hashing,
//! crypto and the sanitizer set the cost. A change to the NVM model
//! should move the first and leave the second alone.

use std::time::Instant;

use plp_core::{SimSetup, SystemConfig, UpdateScheme};
use plp_trace::{spec, Trace, TraceGenerator};

use crate::layers::{self, LayerInputs, Replays, Run};
use crate::out::{Checks, Outcome};
use crate::spans::Tracer;
use crate::{par_map, Ctx, Plan, Unit};

/// Highest non-stack store PPKI among the SPEC profiles.
pub const PROFILES: [&str; 3] = ["gcc", "bwaves", "leslie3d"];

/// Instructions per run. The NVM bank cost already shows here: o3/gcc
/// takes about 7x as long as at a quarter of this length. Longer runs
/// show it more (11x from here to 4x this length, which the traced
/// run's scaling probe measures), but a run long enough for that lets
/// a 20 s window hold too few passes for a steady best time on a noisy
/// host; at 1.6M the runs' spread over seeds reached 26%.
const INSTRUCTIONS: u64 = 400_000;

/// The traced run simulates this many times the timed length, so its
/// per-layer figures (the NVM replay above all) come from runs where
/// the bank cost dominates; its scaling probe compares the timed length
/// with that.
const TRACED_SCALE: u64 = 4;

pub struct LongSpec {
    schemes: &'static [UpdateScheme],
    /// The scheme `core.scaling_4x` probes, on the first profile.
    probe: UpdateScheme,
}

pub const OVERLAP: LongSpec = LongSpec {
    schemes: &[
        UpdateScheme::Pipeline,
        UpdateScheme::O3,
        UpdateScheme::Coalescing,
    ],
    probe: UpdateScheme::O3,
};

pub const SERIAL: LongSpec = LongSpec {
    schemes: &[UpdateScheme::Sp],
    probe: UpdateScheme::Sp,
};

/// Generated traces (one per profile) plus one setup per (scheme,
/// profile) job, with the index of its trace.
pub struct Prepared {
    pub traces: Vec<Trace>,
    pub jobs: Vec<(usize, SimSetup)>,
}

/// The workload's set-up: what `setup_s` times.
pub fn prepare(
    tracer: &Tracer,
    schemes: &[UpdateScheme],
    seed: u64,
    instructions: u64,
    record_persists: bool,
) -> Prepared {
    let profiles: Vec<_> = PROFILES
        .iter()
        .map(|name| spec::benchmark(name).expect("registered SPEC profile"))
        .collect();
    let traces = profiles
        .iter()
        .map(|p| {
            tracer.span("TraceGenerator::generate", None, |_| {
                TraceGenerator::new(p.clone(), seed).generate(instructions)
            })
        })
        .collect();
    let mut jobs = Vec::new();
    for &scheme in schemes {
        let mut config = SystemConfig::for_scheme(scheme);
        config.record_persists = record_persists;
        for (t, p) in profiles.iter().enumerate() {
            let setup = tracer.span("SimSetup::for_profile", None, |_| {
                SimSetup::for_profile(config.clone(), p, seed)
                    .expect("paper-default config is valid")
            });
            jobs.push((t, setup));
        }
    }
    Prepared { traces, jobs }
}

/// One pass over every job, in job order; a unit is one job.
pub fn pass(threads: usize, tracer: &Tracer, p: &Prepared) -> Vec<Unit> {
    par_map(threads, p.jobs.len(), |j| {
        let (t, setup) = &p.jobs[j];
        let started = Instant::now();
        let report = tracer.span("job", None, |job| {
            let sim = tracer.span("SimSetup::simulation", job, |_| setup.simulation());
            tracer.span("Simulation::run", job, |_| sim.run(&p.traces[*t]))
        });
        Unit {
            reports: vec![(job_name(p, j), report)],
            seconds: started.elapsed().as_secs_f64(),
        }
    })
}

/// `scheme/profile` of job `j`.
pub fn job_name(p: &Prepared, j: usize) -> String {
    let (t, setup) = &p.jobs[j];
    format!("{}/{}", setup.config().scheme.name(), PROFILES[*t])
}

pub fn run(ctx: &Ctx, out: &mut Outcome, w: LongSpec) {
    let instructions = ctx.instructions.unwrap_or(INSTRUCTIONS);
    if ctx.trace {
        // The layers are looked at where the NVM bank cost dominates.
        out.note(format!(
            "traced at {} instructions per run, 4x the timed length",
            TRACED_SCALE * instructions
        ));
        traced(ctx, out, &w, TRACED_SCALE * instructions);
        return;
    }
    crate::measure(
        ctx,
        out,
        Plan {
            setup_what: "trace generation + SimSetup".into(),
            unit_what: "one simulation".into(),
        },
        || prepare(&ctx.tracer, w.schemes, ctx.seed, instructions, false),
        |threads, tracer, p: &Prepared, _: &mut Checks| pass(threads, tracer, p),
    );
    out.note("paper_err_pct                    model unvalidated on this workload");
    out.note(format!(
        "workload: {} x {} at {instructions} instructions",
        w.schemes
            .iter()
            .map(|s| s.name())
            .collect::<Vec<_>>()
            .join(","),
        PROFILES.join(",")
    ));
}

fn traced(ctx: &Ctx, out: &mut Outcome, w: &LongSpec, instructions: u64) {
    let tracer = &ctx.tracer;
    let p = prepare(tracer, w.schemes, ctx.seed, instructions, false);
    let setup_ms = tracer.total_ms("SimSetup::for_profile");
    let mut checks = Checks::default();
    let (units, overhead_pct) = crate::traced_passes(
        ctx,
        &mut checks,
        &p,
        |threads, tracer, p, _: &mut Checks| pass(threads, tracer, p),
    );

    // Standalone layer replays, one job at a time.
    let mut replays = Replays::default();
    for (t, trace) in p.traces.iter().enumerate() {
        replays.cache(tracer, None, trace, p.jobs[t].1.config().llc_bytes);
    }
    for (t, setup) in &p.jobs {
        replays.records(tracer, None, setup, &p.traces[*t], &mut checks);
    }

    let probe = p
        .jobs
        .iter()
        .position(|(t, s)| *t == 0 && s.config().scheme == w.probe)
        .expect("probe job is part of the workload");
    let scaling = layers::scaling(&p.jobs[probe].1, instructions / TRACED_SCALE);

    out.checks.absorb(checks);
    layers::emit(
        out,
        LayerInputs {
            runs: units
                .iter()
                .zip(&p.jobs)
                .map(|(unit, (_, setup))| Run {
                    scheme: setup.config().scheme.name(),
                    job_ms: unit.seconds * 1e3,
                    report: &unit.reports[0].1,
                })
                .collect(),
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
}
