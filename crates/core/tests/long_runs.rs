//! Long-run regressions: one scheme per persistency class on gcc at
//! 2M instructions, far above the sizes the other tests use, where
//! size-dependent costs and modelling assumptions start to bite. Each
//! run's cycle count and NVM device counters are pinned to the values
//! the simulator produced before the NVM bank prune became amortized,
//! the bank horizon must never have been crossed (`late_bookings`),
//! and the sanitizer must be clean.
//!
//! Slow in debug builds, so ignored by default. Run with
//! `cargo test --release -p plp-core --test long_runs -- --ignored`.

use plp_core::{run_benchmark, SystemConfig, UpdateScheme};
use plp_nvm::NvmStats;
use plp_trace::spec;

const INSTRUCTIONS: u64 = 2_000_000;
const SEED: u64 = 7;

fn check_long_run(scheme: UpdateScheme, total_cycles: u64, nvm: NvmStats) {
    let profile = spec::benchmark("gcc").expect("gcc is a registered benchmark");
    let report = run_benchmark(
        &profile,
        &SystemConfig::for_scheme(scheme),
        INSTRUCTIONS,
        SEED,
    );
    assert!(report.instructions >= INSTRUCTIONS);
    assert_eq!(report.total_cycles.get(), total_cycles, "{scheme:?} cycles");
    assert_eq!(report.nvm, nvm, "{scheme:?} NVM counters");
    assert_eq!(
        report.nvm.late_bookings, 0,
        "{scheme:?} crossed a bank horizon"
    );
    assert!(report.sanitizer.mode.is_on(), "the sanitizer must run");
    assert!(
        report.sanitizer.is_clean(),
        "{scheme:?}: {:?}",
        report.sanitizer.violations
    );
}

#[test]
#[ignore = "slow in debug builds; run with --release -- --ignored"]
fn strict_sp_on_gcc_at_2m() {
    check_long_run(
        UpdateScheme::Sp,
        48_715_735,
        NvmStats {
            reads: 53_197,
            writes: 125_470,
            writes_combined: 9_581,
            row_hits: 713,
            row_misses: 52_484,
            ..NvmStats::default()
        },
    );
}

#[test]
#[ignore = "slow in debug builds; run with --release -- --ignored"]
fn epoch_o3_on_gcc_at_2m() {
    check_long_run(
        UpdateScheme::O3,
        4_414_111,
        NvmStats {
            reads: 53_198,
            writes: 63_234,
            writes_combined: 9_348,
            row_hits: 841,
            row_misses: 52_357,
            ..NvmStats::default()
        },
    );
}
