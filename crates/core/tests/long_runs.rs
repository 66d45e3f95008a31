//! Long-run regressions: one scheme per persistency class (strict
//! `sp`, epoch `o3`, no persistency `secure_WB`, relaxed `triad_nvm`)
//! on gcc at 2M instructions, far above the sizes the other tests use,
//! where size-dependent costs and modelling assumptions start to bite.
//! Each run's cycle count, engine counters and NVM device counters are
//! pinned, the bank horizon must never have been crossed
//! (`late_bookings`), and the sanitizer must be clean.
//!
//! Slow in debug builds, so ignored by default. Run with
//! `cargo test --release -p plp-core --test long_runs -- --ignored`.

use plp_core::engine::EngineStats;
use plp_core::{run_benchmark, SystemConfig, UpdateScheme};
use plp_nvm::NvmStats;
use plp_trace::spec;

const INSTRUCTIONS: u64 = 2_000_000;
const SEED: u64 = 7;

fn check_long_run(scheme: UpdateScheme, total_cycles: u64, engine: EngineStats, nvm: NvmStats) {
    let profile = spec::benchmark("gcc").expect("gcc is a registered benchmark");
    let report = run_benchmark(
        &profile,
        &SystemConfig::for_scheme(scheme),
        INSTRUCTIONS,
        SEED,
    );
    assert!(report.instructions >= INSTRUCTIONS);
    assert_eq!(report.total_cycles.get(), total_cycles, "{scheme:?} cycles");
    assert_eq!(report.engine, engine, "{scheme:?} engine counters");
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
        EngineStats {
            node_updates: 1_215_459,
            bmt_fetches: 256,
            persists: 135_051,
        },
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
        EngineStats {
            node_updates: 653_238,
            bmt_fetches: 256,
            persists: 72_582,
        },
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

#[test]
#[ignore = "slow in debug builds; run with --release -- --ignored"]
fn no_persistency_secure_wb_on_gcc_at_2m() {
    check_long_run(
        UpdateScheme::SecureWb,
        3_383_848,
        EngineStats {
            node_updates: 16_380,
            bmt_fetches: 254,
            persists: 1_820,
        },
        NvmStats {
            reads: 39_862,
            writes: 1_820,
            writes_combined: 0,
            row_hits: 748,
            row_misses: 39_114,
            ..NvmStats::default()
        },
    );
}

#[test]
#[ignore = "slow in debug builds; run with --release -- --ignored"]
fn relaxed_triad_nvm_on_gcc_at_2m() {
    check_long_run(
        UpdateScheme::TriadNvm,
        16_325_355,
        EngineStats {
            node_updates: 405_153,
            bmt_fetches: 251,
            persists: 135_051,
        },
        NvmStats {
            reads: 53_192,
            writes: 105_057,
            writes_combined: 29_994,
            row_hits: 720,
            row_misses: 52_472,
            ..NvmStats::default()
        },
    );
}
