//! Failpoint coverage of the system persist drivers (PLP-F001).
//!
//! The crash harness SIGKILLs real processes at named failpoints; a
//! persist-path branch that crosses none of them is a code path the
//! sweeps can never interrupt, i.e. silently untested recovery. This
//! pass proves, per driver (`persist_block`, `seal_epoch` in the
//! system model, plus `recover_image`, the durable recovery writeback
//! the double-kill sweep interrupts), that *every* path from entry to
//! exit crosses at least one failpoint visit — directly (`fp_hit`, or
//! `update_node`, which visits the between-levels failpoint) or
//! through a callee whose every path crosses one (the `crosses`
//! summary).
//!
//! Optimistic loop stance: a persist walk always runs its level loop
//! at least once, so a failpoint inside the walk loop counts.

use crate::cfg::{self, Atom};
use crate::dataflow;
use crate::lint::rules::{Finding, FAILPOINT_COVERAGE};
use crate::passes::{emit, Universe};

/// The run-time driver functions under the coverage obligation.
const DRIVERS: [&str; 2] = ["persist_block", "seal_epoch"];

/// The recovery-time drivers: every repair path of the durable
/// recovery writeback must cross a recovery failpoint, or the
/// double-kill sweep cannot interrupt it.
const RECOVERY_DRIVERS: [&str; 1] = ["recover_image"];

/// Runs the failpoint-coverage pass over one file.
pub fn run(u: &Universe, file: usize, out: &mut Vec<Finding>) {
    let unit = &u.files[file];
    if !unit.scope.persist_driver && !unit.scope.recovery_driver {
        return;
    }
    let obliged: &[&str] = if unit.scope.persist_driver {
        &DRIVERS
    } else {
        &RECOVERY_DRIVERS
    };
    for f in &unit.parsed.functions {
        if !obliged.contains(&f.name.as_str()) || u.in_test(file, f.line) {
            continue;
        }
        let Some(cfg) = cfg::build(f) else { continue };
        let owner = f.owner.as_deref();
        let is_gen = |a: &Atom<'_>| {
            a.expr
                .is_some_and(|e| e.calls.iter().any(|c| u.call_crosses(c, owner)))
        };
        if !dataflow::must_hit_from(&cfg, &is_gen, true)[cfg.entry] {
            emit(
                u,
                file,
                FAILPOINT_COVERAGE,
                "PLP-F001",
                f.line,
                0,
                &format!("fn {}: a persist path crosses no named failpoint", f.name),
                out,
            );
        }
    }
}
