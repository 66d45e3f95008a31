//! The persist-order contract over `UpdateEngine` methods (PLP-E002).
//!
//! Scope: functions in engine files (`crates/core/src/engine/`) that
//! take an `EngineCtx` parameter — the persist/seal entry points. The
//! mutant factory is exempt (its seeded violations are the sanitizer's
//! test corpus), as is test code.
//!
//! An engine updates nodes only through `EngineCtx::walk`, which
//! updates every level of a contiguous range in order, fetching each
//! node, charging the MAC and reporting the update; the single-node
//! update, the fetch and the report are private to the context
//! module. So "a fetched node is always reported" (the retired
//! PLP-E001) and "no level of the walk is skipped" (the retired
//! PLP-E003) are enforced by rustc. One obligation remains, proved on
//! the CFG under the optimistic loop stance:
//!
//! * **PLP-E002** — no exit may leave noted updates unsealed: once a
//!   path updates a node, it must write engine state (`self` field
//!   assignment or a mutating collection call — the seal/ack) before
//!   returning. An early `return` between update and seal fires here.

use crate::cfg::{self, Atom, EdgeKind};
use crate::dataflow;
use crate::lint::rules::{Finding, ENGINE_CONTRACT};
use crate::passes::{emit, takes_engine_ctx, Universe};

/// Runs the engine-contract pass over one file.
pub fn run(u: &Universe, file: usize, out: &mut Vec<Finding>) {
    let unit = &u.files[file];
    if !unit.scope.engine || unit.scope.mutant_factory {
        return;
    }
    for f in &unit.parsed.functions {
        if !takes_engine_ctx(f) || u.in_test(file, f.line) {
            continue;
        }
        let Some(cfg) = cfg::build(f) else { continue };
        let owner = f.owner.as_deref();
        let notes = |a: &Atom<'_>| {
            a.expr
                .is_some_and(|e| e.calls.iter().any(|c| u.call_notes(c, owner)))
        };
        let seals = |a: &Atom<'_>| {
            a.expr.is_some_and(|e| {
                e.assign
                    .as_ref()
                    .is_some_and(|w| w.root == "self" && w.field.is_some())
                    || e.calls.iter().any(|c| u.call_writes_self(c, owner))
            })
        };

        // E002: needs-seal bit — set by a note, cleared by a seal. Any
        // exit predecessor still carrying the bit returns unsealed
        // state. An atom that both notes and seals evaluates its
        // right-hand side first, so the seal wins.
        let (_, outs) = dataflow::forward_state(&cfg, true, |a: &Atom<'_>, s| {
            if seals(a) {
                false
            } else if notes(a) {
                true
            } else {
                s
            }
        });
        let mut flagged = Vec::new();
        for &(p, k) in &cfg.blocks[cfg.exit].preds {
            if k == EdgeKind::ZeroTrip || !outs[p] {
                continue;
            }
            let line = cfg.blocks[p]
                .atoms
                .last()
                .map(|a| a.line)
                .unwrap_or(f.line);
            if !flagged.contains(&line) {
                flagged.push(line);
                emit(
                    u,
                    file,
                    ENGINE_CONTRACT,
                    "PLP-E002",
                    line,
                    0,
                    "exit path leaves noted updates unsealed",
                    out,
                );
            }
        }
    }
}
