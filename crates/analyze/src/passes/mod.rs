//! Semantic passes over the parsed/CFG representation.
//!
//! [`Universe`] is the whole-workspace symbol table: every file lexed
//! and parsed, structs indexed by name, functions indexed by name and
//! by `(owner, name)`, plus three interprocedural summaries computed
//! to a bounded fixpoint:
//!
//! * `notes` — the function (transitively) calls
//!   `EngineCtx::update_node`, the one primitive through which an
//!   engine updates and reports a BMT node.
//! * `writes` — the function (transitively) writes `self` state — an
//!   assignment to a `self` field or a mutating collection call on
//!   one — which is how an engine seals/acks an update batch.
//! * `crosses` — every path through the function crosses a named
//!   failpoint (`fp_hit`/`update_node`), under optimistic loops.
//!
//! Call resolution is name-based and deliberately conservative:
//! `self.f()` resolves through the enclosing impl owner, `self.x.f()`
//! through the owner's field type, `Type::f()` through the qualifier;
//! a bare name resolves only when unambiguous. Unresolvable calls
//! contribute `false` to every summary, so the passes over-report
//! rather than silently trust unknown code.
//!
//! Each pass lives in its own submodule and reports [`Finding`]s with
//! stable diagnostic codes (`PLP-E…`, `PLP-F…`, `PLP-S…`, `PLP-C…`,
//! `PLP-A…`); the rule ids tie into the existing allow machinery.

pub mod engine_contract;
pub mod failpoint_cover;
pub mod narrowing;
pub mod shard_escape;
pub mod unused_allow;

use crate::cfg::{self, Atom};
use crate::lint::rules::{FileScope, Finding};
use crate::lint::scan::SourceModel;
use crate::syntax::{self, Block, Call, ExprInfo, Function, ParsedFile, StmtKind, TokenStream};
use std::collections::HashMap;

/// One analyzed file.
pub struct FileUnit {
    /// Repo-relative path with `/` separators.
    pub path: String,
    /// Scope classification (decides which passes apply).
    pub scope: FileScope,
    /// Full source text.
    pub text: String,
    /// Token stream.
    pub tokens: TokenStream,
    /// Parsed items.
    pub parsed: ParsedFile,
    /// Line model (allow directives, test regions).
    pub model: SourceModel,
}

/// Whole-workspace symbol table and summaries.
pub struct Universe {
    /// All files, in deterministic path order.
    pub files: Vec<FileUnit>,
    /// Global function table: `(file index, function index)`.
    fns: Vec<(usize, usize)>,
    by_name: HashMap<String, Vec<usize>>,
    by_owner: HashMap<(String, String), Vec<usize>>,
    structs: HashMap<String, Vec<(String, String)>>,
    notes: Vec<bool>,
    writes: Vec<bool>,
    crosses: Vec<bool>,
}

/// Mutating collection calls that count as writing the receiver.
const MUTATORS: [&str; 5] = ["push", "push_back", "insert", "extend", "append"];

impl Universe {
    /// Builds the universe from `(path, text)` pairs and computes the
    /// interprocedural summaries.
    pub fn build(inputs: Vec<(String, String)>) -> Universe {
        let mut files = Vec::with_capacity(inputs.len());
        for (path, text) in inputs {
            let tokens = syntax::lex(&text);
            let parsed = syntax::parse(&text, &tokens);
            let model = SourceModel::parse(&text);
            let scope = FileScope::classify(&path);
            files.push(FileUnit {
                path,
                scope,
                text,
                tokens,
                parsed,
                model,
            });
        }
        let mut u = Universe {
            files,
            fns: Vec::new(),
            by_name: HashMap::new(),
            by_owner: HashMap::new(),
            structs: HashMap::new(),
            notes: Vec::new(),
            writes: Vec::new(),
            crosses: Vec::new(),
        };
        for (fi, file) in u.files.iter().enumerate() {
            for s in &file.parsed.structs {
                u.structs
                    .entry(s.name.clone())
                    .or_default()
                    .extend(s.fields.iter().cloned());
            }
            for (xi, f) in file.parsed.functions.iter().enumerate() {
                let gid = u.fns.len();
                u.fns.push((fi, xi));
                u.by_name.entry(f.name.clone()).or_default().push(gid);
                if let Some(owner) = &f.owner {
                    u.by_owner
                        .entry((owner.clone(), f.name.clone()))
                        .or_default()
                        .push(gid);
                }
            }
        }
        u.notes = vec![false; u.fns.len()];
        u.writes = vec![false; u.fns.len()];
        u.crosses = vec![false; u.fns.len()];
        u.fixpoint();
        u
    }

    /// The function behind a global id.
    pub fn function(&self, gid: usize) -> &Function {
        let (fi, xi) = self.fns[gid];
        &self.files[fi].parsed.functions[xi]
    }

    /// Whether the line (1-based) sits in a test region of `file`.
    pub fn in_test(&self, file: usize, line: u32) -> bool {
        self.files[file]
            .model
            .lines
            .get(line.saturating_sub(1) as usize)
            .is_some_and(|l| l.in_test)
    }

    /// Field type on a struct, by name.
    pub fn field_ty(&self, owner: &str, field: &str) -> Option<&str> {
        self.structs
            .get(owner)?
            .iter()
            .find(|(n, _)| n == field)
            .map(|(_, t)| t.as_str())
    }

    /// Resolves a call site to candidate global function ids, given
    /// the caller's impl owner.
    pub fn resolve(&self, call: &Call, caller_owner: Option<&str>) -> Vec<usize> {
        if let Some(q) = &call.qual {
            let owned = self
                .by_owner
                .get(&(q.clone(), call.name.clone()))
                .cloned()
                .unwrap_or_default();
            if !owned.is_empty() {
                return owned;
            }
            return Vec::new();
        }
        match call.recv.as_slice() {
            [] => {
                // Free function: unambiguous by name only.
                let c = self.by_name.get(&call.name).cloned().unwrap_or_default();
                if c.len() == 1 {
                    c
                } else {
                    Vec::new()
                }
            }
            [s] if s == "self" => caller_owner
                .and_then(|o| self.by_owner.get(&(o.to_string(), call.name.clone())))
                .cloned()
                .unwrap_or_default(),
            [s, field] if s == "self" => {
                let Some(owner) = caller_owner else {
                    return Vec::new();
                };
                let Some(ft) = self.field_ty(owner, field) else {
                    return Vec::new();
                };
                let base = base_type(ft);
                self.by_owner
                    .get(&(base.to_string(), call.name.clone()))
                    .cloned()
                    .unwrap_or_default()
            }
            _ => Vec::new(),
        }
    }

    /// Whether a call (transitively) reports through `update_node`.
    pub fn call_notes(&self, call: &Call, caller_owner: Option<&str>) -> bool {
        if call.name == "update_node" {
            return true;
        }
        let c = self.resolve(call, caller_owner);
        !c.is_empty() && c.iter().all(|&g| self.notes[g])
    }

    /// Whether a call (transitively) writes `self` state when invoked
    /// on `self` or a `self` field.
    pub fn call_writes_self(&self, call: &Call, caller_owner: Option<&str>) -> bool {
        let on_self = call.recv.first().is_some_and(|r| r == "self");
        if !on_self {
            return false;
        }
        if call.recv.len() >= 2 && MUTATORS.contains(&call.name.as_str()) {
            return true;
        }
        let c = self.resolve(call, caller_owner);
        !c.is_empty() && c.iter().all(|&g| self.writes[g])
    }

    /// Whether a call crosses a failpoint on all its paths.
    pub fn call_crosses(&self, call: &Call, caller_owner: Option<&str>) -> bool {
        if call.name == "fp_hit" || call.name == "update_node" {
            return true;
        }
        let c = self.resolve(call, caller_owner);
        !c.is_empty() && c.iter().all(|&g| self.crosses[g])
    }

    /// Return type of the unique resolution of a call, if any.
    pub fn call_ret_ty(&self, call: &Call, caller_owner: Option<&str>) -> Option<&str> {
        let c = self.resolve(call, caller_owner);
        let mut ret: Option<&str> = None;
        for &g in &c {
            let r = self.function(g).ret_ty.as_deref()?;
            match ret {
                None => ret = Some(r),
                Some(prev) if prev == r => {}
                Some(_) => return None,
            }
        }
        ret
    }

    /// Owners of functions with any of the given names — used to
    /// derive the shard-handle types from the stepping API defs.
    pub fn owners_of(&self, names: &[&str]) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for (fi, file) in self.files.iter().enumerate() {
            let _ = fi;
            for f in &file.parsed.functions {
                if names.contains(&f.name.as_str()) {
                    if let Some(o) = &f.owner {
                        if !out.contains(o) {
                            out.push(o.clone());
                        }
                    }
                }
            }
        }
        out.sort();
        out
    }

    /// Bounded fixpoint over the three summaries.
    fn fixpoint(&mut self) {
        for _ in 0..8 {
            let mut changed = false;
            for gid in 0..self.fns.len() {
                let (fi, xi) = self.fns[gid];
                let f = &self.files[fi].parsed.functions[xi];
                let owner = f.owner.as_deref();
                let Some(body) = &f.body else { continue };

                let mut notes = false;
                let mut writes = false;
                walk_exprs(body, &mut |e: &ExprInfo| {
                    for c in &e.calls {
                        notes |= self.call_notes(c, owner);
                        writes |= self.call_writes_self(c, owner);
                    }
                    if let Some(a) = &e.assign {
                        writes |= a.root == "self" && a.field.is_some();
                    }
                });
                // `let … = self.field…` style writes are assignments
                // only; collection mutators already covered above.

                let crosses = match cfg::build(f) {
                    Some(g) => {
                        let is_gen = |a: &Atom<'_>| {
                            a.expr.is_some_and(|e| {
                                e.calls.iter().any(|c| self.call_crosses(c, owner))
                            })
                        };
                        crate::dataflow::must_hit_from(&g, &is_gen, true)[g.entry]
                    }
                    None => false,
                };

                if notes != self.notes[gid] {
                    self.notes[gid] = notes;
                    changed = true;
                }
                if writes != self.writes[gid] {
                    self.writes[gid] = writes;
                    changed = true;
                }
                if crosses != self.crosses[gid] {
                    self.crosses[gid] = crosses;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
    }
}

/// Strips references, `mut`, lifetimes and one smart-pointer layer
/// from a normalized type, yielding the base type name:
/// `&mut EngineCtx` → `EngineCtx`, `Box<OooCore>` → `OooCore`.
pub fn base_type(ty: &str) -> &str {
    let mut t = ty.trim();
    loop {
        let before = t;
        t = t.trim_start_matches('&').trim();
        if let Some(rest) = t.strip_prefix("mut ") {
            t = rest.trim();
        }
        if t.starts_with('\'') {
            // Lifetime: skip to the next space-separated word.
            t = t.split_once(' ').map(|(_, r)| r).unwrap_or("").trim();
        }
        for wrapper in ["Box<", "Rc<", "Arc<", "Option<"] {
            if let Some(rest) = t.strip_prefix(wrapper) {
                t = rest.trim_end_matches('>').trim();
            }
        }
        if t == before {
            break;
        }
    }
    // Drop generics on the base itself: `Vec<u8>` → `Vec`.
    t.split('<').next().unwrap_or(t)
}

/// Calls `f` on every expression in the block, recursively.
pub fn walk_exprs<'a>(b: &'a Block, f: &mut impl FnMut(&'a ExprInfo)) {
    for s in &b.stmts {
        match &s.kind {
            StmtKind::Let {
                init, else_block, ..
            } => {
                if let Some(e) = init {
                    f(e);
                }
                if let Some(eb) = else_block {
                    walk_exprs(eb, f);
                }
            }
            StmtKind::Expr { expr } => f(expr),
            StmtKind::If {
                cond,
                then_b,
                else_b,
            } => {
                f(cond);
                walk_exprs(then_b, f);
                if let Some(eb) = else_b {
                    walk_exprs(eb, f);
                }
            }
            StmtKind::Match { scrut, arms } => {
                f(scrut);
                for arm in arms {
                    walk_exprs(&arm.body, f);
                }
            }
            StmtKind::Loop { header, body, .. } => {
                if let Some(h) = header {
                    f(h);
                }
                walk_exprs(body, f);
            }
            StmtKind::Return { value } => {
                if let Some(v) = value {
                    f(v);
                }
            }
            StmtKind::BareBlock { block } => walk_exprs(block, f),
            StmtKind::Break | StmtKind::Continue | StmtKind::Opaque => {}
        }
    }
}

/// Whether a function takes an `EngineCtx` parameter — the scope
/// marker for the engine-contract pass.
pub fn takes_engine_ctx(f: &Function) -> bool {
    f.params.iter().any(|p| p.ty.contains("EngineCtx"))
}

/// Runs every semantic pass over one file of the universe. The
/// lexical rules and the unused-allow pass are layered on by the
/// caller ([`crate::lint`]).
pub fn run_semantic(u: &Universe, file: usize) -> Vec<Finding> {
    let mut out = Vec::new();
    engine_contract::run(u, file, &mut out);
    failpoint_cover::run(u, file, &mut out);
    shard_escape::run(u, file, &mut out);
    narrowing::run(u, file, &mut out);
    out.sort_by(|a, b| (a.line, a.col, a.code).cmp(&(b.line, b.col, b.code)));
    out
}

/// Helper for passes: pushes a finding with the allow flag resolved
/// against the file's line model.
#[allow(clippy::too_many_arguments)]
pub fn emit(
    u: &Universe,
    file: usize,
    rule: &'static str,
    code: &'static str,
    line: u32,
    col: u32,
    snippet: &str,
    out: &mut Vec<Finding>,
) {
    let unit = &u.files[file];
    out.push(Finding {
        rule,
        code,
        path: unit.path.clone(),
        line: line as usize,
        col: col as usize,
        snippet: snippet.to_string(),
        allowed: unit.model.allows(line.saturating_sub(1) as usize, rule),
    });
}
