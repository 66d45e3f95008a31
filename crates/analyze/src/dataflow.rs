//! Dataflow analyses over [`crate::cfg`] graphs.
//!
//! Three engines cover everything the semantic passes need:
//!
//! * [`reaching_defs`] — classic forward may-analysis: which
//!   definitions of each local can reach a program point. Runs over
//!   *every* edge (pessimistic: a zero-trip loop is a real path), so
//!   it never loses a definition.
//! * [`must_hit_from`] — backward all-paths analysis: from a block's
//!   start, does every path to the function exit pass a generating
//!   atom first? Diverging paths (infinite loops, `let … else` panic
//!   arms) are vacuously true — they never reach the exit.
//! * [`forward_state`] — a single-bit forward analysis with a caller
//!   supplied transfer function and may-meet (`OR`), used for the
//!   needs-seal obligation.
//!
//! Both directional engines take the loop stance (`optimistic`)
//! described in the cfg module docs.

use crate::cfg::{Atom, BlockId, Cfg};

/// One definition site of a local variable.
#[derive(Debug, Clone)]
pub struct DefSite<'a> {
    /// Variable name.
    pub var: &'a str,
    /// Block containing the defining atom.
    pub block: BlockId,
    /// Atom index within the block.
    pub atom: usize,
    /// Initializer expression; `None` means unknown value (plain
    /// assignment, `for` pattern, un-initialized `let`).
    pub init: Option<&'a crate::syntax::ExprInfo>,
    /// Declared type annotation at the def, if any.
    pub ty: Option<&'a str>,
}

/// Reaching-definitions result.
#[derive(Debug, Clone)]
pub struct ReachingDefs<'a> {
    /// Every definition site in the function.
    pub defs: Vec<DefSite<'a>>,
    /// Per-block IN bitsets over `defs`.
    ins: Vec<BitSet>,
}

impl<'a> ReachingDefs<'a> {
    /// Definitions of `var` that can reach the atom at
    /// `(block, atom_idx)` (the state *before* that atom executes).
    pub fn reaching(&self, cfg: &Cfg<'a>, block: BlockId, atom_idx: usize, var: &str) -> Vec<&DefSite<'a>> {
        let mut live = self.ins[block].clone();
        for (i, a) in cfg.blocks[block].atoms.iter().enumerate() {
            if i >= atom_idx {
                break;
            }
            self.transfer(a, block, i, &mut live);
        }
        self.defs
            .iter()
            .enumerate()
            .filter(|&(d, site)| site.var == var && live.get(d))
            .map(|(_, site)| site)
            .collect()
    }

    /// Applies one atom's kill/gen to `live`.
    fn transfer(&self, atom: &Atom<'a>, block: BlockId, idx: usize, live: &mut BitSet) {
        let Some(def) = &atom.def else { return };
        for (d, site) in self.defs.iter().enumerate() {
            if site.var == def.name {
                live.set(d, site.block == block && site.atom == idx);
            }
        }
    }
}

/// Computes reaching definitions for `cfg` (all edges, pessimistic).
pub fn reaching_defs<'a>(cfg: &Cfg<'a>) -> ReachingDefs<'a> {
    let mut defs = Vec::new();
    for (b, i, atom) in cfg.atoms() {
        if let Some(d) = &atom.def {
            defs.push(DefSite {
                var: d.name,
                block: b,
                atom: i,
                init: d.init,
                ty: d.ty,
            });
        }
    }
    let n = cfg.blocks.len();
    let mut rd = ReachingDefs {
        defs,
        ins: vec![BitSet::new(0); n],
    };
    let words = rd.defs.len();
    let mut ins = vec![BitSet::new(words); n];
    let mut outs = vec![BitSet::new(words); n];
    // Worklist iteration to fixpoint; the lattice is finite so this
    // terminates. Bounded as belt-and-braces against graph bugs.
    let mut changed = true;
    let mut rounds = 0usize;
    while changed && rounds < 4 * n + 16 {
        changed = false;
        rounds += 1;
        for b in 0..n {
            let mut input = BitSet::new(words);
            for &(p, _) in &cfg.blocks[b].preds {
                input.union(&outs[p]);
            }
            let mut out = input.clone();
            for (i, a) in cfg.blocks[b].atoms.iter().enumerate() {
                if let Some(d) = &a.def {
                    for (dix, site) in rd.defs.iter().enumerate() {
                        if site.var == d.name {
                            out.set(dix, site.block == b && site.atom == i);
                        }
                    }
                }
            }
            if input != ins[b] || out != outs[b] {
                ins[b] = input;
                outs[b] = out;
                changed = true;
            }
        }
    }
    rd.ins = ins;
    rd
}

/// Backward all-paths analysis: `result[b]` is true iff every path
/// from the *start* of block `b` to the exit passes an atom for which
/// `is_gen` holds. Blocks that cannot reach the exit (diverging) are
/// vacuously true.
pub fn must_hit_from<'a>(
    cfg: &Cfg<'a>,
    is_gen: &dyn Fn(&Atom<'a>) -> bool,
    optimistic: bool,
) -> Vec<bool> {
    let n = cfg.blocks.len();
    // Greatest fixpoint: start true everywhere except the exit and
    // intersect over successors. Cycles that never reach the exit
    // stay true (diverging = vacuous).
    let mut hit = vec![true; n];
    hit[cfg.exit] = false;
    let mut changed = true;
    let mut rounds = 0usize;
    while changed && rounds < 4 * n + 16 {
        changed = false;
        rounds += 1;
        for b in 0..n {
            if b == cfg.exit {
                continue;
            }
            let v = block_hits(cfg, b, is_gen, optimistic, &hit);
            if v != hit[b] {
                hit[b] = v;
                changed = true;
            }
        }
    }
    hit
}

/// One block's value for [`must_hit_from`]: true if the block contains
/// a gen atom, else the AND over its (stance-filtered) successors;
/// no successors means diverging, vacuously true.
fn block_hits<'a>(
    cfg: &Cfg<'a>,
    b: BlockId,
    is_gen: &dyn Fn(&Atom<'a>) -> bool,
    optimistic: bool,
    hit: &[bool],
) -> bool {
    if cfg.blocks[b].atoms.iter().any(is_gen) {
        return true;
    }
    let mut any = false;
    for s in cfg.succs(b, optimistic) {
        any = true;
        if !hit[s] {
            return false;
        }
    }
    // No successors: diverging block (or a dead tail after
    // return/break); no path reaches the exit from here.
    let _ = any;
    true
}

/// Forward single-bit analysis with OR-meet. `transfer` folds one
/// atom into the state. Returns per-block `(in, out)` states; the
/// state arriving at [`Cfg::exit`]'s IN is the function-exit state.
pub fn forward_state<'a, F>(cfg: &Cfg<'a>, optimistic: bool, transfer: F) -> (Vec<bool>, Vec<bool>)
where
    F: Fn(&Atom<'a>, bool) -> bool,
{
    let n = cfg.blocks.len();
    let mut ins = vec![false; n];
    let mut outs = vec![false; n];
    let mut changed = true;
    let mut rounds = 0usize;
    while changed && rounds < 4 * n + 16 {
        changed = false;
        rounds += 1;
        for b in 0..n {
            let mut input = false;
            for &(p, k) in &cfg.blocks[b].preds {
                let dropped = if optimistic {
                    k == crate::cfg::EdgeKind::ZeroTrip
                } else {
                    k == crate::cfg::EdgeKind::LoopBypass
                };
                if !dropped {
                    input |= outs[p];
                }
            }
            if b == cfg.entry {
                // Entry keeps its initial false unless something loops
                // back into it (it never does; entry has no preds).
            }
            let mut state = input;
            for a in &cfg.blocks[b].atoms {
                state = transfer(a, state);
            }
            if input != ins[b] || state != outs[b] {
                ins[b] = input;
                outs[b] = state;
                changed = true;
            }
        }
    }
    (ins, outs)
}

/// Dense bitset over definition indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// All-zeros set over `len` bits.
    pub fn new(len: usize) -> Self {
        BitSet {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Tests bit `i`.
    pub fn get(&self, i: usize) -> bool {
        self.words
            .get(i / 64)
            .is_some_and(|w| w & (1u64 << (i % 64)) != 0)
    }

    /// Sets bit `i` to `v`.
    pub fn set(&mut self, i: usize, v: bool) {
        if let Some(w) = self.words.get_mut(i / 64) {
            if v {
                *w |= 1u64 << (i % 64);
            } else {
                *w &= !(1u64 << (i % 64));
            }
        }
    }

    /// In-place union.
    pub fn union(&mut self, other: &BitSet) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= *b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::{build, Cfg};
    use crate::syntax::{lex, parse};

    fn cfg_of(src: &'static str) -> Cfg<'static> {
        let ts = Box::leak(Box::new(lex(src)));
        let parsed = Box::leak(Box::new(parse(src, ts)));
        build(&parsed.functions[0]).expect("body")
    }

    fn has_call<'a>(a: &Atom<'a>, name: &str) -> bool {
        a.expr
            .is_some_and(|e| e.calls.iter().any(|c| c.name == name))
    }

    #[test]
    fn reaching_defs_branch_merge() {
        let cfg = cfg_of("fn f(c: bool) { let x = 1; if c { x = 300; } use_it(x); }");
        let rd = reaching_defs(&cfg);
        let (b, i, _) = cfg
            .atoms()
            .find(|(_, _, a)| has_call(a, "use_it"))
            .expect("use site");
        let reach = rd.reaching(&cfg, b, i, "x");
        assert_eq!(reach.len(), 2, "both defs reach the merge");
    }

    #[test]
    fn reaching_defs_kill_on_redefinition() {
        let cfg = cfg_of("fn f() { let x = 1; let x = 2; use_it(x); }");
        let rd = reaching_defs(&cfg);
        let (b, i, _) = cfg
            .atoms()
            .find(|(_, _, a)| has_call(a, "use_it"))
            .expect("use site");
        let reach = rd.reaching(&cfg, b, i, "x");
        assert_eq!(reach.len(), 1);
        assert_eq!(reach[0].atom, 1);
    }

    #[test]
    fn for_pattern_defines_unknown() {
        let cfg = cfg_of("fn f(n: u32) { let i = 1; for i in 0..n { use_it(i); } }");
        let rd = reaching_defs(&cfg);
        let (b, i, _) = cfg
            .atoms()
            .find(|(_, _, a)| has_call(a, "use_it"))
            .expect("use site");
        let reach = rd.reaching(&cfg, b, i, "i");
        // Inside the body only the loop-pattern def (unknown value)
        // reaches: the header redefines `i` on every entry.
        assert_eq!(reach.len(), 1);
        assert!(reach[0].init.is_none());
    }

    #[test]
    fn must_hit_sees_all_paths() {
        let src = "fn f(c: bool) { if c { seal(); } other(); }";
        let cfg = cfg_of(src);
        let gen = |a: &Atom<'_>| has_call(a, "seal");
        let table = must_hit_from(&cfg, &gen, true);
        assert!(!table[cfg.entry], "else path skips seal");
        let src2 = "fn g(c: bool) { if c { seal(); } else { seal(); } other(); }";
        let cfg2 = cfg_of(src2);
        let table2 = must_hit_from(&cfg2, &gen, true);
        assert!(table2[cfg2.entry]);
    }

    #[test]
    fn optimistic_loops_assume_one_iteration() {
        let src = "fn f(n: u32) { for i in 0..n { seal(i); } }";
        let cfg = cfg_of(src);
        let gen = |a: &Atom<'_>| has_call(a, "seal");
        assert!(must_hit_from(&cfg, &gen, true)[cfg.entry]);
        assert!(!must_hit_from(&cfg, &gen, false)[cfg.entry]);
    }

    #[test]
    fn diverging_paths_are_vacuous() {
        let src = "fn f(c: bool) { if c { panic_like_halt(); loop { } } seal(); }";
        let cfg = cfg_of(src);
        let gen = |a: &Atom<'_>| has_call(a, "seal");
        // The infinite loop never reaches the exit, so the only path
        // that matters crosses seal().
        assert!(must_hit_from(&cfg, &gen, true)[cfg.entry]);
    }

    #[test]
    fn forward_state_tracks_set_then_clear() {
        let src = "fn f(c: bool) { note(); if c { seal(); } }";
        let cfg = cfg_of(src);
        let (ins, _) = forward_state(&cfg, true, |a: &Atom<'_>, s| {
            if has_call(a, "note") {
                true
            } else if has_call(a, "seal") {
                false
            } else {
                s
            }
        });
        // One path (c false) arrives at exit still needing the seal.
        assert!(ins[cfg.exit]);
        let src2 = "fn f() { note(); seal(); }";
        let cfg2 = cfg_of(src2);
        let (ins2, _) = forward_state(&cfg2, true, |a: &Atom<'_>, s| {
            if has_call(a, "note") {
                true
            } else if has_call(a, "seal") {
                false
            } else {
                s
            }
        });
        assert!(!ins2[cfg2.exit]);
    }
}
