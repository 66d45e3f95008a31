//@ path: crates/core/src/engine/fx_continue.rs
//! E003 mutant: a `continue` jumps back to the walk-loop header
//! before the iteration's `update_node`, silently dropping a level.

pub struct Mutant {
    pub inflight: Vec<u64>,
}

impl Mutant {
    pub fn persist(&mut self, ctx: &mut EngineCtx, levels: u64, skip: u64) -> u64 {
        let mut done = 0;
        for lvl in 0..levels {
            if lvl == skip {
                continue; //~ ERROR engine-contract PLP-E003
            }
            done = ctx.update_node(lvl, lvl, done);
        }
        self.inflight.push(done);
        done
    }
}
