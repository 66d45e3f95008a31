//@ path: crates/core/src/engine/fx_skipped_seal.rs
//! E002 mutant: an early return between the node update and the seal
//! leaves the exit path with updated-but-unsealed state.

pub struct Mutant {
    pub busy_until: u64,
}

impl Mutant {
    pub fn persist(&mut self, ctx: &mut EngineCtx, t: u64, full: bool) -> u64 {
        let done = ctx.update_node(1, 1, t);
        if full {
            return done; //~ ERROR engine-contract PLP-E002
        }
        self.busy_until = done;
        done
    }
}
