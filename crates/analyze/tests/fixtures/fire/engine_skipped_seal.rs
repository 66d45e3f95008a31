//@ path: crates/core/src/engine/fx_skipped_seal.rs
//! E002 mutant: an early return between the walk and the seal leaves
//! the exit path with updated-but-unsealed state.

pub struct Mutant {
    pub busy_until: u64,
}

impl Mutant {
    pub fn persist(&mut self, ctx: &mut EngineCtx, leaf: u64, t: u64, full: bool) -> u64 {
        let done = ctx.walk(leaf, 1..=4, t, |_| 0, |_, _, _, _| {});
        if full {
            return done; //~ ERROR engine-contract PLP-E002
        }
        self.busy_until = done;
        done
    }
}
