//@ path: crates/core/src/engine/triad_fx.rs
//! Clean triad_nvm-shaped engine: the walk is truncated at the
//! persisted floor, and the relaxed-region lag is sealed into engine
//! state before any exit.

pub struct Triad {
    pub busy_until: u64,
    pub lag: u64,
}

impl Triad {
    pub fn persist(&mut self, ctx: &mut EngineCtx, leaf: u64, levels: u32, floor: u32, t: u64) -> u64 {
        if levels == 0 {
            return t;
        }
        // Strict region only: floor..=levels, deepest first.
        let done = ctx.walk(leaf, floor..=levels, t, |_| 0, |_, _, _, _| {});
        // The relaxed upper tree persists behind the lag register.
        self.lag = done + floor;
        self.busy_until = done;
        done
    }
}
