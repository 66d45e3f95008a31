//@ path: crates/core/src/engine/triad_fx.rs
//! Clean triad_nvm-shaped engine: the walk is truncated at the
//! persisted floor, but every level it does visit is updated
//! in-iteration, and the relaxed-region lag is sealed into engine
//! state before any exit.

pub struct Triad {
    pub busy_until: u64,
    pub lag: u64,
}

impl Triad {
    pub fn persist(&mut self, ctx: &mut EngineCtx, levels: u64, floor: u64, t: u64) -> u64 {
        if levels == 0 {
            return t;
        }
        let mut done = t;
        // Strict region only: floor..=levels, deepest first.
        for lvl in floor..levels {
            done = ctx.update_node(lvl, lvl, done);
        }
        // The relaxed upper tree persists behind the lag register.
        self.lag = done + floor;
        self.busy_until = done;
        done
    }
}
