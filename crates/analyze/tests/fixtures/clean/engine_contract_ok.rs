//@ path: crates/core/src/engine/fx_ok.rs
//! Clean engine: a guard return before any work, every level updated
//! in-iteration, a continue only after the update, and the walk
//! sealed into engine state before the exit.

pub struct Engine {
    pub busy_until: u64,
    pub inflight: Vec<u64>,
}

impl Engine {
    pub fn persist(&mut self, ctx: &mut EngineCtx, levels: u64, t: u64) -> u64 {
        if levels == 0 {
            return t;
        }
        let mut done = t;
        for lvl in 0..levels {
            let updated = ctx.update_node(lvl, lvl, t);
            if lvl == 3 {
                continue;
            }
            done = updated;
        }
        self.busy_until = done;
        done
    }

    pub fn seal_only(&mut self, ctx: &mut EngineCtx, t: u64) -> u64 {
        let done = ctx.update_node(0, 1, t);
        self.inflight.push(done);
        done
    }
}
