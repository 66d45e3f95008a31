//@ path: crates/core/src/engine/fx_ok.rs
//! Clean engine: a guard return before any work, the walk sealed into
//! engine state before the exit, and a hook that seals inside the
//! walk's own call.

pub struct Engine {
    pub busy_until: u64,
    pub inflight: Vec<u64>,
}

impl Engine {
    pub fn persist(&mut self, ctx: &mut EngineCtx, leaf: u64, levels: u32, t: u64) -> u64 {
        if levels == 0 {
            return t;
        }
        let done = ctx.walk(leaf, 1..=levels, t, |_| 0, |_, _, _, _| {});
        self.busy_until = done;
        done
    }

    pub fn seal_only(&mut self, ctx: &mut EngineCtx, leaf: u64, t: u64) -> u64 {
        let done = ctx.walk(leaf, 1..=1, t, |_| 0, |_, _, _, _| {});
        self.inflight.push(done);
        done
    }

    pub fn sealed_by_hook(&mut self, ctx: &mut EngineCtx, leaf: u64, t: u64) -> u64 {
        ctx.walk(leaf, 1..=4, t, |_| 0, |_, _, _, done| self.inflight.push(done))
    }
}
