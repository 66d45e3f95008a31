//@ path: crates/core/src/system.rs
//! Clean driver: both persist drivers cross a named failpoint on
//! every path — directly, inside the walk loop (optimistic stance),
//! through a callee whose every path crosses one, or through an
//! engine walk, whose node updates visit the between-levels
//! failpoint.

pub struct System {
    pub now: u64,
}

impl System {
    pub fn persist_block(&mut self, ctx: &mut Ctx, addr: u64, fast: bool, walked: bool) -> u64 {
        if fast {
            self.checked_apply(addr);
            return self.now;
        }
        if walked {
            return ctx.walk(addr, 1..=4, self.now, |_| 0, |_, _, _, _| {});
        }
        self.fp_hit(addr);
        self.now
    }

    pub fn seal_epoch(&mut self, t: u64) -> u64 {
        let mut last = t;
        for i in 0..4 {
            self.fp_hit(i);
            last = t + i;
        }
        last
    }

    fn checked_apply(&mut self, addr: u64) {
        self.fp_hit(addr);
        self.now += 1;
    }

    fn fp_hit(&mut self, _addr: u64) {}
}
