//! BMT update engines: the timing models of §IV's four update schemes
//! (plus the `unordered` strawman).
//!
//! Every engine answers one question per persist: *when is this
//! persist's leaf-to-root BMT update path done, given the scheme's
//! ordering rules, the MAC unit's occupancy and the BMT cache's hit
//! behaviour?* Functional tree contents are maintained separately by
//! the system model; engines deal purely in time.
//!
//! | Engine | Scheme | Ordering rule |
//! |---|---|---|
//! Every engine updates its path through one primitive,
//! [`EngineCtx::walk`]: a contiguous range of levels, deepest first.
//! An engine supplies only the per-level gate and what it records
//! after each update.
//!
//! | Engine | Scheme | Walk | Ordering rule |
//! |---|---|---|---|
//! | [`SequentialEngine`] | `sp`, `secure_WB` evictions | full path (floor 1) | one persist at a time, one level at a time |
//! | [`SequentialEngine`] | `triad_nvm` | the deepest levels, down to the floor | as `sp` over the strict slice; relaxed above |
//! | [`PipelinedEngine`] | `pipeline` | full path | PTT: persists stagger one tree level apart, in order |
//! | [`UnorderedEngine`] | `unordered` | full path | none (violates Invariant 2) |
//! | [`OooEngine`] | `o3` | full path | ETT: free within an epoch, levels pipelined across epochs |
//! | [`CoalescingEngine`] | `coalescing` | below the LCA, then the carrier's suffix | `o3` plus LCA handoff chains |
//! | [`CounterTreeEngine`] | `sp_ctree` | full path | sequential, whole path persists (§V-D extension) |
//! | [`CounterTreeEngine`] | `phoenix` | full path | as `sp_ctree`, plus a dual-copy root commit |

mod coalesce;
mod ctree;
mod ctx;
mod ooo;
mod pipeline;
mod sequential;
mod unordered;

pub use coalesce::CoalescingEngine;
pub use ctree::CounterTreeEngine;
pub use ctx::{EngineCtx, MutantEngine, Mutation};
pub use ooo::OooEngine;
pub use pipeline::PipelinedEngine;
pub use sequential::SequentialEngine;
pub use unordered::UnorderedEngine;

use plp_bmt::NodeLabel;
use plp_events::Cycle;
use serde::{Deserialize, Serialize};

use crate::{SystemConfig, UpdateScheme};

/// Counters reported by the engines.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineStats {
    /// BMT node updates performed (each is one MAC computation).
    pub node_updates: u64,
    /// BMT node blocks fetched from NVM on BMT-cache misses.
    pub bmt_fetches: u64,
    /// Persists scheduled.
    pub persists: u64,
}

/// A u32 level count/number as a container index — the engines size
/// and index their per-level tables with tree levels.
pub(crate) fn level_slot(v: u32) -> usize {
    v as usize
}

/// One completion cycle per tree level, indexed by 1-based level
/// (level 1 is the root): the per-level tables the epoch engines keep.
#[derive(Debug, Clone)]
pub(crate) struct LevelTimes(Vec<Cycle>);

impl LevelTimes {
    /// All-zero times for a `levels`-deep tree.
    pub(crate) fn new(levels: u32) -> Self {
        LevelTimes(vec![Cycle::ZERO; level_slot(levels)])
    }

    /// The time recorded for `level`.
    pub(crate) fn get(&self, level: u32) -> Cycle {
        self.0[level_slot(level - 1)]
    }

    /// Raises `level`'s time to at least `t`.
    pub(crate) fn raise(&mut self, level: u32, t: Cycle) {
        let slot = level_slot(level - 1);
        self.0[slot] = self.0[slot].max(t);
    }

    /// The latest time over all levels.
    pub(crate) fn latest(&self) -> Cycle {
        self.0.iter().copied().fold(Cycle::ZERO, Cycle::max)
    }

    /// Folds these times into `sealed` level by level and clears them:
    /// an epoch's per-level completions become the next epoch's gates.
    pub(crate) fn retire_into(&mut self, sealed: &mut LevelTimes) {
        for (prev, cur) in sealed.0.iter_mut().zip(&mut self.0) {
            *prev = (*prev).max(*cur);
            *cur = Cycle::ZERO;
        }
    }
}

/// A persist request handed to an engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateRequest {
    /// The BMT leaf whose counter block changed.
    pub leaf: NodeLabel,
    /// Earliest cycle the update may begin (tuple gathered in WPQ).
    pub now: Cycle,
}

/// The scheme-specific half of the persist path: the system model owns
/// tuple gathering, crypto and WPQ slotting, and every engine plugs
/// into it through this interface. Engines are `Send` so a
/// [`crate::Simulation`] can run on a worker thread.
pub trait UpdateEngine: std::fmt::Debug + Send {
    /// Schedules a persist's BMT update path; returns the cycle this
    /// persist's scheduled work completes (for 2SP engines, the root
    /// update; for coalescing, the persist's own committed nodes — the
    /// delegated suffix completes at [`UpdateEngine::seal_epoch`]).
    fn persist(&mut self, req: UpdateRequest, ctx: &mut EngineCtx<'_>) -> Cycle;

    /// Seals the current epoch at an `sfence`: finalizes any pending
    /// coalescing chain, records per-level completion constraints for
    /// the next epoch and returns the sealed epoch's completion time.
    /// Non-epoch engines return `None`.
    fn seal_epoch(&mut self, ctx: &mut EngineCtx<'_>) -> Option<Cycle> {
        let _ = ctx;
        None
    }

    /// The time the engine's last scheduled work completes.
    fn drained_at(&self) -> Cycle;

    /// Node updates eliminated by coalescing (zero for every
    /// non-coalescing engine).
    fn saved_updates(&self) -> u64 {
        0
    }
}

/// Builds the engine for `config`'s scheme. The `secure_WB` baseline
/// routes its eviction write-backs through a sequential engine (§VII:
/// evicted dirty blocks update the BMT sequentially); `triad_nvm` is
/// the same engine stopped at its floor, and `phoenix` is the counter
/// tree engine with its shadow-root commit.
pub fn for_config(config: &SystemConfig) -> Box<dyn UpdateEngine> {
    let levels = config.bmt.levels();
    match config.scheme {
        UpdateScheme::SecureWb | UpdateScheme::Sp => Box::new(SequentialEngine::new(1)),
        UpdateScheme::Pipeline => Box::new(PipelinedEngine::new(levels, config.ptt_entries)),
        UpdateScheme::Unordered => Box::<UnorderedEngine>::default(),
        UpdateScheme::O3 => Box::new(OooEngine::new(levels, config.ett_entries)),
        UpdateScheme::Coalescing => Box::new(CoalescingEngine::new(levels, config.ett_entries)),
        UpdateScheme::SpCounterTree => Box::new(CounterTreeEngine::new(false)),
        UpdateScheme::TriadNvm => Box::new(SequentialEngine::new(config.triad_floor())),
        UpdateScheme::Phoenix => Box::new(CounterTreeEngine::new(true)),
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use crate::meta::MetadataCaches;
    use crate::sanitizer::NodeUpdateEvent;
    use plp_bmt::BmtGeometry;
    use plp_nvm::{NvmConfig, NvmDevice};

    /// A self-contained harness owning everything an `EngineCtx`
    /// borrows.
    pub struct CtxHarness {
        pub geometry: BmtGeometry,
        pub mac: Cycle,
        pub meta: MetadataCaches,
        pub nvm: NvmDevice,
        pub stats: EngineStats,
        pub tap: Vec<NodeUpdateEvent>,
        pub path_scratch: Vec<NodeLabel>,
    }

    impl CtxHarness {
        /// 8-ary 4-level tree, 40-cycle MAC, ideal metadata by default
        /// so engine scheduling is exact.
        pub fn ideal() -> Self {
            CtxHarness {
                geometry: BmtGeometry::new(8, 4),
                mac: Cycle::new(40),
                meta: MetadataCaches::new(32 << 10, true),
                nvm: NvmDevice::new(NvmConfig::paper_default()),
                stats: EngineStats::default(),
                tap: Vec::new(),
                path_scratch: Vec::new(),
            }
        }

        /// Same shape but with real (cold) metadata caches.
        pub fn cold() -> Self {
            let mut h = Self::ideal();
            h.meta = MetadataCaches::new(32 << 10, false);
            h
        }

        pub fn ctx(&mut self) -> EngineCtx<'_> {
            EngineCtx {
                geometry: self.geometry,
                mac_latency: self.mac,
                meta: &mut self.meta,
                nvm: &mut self.nvm,
                stats: &mut self.stats,
                tap: None,
                path_scratch: &mut self.path_scratch,
                failpoints: None,
            }
        }

        /// Like [`CtxHarness::ctx`] but with the sanitizer tap
        /// attached, recording every node update into `self.tap`.
        pub fn tapped_ctx(&mut self) -> EngineCtx<'_> {
            EngineCtx {
                geometry: self.geometry,
                mac_latency: self.mac,
                meta: &mut self.meta,
                nvm: &mut self.nvm,
                stats: &mut self.stats,
                tap: Some(&mut self.tap),
                path_scratch: &mut self.path_scratch,
                failpoints: None,
            }
        }

        pub fn req(&self, page: u64, now: u64) -> UpdateRequest {
            UpdateRequest {
                leaf: self.geometry.leaf(page),
                now: Cycle::new(now),
            }
        }
    }
}
