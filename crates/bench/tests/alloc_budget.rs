//! Allocation-regression pin: the arena-backed persist hot path, the
//! data encryption and MAC, the NVM bank schedules and the durable
//! image writer must be heap-allocation-free in steady state, so none
//! can silently rot back into per-persist `Vec`s or tree nodes.
//!
//! A counting global allocator wraps `System`; each phase warms its
//! subject (first-touch growth — map resizes, `VecDeque` reservations,
//! lazy arena population — is allowed once), snapshots the allocation
//! counter, drives a measured burst, and demands the counter did not
//! move. Everything runs inside ONE `#[test]` so no sibling test can
//! allocate concurrently and pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use plp_bmt::{BmtGeometry, BonsaiTree};
use plp_core::engine::{
    CoalescingEngine, EngineCtx, EngineStats, OooEngine, PipelinedEngine, SequentialEngine,
    UpdateEngine, UpdateRequest,
};
use plp_core::meta::MetadataCaches;
use plp_crypto::{CounterBlock, CounterValue, CtrEngine, DataBlock, MacEngine, SipKey};
use plp_events::addr::BlockAddr;
use plp_events::Cycle;
use plp_nvm::{ImageHeader, ImageWriter, NvmConfig, NvmDevice};

/// `System`, with every allocation and reallocation counted.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Runs `burst` and returns how many heap allocations it performed.
fn count_allocs(mut burst: impl FnMut()) -> u64 {
    let before = allocations();
    burst();
    allocations() - before
}

struct Harness {
    geometry: BmtGeometry,
    meta: MetadataCaches,
    nvm: NvmDevice,
    stats: EngineStats,
    path_scratch: Vec<plp_bmt::NodeLabel>,
}

impl Harness {
    fn new() -> Self {
        Harness {
            geometry: BmtGeometry::new(8, 9),
            meta: MetadataCaches::new(128 << 10, true),
            nvm: NvmDevice::new(NvmConfig::paper_default()),
            stats: EngineStats::default(),
            path_scratch: Vec::new(),
        }
    }

    fn ctx(&mut self) -> EngineCtx<'_> {
        EngineCtx {
            geometry: self.geometry,
            mac_latency: Cycle::new(40),
            meta: &mut self.meta,
            nvm: &mut self.nvm,
            stats: &mut self.stats,
            tap: None,
            path_scratch: &mut self.path_scratch,
            failpoints: None,
        }
    }
}

const WARM_ROUNDS: u64 = 4;
const MEASURED_ROUNDS: u64 = 16;
const PAGES: u64 = 256;

#[test]
fn steady_state_persist_path_is_allocation_free() {
    // ---- Phase 1: the arena-backed tree itself. -------------------
    let geometry = BmtGeometry::new(8, 9);
    let mut tree = BonsaiTree::new(geometry, SipKey::new(7, 11));
    let mut counters = CounterBlock::default();
    let touch = |tree: &mut BonsaiTree, counters: &mut CounterBlock, rounds: u64| {
        for r in 0..rounds {
            for page in 0..PAGES {
                counters.bump((page as usize + r as usize) % 64);
                let _ = tree.update_leaf(page * 37 % 4096, counters);
            }
        }
    };
    touch(&mut tree, &mut counters, WARM_ROUNDS);
    let tree_allocs = count_allocs(|| touch(&mut tree, &mut counters, MEASURED_ROUNDS));
    assert_eq!(
        tree_allocs, 0,
        "BonsaiTree::update_leaf allocated {tree_allocs} times over \
         {} warmed updates — the arena hot path must be allocation-free",
        MEASURED_ROUNDS * PAGES
    );

    // ---- Phase 2: every engine's persist scheduling. --------------
    // Warm each engine over the same page pattern the measured burst
    // uses, then demand the burst itself never touches the heap.
    // (Epoch seals are excluded: sealing appends one completion record
    // per epoch by design; the per-persist budget is what's pinned.)

    let mut h = Harness::new();
    let mut seq = SequentialEngine::new(1);
    let mut now = 0u64;
    let mut drive_seq = |h: &mut Harness, e: &mut SequentialEngine, rounds: u64| {
        for _ in 0..rounds {
            for i in 0..PAGES {
                now += 5;
                let req = UpdateRequest {
                    leaf: h.geometry.leaf(i * 13 % 4096),
                    now: Cycle::new(now),
                };
                let _ = e.persist(req, &mut h.ctx());
            }
        }
    };
    drive_seq(&mut h, &mut seq, WARM_ROUNDS);
    let n = count_allocs(|| drive_seq(&mut h, &mut seq, MEASURED_ROUNDS));
    assert_eq!(n, 0, "sequential persist allocated {n} times in steady state");

    let mut h = Harness::new();
    let mut pipe = PipelinedEngine::new(9, 64);
    let mut now = 0u64;
    let mut drive_pipe = |h: &mut Harness, e: &mut PipelinedEngine, rounds: u64| {
        for _ in 0..rounds {
            for i in 0..PAGES {
                now += 5;
                let req = UpdateRequest {
                    leaf: h.geometry.leaf(i * 13 % 4096),
                    now: Cycle::new(now),
                };
                let _ = e.persist(req, &mut h.ctx());
            }
        }
    };
    drive_pipe(&mut h, &mut pipe, WARM_ROUNDS);
    let n = count_allocs(|| drive_pipe(&mut h, &mut pipe, MEASURED_ROUNDS));
    assert_eq!(n, 0, "pipelined persist allocated {n} times in steady state");

    let mut h = Harness::new();
    let mut o3 = OooEngine::new(9, 2);
    let mut now = 0u64;
    let mut drive_o3 = |h: &mut Harness, e: &mut OooEngine, rounds: u64| {
        for _ in 0..rounds {
            for i in 0..PAGES {
                now += 5;
                let req = UpdateRequest {
                    leaf: h.geometry.leaf(i * 13 % 4096),
                    now: Cycle::new(now),
                };
                let _ = e.persist(req, &mut h.ctx());
            }
        }
    };
    drive_o3(&mut h, &mut o3, WARM_ROUNDS);
    let n = count_allocs(|| drive_o3(&mut h, &mut o3, MEASURED_ROUNDS));
    assert_eq!(n, 0, "o3 persist allocated {n} times in steady state");

    let mut h = Harness::new();
    let mut co = CoalescingEngine::new(9, 2);
    let mut now = 0u64;
    let mut drive_co = |h: &mut Harness, e: &mut CoalescingEngine, rounds: u64| {
        for _ in 0..rounds {
            for i in 0..PAGES {
                now += 5;
                let req = UpdateRequest {
                    leaf: h.geometry.leaf(i * 13 % 4096),
                    now: Cycle::new(now),
                };
                let _ = e.persist(req, &mut h.ctx());
            }
        }
    };
    drive_co(&mut h, &mut co, WARM_ROUNDS);
    let n = count_allocs(|| drive_co(&mut h, &mut co, MEASURED_ROUNDS));
    assert_eq!(n, 0, "coalescing persist allocated {n} times in steady state");

    // ---- Phase 3: the durable image writer. -----------------------
    // Each append is one `write(2)` of a frame encoded in the writer's
    // own buffer. Once that buffer has grown to the largest frame, the
    // durable sink's appends must not touch the heap. The payloads are
    // the sink's tuple, seal and data frame sizes.
    let path = std::env::temp_dir().join(format!("plp-alloc-budget-{}.img", std::process::id()));
    let header = ImageHeader {
        arity: 8,
        levels: 9,
        seed: 7,
        scheme: "sp".to_string(),
    };
    let mut writer = ImageWriter::create(&path, &header).expect("temp image");
    let (tuple, seal, data) = ([0x5a_u8; 176], [0x11_u8; 16], [0x22_u8; 80]);
    let append = |w: &mut ImageWriter, rounds: u64| {
        for r in 0..rounds {
            for payload in [&tuple[..], &seal, &data] {
                w.append(r as u8, payload).expect("append");
            }
        }
    };
    append(&mut writer, WARM_ROUNDS);
    let n = count_allocs(|| append(&mut writer, MEASURED_ROUNDS * PAGES));
    assert_eq!(
        n, 0,
        "ImageWriter::append allocated {n} times in steady state"
    );
    drop(writer);
    std::fs::remove_file(&path).expect("remove temp image");

    // ---- Phase 4: data encryption and the stateful MAC. -----------
    // Every persist, overflow re-encryption and recovery check runs
    // these once per block.
    let key = SipKey::new(7, 11);
    let (ctr, mac) = (CtrEngine::new(key), MacEngine::new(key));
    let mut acc = 0u64;
    let mut seal = |rounds: u64| {
        for i in 0..rounds * PAGES {
            let addr = BlockAddr::new(i * 64);
            let counter = CounterValue::new(i, (i % 64) as u8);
            let cipher = ctr.encrypt(DataBlock::from_u64(i), addr, counter);
            acc ^= mac.compute(&cipher, addr, counter).raw();
        }
    };
    seal(WARM_ROUNDS);
    let n = count_allocs(|| seal(MEASURED_ROUNDS));
    assert_eq!(n, 0, "encrypt + MAC allocated {n} times in steady state");
    assert_ne!(acc, 0);

    // ---- Phase 5: the NVM bank schedules and write combining. -----
    // One read, and optionally one write, every 1,000 cycles over
    // sequential blocks: with block interleaving each of the 16 banks
    // takes a booking of each kind every 16,000 cycles, so at most
    // about 250 of its reservations lie inside the 2M-cycle prune
    // horizon. A bank prunes once it holds more than 1,024 and again
    // some 800 bookings later; the warm-up gives every bank 5,000, so
    // each schedule has grown to its largest and pruned at least
    // twice before anything is counted.
    const STEP: u64 = 1_000;
    let mut nvm = NvmDevice::new(NvmConfig::paper_default());
    let mut k = 0u64;
    let mut drive = |nvm: &mut NvmDevice, steps: u64, writes: bool| {
        for _ in 0..steps {
            let now = Cycle::new(k * STEP);
            let _ = nvm.read(now, BlockAddr::new(k));
            if writes {
                let _ = nvm.write(now, BlockAddr::new((1 << 30) + k % 4_096));
            }
            k += 1;
        }
    };
    drive(&mut nvm, 40_000, true);
    let n = count_allocs(|| drive(&mut nvm, 20_000, false));
    assert_eq!(n, 0, "20,000 warmed NVM reads allocated {n} times");
    let n = count_allocs(|| drive(&mut nvm, 20_000, true));
    assert_eq!(
        n, 0,
        "20,000 warmed NVM reads and writes allocated {n} times"
    );
    assert_eq!(nvm.stats().late_bookings, 0);
}
