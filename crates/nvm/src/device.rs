//! The bank/row timing model of the NVM device.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use plp_events::addr::BlockAddr;
use plp_events::fastmap::FastMap;
use plp_events::Cycle;
use serde::{Deserialize, Serialize};

use crate::{NvmConfig, NvmError};

/// Statistics reported by the device.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NvmStats {
    /// Read commands serviced.
    pub reads: u64,
    /// Write commands serviced.
    pub writes: u64,
    /// Writes absorbed by an already-pending write to the same block
    /// (write combining in the write queue).
    pub writes_combined: u64,
    /// Reads that hit an open row buffer.
    pub row_hits: u64,
    /// Reads that had to activate a row.
    pub row_misses: u64,
    /// Cycles accesses spent waiting for a full read/write queue.
    pub queue_stall_cycles: u64,
    /// Read attempts that transiently faulted and were retried (see
    /// [`crate::ReadFaultConfig`]).
    pub read_retries: u64,
    /// Reads whose retry budget was exhausted: the device delivered
    /// unreliable data and upstream integrity checks must catch it.
    pub read_failures: u64,
    /// Bank bookings requested at a time below the horizon of that
    /// bank's most recent reservation prune: the only bookings whose
    /// start could differ from an unpruned schedule. The model assumes
    /// none; a nonzero count means a bank may have been double-booked.
    pub late_bookings: u64,
}

/// One splitmix64 step — the device's replayable fault stream.
fn splitmix_next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Draws a fault with probability `p` from the stream.
fn fault_roll(state: &mut u64, p: f64) -> bool {
    if p <= 0.0 {
        return false;
    }
    let unit = (splitmix_next(state) >> 11) as f64 / (1u64 << 53) as f64;
    unit < p
}

/// How far behind a bank's schedule frontier (its latest reservation
/// end) a reservation may end and still be kept; older ones are
/// pruned.
const HORIZON: u64 = 2_000_000;

/// A bank's reservation list is never pruned below this many entries.
const MIN_PRUNE_LEN: usize = 1024;

/// One bank's schedule: non-overlapping busy reservations.
///
/// Requests do not arrive in time order — the security engine books
/// fetches at gated *future* times while the core issues loads at the
/// current clock — so a scalar `busy_until` would let a future write
/// block an earlier read. Instead each bank keeps its reservations and
/// a new request takes the earliest gap at or after its own time, which
/// also gives reads natural priority over queued future writes.
#[derive(Debug, Clone, Default)]
struct Bank {
    /// `(start, end)` of each reservation, sorted by start and
    /// non-overlapping — so sorted by end as well. Starts are unique.
    reservations: Vec<(u64, u64)>,
    /// Chronologically last access's row (row-buffer state).
    open_row: Option<u64>,
    /// End of the chronologically last reservation.
    latest_end: u64,
    /// The list is pruned once it grows past this many entries (and
    /// past [`MIN_PRUNE_LEN`]); each prune doubles what it leaves.
    prune_at: usize,
    /// The horizon of the most recent prune: every reservation ending
    /// before it may be gone.
    pruned_below: u64,
    /// Bookings whose `now` lay below `pruned_below` — the only ones
    /// whose answer can differ from an unpruned schedule.
    late_bookings: u64,
    /// Prune passes so far.
    #[cfg(test)]
    prunes: u64,
}

impl Bank {
    /// Books `len` busy cycles at the earliest gap at or after `now`;
    /// returns the start time.
    fn reserve(&mut self, now: u64, len: u64) -> u64 {
        debug_assert!(len > 0, "zero-length booking at {now}");
        if now < self.pruned_below {
            self.late_bookings += 1;
        }
        let r = &mut self.reservations;
        // `next` is the first reservation starting after `now`. The one
        // before it is the only one that can cover `now`, and pushes
        // the candidate to its end.
        let mut next = r.partition_point(|&(s, _)| s <= now);
        let mut candidate = now;
        if let Some(&(_, e)) = r[..next].last() {
            candidate = candidate.max(e);
        }
        // Walk later reservations until a large-enough gap appears.
        while let Some(&(s, e)) = r.get(next) {
            if s >= candidate + len {
                break;
            }
            candidate = candidate.max(e);
            next += 1;
        }
        // Everything before `next` starts before `candidate`,
        // everything from it on after: no booking is empty
        // (`NvmConfig::validate` rejects a zero-cycle latency), so no
        // two share a start.
        r.insert(next, (candidate, candidate + len));
        // Bounded memory: drop reservations far behind the schedule
        // frontier (no future request plausibly lands there). Sorted
        // by end, they are a prefix. Pruning only once the list has
        // doubled since the last prune keeps a booking amortized cheap
        // even when every reservation is still inside the horizon and
        // the prune removes nothing.
        if r.len() > self.prune_at.max(MIN_PRUNE_LEN) {
            let horizon = self.latest_end.saturating_sub(HORIZON);
            let stale = r.partition_point(|&(_, e)| e < horizon);
            r.drain(..stale);
            self.pruned_below = horizon;
            self.prune_at = 2 * r.len();
            #[cfg(test)]
            {
                self.prunes += 1;
            }
        }
        candidate
    }
}

/// Tracks in-flight commands against a queue capacity: a new command
/// may only be admitted once fewer than `capacity` are outstanding.
#[derive(Debug, Clone, Default)]
struct OutstandingSet {
    completions: BinaryHeap<Reverse<u64>>,
    capacity: usize,
}

impl OutstandingSet {
    fn new(capacity: usize) -> Self {
        OutstandingSet {
            completions: BinaryHeap::new(),
            capacity,
        }
    }

    /// Earliest time at or after `now` when a slot is free.
    fn admission_time(&mut self, now: Cycle) -> Cycle {
        while let Some(&Reverse(t)) = self.completions.peek() {
            if Cycle::new(t) <= now {
                self.completions.pop();
            } else {
                break;
            }
        }
        if self.completions.len() < self.capacity {
            now
        } else {
            // A zero-capacity queue (rejected by NvmConfig::validate,
            // but kept total here) degenerates to immediate admission.
            match self.completions.pop() {
                Some(Reverse(t)) => Cycle::new(t),
                None => now,
            }
        }
    }

    fn record(&mut self, completion: Cycle) {
        self.completions.push(Reverse(completion.get()));
    }
}

/// The NVM device timing model: banks with row buffers, read priority
/// via separate read/write queues, and per-command completion times in
/// CPU cycles.
///
/// # Example
///
/// ```
/// use plp_events::{addr::BlockAddr, Cycle};
/// use plp_nvm::{NvmConfig, NvmDevice};
///
/// let mut nvm = NvmDevice::new(NvmConfig::paper_default());
/// let a = BlockAddr::new(0);
/// let first = nvm.read(Cycle::ZERO, a);
/// // A second read to the same block hits its open row: cheaper.
/// let second = nvm.read(first, a);
/// assert!(second - first < first - Cycle::ZERO);
/// ```
#[derive(Debug, Clone)]
pub struct NvmDevice {
    config: NvmConfig,
    banks: Vec<Bank>,
    reads: OutstandingSet,
    writes: OutstandingSet,
    /// Pending (not yet durable) writes, for write combining.
    pending_writes: FastMap<BlockAddr, Cycle>,
    /// Splitmix64 state of the transient-read-fault stream.
    fault_rng: u64,
    stats: NvmStats,
}

impl NvmDevice {
    /// Creates an idle device.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid; use
    /// [`NvmDevice::try_new`] to handle the error instead.
    pub fn new(config: NvmConfig) -> Self {
        match Self::try_new(config) {
            Ok(device) => device,
            // lint: allow(no-panic-lib) documented panic contract; try_new is the fallible path
            Err(e) => panic!("invalid NVM configuration: {e}"),
        }
    }

    /// Creates an idle device, validating the configuration.
    ///
    /// # Errors
    ///
    /// Returns the first constraint the configuration violates.
    pub fn try_new(config: NvmConfig) -> Result<Self, NvmError> {
        config.validate()?;
        Ok(NvmDevice {
            banks: vec![Bank::default(); config.banks],
            reads: OutstandingSet::new(config.read_queue),
            writes: OutstandingSet::new(config.write_queue),
            pending_writes: FastMap::default(),
            fault_rng: config.read_fault.seed ^ 0x4E56_4D5F_4641_554C,
            config,
            stats: NvmStats::default(),
        })
    }

    /// The configuration.
    pub fn config(&self) -> &NvmConfig {
        &self.config
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> NvmStats {
        NvmStats {
            late_bookings: self.banks.iter().map(|b| b.late_bookings).sum(),
            ..self.stats
        }
    }

    /// Maps a block address to `(bank, row-within-bank)` according to
    /// the configured interleaving.
    fn map(&self, addr: BlockAddr) -> (usize, u64) {
        let banks = self.config.banks as u64;
        let blocks_per_row = self.config.row_bytes / plp_events::addr::CACHE_BLOCK_SIZE as u64;
        match self.config.interleave {
            crate::Interleave::RowLevel => {
                let row = addr.index() / blocks_per_row;
                ((row % banks) as usize, row)
            }
            crate::Interleave::BlockLevel => {
                let bank = (addr.index() % banks) as usize;
                let row = (addr.index() / banks) / blocks_per_row;
                (bank, row)
            }
        }
    }

    /// Issues a read for `addr` at `now`; returns the cycle the data is
    /// available on chip.
    pub fn read(&mut self, now: Cycle, addr: BlockAddr) -> Cycle {
        let admitted = self.reads.admission_time(now);
        self.stats.queue_stall_cycles += (admitted - now).get();
        let (bank_idx, row) = self.map(addr);
        let bank = &mut self.banks[bank_idx];
        let latency = if bank.open_row == Some(row) {
            self.stats.row_hits += 1;
            self.config.timing.read_row_hit_cycles(self.config.cpu_freq)
        } else {
            self.stats.row_misses += 1;
            self.config
                .timing
                .read_row_miss_cycles(self.config.cpu_freq)
        };
        let start = bank.reserve(admitted.get(), latency.get());
        let mut done = Cycle::new(start) + latency;
        // Transient read faults: each attempt fails independently; the
        // controller backs off through the shared retry policy and
        // re-reads (the row is open by then) until it succeeds or the
        // retry budget runs out.
        let fault = &self.config.read_fault;
        if fault.is_enabled() {
            let p = fault.fault_probability;
            let policy = fault.retry_policy();
            let token = plp_events::retry::RetryToken::new(fault.seed);
            let retry_latency = self.config.timing.read_row_hit_cycles(self.config.cpu_freq);
            let mut failed = fault_roll(&mut self.fault_rng, p);
            let mut attempt = 0;
            while failed && attempt < policy.max_retries {
                attempt += 1;
                self.stats.read_retries += 1;
                let backoff = self
                    .config
                    .cpu_freq
                    .cycles_for_ns(policy.delay_ns(token, attempt));
                let retry_start = bank.reserve((done + backoff).get(), retry_latency.get());
                done = Cycle::new(retry_start) + retry_latency;
                failed = fault_roll(&mut self.fault_rng, p);
            }
            if failed {
                self.stats.read_failures += 1;
            }
        }
        if done.get() >= bank.latest_end {
            bank.latest_end = done.get();
            bank.open_row = Some(row);
        }
        self.stats.reads += 1;
        self.reads.record(done);
        done
    }

    /// Issues a (posted) write for `addr` at `now`; returns the cycle
    /// the write is durable in the medium. The caller decides whether
    /// anything waits for this completion (ADR means stores usually do
    /// not, but the write-queue capacity still throttles).
    pub fn write(&mut self, now: Cycle, addr: BlockAddr) -> Cycle {
        // Write combining: a store to a block that already has a write
        // pending in the queue merges into it (the queue holds the
        // freshest data; one media write suffices).
        if let Some(&done) = self.pending_writes.get(&addr) {
            if done > now {
                self.stats.writes_combined += 1;
                return done;
            }
        }
        let admitted = self.writes.admission_time(now);
        self.stats.queue_stall_cycles += (admitted - now).get();
        let (bank_idx, row) = self.map(addr);
        let bank = &mut self.banks[bank_idx];
        let latency = self.config.timing.write_cycles(self.config.cpu_freq);
        let start = bank.reserve(admitted.get(), latency.get());
        let done = Cycle::new(start) + latency;
        if done.get() >= bank.latest_end {
            bank.latest_end = done.get();
            bank.open_row = Some(row);
        }
        self.stats.writes += 1;
        self.writes.record(done);
        if self.pending_writes.len() >= 4 * self.config.write_queue {
            self.pending_writes.retain(|_, &mut d| d > now);
        }
        self.pending_writes.insert(addr, done);
        done
    }

    /// The earliest cycle at which every issued command has completed —
    /// the device-drained condition used at simulation end and at
    /// crash points (ADR flushes the queues on power failure).
    pub fn drained_at(&self) -> Cycle {
        self.banks
            .iter()
            .map(|b| Cycle::new(b.latest_end))
            .fold(Cycle::ZERO, Cycle::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn dev() -> NvmDevice {
        // Row-level interleaving keeps the bank/row arithmetic of these
        // tests easy to reason about.
        NvmDevice::new(NvmConfig {
            interleave: crate::Interleave::RowLevel,
            ..NvmConfig::paper_default()
        })
    }

    #[test]
    fn row_hit_is_cheaper_than_miss() {
        let mut d = dev();
        let t1 = d.read(Cycle::ZERO, BlockAddr::new(0));
        assert_eq!(t1.get(), 290);
        // Same row (blocks 0..127 share the 8 KB row).
        let t2 = d.read(t1, BlockAddr::new(1));
        assert_eq!((t2 - t1).get(), 70);
        assert_eq!(d.stats().row_hits, 1);
        assert_eq!(d.stats().row_misses, 1);
    }

    #[test]
    fn different_banks_overlap() {
        let mut d = dev();
        // Rows 0 and 1 live in banks 0 and 1: both reads complete at
        // the row-miss latency with no serialization.
        let t1 = d.read(Cycle::ZERO, BlockAddr::new(0));
        let t2 = d.read(Cycle::ZERO, BlockAddr::new(128)); // next row
        assert_eq!(t1.get(), 290);
        assert_eq!(t2.get(), 290);
    }

    #[test]
    fn same_bank_serializes() {
        let mut d = dev();
        // Rows 0 and 16 both map to bank 0 (16 banks).
        let t1 = d.read(Cycle::ZERO, BlockAddr::new(0));
        let t2 = d.read(Cycle::ZERO, BlockAddr::new(16 * 128));
        assert_eq!(t2.get(), 290 + 290, "row conflict must serialize");
        assert!(t2 > t1);
    }

    #[test]
    fn writes_occupy_banks() {
        let mut d = dev();
        let w = d.write(Cycle::ZERO, BlockAddr::new(0));
        assert_eq!(w.get(), 600);
        // A read to the same bank waits for write recovery.
        let r = d.read(Cycle::ZERO, BlockAddr::new(1));
        assert_eq!(r.get(), 600 + 70); // row already open after write
    }

    #[test]
    fn write_queue_throttles() {
        let mut d = NvmDevice::new(NvmConfig {
            write_queue: 2,
            banks: 1,
            ..NvmConfig::paper_default()
        });
        let t1 = d.write(Cycle::ZERO, BlockAddr::new(0));
        let _t2 = d.write(Cycle::ZERO, BlockAddr::new(1));
        // Third write must wait for the first to complete before it is
        // even admitted to the queue.
        let t3 = d.write(Cycle::ZERO, BlockAddr::new(2));
        assert!(t3 >= t1 + Cycle::new(600));
        assert!(d.stats().queue_stall_cycles > 0);
    }

    #[test]
    fn repeated_writes_to_one_block_combine() {
        let mut d = dev();
        let a = BlockAddr::new(7);
        let t1 = d.write(Cycle::ZERO, a);
        // While the first write is still pending, rewrites merge.
        let t2 = d.write(Cycle::new(10), a);
        assert_eq!(t2, t1);
        assert_eq!(d.stats().writes, 1);
        assert_eq!(d.stats().writes_combined, 1);
        // After it drains, a new write schedules normally.
        let t3 = d.write(t1, a);
        assert!(t3 > t1);
        assert_eq!(d.stats().writes, 2);
    }

    #[test]
    fn block_interleave_spreads_sequential_stream() {
        let mut d = NvmDevice::new(NvmConfig::paper_default()); // block-level
        // 16 consecutive blocks land on 16 different banks: all
        // complete at one write latency instead of serializing.
        let mut worst = Cycle::ZERO;
        for i in 0..16 {
            worst = worst.max(d.write(Cycle::ZERO, BlockAddr::new(i)));
        }
        assert_eq!(worst, Cycle::new(600));
        // The 17th block wraps to bank 0 and waits.
        assert_eq!(d.write(Cycle::ZERO, BlockAddr::new(16)), Cycle::new(1200));
    }

    #[test]
    fn drained_at_tracks_latest() {
        let mut d = dev();
        let t = d.write(Cycle::ZERO, BlockAddr::new(0));
        assert_eq!(d.drained_at(), t);
        let t2 = d.write(Cycle::ZERO, BlockAddr::new(5000));
        assert_eq!(d.drained_at(), t.max(t2));
    }

    #[test]
    fn try_new_rejects_degenerate_configs() {
        let zero_banks = NvmConfig {
            banks: 0,
            ..NvmConfig::paper_default()
        };
        assert_eq!(NvmDevice::try_new(zero_banks).unwrap_err(), NvmError::ZeroBanks);
        let zero_queue = NvmConfig {
            read_queue: 0,
            ..NvmConfig::paper_default()
        };
        assert!(matches!(
            NvmDevice::try_new(zero_queue).unwrap_err(),
            NvmError::ZeroQueue { queue: "read" }
        ));
        let bad_prob = NvmConfig {
            read_fault: crate::ReadFaultConfig::with_probability(1.5, 0),
            ..NvmConfig::paper_default()
        };
        assert!(matches!(
            NvmDevice::try_new(bad_prob).unwrap_err(),
            NvmError::BadFaultProbability { .. }
        ));
        assert!(NvmDevice::try_new(NvmConfig::paper_default()).is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid NVM configuration")]
    fn new_panics_with_descriptive_message() {
        let _ = NvmDevice::new(NvmConfig {
            banks: 0,
            ..NvmConfig::paper_default()
        });
    }

    #[test]
    fn read_faults_retry_with_backoff() {
        let mut faulty = NvmDevice::new(NvmConfig {
            read_fault: crate::ReadFaultConfig {
                fault_probability: 1.0,
                max_retries: 3,
                retry_backoff_ns: 100.0,
                seed: 42,
            },
            ..NvmConfig::paper_default()
        });
        let mut clean = NvmDevice::new(NvmConfig::paper_default());
        let slow = faulty.read(Cycle::ZERO, BlockAddr::new(0));
        let fast = clean.read(Cycle::ZERO, BlockAddr::new(0));
        // Every attempt fails: the full retry budget is spent and the
        // read still counts as a device failure.
        assert_eq!(faulty.stats().read_retries, 3);
        assert_eq!(faulty.stats().read_failures, 1);
        // Each retry costs at least the back-off plus a re-read.
        assert!(slow >= fast + Cycle::new(3 * (400 + 70)), "{slow} vs {fast}");
    }

    #[test]
    fn retry_backoff_timing_is_pinned_to_pre_policy_behaviour() {
        // Regression pin for the plp_core::retry unification: the
        // device used ad-hoc constants (a flat retry_backoff_ns wait
        // per retry); the shared RetryPolicy::constant must reproduce
        // that schedule cycle-for-cycle. With every attempt failing:
        // initial row-miss read completes at 290; each of the 3 retries
        // waits 100 ns (400 cycles at 4 GHz) then re-reads the open row
        // (70 cycles): 290 + 3 * (400 + 70) = 1700.
        let mut faulty = NvmDevice::new(NvmConfig {
            read_fault: crate::ReadFaultConfig {
                fault_probability: 1.0,
                max_retries: 3,
                retry_backoff_ns: 100.0,
                seed: 42,
            },
            ..NvmConfig::paper_default()
        });
        let done = faulty.read(Cycle::ZERO, BlockAddr::new(0));
        assert_eq!(done.get(), 1700);
        // And the derived policy itself is the flat legacy schedule.
        let policy = faulty.config().read_fault.retry_policy();
        let token = plp_events::retry::RetryToken::new(42);
        assert_eq!(policy.schedule(token), vec![100.0, 100.0, 100.0]);
    }

    #[test]
    fn read_fault_stream_is_replayable() {
        let config = NvmConfig {
            read_fault: crate::ReadFaultConfig::with_probability(0.3, 7),
            ..NvmConfig::paper_default()
        };
        let mut a = NvmDevice::new(config);
        let mut b = NvmDevice::new(config);
        for i in 0..200 {
            let t1 = a.read(Cycle::new(i * 10), BlockAddr::new(i % 40));
            let t2 = b.read(Cycle::new(i * 10), BlockAddr::new(i % 40));
            assert_eq!(t1, t2);
        }
        assert_eq!(a.stats(), b.stats());
        assert!(a.stats().read_retries > 0, "p=0.3 over 200 reads must retry");
    }

    #[test]
    fn disabled_fault_model_changes_nothing() {
        let mut d = dev();
        let t = d.read(Cycle::ZERO, BlockAddr::new(0));
        assert_eq!(t.get(), 290);
        assert_eq!(d.stats().read_retries, 0);
        assert_eq!(d.stats().read_failures, 0);
    }

    /// Books `len` cycles at `now` the way the device does, advancing
    /// the bank's frontier; returns the start.
    fn book(bank: &mut Bank, now: u64, len: u64) -> u64 {
        let start = bank.reserve(now, len);
        bank.latest_end = bank.latest_end.max(start + len);
        start
    }

    /// The start of the earliest gap of `len` cycles at or after `now`
    /// in a map of non-overlapping `start -> end` reservations: the
    /// schedule kept as a `BTreeMap`, the reference for the slice.
    fn earliest_gap(reservations: &BTreeMap<u64, u64>, now: u64, len: u64) -> u64 {
        let mut candidate = now;
        // A reservation already covering `candidate` pushes it to its end.
        if let Some((_, &e)) = reservations.range(..=candidate).next_back() {
            if e > candidate {
                candidate = e;
            }
        }
        // Walk later reservations until a large-enough gap appears.
        for (&s, &e) in reservations.range(candidate..) {
            if s >= candidate + len {
                break;
            }
            candidate = candidate.max(e);
        }
        candidate
    }

    /// A bank whose schedule is a `BTreeMap`, pruned by the same rule:
    /// the oracle every [`Bank`] booking, count and prune must match.
    #[derive(Default)]
    struct OracleBank {
        reservations: BTreeMap<u64, u64>,
        latest_end: u64,
        prune_at: usize,
        pruned_below: u64,
        late_bookings: u64,
        prunes: u64,
    }

    impl OracleBank {
        fn book(&mut self, now: u64, len: u64) -> u64 {
            if now < self.pruned_below {
                self.late_bookings += 1;
            }
            let start = earliest_gap(&self.reservations, now, len);
            self.reservations.insert(start, start + len);
            if self.reservations.len() > self.prune_at.max(MIN_PRUNE_LEN) {
                let horizon = self.latest_end.saturating_sub(HORIZON);
                self.reservations.retain(|_, &mut e| e >= horizon);
                self.pruned_below = horizon;
                self.prune_at = 2 * self.reservations.len();
                self.prunes += 1;
            }
            self.latest_end = self.latest_end.max(start + len);
            start
        }
    }

    /// Books on the bank and the oracle, and checks they agree on the
    /// start, the late bookings, the prunes and the schedule's size —
    /// and on every reservation after a prune. With `scan`, also checks
    /// the whole slice is sorted by start with no overlaps.
    fn book_checked(
        bank: &mut Bank,
        oracle: &mut OracleBank,
        now: u64,
        len: u64,
        scan: bool,
    ) -> u64 {
        let prunes = bank.prunes;
        let start = book(bank, now, len);
        assert_eq!(start, oracle.book(now, len), "booking {len} at {now}");
        assert_eq!(
            (bank.late_bookings, bank.prunes, bank.reservations.len()),
            (
                oracle.late_bookings,
                oracle.prunes,
                oracle.reservations.len()
            ),
            "late bookings, prunes and size after booking {len} at {now}"
        );
        if scan || bank.prunes != prunes {
            assert!(
                bank.reservations
                    .windows(2)
                    .all(|w| w[0].0 < w[1].0 && w[0].1 <= w[1].0),
                "slice unsorted or overlapping after booking {len} at {now}"
            );
        }
        if bank.prunes != prunes {
            assert!(
                bank.reservations
                    .iter()
                    .copied()
                    .eq(oracle.reservations.iter().map(|(&s, &e)| (s, e))),
                "prune {} left a different schedule",
                bank.prunes
            );
        }
        start
    }

    #[test]
    fn pruning_never_changes_a_booking_inside_the_horizon() {
        // A seeded stream of bookings, most future-dated just past the
        // frontier and the rest anywhere inside the horizon behind it,
        // against the pruned map oracle and a reference schedule that
        // is never pruned.
        let mut bank = Bank::default();
        let mut oracle = OracleBank::default();
        let mut reference = BTreeMap::new();
        let mut rng = 0x5EED_u64;
        for _ in 0..100_000 {
            let r = splitmix_next(&mut rng);
            let frontier = bank.latest_end;
            let now = if r.is_multiple_of(4) {
                frontier.saturating_sub((r >> 8) % HORIZON)
            } else {
                frontier + (r >> 8) % 2_000
            };
            let len = [70, 290, 600][(r >> 40) as usize % 3];
            let expected = earliest_gap(&reference, now, len);
            reference.insert(expected, expected + len);
            let start = book_checked(&mut bank, &mut oracle, now, len, true);
            assert_eq!(start, expected, "booking at {now}");
        }
        assert!(bank.prunes > 0, "the stream must outgrow the prune floor");
        assert!(
            bank.reservations.len() < reference.len(),
            "the prunes must actually drop reservations"
        );
        assert_eq!(bank.late_bookings, 0);
    }

    /// One booking of an o3-shaped stream at core clock `clock`: half
    /// are loads at the clock, half metadata fetches and flushes the
    /// engine books 10k–60k cycles ahead of it.
    fn o3_booking(r: u64, clock: u64) -> (u64, u64) {
        if r.is_multiple_of(2) {
            (clock, [70, 290][(r >> 40) as usize % 2])
        } else {
            (
                clock + 10_000 + (r >> 8) % 50_000,
                [290, 600][(r >> 40) as usize % 2],
            )
        }
    }

    #[test]
    fn o3_shaped_stream_matches_the_map_oracle() {
        // Loads land between reservations booked far ahead of them, so
        // the predecessor search and the gap walk start deep inside the
        // schedule rather than at its end.
        let mut bank = Bank::default();
        let mut oracle = OracleBank::default();
        let mut reference = BTreeMap::new();
        let mut rng = 0x03_u64;
        let mut clock = 0;
        for _ in 0..40_000 {
            let r = splitmix_next(&mut rng);
            clock += 500 + (r >> 24) % 2_000;
            let (now, len) = o3_booking(r, clock);
            let expected = earliest_gap(&reference, now, len);
            reference.insert(expected, expected + len);
            let start = book_checked(&mut bank, &mut oracle, now, len, true);
            assert_eq!(start, expected, "booking at {now}");
        }
        assert!(bank.prunes >= 3, "{} prunes", bank.prunes);
        assert!(bank.reservations.len() < reference.len());
        assert_eq!(bank.late_bookings, 0);
    }

    #[test]
    #[ignore = "2M bookings; run in release (scripts/verify.sh)"]
    fn two_million_bookings_match_the_map_oracle() {
        // Both stream shapes plus the rare case: bookings behind the
        // pruned horizon (late, so the pruned answers are what must
        // agree).
        let mut bank = Bank::default();
        let mut oracle = OracleBank::default();
        let mut rng = 0x2_000_000_u64;
        let mut clock = 0;
        for i in 0..2_000_000u64 {
            let r = splitmix_next(&mut rng);
            let (now, len) = match (i / 100_000) % 2 {
                0 => {
                    clock += 500 + (r >> 24) % 2_000;
                    o3_booking(r, clock)
                }
                _ => {
                    let frontier = bank.latest_end;
                    clock = frontier;
                    let now = match r % 1_000 {
                        0..=9 => frontier.saturating_sub(HORIZON + (r >> 8) % HORIZON),
                        10..=259 => frontier.saturating_sub((r >> 8) % HORIZON),
                        _ => frontier + (r >> 8) % 2_000,
                    };
                    (now, [70, 290, 600][(r >> 40) as usize % 3])
                }
            };
            book_checked(&mut bank, &mut oracle, now, len, i.is_multiple_of(4_096));
        }
        assert!(bank.prunes > 100, "{} prunes", bank.prunes);
        assert!(
            bank.late_bookings > 0,
            "the stream must book behind the horizon"
        );
    }

    #[test]
    fn reservation_map_stays_bounded_and_prunes_logarithmically() {
        // Back-to-back bookings at the frontier: for the first
        // HORIZON / LEN of them nothing is old enough to prune (the
        // case that used to cost a full pass per booking), after that
        // the window slides.
        const LEN: u64 = 10;
        let mut bank = Bank::default();
        for i in 0..300_000 {
            assert_eq!(book(&mut bank, i * LEN, LEN), i * LEN);
            let booked = i + 1;
            // Reservations still inside the horizon of the frontier.
            let live = booked.min(HORIZON / LEN + 1) as usize;
            assert!(
                bank.reservations.len() <= 2 * live + MIN_PRUNE_LEN,
                "{} entries for {live} live after {booked} bookings",
                bank.reservations.len()
            );
            let log_bound = match booked as f64 / MIN_PRUNE_LEN as f64 {
                x if x <= 1.0 => 0,
                x => x.log2().ceil() as u64 + 1,
            };
            assert!(
                bank.prunes <= log_bound,
                "{} prune passes after {booked} bookings (bound {log_bound})",
                bank.prunes
            );
        }
        assert_eq!(bank.late_bookings, 0);
    }

    #[test]
    fn bookings_behind_the_pruned_horizon_are_counted() {
        // Back-to-back bookings on a 1,000-cycle grid: one reservation
        // ends exactly at the first nonzero horizon and must be kept.
        let mut bank = Bank::default();
        let mut oracle = OracleBank::default();
        let mut i = 0;
        while bank.pruned_below == 0 {
            book_checked(&mut bank, &mut oracle, i * 1_000, 1_000, false);
            i += 1;
        }
        let horizon = bank.pruned_below;
        assert_eq!(bank.reservations[0].1, horizon);
        book_checked(&mut bank, &mut oracle, horizon, 10, false);
        assert_eq!(bank.late_bookings, 0, "the horizon itself is not late");
        book_checked(&mut bank, &mut oracle, horizon - 1, 10, false);
        assert_eq!(bank.late_bookings, 1);

        // The device reports the sum over its banks.
        let mut d = dev();
        d.banks[3] = bank;
        assert_eq!(d.stats().late_bookings, 1);
    }

    #[test]
    fn stats_count_commands() {
        let mut d = dev();
        d.read(Cycle::ZERO, BlockAddr::new(0));
        d.write(Cycle::ZERO, BlockAddr::new(0));
        d.write(Cycle::ZERO, BlockAddr::new(1));
        let s = d.stats();
        assert_eq!(s.reads, 1);
        assert_eq!(s.writes, 2);
    }
}
