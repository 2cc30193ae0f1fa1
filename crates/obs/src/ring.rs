//! Lock-free per-thread ring buffers for telemetry records.
//!
//! Each emitting thread owns one `Ring` at a time: writes are plain stores
//! into `UnsafeCell` slots published by a `Release` bump of the length, so
//! the hot path is one thread-local lookup plus one uncontended store —
//! no locks, no CAS, no allocation. A global registry keeps every ring
//! alive for collection and recycles rings through a free list when their
//! owning thread exits (the scheduler spawns fresh scoped threads per run,
//! so without pooling every run would leak a ring per worker).
//!
//! Memory is bounded: a full ring counts drops instead of growing.
//! [`collect`] snapshots and clears all rings — call it at quiescent
//! points (after the run's worker threads joined) for exact results.

use std::cell::{Cell, RefCell, UnsafeCell};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use crate::record::{Record, MAIN_TRACK};

/// Default per-ring capacity (records). 32 B/record → 2 MiB per thread.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// Single-writer bounded record buffer. The owning thread appends; the
/// collector reads up to the `Release`-published length.
pub struct Ring {
    cells: Box<[UnsafeCell<Record>]>,
    len: AtomicUsize,
    dropped: AtomicU64,
}

// The cells are written only by the unique owning thread below the
// published length; readers only touch indices < len (Acquire).
unsafe impl Send for Ring {}
unsafe impl Sync for Ring {}

impl Ring {
    pub fn with_capacity(cap: usize) -> Self {
        assert!(cap > 0);
        Ring {
            cells: (0..cap)
                .map(|_| UnsafeCell::new(Record::default()))
                .collect(),
            len: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    pub fn capacity(&self) -> usize {
        self.cells.len()
    }

    /// Append one record. Single-writer only. Returns `false` (and counts
    /// the drop) when the ring is full.
    #[inline]
    pub fn push(&self, r: Record) -> bool {
        let i = self.len.load(Ordering::Relaxed);
        if i >= self.cells.len() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        unsafe { *self.cells[i].get() = r };
        self.len.store(i + 1, Ordering::Release);
        true
    }

    /// Records dropped on overflow since the last clear.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Copy out the published records.
    pub fn snapshot(&self) -> Vec<Record> {
        let n = self.len.load(Ordering::Acquire);
        (0..n).map(|i| unsafe { *self.cells[i].get() }).collect()
    }

    fn clear(&self) {
        self.len.store(0, Ordering::Release);
        self.dropped.store(0, Ordering::Relaxed);
    }
}

struct Registry {
    /// Every ring ever handed out (collection reads all of them).
    all: Vec<Arc<Ring>>,
    /// Rings whose owning thread has exited, ready for reuse.
    free: Vec<Arc<Ring>>,
    capacity: usize,
}

fn registry() -> &'static Mutex<Registry> {
    static R: OnceLock<Mutex<Registry>> = OnceLock::new();
    R.get_or_init(|| {
        Mutex::new(Registry {
            all: Vec::new(),
            free: Vec::new(),
            capacity: DEFAULT_RING_CAPACITY,
        })
    })
}

fn lock_registry() -> MutexGuard<'static, Registry> {
    registry().lock().unwrap_or_else(|e| e.into_inner())
}

/// Returns its ring to the free list when the owning thread exits.
struct WriterGuard(Arc<Ring>);

impl Drop for WriterGuard {
    fn drop(&mut self) {
        lock_registry().free.push(Arc::clone(&self.0));
    }
}

thread_local! {
    static WRITER: RefCell<Option<WriterGuard>> = const { RefCell::new(None) };
    static TRACK: Cell<u16> = const { Cell::new(MAIN_TRACK) };
}

/// Tag subsequent records from this thread with `track` (scheduler workers
/// set their worker id; everything else stays [`MAIN_TRACK`]).
pub fn set_thread_track(track: u16) {
    TRACK.with(|t| t.set(track));
}

/// The current thread's telemetry track.
pub fn thread_track() -> u16 {
    TRACK.with(|t| t.get())
}

/// Append `r` to this thread's ring, acquiring one from the pool on first
/// use. `r.track` is ignored and replaced by the thread's track.
pub fn emit_record(mut r: Record) {
    r.track = thread_track();
    WRITER.with(|w| {
        let mut slot = w.borrow_mut();
        let guard = slot.get_or_insert_with(|| {
            let mut reg = lock_registry();
            let ring = reg.free.pop().unwrap_or_else(|| {
                let ring = Arc::new(Ring::with_capacity(reg.capacity));
                reg.all.push(Arc::clone(&ring));
                ring
            });
            WriterGuard(ring)
        });
        guard.0.push(r);
    });
}

/// Top the free list up to one ring per available CPU plus one (the
/// driving thread), so that the threads of the next traced run take pooled
/// rings on their first emit instead of allocating and filling one inside
/// the run, where that time reads as idle. A fixed count, not one per
/// thread: threads beyond it still allocate on their first emit.
pub(crate) fn prefill_free_rings() {
    let want = std::thread::available_parallelism().map_or(1, |n| n.get()) + 1;
    let mut reg = lock_registry();
    while reg.free.len() < want {
        let ring = Arc::new(Ring::with_capacity(reg.capacity));
        reg.all.push(Arc::clone(&ring));
        reg.free.push(ring);
    }
}

/// A collected snapshot of every ring: the raw span/instant stream.
#[derive(Debug, Clone, Default)]
pub struct TraceData {
    /// All records, sorted by `(ts_ns, track)`.
    pub records: Vec<Record>,
    /// Records lost to ring overflow since the previous collection.
    pub dropped: u64,
}

impl TraceData {
    /// Distinct tracks present, scheduler workers first, main last.
    pub fn tracks(&self) -> Vec<u16> {
        let mut t: Vec<u16> = self.records.iter().map(|r| r.track).collect();
        t.sort_unstable();
        t.dedup();
        t
    }

    /// Span records only (instants filtered out).
    pub fn spans(&self) -> impl Iterator<Item = &Record> {
        self.records.iter().filter(|r| !r.kind.is_instant())
    }

    /// Earliest timestamp (0 when empty).
    pub fn min_ts(&self) -> u64 {
        self.records.iter().map(|r| r.ts_ns).min().unwrap_or(0)
    }
}

/// Snapshot **and clear** every ring. Call at a quiescent point (no
/// emitting threads mid-push) for an exact stream; concurrent emitters
/// lose at most in-flight records, never memory safety.
pub fn collect() -> TraceData {
    let reg = lock_registry();
    let mut records = Vec::new();
    let mut dropped = 0u64;
    for ring in &reg.all {
        records.append(&mut ring.snapshot());
        dropped += ring.dropped();
        ring.clear();
    }
    drop(reg);
    records.sort_by_key(|r| (r.ts_ns, r.track));
    TraceData { records, dropped }
}

/// Set the capacity of rings created *after* this call (existing pooled
/// rings keep theirs). Pair with [`reset_rings`] in tests/benches that
/// need a specific bound.
pub fn set_default_ring_capacity(cap: usize) {
    lock_registry().capacity = cap.max(1);
}

/// Discard every ring's records and forget the pooled rings, whose owning
/// threads have exited: rings created after this call take the current
/// [`set_default_ring_capacity`]. A ring a live thread still writes to
/// stays registered, so `collect` keeps reading what that thread records
/// next. Call it between runs, from the driving thread.
pub fn reset_rings() {
    let mut reg = lock_registry();
    let Registry { all, free, .. } = &mut *reg;
    all.retain(|r| !free.iter().any(|f| Arc::ptr_eq(r, f)));
    free.clear();
    for ring in all.iter() {
        ring.clear();
    }
}

/// Serialize tests that toggle the global telemetry state (enable flag,
/// rings, metric counters). Tests in one binary run concurrently; anything
/// asserting exact record streams or counter values must hold this.
pub fn test_guard() -> MutexGuard<'static, ()> {
    static M: OnceLock<Mutex<()>> = OnceLock::new();
    M.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::EventKind;

    fn rec(ts: u64) -> Record {
        Record {
            ts_ns: ts,
            dur_ns: 1,
            arg: 0,
            kind: EventKind::TaskExec,
            track: 0,
        }
    }

    #[test]
    fn ring_overflow_counts_drops() {
        let r = Ring::with_capacity(4);
        for i in 0..7 {
            r.push(rec(i));
        }
        assert_eq!(r.snapshot().len(), 4);
        assert_eq!(r.dropped(), 3);
        r.clear();
        assert_eq!(r.snapshot().len(), 0);
        assert_eq!(r.dropped(), 0);
        assert!(r.push(rec(9)));
        assert_eq!(r.snapshot()[0].ts_ns, 9);
    }

    #[test]
    fn ring_forgotten_by_reset_is_not_reused() {
        let _g = test_guard();
        reset_rings();
        let (emitted_tx, emitted_rx) = std::sync::mpsc::channel();
        let (exit_tx, exit_rx) = std::sync::mpsc::channel::<()>();
        let holder = std::thread::spawn(move || {
            emit_record(rec(1));
            emitted_tx.send(()).unwrap();
            exit_rx.recv().unwrap();
        });
        emitted_rx.recv().unwrap();
        // reset while the holder lives, then let it exit: its ring is
        // pooled empty, and the next thread records into a registered ring
        reset_rings();
        exit_tx.send(()).unwrap();
        holder.join().unwrap();
        std::thread::spawn(|| emit_record(rec(2))).join().unwrap();
        let t = collect();
        assert_eq!(t.records.len(), 1);
        assert_eq!(t.records[0].ts_ns, 2);
        reset_rings();
    }

    #[test]
    fn live_writer_keeps_its_ring_across_reset() {
        let _g = test_guard();
        reset_rings();
        let (emitted_tx, emitted_rx) = std::sync::mpsc::channel();
        let (reset_tx, reset_rx) = std::sync::mpsc::channel::<()>();
        let writer = std::thread::spawn(move || {
            emit_record(rec(1));
            emitted_tx.send(()).unwrap();
            reset_rx.recv().unwrap();
            emit_record(rec(2));
        });
        emitted_rx.recv().unwrap();
        // reset while the writer lives: what it records next is collected
        reset_rings();
        reset_tx.send(()).unwrap();
        writer.join().unwrap();
        let t = collect();
        assert_eq!(t.records.len(), 1, "the live writer's ring was forgotten");
        assert_eq!(t.records[0].ts_ns, 2);
        reset_rings();
    }

    #[test]
    fn first_emit_after_enabling_takes_a_pooled_ring() {
        let _g = test_guard();
        crate::set_enabled(false);
        reset_rings();
        crate::set_enabled(true);
        let pooled = lock_registry().all.len();
        assert!(pooled >= 2, "enabling must pool rings, pooled {pooled}");
        std::thread::spawn(|| emit_record(rec(3))).join().unwrap();
        assert_eq!(
            lock_registry().all.len(),
            pooled,
            "the emit allocated a ring"
        );
        crate::set_enabled(false);
        assert_eq!(collect().records.len(), 1);
        reset_rings();
    }

    #[test]
    fn trace_data_bounds() {
        let t = TraceData {
            records: vec![rec(5), rec(2)],
            dropped: 0,
        };
        assert_eq!(t.min_ts(), 2);
        assert_eq!(t.tracks(), vec![0]);
    }
}
