//! Reusable per-worker scratch buffers for the tile kernels.
//!
//! Every `*_tile` kernel needs transient dense staging: the f64 (or f32)
//! image of its operand tiles. Allocating those images per task turns the
//! factorization inner loop into a malloc benchmark. A [`Workspace`] owns one
//! growable buffer per role; `prep`/`load` reuse the capacity across tasks, so
//! after the first task of each shape a worker performs **zero** steady-state
//! heap allocations.
//!
//! Buffers are plain public fields so a kernel can borrow several of them
//! mutably at once (disjoint field borrows), e.g. the A, B and C images of a
//! GEMM.

use std::cell::RefCell;

/// A growable scratch buffer that counts reallocation events.
///
/// `grow_events` is the observable for the "allocation-free steady state"
/// property: once a worker has seen the largest tile shape, the counter must
/// stop moving no matter how many more tasks it runs.
#[derive(Debug, Default)]
pub struct TrackedBuf<T> {
    buf: Vec<T>,
    grows: u64,
}

impl<T: Copy + Default> TrackedBuf<T> {
    pub const fn new() -> Self {
        TrackedBuf {
            buf: Vec::new(),
            grows: 0,
        }
    }

    /// Hand out a `len`-element slice of default-initialised scratch,
    /// reusing capacity when possible.
    pub fn prep(&mut self, len: usize) -> &mut [T] {
        let cap0 = self.buf.capacity();
        self.buf.clear();
        self.buf.resize(len, T::default());
        if self.buf.capacity() != cap0 {
            self.grows += 1;
        }
        &mut self.buf[..]
    }

    /// Refill the buffer through `fill` (starting from an empty Vec with
    /// retained capacity) and hand out the result. Used for "read a tile
    /// into scratch" so the fill and the (re)allocation check share one pass.
    pub fn load(&mut self, fill: impl FnOnce(&mut Vec<T>)) -> &mut [T] {
        let cap0 = self.buf.capacity();
        fill(&mut self.buf);
        if self.buf.capacity() != cap0 {
            self.grows += 1;
        }
        &mut self.buf[..]
    }

    /// The current contents (whatever the last `prep`/`load` left behind).
    pub fn as_slice(&self) -> &[T] {
        &self.buf
    }

    /// Number of times the backing allocation had to grow.
    pub fn grow_events(&self) -> u64 {
        self.grows
    }
}

/// Per-worker scratch for the whole kernel family.
///
/// Field naming: `a`/`b`/`c` mirror the GEMM operand roles (`C ← C − A·Bᵀ`);
/// the other kernels borrow them by convention (POTRF uses `c64`, TRSM uses
/// `a64` for L and `c64` for B, SYRK uses `a64` and `c64`).
#[derive(Debug, Default)]
pub struct Workspace {
    pub a64: TrackedBuf<f64>,
    pub b64: TrackedBuf<f64>,
    pub c64: TrackedBuf<f64>,
    pub a32: TrackedBuf<f32>,
    pub b32: TrackedBuf<f32>,
    pub c32: TrackedBuf<f32>,
    /// Scratch for blocked POTRF's diagonal/panel staging.
    pub p64: TrackedBuf<f64>,
    /// Byte scratch for packed wire messages (fused convert-and-pack
    /// serialization): one growable buffer per worker, reused across every
    /// message it assembles.
    pub wire: TrackedBuf<u8>,
}

impl Workspace {
    pub const fn new() -> Self {
        Workspace {
            a64: TrackedBuf::new(),
            b64: TrackedBuf::new(),
            c64: TrackedBuf::new(),
            a32: TrackedBuf::new(),
            b32: TrackedBuf::new(),
            c32: TrackedBuf::new(),
            p64: TrackedBuf::new(),
            wire: TrackedBuf::new(),
        }
    }

    /// Total reallocation events across every buffer. Constant in steady
    /// state — the zero-allocation invariant the tests pin down.
    pub fn grow_events(&self) -> u64 {
        self.a64.grow_events()
            + self.b64.grow_events()
            + self.c64.grow_events()
            + self.a32.grow_events()
            + self.b32.grow_events()
            + self.c32.grow_events()
            + self.p64.grow_events()
            + self.wire.grow_events()
    }
}

thread_local! {
    static THREAD_WS: RefCell<Workspace> = const { RefCell::new(Workspace::new()) };
}

/// Run `f` with this thread's workspace: the scratch of kernels called
/// outside the task runtime (`cholesky_in_place`, the fp8 GEMM, tests).
/// Scheduler workers own a `Workspace` directly via the per-worker context
/// API instead.
pub fn with_thread_workspace<R>(f: impl FnOnce(&mut Workspace) -> R) -> R {
    THREAD_WS.with(|ws| f(&mut ws.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prep_reuses_capacity_after_warmup() {
        let mut b: TrackedBuf<f64> = TrackedBuf::new();
        b.prep(1024);
        let warm = b.grow_events();
        assert!(warm >= 1);
        for _ in 0..100 {
            let s = b.prep(1024);
            assert_eq!(s.len(), 1024);
            let s = b.prep(64);
            assert_eq!(s.len(), 64);
        }
        assert_eq!(b.grow_events(), warm, "steady state must not reallocate");
    }

    #[test]
    fn prep_zeroes_previous_contents() {
        let mut b: TrackedBuf<f64> = TrackedBuf::new();
        b.prep(8).iter_mut().for_each(|x| *x = 7.0);
        assert!(
            b.prep(8).iter().all(|&x| x == 0.0),
            "prep must not leak stale data"
        );
    }

    #[test]
    fn load_tracks_growth() {
        let mut b: TrackedBuf<f32> = TrackedBuf::new();
        b.load(|v| v.extend_from_slice(&[1.0, 2.0, 3.0]));
        let warm = b.grow_events();
        for _ in 0..10 {
            let s = b.load(|v| {
                v.clear();
                v.extend_from_slice(&[4.0, 5.0]);
            });
            assert_eq!(s, &[4.0, 5.0]);
        }
        assert_eq!(b.grow_events(), warm);
    }

    #[test]
    fn workspace_fields_borrow_disjointly() {
        let mut ws = Workspace::new();
        let a = ws.a64.prep(4);
        a[0] = 1.0;
        let c = ws.c64.prep(4);
        c[0] = 2.0;
        assert_eq!(ws.a64.as_slice()[0], 1.0);
        assert_eq!(ws.c64.as_slice()[0], 2.0);
    }

    #[test]
    fn thread_workspace_persists_across_calls() {
        with_thread_workspace(|ws| {
            ws.a64.prep(256);
        });
        let grows = with_thread_workspace(|ws| {
            ws.a64.prep(256);
            ws.a64.grow_events()
        });
        let again = with_thread_workspace(|ws| {
            ws.a64.prep(128);
            ws.a64.grow_events()
        });
        assert_eq!(grows, again, "thread-local workspace keeps its capacity");
    }
}
