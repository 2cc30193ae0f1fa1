//! Heap held by one likelihood evaluation. A counting global allocator
//! records the peak of live heap bytes during a `loglik_detailed` call;
//! beyond what was live before the call, that peak must stay below two
//! FP64 copies of the tile matrix (`Σ`'s tiles and the factorization
//! attempt's working cells) plus 256 KiB for everything else.
//!
//! A dense n×n copy of the factor does not fit in that bound. At n = 512,
//! nb = 64 the tiles take 1.18 MB, and the evaluation peaks at 2.46 MB
//! while the cells live. Expanding the factor into a dense 2.10 MB copy
//! after the cells are freed raises the peak to 3.28 MB, above the bound
//! of 2.62 MB.
//!
//! The allocator counts every allocation of the process, so this binary
//! holds a single test: nothing else runs alongside the measured calls.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use mixedp_core::MpBackend;
use mixedp_fp::Precision;
use mixedp_geostats::{gen_locations_2d, generate_field, CovarianceModel, Location, SqExp};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method passes its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded with the caller's guarantees on `layout`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded with the caller's guarantees on `layout`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`, as the
        // caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded with the caller's guarantees on `ptr`, `layout`
        // and `new_size`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Peak heap bytes `f` holds beyond what was live when it started.
fn heap_peak_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = f();
    (out, PEAK.load(Ordering::Relaxed) - base)
}

/// Bytes of the lower-triangle tiles of an n×n matrix in FP64.
fn fp64_tile_bytes(n: usize, nb: usize) -> usize {
    let nt = n.div_ceil(nb);
    let rows = |k: usize| nb.min(n - k * nb);
    (0..nt)
        .flat_map(|i| (0..=i).map(move |j| rows(i) * rows(j) * 8))
        .sum()
}

fn check(name: &str, be: &MpBackend, model: &dyn CovarianceModel, theta: &[f64], seed: u64) {
    const N: usize = 512;
    let mut rng = StdRng::seed_from_u64(seed);
    let locs: Vec<Location> = gen_locations_2d(N, &mut rng);
    let z = generate_field(model, &locs, theta, &mut rng);
    // The first call starts the worker pool and the process-wide counters;
    // the second is measured.
    be.loglik_detailed(model, &locs, theta, &z)
        .expect("warm-up evaluation");
    let (ll, peak) = heap_peak_of(|| be.loglik_detailed(model, &locs, theta, &z));
    assert!(ll.is_some(), "{name}: evaluation rejected");
    let bound = 2 * fp64_tile_bytes(N, be.nb) + (256 << 10);
    assert!(
        peak < bound,
        "{name}: loglik_detailed held {peak} B beyond its inputs, bound {bound} B"
    );
}

#[test]
fn loglik_holds_no_dense_copy_of_the_factor() {
    let fp64 = MpBackend::new(1e-16, 64, 2);
    let model = SqExp::new2d();
    let theta = [1.0, 0.1];
    let pct_fp64 = |be: &MpBackend| {
        let mut rng = StdRng::seed_from_u64(1);
        let locs = gen_locations_2d(512, &mut rng);
        be.precision_map_for(&model, &locs, &theta)
            .percentages()
            .iter()
            .find(|(p, _)| *p == Precision::Fp64)
            .map_or(0.0, |&(_, pct)| pct)
    };
    assert_eq!(pct_fp64(&fp64), 100.0, "the 1e-16 map must be all FP64");
    check("FP64 map", &fp64, &model, &theta, 1);

    let sqexp = MpBackend::new(1e-4, 64, 2);
    assert!(pct_fp64(&sqexp) < 100.0, "the 1e-4 map must narrow tiles");
    check("sqexp 1e-4 map", &sqexp, &model, &theta, 1);
}
