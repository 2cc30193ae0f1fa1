//! Per-layer totals folded out of the span stream `mixedp-obs` already
//! records: kernel time and calls per class × precision (decoded from
//! `obs::kernel_arg`), tile conversions, and wire pack/unpack.

use mixedp_fp::Precision;
use mixedp_obs::{kernel_arg_decode, EventKind, Record, MAIN_TRACK};
use std::collections::BTreeMap;

/// Metric-name label of a precision.
pub fn precision_label(p: Precision) -> &'static str {
    match p {
        Precision::Fp64 => "fp64",
        Precision::Fp32 => "fp32",
        Precision::Tf32 => "tf32",
        Precision::Fp16x32 => "fp16x32",
        Precision::Bf16x32 => "bf16x32",
        Precision::Fp16 => "fp16",
    }
}

/// Busy nanoseconds and count of one span class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Busy {
    pub ns: u64,
    pub calls: u64,
}

impl Busy {
    fn add(&mut self, r: &Record) {
        self.ns += r.dur_ns;
        self.calls += 1;
    }
}

#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Keyed `kernels.<potrf|trsm|syrk|gemm>.<precision>`, summed over
    /// workers (busy time, not wall time).
    pub kernels: BTreeMap<String, Busy>,
    /// Tile → compute-format conversions made by scheduler workers.
    pub convert: Busy,
    /// Bytes those conversions produced.
    pub convert_bytes: u64,
    pub pack: Busy,
    pub unpack: Busy,
}

/// Fold the records that start inside `[start, end)`.
///
/// `Convert` records are counted only off the main track: scheduler
/// workers emit one per tile conversion with the produced bytes as `arg`,
/// while the driving thread emits one per conversion plan with the STC
/// tile count as `arg`.
pub fn aggregate(records: &[Record], (start, end): (u64, u64)) -> SpanTotals {
    let mut t = SpanTotals::default();
    for r in records.iter().filter(|r| r.ts_ns >= start && r.ts_ns < end) {
        match r.kind {
            EventKind::KernelPotrf
            | EventKind::KernelTrsm
            | EventKind::KernelSyrk
            | EventKind::KernelGemm => {
                let (p, _nb) = kernel_arg_decode(r.arg);
                let key = format!("kernels.{}.{}", r.kind.name(), precision_label(p));
                t.kernels.entry(key).or_default().add(r);
            }
            EventKind::Convert if r.track != MAIN_TRACK => {
                t.convert.add(r);
                t.convert_bytes += r.arg;
            }
            EventKind::WirePack => t.pack.add(r),
            EventKind::WireUnpack => t.unpack.add(r),
            _ => {}
        }
    }
    t
}

impl SpanTotals {
    pub fn merge(&mut self, o: &SpanTotals) {
        for (k, b) in &o.kernels {
            let e = self.kernels.entry(k.clone()).or_default();
            e.ns += b.ns;
            e.calls += b.calls;
        }
        for (a, b) in [
            (&mut self.convert, o.convert),
            (&mut self.pack, o.pack),
            (&mut self.unpack, o.unpack),
        ] {
            a.ns += b.ns;
            a.calls += b.calls;
        }
        self.convert_bytes += o.convert_bytes;
    }
}
