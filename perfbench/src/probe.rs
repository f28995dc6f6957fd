//! Layer timing for the traced run, and the FTL wrapper every pass goes through.
//!
//! A pass is generic over a [`Probe`]. [`Untimed`] compiles every hook to
//! nothing: that is the end-to-end run. [`Tracer`] times the calls the
//! benchmark makes into each layer's public functions and keeps the spans in
//! memory, bounded, until they are written out at the end of the run.
//!
//! Timing every FTL `submit` costs more than the work it times (a clock read is
//! tens of nanoseconds, a submit is about a hundred), so scalar submits are timed
//! on a deterministic 1-in-[`SAMPLE_EVERY`] sample chosen by a hash of the call
//! index, and every call is counted. The FTL time of a window is estimated as
//! the sampled time times [`SAMPLE_EVERY`]. Batched submits and the outer layer
//! calls are timed on every call. The calibrated cost of a clock read is taken
//! off each span, and the cost of the instrumentation inside a span is taken off
//! its parent, so self time is a span's duration minus its children's time.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

use vflash_ftl::{
    BatchCompletion, Completion, FlashTranslationLayer, FtlError, FtlMetrics, IoRequest,
};
use vflash_nand::NandDevice;

/// One scalar submit in this many is timed.
pub const SAMPLE_EVERY: u64 = 8;

/// Spans kept in memory; later spans are counted as dropped.
const SPAN_CAPACITY: usize = 50_000;

/// The layer a timed call belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `vflash_trace` input generation.
    TraceGen,
    /// `WorkloadDriver::run`.
    SimDrive,
    /// `KvStore::open`.
    KvOpen,
    /// `KvStore::put`.
    KvPut,
    /// `KvStore::get`.
    KvGet,
    /// `KvStore::delete`.
    KvDelete,
    /// `KvStore::scan`.
    KvScan,
    /// `KvStore::flush`.
    KvFlush,
    /// `FleetDriver::run` with the cache on.
    FleetDrive,
    /// `FleetDriver::run` on identical lanes with the cache off.
    FleetDriveNoCache,
    /// `ConventionalFtl` scalar `submit`.
    FtlSubmit,
    /// `ConventionalFtl` `submit_batch`.
    FtlBatch,
    /// `PpbFtl` scalar `submit`.
    PpbSubmit,
    /// `PpbFtl` `submit_batch`.
    PpbBatch,
}

impl Layer {
    const COUNT: usize = Layer::PpbBatch as usize + 1;

    fn name(self) -> &'static str {
        match self {
            Layer::TraceGen => "trace.gen",
            Layer::SimDrive => "sim.drive",
            Layer::KvOpen => "kv.open",
            Layer::KvPut => "kv.put",
            Layer::KvGet => "kv.get",
            Layer::KvDelete => "kv.delete",
            Layer::KvScan => "kv.scan",
            Layer::KvFlush => "kv.flush",
            Layer::FleetDrive => "fleet.drive",
            Layer::FleetDriveNoCache => "fleet.drive_nocache",
            Layer::FtlSubmit => "ftl.submit",
            Layer::FtlBatch => "ftl.batch",
            Layer::PpbSubmit => "ppb.submit",
            Layer::PpbBatch => "ppb.batch",
        }
    }
}

/// Which FTL a wrapper holds; selects the layer its calls are charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FtlKind {
    /// The conventional baseline.
    Conventional,
    /// The PPB strategy.
    Ppb,
}

impl FtlKind {
    fn submit_layer(self) -> Layer {
        match self {
            FtlKind::Conventional => Layer::FtlSubmit,
            FtlKind::Ppb => Layer::PpbSubmit,
        }
    }

    fn batch_layer(self) -> Layer {
        match self {
            FtlKind::Conventional => Layer::FtlBatch,
            FtlKind::Ppb => Layer::PpbBatch,
        }
    }
}

/// The timing hooks a pass calls. Implemented by [`Untimed`] and [`Tracer`].
pub trait Probe: Clone {
    /// What [`Probe::begin_ftl`] hands to [`Probe::end_ftl`].
    type Token: Copy;

    /// Runs `f` as one call into `layer`.
    fn span<R>(&self, layer: Layer, f: impl FnOnce() -> R) -> R;

    /// Opens an FTL call; `batch` selects `submit_batch` over `submit`.
    fn begin_ftl(&self, kind: FtlKind, batch: bool) -> Self::Token;

    /// Closes the FTL call opened by `token`.
    fn end_ftl(&self, token: Self::Token);
}

/// The end-to-end run's probe: no clock reads at all.
#[derive(Debug, Clone, Copy, Default)]
pub struct Untimed;

impl Probe for Untimed {
    type Token = ();

    #[inline(always)]
    fn span<R>(&self, _layer: Layer, f: impl FnOnce() -> R) -> R {
        f()
    }

    #[inline(always)]
    fn begin_ftl(&self, _kind: FtlKind, _batch: bool) {}

    #[inline(always)]
    fn end_ftl(&self, _token: ()) {}
}

/// An FTL wrapper that forwards every trait method, charges calls to a probe
/// and snapshots the device when a given number of calls has been served.
///
/// The scalar `read`/`write` wrappers keep their default bodies, which call
/// [`FlashTranslationLayer::submit`] on this wrapper, so they are timed too.
#[derive(Debug)]
pub struct Probed<F, P: Probe> {
    inner: F,
    probe: P,
    kind: FtlKind,
    calls: u64,
    mark_after: u64,
    programs_at_mark: Option<u64>,
}

impl<F: FlashTranslationLayer, P: Probe> Probed<F, P> {
    /// Wraps `inner`; [`Probed::programs_at_mark`] will hold the device's
    /// page-program count as it stood after `mark_after` submit calls.
    pub fn new(inner: F, probe: P, kind: FtlKind, mark_after: u64) -> Self {
        let mut probed = Probed {
            inner,
            probe,
            kind,
            calls: 0,
            mark_after,
            programs_at_mark: None,
        };
        probed.note_call();
        probed
    }

    /// NAND page programs made before call `mark_after + 1`, once it was made.
    pub fn programs_at_mark(&self) -> Option<u64> {
        self.programs_at_mark
    }

    fn note_call(&mut self) {
        if self.calls == self.mark_after {
            self.programs_at_mark = Some(self.inner.device().stats().counts.programs);
        }
    }
}

impl<F: FlashTranslationLayer, P: Probe> FlashTranslationLayer for Probed<F, P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn logical_pages(&self) -> u64 {
        self.inner.logical_pages()
    }

    fn submit(&mut self, request: IoRequest) -> Result<Completion, FtlError> {
        let token = self.probe.begin_ftl(self.kind, false);
        let result = self.inner.submit(request);
        self.probe.end_ftl(token);
        self.calls += 1;
        self.note_call();
        result
    }

    fn submit_batch(&mut self, requests: &[IoRequest]) -> Result<BatchCompletion, FtlError> {
        let token = self.probe.begin_ftl(self.kind, true);
        let result = self.inner.submit_batch(requests);
        self.probe.end_ftl(token);
        result
    }

    fn note_batch(&mut self, pages: u64) {
        self.inner.note_batch(pages);
    }

    fn set_write_stripe(&mut self, lanes: usize) {
        self.inner.set_write_stripe(lanes);
    }

    fn metrics(&self) -> &FtlMetrics {
        self.inner.metrics()
    }

    fn is_read_only(&self) -> bool {
        self.inner.is_read_only()
    }

    fn device(&self) -> &NandDevice {
        self.inner.device()
    }

    fn device_mut(&mut self) -> &mut NandDevice {
        self.inner.device_mut()
    }
}

/// Totals of one layer over a traced pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    /// Calls made.
    pub calls: u64,
    /// Estimated host time in the calls, timer cost removed, in nanoseconds.
    pub ns: f64,
    /// Estimated FTL time inside the calls (zero for the FTL layers).
    pub ftl_ns: f64,
}

impl LayerTotals {
    /// Host time in the layer's own code, FTL calls inside taken off, in
    /// nanoseconds.
    pub fn self_ns(&self) -> f64 {
        self.ns - self.ftl_ns
    }

    /// Host time in the calls, in seconds.
    pub fn s(&self) -> f64 {
        self.ns / 1e9
    }
}

#[derive(Debug, Clone, Copy)]
struct SpanRecord {
    id: u32,
    parent: u32,
    layer: Layer,
    start_ns: u64,
    end_ns: u64,
}

#[derive(Debug)]
struct TracerState {
    origin: Instant,
    timer_ns: f64,
    call_overhead_ns: f64,
    totals: [LayerTotals; Layer::COUNT],
    /// Running estimate of host time inside FTL calls.
    ftl_ns: f64,
    /// Clock reads so far, and FTL calls that were only counted.
    clock_reads: u64,
    counted_calls: u64,
    stack: Vec<u32>,
    spans: Vec<SpanRecord>,
    dropped: u64,
    next_id: u32,
}

impl TracerState {
    /// Starts a timed span of `layer` under the innermost open span.
    fn open(&mut self, layer: Layer) -> u32 {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        self.clock_reads += 2;
        self.totals[layer as usize].calls += 1;
        self.stack.push(id);
        id
    }

    /// Ends span `id` and returns its duration less one clock read.
    fn close(&mut self, layer: Layer, id: u32, start: Instant, end: Instant) -> f64 {
        self.stack.pop();
        let parent = self.stack.last().copied().unwrap_or(0);
        if self.spans.len() < SPAN_CAPACITY {
            let start_ns = start.saturating_duration_since(self.origin).as_nanos() as u64;
            let end_ns = end.saturating_duration_since(self.origin).as_nanos() as u64;
            self.spans.push(SpanRecord {
                id,
                parent,
                layer,
                start_ns,
                end_ns,
            });
        } else {
            self.dropped += 1;
        }
        end.duration_since(start).as_nanos() as f64 - self.timer_ns
    }
}

/// The traced run's probe: times layer calls and records spans.
#[derive(Debug, Clone)]
pub struct Tracer {
    state: Rc<RefCell<TracerState>>,
}

/// A started FTL call: `None` when the call is only counted.
#[derive(Debug, Clone, Copy)]
pub struct FtlToken {
    started: Option<(Instant, Layer, u32)>,
}

fn sampled(call: u64) -> bool {
    // splitmix64 finaliser: a fixed pseudo-random subset that cannot alias
    // with periodic patterns in the call stream.
    let mut z = call.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)).is_multiple_of(SAMPLE_EVERY)
}

impl Tracer {
    /// A tracer with the clock-read cost and per-call bookkeeping cost
    /// calibrated on this machine.
    pub fn calibrated() -> Self {
        const READS: u32 = 200_000;
        let mut best = f64::INFINITY;
        for _ in 0..5 {
            let start = Instant::now();
            for _ in 0..READS {
                std::hint::black_box(Instant::now());
            }
            best = best.min(start.elapsed().as_nanos() as f64 / f64::from(READS));
        }
        let tracer = Tracer {
            state: Rc::new(RefCell::new(TracerState {
                origin: Instant::now(),
                timer_ns: best,
                call_overhead_ns: 0.0,
                totals: [LayerTotals::default(); Layer::COUNT],
                ftl_ns: 0.0,
                clock_reads: 0,
                counted_calls: 0,
                stack: Vec::new(),
                spans: Vec::new(),
                dropped: 0,
                next_id: 1,
            })),
        };
        // The bookkeeping an unsampled FTL call costs, measured on calls that
        // are never sampled, so parents can take it off their own time.
        let mut overhead = f64::INFINITY;
        for _ in 0..5 {
            let start = Instant::now();
            for call in 0..u64::from(READS) {
                std::hint::black_box(sampled(call));
                tracer.end_ftl(tracer.count_call(Layer::FtlSubmit));
            }
            overhead = overhead.min(start.elapsed().as_nanos() as f64 / f64::from(READS));
        }
        tracer.state.borrow_mut().call_overhead_ns = overhead;
        tracer.reset();
        tracer
    }

    fn count_call(&self, layer: Layer) -> FtlToken {
        let mut state = self.state.borrow_mut();
        state.totals[layer as usize].calls += 1;
        state.counted_calls += 1;
        FtlToken { started: None }
    }

    /// Clears the totals; the spans and the calibration are kept.
    pub fn reset(&self) {
        let mut state = self.state.borrow_mut();
        state.totals = [LayerTotals::default(); Layer::COUNT];
        state.ftl_ns = 0.0;
        state.clock_reads = 0;
        state.counted_calls = 0;
        state.stack.clear();
    }

    /// The calibrated cost of one clock read, in nanoseconds.
    pub fn timer_ns(&self) -> f64 {
        self.state.borrow().timer_ns
    }

    /// The totals of `layer` since the last [`Tracer::reset`].
    pub fn totals(&self, layer: Layer) -> LayerTotals {
        self.state.borrow().totals[layer as usize]
    }

    /// Host time the instrumentation itself has cost since the last
    /// [`Tracer::reset`]: every clock read and every counted call.
    pub fn overhead_ns(&self) -> f64 {
        let state = self.state.borrow();
        state.clock_reads as f64 * state.timer_ns
            + state.counted_calls as f64 * state.call_overhead_ns
    }

    /// Spans kept and spans dropped for lack of room.
    pub fn span_counts(&self) -> (usize, u64) {
        let state = self.state.borrow();
        (state.spans.len(), state.dropped)
    }

    /// Writes the kept spans as JSON lines: `id`, `parent` (0 for a root),
    /// `layer`, and start/end nanoseconds from the tracer's creation.
    pub fn spans_jsonl(&self) -> String {
        let state = self.state.borrow();
        let mut out = String::with_capacity(state.spans.len() * 72);
        for span in &state.spans {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                span.id,
                span.parent,
                span.layer.name(),
                span.start_ns,
                span.end_ns
            );
        }
        out
    }
}

impl Probe for Tracer {
    type Token = FtlToken;

    fn span<R>(&self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let (id, ftl_before, reads_before, counted_before) = {
            let mut state = self.state.borrow_mut();
            let id = state.open(layer);
            (id, state.ftl_ns, state.clock_reads, state.counted_calls)
        };
        let start = Instant::now();
        let result = f();
        let end = Instant::now();
        let mut state = self.state.borrow_mut();
        let measured = state.close(layer, id, start, end);
        // Take off the instrumentation that ran inside this span: two clock
        // reads per timed child span and the bookkeeping of counted calls.
        let inner_reads = (state.clock_reads - reads_before) as f64;
        let inner_counted = (state.counted_calls - counted_before) as f64;
        let ns = measured - inner_reads * state.timer_ns - inner_counted * state.call_overhead_ns;
        let ftl_inside = state.ftl_ns - ftl_before;
        let totals = &mut state.totals[layer as usize];
        totals.ns += ns;
        totals.ftl_ns += ftl_inside;
        result
    }

    fn begin_ftl(&self, kind: FtlKind, batch: bool) -> FtlToken {
        let layer = if batch {
            kind.batch_layer()
        } else {
            kind.submit_layer()
        };
        let mut state = self.state.borrow_mut();
        if !batch && !sampled(state.totals[layer as usize].calls) {
            drop(state);
            return self.count_call(layer);
        }
        let id = state.open(layer);
        drop(state);
        FtlToken {
            started: Some((Instant::now(), layer, id)),
        }
    }

    fn end_ftl(&self, token: FtlToken) {
        let Some((start, layer, id)) = token.started else {
            return;
        };
        let end = Instant::now();
        let mut state = self.state.borrow_mut();
        let ns = state.close(layer, id, start, end);
        let scale = if matches!(layer, Layer::FtlSubmit | Layer::PpbSubmit) {
            SAMPLE_EVERY as f64
        } else {
            1.0
        };
        state.totals[layer as usize].ns += ns * scale;
        state.ftl_ns += ns * scale;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_picks_about_one_in_n() {
        let picked = (0..80_000u64).filter(|&call| sampled(call)).count() as f64;
        let expected = 80_000.0 / SAMPLE_EVERY as f64;
        assert!(
            (picked - expected).abs() < expected * 0.05,
            "{picked} vs {expected}"
        );
    }

    #[test]
    fn parent_self_time_excludes_child_time() {
        let tracer = Tracer::calibrated();
        tracer.span(Layer::SimDrive, || {
            let token = tracer.begin_ftl(FtlKind::Conventional, true);
            std::thread::sleep(std::time::Duration::from_millis(20));
            tracer.end_ftl(token);
        });
        let drive = tracer.totals(Layer::SimDrive);
        let batch = tracer.totals(Layer::FtlBatch);
        assert_eq!((drive.calls, batch.calls), (1, 1));
        assert!(batch.s() >= 0.02);
        assert!(drive.ftl_ns == batch.ns);
        assert!(
            drive.self_ns() >= 0.0 && drive.self_ns() < 5e6,
            "{}",
            drive.self_ns()
        );
    }
}
