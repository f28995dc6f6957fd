//! The workload-driver engine: one drive loop for every replay discipline and
//! every lane count.
//!
//! The loop is parameterised by an [`ArrivalDiscipline`]:
//!
//! * [`ArrivalDiscipline::ClosedLoop`] — keep `queue_depth` requests in flight;
//!   a request is issued when the earliest in-flight request completes. At depth 1
//!   this reproduces the historic serial replayer **bit-for-bit** (summary and
//!   device state), at depth N the historic queued replayer — both guarantees are
//!   locked down by `tests/engine_equivalence.rs` against reference
//!   implementations of those loops.
//! * [`ArrivalDiscipline::OpenLoop`] — issue each request at its trace-recorded
//!   arrival time (`at_nanos`, scaled by `rate_scale`), queueing on the device
//!   when it is busy. This is what exposes *latency under load*: response time
//!   decomposes into **queueing delay** (time spent waiting for busy chips) and
//!   **service time** (time the device actually worked), reported separately in
//!   the [`RunSummary`], together with offered vs achieved IOPS.
//!
//! # Lanes and the host tier
//!
//! The loop replays against a set of [`Lanes`]: one FTL per lane, and a router
//! from the wrapped keyspace page to a `(lane, device page)` home. A single FTL
//! is a width-1 set that routes page `p` to `p % logical_pages`; the
//! `vflash-fleet` crate passes its striped lanes. Between the host and the
//! lanes sits a [`HostTier`] hook, which may serve pages itself (a host cache),
//! hand back pages to write back, choose the dispatch order and observe every
//! completion. The single-device driver passes `()`, whose every method is a
//! no-op that monomorphisation compiles away.
//!
//! A multi-page host request splits into per-lane **stripe chains**: pages on
//! one lane form a dependent chain against that lane's chips, chains on
//! different lanes run in parallel, and the request completes at the max over
//! its chains (and any host-tier time).
//!
//! # The timing model
//!
//! FTL state (mapping tables, GC, hot/cold areas) evolves in **trace order**
//! regardless of discipline — requests are submitted to the FTL one after another
//! and only the timing is overlaid by the event model. This keeps device state
//! identical across queue depths and rate scales, so throughput and latency
//! differences are attributable to queuing alone.
//!
//! For each request the engine obtains the request's timed device operations (via
//! [`submit`](vflash_ftl::FlashTranslationLayer::submit) completions with
//! [op tracing](vflash_nand::NandDevice::set_op_tracing) enabled) and plays them
//! against the lane's per-chip ready clocks:
//!
//! ```text
//! issue   = slot-free time (closed loop) | scaled arrival time (open loop)
//! op k:     start = max(end of op k-1, chip_ready[chip(k)])
//!           chip_ready[chip(k)] = start + latency(k)
//! latency = end of last op - issue
//! service = Σ latency(k);   queueing delay = latency - service
//! ```
//!
//! At closed-loop depth 1 every `max` resolves to the running clock, so the op
//! overlay is unnecessary; the engine then runs with tracing off and charges each
//! page's completion latency serially — the exact code path (and cost) of the old
//! serial replayer. Depth 1 additionally needs no event bookkeeping at all (the
//! next request issues exactly at the previous completion, so no arrival ever
//! finds the system busy), and the engine issues from a scalar clock. Untraced
//! host-tier writebacks advance a lane-level ready clock instead of the chips.
//!
//! # The event calendar
//!
//! Every other configuration drains one
//! [`EventCalendar`](crate::calendar::EventCalendar): a single binary heap of
//! host-completion instants. The closed-loop slot wait pops the earliest
//! completion from the same heap that the retirement sweep drains — see
//! `calendar.rs` for why one heap reproduces the historic
//! slot-heap/outstanding-heap pair bit-for-bit. Completions carry
//! [`OpSpan`](vflash_nand::OpSpan)s into the device's op arena rather than
//! per-request vectors, so the traced hot path performs no allocation per
//! request: the engine plays a span against the lane's chips and releases the
//! arena before the next page.

use vflash_ftl::{FlashTranslationLayer, FtlError, FtlMetrics, IoRequest as FtlRequest, Lpn};
use vflash_nand::{ChipClocks, ChipId, Nanos};
use vflash_trace::{IoOp, Trace};

use crate::calendar::EventCalendar;
use crate::histogram::LatencyHistogram;
use crate::report::{ReplayMode, RunSummary};

/// A word-packed bitmap over logical page numbers.
///
/// The prefill pass needs one bit per logical page; on multi-million-page devices a
/// `Vec<bool>` would spend a byte per page, so pages are packed 64 to a `u64` (8x
/// less memory and far fewer cache lines touched by the marking pass).
#[derive(Debug, Clone)]
struct PageBitmap {
    words: Vec<u64>,
}

impl PageBitmap {
    fn new(pages: u64) -> Self {
        PageBitmap { words: vec![0; (pages as usize).div_ceil(64)] }
    }

    fn set(&mut self, page: u64) {
        self.words[(page / 64) as usize] |= 1 << (page % 64);
    }

    #[cfg(test)]
    fn get(&self, page: u64) -> bool {
        self.words[(page / 64) as usize] & (1 << (page % 64)) != 0
    }

    /// Iterates over set pages in ascending order, skipping empty words wholesale.
    fn iter_set(&self) -> impl Iterator<Item = u64> + '_ {
        self.words.iter().enumerate().flat_map(|(word_index, &word)| {
            let base = word_index as u64 * 64;
            std::iter::successors(
                (word != 0).then_some(word),
                |bits| {
                    let rest = bits & (bits - 1);
                    (rest != 0).then_some(rest)
                },
            )
            .map(move |bits| base + u64::from(bits.trailing_zeros()))
        })
    }
}

/// Options controlling how a trace is replayed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOptions {
    /// Write every logical page the trace will ever touch once before replay starts,
    /// so that reads of data the trace never wrote behave like reads of pre-existing
    /// data instead of errors. The warm-up traffic is excluded from the reported
    /// summary. Enabled by default.
    ///
    /// The warm-up exists to serve reads, so a trace containing no read at all skips
    /// it even when this flag is set: the replay then runs against a fresh device.
    /// Callers who want a write-only workload measured on a preconditioned device
    /// should age the device explicitly (replay a fill trace first via
    /// [`WorkloadDriver::run_mut`]).
    pub prefill: bool,
    /// Request size (bytes) used for the warm-up writes. Large by default so the
    /// warm-up data is classified cold and does not pre-bias the hot/cold state.
    pub prefill_request_bytes: u32,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions { prefill: true, prefill_request_bytes: 1 << 20 }
    }
}

/// How the engine decides *when* each trace request is issued to the device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalDiscipline {
    /// Saturation replay: keep up to `queue_depth` host requests in flight; the
    /// next request is issued the moment the earliest in-flight one completes.
    /// Arrival timestamps in the trace are ignored. Depth 1 is the classic serial
    /// replay.
    ClosedLoop {
        /// Maximum host requests in flight (at least 1).
        queue_depth: usize,
    },
    /// Arrival-time replay: each request is issued at its trace-recorded
    /// `at_nanos` divided by `rate_scale`, and queues on the device when chips
    /// are busy. `rate_scale = 1.0` offers exactly the trace's recorded load;
    /// `2.0` compresses arrivals to twice the offered rate; `0.5` halves it.
    OpenLoop {
        /// Multiplier on the trace's offered arrival rate (positive and finite).
        rate_scale: f64,
    },
}

impl ArrivalDiscipline {
    /// Whether this discipline needs per-op provenance (chips + latencies) from
    /// the FTL. Closed-loop depth 1 degenerates to serial accumulation, where the
    /// overlay is pure overhead.
    fn needs_op_tracing(self) -> bool {
        match self {
            ArrivalDiscipline::ClosedLoop { queue_depth } => queue_depth > 1,
            ArrivalDiscipline::OpenLoop { .. } => true,
        }
    }

    fn validate(self) {
        match self {
            ArrivalDiscipline::ClosedLoop { queue_depth } => {
                assert!(queue_depth > 0, "queue depth must be at least 1");
            }
            ArrivalDiscipline::OpenLoop { rate_scale } => {
                assert!(
                    rate_scale.is_finite() && rate_scale > 0.0,
                    "rate scale must be positive and finite"
                );
            }
        }
    }
}

/// Scales a trace arrival timestamp by the open-loop rate multiplier.
fn scale_arrival(at_nanos: u64, rate_scale: f64) -> Nanos {
    if rate_scale == 1.0 {
        Nanos(at_nanos)
    } else {
        Nanos((at_nanos as f64 / rate_scale).round() as u64)
    }
}

/// The devices one drive loop replays against: homogeneous FTL lanes (same page
/// size, same logical capacity) behind one flat keyspace of
/// `width × lane capacity` pages.
pub trait Lanes {
    /// The FTL serving each lane.
    type Ftl: FlashTranslationLayer + ?Sized;

    /// Number of lanes (at least 1).
    fn width(&self) -> usize;

    /// The FTL of lane `index`.
    fn lane(&self, index: usize) -> &Self::Ftl;

    /// The FTL of lane `index`, mutably.
    fn lane_mut(&mut self, index: usize) -> &mut Self::Ftl;

    /// Maps a keyspace page (already wrapped modulo the keyspace size) to its
    /// `(lane, device-local page)` home.
    fn locate(&self, page: u64) -> (usize, u64);
}

/// A single FTL as a width-1 lane set: every page lives on lane 0 at its own
/// number.
struct SingleLane<'a, F: ?Sized>(&'a mut F);

impl<F: FlashTranslationLayer + ?Sized> Lanes for SingleLane<'_, F> {
    type Ftl = F;

    fn width(&self) -> usize {
        1
    }

    fn lane(&self, _index: usize) -> &F {
        self.0
    }

    fn lane_mut(&mut self, _index: usize) -> &mut F {
        self.0
    }

    fn locate(&self, page: u64) -> (usize, u64) {
        (0, page)
    }
}

/// The host tier between the trace and the lanes: an optional cache, the
/// dispatch order and observers of every completion. Every method defaults to a
/// no-op; `()` is the empty host tier the single-device driver runs with.
pub trait HostTier {
    /// The order in which a closed-loop replay dispatches the trace's `requests`
    /// (a permutation of their indices), or `None` for trace order. Open-loop
    /// replays always issue in trace (arrival) order and never ask.
    fn dispatch_order(&self, requests: usize) -> Option<Vec<usize>> {
        let _ = requests;
        None
    }

    /// Offers keyspace `page` of an `op` request of `request_bytes` bytes to the
    /// host tier before it reaches its lane. Returns the host-side cost when the
    /// host serves the page itself (no lane is touched); a served page may push
    /// keyspace pages that must be written back to their lanes onto
    /// `writebacks`, which the loop plays as background writes.
    fn serve_page(
        &mut self,
        op: IoOp,
        request_bytes: u32,
        page: u64,
        writebacks: &mut Vec<u64>,
    ) -> Option<Nanos> {
        let _ = (op, request_bytes, page, writebacks);
        None
    }

    /// One lane's share of an `op` request (its stripe) completed `latency`
    /// after the request's issue.
    fn stripe_done(&mut self, op: IoOp, latency: Nanos) {
        let _ = (op, latency);
    }

    /// The `op` request at trace position `index` completed at `completion`,
    /// `latency` after its issue.
    fn request_done(&mut self, index: usize, op: IoOp, latency: Nanos, completion: Nanos) {
        let _ = (index, op, latency, completion);
    }
}

impl HostTier for () {}

/// What one replay over a lane set measured: a [`RunSummary`] per lane plus the
/// request-level quantities no single lane sees.
#[derive(Debug, Clone, PartialEq)]
pub struct LanesSummary {
    /// One summary per lane, in lane order.
    pub lanes: Vec<RunSummary>,
    /// The arrival discipline the replay was driven under.
    pub mode: ReplayMode,
    /// Closed-loop queue depth (`0` for open loop).
    pub queue_depth: usize,
    /// Host requests replayed.
    pub host_requests: u64,
    /// Replay-clock time at which the last request completed.
    pub host_elapsed: Nanos,
    /// For open-loop replays: the span of the (rate-scaled) arrival clock.
    pub offered_duration: Nanos,
    /// Largest number of host requests simultaneously outstanding.
    pub peak_queue_depth: usize,
    /// Requests that arrived while an earlier request was still in flight.
    pub busy_arrivals: u64,
}

/// One lane's accumulators, including the stripe chain of the request in flight.
struct LaneState {
    start_metrics: FtlMetrics,
    busy_start: Vec<Nanos>,
    chips: ChipClocks,
    /// Untraced (closed-loop depth 1) lane-level ready clock: carries the
    /// host-tier writeback backlog when op tracing is off.
    ready: Nanos,
    /// Whether the current request has a stripe chain on this lane, its
    /// clock, and the device time it consumed (its service time).
    active: bool,
    chain_now: Nanos,
    chain_service: Nanos,
    read_latencies: LatencyHistogram,
    write_latencies: LatencyHistogram,
    queue_delays: LatencyHistogram,
    service_times: LatencyHistogram,
    requests: u64,
    last_completion: Nanos,
    first_arrival: Option<Nanos>,
    last_arrival: Nanos,
}

impl LaneState {
    fn new<F: FlashTranslationLayer + ?Sized>(ftl: &F) -> Self {
        LaneState {
            start_metrics: *ftl.metrics(),
            busy_start: chip_busy_times(ftl),
            chips: ChipClocks::new(ftl.device().config().chips()),
            ready: Nanos::ZERO,
            active: false,
            chain_now: Nanos::ZERO,
            chain_service: Nanos::ZERO,
            read_latencies: LatencyHistogram::new(),
            write_latencies: LatencyHistogram::new(),
            queue_delays: LatencyHistogram::new(),
            service_times: LatencyHistogram::new(),
            requests: 0,
            last_completion: Nanos::ZERO,
            first_arrival: None,
            last_arrival: Nanos::ZERO,
        }
    }

    /// Opens this lane's stripe chain for a request issued at `issue`. Untraced
    /// chains queue behind the lane's writeback backlog.
    fn begin(&mut self, issue: Nanos, traced: bool) {
        let start = if traced { issue } else { issue.max(self.ready) };
        self.active = true;
        self.chain_now = start;
        self.chain_service = Nanos::ZERO;
    }

    /// Closes the stripe chain of an `op` request issued at `issue` (arriving at
    /// `arrival` in open loop) and records it; returns the stripe's latency.
    fn finish(&mut self, op: IoOp, issue: Nanos, arrival: Option<Nanos>, traced: bool) -> Nanos {
        self.active = false;
        let latency = self.chain_now.saturating_sub(issue);
        match op {
            IoOp::Read => self.read_latencies.record(latency),
            IoOp::Write => self.write_latencies.record(latency),
        }
        self.queue_delays.record(latency.saturating_sub(self.chain_service));
        self.service_times.record(self.chain_service);
        self.requests += 1;
        if self.chain_now > self.last_completion {
            self.last_completion = self.chain_now;
        }
        if !traced {
            self.ready = self.chain_now.max(self.ready);
        }
        if let Some(arrival) = arrival {
            self.first_arrival.get_or_insert(arrival);
            if arrival > self.last_arrival {
                self.last_arrival = arrival;
            }
        }
        latency
    }

    /// Plays one background writeback issued at `issue`: traced, the write
    /// chains against the lane's chips; untraced, it bumps the lane-level
    /// ready clock. It never extends the triggering request's latency.
    fn play_writeback<F: FlashTranslationLayer + ?Sized>(
        &mut self,
        ftl: &mut F,
        issue: Nanos,
        page: u64,
        page_size: usize,
        traced: bool,
    ) -> Result<(), FtlError> {
        let completion = ftl.submit(FtlRequest::write(Lpn(page), page_size as u32))?;
        if traced && !completion.ops.is_empty() {
            let mut now = issue;
            for op in ftl.device().ops(completion.ops) {
                now = self.chips.play_op(op.chip.0, now, op.latency);
            }
            ftl.device_mut().clear_ops();
        } else {
            self.ready = self.ready.max(issue) + completion.latency;
        }
        Ok(())
    }
}

/// The unified workload driver: replays a [`Trace`] against any
/// [`FlashTranslationLayer`] under a chosen [`ArrivalDiscipline`] and reports a
/// [`RunSummary`].
///
/// # Example
///
/// ```
/// use vflash_ftl::{ConventionalFtl, FtlConfig};
/// use vflash_nand::{NandConfig, NandDevice};
/// use vflash_sim::{ArrivalDiscipline, RunOptions, WorkloadDriver};
/// use vflash_trace::synthetic::{self, SyntheticConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let trace = synthetic::web_sql_server(SyntheticConfig {
///     requests: 500,
///     working_set_bytes: 4 * 1024 * 1024,
///     ..Default::default()
/// });
/// let device = NandDevice::new(
///     NandConfig::builder()
///         .chips(4)
///         .blocks_per_chip(24)
///         .pages_per_block(32)
///         .page_size_bytes(16 * 1024)
///         .build()?,
/// );
/// let ftl = ConventionalFtl::new(device, FtlConfig::default())?;
/// let driver = WorkloadDriver::open_loop(RunOptions::default(), 1.0);
/// let summary = driver.run(ftl, &trace)?;
/// // Open-loop runs cannot serve more than they are offered.
/// assert!(summary.request_iops() <= summary.offered_iops());
/// assert!(summary.service_time.p50 > vflash_nand::Nanos::ZERO);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadDriver {
    options: RunOptions,
    discipline: ArrivalDiscipline,
}

impl WorkloadDriver {
    /// Creates a driver with explicit options and discipline.
    ///
    /// # Panics
    ///
    /// Panics on a zero queue depth or a non-positive/non-finite rate scale.
    pub fn new(options: RunOptions, discipline: ArrivalDiscipline) -> Self {
        discipline.validate();
        WorkloadDriver { options, discipline }
    }

    /// A closed-loop (saturation) driver at the given queue depth.
    ///
    /// # Panics
    ///
    /// Panics if `queue_depth` is zero.
    pub fn closed_loop(options: RunOptions, queue_depth: usize) -> Self {
        WorkloadDriver::new(options, ArrivalDiscipline::ClosedLoop { queue_depth })
    }

    /// An open-loop (arrival-time) driver at the given rate scale.
    ///
    /// # Panics
    ///
    /// Panics if `rate_scale` is not positive and finite.
    pub fn open_loop(options: RunOptions, rate_scale: f64) -> Self {
        WorkloadDriver::new(options, ArrivalDiscipline::OpenLoop { rate_scale })
    }

    /// The replay options.
    pub fn options(&self) -> &RunOptions {
        &self.options
    }

    /// The arrival discipline.
    pub fn discipline(&self) -> ArrivalDiscipline {
        self.discipline
    }

    /// Replays `trace` against `ftl` and returns the run summary.
    ///
    /// Byte offsets are translated to logical pages using the device's page size,
    /// and wrapped modulo the exported logical capacity so any trace can be
    /// replayed on any device size (the standard trick for replaying enterprise
    /// traces on scaled simulators).
    ///
    /// # Errors
    ///
    /// Propagates FTL errors ([`FtlError::OutOfSpace`] and internal device
    /// errors). Unmapped reads only occur when `prefill` is disabled; with the
    /// default options they cannot happen.
    pub fn run<F: FlashTranslationLayer>(
        &self,
        mut ftl: F,
        trace: &Trace,
    ) -> Result<RunSummary, FtlError> {
        self.run_mut(&mut ftl, trace)
    }

    /// Like [`WorkloadDriver::run`] but borrows the FTL, so callers can keep using
    /// it (and its device state) after the replay — e.g. to replay a second trace
    /// on a pre-aged device.
    ///
    /// # Errors
    ///
    /// Propagates FTL errors; see [`WorkloadDriver::run`].
    pub fn run_mut<F: FlashTranslationLayer + ?Sized>(
        &self,
        ftl: &mut F,
        trace: &Trace,
    ) -> Result<RunSummary, FtlError> {
        let run = self.run_lanes(&mut SingleLane(ftl), &mut (), trace)?;
        Ok(run.lanes.into_iter().next().expect("a single lane"))
    }

    /// Replays `trace` against a lane set behind a host tier — the loop
    /// [`WorkloadDriver::run_mut`] runs at width 1 with the empty host tier `()`.
    /// Trace pages wrap modulo the keyspace (`width × lane capacity`) and are
    /// routed by [`Lanes::locate`]. The prefill warms every lane with the pages
    /// routed to it; with the default options no read is unmapped.
    ///
    /// # Errors
    ///
    /// Propagates FTL errors from any lane; see [`WorkloadDriver::run`].
    pub fn run_lanes<L: Lanes + ?Sized, H: HostTier>(
        &self,
        lanes: &mut L,
        host: &mut H,
        trace: &Trace,
    ) -> Result<LanesSummary, FtlError> {
        let page_size = lanes.lane(0).device().config().page_size_bytes();
        let pages = lanes.width() as u64 * lanes.lane(0).logical_pages();

        // The warm-up always runs serially with tracing off, so device state
        // entering the measured phase is identical across disciplines.
        if self.options.prefill {
            prefill_lanes(lanes, trace, page_size, pages, self.options.prefill_request_bytes)?;
        }

        // The two tracing modes get a loop each, compiled from one body: the
        // untraced (depth-1) instantiation drops every op-overlay branch.
        if self.discipline.needs_op_tracing() {
            set_op_tracing(lanes, true);
            let outcome = self.drive::<true, _, _>(lanes, host, trace, page_size, pages);
            set_op_tracing(lanes, false);
            outcome
        } else {
            self.drive::<false, _, _>(lanes, host, trace, page_size, pages)
        }
    }

    /// The single drive loop shared by every discipline and lane count: each
    /// request walks issue → retire → host tier / stripe chains → schedule.
    /// `TRACED` is whether op tracing is on, i.e. whether the discipline
    /// needs the op overlay and the calendar.
    fn drive<const TRACED: bool, L: Lanes + ?Sized, H: HostTier>(
        &self,
        lanes: &mut L,
        host: &mut H,
        trace: &Trace,
        page_size: usize,
        pages: u64,
    ) -> Result<LanesSummary, FtlError> {
        let mut states: Vec<LaneState> =
            (0..lanes.width()).map(|index| LaneState::new(lanes.lane(index))).collect();
        let mut writebacks = Vec::new();

        let heap_capacity = match self.discipline {
            ArrivalDiscipline::ClosedLoop { queue_depth } => queue_depth,
            ArrivalDiscipline::OpenLoop { .. } => 64,
        };
        let mut calendar = EventCalendar::new(heap_capacity);
        let mut clock = Nanos::ZERO;
        let mut last_completion = Nanos::ZERO;
        let mut first_arrival: Option<Nanos> = None;
        let mut last_arrival = Nanos::ZERO;

        let order = match self.discipline {
            ArrivalDiscipline::ClosedLoop { .. } => host.dispatch_order(trace.len()),
            ArrivalDiscipline::OpenLoop { .. } => None,
        };
        let all_requests = trace.requests();

        for position in 0..all_requests.len() {
            let index = order.as_ref().map_or(position, |order| order[position]);
            let request = &all_requests[index];

            // When is this request issued?
            let (issue, arrival) = match self.discipline {
                ArrivalDiscipline::ClosedLoop { queue_depth } => {
                    // Wait for a queue slot: at full depth the issue time is the
                    // earliest pending completion (the clock never moves
                    // backwards, so issue order is preserved). Below full depth
                    // — retirement already drained the backlog — that earliest
                    // completion preceded an earlier issue and the clock already
                    // covers it. At depth 1 (untraced) the clock alone is the
                    // calendar: each request issues at the previous completion.
                    if TRACED && calendar.outstanding() >= queue_depth {
                        let freed = calendar.pop_earliest().expect("queue depth is at least 1");
                        if freed > clock {
                            clock = freed;
                        }
                    }
                    (clock, None)
                }
                ArrivalDiscipline::OpenLoop { rate_scale } => {
                    // The trace-recorded arrival time, compressed or stretched
                    // by the rate scale. Nothing bounds how many requests are
                    // outstanding — that is what "open loop" means. Issue times
                    // are rebased against the trace's first arrival: a subset
                    // cut from the middle of an MSR file keeps file-relative
                    // timestamps (deliberately — see `msr::SubsetOptions`), and
                    // without the rebase that offset would count as replay time
                    // and deflate the achieved IOPS.
                    let arrival = scale_arrival(request.at_nanos, rate_scale);
                    let base = *first_arrival.get_or_insert(arrival);
                    if arrival > last_arrival {
                        last_arrival = arrival;
                    }
                    (arrival.saturating_sub(base), Some(arrival))
                }
            };
            // Retire every completion at or before this issue instant; whatever
            // remains is the queue this arrival joins.
            if TRACED {
                calendar.observe_arrival(issue);
            }

            let mut host_now = issue;
            let mut touched = false;

            for page in request.logical_pages(page_size) {
                let page = page % pages;
                // The host tier first: pages it serves never reach a lane, but
                // may push writebacks that occupy their lanes in the background.
                let served = host.serve_page(request.op, request.length, page, &mut writebacks);
                if let Some(cost) = served {
                    host_now += cost;
                    touched = true;
                    for victim in writebacks.drain(..) {
                        let (lane, offset) = lanes.locate(victim);
                        states[lane].play_writeback(
                            lanes.lane_mut(lane),
                            issue,
                            offset,
                            page_size,
                            TRACED,
                        )?;
                    }
                    continue;
                }

                // Open the lane's chain before submitting, so requests whose
                // every page is skipped still record a zero-latency stripe.
                let (lane, offset) = lanes.locate(page);
                let state = &mut states[lane];
                if !state.active {
                    state.begin(issue, TRACED);
                    touched = true;
                }
                let ftl = lanes.lane_mut(lane);
                let completion = match request.op {
                    IoOp::Write => ftl.submit(FtlRequest::write(Lpn(offset), request.length))?,
                    IoOp::Read => match ftl.submit(FtlRequest::read(Lpn(offset))) {
                        Ok(completion) => completion,
                        // Without prefill, reads of never-written data are
                        // skipped, mirroring how a real host would simply get
                        // zeroes back.
                        Err(FtlError::UnmappedRead { .. }) if !self.options.prefill => continue,
                        Err(err) => return Err(err),
                    },
                };
                // A multi-page request is a dependent chain per lane: each timed
                // device op starts when both its predecessor in the chain and
                // its chip are ready. Untraced pages charge serially.
                if TRACED && !completion.ops.is_empty() {
                    let (mut now, mut service) = (state.chain_now, state.chain_service);
                    for op in ftl.device().ops(completion.ops) {
                        now = state.chips.play_op(op.chip.0, now, op.latency);
                        service += op.latency;
                    }
                    (state.chain_now, state.chain_service) = (now, service);
                    // Release the op arena: spans never outlive the page that
                    // produced them, so the backing buffer stays at one page's
                    // worth of records and never reallocates.
                    ftl.device_mut().clear_ops();
                } else {
                    state.chain_now += completion.latency;
                    state.chain_service += completion.latency;
                }
            }

            // A request that produced neither host-tier time nor lane pages (an
            // empty byte range) still completes: park it on lane 0 with a
            // zero-length chain.
            if !touched {
                states[0].begin(issue, TRACED);
            }

            let mut completion = host_now;
            for state in states.iter_mut().filter(|state| state.active) {
                let latency = state.finish(request.op, issue, arrival, TRACED);
                host.stripe_done(request.op, latency);
                if state.chain_now > completion {
                    completion = state.chain_now;
                }
            }
            host.request_done(index, request.op, completion.saturating_sub(issue), completion);
            if completion > last_completion {
                last_completion = completion;
            }
            if TRACED {
                calendar.schedule_completion(completion);
            } else {
                clock = completion;
            }
        }
        // Every request completes (a failing one aborts the replay).
        let requests = all_requests.len();

        // Depth 1 never touches the calendar: with one request in flight at a
        // time the backlog peaks at 1 and no arrival ever finds the system busy.
        let (peak_queue_depth, busy_arrivals) = if TRACED {
            (calendar.peak_outstanding(), calendar.busy_arrivals())
        } else {
            (usize::from(requests > 0), 0)
        };
        let (mode, queue_depth, offered_duration) = match self.discipline {
            ArrivalDiscipline::ClosedLoop { queue_depth } => {
                (ReplayMode::ClosedLoop, queue_depth, Nanos::ZERO)
            }
            // No queue-depth bound exists in open loop; 0 marks "unbounded".
            ArrivalDiscipline::OpenLoop { rate_scale } => (
                ReplayMode::OpenLoop { rate_scale },
                0,
                last_arrival.saturating_sub(first_arrival.unwrap_or(Nanos::ZERO)),
            ),
        };
        let lane_summaries = states
            .iter()
            .enumerate()
            .map(|(index, state)| {
                let ftl = lanes.lane(index);
                let end = *ftl.metrics();
                let mut summary = RunSummary::from_metrics_delta(
                    ftl.name(),
                    trace.name(),
                    &state.start_metrics,
                    &end,
                );
                summary.device_makespan = makespan_delta(ftl, &state.busy_start);
                summary.host_requests = state.requests;
                summary.host_elapsed = state.last_completion;
                summary.read_latency = state.read_latencies.percentiles();
                summary.write_latency = state.write_latencies.percentiles();
                summary.queue_delay = state.queue_delays.percentiles();
                summary.service_time = state.service_times.percentiles();
                summary.peak_queue_depth = peak_queue_depth;
                summary.busy_arrivals = busy_arrivals;
                summary.queue_depth = queue_depth;
                summary.mode = mode;
                // Zero in closed loop, where no lane ever records an arrival.
                summary.offered_duration = state
                    .last_arrival
                    .saturating_sub(state.first_arrival.unwrap_or(Nanos::ZERO));
                summary
            })
            .collect();
        Ok(LanesSummary {
            lanes: lane_summaries,
            mode,
            queue_depth,
            host_requests: requests as u64,
            host_elapsed: last_completion,
            offered_duration,
            peak_queue_depth,
            busy_arrivals,
        })
    }
}

/// Turns op tracing on or off on every lane's device.
fn set_op_tracing<L: Lanes + ?Sized>(lanes: &mut L, on: bool) {
    for index in 0..lanes.width() {
        lanes.lane_mut(index).device_mut().set_op_tracing(on);
    }
}

/// Snapshot of every chip's busy time, used to compute the measured-phase
/// makespan as a delta (excluding prefill traffic).
fn chip_busy_times<F: FlashTranslationLayer + ?Sized>(ftl: &F) -> Vec<Nanos> {
    let device = ftl.device();
    (0..device.config().chips())
        .map(|chip| {
            device.chip_busy_time(ChipId(chip)).expect("chip ids come from the config")
        })
        .collect()
}

/// The measured-phase makespan: largest per-chip busy-time delta since `start`.
fn makespan_delta<F: FlashTranslationLayer + ?Sized>(ftl: &F, start: &[Nanos]) -> Nanos {
    chip_busy_times(ftl)
        .iter()
        .zip(start)
        .map(|(&end, &begin)| end.saturating_sub(begin))
        .max()
        .unwrap_or(Nanos::ZERO)
}

/// [`prefill_lanes`] for a single FTL.
pub(crate) fn prefill_ftl<F: FlashTranslationLayer + ?Sized>(
    ftl: &mut F,
    trace: &Trace,
    prefill_request_bytes: u32,
) -> Result<(), FtlError> {
    let page_size = ftl.device().config().page_size_bytes();
    let pages = ftl.logical_pages();
    prefill_lanes(&mut SingleLane(ftl), trace, page_size, pages, prefill_request_bytes)
}

/// Writes every keyspace page the trace touches exactly once, lane by lane in
/// ascending device-page order, so later reads always find mapped data. Shared
/// by every discipline, so any replay warms the devices **identically** — a
/// precondition for the bit-identity guarantees between disciplines.
///
/// Traces without a single read skip the warm-up entirely: the prefill exists
/// only so reads of never-written data behave like reads of pre-existing data,
/// and a write-only trace has none.
fn prefill_lanes<L: Lanes + ?Sized>(
    lanes: &mut L,
    trace: &Trace,
    page_size: usize,
    pages: u64,
    prefill_request_bytes: u32,
) -> Result<(), FtlError> {
    if !trace.iter().any(|request| request.op == IoOp::Read) {
        return Ok(());
    }
    let lane_pages = lanes.lane(0).logical_pages();
    let mut touched: Vec<PageBitmap> =
        (0..lanes.width()).map(|_| PageBitmap::new(lane_pages)).collect();
    for request in trace {
        for page in request.logical_pages(page_size) {
            let (lane, offset) = lanes.locate(page % pages);
            touched[lane].set(offset);
        }
    }
    for (lane, bitmap) in touched.iter().enumerate() {
        let ftl = lanes.lane_mut(lane);
        for page in bitmap.iter_set() {
            ftl.write(Lpn(page), prefill_request_bytes)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vflash_ftl::{ConventionalFtl, FtlConfig};
    use vflash_nand::{NandConfig, NandDevice};
    use vflash_trace::IoRequest;

    fn ftl(chips: usize) -> ConventionalFtl {
        let device = NandDevice::new(
            NandConfig::builder()
                .chips(chips)
                .blocks_per_chip(32)
                .pages_per_block(8)
                .page_size_bytes(4096)
                .build()
                .unwrap(),
        );
        ConventionalFtl::new(device, FtlConfig::default()).unwrap()
    }

    fn serial() -> WorkloadDriver {
        WorkloadDriver::closed_loop(RunOptions::default(), 1)
    }

    /// A read-back trace with arrivals spaced 1 ms apart.
    fn paced_trace(requests: u64, gap_nanos: u64) -> Trace {
        let mut reqs = Vec::new();
        for i in 0..requests {
            reqs.push(IoRequest::new(
                i * gap_nanos,
                IoOp::Read,
                (i * 37 % requests) * 4096,
                4096,
            ));
        }
        Trace::new("paced", reqs)
    }

    #[test]
    fn bitmap_sets_and_iterates_in_ascending_order() {
        let mut bitmap = PageBitmap::new(200);
        for page in [0u64, 1, 63, 64, 65, 127, 128, 199] {
            bitmap.set(page);
        }
        assert!(bitmap.get(63));
        assert!(!bitmap.get(62));
        let set: Vec<u64> = bitmap.iter_set().collect();
        assert_eq!(set, vec![0, 1, 63, 64, 65, 127, 128, 199]);
    }

    #[test]
    fn empty_bitmap_iterates_nothing() {
        let bitmap = PageBitmap::new(500);
        assert_eq!(bitmap.iter_set().count(), 0);
    }

    #[test]
    fn zero_queue_depth_and_bad_rate_scales_are_rejected() {
        assert!(std::panic::catch_unwind(|| {
            WorkloadDriver::closed_loop(RunOptions::default(), 0)
        })
        .is_err());
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(
                std::panic::catch_unwind(|| {
                    WorkloadDriver::open_loop(RunOptions::default(), bad)
                })
                .is_err(),
                "rate scale {bad} must be rejected"
            );
        }
    }

    #[test]
    fn arrival_scaling_is_exact_at_unit_rate() {
        assert_eq!(scale_arrival(123_456, 1.0), Nanos(123_456));
        assert_eq!(scale_arrival(1_000, 2.0), Nanos(500));
        assert_eq!(scale_arrival(1_000, 0.5), Nanos(2_000));
    }

    #[test]
    fn open_loop_idle_device_has_zero_queue_delay() {
        // 1 ms between arrivals on a device whose reads take tens of µs: every
        // request finds the chips idle, so latency == service and delay == 0.
        let trace = paced_trace(64, 1_000_000);
        let summary = WorkloadDriver::open_loop(RunOptions::default(), 1.0)
            .run(ftl(2), &trace)
            .unwrap();
        assert_eq!(summary.queue_delay.max, Nanos::ZERO);
        assert_eq!(summary.read_latency, summary.service_time);
        assert_eq!(summary.peak_queue_depth, 1, "idle arrivals never overlap");
        assert_eq!(summary.busy_arrivals, 0);
        assert_eq!(summary.busy_arrival_fraction(), 0.0);
        assert!(summary.offered_duration > Nanos::ZERO);
        assert!(summary.request_iops() <= summary.offered_iops());
        assert_eq!(summary.queue_depth, 0, "open loop has no depth bound");
        assert!(matches!(summary.mode, ReplayMode::OpenLoop { rate_scale } if rate_scale == 1.0));
    }

    #[test]
    fn overload_builds_queueing_delay() {
        // 1 ns between arrivals: the device cannot keep up, so queueing delay
        // dominates and the tail grows far beyond the service time.
        let trace = paced_trace(256, 1);
        let summary = WorkloadDriver::open_loop(RunOptions::default(), 1.0)
            .run(ftl(1), &trace)
            .unwrap();
        assert!(summary.queue_delay.p99 > summary.service_time.p99);
        assert!(summary.request_iops() < summary.offered_iops());
        // All-at-once arrivals: every request but the first finds the device
        // busy, and the backlog peaks at (almost) the whole trace.
        assert_eq!(summary.busy_arrivals, 255);
        assert!(summary.peak_queue_depth > 200, "backlog {}", summary.peak_queue_depth);
        assert!(summary.queue_delay.p999 >= summary.queue_delay.p99);
    }

    #[test]
    fn closed_loop_peak_depth_is_bounded_by_the_configured_depth() {
        let trace = paced_trace(128, 1_000);
        for depth in [1usize, 4, 16] {
            let summary = WorkloadDriver::closed_loop(RunOptions::default(), depth)
                .run(ftl(4), &trace)
                .unwrap();
            assert!(
                summary.peak_queue_depth <= depth,
                "QD{depth}: peak {} escaped the bound",
                summary.peak_queue_depth
            );
            assert!(summary.peak_queue_depth >= 1);
            if depth == 1 {
                // Serial replay: the next request is issued exactly at the
                // previous completion, so no arrival ever finds the system busy.
                assert_eq!(summary.peak_queue_depth, 1);
                assert_eq!(summary.busy_arrivals, 0);
            } else {
                assert!(summary.busy_arrival_fraction() > 0.5, "QD{depth} keeps the queue busy");
            }
        }
    }

    #[test]
    fn rate_scale_compresses_arrivals_and_raises_offered_load() {
        let trace = paced_trace(128, 500_000);
        let relaxed = WorkloadDriver::open_loop(RunOptions::default(), 1.0)
            .run(ftl(2), &trace)
            .unwrap();
        let pressed = WorkloadDriver::open_loop(RunOptions::default(), 100.0)
            .run(ftl(2), &trace)
            .unwrap();
        assert!(pressed.offered_iops() > relaxed.offered_iops() * 50.0);
        assert!(pressed.queue_delay.p99 >= relaxed.queue_delay.p99);
        // Device-state evolution is discipline-invariant.
        assert_eq!(pressed.host_reads, relaxed.host_reads);
        assert_eq!(pressed.read_time, relaxed.read_time);
    }

    #[test]
    fn open_loop_rebases_against_the_first_arrival() {
        // The same trace shifted 10 minutes into the future (as a time-window
        // subset of an MSR file would be) must replay identically: the offset is
        // file position, not load.
        let gap = 500_000u64;
        let base_trace = paced_trace(64, gap);
        let shifted = Trace::new(
            "shifted",
            base_trace
                .iter()
                .map(|request| {
                    IoRequest::new(
                        request.at_nanos + 600_000_000_000,
                        request.op,
                        request.offset,
                        request.length,
                    )
                })
                .collect(),
        );
        let driver = WorkloadDriver::open_loop(RunOptions::default(), 1.0);
        let plain = driver.run(ftl(2), &base_trace).unwrap();
        let moved = driver.run(ftl(2), &shifted).unwrap();
        assert_eq!(plain.host_elapsed, moved.host_elapsed, "offset must not count as replay time");
        assert_eq!(plain.offered_duration, moved.offered_duration);
        assert_eq!(plain.read_latency, moved.read_latency);
        assert!((plain.request_iops() - moved.request_iops()).abs() < 1e-9);
    }

    #[test]
    fn closed_loop_records_zero_offered_duration() {
        let trace = paced_trace(32, 1_000);
        let summary =
            WorkloadDriver::closed_loop(RunOptions::default(), 4).run(ftl(2), &trace).unwrap();
        assert_eq!(summary.offered_duration, Nanos::ZERO);
        assert_eq!(summary.offered_iops(), 0.0);
        assert_eq!(summary.mode, ReplayMode::ClosedLoop);
        assert_eq!(summary.queue_depth, 4);
    }

    #[test]
    fn closed_loop_service_split_is_consistent_at_depth_1() {
        // At depth 1 nothing ever queues: delay is identically zero and the
        // service-time histogram matches the completion latencies.
        let trace = paced_trace(64, 1_000);
        let summary =
            WorkloadDriver::closed_loop(RunOptions::default(), 1).run(ftl(2), &trace).unwrap();
        assert_eq!(summary.queue_delay.max, Nanos::ZERO);
        assert_eq!(summary.read_latency, summary.service_time);
    }

    #[test]
    fn writes_and_reads_are_counted_per_page() {
        let trace = Trace::new(
            "test",
            vec![
                IoRequest::new(0, IoOp::Write, 0, 8192), // 2 pages
                IoRequest::new(1, IoOp::Read, 0, 4096),  // 1 page
                IoRequest::new(2, IoOp::Read, 0, 12288), // 3 pages
            ],
        );
        let summary = serial().run(ftl(1), &trace).unwrap();
        assert_eq!(summary.host_writes, 2);
        assert_eq!(summary.host_reads, 4);
        assert_eq!(summary.trace, "test");
        assert_eq!(summary.ftl, "conventional");
    }

    #[test]
    fn prefill_makes_cold_reads_succeed_and_is_excluded_from_the_summary() {
        // The trace reads offsets it never wrote.
        let trace = Trace::new("cold", vec![IoRequest::new(0, IoOp::Read, 64 * 1024, 4096)]);
        let summary = serial().run(ftl(1), &trace).unwrap();
        assert_eq!(summary.host_reads, 1);
        assert_eq!(summary.host_writes, 0, "warm-up writes must not be reported");
    }

    #[test]
    fn without_prefill_unmapped_reads_are_skipped_at_any_depth() {
        let trace = Trace::new(
            "sparse",
            vec![
                IoRequest::new(0, IoOp::Read, 64 * 1024, 4096),
                IoRequest::new(1, IoOp::Write, 0, 4096),
                IoRequest::new(2, IoOp::Read, 0, 4096),
            ],
        );
        let options = RunOptions { prefill: false, ..RunOptions::default() };
        for depth in [1usize, 4] {
            let summary = WorkloadDriver::closed_loop(options, depth).run(ftl(1), &trace).unwrap();
            assert_eq!(summary.host_reads, 1, "QD{depth}: only the mapped read is served");
            assert_eq!(summary.host_writes, 1);
            assert_eq!(summary.host_requests, 3, "skipped requests still complete with zero work");
        }
    }

    #[test]
    fn offsets_beyond_logical_capacity_wrap_around() {
        let device = ftl(1);
        let capacity_bytes = device.logical_pages() * 4096;
        let trace = Trace::new(
            "wrap",
            vec![IoRequest::new(0, IoOp::Write, capacity_bytes * 3 + 4096, 4096)],
        );
        let summary = serial().run(device, &trace).unwrap();
        assert_eq!(summary.host_writes, 1);
    }

    #[test]
    fn write_only_traces_skip_the_prefill_pass() {
        let trace = Trace::new(
            "writes",
            vec![
                IoRequest::new(0, IoOp::Write, 0, 8192),
                IoRequest::new(1, IoOp::Write, 32 * 1024, 4096),
            ],
        );
        let mut device = ftl(1);
        let summary = serial().run_mut(&mut device, &trace).unwrap();
        assert_eq!(summary.host_writes, 3);
        // No warm-up traffic happened at all: the device saw exactly the trace's
        // three page programs.
        assert_eq!(device.device().stats().counts.programs, 3);
    }

    #[test]
    fn summary_reports_the_measured_phase_makespan() {
        let mut device = ftl(1);
        let trace = Trace::new(
            "makespan",
            vec![
                IoRequest::new(0, IoOp::Write, 0, 4 * 4096),
                IoRequest::new(1, IoOp::Read, 0, 4096),
            ],
        );
        let summary = serial().run_mut(&mut device, &trace).unwrap();
        // Single-chip device: the makespan equals the serial host latency.
        assert_eq!(summary.device_makespan, summary.read_time + summary.write_time);
        assert!(summary.host_ops_per_sec() > 0.0);
        // A second replay reports only its own makespan, not cumulative time.
        let again = serial().run_mut(&mut device, &trace).unwrap();
        assert!(again.device_makespan < summary.device_makespan * 2);
        assert!(again.device_makespan > Nanos::ZERO);
    }

    #[test]
    fn run_mut_allows_back_to_back_traces_on_an_aged_device() {
        let mut device = ftl(1);
        let first = Trace::new("first", vec![IoRequest::new(0, IoOp::Write, 0, 16 * 4096)]);
        let second = Trace::new("second", vec![IoRequest::new(0, IoOp::Read, 0, 4096)]);
        let s1 = serial().run_mut(&mut device, &first).unwrap();
        let s2 = serial().run_mut(&mut device, &second).unwrap();
        assert_eq!(s1.host_writes, 16);
        assert_eq!(s2.host_reads, 1);
        assert_eq!(s2.host_writes, 0);
    }

    #[test]
    fn deeper_queues_overlap_chips_and_cut_elapsed_time() {
        let trace = paced_trace(256, 1);
        let qd1 = serial().run(ftl(4), &trace).unwrap();
        let qd16 = WorkloadDriver::closed_loop(RunOptions::default(), 16)
            .run(ftl(4), &trace)
            .unwrap();
        // Identical device-state evolution...
        assert_eq!(qd1.host_reads, qd16.host_reads);
        assert_eq!(qd1.read_time, qd16.read_time);
        assert_eq!(qd1.device_makespan, qd16.device_makespan);
        // ...but the queued overlay finishes sooner and serves more IOPS.
        assert!(
            qd16.host_elapsed < qd1.host_elapsed,
            "QD16 {} should beat QD1 {}",
            qd16.host_elapsed,
            qd1.host_elapsed
        );
        assert!(qd16.request_iops() > qd1.request_iops());
        // The overlay can never beat the busiest chip.
        assert!(qd16.host_elapsed >= qd16.device_makespan);
    }

    #[test]
    fn queued_latencies_include_chip_queuing_delay() {
        // Single chip: depth adds pure queuing delay, so per-request p99 grows
        // with depth while elapsed stays the serial sum.
        let trace = paced_trace(128, 1);
        let qd1 = serial().run(ftl(1), &trace).unwrap();
        let qd8 =
            WorkloadDriver::closed_loop(RunOptions::default(), 8).run(ftl(1), &trace).unwrap();
        assert_eq!(qd1.host_elapsed, qd8.host_elapsed, "one chip cannot overlap anything");
        assert!(
            qd8.read_latency.p99 > qd1.read_latency.p99,
            "queuing on one chip must inflate tail latency ({} vs {})",
            qd8.read_latency.p99,
            qd1.read_latency.p99
        );
        // The queueing-delay/service-time split names the cause: service times
        // are depth-invariant, the delay is what grew.
        assert_eq!(qd1.service_time, qd8.service_time);
        assert!(qd8.queue_delay.p99 > qd1.queue_delay.p99);
    }

    #[test]
    fn tracing_is_disabled_after_the_run() {
        let trace = paced_trace(16, 1);
        for driver in [
            WorkloadDriver::closed_loop(RunOptions::default(), 4),
            WorkloadDriver::open_loop(RunOptions::default(), 1.0),
        ] {
            let mut device = ftl(2);
            driver.run_mut(&mut device, &trace).unwrap();
            assert!(!device.device().op_tracing());
        }
    }
}
