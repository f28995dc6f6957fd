//! The host-tier contract of the fleet driver.
//!
//! A 1-wide [`Fleet`] with the cache disabled and a single tenant is the
//! single-device engine wearing a different coat: the stripe map is the
//! identity, every request's stripe chain is the engine's dependent chain, and
//! the fleet completion calendar sees exactly the instants the engine's
//! calendar would. This suite proves the claim the same way
//! `tests/engine_equivalence.rs` proves the replayer refactor — **bit-for-bit**
//! — against the engine itself:
//!
//! * the lane's [`RunSummary`] equals a [`WorkloadDriver`] run of the same
//!   trace field for field (the whole struct, not a projection),
//! * the device ends in the identical state (stats, modification clock, every
//!   chip, FTL metrics),
//! * on both FTLs, under closed loop (depth 1 and 8) and open loop (rate 1.0
//!   and 2.0), with and without prefill, and on random traces × random
//!   disciplines via proptest.
//!
//! It also keeps a verbatim **reference implementation of the fleet's own
//! drive loop** as it stood before the fleet moved onto the engine's loop
//! (`reference_fleet`: the fleet-private completion calendar, page bitmap,
//! stripe chains, page and writeback playback), and proves the fleet driver
//! reproduces it at every width, with and without the writeback cache, for
//! several weighted tenants, under every discipline. That copy is also the
//! open-loop oracle for the engine: at width 1 with the cache off and one
//! tenant, a [`WorkloadDriver`] run must equal the reference's lane.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use proptest::prelude::*;

use vflash::fleet::{
    dispatch_order, CacheConfig, Fleet, FleetConfig, FleetDriver, FleetSummary, StripeMap,
    TenantSummary, TenantWeight, WritebackCache,
};
use vflash::ftl::{
    ConventionalFtl, FlashTranslationLayer, FtlConfig, FtlError, IoRequest as FtlRequest, Lpn,
};
use vflash::nand::{ChipClocks, ChipId, NandConfig, NandDevice, Nanos};
use vflash::ppb::{PpbConfig, PpbFtl};
use vflash::sim::{
    ArrivalDiscipline, LatencyHistogram, ReplayMode, RunOptions, RunSummary, WorkloadDriver,
};
use vflash::trace::synthetic::{self, SkewedParams, SyntheticConfig};
use vflash::trace::{IoOp, IoRequest, Trace};

fn device(chips: usize) -> NandDevice {
    NandDevice::new(
        NandConfig::builder()
            .chips(chips)
            .blocks_per_chip(48)
            .pages_per_block(16)
            .page_size_bytes(4096)
            .speed_ratio(4.0)
            .build()
            .unwrap(),
    )
}

fn conventional(chips: usize) -> ConventionalFtl {
    ConventionalFtl::new(device(chips), FtlConfig::default()).unwrap()
}

fn ppb(chips: usize) -> PpbFtl {
    PpbFtl::new(device(chips), PpbConfig::default()).unwrap()
}

/// The disciplines the ISSUE pins: closed loop at depth 1 (the serial path,
/// op tracing off) and depth 8 (the event-calendar path), open loop at the
/// recorded rate and at 2x.
fn disciplines() -> [ArrivalDiscipline; 4] {
    [
        ArrivalDiscipline::ClosedLoop { queue_depth: 1 },
        ArrivalDiscipline::ClosedLoop { queue_depth: 8 },
        ArrivalDiscipline::OpenLoop { rate_scale: 1.0 },
        ArrivalDiscipline::OpenLoop { rate_scale: 2.0 },
    ]
}

/// Runs the same trace through the engine and through a width-1 cache-off
/// fleet, then asserts the complete contract: lane summary == engine summary
/// (full struct equality), fleet roll-ups consistent with the lane, and the
/// two devices in identical end states.
fn assert_fleet_of_one_reproduces_engine<F: FlashTranslationLayer>(
    make: impl Fn() -> F,
    trace: &Trace,
    options: RunOptions,
    discipline: ArrivalDiscipline,
    context: &str,
) {
    let mut single = make();
    let engine = WorkloadDriver::new(options, discipline).run_mut(&mut single, trace).unwrap();

    let mut fleet = Fleet::new(vec![make()], FleetConfig::default());
    let summary = FleetDriver::new(options, discipline).run_mut(&mut fleet, trace).unwrap();

    // The lane summary is the engine summary, every field.
    assert_eq!(summary.lanes.len(), 1, "{context}: one lane");
    assert_eq!(summary.lanes[0], engine, "{context}: lane RunSummary");

    // The fleet-level roll-ups collapse onto the lane at width 1.
    assert_eq!(summary.width, 1, "{context}: width");
    assert_eq!(summary.host_requests, engine.host_requests, "{context}: host_requests");
    assert_eq!(summary.host_elapsed, engine.host_elapsed, "{context}: host_elapsed");
    assert_eq!(summary.queue_depth, engine.queue_depth, "{context}: queue_depth");
    assert_eq!(summary.mode, engine.mode, "{context}: mode");
    assert_eq!(summary.offered_duration, engine.offered_duration, "{context}: offered_duration");
    assert_eq!(
        summary.peak_queue_depth, engine.peak_queue_depth,
        "{context}: peak_queue_depth"
    );
    assert_eq!(summary.busy_arrivals, engine.busy_arrivals, "{context}: busy_arrivals");
    assert_eq!(
        summary.fanout_read_latency, engine.read_latency,
        "{context}: fan-out read percentiles"
    );
    assert_eq!(
        summary.fanout_write_latency, engine.write_latency,
        "{context}: fan-out write percentiles"
    );
    // At width 1 a request has exactly one stripe, so the two distributions
    // are the same distribution.
    assert_eq!(
        summary.stripe_read_latency, summary.fanout_read_latency,
        "{context}: stripe == fan-out at width 1"
    );
    assert_eq!(
        summary.stripe_write_latency, summary.fanout_write_latency,
        "{context}: stripe == fan-out at width 1"
    );
    // Cache off, single tenant: no cache traffic, one tenant owning everything.
    assert_eq!(summary.cache, Default::default(), "{context}: cache stats stay zero");
    assert_eq!(summary.tenants.len(), 1, "{context}: one tenant");
    assert_eq!(summary.tenants[0].requests, engine.host_requests, "{context}: tenant share");

    // Device-state identity, the same checks the engine-equivalence suite runs.
    let lane = &fleet.lanes()[0];
    let (a, b) = (single.device(), lane.device());
    assert_eq!(a.stats(), b.stats(), "{context}: device stats differ");
    assert_eq!(a.mod_seq(), b.mod_seq(), "{context}: modification clocks differ");
    for chip in 0..a.config().chips() {
        assert_eq!(
            a.chip(ChipId(chip)).unwrap(),
            b.chip(ChipId(chip)).unwrap(),
            "{context}: chip {chip} state differs"
        );
    }
    assert_eq!(single.metrics(), lane.metrics(), "{context}: FTL metrics differ");
}

fn synthetic_traces() -> Vec<Trace> {
    let config = SyntheticConfig {
        requests: 1_000,
        seed: 17,
        working_set_bytes: 2 * 1024 * 1024,
        ..Default::default()
    };
    vec![
        synthetic::media_server(config),
        synthetic::web_sql_server(config),
        synthetic::skewed(
            SyntheticConfig { seed: 43, ..config },
            SkewedParams { zipf_exponent: 1.1, read_ratio: 0.8, ..SkewedParams::default() },
        ),
    ]
}

#[test]
fn fleet_of_one_reproduces_the_engine_on_conventional() {
    for trace in synthetic_traces() {
        for chips in [1usize, 4] {
            for discipline in disciplines() {
                let context = format!(
                    "conventional, {} on {chips} chip(s), {discipline:?}",
                    trace.name()
                );
                assert_fleet_of_one_reproduces_engine(
                    || conventional(chips),
                    &trace,
                    RunOptions::default(),
                    discipline,
                    &context,
                );
            }
        }
    }
}

#[test]
fn fleet_of_one_reproduces_the_engine_on_ppb() {
    for trace in synthetic_traces() {
        for discipline in disciplines() {
            let context = format!("ppb, {} on 4 chips, {discipline:?}", trace.name());
            assert_fleet_of_one_reproduces_engine(
                || ppb(4),
                &trace,
                RunOptions::default(),
                discipline,
                &context,
            );
        }
    }
}

#[test]
fn fleet_of_one_reproduces_the_engine_without_prefill() {
    // Unmapped-read skipping is a separate code path in both drivers; make
    // sure the fleet takes the engine's branch, request for request.
    let options = RunOptions { prefill: false, ..RunOptions::default() };
    let trace = synthetic::skewed(
        SyntheticConfig {
            requests: 600,
            seed: 5,
            working_set_bytes: 2 * 1024 * 1024,
            ..Default::default()
        },
        SkewedParams { read_ratio: 0.7, ..SkewedParams::default() },
    );
    for discipline in disciplines() {
        assert_fleet_of_one_reproduces_engine(
            || conventional(2),
            &trace,
            options,
            discipline,
            &format!("conventional, no prefill, {discipline:?}"),
        );
        assert_fleet_of_one_reproduces_engine(
            || ppb(2),
            &trace,
            options,
            discipline,
            &format!("ppb, no prefill, {discipline:?}"),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random traces × random chips × random disciplines keep the width-1
    /// bit-identity contract on both FTLs.
    #[test]
    fn fleet_of_one_equivalence_holds_on_random_configs(
        ops in proptest::collection::vec(
            (0u8..2, 0u64..512, 1u32..40_000),
            1..100,
        ),
        chips in 1usize..5,
        depth_or_rate in 0usize..4,
        use_ppb in any::<bool>(),
    ) {
        let requests: Vec<IoRequest> = ops
            .iter()
            .enumerate()
            .map(|(i, &(op, page, len))| {
                let op = if op == 0 { IoOp::Read } else { IoOp::Write };
                IoRequest::new(i as u64 * 1_000, op, page * 4096, len)
            })
            .collect();
        let trace = Trace::new("random", requests);
        let discipline = disciplines()[depth_or_rate];
        let context =
            format!("random, {chips} chip(s), ppb={use_ppb}, {discipline:?}");
        if use_ppb {
            assert_fleet_of_one_reproduces_engine(
                || ppb(chips),
                &trace,
                RunOptions::default(),
                discipline,
                &context,
            );
        } else {
            assert_fleet_of_one_reproduces_engine(
                || conventional(chips),
                &trace,
                RunOptions::default(),
                discipline,
                &context,
            );
        }
    }
}

// ---------------------------------------------------------------------------
// The reference fleet loop: `FleetDriver::run_mut`, `drive`, `play_page` and
// `play_writeback` as they stood when the fleet kept its own copy of the
// engine's loop, rebuilt on public types only.
// ---------------------------------------------------------------------------

fn reference_needs_op_tracing(discipline: ArrivalDiscipline) -> bool {
    match discipline {
        ArrivalDiscipline::ClosedLoop { queue_depth } => queue_depth > 1,
        ArrivalDiscipline::OpenLoop { .. } => true,
    }
}

fn reference_scale_arrival(at_nanos: u64, rate_scale: f64) -> Nanos {
    if rate_scale == 1.0 {
        Nanos(at_nanos)
    } else {
        Nanos((at_nanos as f64 / rate_scale).round() as u64)
    }
}

struct ReferenceBitmap {
    words: Vec<u64>,
}

impl ReferenceBitmap {
    fn new(pages: u64) -> Self {
        ReferenceBitmap { words: vec![0; (pages as usize).div_ceil(64)] }
    }

    fn set(&mut self, page: u64) {
        self.words[(page / 64) as usize] |= 1 << (page % 64);
    }

    fn iter_set(&self) -> impl Iterator<Item = u64> + '_ {
        self.words.iter().enumerate().flat_map(|(word_index, &word)| {
            let base = word_index as u64 * 64;
            (0..64).filter(move |bit| word & (1u64 << bit) != 0).map(move |bit| base + bit)
        })
    }
}

struct ReferenceCalendar {
    events: BinaryHeap<Reverse<Nanos>>,
    peak_outstanding: usize,
    busy_arrivals: u64,
}

impl ReferenceCalendar {
    fn new(capacity: usize) -> Self {
        ReferenceCalendar {
            events: BinaryHeap::with_capacity(capacity),
            peak_outstanding: 0,
            busy_arrivals: 0,
        }
    }

    fn outstanding(&self) -> usize {
        self.events.len()
    }

    fn pop_earliest(&mut self) -> Option<Nanos> {
        self.events.pop().map(|Reverse(at)| at)
    }

    fn observe_arrival(&mut self, issue: Nanos) {
        while self.events.peek().is_some_and(|&Reverse(at)| at <= issue) {
            self.events.pop();
        }
        if !self.events.is_empty() {
            self.busy_arrivals += 1;
        }
    }

    fn schedule_completion(&mut self, at: Nanos) {
        self.events.push(Reverse(at));
        if self.events.len() > self.peak_outstanding {
            self.peak_outstanding = self.events.len();
        }
    }
}

struct ReferenceLane {
    chips: ChipClocks,
    ready: Nanos,
    read_latencies: LatencyHistogram,
    write_latencies: LatencyHistogram,
    queue_delays: LatencyHistogram,
    service_times: LatencyHistogram,
    requests: u64,
    last_completion: Nanos,
    first_arrival: Option<Nanos>,
    last_arrival: Nanos,
}

#[derive(Clone, Copy)]
struct ReferenceChain {
    start: Nanos,
    now: Nanos,
    service: Nanos,
}

fn reference_chip_busy_times<F: FlashTranslationLayer>(lane: &F) -> Vec<Nanos> {
    let device = lane.device();
    (0..device.config().chips())
        .map(|chip| device.chip_busy_time(ChipId(chip)).expect("chip ids come from the config"))
        .collect()
}

fn reference_makespan_delta<F: FlashTranslationLayer>(lane: &F, start: &[Nanos]) -> Nanos {
    reference_chip_busy_times(lane)
        .iter()
        .zip(start)
        .map(|(&end, &begin)| end.saturating_sub(begin))
        .max()
        .unwrap_or(Nanos::ZERO)
}

#[allow(clippy::too_many_arguments)]
fn reference_play_page<F: FlashTranslationLayer>(
    options: RunOptions,
    lane: &mut F,
    state: &mut ReferenceLane,
    chain: &mut ReferenceChain,
    op: IoOp,
    offset: u64,
    request_bytes: u32,
    trace_ops: bool,
) -> Result<bool, FtlError> {
    let completion = match op {
        IoOp::Write => lane.submit(FtlRequest::write(Lpn(offset), request_bytes))?,
        IoOp::Read => match lane.submit(FtlRequest::read(Lpn(offset))) {
            Ok(completion) => completion,
            Err(FtlError::UnmappedRead { .. }) if !options.prefill => return Ok(false),
            Err(err) => return Err(err),
        },
    };
    let span = completion.ops;
    if !trace_ops || span.is_empty() {
        chain.now += completion.latency;
        chain.service += completion.latency;
    } else {
        for op in lane.device().ops(span) {
            chain.now = state.chips.play_op(op.chip.0, chain.now, op.latency);
            chain.service += op.latency;
        }
        lane.device_mut().clear_ops();
    }
    Ok(true)
}

fn reference_play_writeback<F: FlashTranslationLayer>(
    lane: &mut F,
    state: &mut ReferenceLane,
    issue: Nanos,
    offset: u64,
    page_size: usize,
    trace_ops: bool,
) -> Result<(), FtlError> {
    let completion = lane.submit(FtlRequest::write(Lpn(offset), page_size as u32))?;
    let span = completion.ops;
    if !trace_ops || span.is_empty() {
        state.ready = state.ready.max(issue) + completion.latency;
    } else {
        let mut now = issue;
        for op in lane.device().ops(span) {
            now = state.chips.play_op(op.chip.0, now, op.latency);
        }
        lane.device_mut().clear_ops();
    }
    Ok(())
}

/// The reference fleet replay: prefill, then the fleet-private drive loop.
fn reference_fleet<F: FlashTranslationLayer>(
    fleet_lanes: &mut [F],
    config: &FleetConfig,
    options: RunOptions,
    discipline: ArrivalDiscipline,
    trace: &Trace,
) -> Result<FleetSummary, FtlError> {
    let page_size = fleet_lanes[0].device().config().page_size_bytes();
    let stripe = StripeMap::new(fleet_lanes.len(), fleet_lanes[0].logical_pages());

    if options.prefill && trace.iter().any(|request| request.op == IoOp::Read) {
        let mut touched: Vec<ReferenceBitmap> =
            (0..stripe.width()).map(|_| ReferenceBitmap::new(stripe.lane_pages())).collect();
        for request in trace {
            for page in request.logical_pages(page_size) {
                let (lane, offset) = stripe.locate(page % stripe.fleet_pages());
                touched[lane].set(offset);
            }
        }
        for (lane, bitmap) in fleet_lanes.iter_mut().zip(&touched) {
            for offset in bitmap.iter_set() {
                lane.write(Lpn(offset), options.prefill_request_bytes)?;
            }
        }
    }

    let trace_ops = reference_needs_op_tracing(discipline);
    if trace_ops {
        for lane in fleet_lanes.iter_mut() {
            lane.device_mut().set_op_tracing(true);
        }
    }
    let outcome =
        reference_drive(fleet_lanes, stripe, config, options, discipline, trace, page_size);
    if trace_ops {
        for lane in fleet_lanes.iter_mut() {
            lane.device_mut().set_op_tracing(false);
        }
    }
    outcome
}

fn reference_drive<F: FlashTranslationLayer>(
    fleet_lanes: &mut [F],
    stripe: StripeMap,
    config: &FleetConfig,
    options: RunOptions,
    discipline: ArrivalDiscipline,
    trace: &Trace,
    page_size: usize,
) -> Result<FleetSummary, FtlError> {
    let width = stripe.width();
    let fleet_pages = stripe.fleet_pages();
    let trace_ops = reference_needs_op_tracing(discipline);
    let tenants = config.tenants.clone();
    let tenant_count = tenants.len();

    let start_metrics: Vec<_> = fleet_lanes.iter().map(|lane| *lane.metrics()).collect();
    let busy_start: Vec<Vec<Nanos>> =
        fleet_lanes.iter().map(|lane| reference_chip_busy_times(lane)).collect();

    let mut lanes: Vec<ReferenceLane> = fleet_lanes
        .iter()
        .map(|lane| ReferenceLane {
            chips: ChipClocks::new(lane.device().config().chips()),
            ready: Nanos::ZERO,
            read_latencies: LatencyHistogram::new(),
            write_latencies: LatencyHistogram::new(),
            queue_delays: LatencyHistogram::new(),
            service_times: LatencyHistogram::new(),
            requests: 0,
            last_completion: Nanos::ZERO,
            first_arrival: None,
            last_arrival: Nanos::ZERO,
        })
        .collect();

    let mut cache = config.cache.map(WritebackCache::new);
    let write_around_bytes =
        config.cache.map(|config| config.write_around_bytes).unwrap_or(u32::MAX);
    let hit_latency = config.cache.map(|config| config.hit_latency).unwrap_or(Nanos::ZERO);

    let heap_capacity = match discipline {
        ArrivalDiscipline::ClosedLoop { queue_depth } => queue_depth,
        ArrivalDiscipline::OpenLoop { .. } => 64,
    };
    let mut calendar = ReferenceCalendar::new(heap_capacity);
    let mut clock = Nanos::ZERO;

    let mut fanout_read = LatencyHistogram::new();
    let mut fanout_write = LatencyHistogram::new();
    let mut stripe_read = LatencyHistogram::new();
    let mut stripe_write = LatencyHistogram::new();
    let mut tenant_latencies: Vec<LatencyHistogram> =
        (0..tenant_count).map(|_| LatencyHistogram::new()).collect();
    let mut tenant_requests = vec![0u64; tenant_count];
    let mut tenant_last = vec![Nanos::ZERO; tenant_count];

    let mut last_completion = Nanos::ZERO;
    let mut first_arrival: Option<Nanos> = None;
    let mut last_arrival = Nanos::ZERO;
    let mut requests = 0u64;

    let mut chains: Vec<Option<ReferenceChain>> = vec![None; width];
    let mut touched: Vec<usize> = Vec::with_capacity(width);

    let order = match discipline {
        ArrivalDiscipline::ClosedLoop { .. } => dispatch_order(&tenants, trace.len()),
        ArrivalDiscipline::OpenLoop { .. } => (0..trace.len()).collect(),
    };
    let all_requests = trace.requests();

    for &request_index in &order {
        let request = &all_requests[request_index];
        let tenant = request_index % tenant_count;

        let issue = match discipline {
            ArrivalDiscipline::ClosedLoop { queue_depth } => {
                if calendar.outstanding() >= queue_depth {
                    let freed = calendar.pop_earliest().expect("queue depth is at least 1");
                    if freed > clock {
                        clock = freed;
                    }
                }
                clock
            }
            ArrivalDiscipline::OpenLoop { rate_scale } => {
                let arrival = reference_scale_arrival(request.at_nanos, rate_scale);
                let base = *first_arrival.get_or_insert(arrival);
                if arrival > last_arrival {
                    last_arrival = arrival;
                }
                arrival.saturating_sub(base)
            }
        };
        calendar.observe_arrival(issue);

        let mut cache_now = issue;
        let mut cache_touched = false;

        for page in request.logical_pages(page_size) {
            let fleet_lpn = page % fleet_pages;
            let (lane_index, offset) = stripe.locate(fleet_lpn);

            if let Some(cache) = cache.as_mut() {
                match request.op {
                    IoOp::Read => {
                        if cache.read(fleet_lpn) {
                            cache_now += hit_latency;
                            cache_touched = true;
                            continue;
                        }
                    }
                    IoOp::Write => {
                        if request.length < write_around_bytes {
                            let evicted = cache.write(fleet_lpn);
                            cache_now += hit_latency;
                            cache_touched = true;
                            for victim in evicted {
                                let (wb_lane, wb_offset) = stripe.locate(victim);
                                reference_play_writeback(
                                    &mut fleet_lanes[wb_lane],
                                    &mut lanes[wb_lane],
                                    issue,
                                    wb_offset,
                                    page_size,
                                    trace_ops,
                                )?;
                            }
                            for victim in cache.flush_to_threshold() {
                                let (wb_lane, wb_offset) = stripe.locate(victim);
                                reference_play_writeback(
                                    &mut fleet_lanes[wb_lane],
                                    &mut lanes[wb_lane],
                                    issue,
                                    wb_offset,
                                    page_size,
                                    trace_ops,
                                )?;
                            }
                            continue;
                        }
                        cache.write_around(fleet_lpn);
                    }
                }
            }

            if chains[lane_index].is_none() {
                let start = if trace_ops { issue } else { issue.max(lanes[lane_index].ready) };
                chains[lane_index] =
                    Some(ReferenceChain { start, now: start, service: Nanos::ZERO });
                touched.push(lane_index);
            }
            let mut chain = chains[lane_index].expect("chain initialised above");
            reference_play_page(
                options,
                &mut fleet_lanes[lane_index],
                &mut lanes[lane_index],
                &mut chain,
                request.op,
                offset,
                request.length,
                trace_ops,
            )?;
            chains[lane_index] = Some(chain);
        }

        if touched.is_empty() && !cache_touched {
            let start = if trace_ops { issue } else { issue.max(lanes[0].ready) };
            chains[0] = Some(ReferenceChain { start, now: start, service: Nanos::ZERO });
            touched.push(0);
        }

        let mut completion = cache_now;
        for &lane_index in &touched {
            let chain = chains[lane_index].expect("touched lanes have chains");
            let sub_latency = chain.now.saturating_sub(issue);
            let service =
                if trace_ops { chain.service } else { chain.now.saturating_sub(chain.start) };
            let state = &mut lanes[lane_index];
            match request.op {
                IoOp::Read => {
                    state.read_latencies.record(sub_latency);
                    stripe_read.record(sub_latency);
                }
                IoOp::Write => {
                    state.write_latencies.record(sub_latency);
                    stripe_write.record(sub_latency);
                }
            }
            state.queue_delays.record(sub_latency.saturating_sub(service));
            state.service_times.record(service);
            state.requests += 1;
            if chain.now > state.last_completion {
                state.last_completion = chain.now;
            }
            if !trace_ops {
                state.ready = chain.now.max(state.ready);
            }
            if let ArrivalDiscipline::OpenLoop { rate_scale } = discipline {
                let arrival = reference_scale_arrival(request.at_nanos, rate_scale);
                state.first_arrival.get_or_insert(arrival);
                if arrival > state.last_arrival {
                    state.last_arrival = arrival;
                }
            }
            if chain.now > completion {
                completion = chain.now;
            }
            chains[lane_index] = None;
        }
        touched.clear();

        let latency = completion.saturating_sub(issue);
        match request.op {
            IoOp::Read => fanout_read.record(latency),
            IoOp::Write => fanout_write.record(latency),
        }
        tenant_latencies[tenant].record(latency);
        tenant_requests[tenant] += 1;
        if completion > tenant_last[tenant] {
            tenant_last[tenant] = completion;
        }
        if completion > last_completion {
            last_completion = completion;
        }
        calendar.schedule_completion(completion);
        requests += 1;
    }

    let (mode, queue_depth, offered_duration) = match discipline {
        ArrivalDiscipline::ClosedLoop { queue_depth } => {
            (ReplayMode::ClosedLoop, queue_depth, Nanos::ZERO)
        }
        ArrivalDiscipline::OpenLoop { rate_scale } => (
            ReplayMode::OpenLoop { rate_scale },
            0,
            last_arrival.saturating_sub(first_arrival.unwrap_or(Nanos::ZERO)),
        ),
    };
    let lane_summaries: Vec<RunSummary> = fleet_lanes
        .iter()
        .zip(lanes.iter())
        .enumerate()
        .map(|(index, (lane, state))| {
            let end = *lane.metrics();
            let mut summary = RunSummary::from_metrics_delta(
                lane.name(),
                trace.name(),
                &start_metrics[index],
                &end,
            );
            summary.device_makespan = reference_makespan_delta(lane, &busy_start[index]);
            summary.host_requests = state.requests;
            summary.host_elapsed = state.last_completion;
            summary.read_latency = state.read_latencies.percentiles();
            summary.write_latency = state.write_latencies.percentiles();
            summary.queue_delay = state.queue_delays.percentiles();
            summary.service_time = state.service_times.percentiles();
            summary.peak_queue_depth = calendar.peak_outstanding;
            summary.busy_arrivals = calendar.busy_arrivals;
            summary.queue_depth = queue_depth;
            summary.mode = mode;
            if let ArrivalDiscipline::OpenLoop { .. } = discipline {
                summary.offered_duration = state
                    .last_arrival
                    .saturating_sub(state.first_arrival.unwrap_or(Nanos::ZERO));
            }
            summary
        })
        .collect();

    let tenant_summaries: Vec<TenantSummary> = tenants
        .iter()
        .enumerate()
        .map(|(index, tenant)| TenantSummary {
            name: tenant.name.clone(),
            weight: tenant.weight,
            requests: tenant_requests[index],
            latency: tenant_latencies[index].percentiles(),
            last_completion: tenant_last[index],
        })
        .collect();

    Ok(FleetSummary {
        ftl: fleet_lanes[0].name().to_string(),
        trace: trace.name().to_string(),
        width,
        lanes: lane_summaries,
        mode,
        queue_depth,
        host_requests: requests,
        host_elapsed: last_completion,
        offered_duration,
        peak_queue_depth: calendar.peak_outstanding,
        busy_arrivals: calendar.busy_arrivals,
        fanout_read_latency: fanout_read.percentiles(),
        fanout_write_latency: fanout_write.percentiles(),
        stripe_read_latency: stripe_read.percentiles(),
        stripe_write_latency: stripe_write.percentiles(),
        cache: cache.map(|cache| cache.stats()).unwrap_or_default(),
        tenants: tenant_summaries,
    })
}

/// Asserts two FTLs ended in the identical state: device stats, modification
/// clock, every chip and the FTL metrics.
fn assert_same_lane_state<F: FlashTranslationLayer>(a: &F, b: &F, context: &str) {
    let (da, db) = (a.device(), b.device());
    assert_eq!(da.stats(), db.stats(), "{context}: device stats differ");
    assert_eq!(da.mod_seq(), db.mod_seq(), "{context}: modification clocks differ");
    for chip in 0..da.config().chips() {
        assert_eq!(
            da.chip(ChipId(chip)).unwrap(),
            db.chip(ChipId(chip)).unwrap(),
            "{context}: chip {chip} state differs"
        );
    }
    assert_eq!(a.metrics(), b.metrics(), "{context}: FTL metrics differ");
}

/// Runs `trace` through [`FleetDriver`] and through [`reference_fleet`] on
/// identical lanes and asserts identical summaries and lane states; at width 1
/// with the cache off and one tenant, also that [`WorkloadDriver`] reproduces
/// the reference's lane.
fn assert_fleet_reproduces_reference<F: FlashTranslationLayer>(
    make: impl Fn() -> F,
    width: usize,
    config: FleetConfig,
    options: RunOptions,
    discipline: ArrivalDiscipline,
    trace: &Trace,
    context: &str,
) {
    let mut reference_lanes: Vec<F> = (0..width).map(|_| make()).collect();
    let reference =
        reference_fleet(&mut reference_lanes, &config, options, discipline, trace).unwrap();

    let engine_alone = config.cache.is_none() && config.tenants.len() == 1;
    let mut fleet = Fleet::new((0..width).map(|_| make()).collect(), config);
    let summary = FleetDriver::new(options, discipline).run_mut(&mut fleet, trace).unwrap();
    assert_eq!(summary, reference, "{context}: FleetSummary");
    for (index, (lane, reference_lane)) in fleet.lanes().iter().zip(&reference_lanes).enumerate() {
        assert_same_lane_state(lane, reference_lane, &format!("{context}, lane {index}"));
    }

    if width == 1 && engine_alone {
        let mut single = make();
        let engine = WorkloadDriver::new(options, discipline).run_mut(&mut single, trace).unwrap();
        assert_eq!(engine, reference.lanes[0], "{context}: engine vs reference lane");
        assert_same_lane_state(&single, &reference_lanes[0], &format!("{context}, engine"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random traces × widths × caches × tenant sets × disciplines × prefill ×
    /// FTLs: the fleet driver reproduces the reference fleet loop exactly.
    #[test]
    fn fleet_reproduces_the_reference_fleet_loop(
        ops in proptest::collection::vec(
            (0u8..2, 0u64..512, 1u32..40_000),
            1..80,
        ),
        width in 1usize..5,
        chips in 1usize..4,
        cache_pages in 0usize..65,
        threshold_pct in 1u32..101,
        write_around_bytes in 1u32..65_536,
        weights in proptest::collection::vec(1u64..4, 1..4),
        discipline_index in 0usize..4,
        prefill in any::<bool>(),
        use_ppb in any::<bool>(),
    ) {
        let requests: Vec<IoRequest> = ops
            .iter()
            .enumerate()
            .map(|(i, &(op, page, len))| {
                let op = if op == 0 { IoOp::Read } else { IoOp::Write };
                IoRequest::new(i as u64 * 1_000, op, page * 4096, len)
            })
            .collect();
        let trace = Trace::new("random", requests);
        // Capacity 0 stands for "no cache".
        let cache = (cache_pages > 0).then(|| CacheConfig {
            capacity_pages: cache_pages,
            dirty_flush_threshold: threshold_pct as f64 / 100.0,
            write_around_bytes,
            ..CacheConfig::default()
        });
        let tenants = weights
            .iter()
            .enumerate()
            .map(|(index, &weight)| TenantWeight::new(format!("t{index}"), weight))
            .collect();
        let config = FleetConfig { cache, tenants };
        let options = RunOptions { prefill, ..RunOptions::default() };
        let discipline = disciplines()[discipline_index];
        let context = format!(
            "width {width}, {chips} chip(s), cache {cache:?}, weights {weights:?}, \
             {discipline:?}, prefill={prefill}, ppb={use_ppb}"
        );
        if use_ppb {
            assert_fleet_reproduces_reference(
                || ppb(chips), width, config, options, discipline, &trace, &context,
            );
        } else {
            assert_fleet_reproduces_reference(
                || conventional(chips), width, config, options, discipline, &trace, &context,
            );
        }
    }
}
