//! The four workloads: input generation from a seed, one pass over both FTLs,
//! the correctness checks and the simulated statistics each pass yields.
//!
//! Every pass builds fresh devices, so passes of one run are independent and
//! must give the same digest. Simulated statistics are deterministic for a seed.

use std::collections::BTreeMap;
use std::fmt::Debug;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vflash_fleet::{CacheConfig, Fleet, FleetConfig, FleetDriver, FleetSummary, TenantWeight};
use vflash_ftl::{ConventionalFtl, FlashTranslationLayer, FtlConfig, FtlMetrics};
use vflash_kv::workload::KvWorkloadConfig;
use vflash_kv::{FlashStore, KvConfig, KvError, KvStore};
use vflash_nand::{NandConfig, NandDevice, Nanos};
use vflash_ppb::{PpbConfig, PpbFtl};
use vflash_sim::experiments::ExperimentScale;
use vflash_sim::{LatencyHistogram, RunOptions, RunSummary, WorkloadDriver};
use vflash_trace::synthetic::{self, SyntheticConfig};
use vflash_trace::{IoOp, Trace, Zipf};

use crate::probe::{FtlKind, Layer, Probe, Probed};

/// The replay device's page size and fast/slow speed ratio (the paper's setup).
const PAGE_BYTES: usize = 16 * 1024;
const SPEED_RATIO: f64 = 2.0;
/// Open-loop ladder: fractions of the trace's recorded arrival rate.
const LADDER: [f64; 6] = [0.05, 0.10, 0.15, 0.20, 0.25, 0.30];
/// The ladder rung whose latencies are reported: 0.15 of the recorded rate,
/// loaded but below both FTLs' knees.
const LADDER_REPORT_RUNG: usize = 2;
/// Knee criterion: p99.9 at or under this, and achieved at least
/// [`KNEE_ACHIEVED`] of offered.
const KNEE_P999: Nanos = Nanos::from_millis(50);
const KNEE_ACHIEVED: f64 = 0.98;
/// KV value size and scan width, in bytes and keys.
const KV_VALUE_BYTES: usize = 256;
const KV_SCAN_WIDTH: u64 = 20;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper figure path: web/SQL and media traces, closed loop at QD 1.
    ReplayQd1,
    /// web/SQL open loop over a fixed ladder of offered rates.
    OpenloopLadder,
    /// LSM store, one client, zipf put/get/delete/scan mix.
    KvMixed,
    /// web/SQL over a 4-device fleet with the writeback cache and two tenants.
    FleetCache,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::ReplayQd1,
        Workload::OpenloopLadder,
        Workload::KvMixed,
        Workload::FleetCache,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReplayQd1 => "replay-qd1",
            Workload::OpenloopLadder => "openloop-ladder",
            Workload::KvMixed => "kv-mixed",
            Workload::FleetCache => "fleet-cache",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL
            .into_iter()
            .find(|workload| workload.name() == name)
    }
}

/// Full size for measurement, smoke size for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured configuration.
    Full,
    /// A few thousand operations.
    #[cfg_attr(not(test), allow(dead_code))]
    Smoke,
}

/// A workload's generated input, made once per pass by [`setup`].
#[derive(Debug)]
pub enum Input {
    /// Traces with their device, and each trace's prefill length per FTL.
    Replay(ReplayInput),
    /// One trace replayed at every ladder rung.
    Ladder(ReplayInput),
    /// KV operations.
    Kv(KvInput),
    /// One trace over the fleet.
    Fleet(FleetInput),
}

#[derive(Debug)]
pub struct ReplayInput {
    traces: Vec<Trace>,
    device: NandConfig,
    /// Prefill submits per trace: `[conventional, ppb]`.
    prefill_calls: Vec<[u64; 2]>,
}

#[derive(Debug, Clone, Copy)]
enum KvOp {
    Put(u8),
    Get,
    Delete,
    Scan,
}

#[derive(Debug)]
pub struct KvInput {
    ops: Vec<(u64, KvOp)>,
    device: NandConfig,
}

#[derive(Debug)]
pub struct FleetInput {
    trace: Trace,
    lane: NandConfig,
    lanes: usize,
}

/// What one pass produced.
#[derive(Debug)]
pub struct PassOutput {
    /// FNV-1a digest of every simulated statistic of the pass.
    pub digest: u64,
    /// Trace requests or KV operations completed, both FTLs together.
    pub ops: u64,
    /// Operations attempted and operations that returned an error.
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks, one line each.
    pub failures: Vec<String>,
    /// Simulated end-to-end metrics: name and value.
    pub sim: Vec<(&'static str, f64)>,
    /// Per-layer counts and ratios: name and value.
    pub counts: Vec<(&'static str, f64)>,
}

impl PassOutput {
    fn new() -> Self {
        PassOutput {
            digest: 0xcbf2_9ce4_8422_2325,
            ops: 0,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            sim: Vec::new(),
            counts: Vec::new(),
        }
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok && self.failures.len() < 20 {
            self.failures.push(what());
        }
    }

    /// Folds the `Debug` rendering of `value` into the digest (FNV-1a).
    fn fold(&mut self, value: &impl Debug) {
        for byte in format!("{value:?}").bytes() {
            self.digest = (self.digest ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn us(nanos: Nanos) -> f64 {
    nanos.as_nanos() as f64 / 1e3
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

fn replay_scale(size: Size, chips: usize, seed: u64) -> ExperimentScale {
    let base = ExperimentScale {
        chips,
        seed,
        ..ExperimentScale::standard()
    };
    match size {
        Size::Full => base,
        Size::Smoke => ExperimentScale {
            requests: 2_000,
            working_set_bytes: 16 << 20,
            ..base
        },
    }
}

fn synthetic_config(scale: &ExperimentScale) -> SyntheticConfig {
    SyntheticConfig {
        requests: scale.requests,
        seed: scale.seed,
        working_set_bytes: scale.working_set_bytes,
        ..SyntheticConfig::default()
    }
}

/// The number of submits the engine's prefill makes before the measured phase:
/// one write per distinct logical page the trace touches, when it reads at all.
fn prefill_calls(trace: &Trace, logical_pages: u64, page_size: usize) -> u64 {
    if !trace.iter().any(|request| request.op == IoOp::Read) {
        return 0;
    }
    let mut touched = vec![false; logical_pages as usize];
    for request in trace {
        for page in request.logical_pages(page_size) {
            touched[(page % logical_pages) as usize] = true;
        }
    }
    touched.iter().filter(|&&set| set).count() as u64
}

fn conventional(device: &NandConfig) -> ConventionalFtl {
    ConventionalFtl::new(NandDevice::new(device.clone()), FtlConfig::default())
        .expect("benchmark device geometry is valid")
}

fn ppb(device: &NandConfig) -> PpbFtl {
    PpbFtl::new(NandDevice::new(device.clone()), PpbConfig::default())
        .expect("benchmark device geometry is valid")
}

fn replay_input(traces: Vec<Trace>, device: NandConfig) -> ReplayInput {
    let page_size = device.page_size_bytes();
    let pages = [
        conventional(&device).logical_pages(),
        ppb(&device).logical_pages(),
    ];
    let prefill_calls = traces
        .iter()
        .map(|trace| pages.map(|logical| prefill_calls(trace, logical, page_size)))
        .collect();
    ReplayInput {
        traces,
        device,
        prefill_calls,
    }
}

/// Generates a workload's input from `seed`. Calls into `vflash_trace` are
/// charged to [`Layer::TraceGen`].
pub fn setup<P: Probe>(workload: Workload, size: Size, seed: u64, probe: &P) -> Input {
    match workload {
        Workload::ReplayQd1 => {
            let scale = replay_scale(size, 4, seed);
            let config = synthetic_config(&scale);
            let traces = probe.span(Layer::TraceGen, || {
                vec![
                    synthetic::web_sql_server(config),
                    synthetic::media_server(config),
                ]
            });
            Input::Replay(replay_input(
                traces,
                scale.device_config(PAGE_BYTES, SPEED_RATIO),
            ))
        }
        Workload::OpenloopLadder => {
            let scale = replay_scale(size, 8, seed);
            let config = synthetic_config(&scale);
            let trace = probe.span(Layer::TraceGen, || synthetic::web_sql_server(config));
            Input::Ladder(replay_input(
                vec![trace],
                scale.device_config(PAGE_BYTES, SPEED_RATIO),
            ))
        }
        Workload::KvMixed => {
            let (ops, keys, blocks) = match size {
                Size::Full => (60_000, 20_000, 256),
                Size::Smoke => (3_000, 2_000, 96),
            };
            let device = KvWorkloadConfig {
                device_blocks: blocks,
                device_chips: 4,
                ..KvWorkloadConfig::default()
            }
            .device_config();
            let ops = probe.span(Layer::TraceGen, || kv_ops(ops, keys, seed));
            Input::Kv(KvInput { ops, device })
        }
        Workload::FleetCache => {
            let scale = replay_scale(size, 2, seed);
            let config = synthetic_config(&scale);
            let trace = probe.span(Layer::TraceGen, || synthetic::web_sql_server(config));
            Input::Fleet(FleetInput {
                trace,
                lane: scale.device_config(PAGE_BYTES, SPEED_RATIO),
                lanes: 4,
            })
        }
    }
}

/// A zipf(0.99) key stream with a 40/50/5/5 put/get/delete/scan mix.
fn kv_ops(count: usize, keys: usize, seed: u64) -> Vec<(u64, KvOp)> {
    let zipf = Zipf::new(keys, 0.99);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let key = zipf.sample(&mut rng) as u64;
            let op = match rng.gen_range(0..100u32) {
                0..=39 => KvOp::Put(rng.gen::<u8>()),
                40..=89 => KvOp::Get,
                90..=94 => KvOp::Delete,
                _ => KvOp::Scan,
            };
            (key, op)
        })
        .collect()
}

/// Runs one pass of the workload over both FTLs.
pub fn pass<P: Probe>(input: &Input, probe: &P) -> PassOutput {
    match input {
        Input::Replay(input) => replay_pass(input, probe),
        Input::Ladder(input) => ladder_pass(input, probe),
        Input::Kv(input) => kv_pass(input, probe),
        Input::Fleet(input) => fleet_pass(input, probe),
    }
}

/// The traced run's cache subtraction pass: `fleet-cache`'s trace on identical
/// lanes with the cache off, charged to [`Layer::FleetDriveNoCache`]. Other
/// workloads have nothing to subtract. Returns failed checks.
pub fn subtraction_pass<P: Probe>(input: &Input, probe: &P) -> Vec<String> {
    let mut out = PassOutput::new();
    if let Input::Fleet(input) = input {
        fleet_one(
            &mut out,
            probe,
            FtlKind::Conventional,
            conventional,
            input,
            false,
        );
        fleet_one(&mut out, probe, FtlKind::Ppb, ppb, input, false);
    }
    out.failures
}

/// One `WorkloadDriver` replay's results.
struct Replayed {
    summary: RunSummary,
    metrics: FtlMetrics,
    nand: vflash_nand::DeviceStats,
}

/// Replays `trace` through `driver` and checks the outcome.
fn replay_one<F: FlashTranslationLayer, P: Probe>(
    out: &mut PassOutput,
    probe: &P,
    kind: FtlKind,
    ftl: F,
    trace: &Trace,
    prefill: u64,
    driver: WorkloadDriver,
) -> Option<Replayed> {
    let mut ftl = Probed::new(ftl, probe.clone(), kind, prefill);
    let label = format!("{} {:?} {:?}", trace.name(), kind, driver.discipline());
    out.attempted += trace.len() as u64;
    let summary = match probe.span(Layer::SimDrive, || driver.run_mut(&mut ftl, trace)) {
        Ok(summary) => summary,
        Err(error) => {
            out.failed += trace.len() as u64;
            out.check(false, || format!("{label}: replay failed: {error}"));
            return None;
        }
    };
    out.ops += summary.host_requests;
    out.failed += summary.uncorrectable_reads;
    out.check(summary.host_requests == trace.len() as u64, || {
        format!(
            "{label}: completed {} of {} requests",
            summary.host_requests,
            trace.len()
        )
    });
    out.check(summary.uncorrectable_reads == 0, || {
        format!(
            "{label}: {} uncorrectable reads",
            summary.uncorrectable_reads
        )
    });
    let nand = *ftl.device().stats();
    // The engine's prefill makes `prefill` submits; the measured phase starts
    // after them, so its NAND programs are the count since that mark.
    let measured = ftl
        .programs_at_mark()
        .map(|at_mark| nand.counts.programs - at_mark);
    let logical = summary.host_writes + summary.relocation_writes;
    out.check(measured == Some(logical), || {
        format!("{label}: host + relocation writes {logical} != NAND programs {measured:?}")
    });
    out.fold(&summary);
    out.fold(&nand);
    out.fold(&ftl.device().mod_seq());
    Some(Replayed {
        metrics: *ftl.metrics(),
        summary,
        nand,
    })
}

/// Replays trace `index` of `input` on a fresh conventional FTL and a fresh
/// PPB, appending the results to `runs[0]` and `runs[1]`.
fn replay_both<P: Probe>(
    out: &mut PassOutput,
    probe: &P,
    input: &ReplayInput,
    index: usize,
    driver: WorkloadDriver,
    runs: &mut [Vec<Replayed>; 2],
) {
    let (trace, prefill) = (&input.traces[index], input.prefill_calls[index]);
    let ftl = conventional(&input.device);
    let kind = FtlKind::Conventional;
    runs[0].extend(replay_one(out, probe, kind, ftl, trace, prefill[0], driver));
    let ftl = ppb(&input.device);
    runs[1].extend(replay_one(
        out,
        probe,
        FtlKind::Ppb,
        ftl,
        trace,
        prefill[1],
        driver,
    ));
}

fn summaries(runs: &[Replayed]) -> Vec<&RunSummary> {
    runs.iter().map(|run| &run.summary).collect()
}

/// Per-layer counts shared by the replay-based workloads.
fn ftl_counts(
    out: &mut PassOutput,
    conv: &[FtlMetrics],
    ppb: &[FtlMetrics],
    nand: &[vflash_nand::DeviceStats],
) {
    let sum = |set: &[FtlMetrics], field: fn(&FtlMetrics) -> u64| {
        set.iter().map(field).sum::<u64>() as f64
    };
    let ppb_host_writes = sum(ppb, |m| m.host_writes);
    out.counts.extend([
        ("ftl.gc_copied_pages", sum(conv, |m| m.gc_copied_pages)),
        ("ftl.erased_blocks", sum(conv, |m| m.gc_erased_blocks)),
        ("ftl.batched_pages", sum(conv, |m| m.batched_pages)),
        ("ppb.gc_copied_pages", sum(ppb, |m| m.gc_copied_pages)),
        ("ppb.erased_blocks", sum(ppb, |m| m.gc_erased_blocks)),
        ("ppb.migrated_pages", sum(ppb, |m| m.migrated_pages)),
        (
            "ppb.migrations_per_host_write",
            ratio(sum(ppb, |m| m.migrated_pages), ppb_host_writes),
        ),
        (
            "nand.reads",
            nand.iter().map(|s| s.counts.reads).sum::<u64>() as f64,
        ),
        (
            "nand.programs",
            nand.iter().map(|s| s.counts.programs).sum::<u64>() as f64,
        ),
        (
            "nand.erases",
            nand.iter().map(|s| s.counts.erases).sum::<u64>() as f64,
        ),
    ]);
}

/// Device time charged to host requests, GC included, over the chip time the
/// replays spanned.
fn busy_frac(summaries: &[&RunSummary], chips: usize) -> f64 {
    let busy: u64 = summaries
        .iter()
        .map(|s| (s.read_time + s.write_time).as_nanos())
        .sum();
    let span: u64 = summaries.iter().map(|s| s.host_elapsed.as_nanos()).sum();
    ratio(busy as f64, chips as f64 * span as f64)
}

/// Totals of PPB vs conventional replays, for the end-to-end metrics.
fn replay_sim(out: &mut PassOutput, conv: &[&RunSummary], ppb: &[&RunSummary], iops: [f64; 2]) {
    let sum = |set: &[&RunSummary], field: fn(&RunSummary) -> u64| {
        set.iter().map(|s| field(s)).sum::<u64>() as f64
    };
    let max = |set: &[&RunSummary], field: fn(&RunSummary) -> Nanos| {
        set.iter().map(|s| field(s)).max().unwrap_or(Nanos::ZERO)
    };
    let read_time = |s: &RunSummary| s.read_time.as_nanos();
    let write_time = |s: &RunSummary| s.write_time.as_nanos();
    let ppb_host_writes = sum(ppb, |s| s.host_writes);
    out.sim.extend([
        (
            "sim_read_mean_us",
            ratio(sum(ppb, read_time), sum(ppb, |s| s.host_reads)) / 1e3,
        ),
        ("sim_read_p999_us", us(max(ppb, |s| s.read_latency.p999))),
        (
            "sim_write_mean_us",
            ratio(sum(ppb, write_time), ppb_host_writes) / 1e3,
        ),
        ("sim_write_p999_us", us(max(ppb, |s| s.write_latency.p999))),
        (
            "sim_wa",
            ratio(
                ppb_host_writes + sum(ppb, |s| s.relocation_writes),
                ppb_host_writes,
            ),
        ),
        ("sim_iops", iops[1]),
        (
            "ppb_read_speedup",
            ratio(sum(conv, read_time), sum(ppb, read_time)),
        ),
        (
            "ppb_write_speedup",
            ratio(sum(conv, write_time), sum(ppb, write_time)),
        ),
        ("ppb_iops_speedup", ratio(iops[1], iops[0])),
    ]);
}

fn replay_pass<P: Probe>(input: &ReplayInput, probe: &P) -> PassOutput {
    let mut out = PassOutput::new();
    let driver = WorkloadDriver::closed_loop(RunOptions::default(), 1);
    let mut runs = [Vec::new(), Vec::new()];
    for index in 0..input.traces.len() {
        replay_both(&mut out, probe, input, index, driver, &mut runs);
    }
    let (conv_s, ppb_s) = (summaries(&runs[0]), summaries(&runs[1]));
    let iops = |set: &[&RunSummary]| {
        let requests: u64 = set.iter().map(|s| s.host_requests).sum();
        let elapsed: u64 = set.iter().map(|s| s.host_elapsed.as_nanos()).sum();
        ratio(requests as f64, elapsed as f64 / 1e9)
    };
    replay_sim(&mut out, &conv_s, &ppb_s, [iops(&conv_s), iops(&ppb_s)]);
    replay_counts(&mut out, &runs);
    out.counts
        .push(("nand.busy_frac", busy_frac(&ppb_s, input.device.chips())));
    sim_counts(&mut out, &ppb_s);
    out
}

/// Per-layer counts of the replays, both FTLs, prefill included.
fn replay_counts(out: &mut PassOutput, runs: &[Vec<Replayed>; 2]) {
    let metrics = |runs: &[Replayed]| runs.iter().map(|run| run.metrics).collect::<Vec<_>>();
    let nand: Vec<_> = runs.iter().flatten().map(|run| run.nand).collect();
    ftl_counts(out, &metrics(&runs[0]), &metrics(&runs[1]), &nand);
}

fn sim_counts(out: &mut PassOutput, summaries: &[&RunSummary]) {
    let (mut peak, mut busy, mut requests) = (0usize, 0u64, 0u64);
    for summary in summaries {
        peak = peak.max(summary.peak_queue_depth);
        busy += summary.busy_arrivals;
        requests += summary.host_requests;
    }
    out.counts.push(("sim.peak_queue_depth", peak as f64));
    out.counts
        .push(("sim.busy_arrival_frac", ratio(busy as f64, requests as f64)));
}

/// The offered rate at which the ladder stops meeting the knee criterion:
/// p99.9 within [`KNEE_P999`] and achieved at least [`KNEE_ACHIEVED`] of
/// offered. The knee is interpolated between the last rung that meets the
/// criterion and the first that misses it, in the log of the latency margin
/// (limit over p99.9), so it moves smoothly with the input instead of jumping a
/// whole rung. A rung that misses on throughput alone puts the knee at the last
/// rung met. The knee is the top rung when every rung meets the criterion and
/// zero when the lowest one misses.
fn knee_iops(rungs: &[&RunSummary]) -> f64 {
    let margin = |s: &RunSummary| {
        let p999 = s.read_latency.p999.max(s.write_latency.p999);
        KNEE_P999.as_nanos() as f64 / p999.as_nanos() as f64
    };
    let mut last_met: Option<(f64, f64)> = None;
    for rung in rungs {
        let (rate, latency) = (rung.offered_iops(), margin(rung));
        if latency < 1.0 || rung.request_iops() < KNEE_ACHIEVED * rate {
            return last_met.map_or(0.0, |(met_rate, met_latency)| {
                if latency >= 1.0 {
                    return met_rate;
                }
                let (above, below) = (met_latency.ln(), latency.ln());
                met_rate + (rate - met_rate) * above / (above - below)
            });
        }
        last_met = Some((rate, latency));
    }
    last_met.map_or(0.0, |(rate, _)| rate)
}

fn ladder_pass<P: Probe>(input: &ReplayInput, probe: &P) -> PassOutput {
    let mut out = PassOutput::new();
    let mut runs = [Vec::new(), Vec::new()];
    for &rate in &LADDER {
        let driver = WorkloadDriver::open_loop(RunOptions::default(), rate);
        replay_both(&mut out, probe, input, 0, driver, &mut runs);
    }
    if runs.iter().any(|set| set.len() != LADDER.len()) {
        return out;
    }
    let (conv_s, ppb_s) = (summaries(&runs[0]), summaries(&runs[1]));
    let knees = [knee_iops(&conv_s), knee_iops(&ppb_s)];
    out.check(knees[0] > 0.0 && knees[1] > 0.0, || {
        format!("no ladder rung meets the knee criterion: {knees:?}")
    });
    let (conv_at, ppb_at) = (conv_s[LADDER_REPORT_RUNG], ppb_s[LADDER_REPORT_RUNG]);
    let read_mean = |s: &RunSummary| us(s.read_latency.mean);
    let write_mean = |s: &RunSummary| us(s.write_latency.mean);
    out.sim.extend([
        ("sim_read_mean_us", read_mean(ppb_at)),
        ("sim_read_p999_us", us(ppb_at.read_latency.p999)),
        ("sim_write_mean_us", write_mean(ppb_at)),
        ("sim_write_p999_us", us(ppb_at.write_latency.p999)),
        ("sim_wa", ppb_at.write_amplification),
        ("sim_iops", knees[1]),
        (
            "ppb_read_speedup",
            ratio(read_mean(conv_at), read_mean(ppb_at)),
        ),
        (
            "ppb_write_speedup",
            ratio(write_mean(conv_at), write_mean(ppb_at)),
        ),
        ("ppb_iops_speedup", ratio(knees[1], knees[0])),
    ]);
    replay_counts(&mut out, &runs);
    out.counts
        .push(("nand.busy_frac", busy_frac(&[ppb_at], input.device.chips())));
    sim_counts(&mut out, &[ppb_at]);
    out
}

/// One KV run's results.
struct KvRun {
    gets: LatencyHistogram,
    writes: LatencyHistogram,
    stalled: u64,
    device_time: Nanos,
    metrics: FtlMetrics,
    nand: vflash_nand::DeviceStats,
    busy_frac: f64,
    stats: vflash_kv::KvStats,
    app_wa: f64,
    e2e_wa: f64,
}

fn kv_one<F: FlashTranslationLayer, P: Probe>(
    out: &mut PassOutput,
    probe: &P,
    kind: FtlKind,
    ftl: F,
    input: &KvInput,
) -> Option<KvRun> {
    let ftl = Probed::new(ftl, probe.clone(), kind, 0);
    let config = KvConfig {
        io_depth: 16,
        ..KvConfig::default()
    };
    let mut kv = match probe.span(Layer::KvOpen, || {
        KvStore::open(FlashStore::new(ftl), config)
    }) {
        Ok(kv) => kv,
        Err(error) => {
            out.check(false, || format!("kv {kind:?}: open failed: {error}"));
            return None;
        }
    };
    let mut model: BTreeMap<u64, u8> = BTreeMap::new();
    let (mut gets, mut writes, mut stalled) =
        (LatencyHistogram::new(), LatencyHistogram::new(), 0u64);
    let mut value = vec![0u8; KV_VALUE_BYTES];
    let expect = |fill: Option<&u8>, got: Option<&[u8]>| match (fill, got) {
        (None, None) => true,
        (Some(&fill), Some(got)) => got.len() == KV_VALUE_BYTES && got.iter().all(|&b| b == fill),
        _ => false,
    };
    for &(key, op) in &input.ops {
        let key_bytes = key.to_be_bytes();
        out.attempted += 1;
        let result: Result<(), KvError> = match op {
            KvOp::Put(fill) => {
                value.fill(fill);
                probe
                    .span(Layer::KvPut, || kv.put(&key_bytes, &value))
                    .map(|receipt| {
                        model.insert(key, fill);
                        writes.record(receipt.log_time + receipt.stall_time);
                        stalled += u64::from(receipt.stall_time > Nanos::ZERO);
                    })
            }
            KvOp::Delete => probe
                .span(Layer::KvDelete, || kv.delete(&key_bytes))
                .map(|receipt| {
                    model.remove(&key);
                    writes.record(receipt.log_time + receipt.stall_time);
                    stalled += u64::from(receipt.stall_time > Nanos::ZERO);
                }),
            KvOp::Get => probe
                .span(Layer::KvGet, || kv.get(&key_bytes))
                .map(|lookup| {
                    gets.record(lookup.time);
                    let ok = expect(model.get(&key), lookup.value.as_deref());
                    out.check(ok, || {
                        format!("kv {kind:?}: get {key} returned a wrong value")
                    });
                }),
            KvOp::Scan => {
                let hi = (key + KV_SCAN_WIDTH).to_be_bytes();
                probe
                    .span(Layer::KvScan, || kv.scan(&key_bytes, &hi))
                    .map(|rows| {
                        let want: Vec<(u64, u8)> = model
                            .range(key..key + KV_SCAN_WIDTH)
                            .map(|(&k, &v)| (k, v))
                            .collect();
                        let ok = rows.len() == want.len()
                            && rows.iter().zip(&want).all(|((k, v), (want_key, fill))| {
                                k.as_slice() == want_key.to_be_bytes()
                                    && expect(Some(fill), Some(v))
                            });
                        out.check(ok, || {
                            format!("kv {kind:?}: scan from {key} returned wrong rows")
                        });
                    })
            }
        };
        match result {
            Ok(()) => out.ops += 1,
            Err(error) => {
                out.failed += 1;
                out.check(false, || {
                    format!("kv {kind:?}: operation on key {key} failed: {error}")
                });
            }
        }
    }
    if let Err(error) = probe.span(Layer::KvFlush, || kv.flush()) {
        out.check(false, || {
            format!("kv {kind:?}: final flush failed: {error}")
        });
    }
    let stats = *kv.stats();
    let metrics = *kv.flash().ftl().metrics();
    let nand = *kv.flash().ftl().device().stats();
    out.check(metrics.uncorrectable_reads == 0, || {
        format!("kv {kind:?}: uncorrectable reads")
    });
    out.check(
        metrics.physical_page_writes() == nand.counts.programs,
        || {
            format!(
                "kv {kind:?}: FTL writes {} != NAND programs {}",
                metrics.physical_page_writes(),
                nand.counts.programs
            )
        },
    );
    let wa = kv.write_amplification();
    let (get_p, write_p) = (gets.percentiles(), writes.percentiles());
    out.fold(&stats);
    out.fold(&metrics);
    out.fold(&nand);
    out.fold(&kv.layout());
    out.fold(&(get_p, write_p, stalled, kv.device_clock()));
    let chips = kv.flash().ftl().device().config().chips() as f64;
    Some(KvRun {
        busy_frac: ratio(
            nand.busy_time().as_nanos() as f64,
            chips * kv.device_clock().as_nanos() as f64,
        ),
        gets,
        writes,
        stalled,
        device_time: kv.device_clock(),
        metrics,
        nand,
        stats,
        app_wa: wa.app,
        e2e_wa: wa.end_to_end,
    })
}

fn kv_pass<P: Probe>(input: &KvInput, probe: &P) -> PassOutput {
    let mut out = PassOutput::new();
    let conv = kv_one(
        &mut out,
        probe,
        FtlKind::Conventional,
        conventional(&input.device),
        input,
    );
    let ppb_run = kv_one(&mut out, probe, FtlKind::Ppb, ppb(&input.device), input);
    let (Some(conv), Some(ppb_run)) = (conv, ppb_run) else {
        return out;
    };
    let ops = input.ops.len() as f64;
    let iops = |run: &KvRun| ratio(ops, run.device_time.as_secs_f64());
    out.sim.extend([
        ("sim_read_mean_us", us(ppb_run.gets.mean())),
        ("sim_read_p999_us", us(ppb_run.gets.percentiles().p999)),
        ("sim_write_mean_us", us(ppb_run.writes.mean())),
        ("sim_write_p999_us", us(ppb_run.writes.percentiles().p999)),
        ("sim_wa", ppb_run.e2e_wa),
        ("sim_iops", iops(&ppb_run)),
        (
            "ppb_read_speedup",
            ratio(us(conv.gets.mean()), us(ppb_run.gets.mean())),
        ),
        (
            "ppb_write_speedup",
            ratio(us(conv.writes.mean()), us(ppb_run.writes.mean())),
        ),
        ("ppb_iops_speedup", ratio(iops(&ppb_run), iops(&conv))),
    ]);
    ftl_counts(
        &mut out,
        &[conv.metrics],
        &[ppb_run.metrics],
        &[conv.nand, ppb_run.nand],
    );
    out.counts.push(("nand.busy_frac", ppb_run.busy_frac));
    let both =
        |field: fn(&vflash_kv::KvStats) -> u64| (field(&conv.stats) + field(&ppb_run.stats)) as f64;
    let skips = both(|s| s.bloom_skips);
    out.counts.extend([
        ("kv.flushes", both(|s| s.flushes)),
        ("kv.compactions", both(|s| s.compactions)),
        ("kv.stalled_writes", (conv.stalled + ppb_run.stalled) as f64),
        (
            "kv.bloom_skip_ratio",
            ratio(skips, skips + both(|s| s.table_reads)),
        ),
        ("kv.app_wa", ppb_run.app_wa),
    ]);
    out
}

/// One fleet replay. The cache-on run is the measured one: its operations are
/// counted and its statistics go into the digest. The cache-off run only
/// feeds the traced run's subtraction.
fn fleet_one<F: FlashTranslationLayer, P: Probe>(
    out: &mut PassOutput,
    probe: &P,
    kind: FtlKind,
    build: impl Fn(&NandConfig) -> F,
    input: &FleetInput,
    cache: bool,
) -> Option<(FleetSummary, Vec<FtlMetrics>, Vec<vflash_nand::DeviceStats>)> {
    let lanes = (0..input.lanes)
        .map(|_| Probed::new(build(&input.lane), probe.clone(), kind, u64::MAX))
        .collect();
    let config = FleetConfig {
        cache: cache.then(CacheConfig::default),
        tenants: vec![
            TenantWeight::new("tenant-a", 3),
            TenantWeight::new("tenant-b", 1),
        ],
    };
    let mut fleet = Fleet::new(lanes, config);
    let driver = FleetDriver::closed_loop(RunOptions::default(), 16);
    let layer = if cache {
        Layer::FleetDrive
    } else {
        Layer::FleetDriveNoCache
    };
    let trace = &input.trace;
    let label = format!("fleet {kind:?} cache {cache}");
    if cache {
        out.attempted += trace.len() as u64;
    }
    let summary = match probe.span(layer, || driver.run_mut(&mut fleet, trace)) {
        Ok(summary) => summary,
        Err(error) => {
            if cache {
                out.failed += trace.len() as u64;
            }
            out.check(false, || format!("{label}: replay failed: {error}"));
            return None;
        }
    };
    out.check(summary.host_requests == trace.len() as u64, || {
        format!(
            "{label}: host_requests {} != trace length {}",
            summary.host_requests,
            trace.len()
        )
    });
    let uncorrectable: u64 = summary
        .lanes
        .iter()
        .map(|lane| lane.uncorrectable_reads)
        .sum();
    out.check(uncorrectable == 0, || {
        format!("{label}: {uncorrectable} uncorrectable reads")
    });
    let metrics: Vec<FtlMetrics> = fleet.lanes().iter().map(|lane| *lane.metrics()).collect();
    let nand: Vec<_> = fleet
        .lanes()
        .iter()
        .map(|lane| *lane.device().stats())
        .collect();
    if cache {
        out.ops += summary.host_requests;
        out.failed += uncorrectable;
        out.fold(&summary);
        out.fold(&nand);
    }
    Some((summary, metrics, nand))
}

fn fleet_pass<P: Probe>(input: &FleetInput, probe: &P) -> PassOutput {
    let mut out = PassOutput::new();
    let conv = fleet_one(
        &mut out,
        probe,
        FtlKind::Conventional,
        conventional,
        input,
        true,
    );
    let ppb_run = fleet_one(&mut out, probe, FtlKind::Ppb, ppb, input, true);
    let (Some((conv, conv_metrics, conv_nand)), Some((ppb_s, ppb_metrics, ppb_nand))) =
        (conv, ppb_run)
    else {
        return out;
    };
    let host_writes: u64 = ppb_metrics.iter().map(|m| m.host_writes).sum();
    let physical: u64 = ppb_metrics
        .iter()
        .map(FtlMetrics::physical_page_writes)
        .sum();
    let read_mean = |s: &FleetSummary| us(s.fanout_read_latency.mean);
    let write_mean = |s: &FleetSummary| us(s.fanout_write_latency.mean);
    out.sim.extend([
        ("sim_read_mean_us", read_mean(&ppb_s)),
        ("sim_read_p999_us", us(ppb_s.fanout_read_latency.p999)),
        ("sim_write_mean_us", write_mean(&ppb_s)),
        ("sim_write_p999_us", us(ppb_s.fanout_write_latency.p999)),
        ("sim_wa", ratio(physical as f64, host_writes as f64)),
        ("sim_iops", ppb_s.request_iops()),
        (
            "ppb_read_speedup",
            ratio(read_mean(&conv), read_mean(&ppb_s)),
        ),
        (
            "ppb_write_speedup",
            ratio(write_mean(&conv), write_mean(&ppb_s)),
        ),
        (
            "ppb_iops_speedup",
            ratio(ppb_s.request_iops(), conv.request_iops()),
        ),
    ]);
    let nand: Vec<_> = conv_nand.iter().chain(&ppb_nand).copied().collect();
    ftl_counts(&mut out, &conv_metrics, &ppb_metrics, &nand);
    let lanes: Vec<&RunSummary> = ppb_s.lanes.iter().collect();
    out.counts
        .push(("nand.busy_frac", busy_frac(&lanes, input.lane.chips())));
    let cache = [conv.cache, ppb_s.cache];
    let writebacks: u64 = cache.iter().map(|c| c.writebacks).sum();
    let flushes: u64 = cache.iter().map(|c| c.flushes).sum();
    let hits: u64 = cache.iter().map(|c| c.read_hits).sum();
    let misses: u64 = cache.iter().map(|c| c.read_misses).sum();
    out.counts.extend([
        (
            "fleet.cache_hit_rate",
            ratio(hits as f64, (hits + misses) as f64),
        ),
        ("fleet.writebacks", writebacks as f64),
        (
            "fleet.writebacks_per_flush",
            ratio(writebacks as f64, flushes as f64),
        ),
        ("fleet.fanout_amp", ppb_s.read_tail_amplification()),
    ]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::{Tracer, Untimed};

    fn smoke(workload: Workload) -> PassOutput {
        pass(&setup(workload, Size::Smoke, 7, &Untimed), &Untimed)
    }

    #[test]
    fn smoke_passes_are_correct_and_repeat_their_digest() {
        for workload in Workload::ALL {
            let first = smoke(workload);
            let second = smoke(workload);
            assert!(
                first.failures.is_empty(),
                "{}: {:?}",
                workload.name(),
                first.failures
            );
            assert_eq!(first.failed, 0, "{}", workload.name());
            assert!(
                first.ops > 0 && first.ops == first.attempted,
                "{}",
                workload.name()
            );
            assert_eq!(
                first.digest,
                second.digest,
                "{}: digest changed between runs",
                workload.name()
            );
            for (name, value) in &first.sim {
                assert!(
                    value.is_finite() && *value > 0.0,
                    "{}: {name} = {value}",
                    workload.name()
                );
            }
        }
    }

    #[test]
    fn traced_digest_equals_untraced_digest() {
        let tracer = Tracer::calibrated();
        for workload in Workload::ALL {
            let untraced = smoke(workload);
            tracer.reset();
            let input = setup(workload, Size::Smoke, 7, &tracer);
            let traced = pass(&input, &tracer);
            assert_eq!(traced.digest, untraced.digest, "{}", workload.name());
            assert!(
                subtraction_pass(&input, &tracer).is_empty(),
                "{}",
                workload.name()
            );
            let submits =
                tracer.totals(Layer::FtlSubmit).calls + tracer.totals(Layer::PpbSubmit).calls;
            assert!(
                submits > 0,
                "{}: no FTL submits were counted",
                workload.name()
            );
            assert!(
                tracer.totals(Layer::TraceGen).calls == 1,
                "{}",
                workload.name()
            );
        }
    }

    #[test]
    fn knee_interpolates_between_the_last_met_and_first_missed_rung() {
        let rung = |offered: u64, p999_ms: u64| RunSummary {
            host_requests: offered,
            host_elapsed: Nanos::from_millis(1000),
            offered_duration: Nanos::from_millis(1000),
            read_latency: vflash_sim::LatencyPercentiles {
                p999: Nanos::from_millis(p999_ms),
                ..Default::default()
            },
            ..RunSummary::from_metrics_delta("f", "t", &FtlMetrics::new(), &FtlMetrics::new())
        };
        let (low, met, missed) = (rung(100, 10), rung(200, 25), rung(300, 100));
        // Headroom 2 at 200/s and 0.5 at 300/s: ln 2 / (ln 2 - ln 0.5) = 1/2.
        let knee = knee_iops(&[&low, &met, &missed]);
        assert!((knee - 250.0).abs() < 1e-9, "{knee}");
        assert_eq!(
            knee_iops(&[&low, &met]),
            200.0,
            "every rung met: the top rung"
        );
        assert_eq!(knee_iops(&[&missed]), 0.0, "the lowest rung missed");
    }

    #[test]
    fn prefill_counts_distinct_pages_of_traces_that_read() {
        let read = vflash_trace::IoRequest::new(0, IoOp::Read, 0, 3 * 4096);
        let write = vflash_trace::IoRequest::new(1, IoOp::Write, 4096, 4096);
        let trace = Trace::new("t", vec![read, write]);
        assert_eq!(prefill_calls(&trace, 64, 4096), 3);
        assert_eq!(
            prefill_calls(&trace, 2, 4096),
            2,
            "pages wrap modulo the logical capacity"
        );
        assert_eq!(prefill_calls(&Trace::new("w", vec![write]), 64, 4096), 0);
    }
}
