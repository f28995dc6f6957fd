//! The fleet and its driver: N devices replayed on the engine's drive loop
//! against a shared virtual clock.
//!
//! # One loop
//!
//! The fleet has no drive loop of its own. [`FleetDriver`] hands its lanes and
//! its [`StripeMap`] to [`WorkloadDriver::run_lanes`] — the loop every
//! single-device replay runs — together with a [`HostTier`] hook holding the
//! writeback cache, the tenant dispatch order and the fan-out, stripe and
//! tenant histograms. The engine owns the completion calendar that carries
//! the arrival discipline, each lane's per-chip ready clocks
//! ([`ChipClocks`](vflash_nand::ChipClocks)) and the per-lane stripe chains:
//! pages on the same lane serialise (a dependent chain against that lane's
//! chips), stripes on different lanes run in parallel, and the request
//! completes at the **max over its stripes** — which is where fan-out tail
//! amplification comes from.
//!
//! # The fleet-of-1 guarantee
//!
//! A 1-wide fleet with the cache disabled and a single tenant reproduces the
//! single-device [`WorkloadDriver`] **bit-for-bit** — same per-lane
//! [`RunSummary`], same device state — on both FTLs and every discipline, by
//! construction: the stripe map at width 1 is the identity and both drivers
//! run the same loop. `tests/fleet_equivalence.rs` pins this down, and also
//! pins the fleet against a verbatim copy of the loop the fleet kept before.
//!
//! # Cache and writebacks
//!
//! With a [`CacheConfig`], page reads and small page writes consult the host
//! DRAM cache first: hits cost [`CacheConfig::hit_latency`] and never touch a
//! device; absorbed writes defer the flash program until eviction or a
//! dirty-ratio flush. Writeback traffic is **background**: it does not extend
//! the completing request's latency, but it does occupy the owning lane's
//! chips (or, at closed-loop depth 1 where op tracing is off, a lane-level
//! ready clock), so heavy writeback backlogs surface as queueing delay on
//! later requests — the classic destaging effect.

use std::fmt;

use vflash_ftl::{FlashTranslationLayer, FtlError};
use vflash_nand::Nanos;
use vflash_sim::{ArrivalDiscipline, HostTier, Lanes, LatencyHistogram, RunOptions, WorkloadDriver};
use vflash_trace::{IoOp, Trace};

use crate::cache::{CacheConfig, WritebackCache};
use crate::qos::{dispatch_order, TenantWeight};
use crate::stripe::StripeMap;
use crate::summary::{FleetSummary, TenantSummary};

/// Host-tier configuration: the writeback cache (if any) and the tenant set.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Writeback-cache configuration; `None` disables the cache entirely (every
    /// page goes straight to its lane, required for the fleet-of-1 bit-identity
    /// guarantee).
    pub cache: Option<CacheConfig>,
    /// The tenant set. Request `i` of the trace belongs to tenant
    /// `i % tenants.len()`; under closed loop the per-tenant FIFO queues are
    /// served by weighted-share QoS, under open loop requests issue at their
    /// arrival times and the weights only label the accounting.
    pub tenants: Vec<TenantWeight>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig { cache: None, tenants: vec![TenantWeight::default()] }
    }
}

/// N homogeneous simulated devices behind one striped keyspace.
///
/// # Example
///
/// ```
/// use vflash_ftl::{ConventionalFtl, FtlConfig};
/// use vflash_nand::{NandConfig, NandDevice};
/// use vflash_fleet::{Fleet, FleetConfig, FleetDriver};
/// use vflash_sim::RunOptions;
/// use vflash_trace::synthetic::{self, SyntheticConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let lanes: Vec<ConventionalFtl> = (0..2)
///     .map(|_| {
///         let device = NandDevice::new(
///             NandConfig::builder()
///                 .chips(2)
///                 .blocks_per_chip(32)
///                 .pages_per_block(16)
///                 .page_size_bytes(8192)
///                 .build()
///                 .unwrap(),
///         );
///         ConventionalFtl::new(device, FtlConfig::default()).unwrap()
///     })
///     .collect();
/// let mut fleet = Fleet::new(lanes, FleetConfig::default());
/// let trace = synthetic::web_sql_server(SyntheticConfig {
///     requests: 300,
///     working_set_bytes: 2 * 1024 * 1024,
///     ..Default::default()
/// });
/// let summary = FleetDriver::closed_loop(RunOptions::default(), 4)
///     .run_mut(&mut fleet, &trace)?;
/// assert_eq!(summary.width, 2);
/// assert_eq!(summary.host_requests, 300);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Fleet<F: FlashTranslationLayer> {
    lanes: Vec<F>,
    config: FleetConfig,
    stripe: StripeMap,
}

impl<F: FlashTranslationLayer> Fleet<F> {
    /// Assembles a fleet from homogeneous lanes.
    ///
    /// # Panics
    ///
    /// Panics on an empty lane set, heterogeneous page sizes or logical
    /// capacities (the stripe map needs identical lanes), an empty tenant set,
    /// or an invalid cache configuration.
    pub fn new(lanes: Vec<F>, config: FleetConfig) -> Self {
        assert!(!lanes.is_empty(), "a fleet needs at least one device");
        assert!(!config.tenants.is_empty(), "a fleet needs at least one tenant");
        let page_size = lanes[0].device().config().page_size_bytes();
        let lane_pages = lanes[0].logical_pages();
        for lane in &lanes[1..] {
            assert_eq!(
                lane.device().config().page_size_bytes(),
                page_size,
                "fleet lanes must share one page size"
            );
            assert_eq!(
                lane.logical_pages(),
                lane_pages,
                "fleet lanes must share one logical capacity"
            );
        }
        if let Some(cache) = &config.cache {
            // Validate eagerly so a bad config fails at assembly, not mid-run.
            cache.validate();
        }
        let stripe = StripeMap::new(lanes.len(), lane_pages);
        Fleet { lanes, config, stripe }
    }

    /// Number of lanes.
    pub fn width(&self) -> usize {
        self.lanes.len()
    }

    /// The stripe map over the fleet keyspace.
    pub fn stripe(&self) -> StripeMap {
        self.stripe
    }

    /// The host-tier configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// The lanes, in stripe order.
    pub fn lanes(&self) -> &[F] {
        &self.lanes
    }

    /// Consumes the fleet, returning the lanes (e.g. to inspect device state
    /// after a run).
    pub fn into_lanes(self) -> Vec<F> {
        self.lanes
    }
}

/// The fleet's lanes as the engine sees them: striped round-robin.
struct Striped<'a, F> {
    lanes: &'a mut [F],
    stripe: StripeMap,
}

impl<F: FlashTranslationLayer> Lanes for Striped<'_, F> {
    type Ftl = F;

    fn width(&self) -> usize {
        self.lanes.len()
    }

    fn lane(&self, index: usize) -> &F {
        &self.lanes[index]
    }

    fn lane_mut(&mut self, index: usize) -> &mut F {
        &mut self.lanes[index]
    }

    fn locate(&self, page: u64) -> (usize, u64) {
        self.stripe.locate(page)
    }
}

/// The fleet's host tier on the engine's loop: the writeback cache, the
/// tenants' weighted-share dispatch, and the histograms only the host sees.
struct FleetHost {
    cache: Option<WritebackCache>,
    tenants: Vec<TenantWeight>,
    fanout_read: LatencyHistogram,
    fanout_write: LatencyHistogram,
    stripe_read: LatencyHistogram,
    stripe_write: LatencyHistogram,
    tenant_latencies: Vec<LatencyHistogram>,
    tenant_requests: Vec<u64>,
    tenant_last: Vec<Nanos>,
}

impl FleetHost {
    fn new(config: &FleetConfig) -> Self {
        let tenants = config.tenants.len();
        FleetHost {
            cache: config.cache.map(WritebackCache::new),
            tenants: config.tenants.clone(),
            fanout_read: LatencyHistogram::new(),
            fanout_write: LatencyHistogram::new(),
            stripe_read: LatencyHistogram::new(),
            stripe_write: LatencyHistogram::new(),
            tenant_latencies: (0..tenants).map(|_| LatencyHistogram::new()).collect(),
            tenant_requests: vec![0; tenants],
            tenant_last: vec![Nanos::ZERO; tenants],
        }
    }
}

impl HostTier for FleetHost {
    /// Closed loop with several tenants dispatches via weighted-share QoS over
    /// per-tenant FIFOs (one tenant replays the trace in order).
    fn dispatch_order(&self, requests: usize) -> Option<Vec<usize>> {
        Some(dispatch_order(&self.tenants, requests))
    }

    /// Read hits and absorbed writes never reach a device; write-arounds
    /// invalidate the cached copy and fall through.
    fn serve_page(
        &mut self,
        op: IoOp,
        request_bytes: u32,
        page: u64,
        writebacks: &mut Vec<u64>,
    ) -> Option<Nanos> {
        let cache = self.cache.as_mut()?;
        let config = *cache.config();
        match op {
            IoOp::Read => cache.read(page).then_some(config.hit_latency),
            IoOp::Write if request_bytes < config.write_around_bytes => {
                writebacks.extend(cache.write(page));
                writebacks.extend(cache.flush_to_threshold());
                Some(config.hit_latency)
            }
            IoOp::Write => {
                cache.write_around(page);
                None
            }
        }
    }

    fn stripe_done(&mut self, op: IoOp, latency: Nanos) {
        match op {
            IoOp::Read => self.stripe_read.record(latency),
            IoOp::Write => self.stripe_write.record(latency),
        }
    }

    /// Request `i` of the trace belongs to tenant `i % tenants`.
    fn request_done(&mut self, index: usize, op: IoOp, latency: Nanos, completion: Nanos) {
        match op {
            IoOp::Read => self.fanout_read.record(latency),
            IoOp::Write => self.fanout_write.record(latency),
        }
        let tenant = index % self.tenants.len();
        self.tenant_latencies[tenant].record(latency);
        self.tenant_requests[tenant] += 1;
        if completion > self.tenant_last[tenant] {
            self.tenant_last[tenant] = completion;
        }
    }
}

/// The fleet workload driver: replays a [`Trace`] against a [`Fleet`] under
/// the engine's [`ArrivalDiscipline`]s and reports a [`FleetSummary`].
///
/// Construction mirrors [`WorkloadDriver`] exactly.
#[derive(Clone, Copy, PartialEq)]
pub struct FleetDriver {
    driver: WorkloadDriver,
}

impl fmt::Debug for FleetDriver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FleetDriver")
            .field("options", self.driver.options())
            .field("discipline", &self.driver.discipline())
            .finish()
    }
}

impl FleetDriver {
    /// A driver with explicit options and discipline.
    ///
    /// # Panics
    ///
    /// Panics on a zero queue depth or a non-positive/non-finite rate scale
    /// (the validation of [`WorkloadDriver::new`], which builds the driver this
    /// one runs on).
    pub fn new(options: RunOptions, discipline: ArrivalDiscipline) -> Self {
        FleetDriver { driver: WorkloadDriver::new(options, discipline) }
    }

    /// A closed-loop (saturation) driver at the given queue depth.
    pub fn closed_loop(options: RunOptions, queue_depth: usize) -> Self {
        FleetDriver::new(options, ArrivalDiscipline::ClosedLoop { queue_depth })
    }

    /// An open-loop (arrival-time) driver at the given rate scale.
    pub fn open_loop(options: RunOptions, rate_scale: f64) -> Self {
        FleetDriver::new(options, ArrivalDiscipline::OpenLoop { rate_scale })
    }

    /// The replay options.
    pub fn options(&self) -> &RunOptions {
        self.driver.options()
    }

    /// The arrival discipline.
    pub fn discipline(&self) -> ArrivalDiscipline {
        self.driver.discipline()
    }

    /// Replays `trace` against `fleet`, consuming it.
    ///
    /// # Errors
    ///
    /// Propagates FTL errors from any lane; see [`WorkloadDriver::run`].
    pub fn run<F: FlashTranslationLayer>(
        &self,
        mut fleet: Fleet<F>,
        trace: &Trace,
    ) -> Result<FleetSummary, FtlError> {
        self.run_mut(&mut fleet, trace)
    }

    /// Like [`FleetDriver::run`] but borrows the fleet, so callers can inspect
    /// or reuse the lanes afterwards.
    ///
    /// # Errors
    ///
    /// Propagates FTL errors from any lane.
    pub fn run_mut<F: FlashTranslationLayer>(
        &self,
        fleet: &mut Fleet<F>,
        trace: &Trace,
    ) -> Result<FleetSummary, FtlError> {
        let mut host = FleetHost::new(&fleet.config);
        let mut lanes = Striped { lanes: &mut fleet.lanes, stripe: fleet.stripe };
        let run = self.driver.run_lanes(&mut lanes, &mut host, trace)?;
        let tenants = host
            .tenants
            .iter()
            .enumerate()
            .map(|(index, tenant)| TenantSummary {
                name: tenant.name.clone(),
                weight: tenant.weight,
                requests: host.tenant_requests[index],
                latency: host.tenant_latencies[index].percentiles(),
                last_completion: host.tenant_last[index],
            })
            .collect();
        Ok(FleetSummary {
            ftl: fleet.lanes[0].name().to_string(),
            trace: trace.name().to_string(),
            width: fleet.width(),
            lanes: run.lanes,
            mode: run.mode,
            queue_depth: run.queue_depth,
            host_requests: run.host_requests,
            host_elapsed: run.host_elapsed,
            offered_duration: run.offered_duration,
            peak_queue_depth: run.peak_queue_depth,
            busy_arrivals: run.busy_arrivals,
            fanout_read_latency: host.fanout_read.percentiles(),
            fanout_write_latency: host.fanout_write.percentiles(),
            stripe_read_latency: host.stripe_read.percentiles(),
            stripe_write_latency: host.stripe_write.percentiles(),
            cache: host.cache.map(|cache| cache.stats()).unwrap_or_default(),
            tenants,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vflash_ftl::{ConventionalFtl, FtlConfig};
    use vflash_nand::{NandConfig, NandDevice};
    use vflash_sim::WorkloadDriver;
    use vflash_trace::synthetic::{self, SyntheticConfig};
    use vflash_trace::IoRequest;

    fn lane() -> ConventionalFtl {
        let device = NandDevice::new(
            NandConfig::builder()
                .chips(2)
                .blocks_per_chip(32)
                .pages_per_block(16)
                .page_size_bytes(8192)
                .build()
                .unwrap(),
        );
        ConventionalFtl::new(device, FtlConfig::default()).unwrap()
    }

    fn web_trace(requests: usize) -> Trace {
        synthetic::web_sql_server(SyntheticConfig {
            requests,
            working_set_bytes: 2 * 1024 * 1024,
            ..Default::default()
        })
    }

    #[test]
    fn fleet_of_one_matches_the_engine_bit_for_bit() {
        let trace = web_trace(400);
        let single = WorkloadDriver::closed_loop(RunOptions::default(), 1)
            .run(lane(), &trace)
            .unwrap();
        let mut fleet = Fleet::new(vec![lane()], FleetConfig::default());
        let summary = FleetDriver::closed_loop(RunOptions::default(), 1)
            .run_mut(&mut fleet, &trace)
            .unwrap();
        assert_eq!(summary.lanes[0], single);
        assert_eq!(summary.host_requests, single.host_requests);
        assert_eq!(summary.host_elapsed, single.host_elapsed);
        // At width 1 the fan-out and stripe distributions are the same thing.
        assert_eq!(summary.fanout_read_latency, summary.stripe_read_latency);
    }

    #[test]
    fn wider_fleets_serve_every_request_and_fan_out() {
        let trace = web_trace(400);
        let mut fleet = Fleet::new(vec![lane(), lane(), lane()], FleetConfig::default());
        let summary =
            FleetDriver::open_loop(RunOptions::default(), 1.0).run_mut(&mut fleet, &trace).unwrap();
        assert_eq!(summary.width, 3);
        assert_eq!(summary.host_requests, 400);
        let lane_requests: u64 = summary.lanes.iter().map(|lane| lane.host_requests).sum();
        assert!(lane_requests >= 400, "multi-page requests touch several lanes");
        // Fan-out latency dominates any single stripe.
        assert!(summary.fanout_read_latency.p999 >= summary.stripe_read_latency.p999);
        assert!(summary.read_tail_amplification() >= 1.0);
    }

    #[test]
    fn the_cache_absorbs_hot_rewrites() {
        // A write-only hammer on few pages: with a cache most programs are
        // absorbed in DRAM and the devices see far fewer writes.
        let requests: Vec<IoRequest> = (0..300)
            .map(|i| IoRequest::new(i * 1_000, IoOp::Write, (i % 4) * 8192, 8192))
            .collect();
        let trace = Trace::new("hammer", requests);
        let driver = FleetDriver::closed_loop(RunOptions::default(), 1);

        let mut plain = Fleet::new(vec![lane(), lane()], FleetConfig::default());
        let without = driver.run_mut(&mut plain, &trace).unwrap();
        let mut cached = Fleet::new(
            vec![lane(), lane()],
            FleetConfig {
                cache: Some(CacheConfig { capacity_pages: 64, ..CacheConfig::default() }),
                ..FleetConfig::default()
            },
        );
        let with = driver.run_mut(&mut cached, &trace).unwrap();

        let device_writes = |summary: &FleetSummary| {
            summary.lanes.iter().map(|lane| lane.host_writes).sum::<u64>()
        };
        assert_eq!(with.cache.writes_absorbed, 300);
        assert_eq!(device_writes(&with), 0, "everything fits in 64 cache pages");
        assert_eq!(device_writes(&without), 300);
        assert!(with.host_elapsed < without.host_elapsed, "DRAM hits are cheap");
    }

    #[test]
    fn write_around_bypasses_the_cache() {
        let requests: Vec<IoRequest> =
            (0..50).map(|i| IoRequest::new(i * 1_000, IoOp::Write, i * 8192, 8192)).collect();
        let trace = Trace::new("cold", requests);
        let mut fleet = Fleet::new(
            vec![lane(), lane()],
            FleetConfig {
                cache: Some(CacheConfig {
                    capacity_pages: 64,
                    write_around_bytes: 4096, // every 8 KiB request is "cold"
                    ..CacheConfig::default()
                }),
                ..FleetConfig::default()
            },
        );
        let summary = FleetDriver::closed_loop(RunOptions::default(), 1)
            .run_mut(&mut fleet, &trace)
            .unwrap();
        assert_eq!(summary.cache.write_arounds, 50);
        assert_eq!(summary.cache.writes_absorbed, 0);
        assert_eq!(summary.lanes.iter().map(|lane| lane.host_writes).sum::<u64>(), 50);
    }

    #[test]
    fn tenants_split_the_request_stream() {
        let trace = web_trace(90);
        let mut fleet = Fleet::new(
            vec![lane()],
            FleetConfig {
                tenants: vec![
                    TenantWeight::new("gold", 2),
                    TenantWeight::new("bronze", 1),
                    TenantWeight::new("iron", 1),
                ],
                ..FleetConfig::default()
            },
        );
        let summary = FleetDriver::closed_loop(RunOptions::default(), 4)
            .run_mut(&mut fleet, &trace)
            .unwrap();
        assert_eq!(summary.tenants.len(), 3);
        assert_eq!(summary.tenants.iter().map(|tenant| tenant.requests).sum::<u64>(), 90);
        assert_eq!(summary.tenants[0].requests, 30, "round-robin tenant assignment");
        assert!(summary.tenants[0].achieved_iops() > 0.0);
    }

    #[test]
    fn heterogeneous_lanes_are_rejected() {
        let small = lane();
        let big = {
            let device = NandDevice::new(
                NandConfig::builder()
                    .chips(2)
                    .blocks_per_chip(64)
                    .pages_per_block(16)
                    .page_size_bytes(8192)
                    .build()
                    .unwrap(),
            );
            ConventionalFtl::new(device, FtlConfig::default()).unwrap()
        };
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Fleet::new(vec![small, big], FleetConfig::default())
        }))
        .is_err());
    }
}
