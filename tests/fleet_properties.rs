//! Property-based tests of the host tier: the stripe map is a bijection, the
//! writeback cache keeps its residency/dirtiness/coherence invariants under
//! arbitrary op sequences, weighted-share QoS is work-conserving and
//! weight-monotone, and fleet grid runs are bit-identical across
//! `ParallelRunner` worker counts.

use proptest::prelude::*;

use vflash::fleet::{
    run_fleet_grid, CacheConfig, Fleet, FleetConfig, FleetDriver, StripeMap, TenantWeight,
    WritebackCache, dispatch_order,
};
use vflash::ftl::{ConventionalFtl, FtlConfig};
use vflash::nand::{NandConfig, NandDevice};
use vflash::sim::experiments::ExperimentScale;
use vflash::sim::{ExperimentGrid, ParallelRunner, RunOptions};
use vflash::trace::synthetic::{self, SyntheticConfig};

// ---------------------------------------------------------------------------
// Stripe map
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `locate` and `fleet_lpn` are exact inverses over the whole keyspace:
    /// every fleet LPN round-trips, and so does every `(lane, offset)` pair.
    #[test]
    fn stripe_map_round_trips(
        width in 1usize..9,
        lane_pages in 1u64..2_000,
        probe in 0u64..1_000_000,
    ) {
        let map = StripeMap::new(width, lane_pages);
        prop_assert_eq!(map.fleet_pages(), width as u64 * lane_pages);

        let fleet_lpn = probe % map.fleet_pages();
        let (lane, offset) = map.locate(fleet_lpn);
        prop_assert!(lane < width);
        prop_assert!(offset < lane_pages);
        prop_assert_eq!(map.fleet_lpn(lane, offset), fleet_lpn);

        // The inverse direction: an arbitrary in-range pair names exactly one
        // fleet LPN that locates back to it.
        let lane = (probe as usize) % width;
        let offset = (probe / 7) % lane_pages;
        prop_assert_eq!(map.locate(map.fleet_lpn(lane, offset)), (lane, offset));
    }

    /// Consecutive fleet LPNs land on consecutive lanes — the round-robin
    /// interleave the fan-out effect depends on.
    #[test]
    fn stripe_map_interleaves_round_robin(
        width in 1usize..9,
        lane_pages in 1u64..2_000,
        lpn in 0u64..1_000_000,
    ) {
        let map = StripeMap::new(width, lane_pages);
        let lpn = lpn % map.fleet_pages();
        let (lane, _) = map.locate(lpn);
        prop_assert_eq!(lane, (lpn % width as u64) as usize);
    }
}

// ---------------------------------------------------------------------------
// Writeback cache
// ---------------------------------------------------------------------------

/// A compact encoding of one cache operation for proptest generation.
#[derive(Debug, Clone, Copy)]
enum CacheOp {
    Write(u64),
    Read(u64),
    WriteAround(u64),
    Flush,
}

fn arb_cache_ops() -> impl Strategy<Value = Vec<CacheOp>> {
    proptest::collection::vec(
        prop_oneof![
            (0u64..16).prop_map(CacheOp::Write),
            (0u64..16).prop_map(CacheOp::Read),
            (0u64..16).prop_map(CacheOp::WriteAround),
            Just(CacheOp::Flush),
        ],
        1..200,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Under arbitrary op sequences the cache never violates its structural
    /// invariants: dirty ⊆ resident, residency ≤ capacity, flushes drain the
    /// dirty set to at most the threshold, write-arounds drop the stale copy,
    /// and an absorbed write always hits on readback (read-your-writes).
    #[test]
    fn cache_invariants_hold_under_arbitrary_ops(
        capacity in 1usize..8,
        threshold_pct in 25u32..101,
        ops in arb_cache_ops(),
    ) {
        let config = CacheConfig {
            capacity_pages: capacity,
            dirty_flush_threshold: threshold_pct as f64 / 100.0,
            ..CacheConfig::default()
        };
        let mut cache = WritebackCache::new(config);
        let mut write_calls = 0u64;
        for op in &ops {
            match *op {
                CacheOp::Write(lpn) => {
                    let evicted = cache.write(lpn);
                    write_calls += 1;
                    prop_assert!(evicted.len() <= 1, "one insert evicts at most one page");
                    for victim in evicted {
                        prop_assert!(!cache.is_resident(victim), "evicted pages leave");
                    }
                    // Read-your-writes: the page just absorbed must hit.
                    prop_assert!(cache.is_resident(lpn) && cache.is_dirty(lpn));
                    prop_assert!(cache.read(lpn), "absorbed write must hit on readback");
                }
                CacheOp::Read(lpn) => {
                    let resident_before = cache.is_resident(lpn);
                    let len_before = cache.len();
                    prop_assert_eq!(cache.read(lpn), resident_before);
                    // Read misses never allocate.
                    prop_assert_eq!(cache.len(), len_before);
                }
                CacheOp::WriteAround(lpn) => {
                    cache.write_around(lpn);
                    prop_assert!(!cache.is_resident(lpn), "write-around drops the stale copy");
                }
                CacheOp::Flush => {
                    let flushed = cache.flush_to_threshold();
                    prop_assert!(
                        !cache.over_threshold(),
                        "a flush must drain to at most the threshold"
                    );
                    prop_assert!(cache.dirty_len() <= config.dirty_limit());
                    for lpn in flushed {
                        prop_assert!(
                            cache.is_resident(lpn) && !cache.is_dirty(lpn),
                            "flushed pages stay resident, clean"
                        );
                    }
                }
            }
            // Structural invariants after every single operation.
            prop_assert!(cache.dirty_len() <= cache.len(), "dirty ⊆ resident");
            prop_assert!(cache.len() <= capacity, "residency bounded by capacity");
        }
        let stats = cache.stats();
        prop_assert_eq!(stats.writes_absorbed, write_calls);
        prop_assert!(
            stats.writebacks <= stats.writes_absorbed,
            "every writeback stems from an absorbed write"
        );
    }
}

// ---------------------------------------------------------------------------
// Weighted-share QoS
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The dispatcher is work-conserving: every request is dispatched exactly
    /// once (the order is a permutation of `0..total`), for any tenant set.
    #[test]
    fn dispatch_order_is_a_permutation(
        weights in proptest::collection::vec(1u64..8, 1..5),
        total in 0usize..120,
    ) {
        let tenants: Vec<TenantWeight> = weights
            .iter()
            .enumerate()
            .map(|(index, &weight)| TenantWeight::new(format!("t{index}"), weight))
            .collect();
        let order = dispatch_order(&tenants, total);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..total).collect::<Vec<_>>());
    }

    /// Weight monotonicity: raising one tenant's weight (all else equal) never
    /// lowers that tenant's share of any dispatch prefix.
    #[test]
    fn raising_a_weight_never_lowers_any_prefix_share(
        base in 1u64..8,
        other in 1u64..8,
        bump in 1u64..4,
        total in 1usize..100,
    ) {
        let low = dispatch_order(
            &[TenantWeight::new("x", base), TenantWeight::new("y", other)],
            total,
        );
        let high = dispatch_order(
            &[TenantWeight::new("x", base + bump), TenantWeight::new("y", other)],
            total,
        );
        // Tenant x owns the even request indices (round-robin assignment).
        for prefix in 1..=total {
            let share = |order: &[usize]| {
                order[..prefix].iter().filter(|&&request| request % 2 == 0).count()
            };
            prop_assert!(
                share(&high) >= share(&low),
                "prefix {} share dropped when x's weight rose {} -> {}",
                prefix,
                base,
                base + bump
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Fleet determinism
// ---------------------------------------------------------------------------

fn tiny_scale() -> ExperimentScale {
    ExperimentScale {
        requests: 200,
        working_set_bytes: 8 * 1024 * 1024,
        chips: 2,
        ..ExperimentScale::quick()
    }
}

/// Fleet grid runs are a pure function of the grid: every worker count the
/// ISSUE names produces the bit-identical result list, including all latency
/// percentiles and per-lane summaries.
#[test]
fn fleet_grid_is_bit_identical_across_worker_counts() {
    let grid = ExperimentGrid { fleet_sizes: vec![1, 2, 4], ..ExperimentGrid::fleet_sweep(tiny_scale()) };
    let serial = ParallelRunner::run_serial_map(&grid, vflash::fleet::run_fleet_cell).unwrap();
    assert_eq!(serial.len(), 12, "3 widths x 2 workloads x 2 FTLs");
    for workers in [2, 3, 5, 32] {
        let parallel = run_fleet_grid(&ParallelRunner::new(workers), &grid).unwrap();
        assert_eq!(serial, parallel, "{workers} workers diverged from the serial run");
    }
}

/// A cached, multi-tenant fleet is just as deterministic: two identically
/// built fleets replaying the same trace report the bit-identical summary
/// (the cache keeps two linked recency lists, never iterated in hash order).
#[test]
fn cached_multi_tenant_runs_are_bit_reproducible() {
    let lane = || {
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
    };
    let config = FleetConfig {
        cache: Some(CacheConfig {
            capacity_pages: 128,
            dirty_flush_threshold: 0.5,
            ..CacheConfig::default()
        }),
        tenants: vec![TenantWeight::new("gold", 2), TenantWeight::new("bronze", 1)],
    };
    let trace = synthetic::web_sql_server(SyntheticConfig {
        requests: 500,
        working_set_bytes: 2 * 1024 * 1024,
        ..Default::default()
    });
    let driver = FleetDriver::closed_loop(RunOptions::default(), 4);
    let first = driver.run(Fleet::new(vec![lane(), lane()], config.clone()), &trace).unwrap();
    let second = driver.run(Fleet::new(vec![lane(), lane()], config), &trace).unwrap();
    assert_eq!(first, second);
    assert!(first.cache.read_hits + first.cache.writes_absorbed > 0, "the cache saw traffic");
    assert_eq!(first.tenants.len(), 2);
}
