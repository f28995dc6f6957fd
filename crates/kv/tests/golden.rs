//! Golden fingerprints of the KV stack's observable results.
//!
//! Each case drives the store through flushes, multi-level compactions,
//! point gets and sub-range scans on one FTL at one queue depth, with fault
//! injection off or on, and hashes the `Debug` output of everything a run
//! reports: the workload driver's [`KvRunSummary`], every get and scan result,
//! the table layout, [`KvStats`](vflash_kv::KvStats), the FTL metrics and the
//! device clock. A change to the host-side data path that keeps results
//! bit-identical leaves every fingerprint unchanged; a change that moves any
//! reported value, any byte of a scan, or any page of device traffic (the
//! metrics and clock see every request) changes one.

use vflash_ftl::{ConventionalFtl, FlashTranslationLayer, FtlConfig};
use vflash_kv::workload::{run_kv_workload, KvWorkloadConfig};
use vflash_kv::{FlashStore, KvConfig, KvStore};
use vflash_nand::{FaultConfig, NandConfig, NandDevice};
use vflash_ppb::{PpbConfig, PpbFtl};

/// Pinned fingerprints, one per (FTL, io_depth, faults) case.
const GOLDEN: [(&str, u64); 8] = [
    ("conventional depth 1 faults off", 0xc486cc0afd4d4cfe),
    ("conventional depth 1 faults on", 0xcd9cd7ee7411117c),
    ("conventional depth 16 faults off", 0x3034600d05026355),
    ("conventional depth 16 faults on", 0x881c6c5a6de8c134),
    ("ppb depth 1 faults off", 0x23c20e7c2831a3fd),
    ("ppb depth 1 faults on", 0x5f19ec84931f2145),
    ("ppb depth 16 faults off", 0x4268bb6c196c3ee0),
    ("ppb depth 16 faults on", 0xf047dfdeae81d5a1),
];

const FAULT_SEED: u64 = 0x005E_ED0F_FA17;

/// FNV-1a, 64-bit.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// splitmix64: a self-contained deterministic op stream.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

/// Small thresholds so a short session flushes often, compacts into three
/// or more levels, and leaves several tables per level for scans to merge.
fn kv_config(io_depth: usize) -> KvConfig {
    KvConfig {
        memtable_bytes: 3 << 10,
        level_base_bytes: 12 << 10,
        target_table_bytes: 6 << 10,
        io_depth,
        ..KvConfig::default()
    }
}

fn device(faults: bool) -> NandConfig {
    let config = NandConfig::builder()
        .chips(4)
        .blocks_per_chip(16)
        .pages_per_block(64)
        .page_size_bytes(4096)
        .build()
        .expect("valid geometry");
    if faults {
        config
            .with_faults(FaultConfig::enabled(FAULT_SEED))
            .expect("valid faults")
    } else {
        config
    }
}

fn key(rank: u64) -> Vec<u8> {
    // Variable-length keys: "k7", "k42", "k199".
    format!("k{rank}").into_bytes()
}

/// Drives one store directly, appending every result to `log`.
fn session<F: FlashTranslationLayer>(ftl: F, io_depth: usize, log: &mut String) {
    let mut kv = match KvStore::open(FlashStore::new(ftl), kv_config(io_depth)) {
        Ok(kv) => kv,
        Err(error) => {
            log.push_str(&format!("open {error:?}\n"));
            return;
        }
    };
    let mut mix = Mix(0x0060_1DE2);
    for _ in 0..1_500 {
        let rank = mix.below(300);
        match mix.below(100) {
            0..=44 => {
                // Mostly small values; one in ten spans a page boundary or two.
                let len = if mix.below(10) == 0 {
                    3_000 + mix.below(3_000)
                } else {
                    mix.below(400)
                };
                let value = vec![(rank as u8) ^ (len as u8); len as usize];
                log.push_str(&format!("put {:?}\n", kv.put(&key(rank), &value)));
            }
            45..=54 => log.push_str(&format!("delete {:?}\n", kv.delete(&key(rank)))),
            55..=84 => log.push_str(&format!("get {:?}\n", kv.get(&key(rank)))),
            _ => {
                // Sub-range scans: narrow windows, and now and then a wide
                // or empty one between two random keys.
                let other = if mix.below(4) == 0 {
                    mix.below(300)
                } else {
                    rank + 1 + mix.below(40)
                };
                let (a, b) = (key(rank), key(other));
                let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                log.push_str(&format!("scan {:?}\n", kv.scan(&lo, &hi)));
            }
        }
    }
    log.push_str(&format!("flush {:?}\n", kv.flush()));
    log.push_str(&format!("scan all {:?}\n", kv.scan(b"", b"\xff")));
    log.push_str(&format!("levels {}\n", kv.level_count()));
    log.push_str(&format!("layout {:?}\n", kv.layout()));
    log.push_str(&format!("stats {:?}\n", kv.stats()));
    log.push_str(&format!("metrics {:?}\n", kv.flash().ftl().metrics()));
    log.push_str(&format!("io {:?}\n", kv.flash().io_stats()));
    log.push_str(&format!("clock {:?}\n", kv.device_clock()));
}

fn workload() -> KvWorkloadConfig {
    KvWorkloadConfig {
        ops: 1_500,
        key_space: 300,
        device_blocks: 64,
        device_chips: 4,
        seed: 7,
        ..KvWorkloadConfig::default()
    }
}

fn fingerprint(ppb: bool, io_depth: usize, faults: bool) -> u64 {
    let mut log = String::new();
    let nand = device(faults);
    let summary = if ppb {
        let ftl = PpbFtl::new(NandDevice::new(nand.clone()), PpbConfig::default()).expect("ppb");
        session(ftl, io_depth, &mut log);
        let ftl = PpbFtl::new(NandDevice::new(nand), PpbConfig::default()).expect("ppb");
        run_kv_workload(FlashStore::new(ftl), kv_config(io_depth), &workload())
    } else {
        let ftl = ConventionalFtl::new(NandDevice::new(nand.clone()), FtlConfig::default())
            .expect("conventional");
        session(ftl, io_depth, &mut log);
        let ftl = ConventionalFtl::new(NandDevice::new(nand), FtlConfig::default())
            .expect("conventional");
        run_kv_workload(FlashStore::new(ftl), kv_config(io_depth), &workload())
    };
    log.push_str(&format!("summary {summary:?}\n"));
    fnv(log.as_bytes())
}

#[test]
fn kv_results_match_their_golden_fingerprints() {
    let mut actual = Vec::new();
    for ppb in [false, true] {
        for io_depth in [1usize, 16] {
            for faults in [false, true] {
                let name = format!(
                    "{} depth {io_depth} faults {}",
                    if ppb { "ppb" } else { "conventional" },
                    if faults { "on" } else { "off" }
                );
                actual.push((name, fingerprint(ppb, io_depth, faults)));
            }
        }
    }
    let report: String = actual
        .iter()
        .map(|(name, value)| format!("    (\"{name}\", {value:#018x}),\n"))
        .collect();
    for ((name, value), (golden_name, golden)) in actual.iter().zip(GOLDEN) {
        assert_eq!(name, golden_name);
        assert_eq!(
            *value, golden,
            "{name} moved; current fingerprints:\n{report}"
        );
    }
}
