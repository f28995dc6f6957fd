//! Inputs at and past the store's limits get typed errors, never a panic or
//! a corrupted store: keys longer than the formats' two-byte length field,
//! inverted scan bounds, and out-of-range configuration knobs.

use vflash_ftl::{ConventionalFtl, FtlConfig};
use vflash_kv::{FlashStore, KvConfig, KvError, KvStore, MAX_KEY_BYTES};
use vflash_nand::{NandConfig, NandDevice};

fn flash() -> FlashStore<ConventionalFtl> {
    let device = NandDevice::new(
        NandConfig::builder()
            .chips(1)
            .blocks_per_chip(32)
            .pages_per_block(64)
            .page_size_bytes(4096)
            .build()
            .expect("valid geometry"),
    );
    FlashStore::new(ConventionalFtl::new(device, FtlConfig::default()).expect("valid ftl"))
}

/// A memtable larger than the longest key, so a write of one stays in the
/// WAL until an explicit flush.
fn config() -> KvConfig {
    KvConfig {
        memtable_bytes: 256 << 10,
        ..KvConfig::default()
    }
}

/// A 70 000-byte key used to be accepted and stored with its length cut to
/// two bytes, after which the next get failed with "truncated table entry".
/// Now both writes are refused up front, with no device traffic.
#[test]
fn oversized_keys_are_refused_before_any_device_traffic() {
    let mut kv = KvStore::open(flash(), config()).unwrap();
    kv.put(b"neighbour", b"value").unwrap();
    let clock = kv.device_clock();
    let io = kv.flash().io_stats();
    let stats = *kv.stats();
    let long = vec![b'k'; 70_000];
    assert!(matches!(
        kv.put(&long, b"v"),
        Err(KvError::KeyTooLong { len: 70_000 })
    ));
    assert!(matches!(
        kv.delete(&long),
        Err(KvError::KeyTooLong { len: 70_000 })
    ));
    assert_eq!(
        kv.device_clock(),
        clock,
        "a refused write charges no device time"
    );
    assert_eq!(kv.flash().io_stats(), io);
    assert_eq!(*kv.stats(), stats, "a refused write is not counted");
    assert!(KvError::KeyTooLong { len: 70_000 }
        .to_string()
        .contains("70000"));
    // The store is intact, before and after a flush and a recovery.
    assert_eq!(kv.get(&long).unwrap().value, None);
    kv.flush().unwrap();
    assert_eq!(kv.get(b"neighbour").unwrap().value, Some(b"value".to_vec()));
    let mut kv = KvStore::open(kv.crash(), config()).unwrap();
    assert_eq!(kv.get(b"neighbour").unwrap().value, Some(b"value".to_vec()));
}

/// The longest accepted key round-trips through the WAL, a table and the
/// manifest.
#[test]
fn a_key_of_exactly_the_limit_round_trips() {
    let mut kv = KvStore::open(flash(), config()).unwrap();
    let longest = vec![b'x'; MAX_KEY_BYTES];
    kv.put(&longest, b"edge").unwrap();
    assert_eq!(kv.stats().flushes, 0);
    // Recovery from the WAL alone.
    let mut kv = KvStore::open(kv.crash(), config()).unwrap();
    assert_eq!(kv.get(&longest).unwrap().value, Some(b"edge".to_vec()));
    // From a table, whose bounds the manifest stores.
    kv.flush().unwrap();
    assert_eq!(kv.get(&longest).unwrap().value, Some(b"edge".to_vec()));
    let mut kv = KvStore::open(kv.crash(), config()).unwrap();
    assert_eq!(kv.get(&longest).unwrap().value, Some(b"edge".to_vec()));
    assert_eq!(
        kv.scan(b"x", b"y").unwrap(),
        vec![(longest.clone(), b"edge".to_vec())]
    );
    kv.delete(&longest).unwrap();
    assert_eq!(kv.get(&longest).unwrap().value, None);
}

#[test]
fn invalid_configurations_are_typed_errors() {
    let cases = [
        KvConfig {
            memtable_bytes: 0,
            ..KvConfig::default()
        },
        KvConfig {
            l0_compaction_trigger: 1,
            ..KvConfig::default()
        },
        KvConfig {
            level_base_bytes: 0,
            ..KvConfig::default()
        },
        KvConfig {
            level_size_multiplier: 1,
            ..KvConfig::default()
        },
        KvConfig {
            target_table_bytes: 0,
            ..KvConfig::default()
        },
        KvConfig {
            io_depth: 0,
            ..KvConfig::default()
        },
        KvConfig {
            bloom_bits_per_key: 0,
            ..KvConfig::default()
        },
        KvConfig {
            bloom_bits_per_key: KvConfig::MAX_BLOOM_BITS_PER_KEY + 1,
            ..KvConfig::default()
        },
        // Large enough to overflow the bloom filter's hash-count arithmetic.
        KvConfig {
            bloom_bits_per_key: 6_197_645,
            ..KvConfig::default()
        },
        KvConfig {
            sparse_index_interval: 0,
            ..KvConfig::default()
        },
    ];
    for config in cases {
        assert!(
            matches!(config.validate(), Err(KvError::InvalidConfig(_))),
            "{config:?}"
        );
        let flash = flash();
        match KvStore::open(flash, config) {
            Err(KvError::InvalidConfig(reason)) => {
                assert!(!reason.is_empty());
                assert!(KvError::InvalidConfig(reason).to_string().contains(reason));
            }
            other => panic!("{config:?} opened as {other:?}"),
        }
    }
    let widest = KvConfig {
        bloom_bits_per_key: KvConfig::MAX_BLOOM_BITS_PER_KEY,
        ..config()
    };
    assert!(widest.validate().is_ok());
    let mut kv = KvStore::open(flash(), widest).unwrap();
    for i in 0..2_000u32 {
        kv.put(&i.to_be_bytes(), b"bloom").unwrap();
    }
    kv.flush().unwrap();
    assert_eq!(
        kv.get(&7u32.to_be_bytes()).unwrap().value,
        Some(b"bloom".to_vec())
    );
    assert!(KvConfig::default().validate().is_ok());
}

/// A scan whose upper bound sorts before its lower bound used to panic in the
/// memtable's range lookup; it is an empty range like any other.
#[test]
fn inverted_scan_bounds_return_nothing() {
    let mut kv = KvStore::open(flash(), config()).unwrap();
    for key in [b"a", b"m", b"z"] {
        kv.put(key, b"v").unwrap();
    }
    assert!(kv.scan(b"q", b"c").unwrap().is_empty());
    assert!(kv.scan(b"m", b"m").unwrap().is_empty());
    kv.flush().unwrap();
    assert!(kv.scan(b"q", b"c").unwrap().is_empty());
    assert_eq!(
        kv.scan(b"c", b"q").unwrap(),
        vec![(b"m".to_vec(), b"v".to_vec())]
    );
    assert_eq!(kv.stats().scans, 4);
}
