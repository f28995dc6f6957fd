//! Model-based property tests of the KV data path.
//!
//! * The store against a `BTreeMap`: random put/delete/get/scan sequences over
//!   both FTLs, at `io_depth` 1 and 16 and sparse-index strides 1 and 16, with
//!   values up to 6 KiB (so entries and index buckets straddle pages) and
//!   arbitrary — also empty and inverted — scan bounds. Every get and every
//!   scan must equal the model.
//! * [`FlashStore`] against a page model: after random appends, truncations
//!   and deletions, every page ever written must read back as the model says
//!   (the bytes before a partial append kept, the appended bytes, then zeros
//!   to the end of the page; untouched pages unchanged), and every file must
//!   read back as its logical contents.

use std::collections::BTreeMap;

use proptest::prelude::*;
use vflash_ftl::{ConventionalFtl, FlashTranslationLayer, FtlConfig};
use vflash_kv::{FlashStore, KvConfig, KvStore, SegmentFile};
use vflash_nand::{NandConfig, NandDevice};
use vflash_ppb::{PpbConfig, PpbFtl};

fn device() -> NandDevice {
    NandDevice::new(
        NandConfig::builder()
            .chips(4)
            .blocks_per_chip(16)
            .pages_per_block(64)
            .page_size_bytes(4096)
            .build()
            .expect("valid geometry"),
    )
}

#[derive(Debug, Clone)]
enum Op {
    /// Key index, value length, fill byte.
    Put(u8, usize, u8),
    Delete(u8),
    Get(u8),
    /// Two arbitrary bounds, in either order.
    Scan(Vec<u8>, Vec<u8>),
}

/// Variable-length keys over a small alphabet, so bounds fall between,
/// before and after them.
fn key(index: u8) -> Vec<u8> {
    let mut key = vec![b'a' + index % 5];
    key.extend(std::iter::repeat_n(
        b'a' + index / 5 % 5,
        usize::from(index % 3),
    ));
    key.push(index);
    key
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let value_len = prop_oneof![0usize..300, 300usize..6 * 1024];
    let bound = || proptest::collection::vec(b'a'..b'g', 0..4);
    prop_oneof![
        (0u8..40, value_len, any::<u8>()).prop_map(|(k, len, fill)| Op::Put(k, len, fill)),
        (0u8..40).prop_map(Op::Delete),
        (0u8..40).prop_map(Op::Get),
        (bound(), bound()).prop_map(|(lo, hi)| Op::Scan(lo, hi)),
    ]
}

type Model = BTreeMap<Vec<u8>, Vec<u8>>;

fn model_scan(model: &Model, lo: &[u8], hi: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
    if lo >= hi {
        return Vec::new();
    }
    model
        .range::<[u8], _>((std::ops::Bound::Included(lo), std::ops::Bound::Excluded(hi)))
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect()
}

fn check_store<F: FlashTranslationLayer>(
    ftl: F,
    io_depth: usize,
    stride: usize,
    ops: &[Op],
) -> Result<(), TestCaseError> {
    let config = KvConfig {
        memtable_bytes: 4 << 10,
        level_base_bytes: 16 << 10,
        target_table_bytes: 8 << 10,
        io_depth,
        sparse_index_interval: stride,
        ..KvConfig::default()
    };
    let mut kv = KvStore::open(FlashStore::new(ftl), config).expect("format");
    let mut model = Model::new();
    for (step, op) in ops.iter().enumerate() {
        match op {
            Op::Put(k, len, fill) => {
                let value = vec![*fill; *len];
                kv.put(&key(*k), &value).expect("put");
                model.insert(key(*k), value);
            }
            Op::Delete(k) => {
                kv.delete(&key(*k)).expect("delete");
                model.remove(&key(*k));
            }
            Op::Get(k) => {
                let got = kv.get(&key(*k)).expect("get").value;
                prop_assert_eq!(got.as_ref(), model.get(&key(*k)), "get at step {}", step);
            }
            Op::Scan(lo, hi) => {
                let got = kv.scan(lo, hi).expect("scan");
                prop_assert!(
                    got == model_scan(&model, lo, hi),
                    "scan {:?}..{:?} at step {}",
                    lo,
                    hi,
                    step
                );
            }
        }
    }
    kv.flush().expect("flush");
    prop_assert!(kv.scan(b"", b"\xff").expect("full scan") == model_scan(&model, b"", b"\xff"));
    for k in 0u8..40 {
        let got = kv.get(&key(k)).expect("get").value;
        prop_assert_eq!(got.as_ref(), model.get(&key(k)));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn store_matches_a_btreemap_model(
        ops in proptest::collection::vec(op_strategy(), 1..160),
        ppb in any::<bool>(),
        deep in any::<bool>(),
        sparse in any::<bool>(),
    ) {
        let io_depth = if deep { 16 } else { 1 };
        let stride = if sparse { 16 } else { 1 };
        if ppb {
            let ftl = PpbFtl::new(device(), PpbConfig::default()).expect("ppb");
            check_store(ftl, io_depth, stride, &ops)?;
        } else {
            let ftl = ConventionalFtl::new(device(), FtlConfig::default()).expect("conventional");
            check_store(ftl, io_depth, stride, &ops)?;
        }
    }
}

#[derive(Debug, Clone)]
enum FileOp {
    /// File index, length, fill byte.
    Append(usize, usize, u8),
    /// Rewind a file to length zero, keeping its pages (the WAL reset).
    Truncate(usize),
    /// Free a file's pages for reuse by the others.
    Delete(usize),
}

fn file_op_strategy() -> impl Strategy<Value = FileOp> {
    let len = prop_oneof![1usize..64, 64usize..5000, 5000usize..12_000];
    prop_oneof![
        (0usize..3, len, any::<u8>()).prop_map(|(file, len, fill)| FileOp::Append(file, len, fill)),
        (0usize..3).prop_map(FileOp::Truncate),
        (0usize..3).prop_map(FileOp::Delete),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn flash_store_pages_match_a_page_model(
        ops in proptest::collection::vec(file_op_strategy(), 1..60),
        deep in any::<bool>(),
    ) {
        let mut store =
            FlashStore::new(ConventionalFtl::new(device(), FtlConfig::default()).expect("ftl"));
        store.set_io_depth(if deep { 16 } else { 1 });
        let page = store.page_size();
        let mut files: Vec<SegmentFile> = vec![SegmentFile::new(); 3];
        let mut contents: Vec<Vec<u8>> = vec![Vec::new(); 3];
        let mut pages: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        for op in &ops {
            match *op {
                FileOp::Append(f, len, fill) => {
                    let bytes: Vec<u8> = (0..len).map(|i| fill.wrapping_add(i as u8)).collect();
                    let start = contents[f].len();
                    store.append(&mut files[f], &bytes, len as u32).expect("append");
                    contents[f].extend_from_slice(&bytes);
                    let end = contents[f].len();
                    for index in start / page..end.div_ceil(page) {
                        let lpn = files[f].lpn_at(index as u64).expect("allocated");
                        let model = pages.entry(lpn).or_insert_with(|| vec![0; page]);
                        let page_start = index * page;
                        let from = start.max(page_start) - page_start;
                        let to = end.min(page_start + page) - page_start;
                        model[from..to].copy_from_slice(
                            &contents[f][page_start + from..page_start + to],
                        );
                        model[to..].fill(0);
                    }
                }
                FileOp::Truncate(f) => {
                    files[f].truncate();
                    contents[f].clear();
                }
                FileOp::Delete(f) => {
                    store.delete(std::mem::take(&mut files[f]));
                    contents[f].clear();
                }
            }
            for (f, file) in files.iter().enumerate() {
                prop_assert_eq!(file.len(), contents[f].len() as u64);
                if !contents[f].is_empty() {
                    let read = store.read_range(file, 0, contents[f].len()).expect("read");
                    prop_assert!(read == contents[f], "file {} contents differ", f);
                }
            }
        }
        for (&lpn, model) in &pages {
            prop_assert!(
                store.read_pages(&[lpn]).expect("read page") == *model,
                "page of LPN {} differs from the model", lpn
            );
        }
    }
}
