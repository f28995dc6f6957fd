//! Sorted string tables: immutable sorted runs with a per-table bloom filter
//! and a sparse index.
//!
//! On-flash layout of one table file (all little-endian):
//!
//! ```text
//! [ data section    ]  entries back to back: klen u16 | flag u8 | vlen u32 | key | value
//! [ index section   ]  count u32, then per sparse entry: klen u16 | data offset u64 | key
//! [ bloom section   ]  word count u32 | hash count u32 | u64 words
//! ```
//!
//! The section offsets, entry count and key bounds live in the manifest, so a
//! recovering store can rebuild a [`TableHandle`] by reading just the index and
//! bloom sections (charged as device reads). Point lookups consult the bounds,
//! then the bloom filter, then binary-search the sparse index and read a single
//! index bucket — at the default interval that is one small `read_range` per
//! probed table.

use std::ops::Range;

use crate::error::KvError;
use crate::flash_file::{FlashStore, SegmentFile};
use crate::hash::fnv1a;
use crate::merge::Runs;
use vflash_ftl::FlashTranslationLayer;

/// Default sparse-index stride: every 16th entry lands in the sparse index
/// (the first always does).
const DEFAULT_SPARSE_INDEX_INTERVAL: usize = 16;
/// Default bloom filter budget: bits per key.
const DEFAULT_BLOOM_BITS_PER_KEY: usize = 10;

/// Construction-time tuning knobs for a table, derived from
/// [`KvConfig`](crate::KvConfig). Both are build-time only: the on-flash
/// encoding is self-describing (the bloom section stores its word and hash
/// counts; the index section stores its entry count), so tables built with any
/// options recover with no options at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableOptions {
    /// Bloom filter budget in bits per key (hash count is derived as
    /// `bits * ln 2`, floored to at least one probe). More bits, fewer false
    /// positives, bigger bloom section.
    pub bloom_bits_per_key: usize,
    /// Sparse-index stride: every `sparse_index_interval`-th entry is indexed
    /// (the first always is). Stride 1 indexes every entry — single-entry
    /// buckets, largest index; larger strides trade bucket-read bytes for
    /// index size.
    pub sparse_index_interval: usize,
}

impl Default for TableOptions {
    fn default() -> Self {
        TableOptions {
            bloom_bits_per_key: DEFAULT_BLOOM_BITS_PER_KEY,
            sparse_index_interval: DEFAULT_SPARSE_INDEX_INTERVAL,
        }
    }
}

/// Entry flags in the data section.
const FLAG_VALUE: u8 = 0;
const FLAG_TOMBSTONE: u8 = 1;

/// A table entry: a value or a tombstone.
pub type Entry = (Vec<u8>, Option<Vec<u8>>);

/// A borrowed [`Entry`].
pub(crate) type EntryRef<'a> = (&'a [u8], Option<&'a [u8]>);

/// Encoded data-section size of one entry: the 7-byte header, key and value.
pub(crate) fn encoded_len(key: &[u8], value: Option<&[u8]>) -> usize {
    7 + key.len() + value.map_or(0, <[u8]>::len)
}

/// A table's answer for one key: `Some(Some(value))` for a put, `Some(None)`
/// for a tombstone, `None` when the table does not hold the key.
pub type TableValue = Option<Option<Vec<u8>>>;

/// A split-block bloom filter over the table's keys (double hashing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomFilter {
    words: Vec<u64>,
    hashes: u32,
}

impl BloomFilter {
    /// A filter sized for `keys` keys at the default 10 bits each.
    pub fn with_capacity(keys: usize) -> Self {
        BloomFilter::with_bits_per_key(keys, DEFAULT_BLOOM_BITS_PER_KEY)
    }

    /// A filter sized for `keys` keys at `bits_per_key` bits each (floored at
    /// 64 bits total), probing with the near-optimal `bits_per_key * ln 2`
    /// hashes — at least one.
    pub fn with_bits_per_key(keys: usize, bits_per_key: usize) -> Self {
        let bits = (keys * bits_per_key).max(64);
        let hashes = u32::try_from(bits_per_key.saturating_mul(693) / 1000).unwrap_or(u32::MAX);
        BloomFilter { words: vec![0; bits.div_ceil(64)], hashes: hashes.max(1) }
    }

    /// The `(word, mask)` of every probe for `key`: double hashing over the
    /// key's two FNV hashes, each computed once.
    fn probes(&self, key: &[u8]) -> impl Iterator<Item = (usize, u64)> {
        let h1 = fnv1a(key, 0x51_73);
        let h2 = fnv1a(key, 0xB1_00) | 1;
        let bits = self.words.len() as u64 * 64;
        (0..self.hashes).map(move |i| {
            let bit = h1.wrapping_add(u64::from(i).wrapping_mul(h2)) % bits;
            ((bit / 64) as usize, 1u64 << (bit % 64))
        })
    }

    /// Inserts a key.
    pub fn insert(&mut self, key: &[u8]) {
        for (word, mask) in self.probes(key) {
            self.words[word] |= mask;
        }
    }

    /// True when the key *may* be present; false means definitely absent.
    pub fn contains(&self, key: &[u8]) -> bool {
        self.probes(key).all(|(word, mask)| self.words[word] & mask != 0)
    }

    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.words.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.hashes.to_le_bytes());
        for word in &self.words {
            out.extend_from_slice(&word.to_le_bytes());
        }
    }

    fn decode(bytes: &[u8]) -> Result<Self, KvError> {
        let corrupt = || KvError::Corruption("truncated bloom section".to_string());
        if bytes.len() < 8 {
            return Err(corrupt());
        }
        let words = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
        let hashes = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        if bytes.len() < 8 + words * 8 || hashes == 0 || words == 0 {
            return Err(corrupt());
        }
        let words = (0..words)
            .map(|i| u64::from_le_bytes(bytes[8 + i * 8..16 + i * 8].try_into().unwrap()))
            .collect();
        Ok(BloomFilter { words, hashes })
    }
}

/// The persisted description of one table — everything the manifest stores.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableMeta {
    /// Creation sequence number (unique per store, newer is larger).
    pub id: u64,
    /// The backing file (extents + length).
    pub file: SegmentFile,
    /// Number of entries (tombstones included).
    pub entries: u64,
    /// Byte length of the data section.
    pub data_len: u64,
    /// File offset of the index section.
    pub index_off: u64,
    /// File offset of the bloom section.
    pub bloom_off: u64,
    /// Smallest key in the table.
    pub min_key: Vec<u8>,
    /// Largest key in the table.
    pub max_key: Vec<u8>,
}

/// How a point lookup probed a table (bloom-filter accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableProbe {
    /// The key was outside the table's key bounds — no filter consulted, no
    /// device traffic.
    RangeSkip,
    /// The bloom filter proved the key absent — no device traffic.
    BloomSkip,
    /// An index bucket was read from the device.
    Read,
}

/// An open table: persisted metadata plus the in-memory sparse index and bloom
/// filter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableHandle {
    /// The persisted metadata.
    pub meta: TableMeta,
    index: Vec<(Vec<u8>, u64)>,
    bloom: BloomFilter,
}

impl TableHandle {
    /// Builds a table from sorted, deduplicated entries, writing data + index +
    /// bloom through `store` as one bulk append (PPB's classifier sees a large
    /// sequential write; at `io_depth > 1` the pages go out batched).
    ///
    /// # Errors
    ///
    /// Allocation and write errors pass through. `entries` must be non-empty
    /// and strictly sorted by key (a flush or merge output always is;
    /// violations are a logic error and panic via `debug_assert`).
    /// `options.sparse_index_interval` must be at least 1.
    pub fn build<F: FlashTranslationLayer>(
        store: &mut FlashStore<F>,
        id: u64,
        entries: &[Entry],
        options: TableOptions,
    ) -> Result<TableHandle, KvError> {
        let entries: Vec<EntryRef<'_>> =
            entries.iter().map(|(key, value)| (key.as_slice(), value.as_deref())).collect();
        TableHandle::build_from(store, id, &entries, options)
    }

    /// [`TableHandle::build`] from borrowed entries (a compaction's merge
    /// output points into its input buffer).
    pub(crate) fn build_from<F: FlashTranslationLayer>(
        store: &mut FlashStore<F>,
        id: u64,
        entries: &[EntryRef<'_>],
        options: TableOptions,
    ) -> Result<TableHandle, KvError> {
        assert!(!entries.is_empty(), "tables are never built empty");
        let stride = options.sparse_index_interval;
        assert!(stride >= 1, "the sparse-index stride is at least 1");
        debug_assert!(entries.windows(2).all(|pair| pair[0].0 < pair[1].0));
        let data_len: usize = entries.iter().map(|&(key, value)| encoded_len(key, value)).sum();
        let index_len: usize =
            4 + entries.iter().step_by(stride).map(|(key, _)| 10 + key.len()).sum::<usize>();
        let mut bloom = BloomFilter::with_bits_per_key(entries.len(), options.bloom_bits_per_key);
        let mut bytes = Vec::with_capacity(data_len + index_len + 8 + 8 * bloom.words.len());
        let mut index = Vec::with_capacity(entries.len().div_ceil(stride));
        for (position, &(key, value)) in entries.iter().enumerate() {
            if position % stride == 0 {
                index.push((key.to_vec(), bytes.len() as u64));
            }
            bloom.insert(key);
            bytes.extend_from_slice(&(key.len() as u16).to_le_bytes());
            bytes.push(if value.is_some() { FLAG_VALUE } else { FLAG_TOMBSTONE });
            bytes.extend_from_slice(&(value.map_or(0, <[u8]>::len) as u32).to_le_bytes());
            bytes.extend_from_slice(key);
            bytes.extend_from_slice(value.unwrap_or_default());
        }
        let data_len = bytes.len() as u64;
        let index_off = data_len;
        bytes.extend_from_slice(&(index.len() as u32).to_le_bytes());
        for (key, offset) in &index {
            bytes.extend_from_slice(&(key.len() as u16).to_le_bytes());
            bytes.extend_from_slice(&offset.to_le_bytes());
            bytes.extend_from_slice(key);
        }
        let bloom_off = bytes.len() as u64;
        bloom.encode(&mut bytes);
        let mut file = SegmentFile::new();
        let request_bytes = u32::try_from(bytes.len()).unwrap_or(u32::MAX);
        store.append(&mut file, &bytes, request_bytes)?;
        let meta = TableMeta {
            id,
            file,
            entries: entries.len() as u64,
            data_len,
            index_off,
            bloom_off,
            min_key: entries[0].0.to_vec(),
            max_key: entries[entries.len() - 1].0.to_vec(),
        };
        Ok(TableHandle { meta, index, bloom })
    }

    /// Reopens a table from its persisted metadata, reading the index and bloom
    /// sections back from the device (the crash-recovery path).
    ///
    /// # Errors
    ///
    /// [`KvError::Corruption`] when a section fails to decode; read errors pass
    /// through.
    pub fn recover<F: FlashTranslationLayer>(
        store: &mut FlashStore<F>,
        meta: TableMeta,
    ) -> Result<TableHandle, KvError> {
        let corrupt = || KvError::Corruption("truncated index section".to_string());
        let index_bytes = store.read_range(
            &meta.file,
            meta.index_off,
            (meta.bloom_off - meta.index_off) as usize,
        )?;
        if index_bytes.len() < 4 {
            return Err(corrupt());
        }
        let count = u32::from_le_bytes(index_bytes[0..4].try_into().unwrap()) as usize;
        let mut index = Vec::with_capacity(count);
        let mut at = 4usize;
        for _ in 0..count {
            if index_bytes.len() < at + 10 {
                return Err(corrupt());
            }
            let klen = u16::from_le_bytes(index_bytes[at..at + 2].try_into().unwrap()) as usize;
            let offset = u64::from_le_bytes(index_bytes[at + 2..at + 10].try_into().unwrap());
            at += 10;
            if index_bytes.len() < at + klen {
                return Err(corrupt());
            }
            index.push((index_bytes[at..at + klen].to_vec(), offset));
            at += klen;
        }
        let bloom_bytes = store.read_range(
            &meta.file,
            meta.bloom_off,
            (meta.file.len() - meta.bloom_off) as usize,
        )?;
        let bloom = BloomFilter::decode(&bloom_bytes)?;
        Ok(TableHandle { meta, index, bloom })
    }

    /// The index bucket `[start, end)` of data offsets that can contain `key`,
    /// or `None` when `key` sorts before the first entry.
    fn bucket_for(&self, key: &[u8]) -> Option<(u64, u64)> {
        let at = self.index.partition_point(|(index_key, _)| index_key.as_slice() <= key);
        if at == 0 {
            return None;
        }
        let start = self.index[at - 1].1;
        let end = self.index.get(at).map_or(self.meta.data_len, |(_, offset)| *offset);
        Some((start, end))
    }

    /// Point lookup. Returns the entry (`Some(None)` is a tombstone) and how
    /// the table was probed.
    ///
    /// # Errors
    ///
    /// Read and decode errors pass through.
    pub fn get<F: FlashTranslationLayer>(
        &self,
        store: &mut FlashStore<F>,
        key: &[u8],
    ) -> Result<(TableValue, TableProbe), KvError> {
        self.get_with(store, key, &mut Vec::new())
    }

    /// [`TableHandle::get`] reading the bucket into `buf`, a buffer the caller
    /// reuses across lookups (its contents are replaced).
    pub(crate) fn get_with<F: FlashTranslationLayer>(
        &self,
        store: &mut FlashStore<F>,
        key: &[u8],
        buf: &mut Vec<u8>,
    ) -> Result<(TableValue, TableProbe), KvError> {
        if key < self.meta.min_key.as_slice() || key > self.meta.max_key.as_slice() {
            return Ok((None, TableProbe::RangeSkip));
        }
        if !self.bloom.contains(key) {
            return Ok((None, TableProbe::BloomSkip));
        }
        let Some((start, end)) = self.bucket_for(key) else {
            return Ok((None, TableProbe::Read));
        };
        buf.clear();
        store.read_range_into(&self.meta.file, start, (end - start) as usize, buf)?;
        let mut at = 0usize;
        while let Some(entry) = decode_entry(buf, at)? {
            let entry_key = &buf[entry.key.clone()];
            if entry_key == key {
                return Ok((Some(entry.value_in(buf)), TableProbe::Read));
            }
            if entry_key > key {
                break;
            }
            at = entry.end;
        }
        Ok((None, TableProbe::Read))
    }

    /// Every entry of the table in key order (compaction input; reads the whole
    /// data section).
    ///
    /// # Errors
    ///
    /// Read and decode errors pass through.
    pub fn entries<F: FlashTranslationLayer>(
        &self,
        store: &mut FlashStore<F>,
    ) -> Result<Vec<Entry>, KvError> {
        let bytes = store.read_range(&self.meta.file, 0, self.meta.data_len as usize)?;
        let mut entries = Vec::with_capacity(self.meta.entries as usize);
        let mut at = 0usize;
        while let Some(entry) = decode_entry(&bytes, at)? {
            at = entry.end;
            entries.push((bytes[entry.key.clone()].to_vec(), entry.value_in(&bytes)));
        }
        Ok(entries)
    }

    /// Appends every entry of the table, in key order, to the current run of
    /// `runs` (the data section is read straight into the arena).
    pub(crate) fn entries_into<F: FlashTranslationLayer>(
        &self,
        store: &mut FlashStore<F>,
        runs: &mut Runs,
    ) -> Result<(), KvError> {
        let mut at = runs.bytes().len();
        store.read_range_into(&self.meta.file, 0, self.meta.data_len as usize, runs.bytes_mut())?;
        while let Some(entry) = decode_entry(runs.bytes(), at)? {
            at = entry.end;
            runs.push_span(entry.key, entry.value);
        }
        Ok(())
    }

    /// The data offsets of the index buckets a scan of `[lo, hi)` reads, in
    /// order, from the first bucket that can hold `lo` to the end of the data
    /// section (the scan stops early once a key reaches `hi`). Empty when the
    /// range misses the table.
    fn scan_buckets(&self, lo: &[u8], hi: &[u8]) -> impl Iterator<Item = Range<u64>> + '_ {
        let misses =
            lo >= hi || hi <= self.meta.min_key.as_slice() || lo > self.meta.max_key.as_slice();
        let first = if misses {
            self.index.len()
        } else {
            // The bucket `bucket_for(lo)` finds, or the first one.
            self.index.partition_point(|(index_key, _)| index_key.as_slice() <= lo).saturating_sub(1)
        };
        (first..self.index.len()).map(|bucket| {
            let end = self.index.get(bucket + 1).map_or(self.meta.data_len, |(_, next)| *next);
            self.index[bucket].1..end
        })
    }

    /// Entries with keys in `[lo, hi)`, reading index buckets lazily from the
    /// first candidate bucket until a key reaches `hi`.
    ///
    /// # Errors
    ///
    /// Read and decode errors pass through.
    pub fn scan_range<F: FlashTranslationLayer>(
        &self,
        store: &mut FlashStore<F>,
        lo: &[u8],
        hi: &[u8],
    ) -> Result<Vec<Entry>, KvError> {
        let mut entries = Vec::new();
        let mut bytes = Vec::new();
        for bucket in self.scan_buckets(lo, hi) {
            bytes.clear();
            let len = (bucket.end - bucket.start) as usize;
            store.read_range_into(&self.meta.file, bucket.start, len, &mut bytes)?;
            let mut at = 0usize;
            while let Some(entry) = decode_entry(&bytes, at)? {
                at = entry.end;
                let key = &bytes[entry.key.clone()];
                if key >= hi {
                    return Ok(entries);
                }
                if key >= lo {
                    entries.push((key.to_vec(), entry.value_in(&bytes)));
                }
            }
        }
        Ok(entries)
    }

    /// [`TableHandle::scan_range`] appending the entries to the current run of
    /// `runs`: each bucket is read straight into the arena.
    pub(crate) fn scan_into<F: FlashTranslationLayer>(
        &self,
        store: &mut FlashStore<F>,
        lo: &[u8],
        hi: &[u8],
        runs: &mut Runs,
    ) -> Result<(), KvError> {
        for bucket in self.scan_buckets(lo, hi) {
            let mut at = runs.bytes().len();
            let len = (bucket.end - bucket.start) as usize;
            store.read_range_into(&self.meta.file, bucket.start, len, runs.bytes_mut())?;
            while let Some(entry) = decode_entry(runs.bytes(), at)? {
                at = entry.end;
                let key = &runs.bytes()[entry.key.clone()];
                if key >= hi {
                    return Ok(());
                }
                if key >= lo {
                    runs.push_span(entry.key, entry.value);
                }
            }
        }
        Ok(())
    }
}

/// Where one data-section entry lies in its buffer.
struct EntrySpan {
    key: Range<usize>,
    /// `None` for a tombstone.
    value: Option<Range<usize>>,
    /// The offset just past the entry.
    end: usize,
}

impl EntrySpan {
    /// The entry's value copied out of `bytes` (`None` for a tombstone).
    fn value_in(&self, bytes: &[u8]) -> Option<Vec<u8>> {
        self.value.clone().map(|value| bytes[value].to_vec())
    }
}

/// Decodes the data-section entry at `bytes[at..]`; `Ok(None)` at the exact end
/// of the buffer.
fn decode_entry(bytes: &[u8], at: usize) -> Result<Option<EntrySpan>, KvError> {
    if at == bytes.len() {
        return Ok(None);
    }
    let corrupt = || KvError::Corruption("truncated table entry".to_string());
    let rest = &bytes[at..];
    if rest.len() < 7 {
        return Err(corrupt());
    }
    let klen = u16::from_le_bytes(rest[0..2].try_into().unwrap()) as usize;
    let flag = rest[2];
    let vlen = u32::from_le_bytes(rest[3..7].try_into().unwrap()) as usize;
    let total = 7 + klen + vlen;
    if rest.len() < total || (flag == FLAG_TOMBSTONE && vlen != 0) || flag > FLAG_TOMBSTONE {
        return Err(corrupt());
    }
    let key = at + 7..at + 7 + klen;
    let value = (flag == FLAG_VALUE).then(|| key.end..at + total);
    Ok(Some(EntrySpan { key, value, end: at + total }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vflash_ftl::{ConventionalFtl, FtlConfig};
    use vflash_nand::{NandConfig, NandDevice};

    fn store() -> FlashStore<ConventionalFtl> {
        let device = NandDevice::new(NandConfig::small());
        FlashStore::new(ConventionalFtl::new(device, FtlConfig::default()).unwrap())
    }

    fn sample_entries(count: usize) -> Vec<Entry> {
        (0..count)
            .map(|i| {
                let key = format!("key{i:05}").into_bytes();
                let value = (i % 7 != 3).then(|| format!("value-{i}").into_bytes());
                (key, value)
            })
            .collect()
    }

    #[test]
    fn build_get_covers_hits_tombstones_and_misses() {
        let mut store = store();
        let entries = sample_entries(100);
        let table = TableHandle::build(&mut store, 1, &entries, TableOptions::default()).unwrap();
        assert_eq!(table.meta.entries, 100);
        for (key, value) in &entries {
            let (found, probe) = table.get(&mut store, key).unwrap();
            assert_eq!(found.as_ref(), Some(value), "{}", String::from_utf8_lossy(key));
            assert_eq!(probe, TableProbe::Read);
        }
        // Out of bounds: range skip, no device read.
        let reads_before = store.io_stats().pages_read;
        let (miss, probe) = table.get(&mut store, b"zzz").unwrap();
        assert_eq!((miss, probe), (None, TableProbe::RangeSkip));
        assert_eq!(store.io_stats().pages_read, reads_before);
        // In bounds but absent: bloom should usually skip; either way it is a miss.
        let (miss, _) = table.get(&mut store, b"key00042x").unwrap();
        assert_eq!(miss, None);
    }

    #[test]
    fn bloom_skips_most_absent_keys() {
        let mut store = store();
        let table = TableHandle::build(&mut store, 1, &sample_entries(200), TableOptions::default()).unwrap();
        let skipped = (0..200)
            .filter(|i| {
                let probe = table
                    .get(&mut store, format!("absent{i:05}").as_bytes())
                    .unwrap()
                    .1;
                probe == TableProbe::BloomSkip || probe == TableProbe::RangeSkip
            })
            .count();
        assert!(skipped > 150, "bloom filter skipped only {skipped}/200 absent keys");
    }

    #[test]
    fn recover_rebuilds_an_identical_handle() {
        let mut store = store();
        let entries = sample_entries(64);
        let table = TableHandle::build(&mut store, 9, &entries, TableOptions::default()).unwrap();
        let recovered = TableHandle::recover(&mut store, table.meta.clone()).unwrap();
        assert_eq!(recovered, table, "index + bloom must round-trip through flash");
        assert_eq!(recovered.entries(&mut store).unwrap(), entries);
    }

    #[test]
    fn stride_one_indexes_every_entry_and_still_answers_correctly() {
        let mut store = store();
        let entries = sample_entries(50);
        let options = TableOptions { sparse_index_interval: 1, ..TableOptions::default() };
        let table = TableHandle::build(&mut store, 3, &entries, options).unwrap();
        assert_eq!(table.index.len(), 50, "stride 1 puts every entry in the index");
        for (key, value) in &entries {
            assert_eq!(table.get(&mut store, key).unwrap().0.as_ref(), Some(value));
        }
        assert_eq!(table.get(&mut store, b"key00000a").unwrap().0, None);
        // Stride-1 single-entry buckets round-trip through recovery too.
        let recovered = TableHandle::recover(&mut store, table.meta.clone()).unwrap();
        assert_eq!(recovered, table);
        assert_eq!(recovered.entries(&mut store).unwrap(), entries);
        assert_eq!(
            recovered.scan_range(&mut store, b"key00010", b"key00020").unwrap(),
            entries[10..20]
        );
    }

    #[test]
    fn single_entry_table_round_trips_at_every_stride() {
        for stride in [1usize, 2, 16, 1000] {
            let mut store = store();
            let entries = sample_entries(1);
            let options = TableOptions { sparse_index_interval: stride, ..TableOptions::default() };
            let table = TableHandle::build(&mut store, 1, &entries, options).unwrap();
            assert_eq!(table.index.len(), 1, "the first entry is always indexed");
            let (found, probe) = table.get(&mut store, &entries[0].0).unwrap();
            assert_eq!(found.as_ref(), Some(&entries[0].1));
            assert_eq!(probe, TableProbe::Read);
            let recovered = TableHandle::recover(&mut store, table.meta.clone()).unwrap();
            assert_eq!(recovered.entries(&mut store).unwrap(), entries);
        }
    }

    #[test]
    fn tiny_tables_and_tiny_bloom_budgets_stay_correct() {
        // A very small table at a very small bloom budget: the 64-bit filter
        // floor and the >= 1 hash floor keep it functional (no false
        // negatives), whatever the bits/key.
        for bits in [1usize, 2, 10, 24] {
            let mut store = store();
            let entries = sample_entries(3);
            let options = TableOptions { bloom_bits_per_key: bits, ..TableOptions::default() };
            let table = TableHandle::build(&mut store, 1, &entries, options).unwrap();
            for (key, value) in &entries {
                assert_eq!(
                    table.get(&mut store, key).unwrap().0.as_ref(),
                    Some(value),
                    "bloom filters must never produce false negatives (bits={bits})"
                );
            }
            let recovered = TableHandle::recover(&mut store, table.meta.clone()).unwrap();
            assert_eq!(recovered, table, "self-describing encoding recovers at any budget");
        }
    }

    #[test]
    fn higher_bloom_budgets_probe_with_more_hashes() {
        let few = BloomFilter::with_bits_per_key(100, 1);
        let default = BloomFilter::with_bits_per_key(100, 10);
        let many = BloomFilter::with_bits_per_key(100, 24);
        assert_eq!(few.hashes, 1, "the hash count never drops below one");
        assert_eq!(default.hashes, 6, "10 bits/key keeps the historical 6 probes");
        assert_eq!(many.hashes, 16);
        assert_eq!(BloomFilter::with_capacity(100), default);
    }

    #[test]
    fn scan_range_matches_a_filtered_full_read() {
        let mut store = store();
        let entries = sample_entries(120);
        let table = TableHandle::build(&mut store, 2, &entries, TableOptions::default()).unwrap();
        let lo = b"key00017".to_vec();
        let hi = b"key00093".to_vec();
        let expected: Vec<Entry> = entries
            .iter()
            .filter(|(key, _)| key >= &lo && key < &hi)
            .cloned()
            .collect();
        assert_eq!(table.scan_range(&mut store, &lo, &hi).unwrap(), expected);
        assert!(table.scan_range(&mut store, &hi, &lo).unwrap().is_empty());
        assert_eq!(
            table.scan_range(&mut store, b"", b"~").unwrap(),
            entries,
            "an all-covering range returns every entry"
        );
    }
}
