//! Append-only file segments mapped onto LPN ranges of a flash device.
//!
//! The simulated NAND stack is a *timing and placement* model — it tracks which
//! physical pages are live and how long every operation takes, but it does not
//! store data bytes. [`FlashStore`] bridges that gap for an application: it keeps
//! the actual bytes in a shadow page table while issuing one [`IoRequest`] per
//! page touched, so every append and read becomes real device traffic (queueing,
//! GC attribution, fault and end-of-life behavior included) and the accumulated
//! [`Completion`](vflash_ftl::Completion) latencies drive the store's simulated
//! clock.
//!
//! A [`SegmentFile`] is an append-only byte stream laid out over a list of
//! [`Extent`]s (contiguous LPN runs). Freeing a file returns its extents to the
//! free list; reusing them later overwrites the stale LPNs, which is exactly what
//! invalidates the old flash pages and generates GC pressure — no trim command
//! is needed or modeled.

use vflash_ftl::{FlashTranslationLayer, IoRequest, Lpn};
use vflash_nand::Nanos;

use crate::error::KvError;

/// The LPN reserved for the store's superblock (see
/// [`FlashStore::write_superblock`]).
pub const SUPERBLOCK_LPN: u64 = 0;

/// A contiguous run of logical pages: LPNs `[start, start + pages)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extent {
    /// First LPN of the run.
    pub start: u64,
    /// Number of pages in the run.
    pub pages: u64,
}

/// An append-only byte stream laid out over a list of [`Extent`]s.
///
/// The handle is plain data — all I/O goes through the owning [`FlashStore`],
/// which charges device time for every page touched. `len` is the logical byte
/// length; capacity is whatever the extents provide, growing on demand.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SegmentFile {
    extents: Vec<Extent>,
    len: u64,
}

impl SegmentFile {
    /// An empty file with no extents.
    pub fn new() -> Self {
        SegmentFile::default()
    }

    /// Rebuilds a handle from its persisted extents and length (manifest
    /// recovery path).
    pub fn from_parts(extents: Vec<Extent>, len: u64) -> Self {
        SegmentFile { extents, len }
    }

    /// Logical byte length.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when no bytes have been appended.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total pages currently allocated to the file.
    pub fn pages(&self) -> u64 {
        self.extents.iter().map(|extent| extent.pages).sum()
    }

    /// The file's extents, in file order.
    pub fn extents(&self) -> &[Extent] {
        &self.extents
    }

    /// Rewinds the logical length to zero, keeping the allocated extents (the
    /// WAL reset path: the region is reused in place and old pages are simply
    /// overwritten).
    pub fn truncate(&mut self) {
        self.len = 0;
    }

    /// Writes the LPNs backing file pages `pages` to `out` (cleared first).
    fn lpns_into(&self, pages: std::ops::RangeInclusive<u64>, out: &mut Vec<u64>) {
        out.clear();
        out.extend(pages.map(|page| self.lpn_at(page).expect("page is within the file's capacity")));
    }

    /// The LPN backing file page `index`, or `None` past the allocated capacity.
    pub fn lpn_at(&self, index: u64) -> Option<u64> {
        let mut remaining = index;
        for extent in &self.extents {
            if remaining < extent.pages {
                return Some(extent.start + remaining);
            }
            remaining -= extent.pages;
        }
        None
    }
}

/// Byte-granular I/O counters of a [`FlashStore`], page-charged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreIoStats {
    /// Page writes submitted to the FTL (each one host-visible device traffic).
    pub pages_written: u64,
    /// Page reads submitted to the FTL.
    pub pages_read: u64,
}

/// File storage over a [`FlashTranslationLayer`]: shadow data bytes plus an
/// extent allocator, with every page touched charged through `submit`.
#[derive(Debug)]
pub struct FlashStore<F: FlashTranslationLayer> {
    ftl: F,
    page_size: usize,
    io_depth: usize,
    clock: Nanos,
    /// Page contents by LPN, written in place: a page's buffer is allocated
    /// on its first write and reused by every later one.
    shadow: Vec<Option<Box<[u8]>>>,
    free: Vec<Extent>,
    io: StoreIoStats,
    /// Reused per-call buffers: the LPNs an operation touches and one chunk
    /// of requests.
    lpns: Vec<u64>,
    requests: Vec<IoRequest>,
}

impl<F: FlashTranslationLayer> FlashStore<F> {
    /// Wraps `ftl`, reserving LPN 0 for the superblock and exposing the rest of
    /// the logical address space to the extent allocator.
    pub fn new(ftl: F) -> Self {
        let logical_pages = ftl.logical_pages();
        let page_size = ftl.device().config().page_size_bytes();
        FlashStore {
            ftl,
            page_size,
            io_depth: 1,
            clock: Nanos::ZERO,
            shadow: (0..logical_pages).map(|_| None).collect(),
            free: vec![Extent { start: SUPERBLOCK_LPN + 1, pages: logical_pages - 1 }],
            io: StoreIoStats::default(),
            lpns: Vec::new(),
            requests: Vec::new(),
        }
    }

    /// Flash page size in bytes.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// The queue depth multi-page operations are submitted at.
    pub fn io_depth(&self) -> usize {
        self.io_depth
    }

    /// Sets the queue depth for multi-page operations. At depth 1 (the
    /// default) every page goes through scalar `submit` and the clock is
    /// charged the serial sum; at depth `d > 1` pages are submitted in batches
    /// of up to `d` through
    /// [`submit_batch`](FlashTranslationLayer::submit_batch) and the clock is
    /// charged each batch's chip-parallel makespan.
    ///
    /// Raising the depth above 1 also asks the FTL (via
    /// [`set_write_stripe`](FlashTranslationLayer::set_write_stripe)) to
    /// rotate its host write stream across up to one active block per chip, so
    /// the page programs of a batch land on different dies and genuinely
    /// overlap; at depth 1 the stripe is released and placement is exactly the
    /// pre-batching single-active-block layout.
    pub fn set_io_depth(&mut self, depth: usize) {
        assert!(depth >= 1, "io_depth must be at least 1");
        self.io_depth = depth;
        let chips = self.ftl.device().config().chips();
        self.ftl.set_write_stripe(if depth > 1 { chips.min(depth) } else { 1 });
    }

    /// The simulated device clock: the sum of every completion latency the
    /// store has accumulated. Snapshot it around an operation to attribute
    /// device time to that operation.
    pub fn clock(&self) -> Nanos {
        self.clock
    }

    /// Page-level I/O counters.
    pub fn io_stats(&self) -> StoreIoStats {
        self.io
    }

    /// The wrapped FTL (metrics snapshots, device inspection).
    pub fn ftl(&self) -> &F {
        &self.ftl
    }

    /// Consumes the store, returning the FTL (final metrics inspection).
    pub fn into_ftl(self) -> F {
        self.ftl
    }

    /// Free pages remaining in the allocator.
    pub fn free_pages(&self) -> u64 {
        self.free.iter().map(|extent| extent.pages).sum()
    }

    /// True when `lpn` holds data written through this store's lifetime of the
    /// device (the shadow table survives a KV-level crash, the in-memory store
    /// state does not).
    pub fn is_written(&self, lpn: u64) -> bool {
        self.shadow.get(lpn as usize).is_some_and(Option::is_some)
    }

    /// Allocates `pages` pages as one or more extents (first-fit, splitting the
    /// last extent taken).
    ///
    /// # Errors
    ///
    /// [`KvError::OutOfSpace`] when fewer than `pages` pages are free; the free
    /// list is left untouched in that case.
    pub fn alloc_run(&mut self, pages: u64) -> Result<Vec<Extent>, KvError> {
        if pages == 0 {
            return Ok(Vec::new());
        }
        if self.free_pages() < pages {
            return Err(KvError::OutOfSpace);
        }
        let mut run = Vec::new();
        let mut wanted = pages;
        while wanted > 0 {
            let extent = self.free.first_mut().expect("free total was checked above");
            let take = wanted.min(extent.pages);
            run.push(Extent { start: extent.start, pages: take });
            extent.start += take;
            extent.pages -= take;
            if extent.pages == 0 {
                self.free.remove(0);
            }
            wanted -= take;
        }
        Ok(run)
    }

    /// Returns extents to the free list, coalescing adjacent runs. The shadow
    /// bytes stay in place — stale data remains "on media" until the LPNs are
    /// overwritten, exactly like real flash without trim.
    pub fn free_extents(&mut self, extents: &[Extent]) {
        for &extent in extents {
            if extent.pages == 0 {
                continue;
            }
            let at = self
                .free
                .partition_point(|candidate| candidate.start < extent.start);
            self.free.insert(at, extent);
            // Coalesce with the successor, then the predecessor.
            if at + 1 < self.free.len()
                && self.free[at].start + self.free[at].pages == self.free[at + 1].start
            {
                self.free[at].pages += self.free[at + 1].pages;
                self.free.remove(at + 1);
            }
            if at > 0 && self.free[at - 1].start + self.free[at - 1].pages == self.free[at].start {
                self.free[at - 1].pages += self.free[at].pages;
                self.free.remove(at);
            }
        }
    }

    /// Deletes a file: all its extents return to the allocator. No device
    /// traffic is charged (dropping a file writes nothing).
    pub fn delete(&mut self, file: SegmentFile) {
        self.free_extents(&file.extents);
    }

    /// Rebuilds the free list as the complement of `used` (crash recovery: the
    /// manifest is the source of truth for which extents are live, and anything
    /// allocated after the last manifest write — a half-built table, say — must
    /// return to the pool instead of leaking). The superblock LPN stays
    /// reserved. `used` extents must not overlap.
    pub fn reset_allocator(&mut self, used: &[Extent]) {
        let mut used: Vec<Extent> = used.iter().copied().filter(|e| e.pages > 0).collect();
        used.sort_by_key(|extent| extent.start);
        debug_assert!(used
            .windows(2)
            .all(|pair| pair[0].start + pair[0].pages <= pair[1].start));
        self.free.clear();
        let mut cursor = SUPERBLOCK_LPN + 1;
        for extent in &used {
            if extent.start > cursor {
                self.free.push(Extent { start: cursor, pages: extent.start - cursor });
            }
            cursor = cursor.max(extent.start + extent.pages);
        }
        let logical_pages = self.shadow.len() as u64;
        if cursor < logical_pages {
            self.free.push(Extent { start: cursor, pages: logical_pages - cursor });
        }
    }

    /// Writes one full page to `lpn`, charging the program (and any GC it
    /// triggers) to the clock. `request_bytes` is the logical request size
    /// passed to the FTL — PPB's size-based classifier sees it, so callers
    /// should pass the application-level write size (small WAL appends read as
    /// hot, bulk compaction writes as cold).
    ///
    /// # Errors
    ///
    /// [`KvError::ReadOnly`] once the device is at end of life;
    /// [`KvError::OutOfSpace`] when the FTL has no free capacity; other FTL
    /// failures pass through.
    pub fn write_page(&mut self, lpn: u64, data: &[u8], request_bytes: u32) -> Result<(), KvError> {
        debug_assert_eq!(data.len(), self.page_size);
        let completion = self.ftl.submit(IoRequest::write(Lpn(lpn), request_bytes))?;
        self.clock += completion.latency;
        self.io.pages_written += 1;
        self.page_mut(lpn).copy_from_slice(data);
        Ok(())
    }

    /// The shadow buffer of `lpn`, allocated zeroed on the page's first write.
    fn page_mut(&mut self, lpn: u64) -> &mut [u8] {
        let page_size = self.page_size;
        self.shadow[lpn as usize].get_or_insert_with(|| vec![0; page_size].into_boxed_slice())
    }

    /// Reads one page, charging the read (retry ladder included) to the clock.
    ///
    /// # Errors
    ///
    /// [`KvError::Corruption`] when the page was never written through this
    /// store or the device reports the data uncorrectable (the retry ladder ran
    /// dry — with fault injection on, data loss is real); other FTL failures
    /// pass through.
    pub fn read_page(&mut self, lpn: u64) -> Result<&[u8], KvError> {
        if !self.is_written(lpn) {
            return Err(KvError::Corruption(format!("read of never-written LPN {lpn}")));
        }
        let completion = self.ftl.submit(IoRequest::read(Lpn(lpn)))?;
        self.clock += completion.latency;
        self.io.pages_read += 1;
        if completion.uncorrectable {
            return Err(KvError::Corruption(format!("uncorrectable read of LPN {lpn}")));
        }
        Ok(self.shadow[lpn as usize].as_deref().expect("is_written was checked above"))
    }

    /// Charges device time for reading every LPN in `lpns`, batching at the
    /// configured queue depth. The bytes themselves come from the shadow table
    /// afterwards — this pays for the traffic.
    ///
    /// # Errors
    ///
    /// [`KvError::Corruption`] for never-written LPNs (checked up front, before
    /// any device traffic) and for uncorrectable reads.
    fn charge_reads(&mut self, lpns: &[u64]) -> Result<(), KvError> {
        for &lpn in lpns {
            if !self.is_written(lpn) {
                return Err(KvError::Corruption(format!("read of never-written LPN {lpn}")));
            }
        }
        if self.io_depth <= 1 {
            for &lpn in lpns {
                self.read_page(lpn)?;
            }
            return Ok(());
        }
        // Reused across calls; an error simply drops it.
        let mut requests = std::mem::take(&mut self.requests);
        for chunk in lpns.chunks(self.io_depth) {
            requests.clear();
            requests.extend(chunk.iter().map(|&lpn| IoRequest::read(Lpn(lpn))));
            let batch = self.ftl.submit_batch(&requests)?;
            self.clock += batch.makespan;
            self.io.pages_read += chunk.len() as u64;
            for (completion, &lpn) in batch.completions.iter().zip(chunk) {
                if completion.uncorrectable {
                    return Err(KvError::Corruption(format!("uncorrectable read of LPN {lpn}")));
                }
            }
        }
        self.requests = requests;
        Ok(())
    }

    /// Reads a run of whole pages (in `lpns` order) and returns their
    /// concatenated contents, batching the device traffic at the configured
    /// queue depth. The WAL recovery scan reads its written prefix through
    /// this in one sweep instead of page-at-a-time.
    ///
    /// # Errors
    ///
    /// [`KvError::Corruption`] for never-written LPNs or uncorrectable reads;
    /// other FTL failures pass through.
    pub fn read_pages(&mut self, lpns: &[u64]) -> Result<Vec<u8>, KvError> {
        self.charge_reads(lpns)?;
        let mut out = Vec::with_capacity(lpns.len() * self.page_size);
        for &lpn in lpns {
            out.extend_from_slice(self.written(lpn));
        }
        Ok(out)
    }

    /// The shadow contents of a page that has been written.
    fn written(&self, lpn: u64) -> &[u8] {
        self.shadow[lpn as usize].as_deref().expect("reads check is_written before any traffic")
    }

    /// Appends `bytes` to `file`, allocating pages on demand and charging one
    /// page program per page touched. A partial tail page is rewritten in place
    /// (same LPN), which models the WAL's torn-page overwrite cost faithfully:
    /// the old version of the page is invalidated and a fresh program pays for
    /// the new one.
    ///
    /// The programs go out at the configured queue depth: one scalar
    /// `submit` per page at depth 1, otherwise batches of up to `io_depth`
    /// pages, each charged its makespan. A page's shadow bytes are written in
    /// place once its program succeeds: the kept prefix of a partial tail
    /// page stays, the appended bytes follow, and zeros fill the rest of the
    /// page. When a program fails, the pages of earlier batches keep their
    /// new contents and the rest keep their old ones.
    ///
    /// # Errors
    ///
    /// [`KvError::OutOfSpace`] when the allocator cannot grow the file;
    /// [`KvError::ReadOnly`] and FTL failures from the page programs.
    pub fn append(
        &mut self,
        file: &mut SegmentFile,
        bytes: &[u8],
        request_bytes: u32,
    ) -> Result<(), KvError> {
        if bytes.is_empty() {
            return Ok(());
        }
        let page_size = self.page_size as u64;
        let start = file.len;
        let end = start + bytes.len() as u64;
        let needed_pages = end.div_ceil(page_size);
        if needed_pages > file.pages() {
            let grown = self.alloc_run(needed_pages - file.pages())?;
            file.extents.extend(grown);
        }
        let first_page = start / page_size;
        // Reused across calls; an error simply drops them.
        let mut lpns = std::mem::take(&mut self.lpns);
        let mut requests = std::mem::take(&mut self.requests);
        file.lpns_into(first_page..=(end - 1) / page_size, &mut lpns);
        let depth = self.io_depth;
        for (chunk_index, chunk) in lpns.chunks(depth).enumerate() {
            self.clock += if depth == 1 {
                self.ftl.submit(IoRequest::write(Lpn(chunk[0]), request_bytes))?.latency
            } else {
                requests.clear();
                requests.extend(chunk.iter().map(|&lpn| IoRequest::write(Lpn(lpn), request_bytes)));
                self.ftl.submit_batch(&requests)?.makespan
            };
            self.io.pages_written += chunk.len() as u64;
            let chunk_first = first_page + (chunk_index * depth) as u64;
            for (page, &lpn) in (chunk_first..).zip(chunk) {
                self.fill_page(lpn, page * page_size, start, bytes);
            }
        }
        self.lpns = lpns;
        self.requests = requests;
        file.len = end;
        Ok(())
    }

    /// Writes the part of an append of `bytes` at file offset `start` that
    /// falls in the file page beginning at `page_start` into the shadow of
    /// `lpn`: bytes before the append stay, bytes after it become zero.
    fn fill_page(&mut self, lpn: u64, page_start: u64, start: u64, bytes: &[u8]) {
        let end = start + bytes.len() as u64;
        let page_end = page_start + self.page_size as u64;
        debug_assert!(
            page_start >= start || self.is_written(lpn),
            "a partial tail page must have been written before"
        );
        let (from, to) = (page_start.max(start), page_end.min(end));
        let page = self.page_mut(lpn);
        page[(from - page_start) as usize..(to - page_start) as usize]
            .copy_from_slice(&bytes[(from - start) as usize..(to - start) as usize]);
        page[(to - page_start) as usize..].fill(0);
    }

    /// Reserves capacity so the file spans at least `pages` pages (the WAL
    /// preallocates its whole region once, then appends never allocate).
    ///
    /// # Errors
    ///
    /// [`KvError::OutOfSpace`] when the allocator cannot satisfy the request.
    pub fn reserve(&mut self, file: &mut SegmentFile, pages: u64) -> Result<(), KvError> {
        if pages > file.pages() {
            let grown = self.alloc_run(pages - file.pages())?;
            file.extents.extend(grown);
        }
        Ok(())
    }

    /// Reads `len` bytes at `offset`, charging one page read per page touched.
    ///
    /// # Errors
    ///
    /// [`KvError::Corruption`] when the range reaches past the file's length;
    /// read errors pass through.
    pub fn read_range(
        &mut self,
        file: &SegmentFile,
        offset: u64,
        len: usize,
    ) -> Result<Vec<u8>, KvError> {
        let mut out = Vec::with_capacity(len);
        self.read_range_into(file, offset, len, &mut out)?;
        Ok(out)
    }

    /// [`FlashStore::read_range`] appending the bytes to `out` instead of
    /// returning them.
    pub(crate) fn read_range_into(
        &mut self,
        file: &SegmentFile,
        offset: u64,
        len: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), KvError> {
        let lpns = self.charge_range(file, offset, len)?;
        self.join_pages(&lpns, (offset % self.page_size as u64) as usize, len, out);
        self.lpns = lpns;
        Ok(())
    }

    /// Checks the range `[offset, offset + len)` against the file length and
    /// charges its page reads. Returns the LPNs read, in file order, in the
    /// store's reused LPN buffer, which the caller hands back (an error
    /// simply drops it).
    fn charge_range(
        &mut self,
        file: &SegmentFile,
        offset: u64,
        len: usize,
    ) -> Result<Vec<u64>, KvError> {
        let mut lpns = std::mem::take(&mut self.lpns);
        lpns.clear();
        if len == 0 {
            return Ok(lpns);
        }
        let end = offset + len as u64;
        if end > file.len {
            return Err(KvError::Corruption(format!(
                "read of [{offset}, {end}) past file length {}",
                file.len
            )));
        }
        let page_size = self.page_size as u64;
        file.lpns_into(offset / page_size..=(end - 1) / page_size, &mut lpns);
        self.charge_reads(&lpns)?;
        Ok(lpns)
    }

    /// Appends `len` bytes that start `from` bytes into the first of `lpns`
    /// and run on through the following pages.
    fn join_pages(&self, lpns: &[u64], from: usize, len: usize, out: &mut Vec<u8>) {
        let mut skip = from;
        let mut left = len;
        for &lpn in lpns {
            let page = &self.written(lpn)[skip..];
            let take = left.min(page.len());
            out.extend_from_slice(&page[..take]);
            left -= take;
            skip = 0;
        }
    }

    /// True once a superblock has been written (distinguishes a fresh device
    /// from one holding a recoverable store).
    pub fn has_superblock(&self) -> bool {
        self.is_written(SUPERBLOCK_LPN)
    }

    /// Writes `payload` (at most one page) to the fixed superblock LPN.
    ///
    /// # Errors
    ///
    /// [`KvError::Corruption`] when the payload exceeds a page; write errors
    /// pass through.
    pub fn write_superblock(&mut self, payload: &[u8]) -> Result<(), KvError> {
        if payload.len() > self.page_size {
            return Err(KvError::Corruption(format!(
                "superblock payload of {} bytes exceeds the {}-byte page",
                payload.len(),
                self.page_size
            )));
        }
        let mut buffer = vec![0u8; self.page_size];
        buffer[..payload.len()].copy_from_slice(payload);
        self.write_page(SUPERBLOCK_LPN, &buffer, self.page_size as u32)
    }

    /// Reads the superblock page.
    ///
    /// # Errors
    ///
    /// [`KvError::Corruption`] when no superblock was ever written; read errors
    /// pass through.
    pub fn read_superblock(&mut self) -> Result<Vec<u8>, KvError> {
        Ok(self.read_page(SUPERBLOCK_LPN)?.to_vec())
    }
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

    #[test]
    fn append_then_read_round_trips_across_page_boundaries() {
        let mut store = store();
        let page = store.page_size();
        let mut file = SegmentFile::new();
        let data: Vec<u8> = (0..page * 2 + 100).map(|i| (i % 251) as u8).collect();
        // Append in uneven chunks so tail pages are rewritten.
        for chunk in data.chunks(page / 3 + 7) {
            store.append(&mut file, chunk, chunk.len() as u32).unwrap();
        }
        assert_eq!(file.len(), data.len() as u64);
        let read = store.read_range(&file, 0, data.len()).unwrap();
        assert_eq!(read, data);
        // An interior slice straddling a page boundary.
        let slice = store.read_range(&file, page as u64 - 10, 30).unwrap();
        assert_eq!(slice, &data[page - 10..page + 20]);
        assert!(store.clock() > Nanos::ZERO, "device time must be charged");
        assert!(store.io_stats().pages_written >= 3);
    }

    #[test]
    fn tail_page_rewrites_cost_extra_programs() {
        let mut store = store();
        let mut file = SegmentFile::new();
        for _ in 0..10 {
            store.append(&mut file, &[7u8; 16], 16).unwrap();
        }
        // Ten small appends into one page: ten programs of the same LPN.
        assert_eq!(store.io_stats().pages_written, 10);
        assert_eq!(file.pages(), 1);
    }

    #[test]
    fn alloc_free_coalesces_and_reuses() {
        let mut store = store();
        let total = store.free_pages();
        let a = store.alloc_run(4).unwrap();
        let b = store.alloc_run(4).unwrap();
        assert_eq!(store.free_pages(), total - 8);
        store.free_extents(&a);
        store.free_extents(&b);
        assert_eq!(store.free_pages(), total);
        assert_eq!(store.free.len(), 1, "adjacent frees must coalesce");
        // Allocating everything succeeds; one more page does not.
        let all = store.alloc_run(total).unwrap();
        assert!(matches!(store.alloc_run(1), Err(KvError::OutOfSpace)));
        store.free_extents(&all);
    }

    #[test]
    fn superblock_round_trips_and_marks_the_store_formatted() {
        let mut store = store();
        assert!(!store.has_superblock());
        store.write_superblock(b"vflash-kv superblock").unwrap();
        assert!(store.has_superblock());
        let payload = store.read_superblock().unwrap();
        assert_eq!(&payload[..20], b"vflash-kv superblock");
    }

    #[test]
    fn batched_io_round_trips_and_runs_faster_on_multiple_chips() {
        let multi_chip = || {
            let config = NandConfig::builder()
                .chips(4)
                .blocks_per_chip(16)
                .pages_per_block(16)
                .page_size_bytes(4096)
                .build()
                .unwrap();
            let device = NandDevice::new(config);
            FlashStore::new(ConventionalFtl::new(device, FtlConfig::default()).unwrap())
        };
        let data: Vec<u8> = (0..4096 * 12).map(|i| (i % 249) as u8).collect();

        let mut serial = multi_chip();
        let mut serial_file = SegmentFile::new();
        serial.append(&mut serial_file, &data, data.len() as u32).unwrap();
        let read_start = serial.clock();
        let serial_bytes = serial.read_range(&serial_file, 0, data.len()).unwrap();
        let serial_read_time = serial.clock() - read_start;

        let mut batched = multi_chip();
        batched.set_io_depth(8);
        let mut batched_file = SegmentFile::new();
        batched.append(&mut batched_file, &data, data.len() as u32).unwrap();
        let read_start = batched.clock();
        let batched_bytes = batched.read_range(&batched_file, 0, data.len()).unwrap();
        let batched_read_time = batched.clock() - read_start;

        assert_eq!(serial_bytes, data);
        assert_eq!(batched_bytes, data, "batching must not change the bytes");
        assert_eq!(
            batched.io_stats(),
            serial.io_stats(),
            "batching changes time accounting, not page traffic"
        );
        assert!(
            batched.clock() < serial.clock(),
            "4 chips at depth 8 must beat the serial clock ({} vs {})",
            batched.clock(),
            serial.clock()
        );
        assert!(batched_read_time < serial_read_time);
        let metrics = batched.ftl().metrics();
        assert!(metrics.batched_submissions > 0);
        assert_eq!(
            metrics.batched_pages,
            batched.io_stats().pages_written + batched.io_stats().pages_read,
            "every page of this run went through the batched path"
        );
        let serial_metrics = serial.ftl().metrics();
        assert_eq!(serial_metrics.batched_submissions, 0, "depth 1 never batches");
        // State evolution is identical: same physical traffic, same GC.
        assert_eq!(serial_metrics.host_writes, metrics.host_writes);
        assert_eq!(serial_metrics.gc_copied_pages, metrics.gc_copied_pages);
    }

    #[test]
    fn read_pages_concatenates_whole_pages() {
        let mut store = store();
        let page = store.page_size();
        let mut file = SegmentFile::new();
        let data: Vec<u8> = (0..page * 3).map(|i| (i % 241) as u8).collect();
        store.append(&mut file, &data, data.len() as u32).unwrap();
        let lpns: Vec<u64> = (0..3).map(|i| file.lpn_at(i).unwrap()).collect();
        assert_eq!(store.read_pages(&lpns).unwrap(), data);
        assert!(matches!(store.read_pages(&[9999]), Err(KvError::Corruption(_))));
    }

    #[test]
    fn reads_past_the_end_and_of_unwritten_pages_are_corruption() {
        let mut store = store();
        let mut file = SegmentFile::new();
        store.append(&mut file, &[1, 2, 3], 3).unwrap();
        assert!(matches!(store.read_range(&file, 0, 4), Err(KvError::Corruption(_))));
        assert!(matches!(store.read_page(5), Err(KvError::Corruption(_))));
    }
}
