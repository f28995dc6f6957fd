//! Sorted runs of entries in one byte arena, and their newest-wins merge.
//!
//! A range scan and a compaction both combine several already-sorted sources
//! — SSTables, whole deeper levels, the memtable — in which a newer source's
//! version of a key shadows every older one. [`Runs`] stores the sources'
//! entries as byte spans of one reusable buffer, one run per source in
//! oldest-to-newest order, and [`Runs::merge`] walks them as a k-way merge
//! that yields each key once, with its newest version. Each source is read
//! once and in its own order, so no entry is cloned per shadowed version and
//! nothing is sorted again.

use std::cmp::Ordering;
use std::ops::Range;

/// One entry: spans of [`Runs::bytes`].
#[derive(Debug)]
struct Row {
    key: Range<usize>,
    /// `None` for a tombstone.
    value: Option<Range<usize>>,
}

/// Sorted runs of entries over one byte arena. Each run must be strictly
/// sorted by key; a later run is newer than every earlier one.
#[derive(Debug, Default)]
pub(crate) struct Runs {
    bytes: Vec<u8>,
    rows: Vec<Row>,
    /// The index in `rows` where each run starts.
    starts: Vec<usize>,
    /// Merge state, kept to reuse the allocations: the unmerged rows of
    /// each run as `(next, end)` row indices, the cursors tied on the
    /// current key, and the rows the merge selected.
    cursors: Vec<(usize, usize)>,
    tied: Vec<usize>,
    winners: Vec<usize>,
}

impl Runs {
    /// Empties the arena, keeping its allocations.
    pub(crate) fn clear(&mut self) {
        self.bytes.clear();
        self.rows.clear();
        self.starts.clear();
    }

    /// Reserves room for `bytes` more arena bytes and `rows` more entries,
    /// exactly: a compaction knows its input size up front.
    pub(crate) fn reserve(&mut self, bytes: usize, rows: usize) {
        self.bytes.reserve_exact(bytes);
        self.rows.reserve_exact(rows);
    }

    /// Starts a new run, newer than every run before it.
    pub(crate) fn begin_run(&mut self) {
        self.starts.push(self.rows.len());
    }

    /// The number of runs begun since the last [`Runs::clear`].
    pub(crate) fn run_count(&self) -> usize {
        self.starts.len()
    }

    /// Joins the runs from the `first`-th on into one run. Those runs must
    /// not overlap and must have been begun in descending key order: the
    /// tables of one deeper level read largest keys first. Only the row
    /// order changes; the arena bytes stay where they are.
    pub(crate) fn join_descending(&mut self, first: usize) {
        let Some(&start) = self.starts.get(first) else { return };
        let end = self.rows.len();
        // Reversing the whole tail puts the runs in ascending order, each of
        // them backwards; reversing each run's new span restores it.
        self.rows[start..].reverse();
        for run in first..self.starts.len() {
            let run_end = self.starts.get(run + 1).copied().unwrap_or(end);
            self.rows[start + end - run_end..start + end - self.starts[run]].reverse();
        }
        self.starts.truncate(first + 1);
        debug_assert!((start + 1..end).all(|row| self.key(row - 1) < self.key(row)));
    }

    /// The arena bytes. Entries refer to them by offset, so callers may read
    /// encoded data straight into the arena and then [`Runs::push_span`] the
    /// entries they find there.
    pub(crate) fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The arena bytes, for appending (existing bytes must not change).
    pub(crate) fn bytes_mut(&mut self) -> &mut Vec<u8> {
        &mut self.bytes
    }

    /// Appends an entry of the current run whose key and value already lie
    /// in the arena.
    pub(crate) fn push_span(&mut self, key: Range<usize>, value: Option<Range<usize>>) {
        debug_assert!(
            !self.starts.is_empty(),
            "begin_run comes before the first entry"
        );
        debug_assert!(
            self.rows.len() == *self.starts.last().expect("a run was begun")
                || self.key(self.rows.len() - 1) < &self.bytes[key.clone()]
        );
        self.rows.push(Row { key, value });
    }

    /// Copies an entry into the arena and appends it to the current run.
    pub(crate) fn push(&mut self, key: &[u8], value: Option<&[u8]>) {
        let key_at = self.bytes.len();
        self.bytes.extend_from_slice(key);
        let value = value.map(|value| {
            let value_at = self.bytes.len();
            self.bytes.extend_from_slice(value);
            value_at..self.bytes.len()
        });
        self.push_span(key_at..key_at + key.len(), value);
    }

    fn key(&self, row: usize) -> &[u8] {
        &self.bytes[self.rows[row].key.clone()]
    }

    /// Every distinct key across the runs once, in key order, with the value
    /// of the newest run that holds it (`None` for a tombstone).
    pub(crate) fn merge(&mut self) -> impl ExactSizeIterator<Item = (&[u8], Option<&[u8]>)> {
        self.select_newest();
        self.winners.iter().map(|&row| {
            let Row { key, value } = &self.rows[row];
            (
                &self.bytes[key.clone()],
                value.clone().map(|value| &self.bytes[value]),
            )
        })
    }

    /// Fills `winners` with the newest row of every distinct key, in key
    /// order: a k-way merge over the run heads, one key comparison per live
    /// run and output key. Callers keep the runs few — one per L0 table and
    /// one per deeper level (see [`Runs::join_descending`]) — which a linear
    /// pass over the heads serves better than a heap.
    fn select_newest(&mut self) {
        let mut cursors = std::mem::take(&mut self.cursors);
        let mut tied = std::mem::take(&mut self.tied);
        cursors.clear();
        self.winners.clear();
        self.winners.reserve_exact(self.rows.len());
        let ends = self.starts.iter().skip(1).copied().chain([self.rows.len()]);
        cursors.extend(
            self.starts
                .iter()
                .copied()
                .zip(ends)
                .filter(|(next, end)| next < end),
        );
        loop {
            // The runs whose head holds the smallest key, oldest first.
            let mut smallest: &[u8] = &[];
            tied.clear();
            for (cursor, &(next, end)) in cursors.iter().enumerate() {
                if next == end {
                    continue;
                }
                let key = self.key(next);
                let order = if tied.is_empty() {
                    Ordering::Less
                } else {
                    key.cmp(smallest)
                };
                if order == Ordering::Less {
                    smallest = key;
                    tied.clear();
                }
                if order != Ordering::Greater {
                    tied.push(cursor);
                }
            }
            let Some(&newest) = tied.last() else { break };
            self.winners.push(cursors[newest].0);
            for &cursor in &tied {
                cursors[cursor].0 += 1;
            }
        }
        self.cursors = cursors;
        self.tied = tied;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn merged(runs: &mut Runs) -> Vec<(Vec<u8>, Option<Vec<u8>>)> {
        runs.merge()
            .map(|(key, value)| (key.to_vec(), value.map(<[u8]>::to_vec)))
            .collect()
    }

    #[test]
    fn newest_run_wins_and_keys_come_out_sorted_once() {
        let mut runs = Runs::default();
        runs.begin_run();
        runs.push(b"a", Some(b"old-a"));
        runs.push(b"c", Some(b"old-c"));
        runs.push(b"e", Some(b"old-e"));
        runs.begin_run();
        runs.push(b"b", Some(b"mid-b"));
        runs.push(b"c", None);
        runs.begin_run();
        runs.begin_run(); // an empty run is fine
        runs.push(b"c", Some(b"new-c"));
        runs.push(b"e", None);
        assert_eq!(
            merged(&mut runs),
            vec![
                (b"a".to_vec(), Some(b"old-a".to_vec())),
                (b"b".to_vec(), Some(b"mid-b".to_vec())),
                (b"c".to_vec(), Some(b"new-c".to_vec())),
                (b"e".to_vec(), None),
            ]
        );
        runs.clear();
        assert!(merged(&mut runs).is_empty());
    }

    #[test]
    fn descending_runs_join_into_one_ascending_run() {
        let mut runs = Runs::default();
        runs.begin_run();
        runs.push(b"b", Some(b"old-b"));
        runs.push(b"m", Some(b"old-m"));
        let first = runs.run_count();
        // A deeper level's tables, read largest keys first.
        for table in [&[&b"x"[..], b"y", b"z"][..], &[b"m", b"n"], &[b"a"]] {
            runs.begin_run();
            for &key in table {
                runs.push(key, Some(b"new"));
            }
        }
        runs.join_descending(first);
        assert_eq!(runs.run_count(), 2);
        let keys: Vec<Vec<u8>> = merged(&mut runs).into_iter().map(|(key, _)| key).collect();
        let expected: Vec<&[u8]> = vec![b"a", b"b", b"m", b"n", b"x", b"y", b"z"];
        assert_eq!(keys, expected);
        assert_eq!(merged(&mut runs)[2].1.as_deref(), Some(&b"new"[..]), "the joined run is newer");
        runs.join_descending(runs.run_count()); // no runs to join
        assert_eq!(runs.run_count(), 2);
    }
}
