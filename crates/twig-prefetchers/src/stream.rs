//! SHIFT-style temporal stream machinery (Ferdman et al.), the miss-stream
//! engine inside [`Confluence`](crate::Confluence) (MICRO 2015).
//!
//! Temporal streaming records the sequence of L1i miss addresses in a
//! circular *history buffer* and keeps an *index table* mapping each line to
//! its most recent position in the history. When a miss hits the index, the
//! lines that followed it last time are replayed as prefetches.
//!
//! This is the "record and replay" mechanism whose fundamental limitation
//! the paper quantifies (Fig. 10): only *recurring* miss streams can be
//! covered, and replaying the most recent occurrence trades accuracy for
//! metadata cost (§4.2's prefetch-accuracy discussion).

use twig_types::{CacheLineAddr, FxHashMap};

/// Default history capacity (entries). SHIFT virtualizes ~32K history
/// entries into the LLC; we keep them in a plain circular buffer.
const DEFAULT_HISTORY_ENTRIES: usize = 32 * 1024;

/// Default number of successor lines replayed per index hit.
const DEFAULT_REPLAY_DEPTH: usize = 12;

/// A temporal stream recorder/replayer over cache-line addresses.
#[derive(Debug)]
pub(crate) struct StreamTable {
    history: Vec<CacheLineAddr>,
    head: usize,
    filled: bool,
    index: FxHashMap<CacheLineAddr, usize>,
    replay_depth: usize,
}

impl StreamTable {
    /// Creates a stream table with the given history capacity and replay
    /// depth.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is zero.
    pub(crate) fn new(history_entries: usize, replay_depth: usize) -> Self {
        assert!(history_entries > 0 && replay_depth > 0);
        StreamTable {
            history: Vec::with_capacity(history_entries),
            head: 0,
            filled: false,
            index: FxHashMap::default(),
            replay_depth,
        }
    }

    /// Creates the table with SHIFT-like defaults.
    pub(crate) fn with_defaults() -> Self {
        StreamTable::new(DEFAULT_HISTORY_ENTRIES, DEFAULT_REPLAY_DEPTH)
    }

    /// Records a miss and returns the lines to replay (empty when the miss
    /// does not continue a recorded stream).
    pub(crate) fn record_and_lookup(&mut self, line: CacheLineAddr) -> Vec<CacheLineAddr> {
        let replay = match self.index.get(&line) {
            Some(&pos) => self.successors(pos),
            None => Vec::new(),
        };
        self.push(line);
        replay
    }

    /// Number of recorded entries.
    pub(crate) fn len(&self) -> usize {
        if self.filled {
            self.history.capacity()
        } else {
            self.history.len()
        }
    }

    fn push(&mut self, line: CacheLineAddr) {
        if self.history.len() < self.history.capacity() {
            self.index.insert(line, self.history.len());
            self.history.push(line);
        } else {
            self.filled = true;
            let evicted = self.history[self.head];
            // Only clear the index if it still points at the slot being
            // overwritten (the line may have a fresher occurrence).
            if self.index.get(&evicted) == Some(&self.head) {
                self.index.remove(&evicted);
            }
            self.history[self.head] = line;
            self.index.insert(line, self.head);
            self.head = (self.head + 1) % self.history.capacity();
        }
    }

    fn successors(&self, pos: usize) -> Vec<CacheLineAddr> {
        let cap = self.history.capacity();
        let len = self.history.len();
        let mut out = Vec::with_capacity(self.replay_depth);
        let mut p = pos;
        for _ in 0..self.replay_depth {
            p = (p + 1) % cap.max(1);
            if !self.filled && p >= len {
                break;
            }
            if self.filled && p == self.head {
                break;
            }
            out.push(self.history[p]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: u64) -> CacheLineAddr {
        CacheLineAddr::from_line_number(n)
    }

    #[test]
    fn cold_misses_replay_nothing() {
        let mut st = StreamTable::new(64, 4);
        for n in 0..20 {
            assert!(st.record_and_lookup(line(n)).is_empty());
        }
        assert_eq!(st.len(), 20);
    }

    #[test]
    fn recurring_stream_is_replayed() {
        let mut st = StreamTable::new(64, 3);
        for n in [10, 11, 12, 13, 14] {
            st.record_and_lookup(line(n));
        }
        let replay = st.record_and_lookup(line(11));
        assert_eq!(replay, vec![line(12), line(13), line(14)]);
    }

    #[test]
    fn replay_uses_most_recent_occurrence() {
        let mut st = StreamTable::new(64, 2);
        // First occurrence of 5 followed by 6,7; second followed by 8,9.
        for n in [5, 6, 7, 5, 8, 9] {
            st.record_and_lookup(line(n));
        }
        let replay = st.record_and_lookup(line(5));
        assert_eq!(replay, vec![line(8), line(9)]);
    }

    #[test]
    fn replay_stops_at_write_head() {
        let mut st = StreamTable::new(64, 8);
        for n in [1, 2] {
            st.record_and_lookup(line(n));
        }
        // Only one successor exists.
        assert_eq!(st.record_and_lookup(line(1)), vec![line(2)]);
    }

    #[test]
    fn wraparound_keeps_index_consistent() {
        let mut st = StreamTable::new(8, 2);
        for n in 0..100 {
            st.record_and_lookup(line(n));
        }
        assert_eq!(st.len(), 8);
        // Old entries are gone from the index.
        assert!(st.record_and_lookup(line(0)).is_empty());
        // Wait: recording 0 again placed it in history; its successor is
        // whatever follows in the ring next time around.
        for n in 95..100 {
            // Recent entries may still replay.
            let _ = st.record_and_lookup(line(n));
        }
    }

    #[test]
    fn eviction_does_not_clobber_fresher_index() {
        let mut st = StreamTable::new(4, 2);
        // Fill: a b c d; then re-record a (index updated to new slot), then
        // push more to evict the original slot of a.
        for n in [1, 2, 3, 4] {
            st.record_and_lookup(line(n));
        }
        st.record_and_lookup(line(1)); // overwrites slot 0 (oldest is 1 itself)
        st.record_and_lookup(line(5));
        st.record_and_lookup(line(6));
        // `1` must still be indexed (its fresh occurrence).
        let replay = st.record_and_lookup(line(1));
        assert_eq!(replay, vec![line(5), line(6)]);
    }
}
