//! Deliberately naive, obviously-correct reference models for the
//! differential tier.
//!
//! [`RefBtb`] is the pre-PR-1 BTB layout: one heap-allocated `Vec` per
//! set, linear probe, MRU maintained with `remove` + `insert(0)`. It is
//! slow and simple on purpose — the optimized flat
//! [`Btb`](crate::Btb) is cross-checked against it lockstep under
//! `paranoid`, so hot-loop rewrites can never silently diverge again.
//! [`RefRas`] is likewise a plain bounded deque stack shadowing the
//! circular [`Ras`](crate::Ras).

use std::collections::VecDeque;

use twig_types::{Addr, BranchKind};

use crate::config::BtbGeometry;

/// One reference-BTB entry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RefEntry {
    /// Tag (PC bits above the set index).
    pub tag: u64,
    /// Predicted taken target.
    pub target: Addr,
    /// Stored branch classification.
    pub kind: BranchKind,
}

/// The naive nested-`Vec` set-associative BTB (pre-PR-1 layout).
///
/// Index math is identical to the flat [`Btb`](crate::Btb) — same
/// `set_shift`, same tag split, same evicted-PC reconstruction — only the
/// storage strategy differs, which is exactly the part PR 1 rewrote.
#[derive(Clone, Debug)]
pub struct RefBtb {
    sets: Vec<Vec<RefEntry>>,
    ways: usize,
    set_shift: u32,
    set_bits: u32,
    set_mask: u64,
}

impl RefBtb {
    /// Creates an empty reference BTB with the given geometry.
    pub fn new(geometry: BtbGeometry) -> Self {
        let sets = geometry.sets();
        let set_mask = sets as u64 - 1;
        RefBtb {
            sets: vec![Vec::new(); sets],
            ways: geometry.ways,
            set_shift: 1,
            set_bits: set_mask.count_ones(),
            set_mask,
        }
    }

    fn set_and_tag(&self, pc: Addr) -> (usize, u64) {
        let key = pc.raw() >> self.set_shift;
        ((key & self.set_mask) as usize, key >> self.set_bits)
    }

    /// Looks up `pc`, promoting the entry to MRU on hit.
    pub fn lookup(&mut self, pc: Addr) -> Option<RefEntry> {
        let (set, tag) = self.set_and_tag(pc);
        let ways = &mut self.sets[set];
        let pos = ways.iter().position(|e| e.tag == tag)?;
        let entry = ways.remove(pos);
        ways.insert(0, entry);
        Some(entry)
    }

    /// Inserts or updates at MRU, returning the evicted entry's
    /// reconstructed PC if the set overflowed.
    pub fn insert(&mut self, pc: Addr, target: Addr, kind: BranchKind) -> Option<Addr> {
        let (set, tag) = self.set_and_tag(pc);
        let ways = &mut self.sets[set];
        if let Some(pos) = ways.iter().position(|e| e.tag == tag) {
            ways.remove(pos);
            ways.insert(0, RefEntry { tag, target, kind });
            return None;
        }
        ways.insert(0, RefEntry { tag, target, kind });
        if ways.len() > self.ways {
            let victim = ways.pop().expect("overfull set has a tail");
            let key = (victim.tag << self.set_bits) | set as u64;
            return Some(Addr::new(key << self.set_shift));
        }
        None
    }

    /// Removes the entry for `pc` if present.
    pub fn invalidate(&mut self, pc: Addr) -> bool {
        let (set, tag) = self.set_and_tag(pc);
        let ways = &mut self.sets[set];
        match ways.iter().position(|e| e.tag == tag) {
            Some(pos) => {
                ways.remove(pos);
                true
            }
            None => false,
        }
    }

    /// Clears all entries.
    pub fn clear(&mut self) {
        for set in &mut self.sets {
            set.clear();
        }
    }

    /// Number of resident entries.
    pub fn occupancy(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    /// The MRU-first live entries of `set`.
    pub fn set_entries(&self, set: usize) -> &[RefEntry] {
        &self.sets[set]
    }
}

/// The naive bounded-deque return address stack shadowing
/// [`Ras`](crate::Ras).
///
/// Oldest entry at the front; a push past capacity drops the oldest (the
/// circular RAS's overwrite-oldest overflow, an O(1) `pop_front` here), a
/// pop from empty returns `None` (the underflow semantics pinned in
/// `ras.rs`).
#[derive(Clone, Debug)]
pub struct RefRas {
    stack: VecDeque<Addr>,
    capacity: usize,
}

impl RefRas {
    /// Creates an empty reference RAS.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "RAS capacity must be positive");
        RefRas {
            stack: VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    /// Pushes, dropping the oldest entry on overflow.
    pub fn push(&mut self, addr: Addr) {
        if self.stack.len() == self.capacity {
            self.stack.pop_front();
        }
        self.stack.push_back(addr);
    }

    /// Pops the youngest entry, or `None` if empty.
    pub fn pop(&mut self) -> Option<Addr> {
        self.stack.pop_back()
    }

    /// The youngest entry without popping.
    pub fn peek(&self) -> Option<Addr> {
        self.stack.back().copied()
    }

    /// Live entries.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Live entries, oldest first.
    pub fn entries(&self) -> impl ExactSizeIterator<Item = Addr> + '_ {
        self.stack.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(v: u64) -> Addr {
        Addr::new(v)
    }

    #[test]
    fn ref_btb_matches_flat_btb_on_a_mixed_op_stream() {
        use crate::btb::Btb;
        let geometry = BtbGeometry::new(64, 4);
        let mut flat = Btb::new(geometry);
        let mut naive = RefBtb::new(geometry);
        // A deterministic multiplicative-congruential stream of mixed ops.
        let mut x: u64 = 0x9e37_79b9;
        for i in 0..4000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let pc = a(0x1000 + (x >> 33) % 512 * 2);
            match i % 7 {
                0..=2 => {
                    let evicted = flat.insert(pc, a(i), BranchKind::DirectJump);
                    let ref_evicted = naive.insert(pc, a(i), BranchKind::DirectJump);
                    assert_eq!(evicted, ref_evicted, "eviction diverged at op {i}");
                }
                3 | 4 => {
                    let hit = flat.lookup(pc).map(|e| (e.target, e.kind));
                    let ref_hit = naive.lookup(pc).map(|e| (e.target, e.kind));
                    assert_eq!(hit, ref_hit, "lookup diverged at op {i}");
                }
                5 => {
                    assert_eq!(flat.invalidate(pc), naive.invalidate(pc));
                }
                _ => {
                    let p = flat.probe(pc).map(|e| (e.target, e.kind));
                    let rp = naive
                        .set_entries(naive.set_and_tag(pc).0)
                        .iter()
                        .find(|e| e.tag == naive.set_and_tag(pc).1)
                        .map(|e| (e.target, e.kind));
                    assert_eq!(p, rp, "probe diverged at op {i}");
                }
            }
        }
        assert_eq!(flat.occupancy(), naive.occupancy());
    }

    #[test]
    fn ref_ras_matches_circular_ras() {
        use crate::ras::Ras;
        let mut real = Ras::new(4);
        let mut naive = RefRas::new(4);
        let ops = [1, 2, 3, 4, 5, 6, 0, 0, 7, 0, 0, 0, 0, 0, 8];
        for &op in &ops {
            if op == 0 {
                assert_eq!(real.pop(), naive.pop());
            } else {
                real.push(a(op));
                naive.push(a(op));
            }
            assert_eq!(real.peek(), naive.peek());
            assert_eq!(real.depth(), naive.depth());
        }
    }

    #[test]
    fn ref_btb_eviction_reconstruction() {
        let mut naive = RefBtb::new(BtbGeometry::new(8, 1));
        let first = a(0x1000);
        let second = a(0x1000 + (8 << 1) * 64);
        naive.insert(first, a(1), BranchKind::DirectJump);
        assert_eq!(naive.insert(second, a(2), BranchKind::DirectJump), Some(first));
    }
}
