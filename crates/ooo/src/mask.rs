//! Occupancy bit-vectors for the slot-array structures.
//!
//! The paper's IQ and LSQ are bit-vector/CAM structures (§V-A, §V-B): every
//! search looks at all entries at once and "is anything ready?" is one
//! OR-reduction. A [`SlotMask`] is that bit-vector next to a
//! `Vec<Ehr<Option<Entry>>>`: one bit per slot in ordinary clocked `u64`
//! cells, written change-only in the same rule that changes the slot, so
//! slot and bit commit or roll back together and a scan costs what is
//! occupied instead of what the structure can hold.
//!
//! A mask is *derived* state: its owner can always recompute it from the
//! slots ([`SlotMask::matches`] is the invariant every mutating method
//! `debug_assert!`s). Its words are cells like any other, so a snapshot
//! saves them with the slots, and a restore checks the invariant. Any slot
//! count is legal — 64 slots per word cell, as many cells as it takes.

use cmd_core::cell::Ehr;
use cmd_core::clock::Clock;

/// One bit per slot of a slot-array structure.
#[derive(Clone)]
pub(crate) struct SlotMask {
    words: Vec<Ehr<u64>>,
    len: usize,
}

impl SlotMask {
    /// An all-clear mask over `len` slots.
    pub(crate) fn new(clk: &Clock, len: usize) -> Self {
        SlotMask {
            words: (0..len.div_ceil(64)).map(|_| Ehr::new(clk, 0)).collect(),
            len,
        }
    }

    /// Sets bit `i`; a bit already set opens no transaction.
    pub(crate) fn set(&self, i: usize) {
        let bit = 1u64 << (i % 64);
        self.words[i / 64].update_if(|w| w & bit == 0, |w| *w |= bit);
    }

    /// Clears bit `i`; a bit already clear opens no transaction.
    pub(crate) fn clear(&self, i: usize) {
        let bit = 1u64 << (i % 64);
        self.words[i / 64].update_if(|w| w & bit != 0, |w| *w &= !bit);
    }

    /// Clears every bit, touching only words that have one set.
    pub(crate) fn clear_all(&self) {
        for w in &self.words {
            w.update_if(|w| *w != 0, |w| *w = 0);
        }
    }

    /// Whether no bit is set.
    pub(crate) fn is_empty(&self) -> bool {
        self.words.iter().all(|w| w.read() == 0)
    }

    /// Number of set bits.
    pub(crate) fn count(&self) -> usize {
        self.words
            .iter()
            .map(|w| w.read().count_ones() as usize)
            .sum()
    }

    /// The lowest clear bit, `None` when every slot's bit is set.
    pub(crate) fn first_clear(&self) -> Option<usize> {
        self.words.iter().enumerate().find_map(|(k, w)| {
            let i = k * 64 + (!w.read()).trailing_zeros() as usize;
            // In the last word the bits past `len` are clear but not slots.
            (i < (k + 1) * 64 && i < self.len).then_some(i)
        })
    }

    /// The set bits, ascending. Each word is read when the walk reaches it,
    /// so the caller may set or clear bits of slots it has been handed.
    pub(crate) fn iter(&self) -> Bits<'_> {
        Bits {
            mask: self,
            next_word: 0,
            cur: 0,
        }
    }

    /// Whether the mask holds exactly `bits` (one per slot, in slot order).
    pub(crate) fn matches(&self, bits: impl Iterator<Item = bool>) -> bool {
        self.iter()
            .eq(bits.enumerate().filter_map(|(i, b)| b.then_some(i)))
    }
}

/// What a valid mask over `slots` must hold, slot by slot.
pub(crate) fn occupied<T: Clone>(slots: &[Ehr<Option<T>>]) -> impl Iterator<Item = bool> + '_ {
    slots.iter().map(|s| s.with(Option::is_some))
}

/// Iterator over the set bits of a [`SlotMask`].
pub(crate) struct Bits<'a> {
    mask: &'a SlotMask,
    next_word: usize,
    /// Unvisited bits of word `next_word - 1`.
    cur: u64,
}

impl Iterator for Bits<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.cur == 0 {
            let k = self.next_word;
            self.cur = self.mask.words.get(k)?.read();
            self.next_word += 1;
        }
        let i = (self.next_word - 1) * 64 + self.cur.trailing_zeros() as usize;
        self.cur &= self.cur - 1;
        Some(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(m: &SlotMask) -> Vec<usize> {
        m.iter().collect()
    }

    #[test]
    fn set_clear_and_iterate_across_word_boundaries() {
        for len in [1, 3, 63, 64, 65, 80, 128, 130] {
            let clk = Clock::new();
            let m = SlotMask::new(&clk, len);
            assert!(m.is_empty());
            assert_eq!(m.first_clear(), Some(0));
            let picks: Vec<usize> = [0, 2, 62, 63, 64, 79, 127, 129]
                .into_iter()
                .filter(|&i| i < len)
                .collect();
            for &i in &picks {
                m.set(i);
            }
            assert_eq!(bits(&m), picks, "len {len}");
            assert_eq!(m.count(), picks.len());
            assert!(m.matches((0..len).map(|i| picks.contains(&i))));
            for &i in &picks {
                m.clear(i);
            }
            assert!(m.is_empty(), "len {len}");
        }
    }

    #[test]
    fn first_clear_is_the_lowest_free_slot_and_none_when_full() {
        for len in [1, 3, 64, 65, 80] {
            let clk = Clock::new();
            let m = SlotMask::new(&clk, len);
            for i in 0..len {
                assert_eq!(m.first_clear(), Some(i), "len {len}");
                m.set(i);
            }
            assert_eq!(m.first_clear(), None, "full at len {len}");
            m.clear(len / 2);
            assert_eq!(m.first_clear(), Some(len / 2));
        }
        let clk = Clock::new();
        assert_eq!(SlotMask::new(&clk, 0).first_clear(), None);
    }

    #[test]
    fn the_walk_tolerates_clearing_the_bit_it_just_yielded() {
        let clk = Clock::new();
        let m = SlotMask::new(&clk, 70);
        for i in [0, 1, 2, 66, 69] {
            m.set(i);
        }
        let mut seen = Vec::new();
        for i in m.iter() {
            m.clear(i);
            seen.push(i);
        }
        assert_eq!(seen, vec![0, 1, 2, 66, 69]);
        assert!(m.is_empty());
    }

    #[test]
    fn writes_are_change_only_and_roll_back_with_the_rule() {
        let clk = Clock::new();
        let m = SlotMask::new(&clk, 80);
        m.set(3);
        clk.begin_rule();
        m.set(3);
        m.clear(4);
        m.clear(70);
        assert!(clk.enlisted_cells().is_empty(), "no bit changed");
        m.set(70);
        assert_eq!(clk.enlisted_cells().len(), 1, "only the second word");
        m.clear_all();
        assert_eq!(clk.enlisted_cells().len(), 2);
        assert!(m.is_empty());
        clk.abort_rule();
        assert_eq!(bits(&m), vec![3], "abort restores every word");
        clk.begin_rule();
        SlotMask::new(&clk, 8).clear_all();
        assert!(clk.enlisted_cells().is_empty(), "clearing nothing is free");
        clk.abort_rule();
    }
}
