//! The store buffer (paper §V-B): holds committed stores that have not yet
//! been written to L1 D, coalescing same-line stores (WMM only — under TSO
//! stores drain in order directly from the SQ).

use cmd_core::cell::Ehr;
use cmd_core::clock::Clock;
use cmd_core::guard::{Guarded, Stall};
use riscy_mem::msg::{line_of, Line};

use crate::mask::{occupied, SlotMask};

/// One 64-byte-wide store-buffer entry.
#[derive(Debug, Clone, Copy)]
pub struct SbEntry {
    /// Line address.
    pub line: u64,
    /// Data bytes (valid where `byte_en`).
    pub data: Line,
    /// Byte enables.
    pub byte_en: [bool; 64],
    /// Sent to L1 D (awaiting `respSt`).
    pub issued: bool,
}

/// Result of searching the store buffer for a load (paper's `search`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SbSearch {
    /// No overlapping bytes.
    Miss,
    /// Every load byte is covered: forward this value.
    Forward(u64),
    /// Some but not all bytes covered: the load must stall on this entry.
    Partial(usize),
}

/// The store buffer. `valid` is the occupancy bit-vector of `slots`: every
/// search iterates it and the full/empty answers read nothing else.
#[derive(Clone)]
pub struct StoreBuffer {
    slots: Vec<Ehr<Option<SbEntry>>>,
    valid: SlotMask,
}

impl StoreBuffer {
    /// Creates an empty buffer of `entries` lines (paper: 4 × 64 B).
    #[must_use]
    pub fn new(clk: &Clock, entries: usize) -> Self {
        StoreBuffer {
            slots: (0..entries).map(|_| Ehr::new(clk, None)).collect(),
            valid: SlotMask::new(clk, entries),
        }
    }

    /// Inserts a committed store, coalescing with an existing same-line
    /// entry that has not been issued yet (paper's `enq`); a new line takes
    /// the lowest free slot.
    ///
    /// # Errors
    ///
    /// Stalls when no entry can hold the store.
    pub fn enq(&self, addr: u64, bytes: u8, data: u64) -> Guarded<()> {
        let line = line_of(addr);
        // At most one entry per line: coalesce into an unissued same-line
        // entry; if the line's entry is already in flight to L1, stall —
        // two same-line entries would make `search` ambiguous and could
        // forward stale data to loads.
        let same_line = self.valid.iter().find_map(|i| {
            self.slots[i].with(|e| {
                let e = e.as_ref().expect("valid bit set");
                (e.line == line).then_some((i, e.issued))
            })
        });
        match same_line {
            Some((i, false)) => {
                self.slots[i].update(|e| {
                    write_bytes(e.as_mut().expect("checked"), addr, bytes, data);
                });
                return Ok(());
            }
            Some((_, true)) => return Err(Stall::new("same-line store in flight")),
            None => {}
        }
        let free = self
            .valid
            .first_clear()
            .ok_or(Stall::new("store buffer full"))?;
        let mut e = SbEntry {
            line,
            data: [0; 64],
            byte_en: [false; 64],
            issued: false,
        };
        write_bytes(&mut e, addr, bytes, data);
        self.slots[free].write(Some(e));
        self.valid.set(free);
        debug_assert!(self.masks_consistent());
        Ok(())
    }

    /// Picks an unissued entry to send to L1 D and marks it issued
    /// (paper's `issue`).
    ///
    /// # Errors
    ///
    /// Stalls when nothing is pending.
    pub fn issue(&self) -> Guarded<(usize, u64)> {
        let idx = self
            .valid
            .iter()
            .find(|&i| self.slots[i].with(|e| matches!(e, Some(e) if !e.issued)))
            .ok_or(Stall::new("nothing to issue"))?;
        let line = self.slots[idx].update(|e| {
            let e = e.as_mut().expect("checked");
            e.issued = true;
            e.line
        });
        Ok((idx, line))
    }

    /// Removes the entry at `idx` and returns its contents (paper's `deq`,
    /// called on `respSt`).
    ///
    /// # Panics
    ///
    /// Panics if the slot is empty.
    pub fn deq(&self, idx: usize) -> SbEntry {
        self.try_deq(idx).expect("deq of empty SB slot")
    }

    /// Removes the entry at `idx` if it is live — the fault-tolerant
    /// variant of [`deq`](Self::deq): a duplicated or spurious store
    /// response must be droppable without crashing the core.
    pub fn try_deq(&self, idx: usize) -> Option<SbEntry> {
        let e = self.slots.get(idx)?.read()?;
        self.slots[idx].write(None);
        self.valid.clear(idx);
        debug_assert!(self.masks_consistent());
        Some(e)
    }

    /// Searches for load bytes `[addr, addr+bytes)` (paper's `search`).
    #[must_use]
    pub fn search(&self, addr: u64, bytes: u8) -> SbSearch {
        let line = line_of(addr);
        for i in self.valid.iter() {
            let res = self.slots[i].with(|e| {
                let e = e.as_ref()?;
                if e.line != line {
                    return None;
                }
                let off = (addr - line) as usize;
                let covered = (0..bytes as usize).filter(|k| e.byte_en[off + k]).count();
                Some(if covered == bytes as usize {
                    let mut v = 0u64;
                    for k in (0..bytes as usize).rev() {
                        v = (v << 8) | u64::from(e.data[off + k]);
                    }
                    SbSearch::Forward(v)
                } else if covered > 0 {
                    SbSearch::Partial(i)
                } else {
                    SbSearch::Miss
                })
            });
            match res {
                Some(SbSearch::Miss) | None => continue,
                Some(hit) => return hit,
            }
        }
        SbSearch::Miss
    }

    /// Occupancy (a popcount).
    #[must_use]
    pub fn len(&self) -> usize {
        self.valid.count()
    }

    /// Whether the buffer is drained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.valid.is_empty()
    }

    /// Whether `valid` is what the slots say it is — the invariant `enq`
    /// and `deq` `debug_assert!`, and a snapshot restore checks. Public so
    /// tests outside the crate can also check it after an aborted rule.
    #[must_use]
    pub fn masks_consistent(&self) -> bool {
        self.valid.matches(occupied(&self.slots))
    }
}

fn write_bytes(e: &mut SbEntry, addr: u64, bytes: u8, data: u64) {
    let off = (addr - e.line) as usize;
    for k in 0..bytes as usize {
        e.data[off + k] = (data >> (8 * k)) as u8;
        e.byte_en[off + k] = true;
    }
}

cmd_core::snap_struct!(SbEntry {
    line,
    data,
    byte_en,
    issued,
});

#[cfg(test)]
mod tests {
    use super::*;

    fn in_rule<R>(clk: &Clock, f: impl FnOnce() -> R) -> R {
        clk.begin_rule();
        let r = f();
        clk.commit_rule();
        r
    }

    #[test]
    fn coalesces_same_line() {
        let clk = Clock::new();
        let sb = StoreBuffer::new(&clk, 2);
        in_rule(&clk, || {
            sb.enq(0x1000, 8, 0x1111_2222_3333_4444).unwrap();
            sb.enq(0x1008, 4, 0xaabb_ccdd).unwrap();
        });
        assert_eq!(sb.len(), 1, "same line coalesced");
        assert_eq!(sb.search(0x1008, 4), SbSearch::Forward(0xaabb_ccdd));
    }

    #[test]
    fn forward_and_partial_detection() {
        let clk = Clock::new();
        let sb = StoreBuffer::new(&clk, 2);
        in_rule(&clk, || {
            sb.enq(0x1004, 4, 0xdead_beef).unwrap();
        });
        assert_eq!(sb.search(0x1004, 4), SbSearch::Forward(0xdead_beef));
        assert_eq!(sb.search(0x1004, 2), SbSearch::Forward(0xbeef));
        assert_eq!(sb.search(0x1000, 8), SbSearch::Partial(0));
        assert_eq!(sb.search(0x1040, 8), SbSearch::Miss, "different line");
    }

    #[test]
    fn issue_then_deq_lifecycle() {
        let clk = Clock::new();
        let sb = StoreBuffer::new(&clk, 2);
        in_rule(&clk, || {
            sb.enq(0x2000, 8, 7).unwrap();
        });
        let (idx, line) = in_rule(&clk, || sb.issue().unwrap());
        assert_eq!(line, 0x2000);
        in_rule(&clk, || {
            assert!(sb.issue().is_err(), "already issued");
        });
        let e = in_rule(&clk, || sb.deq(idx));
        assert_eq!(e.data[0], 7);
        assert!(sb.is_empty());
    }

    #[test]
    fn no_coalescing_into_issued_entry() {
        let clk = Clock::new();
        let sb = StoreBuffer::new(&clk, 2);
        in_rule(&clk, || {
            sb.enq(0x3000, 8, 1).unwrap();
        });
        in_rule(&clk, || {
            sb.issue().unwrap();
        });
        in_rule(&clk, || {
            assert!(
                sb.enq(0x3008, 8, 2).is_err(),
                "same line in flight: must stall, never fork a second entry"
            );
            sb.enq(0x3040, 8, 2).unwrap();
        });
        assert_eq!(sb.len(), 2);
    }

    #[test]
    fn an_aborted_rule_rolls_slots_and_mask_back_together() {
        let clk = Clock::new();
        let sb = StoreBuffer::new(&clk, 66);
        in_rule(&clk, || {
            for k in 0..65 {
                sb.enq(0x1000 + 64 * k, 8, k).unwrap();
            }
        });
        clk.begin_rule();
        sb.enq(0x9_0000, 8, 1).unwrap();
        assert!(sb.enq(0xa_0000, 8, 1).is_err(), "full");
        sb.deq(3);
        sb.deq(64);
        clk.abort_rule();
        assert!(sb.masks_consistent());
        assert_eq!(sb.len(), 65);
        in_rule(&clk, || sb.enq(0x9_0000, 8, 1).unwrap());
        assert_eq!(sb.search(0x9_0000, 8), SbSearch::Forward(1));
        assert_eq!(sb.search(0x1000 + 64 * 64, 8), SbSearch::Forward(64));
    }

    #[test]
    fn capacity_stall() {
        let clk = Clock::new();
        let sb = StoreBuffer::new(&clk, 1);
        in_rule(&clk, || {
            sb.enq(0x1000, 8, 1).unwrap();
            assert!(sb.enq(0x2000, 8, 2).is_err());
        });
    }
}
