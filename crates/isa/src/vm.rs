//! Sv39 virtual memory: PTE formats and the page-table walk.
//!
//! The walk is a pure function over a PTE-read callback so the golden
//! interpreter, the hardware page walker, and tests all share one
//! implementation of the architecture's semantics while supplying their own
//! memory access (and latency accounting).

use crate::csr::Priv;

/// Page size (4 KiB) and related constants.
pub const PAGE_SHIFT: u32 = 12;
/// Bytes per page.
pub const PAGE_SIZE: u64 = 1 << PAGE_SHIFT;
/// Levels of an Sv39 page table (2 = root).
pub const LEVELS: usize = 3;

/// satp mode value selecting Sv39.
pub const SATP_MODE_SV39: u64 = 8;

/// PTE flag bits.
pub mod pte {
    /// Valid.
    pub const V: u64 = 1 << 0;
    /// Readable.
    pub const R: u64 = 1 << 1;
    /// Writable.
    pub const W: u64 = 1 << 2;
    /// Executable.
    pub const X: u64 = 1 << 3;
    /// User-accessible.
    pub const U: u64 = 1 << 4;
    /// Global.
    pub const G: u64 = 1 << 5;
    /// Accessed.
    pub const A: u64 = 1 << 6;
    /// Dirty.
    pub const D: u64 = 1 << 7;
}

/// Access type of a translation request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Access {
    /// Instruction fetch.
    Fetch,
    /// Data load (including LR and the read half of AMOs).
    Load,
    /// Data store (including SC and AMOs).
    Store,
}

/// A failed translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PageFault {
    /// The faulting virtual address.
    pub va: u64,
    /// The access type that faulted.
    pub access: Access,
}

cmd_core::snap_enum!(Access {
    0 => Fetch,
    1 => Load,
    2 => Store,
});

cmd_core::snap_struct!(PageFault { va, access });

cmd_core::snap_struct!(Translation {
    pa,
    pte,
    level,
    steps,
});

/// A successful translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Translation {
    /// Physical address corresponding to the requested virtual address.
    pub pa: u64,
    /// The leaf PTE.
    pub pte: u64,
    /// Level at which the leaf was found (0 = 4 KiB page, 1 = 2 MiB,
    /// 2 = 1 GiB).
    pub level: usize,
    /// Number of PTE memory reads the walk performed.
    pub steps: usize,
}

impl Translation {
    /// Size in bytes of the page this translation covers.
    #[must_use]
    pub fn page_size(&self) -> u64 {
        PAGE_SIZE << (9 * self.level)
    }
}

/// Extracts the root page-table PPN from `satp`.
#[must_use]
pub fn satp_root_ppn(satp: u64) -> u64 {
    satp & ((1 << 44) - 1)
}

/// Whether `satp` enables Sv39 translation.
#[must_use]
pub fn satp_sv39_enabled(satp: u64) -> bool {
    satp >> 60 == SATP_MODE_SV39
}

/// Virtual page numbers of `va` (index 0 = lowest level).
#[must_use]
pub fn vpns(va: u64) -> [u64; LEVELS] {
    [(va >> 12) & 0x1ff, (va >> 21) & 0x1ff, (va >> 30) & 0x1ff]
}

/// Checks that the upper bits of `va` are the sign extension of bit 38.
#[must_use]
pub fn va_canonical(va: u64) -> bool {
    let top = va >> 38;
    top == 0 || top == (1 << 26) - 1
}

fn leaf_permits(pte_val: u64, access: Access, priv_mode: Priv) -> bool {
    // Simplified policy: S may access non-U pages, U may access only U
    // pages; MXR/SUM are not modeled (workloads do not rely on them).
    let user_page = pte_val & pte::U != 0;
    match priv_mode {
        Priv::U if !user_page => return false,
        Priv::S if user_page => return false,
        _ => {}
    }
    let ok_type = match access {
        Access::Fetch => pte_val & pte::X != 0,
        Access::Load => pte_val & pte::R != 0,
        Access::Store => pte_val & pte::W != 0,
    };
    if !ok_type {
        return false;
    }
    // Hardware without Svade-style A/D updates faults when A (or D on
    // stores) is clear; our page tables pre-set them.
    if pte_val & pte::A == 0 {
        return false;
    }
    if access == Access::Store && pte_val & pte::D == 0 {
        return false;
    }
    true
}

/// Performs an Sv39 walk for `va` from the table rooted at `root_ppn`,
/// reading PTEs through `read_pte` (physical-address → 64-bit PTE).
///
/// # Errors
///
/// Returns [`PageFault`] on non-canonical addresses, invalid or misaligned
/// PTEs, and permission failures.
pub fn walk_sv39(
    root_ppn: u64,
    va: u64,
    access: Access,
    priv_mode: Priv,
    mut read_pte: impl FnMut(u64) -> u64,
) -> Result<Translation, PageFault> {
    let fault = PageFault { va, access };
    if !va_canonical(va) {
        return Err(fault);
    }
    let vpn = vpns(va);
    let mut table_ppn = root_ppn;
    for level in (0..LEVELS).rev() {
        let pte_pa = (table_ppn << PAGE_SHIFT) + vpn[level] * 8;
        let p = read_pte(pte_pa);
        // PTE reads so far: one per visited level, root-down.
        let steps = LEVELS - level;
        if p & pte::V == 0 {
            return Err(fault);
        }
        let is_leaf = p & (pte::R | pte::W | pte::X) != 0;
        if !is_leaf {
            // W-without-R or X-only pointer PTEs are malformed.
            if level == 0 {
                return Err(fault);
            }
            table_ppn = p >> 10;
            continue;
        }
        if !leaf_permits(p, access, priv_mode) {
            return Err(fault);
        }
        let ppn = p >> 10;
        // Superpage alignment: low PPN bits must be zero.
        let align_mask = (1u64 << (9 * level)) - 1;
        if ppn & align_mask != 0 {
            return Err(fault);
        }
        let page_off_bits = PAGE_SHIFT + 9 * level as u32;
        let pa = ((ppn >> (9 * level)) << page_off_bits) | (va & ((1 << page_off_bits) - 1));
        return Ok(Translation {
            pa,
            pte: p,
            level,
            steps,
        });
    }
    Err(fault)
}

/// Helper to compose a leaf PTE from a physical page number and flags.
#[must_use]
pub fn make_leaf(ppn: u64, flags: u64) -> u64 {
    (ppn << 10) | flags | pte::V
}

/// Helper to compose a pointer (non-leaf) PTE to the table at `ppn`.
#[must_use]
pub fn make_pointer(ppn: u64) -> u64 {
    (ppn << 10) | pte::V
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// A toy physical memory of PTEs for walk tests.
    struct PteMem(HashMap<u64, u64>);

    impl PteMem {
        fn read(&self) -> impl FnMut(u64) -> u64 + '_ {
            move |pa| *self.0.get(&pa).unwrap_or(&0)
        }
    }

    const RWX: u64 = pte::R | pte::W | pte::X | pte::A | pte::D;

    fn two_level_setup() -> PteMem {
        // root at ppn 1, second level at ppn 2, third at ppn 3,
        // mapping va 0x0040_0000.. (vpn2=0, vpn1=2, vpn0=0) to ppn 0x80.
        let mut m = HashMap::new();
        m.insert(1 << 12, make_pointer(2));
        m.insert((2 << 12) + 2 * 8, make_pointer(3));
        m.insert(3 << 12, make_leaf(0x80, RWX));
        PteMem(m)
    }

    #[test]
    fn walks_three_levels() {
        let m = two_level_setup();
        let t = walk_sv39(1, 0x0040_0123, Access::Load, Priv::S, m.read()).unwrap();
        assert_eq!(t.pa, (0x80 << 12) | 0x123);
        assert_eq!(t.level, 0);
        assert_eq!(t.steps, 3);
    }

    #[test]
    fn invalid_pte_faults() {
        let m = two_level_setup();
        let r = walk_sv39(1, 0x0060_0000, Access::Load, Priv::S, m.read());
        assert!(r.is_err(), "unmapped vpn1 must fault");
    }

    #[test]
    fn write_to_readonly_faults() {
        let mut m = two_level_setup();
        m.0.insert((3 << 12) + 8, make_leaf(0x81, pte::R | pte::A));
        let ok = walk_sv39(1, 0x0040_1000, Access::Load, Priv::S, m.read());
        assert!(ok.is_ok());
        let bad = walk_sv39(1, 0x0040_1000, Access::Store, Priv::S, m.read());
        assert_eq!(
            bad.unwrap_err(),
            PageFault {
                va: 0x0040_1000,
                access: Access::Store
            }
        );
    }

    #[test]
    fn fetch_requires_x() {
        let mut m = two_level_setup();
        m.0.insert((3 << 12) + 2 * 8, make_leaf(0x82, pte::R | pte::A));
        let r = walk_sv39(1, 0x0040_2000, Access::Fetch, Priv::S, m.read());
        assert!(r.is_err());
    }

    #[test]
    fn gigapage_translation() {
        let mut m = HashMap::new();
        // vpn2 = 2 → 1 GiB leaf at ppn 0x40000 (1 GiB aligned).
        m.insert((1 << 12) + 2 * 8, make_leaf(0x40000, RWX));
        let t = walk_sv39(1, 0x8000_1234, Access::Fetch, Priv::S, |pa| {
            *m.get(&pa).unwrap_or(&0)
        })
        .unwrap();
        assert_eq!(t.level, 2);
        assert_eq!(t.steps, 1);
        assert_eq!(t.pa, (0x40000u64 << 12) + 0x1234);
        assert_eq!(t.page_size(), 1 << 30);
    }

    #[test]
    fn misaligned_superpage_faults() {
        let mut m = HashMap::new();
        m.insert((1 << 12) + 2 * 8, make_leaf(0x40001, RWX)); // not 1 GiB aligned
        let r = walk_sv39(1, 0x8000_0000, Access::Load, Priv::S, |pa| {
            *m.get(&pa).unwrap_or(&0)
        });
        assert!(r.is_err());
    }

    #[test]
    fn non_canonical_va_faults() {
        let m = two_level_setup();
        assert!(walk_sv39(1, 1 << 45, Access::Load, Priv::S, m.read()).is_err());
        // Properly sign-extended high address is canonical.
        assert!(va_canonical(0xffff_ffc0_0000_0000));
        assert!(!va_canonical(0x0000_8000_0000_0000));
    }

    #[test]
    fn user_page_protection() {
        let mut m = two_level_setup();
        m.0.insert((3 << 12) + 3 * 8, make_leaf(0x83, RWX | pte::U));
        let s = walk_sv39(1, 0x0040_3000, Access::Load, Priv::S, m.read());
        assert!(s.is_err(), "S cannot touch U pages (no SUM)");
        let u = walk_sv39(1, 0x0040_3000, Access::Load, Priv::U, m.read());
        assert!(u.is_ok());
        let u_nonu = walk_sv39(1, 0x0040_0000, Access::Load, Priv::U, m.read());
        assert!(u_nonu.is_err(), "U cannot touch S pages");
    }

    #[test]
    fn clear_accessed_bit_faults() {
        let mut m = two_level_setup();
        m.0.insert((3 << 12) + 4 * 8, make_leaf(0x84, pte::R | pte::W));
        let r = walk_sv39(1, 0x0040_4000, Access::Load, Priv::S, m.read());
        assert!(r.is_err(), "A=0 must fault in this model");
    }
}
