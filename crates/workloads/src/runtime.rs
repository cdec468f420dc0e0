//! Bare-metal runtime for the benchmark proxies: Sv39 page-table
//! construction, supervisor entry, per-hart exit, ROI markers, spinlocks
//! and barriers.
//!
//! This substitutes for the paper's Linux environment: paging is enabled
//! (so the TLB/page-walk path of Figs. 15–16 is exercised identically) but
//! there are no system calls — the paper's benchmarks are also measured
//! purely in their compute regions.

use riscy_isa::asm::Assembler;
use riscy_isa::csr::addr as csr;
use riscy_isa::mem::{DRAM_BASE, MMIO_EXIT, MMIO_ROI};
use riscy_isa::reg::Gpr;
use riscy_isa::vm::{make_leaf, make_pointer, pte, SATP_MODE_SV39};

/// Physical base of the page-table pool.
pub const TABLE_BASE: u64 = DRAM_BASE + 0x40_0000;
/// Virtual base of the 4 KiB-paged data region (vpn2 = 32).
pub const PAGED_VA_BASE: u64 = 32 << 30;
/// Physical base backing the 4 KiB-paged region.
pub const PAGED_PA_BASE: u64 = DRAM_BASE + 0x100_0000;

/// Flags for a normal read-write data page.
pub const RW: u64 = pte::R | pte::W | pte::A | pte::D;
/// Flags for read-only data.
pub const RO: u64 = pte::R | pte::A;

/// The produced paging structures.
#[derive(Debug, Clone)]
pub struct Paging {
    /// Root page-table PPN (for satp).
    pub root_ppn: u64,
    /// Data segments holding the page tables.
    pub segments: Vec<(u64, Vec<u8>)>,
}

/// Builds Sv39 page tables: identity gigapages for DRAM (RWX) and the MMIO
/// block (RW), plus `n_pages` 4 KiB pages mapping
/// `PAGED_VA_BASE + i*4K → PAGED_PA_BASE + i*4K`.
///
/// # Panics
///
/// Panics if `n_pages` exceeds the paged region (2 GiB worth of PTEs).
#[must_use]
pub fn build_page_tables(n_pages: usize, flags: u64) -> Paging {
    assert!(n_pages <= 512 * 512, "paged region too large");
    let mut tables: Vec<(u64, Vec<u64>)> = Vec::new();
    let mut next_page = TABLE_BASE;
    let mut alloc = || {
        let pa = next_page;
        next_page += 4096;
        (pa, vec![0u64; 512])
    };
    let (root_pa, mut root) = alloc();

    // Identity gigapages.
    let dram_vpn2 = (DRAM_BASE >> 30) as usize; // = 2
    root[dram_vpn2] = make_leaf(DRAM_BASE >> 12, pte::R | pte::W | pte::X | pte::A | pte::D);
    root[0] = make_leaf(0, RW); // covers the MMIO block

    // The 4 KiB-paged region.
    if n_pages > 0 {
        let vpn2 = (PAGED_VA_BASE >> 30) as usize;
        let (l1_pa, mut l1) = alloc();
        root[vpn2] = make_pointer(l1_pa >> 12);
        let n_l0 = n_pages.div_ceil(512);
        let mut l0_tables = Vec::new();
        for (t, l1_slot) in l1.iter_mut().take(n_l0).enumerate() {
            let (l0_pa, mut l0) = alloc();
            *l1_slot = make_pointer(l0_pa >> 12);
            for (i, l0_slot) in l0.iter_mut().enumerate() {
                let page = t * 512 + i;
                if page >= n_pages {
                    break;
                }
                let pa = PAGED_PA_BASE + (page as u64) * 4096;
                *l0_slot = make_leaf(pa >> 12, flags);
            }
            l0_tables.push((l0_pa, l0));
        }
        tables.push((l1_pa, l1));
        tables.extend(l0_tables);
    }
    tables.push((root_pa, root));

    let segments = tables
        .into_iter()
        .map(|(pa, words)| {
            let mut bytes = Vec::with_capacity(words.len() * 8);
            for w in words {
                bytes.extend_from_slice(&w.to_le_bytes());
            }
            (pa, bytes)
        })
        .collect();
    Paging {
        root_ppn: root_pa >> 12,
        segments,
    }
}

/// Emits the M→S transition: program satp, fence, and `mret` into S-mode at
/// the next instruction. Clobbers `t0`/`t1`.
pub fn emit_enter_supervisor(a: &mut Assembler, root_ppn: u64, label: &str) {
    let satp = (SATP_MODE_SV39 << 60) | root_ppn;
    a.li(Gpr::t(0), satp as i64);
    a.csrw(csr::SATP, Gpr::t(0));
    a.sfence_vma();
    // mstatus.MPP = 01 (S-mode).
    a.li(Gpr::t(0), 1 << 11);
    a.csrw(csr::MSTATUS, Gpr::t(0));
    a.la(Gpr::t(1), label);
    a.csrw(csr::MEPC, Gpr::t(1));
    a.mret();
    a.label(label);
}

/// Emits the ROI-begin marker (store 1 to the ROI device). Clobbers
/// `t0`/`t1`.
pub fn emit_roi_begin(a: &mut Assembler) {
    a.li(Gpr::t(0), MMIO_ROI as i64);
    a.li(Gpr::t(1), 1);
    a.sd(Gpr::t(1), 0, Gpr::t(0));
}

/// Emits the ROI-end marker. Clobbers `t0`.
pub fn emit_roi_end(a: &mut Assembler) {
    a.li(Gpr::t(0), MMIO_ROI as i64);
    a.sd(Gpr::ZERO, 0, Gpr::t(0));
}

/// Emits the exit sequence with the value of `reg`, then an idle loop.
/// Clobbers `t6`. Uses a unique hang label per call site via `tag`.
pub fn emit_exit_reg(a: &mut Assembler, reg: Gpr, tag: &str) {
    a.li(Gpr::t(6), MMIO_EXIT as i64);
    a.sd(reg, 0, Gpr::t(6));
    let label = format!("__hang_{tag}");
    a.label(&label);
    a.j(&label);
}

/// Emits a per-hart exit (`MMIO_EXIT + 8*mhartid`), then an idle loop.
/// Clobbers `t3`/`t4`. `tag` must be unique per call site.
pub fn emit_exit_hart(a: &mut Assembler, code_reg: Gpr, tag: &str) {
    a.csrr(Gpr::t(3), csr::MHARTID);
    a.slli(Gpr::t(3), Gpr::t(3), 3);
    a.li(Gpr::t(4), MMIO_EXIT as i64);
    a.add(Gpr::t(4), Gpr::t(4), Gpr::t(3));
    a.sd(code_reg, 0, Gpr::t(4));
    let label = format!("__hang_{tag}");
    a.label(&label);
    a.j(&label);
}

/// Emits a spinlock acquire on the word at address in `addr_reg`.
/// Clobbers `t0`/`t1`. `tag` must be unique per call site.
pub fn emit_lock_acquire(a: &mut Assembler, addr_reg: Gpr, tag: &str) {
    let label = format!("__acq_{tag}");
    a.label(&label);
    a.li(Gpr::t(0), 1);
    a.amoswap_w(Gpr::t(1), Gpr::t(0), addr_reg);
    a.bnez(Gpr::t(1), &label);
    a.fence();
}

/// Emits a spinlock release. Clobbers nothing beyond the AMO.
pub fn emit_lock_release(a: &mut Assembler, addr_reg: Gpr) {
    a.fence();
    a.amoswap_w(Gpr::ZERO, Gpr::ZERO, addr_reg);
}

/// Emits a sense-reversing barrier for `nthreads` harts.
///
/// `counter_reg`/`sense_reg` hold the addresses of the barrier counter and
/// sense word; `local_sense` is a callee-owned register holding this hart's
/// current sense (initialized to 0 before the first barrier). Clobbers
/// `t0`–`t2`. `tag` must be unique per call site.
pub fn emit_barrier(
    a: &mut Assembler,
    counter_reg: Gpr,
    sense_reg: Gpr,
    local_sense: Gpr,
    nthreads: i64,
    tag: &str,
) {
    // local_sense = 1 - local_sense
    a.xori(local_sense, local_sense, 1);
    a.fence();
    // arrivals = amoadd(counter, 1) + 1
    a.li(Gpr::t(0), 1);
    a.amoadd_d(Gpr::t(1), Gpr::t(0), counter_reg);
    a.addi(Gpr::t(1), Gpr::t(1), 1);
    a.li(Gpr::t(2), nthreads);
    let last = format!("__bar_last_{tag}");
    let wait = format!("__bar_wait_{tag}");
    let done = format!("__bar_done_{tag}");
    a.beq(Gpr::t(1), Gpr::t(2), &last);
    // Waiters spin until the sense flips.
    a.label(&wait);
    a.lw(Gpr::t(0), 0, sense_reg);
    a.bne(Gpr::t(0), local_sense, &wait);
    a.j(&done);
    // The last arriver resets the counter and flips the sense.
    a.label(&last);
    a.sd(Gpr::ZERO, 0, counter_reg);
    a.fence();
    a.sw(local_sense, 0, sense_reg);
    a.label(&done);
    a.fence();
}

/// Builds a little-endian `u64` data segment from words.
#[must_use]
pub fn words_segment(words: &[u64]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(words.len() * 8);
    for w in words {
        bytes.extend_from_slice(&w.to_le_bytes());
    }
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use riscy_isa::interp::Machine;

    #[test]
    fn page_tables_translate_paged_region() {
        let paging = build_page_tables(1024, RW);
        let mut mem = riscy_isa::mem::SparseMem::new();
        for (pa, bytes) in &paging.segments {
            mem.write_bytes(*pa, bytes);
        }
        // Walk VA PAGED_VA_BASE + 0x5123 by hand.
        let t = riscy_isa::vm::walk_sv39(
            paging.root_ppn,
            PAGED_VA_BASE + 0x5123,
            riscy_isa::vm::Access::Load,
            riscy_isa::csr::Priv::S,
            |pa| mem.read_u64(pa),
        )
        .expect("mapped");
        assert_eq!(t.pa, PAGED_PA_BASE + 0x5123);
        // DRAM gigapage.
        let t2 = riscy_isa::vm::walk_sv39(
            paging.root_ppn,
            DRAM_BASE + 0x1234,
            riscy_isa::vm::Access::Fetch,
            riscy_isa::csr::Priv::S,
            |pa| mem.read_u64(pa),
        )
        .expect("identity mapped");
        assert_eq!(t2.pa, DRAM_BASE + 0x1234);
        // Unmapped page faults.
        assert!(riscy_isa::vm::walk_sv39(
            paging.root_ppn,
            PAGED_VA_BASE + 1024 * 4096,
            riscy_isa::vm::Access::Load,
            riscy_isa::csr::Priv::S,
            |pa| mem.read_u64(pa),
        )
        .is_err());
    }

    #[test]
    fn supervisor_entry_runs_paged_code_on_golden_model() {
        let paging = build_page_tables(4, RW);
        let mut a = Assembler::new(DRAM_BASE);
        emit_enter_supervisor(&mut a, paging.root_ppn, "sv");
        // Touch the paged region.
        a.li(Gpr::t(0), PAGED_VA_BASE as i64);
        a.li(Gpr::t(1), 0xabcd);
        a.sd(Gpr::t(1), 0, Gpr::t(0));
        a.ld(Gpr::s(0), 0, Gpr::t(0));
        emit_exit_reg(&mut a, Gpr::s(0), "t");
        let mut prog = a.assemble();
        for (pa, b) in paging.segments {
            prog.add_data(pa, b);
        }
        let mut m = Machine::with_program(1, &prog);
        m.run(10_000).expect("halts");
        assert_eq!(m.hart(0).halted, Some(0xabcd));
        assert_eq!(
            m.mem().read_u64(PAGED_PA_BASE),
            0xabcd,
            "VA→PA mapping used"
        );
    }

    #[test]
    fn barrier_and_locks_work_on_golden_model() {
        let mut a = Assembler::new(DRAM_BASE);
        let bar_counter = (DRAM_BASE + 0x20_0000) as i64;
        let bar_sense = bar_counter + 64;
        let lock = bar_counter + 128;
        let shared = bar_counter + 192;
        a.li(Gpr::s(4), bar_counter);
        a.li(Gpr::s(5), bar_sense);
        a.li(Gpr::s(6), lock);
        a.li(Gpr::s(7), shared);
        a.li(Gpr::s(10), 0); // local sense
        for round in 0..3 {
            emit_lock_acquire(&mut a, Gpr::s(6), &format!("r{round}"));
            a.ld(Gpr::t(2), 0, Gpr::s(7));
            a.addi(Gpr::t(2), Gpr::t(2), 1);
            a.sd(Gpr::t(2), 0, Gpr::s(7));
            emit_lock_release(&mut a, Gpr::s(6));
            emit_barrier(
                &mut a,
                Gpr::s(4),
                Gpr::s(5),
                Gpr::s(10),
                2,
                &format!("r{round}"),
            );
        }
        a.ld(Gpr::s(0), 0, Gpr::s(7));
        emit_exit_hart(&mut a, Gpr::s(0), "t");
        let prog = a.assemble();
        let mut m = Machine::with_program(2, &prog);
        m.run(1_000_000).expect("halts");
        // Both harts incremented 3 times under the lock.
        assert_eq!(m.mem().read_u64(shared as u64), 6);
    }
}
