//! Boots the RiscyOO out-of-order core on a real program — with Sv39
//! paging, TLB misses, cache misses, branch prediction, and lock-step
//! golden-model checking — then prints the microarchitectural report.
//!
//! Run with: `cargo run --release --example boot_ooo`

use riscy_isa::asm::Assembler;
use riscy_isa::mem::{DRAM_BASE, MMIO_EXIT};
use riscy_isa::reg::Gpr;
use riscy_ooo::config::{mem_riscyoo_b, CoreConfig};
use riscy_ooo::soc::SocSim;
use riscy_workloads::runtime::{
    build_page_tables, emit_enter_supervisor, emit_exit_reg, PAGED_VA_BASE, RW,
};

fn main() {
    // A program that matters: in-place quicksort-ish selection sort of 64
    // values living in a 4 KiB-paged region (so translation is exercised),
    // running in S-mode.
    let paging = build_page_tables(16, RW);
    let mut a = Assembler::new(DRAM_BASE);
    emit_enter_supervisor(&mut a, paging.root_ppn, "sv");

    let n = 64i64;
    let base = PAGED_VA_BASE as i64;
    // init: arr[i] = (i * 37) % 101
    a.li(Gpr::t(0), base);
    a.li(Gpr::t(1), 0);
    a.label("init");
    a.li(Gpr::t(2), 37);
    a.mul(Gpr::t(3), Gpr::t(1), Gpr::t(2));
    a.li(Gpr::t(2), 101);
    a.remu(Gpr::t(3), Gpr::t(3), Gpr::t(2));
    a.sd(Gpr::t(3), 0, Gpr::t(0));
    a.addi(Gpr::t(0), Gpr::t(0), 8);
    a.addi(Gpr::t(1), Gpr::t(1), 1);
    a.li(Gpr::t(4), n);
    a.bne(Gpr::t(1), Gpr::t(4), "init");
    // selection sort
    a.li(Gpr::s(1), 0); // i
    a.label("outer");
    a.mv(Gpr::s(2), Gpr::s(1)); // min_idx = i
    a.addi(Gpr::s(3), Gpr::s(1), 1); // j
    a.label("inner");
    a.li(Gpr::t(4), n);
    a.bge(Gpr::s(3), Gpr::t(4), "swap");
    a.li(Gpr::t(0), base);
    a.slli(Gpr::t(1), Gpr::s(3), 3);
    a.add(Gpr::t(1), Gpr::t(0), Gpr::t(1));
    a.ld(Gpr::t(2), 0, Gpr::t(1)); // arr[j]
    a.slli(Gpr::t(3), Gpr::s(2), 3);
    a.add(Gpr::t(3), Gpr::t(0), Gpr::t(3));
    a.ld(Gpr::t(5), 0, Gpr::t(3)); // arr[min]
    a.bgeu(Gpr::t(2), Gpr::t(5), "no_new_min");
    a.mv(Gpr::s(2), Gpr::s(3));
    a.label("no_new_min");
    a.addi(Gpr::s(3), Gpr::s(3), 1);
    a.j("inner");
    a.label("swap");
    a.li(Gpr::t(0), base);
    a.slli(Gpr::t(1), Gpr::s(1), 3);
    a.add(Gpr::t(1), Gpr::t(0), Gpr::t(1));
    a.slli(Gpr::t(2), Gpr::s(2), 3);
    a.add(Gpr::t(2), Gpr::t(0), Gpr::t(2));
    a.ld(Gpr::t(3), 0, Gpr::t(1));
    a.ld(Gpr::t(4), 0, Gpr::t(2));
    a.sd(Gpr::t(4), 0, Gpr::t(1));
    a.sd(Gpr::t(3), 0, Gpr::t(2));
    a.addi(Gpr::s(1), Gpr::s(1), 1);
    a.li(Gpr::t(4), n - 1);
    a.blt(Gpr::s(1), Gpr::t(4), "outer");
    // checksum = sum(arr[i] * (i+1))
    a.li(Gpr::t(0), base);
    a.li(Gpr::t(1), 1);
    a.li(Gpr::s(0), 0);
    a.label("ck");
    a.ld(Gpr::t(2), 0, Gpr::t(0));
    a.mul(Gpr::t(2), Gpr::t(2), Gpr::t(1));
    a.add(Gpr::s(0), Gpr::s(0), Gpr::t(2));
    a.addi(Gpr::t(0), Gpr::t(0), 8);
    a.addi(Gpr::t(1), Gpr::t(1), 1);
    a.li(Gpr::t(4), n + 1);
    a.bne(Gpr::t(1), Gpr::t(4), "ck");
    emit_exit_reg(&mut a, Gpr::s(0), "done");
    let mut prog = a.assemble();
    for (pa, b) in paging.segments {
        prog.add_data(pa, b);
    }

    // Reference checksum.
    let mut arr: Vec<u64> = (0..64u64).map(|i| (i * 37) % 101).collect();
    arr.sort_unstable();
    let expect: u64 = arr
        .iter()
        .enumerate()
        .map(|(i, v)| v * (i as u64 + 1))
        .sum();

    let mut sim = SocSim::new(CoreConfig::riscyoo_t_plus(), mem_riscyoo_b(), 1, &prog);
    sim.soc_mut().enable_cosim(&prog);
    let cycles = sim.run_to_completion(5_000_000).expect("program completes");
    let code = sim.soc().devices.exited[0].read().expect("exited");
    assert_eq!(code, expect, "sorted checksum");
    assert_eq!(MMIO_EXIT, 0x1000_0000);

    let st = sim.soc().cores[0].stats;
    println!("RiscyOO-T+ booted, sorted 64 elements in S-mode with Sv39 paging");
    println!("  checksum           : {code} (golden-checked at every commit)");
    println!("  cycles             : {cycles}");
    println!("  instructions       : {}", st.committed);
    println!(
        "  IPC                : {:.3}",
        st.committed as f64 / cycles as f64
    );
    println!(
        "  branches           : {} ({} mispredicted)",
        st.branches, st.mispredicts
    );
    println!("  D TLB misses       : {}", st.dtlb_misses);
    println!("  page walks         : {}", sim.soc().cores[0].tlb.walks);
    println!(
        "  L1 D misses        : {}",
        sim.soc().mem.dcache_ref(0).stats.misses
    );
    println!("\nPer-rule scheduling report (the CMD view of the machine):");
    print!("{}", sim.report());
}
