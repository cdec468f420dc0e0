//! Property-style tests of the memory substrate: TLB-vs-walk agreement,
//! queue timing, and cache-hierarchy equivalence with flat memory under
//! random request streams — randomized with the in-tree deterministic PRNG
//! (each loop iteration reproduces from its printed seed).

use cmd_core::rng::SplitMix64;
use cmd_core::snap::{SnapReader, SnapWriter, Snapshot};
use riscy_isa::csr::Priv;
use riscy_isa::mem::{SparseMem, DRAM_BASE};
use riscy_isa::vm::{self, make_leaf, make_pointer, pte, Access};
use riscy_mem::cache::L1Config;
use riscy_mem::dram::DramConfig;
use riscy_mem::l2::{L2Config, UncachedReq};
use riscy_mem::msg::{CoreReq, CoreResp, Msi};
use riscy_mem::queue::TimedQueue;
use riscy_mem::system::{MemConfig, MemSystem};
use riscy_mem::tlb::Tlb;
use std::collections::HashMap;

/// A TLB filled from walks translates exactly as the walk does, for every
/// offset within a page.
#[test]
fn tlb_agrees_with_walk() {
    for seed in 0..60u64 {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let ppns: Vec<u64> = (0..rng.range_usize(4, 16))
            .map(|_| rng.range_u64(1, 0x1000))
            .collect();
        let probe_off = rng.below(4096);

        let mut mem: HashMap<u64, u64> = HashMap::new();
        mem.insert(1 << 12, make_pointer(2));
        mem.insert(2 << 12, make_pointer(3));
        let flags = pte::R | pte::W | pte::A | pte::D;
        for (i, ppn) in ppns.iter().enumerate() {
            mem.insert((3 << 12) + 8 * i as u64, make_leaf(*ppn, flags));
        }
        let mut tlb = Tlb::new(ppns.len());
        for (i, _) in ppns.iter().enumerate() {
            let va = (i as u64) << 12;
            let t = vm::walk_sv39(1, va, Access::Load, Priv::S, |pa| {
                *mem.get(&pa).unwrap_or(&0)
            })
            .expect("mapped");
            tlb.fill(va, &t);
        }
        for (i, ppn) in ppns.iter().enumerate() {
            let va = ((i as u64) << 12) | probe_off;
            let via_tlb = tlb
                .lookup(va, Access::Load, Priv::S)
                .expect("filled")
                .expect("permits loads");
            let via_walk = vm::walk_sv39(1, va, Access::Load, Priv::S, |pa| {
                *mem.get(&pa).unwrap_or(&0)
            })
            .unwrap()
            .pa;
            assert_eq!(via_tlb, via_walk, "seed {seed}");
            assert_eq!(via_tlb, (*ppn << 12) | probe_off, "seed {seed}");
        }
    }
}

/// TimedQueue delivers in FIFO order, never before `latency` cycles.
#[test]
fn timed_queue_orders_and_delays() {
    for seed in 0..100u64 {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let latency = rng.below(10);
        let pushes: Vec<u32> = (0..rng.range_usize(1, 32))
            .map(|_| rng.next_u64() as u32)
            .collect();

        let mut q = TimedQueue::new(latency, pushes.len());
        for (t, v) in pushes.iter().enumerate() {
            q.push(t as u64, *v).unwrap();
        }
        // Nothing may be delivered before the first entry's due time.
        if latency > 0 {
            assert!(
                q.pop_ready(latency.saturating_sub(1)).is_none(),
                "seed {seed}"
            );
        }
        let mut out = Vec::new();
        let mut now = 0;
        while out.len() < pushes.len() {
            while let Some(v) = q.pop_ready(now) {
                out.push(v);
            }
            now += 1;
            assert!(
                now < pushes.len() as u64 + latency + 2,
                "seed {seed}: delivery overdue"
            );
        }
        assert_eq!(out, pushes, "seed {seed}");
    }
}

fn snap_bytes(sys: &MemSystem) -> Vec<u8> {
    let mut w = SnapWriter::new();
    sys.snap_save(&mut w);
    w.into_bytes()
}

/// While nothing is due (`next_event() > now`), a tick changes nothing but
/// the clock — the last eight snapshot bytes — and `skip(n)` up to the
/// event is `n` ticks byte for byte: what lets the SoC jump its clock.
/// Random L1 I/D loads, stores held locked for a while before their data
/// is written, and page-walker reads on two cores, over caches small enough
/// to evict, recall and defer downgrades.
#[test]
fn ticks_before_the_next_event_change_only_the_clock() {
    for seed in 0..6u64 {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let l1 = L1Config {
            size_bytes: 2048,
            ways: 2,
            mshrs: 4,
            hit_latency: 2,
        };
        let cfg = MemConfig {
            l1i: l1,
            l1d: l1,
            l2: L2Config {
                size_bytes: 8192,
                ways: 2,
                max_trans: 4,
                dram: DramConfig {
                    latency: 40,
                    max_outstanding: 4,
                    cycles_per_line: 5,
                },
                mesi: rng.chance(0.5),
            },
            xbar_latency: 2,
            l2_pipe_latency: 3,
        };
        let restored = |bytes: &[u8]| {
            let mut s = MemSystem::new(cfg, 2, SparseMem::new());
            s.snap_restore(&mut SnapReader::new(bytes))
                .expect("own bytes");
            s
        };
        let mut sys = MemSystem::new(cfg, 2, SparseMem::new());
        let rate = *rng.pick(&[0.02, 0.08, 0.3]);
        let mut locked: Vec<(u64, u64)> = Vec::new(); // (write_data at step, line)
        let mut store_lines: HashMap<u32, u64> = HashMap::new();
        let (mut quiet, mut skips) = (0, 0);
        for step in 0..1200u64 {
            let ctx = format!("seed {seed} step {step}");
            let core = rng.below(2) as usize;
            let addr = DRAM_BASE + (rng.below(0x4000) & !7);
            if rng.chance(rate) {
                match rng.below(3) {
                    0 if sys.icache(core).can_accept() => {
                        let req = CoreReq::Ld {
                            tag: step as u32,
                            addr,
                            bytes: 4,
                        };
                        sys.icache(core).request(req).expect("accepts");
                    }
                    1 if sys.dcache(core).can_accept() => {
                        let req = CoreReq::Ld {
                            tag: step as u32,
                            addr,
                            bytes: 8,
                        };
                        sys.dcache(core).request(req).expect("accepts");
                    }
                    2 if sys.dcache(core).can_accept() => {
                        let sb_idx = step as u32 * 2 + core as u32;
                        store_lines.insert(sb_idx, addr & !63);
                        let req = CoreReq::St {
                            sb_idx,
                            line: addr & !63,
                        };
                        sys.dcache(core).request(req).expect("accepts");
                    }
                    _ => {}
                }
            }
            if rng.chance(rate / 4.0) {
                sys.push_walker_req(UncachedReq {
                    core,
                    tag: step,
                    addr,
                });
            }
            let now = sys.now();
            for c in 0..2 {
                while let Some(r) = sys.dcache(c).pop_resp(now) {
                    if let CoreResp::St { sb_idx } = r {
                        locked.push((step + rng.below(20), store_lines[&sb_idx]));
                    }
                }
                while sys.icache(c).pop_resp(now).is_some() {}
                while sys.pop_walker_resp(c).is_some() {}
            }
            locked.retain(|&(at, line)| {
                if at > step {
                    return true;
                }
                let c = (0..2)
                    .find(|&c| sys.dcache_ref(c).line_state(line) == Msi::M)
                    .expect("a granted store holds its line in M");
                sys.dcache(c).write_data(line, &[0xa5; 64], &[true; 64]);
                false
            });
            let next = sys.next_event();
            if next == sys.now() {
                sys.tick();
                continue;
            }
            quiet += 1;
            let before = snap_bytes(&sys);
            if rng.chance(0.2) {
                let n = (next - sys.now()).min(rng.range_u64(1, 64));
                let mut stepped = restored(&before);
                for _ in 0..n {
                    stepped.tick();
                }
                let mut jumped = restored(&before);
                jumped.skip(n);
                assert_eq!(
                    snap_bytes(&stepped),
                    snap_bytes(&jumped),
                    "{ctx}: skip({n})"
                );
                skips += 1;
            }
            sys.tick();
            let after = snap_bytes(&sys);
            let state = before.len() - 8;
            assert_eq!(before.len(), after.len(), "{ctx}");
            assert!(
                before[..state] == after[..state],
                "{ctx}: a quiet tick changed state"
            );
        }
        assert!(
            quiet > 100 && skips > 10,
            "seed {seed}: {quiet} quiet ticks, {skips} skips"
        );
    }
}

/// One serialized random request stream through the full cache hierarchy
/// must behave exactly like flat memory.
#[derive(Debug, Clone, Copy)]
enum MemOp {
    Load { off: u64, bytes: u8 },
    Store { off: u64, val: u64 },
}

fn mem_op(rng: &mut SplitMix64) -> MemOp {
    if rng.chance(0.5) {
        let bytes = *rng.pick(&[1u8, 2, 4, 8]);
        let off = rng.below(0x4000);
        MemOp::Load {
            off: off & !(u64::from(bytes) - 1),
            bytes,
        }
    } else {
        MemOp::Store {
            off: rng.below(0x4000) & !7,
            val: rng.next_u64(),
        }
    }
}

#[test]
fn hierarchy_equals_flat_memory_serialized() {
    for seed in 0..24u64 {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let ops: Vec<MemOp> = (0..rng.range_usize(1, 60))
            .map(|_| mem_op(&mut rng))
            .collect();

        let mut flat = SparseMem::new();
        let mut sys = MemSystem::new(MemConfig::default(), 1, SparseMem::new());
        for (i, op) in ops.iter().enumerate() {
            match *op {
                MemOp::Load { off, bytes } => {
                    let addr = DRAM_BASE + off;
                    sys.dcache(0)
                        .request(CoreReq::Ld {
                            tag: i as u32,
                            addr,
                            bytes,
                        })
                        .unwrap();
                    let mut got = None;
                    for _ in 0..2000 {
                        let now = sys.now();
                        if let Some(CoreResp::Ld { data, .. }) = sys.dcache(0).pop_resp(now) {
                            got = Some(data);
                            break;
                        }
                        sys.tick();
                    }
                    let expect = flat.read_le(addr, u64::from(bytes));
                    assert_eq!(got, Some(expect), "seed {seed}: load @{addr:#x}");
                }
                MemOp::Store { off, val } => {
                    let addr = DRAM_BASE + off;
                    let line = addr & !63;
                    sys.dcache(0)
                        .request(CoreReq::St { sb_idx: 0, line })
                        .unwrap();
                    let mut granted = false;
                    for _ in 0..2000 {
                        let now = sys.now();
                        if let Some(CoreResp::St { .. }) = sys.dcache(0).pop_resp(now) {
                            granted = true;
                            break;
                        }
                        sys.tick();
                    }
                    assert!(granted, "seed {seed}");
                    let mut data = [0u8; 64];
                    let mut en = [false; 64];
                    let o = (addr - line) as usize;
                    for k in 0..8 {
                        data[o + k] = (val >> (8 * k)) as u8;
                        en[o + k] = true;
                    }
                    sys.dcache(0).write_data(line, &data, &en);
                    flat.write_le(addr, 8, val);
                }
            }
        }
    }
}
