//! Property-style tests of the ISA layer: encode/decode round trips,
//! decoder totality, `li` correctness, and `SparseMem` against a byte-wise
//! model. Randomized cases come from the in-tree deterministic PRNG
//! (`cmd_core::rng`); each loop iteration is reproducible from its printed
//! seed.

use std::collections::BTreeMap;

use cmd_core::rng::SplitMix64;
use cmd_core::snap::{Snap, SnapWriter};
use riscy_isa::asm::Assembler;
use riscy_isa::inst::{
    decode, AluOp, AmoOp, BranchCond, CsrOp, CsrSrc, Instr, MemWidth, MulDivOp, Rhs,
};
use riscy_isa::interp::Machine;
use riscy_isa::mem::{SparseMem, DRAM_BASE, MMIO_EXIT};
use riscy_isa::reg::Gpr;

fn gpr(rng: &mut SplitMix64) -> Gpr {
    Gpr::new(rng.below(32) as u8)
}

fn mem_width(rng: &mut SplitMix64) -> MemWidth {
    *rng.pick(&[MemWidth::B, MemWidth::H, MemWidth::W, MemWidth::D])
}

/// Generates (almost) every representable instruction, uniformly over the
/// same variant families the old proptest strategy covered.
fn instr(rng: &mut SplitMix64) -> Instr {
    const ALU_OPS: [AluOp; 9] = [
        AluOp::Add,
        AluOp::Sll,
        AluOp::Slt,
        AluOp::Sltu,
        AluOp::Xor,
        AluOp::Srl,
        AluOp::Sra,
        AluOp::Or,
        AluOp::And,
    ];
    const MULDIV_OPS: [MulDivOp; 8] = [
        MulDivOp::Mul,
        MulDivOp::Mulh,
        MulDivOp::Mulhsu,
        MulDivOp::Mulhu,
        MulDivOp::Div,
        MulDivOp::Divu,
        MulDivOp::Rem,
        MulDivOp::Remu,
    ];
    const AMO_OPS: [AmoOp; 9] = [
        AmoOp::Swap,
        AmoOp::Add,
        AmoOp::Xor,
        AmoOp::And,
        AmoOp::Or,
        AmoOp::Min,
        AmoOp::Max,
        AmoOp::Minu,
        AmoOp::Maxu,
    ];
    match rng.below(14) {
        0 => Instr::Lui {
            rd: gpr(rng),
            imm: rng.range_i64(-(1 << 19), 1 << 19) << 12,
        },
        1 => Instr::Auipc {
            rd: gpr(rng),
            imm: rng.range_i64(-(1 << 19), 1 << 19) << 12,
        },
        2 => Instr::Jal {
            rd: gpr(rng),
            offset: rng.range_i64(-(1 << 19), 1 << 19) as i32 * 2,
        },
        3 => Instr::Jalr {
            rd: gpr(rng),
            rs1: gpr(rng),
            offset: rng.range_i64(-2048, 2048) as i32,
        },
        4 => Instr::Branch {
            cond: *rng.pick(&[
                BranchCond::Eq,
                BranchCond::Ne,
                BranchCond::Lt,
                BranchCond::Ge,
                BranchCond::Ltu,
                BranchCond::Geu,
            ]),
            rs1: gpr(rng),
            rs2: gpr(rng),
            offset: rng.range_i64(-2048, 2047) as i32 * 2,
        },
        5 => {
            let width = mem_width(rng);
            Instr::Load {
                width,
                signed: rng.chance(0.5) || width == MemWidth::D,
                rd: gpr(rng),
                rs1: gpr(rng),
                offset: rng.range_i64(-2048, 2048) as i32,
            }
        }
        6 => Instr::Store {
            width: mem_width(rng),
            rs2: gpr(rng),
            rs1: gpr(rng),
            offset: rng.range_i64(-2048, 2048) as i32,
        },
        7 => {
            let op = *rng.pick(&ALU_OPS);
            let word =
                rng.chance(0.5) && matches!(op, AluOp::Add | AluOp::Sll | AluOp::Srl | AluOp::Sra);
            Instr::Alu {
                op,
                word,
                rd: gpr(rng),
                rs1: gpr(rng),
                rhs: Rhs::Reg(gpr(rng)),
            }
        }
        8 => {
            let op = *rng.pick(&ALU_OPS);
            let word =
                rng.chance(0.5) && matches!(op, AluOp::Add | AluOp::Sll | AluOp::Srl | AluOp::Sra);
            let imm = rng.range_i64(-2048, 2048) as i32;
            let imm = match op {
                AluOp::Sll | AluOp::Srl | AluOp::Sra => imm.rem_euclid(if word { 32 } else { 64 }),
                _ => imm,
            };
            Instr::Alu {
                op,
                word,
                rd: gpr(rng),
                rs1: gpr(rng),
                rhs: Rhs::Imm(imm),
            }
        }
        9 => {
            let op = *rng.pick(&MULDIV_OPS);
            let word = rng.chance(0.5)
                && matches!(
                    op,
                    MulDivOp::Mul | MulDivOp::Div | MulDivOp::Divu | MulDivOp::Rem | MulDivOp::Remu
                );
            Instr::MulDiv {
                op,
                word,
                rd: gpr(rng),
                rs1: gpr(rng),
                rs2: gpr(rng),
            }
        }
        10 => Instr::Amo {
            op: *rng.pick(&AMO_OPS),
            width: *rng.pick(&[MemWidth::W, MemWidth::D]),
            rd: gpr(rng),
            rs1: gpr(rng),
            rs2: gpr(rng),
        },
        11 => Instr::Csr {
            op: *rng.pick(&[CsrOp::Rw, CsrOp::Rs, CsrOp::Rc]),
            rd: gpr(rng),
            src: if rng.chance(0.5) {
                CsrSrc::Reg(gpr(rng))
            } else {
                CsrSrc::Imm(rng.below(32) as u8)
            },
            csr: rng.below(4096) as u16,
        },
        12 => Instr::Fence,
        _ => *rng.pick(&[Instr::Ecall, Instr::Mret]),
    }
}

/// decode(encode(i)) == i for every representable instruction.
#[test]
fn encode_decode_roundtrip() {
    let mut rng = SplitMix64::seed_from_u64(0x15a_0001);
    for case in 0..4096 {
        let i = instr(&mut rng);
        let w = i.encode();
        assert_eq!(decode(w), Ok(i), "case {case}: {i:?}");
    }
}

/// The decoder is total: any 32-bit word either decodes or errors — and
/// re-encoding a successful decode reproduces semantics (checked via a
/// second decode; encodings may differ only in don't-care bits).
#[test]
fn decoder_never_panics_and_is_stable() {
    let mut rng = SplitMix64::seed_from_u64(0x15a_0002);
    for case in 0..16384 {
        let w = rng.next_u64() as u32;
        if let Ok(i) = decode(w) {
            let w2 = i.encode();
            assert_eq!(decode(w2), Ok(i), "case {case}: {w:#010x}");
        }
    }
}

/// The `li` pseudo-instruction materializes exactly its operand, for any
/// 64-bit value (executed on the golden interpreter).
#[test]
fn li_materializes_any_constant() {
    let mut rng = SplitMix64::seed_from_u64(0x15a_0003);
    // Edge values plus a uniform sweep.
    let mut cases = vec![
        0i64,
        1,
        -1,
        i64::MAX,
        i64::MIN,
        0x7ff,
        -0x800,
        1 << 31,
        -(1 << 31),
    ];
    cases.extend((0..192).map(|_| rng.next_u64() as i64));
    for v in cases {
        let mut a = Assembler::new(DRAM_BASE);
        a.li(Gpr::a(0), v);
        a.li(Gpr::t(6), MMIO_EXIT as i64);
        a.sd(Gpr::ZERO, 0, Gpr::t(6));
        let p = a.assemble();
        let mut m = Machine::with_program(1, &p);
        m.run(100).expect("halts");
        assert_eq!(m.hart(0).reg(Gpr::a(0)), v as u64, "value {v:#x}");
    }
}

/// The byte-wise reference `SparseMem` is checked against: one map entry
/// per byte ever written, a frame resident iff one of its bytes was, a line
/// written iff one of its bytes was.
#[derive(Default)]
struct ByteMem(BTreeMap<u64, u8>);

impl ByteMem {
    fn read(&self, pa: u64, n: u64) -> Vec<u8> {
        (pa..pa + n)
            .map(|a| self.0.get(&a).copied().unwrap_or(0))
            .collect()
    }

    fn write(&mut self, pa: u64, bytes: &[u8]) {
        for (a, &b) in (pa..).zip(bytes) {
            self.0.insert(a, b);
        }
    }

    /// Resident frames, ascending: one range probe per frame.
    fn frames(&self) -> Vec<u64> {
        let (mut frames, mut from) = (Vec::new(), 0);
        while let Some((a, _)) = self.0.range(from..).next() {
            frames.push(a / PAGE);
            from = (a / PAGE + 1) * PAGE;
        }
        frames
    }

    /// The written lines of frame `f`, ascending, as indices in the frame.
    fn lines(&self, f: u64) -> Vec<u64> {
        let (mut lines, mut from) = (Vec::new(), f * PAGE);
        while let Some((a, _)) = self.0.range(from..(f + 1) * PAGE).next() {
            lines.push(a % PAGE / LINE);
            from = (a / LINE + 1) * LINE;
        }
        lines
    }

    /// `SparseMem`'s snapshot encoding: frame count, then each frame's
    /// number and record in ascending frame order: a frame with one written
    /// line is kind 1, the line's index and its 64 bytes; any other is
    /// kind 0 and its 4 KiB.
    fn save(&self) -> Vec<u8> {
        let frames = self.frames();
        let mut out = (frames.len() as u64).to_le_bytes().to_vec();
        for f in frames {
            out.extend_from_slice(&f.to_le_bytes());
            let mut page = [0u8; PAGE as usize];
            for (a, &b) in self.0.range(f * PAGE..(f + 1) * PAGE) {
                page[(a % PAGE) as usize] = b;
            }
            match self.lines(f)[..] {
                [line] => {
                    out.extend_from_slice(&[1, line as u8]);
                    out.extend_from_slice(&page[(line * LINE) as usize..][..LINE as usize]);
                }
                _ => {
                    out.push(0);
                    out.extend_from_slice(&page);
                }
            }
        }
        out
    }
}

const PAGE: u64 = 4096;
const LINE: u64 = 64;

fn le(bytes: &[u8]) -> u64 {
    bytes.iter().rev().fold(0, |v, &b| (v << 8) | u64::from(b))
}

/// `SparseMem` against the byte-wise model over random operation
/// sequences: after every operation the value read, `resident_pages()` and
/// the `Snap::save` bytes agree. Accesses land in lines 0, 1, 31 and 63 of
/// 32 frames, half of them at the last 7 bytes of the line, where a 2-,
/// 4- or 8-byte access crosses into the next line (from line 63, into the
/// next frame): one-line frames see accesses that cross out of their line
/// and into a neighbour, reads of their unwritten lines, and the write to a
/// second line that makes them a page. The run counts those events and
/// requires each.
#[test]
fn sparse_mem_matches_a_byte_model() {
    let untouched = DRAM_BASE + 64 * PAGE;
    let fresh = SparseMem::new();
    assert_eq!(fresh.read_le(untouched + 4093, 8), 0);
    assert_eq!(fresh.read_u64(untouched), 0);
    assert_eq!(fresh.read_line(untouched + 64), [0; 64]);
    assert_eq!(fresh.resident_pages(), 0, "a read allocated a frame");

    // One-line frames seen after a step, promotions to a page, reads that
    // cross a one-line frame's line, and reads of a resident frame's
    // unwritten line.
    let mut seen = [0u32; 4];
    for seed in 0..6 {
        let mut rng = SplitMix64::seed_from_u64(0x15a_0100 + seed);
        let (mut mem, mut model) = (SparseMem::new(), ByteMem::default());
        for step in 0..400 {
            let frame = DRAM_BASE + rng.below(32) * PAGE;
            let line = *rng.pick(&[0u64, 1, 31, 63]);
            let off = line * LINE
                + if rng.chance(0.5) {
                    rng.range_u64(LINE - 7, LINE)
                } else {
                    rng.below(LINE)
                };
            let width = *rng.pick(&[1u64, 2, 4, 8]);
            let ctx = format!("seed {seed} step {step}");
            let one_line = |model: &ByteMem, pa: u64| model.lines(pa / PAGE).len() == 1;
            let lines_before = model.lines(frame / PAGE).len();
            match rng.below(8) {
                0 | 1 => {
                    // Half the reads of a one-line frame end its line.
                    let pa = match model.lines(frame / PAGE)[..] {
                        [l] if rng.chance(0.5) => frame + l * LINE + rng.range_u64(LINE - 7, LINE),
                        _ => frame + off,
                    };
                    if one_line(&model, pa) && (pa % LINE + width > LINE) {
                        seen[2] += 1;
                    }
                    assert_eq!(mem.read_le(pa, width), le(&model.read(pa, width)), "{ctx}");
                }
                2 | 3 => {
                    let (pa, v) = (frame + off, rng.next_u64());
                    mem.write_le(pa, width, v);
                    model.write(pa, &v.to_le_bytes()[..width as usize]);
                }
                4 => {
                    let pa = frame + (off & !7);
                    assert_eq!(mem.read_u64(pa), le(&model.read(pa, 8)), "{ctx}");
                }
                5 => {
                    // Any line of the frame, written or not.
                    let pa = frame + rng.below(PAGE / LINE) * LINE;
                    if !model.lines(frame / PAGE).is_empty()
                        && !model.lines(frame / PAGE).contains(&(pa % PAGE / LINE))
                    {
                        seen[3] += 1;
                    }
                    assert_eq!(mem.read_line(pa)[..], model.read(pa, 64)[..], "{ctx}");
                }
                6 => {
                    let pa = frame + (off & !63);
                    let mut line = [0u8; 64];
                    line.iter_mut().for_each(|b| *b = rng.next_u64() as u8);
                    mem.write_line(pa, &line);
                    model.write(pa, &line);
                }
                _ if rng.chance(0.1) => {
                    // Rest of this frame, all of the next, part of a third.
                    let pa = frame + off;
                    let len = (PAGE - off) + PAGE + rng.range_u64(1, PAGE);
                    let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
                    mem.write_bytes(pa, &bytes);
                    model.write(pa, &bytes);
                }
                _ => assert_eq!(mem.read_le(untouched + off, width), 0, "{ctx}"),
            }
            if lines_before == 1 && model.lines(frame / PAGE).len() > 1 {
                seen[1] += 1;
            }
            let frames = model.frames();
            seen[0] += frames
                .iter()
                .filter(|&&f| model.lines(f).len() == 1)
                .count() as u32;
            assert_eq!(mem.resident_pages(), frames.len(), "{ctx}");
            let mut w = SnapWriter::new();
            mem.save(&mut w);
            assert!(
                w.into_bytes() == model.save(),
                "{ctx}: snapshot bytes differ"
            );
        }
    }
    println!("coverage {seen:?}");
    assert!(seen.iter().all(|&n| n > 20), "coverage {seen:?}");
}
