//! SPEC2000-like composites for the Table 3 block-count study.
//!
//! Each of the 19 programs chains several *phases* — parameterized loop
//! nests mirroring the dominant kernel shapes of its namesake benchmark
//! (DESIGN.md, substitution 2/3). Phases interact through memory, and every
//! phase has an independent Rust reference implementation, so each
//! composite's expected result is computed without the IR interpreter.

use crate::helpers::{counted_loop, if_then, if_then_else, random_memory, start, while_loop};
use crate::Workload;
use chf_ir::builder::FunctionBuilder;
use chf_ir::fxhash::FxHashMap;
use chf_ir::ids::Reg;
use chf_ir::instr::Operand;

fn reg(r: Reg) -> Operand {
    Operand::Reg(r)
}

fn imm(v: i64) -> Operand {
    Operand::Imm(v)
}

/// One loop-nest phase of a composite program.
#[derive(Clone, Debug)]
enum Phase {
    /// `for i in 0..n: acc += m[src+i] * ((i & 7) + 1)`
    Mac { src: i64, n: i64 },
    /// `for i in 0..n: if m[src+i] < thr { acc += 3v } else { acc -= v }`
    CondScan { src: i64, n: i64, thr: i64 },
    /// Low-trip while loops: `for i in 0..n: x = m[src+i]; while x != 0 { acc += x & 1; x /= 2 }`
    WhileHalve { src: i64, n: i64 },
    /// `dst[j*dim+i] = src[i*dim+j]`, acc ^= moved values
    Transpose { src: i64, dst: i64, dim: i64 },
    /// `c = a × b` (dim×dim), acc += diagonal of c
    Matmul { a: i64, b: i64, c: i64, dim: i64 },
    /// FIR filter with a low-trip inner tap loop
    Fir { src: i64, n: i64, taps: i64 },
    /// Rolling hash over a byte stream
    Hash { src: i64, n: i64 },
    /// `for i in 0..n: m[dst + (i*stride) % n] = i`, acc += stored
    StrideStore { dst: i64, n: i64, stride: i64 },
    /// Pointer-chasing-ish: `acc += m[tbl + (m[idx+i] & mask)]`
    Indirect {
        idx: i64,
        tbl: i64,
        n: i64,
        mask: i64,
    },
    /// Running maximum with an increasingly-rare update branch
    MaxScan { src: i64, n: i64 },
    /// A hot loop with a rare event arm ahead of the induction update
    RareEvent { src: i64, n: i64, rare: i64 },
}

impl Phase {
    /// Emit IR for this phase; `acc` is the running checksum register.
    fn emit(&self, fb: &mut FunctionBuilder, acc: Reg) {
        match *self {
            Phase::Mac { src, n } => {
                counted_loop(fb, imm(n), |fb, i| {
                    let a = fb.add(imm(src), reg(i));
                    let v = fb.load(reg(a));
                    let w0 = fb.and(reg(i), imm(7));
                    let w = fb.add(reg(w0), imm(1));
                    let p = fb.mul(reg(v), reg(w));
                    let s = fb.add(reg(acc), reg(p));
                    fb.mov_to(acc, reg(s));
                });
            }
            Phase::CondScan { src, n, thr } => {
                counted_loop(fb, imm(n), |fb, i| {
                    let a = fb.add(imm(src), reg(i));
                    let v = fb.load(reg(a));
                    let c = fb.cmp_lt(reg(v), imm(thr));
                    if_then_else(
                        fb,
                        c,
                        |fb| {
                            let t = fb.mul(reg(v), imm(3));
                            let s = fb.add(reg(acc), reg(t));
                            fb.mov_to(acc, reg(s));
                        },
                        |fb| {
                            let s = fb.sub(reg(acc), reg(v));
                            fb.mov_to(acc, reg(s));
                        },
                    );
                });
            }
            Phase::WhileHalve { src, n } => {
                counted_loop(fb, imm(n), |fb, i| {
                    let a = fb.add(imm(src), reg(i));
                    let v = fb.load(reg(a));
                    let x = fb.mov(reg(v));
                    while_loop(
                        fb,
                        |fb| fb.cmp_ne(reg(x), imm(0)),
                        |fb| {
                            let bit = fb.and(reg(x), imm(1));
                            let s = fb.add(reg(acc), reg(bit));
                            fb.mov_to(acc, reg(s));
                            let h = fb.div(reg(x), imm(2));
                            fb.mov_to(x, reg(h));
                        },
                    );
                });
            }
            Phase::Transpose { src, dst, dim } => {
                counted_loop(fb, imm(dim), |fb, i| {
                    counted_loop(fb, imm(dim), |fb, j| {
                        let row = fb.mul(reg(i), imm(dim));
                        let so = fb.add(reg(row), reg(j));
                        let sa = fb.add(imm(src), reg(so));
                        let v = fb.load(reg(sa));
                        let col = fb.mul(reg(j), imm(dim));
                        let dof = fb.add(reg(col), reg(i));
                        let da = fb.add(imm(dst), reg(dof));
                        fb.store(reg(da), reg(v));
                        let x = fb.xor(reg(acc), reg(v));
                        fb.mov_to(acc, reg(x));
                    });
                });
            }
            Phase::Matmul { a, b, c, dim } => {
                counted_loop(fb, imm(dim), |fb, i| {
                    counted_loop(fb, imm(dim), |fb, j| {
                        let s = fb.mov(imm(0));
                        counted_loop(fb, imm(dim), |fb, k| {
                            let ar = fb.mul(reg(i), imm(dim));
                            let ao = fb.add(reg(ar), reg(k));
                            let aa = fb.add(imm(a), reg(ao));
                            let av = fb.load(reg(aa));
                            let br = fb.mul(reg(k), imm(dim));
                            let bo = fb.add(reg(br), reg(j));
                            let ba = fb.add(imm(b), reg(bo));
                            let bv = fb.load(reg(ba));
                            let p = fb.mul(reg(av), reg(bv));
                            let s2 = fb.add(reg(s), reg(p));
                            fb.mov_to(s, reg(s2));
                        });
                        let cr = fb.mul(reg(i), imm(dim));
                        let co = fb.add(reg(cr), reg(j));
                        let ca = fb.add(imm(c), reg(co));
                        fb.store(reg(ca), reg(s));
                        let diag = fb.cmp_eq(reg(i), reg(j));
                        if_then(fb, diag, |fb| {
                            let s2 = fb.add(reg(acc), reg(s));
                            fb.mov_to(acc, reg(s2));
                        });
                    });
                });
            }
            Phase::Fir { src, n, taps } => {
                counted_loop(fb, imm(n), |fb, i| {
                    let s = fb.mov(imm(0));
                    counted_loop(fb, imm(taps), |fb, t| {
                        let a0 = fb.add(imm(src), reg(i));
                        let a1 = fb.add(reg(a0), reg(t));
                        let v = fb.load(reg(a1));
                        let w = fb.add(reg(t), imm(2));
                        let p = fb.mul(reg(v), reg(w));
                        let s2 = fb.add(reg(s), reg(p));
                        fb.mov_to(s, reg(s2));
                    });
                    let sc = fb.shr(reg(s), imm(2));
                    let a2 = fb.add(reg(acc), reg(sc));
                    fb.mov_to(acc, reg(a2));
                });
            }
            Phase::Hash { src, n } => {
                let h = fb.mov(imm(0));
                counted_loop(fb, imm(n), |fb, i| {
                    let a = fb.add(imm(src), reg(i));
                    let v = fb.load(reg(a));
                    let sh = fb.shl(reg(h), imm(5));
                    let x = fb.xor(reg(sh), reg(v));
                    let m = fb.and(reg(x), imm(8191));
                    fb.mov_to(h, reg(m));
                });
                let s = fb.add(reg(acc), reg(h));
                fb.mov_to(acc, reg(s));
            }
            Phase::StrideStore { dst, n, stride } => {
                counted_loop(fb, imm(n), |fb, i| {
                    let p = fb.mul(reg(i), imm(stride));
                    let o = fb.rem(reg(p), imm(n));
                    let a = fb.add(imm(dst), reg(o));
                    fb.store(reg(a), reg(i));
                    let s = fb.add(reg(acc), reg(o));
                    fb.mov_to(acc, reg(s));
                });
            }
            Phase::Indirect { idx, tbl, n, mask } => {
                counted_loop(fb, imm(n), |fb, i| {
                    let ia = fb.add(imm(idx), reg(i));
                    let iv = fb.load(reg(ia));
                    let m = fb.and(reg(iv), imm(mask));
                    let ta = fb.add(imm(tbl), reg(m));
                    let tv = fb.load(reg(ta));
                    let s = fb.add(reg(acc), reg(tv));
                    fb.mov_to(acc, reg(s));
                });
            }
            Phase::MaxScan { src, n } => {
                let mx = fb.mov(imm(-1));
                counted_loop(fb, imm(n), |fb, i| {
                    let a = fb.add(imm(src), reg(i));
                    let v = fb.load(reg(a));
                    let c = fb.cmp_gt(reg(v), reg(mx));
                    if_then(fb, c, |fb| {
                        fb.mov_to(mx, reg(v));
                    });
                });
                let s = fb.add(reg(acc), reg(mx));
                fb.mov_to(acc, reg(s));
            }
            Phase::RareEvent { src, n, rare } => {
                counted_loop(fb, imm(n), |fb, i| {
                    let a = fb.add(imm(src), reg(i));
                    let v = fb.load(reg(a));
                    let c = fb.cmp_eq(reg(v), imm(rare));
                    if_then(fb, c, |fb| {
                        let s = fb.add(reg(acc), imm(1_000));
                        fb.mov_to(acc, reg(s));
                    });
                    let t = fb.add(reg(v), imm(1));
                    let s = fb.add(reg(acc), reg(t));
                    fb.mov_to(acc, reg(s));
                });
            }
        }
    }

    /// Reference semantics over a sparse memory mirror.
    fn reference(&self, mem: &mut FxHashMap<i64, i64>, acc: &mut i64) {
        let load = |mem: &FxHashMap<i64, i64>, a: i64| mem.get(&a).copied().unwrap_or(0);
        match *self {
            Phase::Mac { src, n } => {
                for i in 0..n {
                    *acc += load(mem, src + i) * ((i & 7) + 1);
                }
            }
            Phase::CondScan { src, n, thr } => {
                for i in 0..n {
                    let v = load(mem, src + i);
                    if v < thr {
                        *acc += 3 * v;
                    } else {
                        *acc -= v;
                    }
                }
            }
            Phase::WhileHalve { src, n } => {
                for i in 0..n {
                    let mut x = load(mem, src + i);
                    while x != 0 {
                        *acc += x & 1;
                        x /= 2;
                    }
                }
            }
            Phase::Transpose { src, dst, dim } => {
                for i in 0..dim {
                    for j in 0..dim {
                        let v = load(mem, src + i * dim + j);
                        mem.insert(dst + j * dim + i, v);
                        *acc ^= v;
                    }
                }
            }
            Phase::Matmul { a, b, c, dim } => {
                for i in 0..dim {
                    for j in 0..dim {
                        let mut s = 0i64;
                        for k in 0..dim {
                            s += load(mem, a + i * dim + k) * load(mem, b + k * dim + j);
                        }
                        mem.insert(c + i * dim + j, s);
                        if i == j {
                            *acc += s;
                        }
                    }
                }
            }
            Phase::Fir { src, n, taps } => {
                for i in 0..n {
                    let mut s = 0i64;
                    for t in 0..taps {
                        s += load(mem, src + i + t) * (t + 2);
                    }
                    *acc += s >> 2;
                }
            }
            Phase::Hash { src, n } => {
                let mut h = 0i64;
                for i in 0..n {
                    h = ((h << 5) ^ load(mem, src + i)) & 8191;
                }
                *acc += h;
            }
            Phase::StrideStore { dst, n, stride } => {
                for i in 0..n {
                    let o = (i * stride) % n;
                    mem.insert(dst + o, i);
                    *acc += o;
                }
            }
            Phase::Indirect { idx, tbl, n, mask } => {
                for i in 0..n {
                    let iv = load(mem, idx + i);
                    *acc += load(mem, tbl + (iv & mask));
                }
            }
            Phase::MaxScan { src, n } => {
                let mut mx = -1i64;
                for i in 0..n {
                    let v = load(mem, src + i);
                    if v > mx {
                        mx = v;
                    }
                }
                *acc += mx;
            }
            Phase::RareEvent { src, n, rare } => {
                for i in 0..n {
                    let v = load(mem, src + i);
                    if v == rare {
                        *acc += 1_000;
                    }
                    *acc += v + 1;
                }
            }
        }
    }
}

/// Build a composite workload from phases and initial memory.
fn compose(name: &str, phases: &[Phase], mem: Vec<(i64, i64)>) -> Workload {
    // Reference run.
    let mut mirror: FxHashMap<i64, i64> = mem.iter().copied().collect();
    let mut expected = 0i64;
    for p in phases {
        p.reference(&mut mirror, &mut expected);
    }

    // IR build.
    let mut fb = FunctionBuilder::new(name, 0);
    start(&mut fb);
    let acc = fb.mov(imm(0));
    for p in phases {
        p.emit(&mut fb, acc);
    }
    fb.ret(Some(reg(acc)));
    let f = fb.build().unwrap();
    Workload::new(name, f, vec![], mem, expected)
}

// Memory bases used by the composites.
const M0: i64 = 1000;
const M1: i64 = 3000;
const M2: i64 = 5000;
const M3: i64 = 7000;

/// All 19 SPEC-like composites, in Table 3 order.
pub fn all() -> Vec<Workload> {
    vec![
        // ammp: molecular dynamics — low-trip whiles over neighbour lists.
        compose(
            "ammp",
            &[
                Phase::WhileHalve { src: M0, n: 120 },
                Phase::Mac { src: M1, n: 200 },
                Phase::RareEvent {
                    src: M0,
                    n: 150,
                    rare: 3,
                },
            ],
            [
                random_memory(M0, 200, 301, 15),
                random_memory(M1, 200, 302, 64),
            ]
            .concat(),
        ),
        // applu: PDE solver — dense small matmuls plus stencils.
        compose(
            "applu",
            &[
                Phase::Matmul {
                    a: M0,
                    b: M1,
                    c: M2,
                    dim: 8,
                },
                Phase::Fir {
                    src: M0,
                    n: 120,
                    taps: 5,
                },
                Phase::Mac { src: M2, n: 64 },
            ],
            [
                random_memory(M0, 160, 311, 20),
                random_memory(M1, 64, 312, 20),
            ]
            .concat(),
        ),
        // apsi: weather — stencil, corner turn, conditional scan.
        compose(
            "apsi",
            &[
                Phase::Fir {
                    src: M0,
                    n: 150,
                    taps: 4,
                },
                Phase::Transpose {
                    src: M0,
                    dst: M1,
                    dim: 12,
                },
                Phase::CondScan {
                    src: M1,
                    n: 144,
                    thr: 40,
                },
            ],
            random_memory(M0, 160, 321, 80),
        ),
        // art: neural net — MACs and winner-take-all.
        compose(
            "art",
            &[
                Phase::Mac { src: M0, n: 300 },
                Phase::MaxScan { src: M0, n: 300 },
                Phase::Mac { src: M1, n: 200 },
            ],
            [
                random_memory(M0, 300, 331, 100),
                random_memory(M1, 200, 332, 60),
            ]
            .concat(),
        ),
        // bzip2: compression — data-dependent branches, rare escapes, hash.
        compose(
            "bzip2",
            &[
                Phase::CondScan {
                    src: M0,
                    n: 250,
                    thr: 128,
                },
                Phase::RareEvent {
                    src: M0,
                    n: 250,
                    rare: 0,
                },
                Phase::Hash { src: M0, n: 250 },
            ],
            random_memory(M0, 250, 341, 256),
        ),
        // crafty: chess — table lookups and branchy evaluation.
        compose(
            "crafty",
            &[
                Phase::Indirect {
                    idx: M0,
                    tbl: M1,
                    n: 200,
                    mask: 63,
                },
                Phase::CondScan {
                    src: M0,
                    n: 200,
                    thr: 30,
                },
                Phase::MaxScan { src: M1, n: 64 },
            ],
            [
                random_memory(M0, 200, 351, 64),
                random_memory(M1, 64, 352, 500),
            ]
            .concat(),
        ),
        // equake: sparse solver — indirection plus MAC.
        compose(
            "equake",
            &[
                Phase::Indirect {
                    idx: M0,
                    tbl: M1,
                    n: 220,
                    mask: 127,
                },
                Phase::Mac { src: M1, n: 128 },
                Phase::Fir {
                    src: M1,
                    n: 100,
                    taps: 3,
                },
            ],
            [
                random_memory(M0, 220, 361, 128),
                random_memory(M1, 140, 362, 64),
            ]
            .concat(),
        ),
        // gap: group theory — hashing and small-integer arithmetic.
        compose(
            "gap",
            &[
                Phase::Hash { src: M0, n: 300 },
                Phase::WhileHalve { src: M0, n: 100 },
                Phase::CondScan {
                    src: M0,
                    n: 200,
                    thr: 100,
                },
            ],
            random_memory(M0, 300, 371, 200),
        ),
        // gzip: compression — hash chains and literal/match branches.
        compose(
            "gzip",
            &[
                Phase::Hash { src: M0, n: 350 },
                Phase::CondScan {
                    src: M0,
                    n: 300,
                    thr: 150,
                },
                Phase::RareEvent {
                    src: M0,
                    n: 200,
                    rare: 1,
                },
            ],
            random_memory(M0, 350, 381, 256),
        ),
        // mcf: network simplex — pointer chasing, rare pivots.
        compose(
            "mcf",
            &[
                Phase::Indirect {
                    idx: M0,
                    tbl: M1,
                    n: 260,
                    mask: 255,
                },
                Phase::MaxScan { src: M1, n: 256 },
                Phase::WhileHalve { src: M0, n: 120 },
            ],
            [
                random_memory(M0, 260, 391, 256),
                random_memory(M1, 256, 392, 900),
            ]
            .concat(),
        ),
        // mesa: 3D graphics — transform matmuls and buffer moves.
        compose(
            "mesa",
            &[
                Phase::Matmul {
                    a: M0,
                    b: M1,
                    c: M2,
                    dim: 10,
                },
                Phase::Transpose {
                    src: M2,
                    dst: M3,
                    dim: 10,
                },
                Phase::Mac { src: M3, n: 100 },
            ],
            [
                random_memory(M0, 100, 401, 15),
                random_memory(M1, 100, 402, 15),
            ]
            .concat(),
        ),
        // mgrid: multigrid — stencils upon stencils (few branches: the paper
        // reports tiny improvements for mgrid).
        compose(
            "mgrid",
            &[
                Phase::Fir {
                    src: M0,
                    n: 200,
                    taps: 6,
                },
                Phase::Fir {
                    src: M1,
                    n: 150,
                    taps: 4,
                },
                Phase::Mac { src: M0, n: 150 },
            ],
            [
                random_memory(M0, 210, 411, 50),
                random_memory(M1, 160, 412, 50),
            ]
            .concat(),
        ),
        // parser: NL parsing — rare heavy paths and low-trip scans.
        compose(
            "parser",
            &[
                Phase::RareEvent {
                    src: M0,
                    n: 280,
                    rare: 7,
                },
                Phase::CondScan {
                    src: M0,
                    n: 250,
                    thr: 20,
                },
                Phase::WhileHalve { src: M0, n: 130 },
            ],
            random_memory(M0, 280, 421, 100),
        ),
        // sixtrack: particle tracking — dense arithmetic.
        compose(
            "sixtrack",
            &[
                Phase::Matmul {
                    a: M0,
                    b: M1,
                    c: M2,
                    dim: 9,
                },
                Phase::Fir {
                    src: M2,
                    n: 81,
                    taps: 5,
                },
                Phase::Mac { src: M0, n: 81 },
            ],
            [
                random_memory(M0, 90, 431, 25),
                random_memory(M1, 90, 432, 25),
            ]
            .concat(),
        ),
        // swim: shallow water — strided stores and stencils.
        compose(
            "swim",
            &[
                Phase::StrideStore {
                    dst: M2,
                    n: 240,
                    stride: 7,
                },
                Phase::Fir {
                    src: M2,
                    n: 200,
                    taps: 4,
                },
                Phase::Mac { src: M2, n: 200 },
            ],
            random_memory(M0, 16, 441, 10),
        ),
        // twolf: placement — cost scans with lookups.
        compose(
            "twolf",
            &[
                Phase::CondScan {
                    src: M0,
                    n: 220,
                    thr: 90,
                },
                Phase::Indirect {
                    idx: M0,
                    tbl: M1,
                    n: 180,
                    mask: 63,
                },
                Phase::MaxScan { src: M0, n: 220 },
            ],
            [
                random_memory(M0, 220, 451, 180),
                random_memory(M1, 64, 452, 700),
            ]
            .concat(),
        ),
        // vortex: OO database — hashing and table dispatch.
        compose(
            "vortex",
            &[
                Phase::Hash { src: M0, n: 260 },
                Phase::Indirect {
                    idx: M0,
                    tbl: M1,
                    n: 200,
                    mask: 127,
                },
                Phase::CondScan {
                    src: M1,
                    n: 128,
                    thr: 300,
                },
            ],
            [
                random_memory(M0, 260, 461, 128),
                random_memory(M1, 128, 462, 600),
            ]
            .concat(),
        ),
        // vpr: FPGA place & route — maxima, branchy scans, retries.
        compose(
            "vpr",
            &[
                Phase::MaxScan { src: M0, n: 240 },
                Phase::CondScan {
                    src: M0,
                    n: 240,
                    thr: 55,
                },
                Phase::WhileHalve { src: M0, n: 110 },
            ],
            random_memory(M0, 240, 471, 110),
        ),
        // wupwise: lattice QCD — small complex matmuls and MACs.
        compose(
            "wupwise",
            &[
                Phase::Matmul {
                    a: M0,
                    b: M1,
                    c: M2,
                    dim: 11,
                },
                Phase::Mac { src: M2, n: 121 },
                Phase::Fir {
                    src: M0,
                    n: 110,
                    taps: 3,
                },
            ],
            [
                random_memory(M0, 125, 481, 12),
                random_memory(M1, 125, 482, 12),
            ]
            .concat(),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use chf_ir::verify::verify;

    #[test]
    fn all_composites_verify_and_validate() {
        for w in all() {
            verify(&w.function).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        }
    }

    #[test]
    fn composites_execute_enough_blocks_to_matter() {
        for w in all() {
            let blocks = w.baseline_blocks();
            assert!(
                blocks > 1_000,
                "{} too small for a block-count study ({blocks} blocks)",
                w.name
            );
        }
    }

    #[test]
    fn phase_reference_matches_interpreter_per_phase() {
        // Cross-check each phase kind in isolation.
        let mem = random_memory(M0, 64, 999, 50);
        let phases = [
            Phase::Mac { src: M0, n: 64 },
            Phase::CondScan {
                src: M0,
                n: 64,
                thr: 25,
            },
            Phase::WhileHalve { src: M0, n: 32 },
            Phase::Transpose {
                src: M0,
                dst: M1,
                dim: 8,
            },
            Phase::Matmul {
                a: M0,
                b: M0,
                c: M2,
                dim: 6,
            },
            Phase::Fir {
                src: M0,
                n: 40,
                taps: 4,
            },
            Phase::Hash { src: M0, n: 64 },
            Phase::StrideStore {
                dst: M2,
                n: 40,
                stride: 3,
            },
            Phase::Indirect {
                idx: M0,
                tbl: M0,
                n: 40,
                mask: 31,
            },
            Phase::MaxScan { src: M0, n: 64 },
            Phase::RareEvent {
                src: M0,
                n: 64,
                rare: 5,
            },
        ];
        for (k, p) in phases.iter().enumerate() {
            let name = format!("phase_{k}");
            // compose() panics internally if reference and interpreter
            // disagree (Workload::new validates).
            let w = compose(&name, std::slice::from_ref(p), mem.clone());
            assert_eq!(w.name, name);
        }
    }
}
