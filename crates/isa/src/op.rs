//! Opcodes, comparison operators, execution classes, and their functional
//! (value-level) semantics.
//!
//! The simulator executes kernels *functionally* — register values are real
//! `u32` words (floats are IEEE-754 bit patterns) and branches depend on
//! computed values. This is what lets loop trip counts and branch paths be
//! data-dependent, which in turn is what makes the paper's *compiler-based
//! profiling* inaccurate on Category-2 workloads (Fig. 4).

use std::fmt;

use crate::WARP_SIZE;

/// Integer/float comparison operator used by `SETP`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed less-or-equal.
    Le,
    /// Signed greater-than.
    Gt,
    /// Signed greater-or-equal.
    Ge,
    /// Unsigned less-than.
    Ult,
    /// Unsigned greater-or-equal.
    Uge,
}

impl CmpOp {
    /// Evaluates the comparison on two 32-bit words.
    ///
    /// Signed variants reinterpret the words as `i32`.
    pub fn eval(self, a: u32, b: u32) -> bool {
        let (sa, sb) = (a as i32, b as i32);
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => sa < sb,
            CmpOp::Le => sa <= sb,
            CmpOp::Gt => sa > sb,
            CmpOp::Ge => sa >= sb,
            CmpOp::Ult => a < b,
            CmpOp::Uge => a >= b,
        }
    }

    /// The warp form of [`CmpOp::eval`]: compares `a[l]` with `b[l]` in
    /// every lane and returns the results as a lane mask (bit `l` set when
    /// lane `l` compares true). The operator is matched once, not per lane.
    pub fn eval_lanes(self, a: &[u32; WARP_SIZE], b: &[u32; WARP_SIZE]) -> u32 {
        #[inline(always)]
        fn mask(a: &[u32; WARP_SIZE], b: &[u32; WARP_SIZE], f: impl Fn(u32, u32) -> bool) -> u32 {
            let mut bits = 0u32;
            for (lane, (&x, &y)) in a.iter().zip(b).enumerate() {
                bits |= u32::from(f(x, y)) << lane;
            }
            bits
        }
        let s = |x: u32| x as i32;
        match self {
            CmpOp::Eq => mask(a, b, |x, y| x == y),
            CmpOp::Ne => mask(a, b, |x, y| x != y),
            CmpOp::Lt => mask(a, b, |x, y| s(x) < s(y)),
            CmpOp::Le => mask(a, b, |x, y| s(x) <= s(y)),
            CmpOp::Gt => mask(a, b, |x, y| s(x) > s(y)),
            CmpOp::Ge => mask(a, b, |x, y| s(x) >= s(y)),
            CmpOp::Ult => mask(a, b, |x, y| x < y),
            CmpOp::Uge => mask(a, b, |x, y| x >= y),
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "eq",
            CmpOp::Ne => "ne",
            CmpOp::Lt => "lt",
            CmpOp::Le => "le",
            CmpOp::Gt => "gt",
            CmpOp::Ge => "ge",
            CmpOp::Ult => "ult",
            CmpOp::Uge => "uge",
        };
        f.write_str(s)
    }
}

/// The execution-resource class of an instruction, used by the simulator to
/// pick a pipeline and latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecClass {
    /// Integer ALU ops (adds, shifts, logic, compares, moves).
    IntAlu,
    /// Single-precision floating-point ops on the FP units.
    Fp,
    /// Special-function-unit ops (reciprocal, sqrt, log, exp).
    Sfu,
    /// Global/shared memory loads and stores (LSU).
    Mem,
    /// Control flow (branches, exit, barrier).
    Control,
}

/// Instruction opcode.
///
/// The set is deliberately small — just enough to express the synthetic
/// reproductions of the Rodinia/Parboil kernels — but every opcode has full
/// functional semantics via [`Opcode::eval`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Opcode {
    /// Copy `src0` to `dst` (also used for immediate and special-reg moves).
    Mov,
    /// 32-bit wrapping integer add.
    IAdd,
    /// 32-bit wrapping integer subtract.
    ISub,
    /// 32-bit wrapping integer multiply (low half).
    IMul,
    /// Integer multiply-add: `dst = src0 * src1 + src2` (wrapping).
    IMad,
    /// Signed minimum.
    IMin,
    /// Signed maximum.
    IMax,
    /// Bitwise and.
    IAnd,
    /// Bitwise or.
    IOr,
    /// Bitwise xor.
    IXor,
    /// Logical shift left by `src1 & 31`.
    IShl,
    /// Logical shift right by `src1 & 31`.
    IShr,
    /// IEEE-754 single-precision add.
    FAdd,
    /// IEEE-754 single-precision multiply.
    FMul,
    /// Fused multiply-add `dst = src0 * src1 + src2`.
    FFma,
    /// Reciprocal approximation (SFU).
    FRcp,
    /// Square root approximation (SFU).
    FSqrt,
    /// Base-2 logarithm approximation (SFU).
    FLog2,
    /// Base-2 exponential approximation (SFU).
    FExp2,
    /// Set predicate from comparison of `src0` and `src1`.
    Setp(CmpOp),
    /// Select: `dst = pred ? src0 : src1` (predicate is the guard source).
    Selp,
    /// Load from global memory: `dst = mem[src0 + imm]`.
    Ldg,
    /// Store to global memory: `mem[src0 + imm] = src1`.
    Stg,
    /// Load from CTA-shared memory.
    Lds,
    /// Store to CTA-shared memory.
    Sts,
    /// Warp shuffle: `dst = value of src0 in lane (src1 & 31)`.
    Shfl,
    /// Branch to `target` (possibly predicated, possibly divergent).
    Bra,
    /// CTA-wide barrier.
    Bar,
    /// Terminate the thread.
    Exit,
    /// No operation (consumes an issue slot only).
    Nop,
}

impl Opcode {
    /// Returns the execution-resource class of the opcode.
    pub fn exec_class(self) -> ExecClass {
        use Opcode::*;
        match self {
            Mov | IAdd | ISub | IMul | IMad | IMin | IMax | IAnd | IOr | IXor | IShl | IShr
            | Setp(_) | Selp | Shfl | Nop => ExecClass::IntAlu,
            FAdd | FMul | FFma => ExecClass::Fp,
            FRcp | FSqrt | FLog2 | FExp2 => ExecClass::Sfu,
            Ldg | Stg | Lds | Sts => ExecClass::Mem,
            Bra | Bar | Exit => ExecClass::Control,
        }
    }

    /// Returns `true` for memory loads (`Ldg`, `Lds`).
    pub fn is_load(self) -> bool {
        matches!(self, Opcode::Ldg | Opcode::Lds)
    }

    /// Returns `true` for memory stores (`Stg`, `Sts`).
    pub fn is_store(self) -> bool {
        matches!(self, Opcode::Stg | Opcode::Sts)
    }

    /// Returns `true` for global-memory accesses.
    pub fn is_global_mem(self) -> bool {
        matches!(self, Opcode::Ldg | Opcode::Stg)
    }

    /// Returns `true` if this opcode can change control flow.
    pub fn is_branch(self) -> bool {
        matches!(self, Opcode::Bra)
    }

    /// Evaluates a pure (non-memory, non-control) opcode on up to three
    /// 32-bit operands.
    ///
    /// Floating-point opcodes reinterpret the words as IEEE-754 `f32` bit
    /// patterns. `Setp` returns `1` for true and `0` for false.
    ///
    /// # Panics
    ///
    /// Panics if called on a memory, control, or `Shfl` opcode — those need
    /// machine state beyond the operand values and are executed by the
    /// simulator directly.
    pub fn eval(self, srcs: [u32; 3]) -> u32 {
        use Opcode::*;
        let [a, b, c] = srcs;
        let (fa, fb, fc) = (f32::from_bits(a), f32::from_bits(b), f32::from_bits(c));
        match self {
            Mov => a,
            IAdd => a.wrapping_add(b),
            ISub => a.wrapping_sub(b),
            IMul => a.wrapping_mul(b),
            IMad => a.wrapping_mul(b).wrapping_add(c),
            IMin => ((a as i32).min(b as i32)) as u32,
            IMax => ((a as i32).max(b as i32)) as u32,
            IAnd => a & b,
            IOr => a | b,
            IXor => a ^ b,
            IShl => a.wrapping_shl(b & 31),
            IShr => a.wrapping_shr(b & 31),
            FAdd => nan_first(fa + fb, fa, fb),
            FMul => nan_first(fa * fb, fa, fb),
            FFma => nan_first3(fa.mul_add(fb, fc), fa, fb, fc),
            FRcp => (1.0 / fa).to_bits(),
            FSqrt => fa.sqrt().to_bits(),
            FLog2 => fa.log2().to_bits(),
            FExp2 => fa.exp2().to_bits(),
            Setp(op) => u32::from(op.eval(a, b)),
            // The guard value is passed as the third operand by the executor.
            Selp => {
                if c != 0 {
                    a
                } else {
                    b
                }
            }
            Shfl | Ldg | Stg | Lds | Sts | Bra | Bar | Exit | Nop => {
                panic!("Opcode::eval called on non-pure opcode {self:?}")
            }
        }
    }

    /// The warp form of [`Opcode::eval`]: writes `eval([a[l], b[l], c[l]])`
    /// to `out[l]` for every lane `l`, matching the opcode once and then
    /// running one plain loop over the lanes.
    ///
    /// # Panics
    ///
    /// Panics on the opcodes [`Opcode::eval`] rejects.
    pub fn eval_lanes(
        self,
        a: &[u32; WARP_SIZE],
        b: &[u32; WARP_SIZE],
        c: &[u32; WARP_SIZE],
        out: &mut [u32; WARP_SIZE],
    ) {
        use Opcode::*;
        let f = f32::from_bits;
        match self {
            Mov => *out = *a,
            IAdd => map_lanes(out, a, b, c, |x, y, _| x.wrapping_add(y)),
            ISub => map_lanes(out, a, b, c, |x, y, _| x.wrapping_sub(y)),
            IMul => map_lanes(out, a, b, c, |x, y, _| x.wrapping_mul(y)),
            IMad => map_lanes(out, a, b, c, |x, y, z| x.wrapping_mul(y).wrapping_add(z)),
            IMin => map_lanes(out, a, b, c, |x, y, _| (x as i32).min(y as i32) as u32),
            IMax => map_lanes(out, a, b, c, |x, y, _| (x as i32).max(y as i32) as u32),
            IAnd => map_lanes(out, a, b, c, |x, y, _| x & y),
            IOr => map_lanes(out, a, b, c, |x, y, _| x | y),
            IXor => map_lanes(out, a, b, c, |x, y, _| x ^ y),
            IShl => map_lanes(out, a, b, c, |x, y, _| x.wrapping_shl(y & 31)),
            IShr => map_lanes(out, a, b, c, |x, y, _| x.wrapping_shr(y & 31)),
            FAdd => map_lanes(out, a, b, c, |x, y, _| nan_first(f(x) + f(y), f(x), f(y))),
            FMul => map_lanes(out, a, b, c, |x, y, _| nan_first(f(x) * f(y), f(x), f(y))),
            FFma => map_lanes(out, a, b, c, |x, y, z| {
                nan_first3(f(x).mul_add(f(y), f(z)), f(x), f(y), f(z))
            }),
            FRcp => map_lanes(out, a, b, c, |x, _, _| (1.0 / f(x)).to_bits()),
            FSqrt => map_lanes(out, a, b, c, |x, _, _| f(x).sqrt().to_bits()),
            FLog2 => map_lanes(out, a, b, c, |x, _, _| f(x).log2().to_bits()),
            FExp2 => map_lanes(out, a, b, c, |x, _, _| f(x).exp2().to_bits()),
            Setp(op) => {
                let bits = op.eval_lanes(a, b);
                for (lane, o) in out.iter_mut().enumerate() {
                    *o = (bits >> lane) & 1;
                }
            }
            Selp => map_lanes(out, a, b, c, |x, y, z| if z != 0 { x } else { y }),
            Shfl | Ldg | Stg | Lds | Sts | Bra | Bar | Exit | Nop => {
                panic!("Opcode::eval_lanes called on non-pure opcode {self:?}")
            }
        }
    }
}

/// The bits of `r = x op y` for a commutative float op, with the NaN
/// propagation pinned to operand order: when an operand is a NaN, the
/// result is the first NaN operand, quieted, which is what x86 scalar SSE
/// returns for `x op y`. The compiler may swap the operands of a
/// commutative float op (it does when it vectorises the lane loop of
/// [`Opcode::eval_lanes`]), so without the pin the payload of `NaN op NaN`
/// would depend on code generation.
#[inline(always)]
fn nan_first(r: f32, x: f32, y: f32) -> u32 {
    const QUIET: u32 = 0x0040_0000;
    if x.is_nan() {
        x.to_bits() | QUIET
    } else if y.is_nan() {
        y.to_bits() | QUIET
    } else {
        r.to_bits()
    }
}

/// [`nan_first`] for the three operands of a fused multiply-add: the
/// first NaN among `x`, `y` and `z`, quieted. `f32::mul_add` takes its NaN
/// payload from the libm `fmaf` or the hardware FMA it lowers to, whose
/// rules differ; pinning the rule keeps simulated values independent of
/// the build target.
#[inline(always)]
fn nan_first3(r: f32, x: f32, y: f32, z: f32) -> u32 {
    if z.is_nan() && !x.is_nan() && !y.is_nan() {
        z.to_bits() | 0x0040_0000
    } else {
        nan_first(r, x, y)
    }
}

/// `out[l] = f(a[l], b[l], c[l])` for every lane: the one loop each arm of
/// [`Opcode::eval_lanes`] runs.
#[inline(always)]
fn map_lanes(
    out: &mut [u32; WARP_SIZE],
    a: &[u32; WARP_SIZE],
    b: &[u32; WARP_SIZE],
    c: &[u32; WARP_SIZE],
    f: impl Fn(u32, u32, u32) -> u32,
) {
    for (((o, &x), &y), &z) in out.iter_mut().zip(a).zip(b).zip(c) {
        *o = f(x, y, z);
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Opcode::*;
        match self {
            Setp(c) => write!(f, "setp.{c}"),
            other => {
                let s = match other {
                    Mov => "mov",
                    IAdd => "iadd",
                    ISub => "isub",
                    IMul => "imul",
                    IMad => "imad",
                    IMin => "imin",
                    IMax => "imax",
                    IAnd => "and",
                    IOr => "or",
                    IXor => "xor",
                    IShl => "shl",
                    IShr => "shr",
                    FAdd => "fadd",
                    FMul => "fmul",
                    FFma => "ffma",
                    FRcp => "frcp",
                    FSqrt => "fsqrt",
                    FLog2 => "flog2",
                    FExp2 => "fexp2",
                    Selp => "selp",
                    Ldg => "ld.global",
                    Stg => "st.global",
                    Lds => "ld.shared",
                    Sts => "st.shared",
                    Shfl => "shfl",
                    Bra => "bra",
                    Bar => "bar.sync",
                    Exit => "exit",
                    Nop => "nop",
                    Setp(_) => unreachable!(),
                };
                f.write_str(s)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_ops_wrap() {
        assert_eq!(Opcode::IAdd.eval([u32::MAX, 1, 0]), 0);
        assert_eq!(Opcode::ISub.eval([0, 1, 0]), u32::MAX);
        assert_eq!(Opcode::IMul.eval([0x8000_0000, 2, 0]), 0);
    }

    #[test]
    fn imad_combines_mul_and_add() {
        assert_eq!(Opcode::IMad.eval([3, 4, 5]), 17);
    }

    #[test]
    fn min_max_are_signed() {
        let neg1 = -1i32 as u32;
        assert_eq!(Opcode::IMin.eval([neg1, 1, 0]), neg1);
        assert_eq!(Opcode::IMax.eval([neg1, 1, 0]), 1);
    }

    #[test]
    fn shifts_mask_amount() {
        assert_eq!(Opcode::IShl.eval([1, 33, 0]), 2);
        assert_eq!(Opcode::IShr.eval([4, 33, 0]), 2);
    }

    #[test]
    fn float_ops_roundtrip_bits() {
        let a = 1.5f32.to_bits();
        let b = 2.25f32.to_bits();
        assert_eq!(f32::from_bits(Opcode::FAdd.eval([a, b, 0])), 3.75);
        assert_eq!(f32::from_bits(Opcode::FMul.eval([a, b, 0])), 3.375);
        let fma = Opcode::FFma.eval([a, b, 1.0f32.to_bits()]);
        assert_eq!(f32::from_bits(fma), 1.5f32.mul_add(2.25, 1.0));
    }

    #[test]
    fn sfu_ops() {
        let x = 4.0f32.to_bits();
        assert_eq!(f32::from_bits(Opcode::FSqrt.eval([x, 0, 0])), 2.0);
        assert_eq!(f32::from_bits(Opcode::FRcp.eval([x, 0, 0])), 0.25);
        assert_eq!(f32::from_bits(Opcode::FLog2.eval([x, 0, 0])), 2.0);
        assert_eq!(
            f32::from_bits(Opcode::FExp2.eval([2.0f32.to_bits(), 0, 0])),
            4.0
        );
    }

    #[test]
    fn setp_signed_vs_unsigned() {
        let neg1 = -1i32 as u32;
        assert_eq!(Opcode::Setp(CmpOp::Lt).eval([neg1, 0, 0]), 1);
        assert_eq!(Opcode::Setp(CmpOp::Ult).eval([neg1, 0, 0]), 0);
        assert_eq!(Opcode::Setp(CmpOp::Uge).eval([neg1, 0, 0]), 1);
    }

    #[test]
    fn selp_picks_by_guard() {
        assert_eq!(Opcode::Selp.eval([10, 20, 1]), 10);
        assert_eq!(Opcode::Selp.eval([10, 20, 0]), 20);
    }

    #[test]
    fn cmp_op_eval_all_variants() {
        assert!(CmpOp::Eq.eval(5, 5));
        assert!(CmpOp::Ne.eval(5, 6));
        assert!(CmpOp::Le.eval(5, 5));
        assert!(CmpOp::Gt.eval(6, 5));
        assert!(CmpOp::Ge.eval(5, 5));
    }

    #[test]
    fn exec_classes() {
        assert_eq!(Opcode::IAdd.exec_class(), ExecClass::IntAlu);
        assert_eq!(Opcode::FFma.exec_class(), ExecClass::Fp);
        assert_eq!(Opcode::FSqrt.exec_class(), ExecClass::Sfu);
        assert_eq!(Opcode::Ldg.exec_class(), ExecClass::Mem);
        assert_eq!(Opcode::Bra.exec_class(), ExecClass::Control);
    }

    #[test]
    fn memory_predicates() {
        assert!(Opcode::Ldg.is_load());
        assert!(Opcode::Lds.is_load());
        assert!(Opcode::Stg.is_store());
        assert!(Opcode::Ldg.is_global_mem());
        assert!(!Opcode::Lds.is_global_mem());
        assert!(Opcode::Bra.is_branch());
        assert!(!Opcode::Exit.is_branch());
    }

    #[test]
    #[should_panic(expected = "non-pure opcode")]
    fn eval_rejects_memory_ops() {
        Opcode::Ldg.eval([0, 0, 0]);
    }

    const CMP_OPS: [CmpOp; 8] = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
        CmpOp::Ult,
        CmpOp::Uge,
    ];

    /// Operand triples for the warp-form tests: integer edges, shift
    /// counts around the 5-bit mask, f32 NaNs with different payloads,
    /// signed zeros, infinities and a subnormal, each paired with every
    /// other, plus a lane-varying mix. Returned in warp-sized chunks.
    fn operand_warps() -> Vec<[[u32; WARP_SIZE]; 3]> {
        let edges: Vec<u32> = vec![
            0,
            1,
            u32::MAX,
            i32::MIN as u32,
            i32::MAX as u32,
            31,
            32,
            33,
            0x7FC0_0000,         // quiet NaN
            0x7FC0_1234,         // quiet NaN, other payload
            0xFFC0_0001,         // negative quiet NaN
            0x7F80_0001,         // signalling NaN
            0.0f32.to_bits(),    // +0.0
            (-0.0f32).to_bits(), // -0.0
            f32::INFINITY.to_bits(),
            f32::NEG_INFINITY.to_bits(),
            1,           // smallest subnormal
            0x0040_0000, // a larger subnormal
            1.5f32.to_bits(),
            (-2.25f32).to_bits(),
        ];
        let mut triples = Vec::new();
        for &x in &edges {
            for &y in &edges {
                for z in [0, 1, u32::MAX, x ^ y] {
                    triples.push([x, y, z]);
                }
            }
        }
        // A lane-varying mix: every lane of one warp holds different
        // operands.
        let mut h = 0x9E37_79B9u32;
        for _ in 0..4 * WARP_SIZE {
            let mut next = || {
                h ^= h << 13;
                h ^= h >> 17;
                h ^= h << 5;
                h
            };
            triples.push([next(), next() % 40, next()]);
        }
        triples
            .chunks(WARP_SIZE)
            .map(|chunk| {
                let mut warp = [[0u32; WARP_SIZE]; 3];
                for (lane, t) in chunk.iter().enumerate() {
                    for (operand, &v) in warp.iter_mut().zip(t) {
                        operand[lane] = v;
                    }
                }
                warp
            })
            .collect()
    }

    #[test]
    fn warp_form_matches_per_lane_reference() {
        use Opcode::*;
        let mut pure: Vec<Opcode> = vec![
            Mov, IAdd, ISub, IMul, IMad, IMin, IMax, IAnd, IOr, IXor, IShl, IShr, FAdd, FMul, FFma,
            FRcp, FSqrt, FLog2, FExp2, Selp,
        ];
        pure.extend(CMP_OPS.map(Setp));
        let warps = operand_warps();
        for op in pure {
            for [a, b, c] in &warps {
                let mut out = [0xDEAD_BEEF; WARP_SIZE];
                op.eval_lanes(a, b, c, &mut out);
                for lane in 0..WARP_SIZE {
                    let want = op.eval([a[lane], b[lane], c[lane]]);
                    assert_eq!(
                        out[lane], want,
                        "{op} lane {lane}: {:#x} {:#x} {:#x}",
                        a[lane], b[lane], c[lane]
                    );
                }
            }
        }
        // A NaN-heavy fma grid: every triple over quiet, negative and
        // signalling NaNs and the values that make fma produce a NaN of
        // its own (inf * 0, inf - inf). With a NaN operand, both forms
        // return the first NaN operand, quieted.
        let grid = [
            0x7FC0_0000,
            0x7FC0_1234,
            0xFFC0_0001,
            0x7F80_0001,
            0xFF80_0F00,
            f32::INFINITY.to_bits(),
            f32::NEG_INFINITY.to_bits(),
            0.0f32.to_bits(),
            1.0f32.to_bits(),
        ];
        let mut triples = Vec::new();
        for &x in &grid {
            for &y in &grid {
                for &z in &grid {
                    triples.push([x, y, z]);
                }
            }
        }
        for chunk in triples.chunks(WARP_SIZE) {
            let mut warp = [[0u32; WARP_SIZE]; 3];
            for (lane, t) in chunk.iter().enumerate() {
                for (operand, &v) in warp.iter_mut().zip(t) {
                    operand[lane] = v;
                }
            }
            let [a, b, c] = &warp;
            let mut out = [0; WARP_SIZE];
            FFma.eval_lanes(a, b, c, &mut out);
            for (lane, &t) in chunk.iter().enumerate() {
                let want = FFma.eval(t);
                assert_eq!(out[lane], want, "ffma {t:#x?}");
                if let Some(&nan) = t.iter().find(|&&v| f32::from_bits(v).is_nan()) {
                    assert_eq!(want, nan | 0x0040_0000, "ffma {t:#x?}");
                }
            }
        }
        for cmp in CMP_OPS {
            for [a, b, _] in &warps {
                let bits = cmp.eval_lanes(a, b);
                for lane in 0..WARP_SIZE {
                    let want = cmp.eval(a[lane], b[lane]);
                    assert_eq!(bits & (1 << lane) != 0, want, "{cmp} lane {lane}");
                }
            }
        }
    }

    #[test]
    fn nan_operands_propagate_in_operand_order() {
        // Quiet, other-payload and signalling NaNs: the first NaN operand
        // wins, quieted, in both forms and whichever operand is a NaN.
        let (q, p, sig, one) = (0x7FC0_0000, 0xFFC0_1234, 0x7F80_0001, 1.0f32.to_bits());
        for op in [Opcode::FAdd, Opcode::FMul] {
            for (a, b, want) in [
                (q, p, q),
                (p, q, p),
                (sig, p, 0x7FC0_0001),
                (one, sig, 0x7FC0_0001),
            ] {
                assert_eq!(op.eval([a, b, 0]), want, "{op} {a:#x} {b:#x}");
                let mut out = [0; WARP_SIZE];
                op.eval_lanes(&[a; WARP_SIZE], &[b; WARP_SIZE], &[0; WARP_SIZE], &mut out);
                assert_eq!(out, [want; WARP_SIZE], "{op} {a:#x} {b:#x}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-pure opcode")]
    fn eval_lanes_rejects_shfl() {
        let z = [0u32; WARP_SIZE];
        Opcode::Shfl.eval_lanes(&z, &z, &z, &mut [0; WARP_SIZE]);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Opcode::Setp(CmpOp::Lt).to_string(), "setp.lt");
        assert_eq!(Opcode::Ldg.to_string(), "ld.global");
        assert_eq!(Opcode::Bar.to_string(), "bar.sync");
    }
}
