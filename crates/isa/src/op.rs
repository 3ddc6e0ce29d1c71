//! The instruction set: opcodes, operands, and static properties.

use crate::reg::{Pred, Reg};

/// A scalar source operand: register or immediate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Src {
    /// Register operand.
    Reg(Reg),
    /// 32-bit immediate (bit pattern; floats pass their IEEE encoding).
    Imm(i32),
}

impl Src {
    /// The register, if this operand is one.
    #[must_use]
    pub fn reg(self) -> Option<Reg> {
        match self {
            Src::Reg(r) => Some(r),
            Src::Imm(_) => None,
        }
    }
}

impl From<Reg> for Src {
    fn from(r: Reg) -> Self {
        Src::Reg(r)
    }
}

/// Comparison operator for [`Op::SetP`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

/// Operand interpretation for comparisons.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum CmpTy {
    I32,
    U32,
    F32,
}

/// Memory space of a load/store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum MemSpace {
    Global,
    Shared,
}

/// Access width of a load/store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum MemWidth {
    W32,
    W64,
}

/// Special (read-only) registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum SpecialReg {
    TidX,
    NTidX,
    CtaIdX,
    NCtaIdX,
    LaneId,
    WarpId,
}

/// Warp-shuffle addressing mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShflMode {
    /// Read from an absolute lane index.
    Idx(Src),
    /// XOR-butterfly with the given mask.
    Bfly(u32),
    /// Read from `lane + delta`.
    Down(u32),
    /// Read from `lane - delta`.
    Up(u32),
}

/// The functional unit class an instruction executes on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum FuncUnit {
    Int,
    F32,
    F64,
    Sfu,
    Mem,
    Ctrl,
    Mov,
}

/// Whether a register appears as a destination or a source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum RegRole {
    Def,
    Use,
}

/// One operation of the SASS-like ISA.
///
/// 64-bit operations name the base register of an even-aligned pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Op {
    Mov {
        d: Reg,
        a: Src,
    },
    S2R {
        d: Reg,
        sr: SpecialReg,
    },
    IAdd {
        d: Reg,
        a: Reg,
        b: Src,
    },
    ISub {
        d: Reg,
        a: Reg,
        b: Src,
    },
    IMul {
        d: Reg,
        a: Reg,
        b: Src,
    },
    /// 32-bit multiply-add: `d = a*b + c` (low 32 bits).
    IMad {
        d: Reg,
        a: Reg,
        b: Reg,
        c: Reg,
    },
    /// Mixed-width multiply-add: pair `d = a*b + pair c` (the GPU MAD of
    /// §III-C, with 32-bit multiplicands and a 64-bit addend/result).
    IMadWide {
        d: Reg,
        a: Reg,
        b: Reg,
        c: Reg,
    },
    IMin {
        d: Reg,
        a: Reg,
        b: Src,
    },
    IMax {
        d: Reg,
        a: Reg,
        b: Src,
    },
    Shl {
        d: Reg,
        a: Reg,
        b: Src,
    },
    Shr {
        d: Reg,
        a: Reg,
        b: Src,
    },
    And {
        d: Reg,
        a: Reg,
        b: Src,
    },
    Or {
        d: Reg,
        a: Reg,
        b: Src,
    },
    Xor {
        d: Reg,
        a: Reg,
        b: Src,
    },
    Not {
        d: Reg,
        a: Reg,
    },
    FAdd {
        d: Reg,
        a: Reg,
        b: Src,
    },
    FMul {
        d: Reg,
        a: Reg,
        b: Src,
    },
    FFma {
        d: Reg,
        a: Reg,
        b: Reg,
        c: Reg,
    },
    FMin {
        d: Reg,
        a: Reg,
        b: Src,
    },
    FMax {
        d: Reg,
        a: Reg,
        b: Src,
    },
    /// SFU reciprocal approximation.
    MufuRcp {
        d: Reg,
        a: Reg,
    },
    /// SFU square root.
    MufuSqrt {
        d: Reg,
        a: Reg,
    },
    /// SFU `2^x`.
    MufuEx2 {
        d: Reg,
        a: Reg,
    },
    /// SFU `log2(x)`.
    MufuLg2 {
        d: Reg,
        a: Reg,
    },
    /// Convert signed int to f32.
    I2F {
        d: Reg,
        a: Reg,
    },
    /// Convert f32 to signed int (truncating).
    F2I {
        d: Reg,
        a: Reg,
    },
    /// 64-bit float add on register pairs.
    DAdd {
        d: Reg,
        a: Reg,
        b: Reg,
    },
    DMul {
        d: Reg,
        a: Reg,
        b: Reg,
    },
    DFma {
        d: Reg,
        a: Reg,
        b: Reg,
        c: Reg,
    },
    SetP {
        p: Pred,
        cmp: CmpOp,
        ty: CmpTy,
        a: Reg,
        b: Src,
    },
    /// `d = p ? a : b`.
    Sel {
        d: Reg,
        p: Pred,
        a: Reg,
        b: Src,
    },
    Ld {
        d: Reg,
        space: MemSpace,
        addr: Reg,
        offset: i32,
        width: MemWidth,
    },
    St {
        space: MemSpace,
        addr: Reg,
        offset: i32,
        v: Reg,
        width: MemWidth,
    },
    /// Atomic 32-bit add to global memory.
    AtomAdd {
        addr: Reg,
        offset: i32,
        v: Reg,
    },
    /// Warp shuffle: `d` = `a` of the addressed lane.
    Shfl {
        d: Reg,
        a: Reg,
        mode: ShflMode,
    },
    /// CTA-wide barrier.
    Bar,
    /// Branch to a resolved instruction index (guarded by the instruction
    /// predicate).
    Bra {
        target: usize,
    },
    Exit,
    /// Error trap (BPT): the software-duplication detector endpoint.
    Trap,
    Nop,
}

impl Op {
    /// Destination registers, with 64-bit pairs expanded. [`crate::RZ`]
    /// writes are discarded and not reported.
    #[must_use]
    pub fn defs(&self) -> Vec<Reg> {
        let mut v = Vec::with_capacity(2);
        let mut d32 = |r: Reg| {
            if !r.is_zero() {
                v.push(r);
            }
        };
        match *self {
            Op::Mov { d, .. }
            | Op::S2R { d, .. }
            | Op::IAdd { d, .. }
            | Op::ISub { d, .. }
            | Op::IMul { d, .. }
            | Op::IMad { d, .. }
            | Op::IMin { d, .. }
            | Op::IMax { d, .. }
            | Op::Shl { d, .. }
            | Op::Shr { d, .. }
            | Op::And { d, .. }
            | Op::Or { d, .. }
            | Op::Xor { d, .. }
            | Op::Not { d, .. }
            | Op::FAdd { d, .. }
            | Op::FMul { d, .. }
            | Op::FFma { d, .. }
            | Op::FMin { d, .. }
            | Op::FMax { d, .. }
            | Op::MufuRcp { d, .. }
            | Op::MufuSqrt { d, .. }
            | Op::MufuEx2 { d, .. }
            | Op::MufuLg2 { d, .. }
            | Op::I2F { d, .. }
            | Op::F2I { d, .. }
            | Op::Sel { d, .. }
            | Op::Shfl { d, .. } => d32(d),
            Op::IMadWide { d, .. }
            | Op::DAdd { d, .. }
            | Op::DMul { d, .. }
            | Op::DFma { d, .. } => {
                d32(d);
                d32(d.pair_hi());
            }
            Op::Ld { d, width, .. } => {
                d32(d);
                if width == MemWidth::W64 {
                    d32(d.pair_hi());
                }
            }
            Op::SetP { .. }
            | Op::St { .. }
            | Op::AtomAdd { .. }
            | Op::Bar
            | Op::Bra { .. }
            | Op::Exit
            | Op::Trap
            | Op::Nop => {}
        }
        v
    }

    /// Source registers, with 64-bit pairs expanded; [`crate::RZ`] reads are
    /// not reported.
    #[must_use]
    pub fn uses(&self) -> Vec<Reg> {
        fn u32_(v: &mut Vec<Reg>, r: Reg) {
            if !r.is_zero() {
                v.push(r);
            }
        }
        fn u_src(v: &mut Vec<Reg>, s: Src) {
            if let Src::Reg(r) = s {
                u32_(v, r);
            }
        }
        fn u64_(v: &mut Vec<Reg>, r: Reg) {
            if !r.is_zero() {
                v.push(r);
                v.push(r.pair_hi());
            }
        }
        let mut v = Vec::with_capacity(6);
        {
            match *self {
                Op::Mov { a, .. } => u_src(&mut v, a),
                Op::S2R { .. } | Op::Bar | Op::Bra { .. } | Op::Exit | Op::Trap | Op::Nop => {}
                Op::IAdd { a, b, .. }
                | Op::ISub { a, b, .. }
                | Op::IMul { a, b, .. }
                | Op::IMin { a, b, .. }
                | Op::IMax { a, b, .. }
                | Op::Shl { a, b, .. }
                | Op::Shr { a, b, .. }
                | Op::And { a, b, .. }
                | Op::Or { a, b, .. }
                | Op::Xor { a, b, .. }
                | Op::FAdd { a, b, .. }
                | Op::FMul { a, b, .. }
                | Op::FMin { a, b, .. }
                | Op::FMax { a, b, .. } => {
                    u32_(&mut v, a);
                    u_src(&mut v, b);
                }
                Op::Not { a, .. }
                | Op::MufuRcp { a, .. }
                | Op::MufuSqrt { a, .. }
                | Op::MufuEx2 { a, .. }
                | Op::MufuLg2 { a, .. }
                | Op::I2F { a, .. }
                | Op::F2I { a, .. }
                | Op::Shfl {
                    a,
                    mode: ShflMode::Bfly(_) | ShflMode::Down(_) | ShflMode::Up(_),
                    ..
                } => {
                    u32_(&mut v, a);
                }
                Op::Shfl {
                    a,
                    mode: ShflMode::Idx(s),
                    ..
                } => {
                    u32_(&mut v, a);
                    u_src(&mut v, s);
                }
                Op::IMad { a, b, c, .. } | Op::FFma { a, b, c, .. } => {
                    u32_(&mut v, a);
                    u32_(&mut v, b);
                    u32_(&mut v, c);
                }
                Op::IMadWide { a, b, c, .. } => {
                    u32_(&mut v, a);
                    u32_(&mut v, b);
                    u64_(&mut v, c);
                }
                Op::DAdd { a, b, .. } | Op::DMul { a, b, .. } => {
                    u64_(&mut v, a);
                    u64_(&mut v, b);
                }
                Op::DFma { a, b, c, .. } => {
                    u64_(&mut v, a);
                    u64_(&mut v, b);
                    u64_(&mut v, c);
                }
                Op::SetP { a, b, .. } => {
                    u32_(&mut v, a);
                    u_src(&mut v, b);
                }
                Op::Sel { a, b, .. } => {
                    u32_(&mut v, a);
                    u_src(&mut v, b);
                }
                Op::Ld { addr, .. } => u32_(&mut v, addr),
                Op::St {
                    addr,
                    v: val,
                    width,
                    ..
                } => {
                    u32_(&mut v, addr);
                    if width == MemWidth::W64 {
                        u64_(&mut v, val);
                    } else {
                        u32_(&mut v, val);
                    }
                }
                Op::AtomAdd { addr, v: val, .. } => {
                    u32_(&mut v, addr);
                    u32_(&mut v, val);
                }
            }
        }
        v
    }

    /// The predicate this operation writes, if any.
    #[must_use]
    pub fn pred_def(&self) -> Option<Pred> {
        match *self {
            Op::SetP { p, .. } => Some(p),
            _ => None,
        }
    }

    /// The predicate this operation reads as a data operand (not the guard).
    #[must_use]
    pub fn pred_use(&self) -> Option<Pred> {
        match *self {
            Op::Sel { p, .. } => Some(p),
            _ => None,
        }
    }

    /// Rewrite every register operand through `f`. Pair operands pass only
    /// their base register (mappings must preserve pairing).
    #[must_use]
    pub fn map_regs(&self, mut f: impl FnMut(Reg, RegRole) -> Reg) -> Op {
        use RegRole::{Def, Use};
        let mut m = |r: Reg, role: RegRole| if r.is_zero() { r } else { f(r, role) };
        let ms = |s: Src, f: &mut dyn FnMut(Reg, RegRole) -> Reg| match s {
            Src::Reg(r) if !r.is_zero() => Src::Reg(f(r, Use)),
            other => other,
        };
        match *self {
            Op::Mov { d, a } => Op::Mov {
                d: m(d, Def),
                a: ms(a, &mut m),
            },
            Op::S2R { d, sr } => Op::S2R { d: m(d, Def), sr },
            Op::IAdd { d, a, b } => Op::IAdd {
                d: m(d, Def),
                a: m(a, Use),
                b: ms(b, &mut m),
            },
            Op::ISub { d, a, b } => Op::ISub {
                d: m(d, Def),
                a: m(a, Use),
                b: ms(b, &mut m),
            },
            Op::IMul { d, a, b } => Op::IMul {
                d: m(d, Def),
                a: m(a, Use),
                b: ms(b, &mut m),
            },
            Op::IMad { d, a, b, c } => Op::IMad {
                d: m(d, Def),
                a: m(a, Use),
                b: m(b, Use),
                c: m(c, Use),
            },
            Op::IMadWide { d, a, b, c } => Op::IMadWide {
                d: m(d, Def),
                a: m(a, Use),
                b: m(b, Use),
                c: m(c, Use),
            },
            Op::IMin { d, a, b } => Op::IMin {
                d: m(d, Def),
                a: m(a, Use),
                b: ms(b, &mut m),
            },
            Op::IMax { d, a, b } => Op::IMax {
                d: m(d, Def),
                a: m(a, Use),
                b: ms(b, &mut m),
            },
            Op::Shl { d, a, b } => Op::Shl {
                d: m(d, Def),
                a: m(a, Use),
                b: ms(b, &mut m),
            },
            Op::Shr { d, a, b } => Op::Shr {
                d: m(d, Def),
                a: m(a, Use),
                b: ms(b, &mut m),
            },
            Op::And { d, a, b } => Op::And {
                d: m(d, Def),
                a: m(a, Use),
                b: ms(b, &mut m),
            },
            Op::Or { d, a, b } => Op::Or {
                d: m(d, Def),
                a: m(a, Use),
                b: ms(b, &mut m),
            },
            Op::Xor { d, a, b } => Op::Xor {
                d: m(d, Def),
                a: m(a, Use),
                b: ms(b, &mut m),
            },
            Op::Not { d, a } => Op::Not {
                d: m(d, Def),
                a: m(a, Use),
            },
            Op::FAdd { d, a, b } => Op::FAdd {
                d: m(d, Def),
                a: m(a, Use),
                b: ms(b, &mut m),
            },
            Op::FMul { d, a, b } => Op::FMul {
                d: m(d, Def),
                a: m(a, Use),
                b: ms(b, &mut m),
            },
            Op::FFma { d, a, b, c } => Op::FFma {
                d: m(d, Def),
                a: m(a, Use),
                b: m(b, Use),
                c: m(c, Use),
            },
            Op::FMin { d, a, b } => Op::FMin {
                d: m(d, Def),
                a: m(a, Use),
                b: ms(b, &mut m),
            },
            Op::FMax { d, a, b } => Op::FMax {
                d: m(d, Def),
                a: m(a, Use),
                b: ms(b, &mut m),
            },
            Op::MufuRcp { d, a } => Op::MufuRcp {
                d: m(d, Def),
                a: m(a, Use),
            },
            Op::MufuSqrt { d, a } => Op::MufuSqrt {
                d: m(d, Def),
                a: m(a, Use),
            },
            Op::MufuEx2 { d, a } => Op::MufuEx2 {
                d: m(d, Def),
                a: m(a, Use),
            },
            Op::MufuLg2 { d, a } => Op::MufuLg2 {
                d: m(d, Def),
                a: m(a, Use),
            },
            Op::I2F { d, a } => Op::I2F {
                d: m(d, Def),
                a: m(a, Use),
            },
            Op::F2I { d, a } => Op::F2I {
                d: m(d, Def),
                a: m(a, Use),
            },
            Op::DAdd { d, a, b } => Op::DAdd {
                d: m(d, Def),
                a: m(a, Use),
                b: m(b, Use),
            },
            Op::DMul { d, a, b } => Op::DMul {
                d: m(d, Def),
                a: m(a, Use),
                b: m(b, Use),
            },
            Op::DFma { d, a, b, c } => Op::DFma {
                d: m(d, Def),
                a: m(a, Use),
                b: m(b, Use),
                c: m(c, Use),
            },
            Op::SetP { p, cmp, ty, a, b } => Op::SetP {
                p,
                cmp,
                ty,
                a: m(a, Use),
                b: ms(b, &mut m),
            },
            Op::Sel { d, p, a, b } => Op::Sel {
                d: m(d, Def),
                p,
                a: m(a, Use),
                b: ms(b, &mut m),
            },
            Op::Ld {
                d,
                space,
                addr,
                offset,
                width,
            } => Op::Ld {
                d: m(d, Def),
                space,
                addr: m(addr, Use),
                offset,
                width,
            },
            Op::St {
                space,
                addr,
                offset,
                v,
                width,
            } => Op::St {
                space,
                addr: m(addr, Use),
                offset,
                v: m(v, Use),
                width,
            },
            Op::AtomAdd { addr, offset, v } => Op::AtomAdd {
                addr: m(addr, Use),
                offset,
                v: m(v, Use),
            },
            Op::Shfl { d, a, mode } => Op::Shfl {
                d: m(d, Def),
                a: m(a, Use),
                mode: match mode {
                    ShflMode::Idx(s) => ShflMode::Idx(ms(s, &mut m)),
                    other => other,
                },
            },
            Op::Bar => Op::Bar,
            Op::Bra { target } => Op::Bra { target },
            Op::Exit => Op::Exit,
            Op::Trap => Op::Trap,
            Op::Nop => Op::Nop,
        }
    }

    /// Whether the duplication passes replicate this instruction (register-
    /// writing computation). Loads, stores, atomics, control flow, barriers,
    /// predicate writes and shuffles are not duplication-eligible.
    #[must_use]
    pub fn is_dup_eligible(&self) -> bool {
        match self.func_unit() {
            FuncUnit::Int | FuncUnit::F32 | FuncUnit::F64 | FuncUnit::Sfu | FuncUnit::Mov => {
                !matches!(self, Op::SetP { .. } | Op::Shfl { .. })
            }
            FuncUnit::Mem | FuncUnit::Ctrl => false,
        }
    }

    /// Whether this is a pure register move (eligible for end-to-end move
    /// propagation under Swap-ECC, which then needs no shadow copy).
    #[must_use]
    pub fn is_move(&self) -> bool {
        matches!(self, Op::Mov { a: Src::Reg(_), .. })
    }

    /// The functional unit class.
    #[must_use]
    pub fn func_unit(&self) -> FuncUnit {
        match self {
            Op::Mov { .. } | Op::S2R { .. } | Op::Sel { .. } | Op::I2F { .. } | Op::F2I { .. } => {
                FuncUnit::Mov
            }
            Op::IAdd { .. }
            | Op::ISub { .. }
            | Op::IMul { .. }
            | Op::IMad { .. }
            | Op::IMadWide { .. }
            | Op::IMin { .. }
            | Op::IMax { .. }
            | Op::Shl { .. }
            | Op::Shr { .. }
            | Op::And { .. }
            | Op::Or { .. }
            | Op::Xor { .. }
            | Op::Not { .. }
            | Op::SetP { .. } => FuncUnit::Int,
            Op::FAdd { .. }
            | Op::FMul { .. }
            | Op::FFma { .. }
            | Op::FMin { .. }
            | Op::FMax { .. } => FuncUnit::F32,
            Op::MufuRcp { .. } | Op::MufuSqrt { .. } | Op::MufuEx2 { .. } | Op::MufuLg2 { .. } => {
                FuncUnit::Sfu
            }
            Op::DAdd { .. } | Op::DMul { .. } | Op::DFma { .. } => FuncUnit::F64,
            Op::Ld { .. } | Op::St { .. } | Op::AtomAdd { .. } => FuncUnit::Mem,
            Op::Shfl { .. } => FuncUnit::Mov,
            Op::Bar | Op::Bra { .. } | Op::Exit | Op::Trap | Op::Nop => FuncUnit::Ctrl,
        }
    }

    /// Register-read-to-register-read dependency latency in cycles
    /// (writeback latency; no bypassing, per §III-A).
    #[must_use]
    pub fn dep_latency(&self) -> u32 {
        match self.func_unit() {
            FuncUnit::Mov => 6,
            FuncUnit::Int | FuncUnit::F32 => 6,
            FuncUnit::F64 => 10,
            FuncUnit::Sfu => 14,
            FuncUnit::Mem => match self {
                Op::Ld {
                    space: MemSpace::Shared,
                    ..
                }
                | Op::St {
                    space: MemSpace::Shared,
                    ..
                } => 30,
                _ => 380,
            },
            FuncUnit::Ctrl => 1,
        }
    }

    /// Whether control can leave the sequential path here.
    #[must_use]
    pub fn is_control(&self) -> bool {
        matches!(self, Op::Bra { .. } | Op::Exit | Op::Trap)
    }

    /// Whether the operation touches memory.
    #[must_use]
    pub fn is_mem(&self) -> bool {
        matches!(self, Op::Ld { .. } | Op::St { .. } | Op::AtomAdd { .. })
    }

    /// A short SASS-like mnemonic.
    #[must_use]
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Op::Mov { .. } => "MOV",
            Op::S2R { .. } => "S2R",
            Op::IAdd { .. } => "IADD",
            Op::ISub { .. } => "ISUB",
            Op::IMul { .. } => "IMUL",
            Op::IMad { .. } => "IMAD",
            Op::IMadWide { .. } => "IMAD.WIDE",
            Op::IMin { .. } => "IMIN",
            Op::IMax { .. } => "IMAX",
            Op::Shl { .. } => "SHL",
            Op::Shr { .. } => "SHR",
            Op::And { .. } => "LOP.AND",
            Op::Or { .. } => "LOP.OR",
            Op::Xor { .. } => "LOP.XOR",
            Op::Not { .. } => "LOP.NOT",
            Op::FAdd { .. } => "FADD",
            Op::FMul { .. } => "FMUL",
            Op::FFma { .. } => "FFMA",
            Op::FMin { .. } => "FMNMX.MIN",
            Op::FMax { .. } => "FMNMX.MAX",
            Op::MufuRcp { .. } => "MUFU.RCP",
            Op::MufuSqrt { .. } => "MUFU.SQRT",
            Op::MufuEx2 { .. } => "MUFU.EX2",
            Op::MufuLg2 { .. } => "MUFU.LG2",
            Op::I2F { .. } => "I2F",
            Op::F2I { .. } => "F2I",
            Op::DAdd { .. } => "DADD",
            Op::DMul { .. } => "DMUL",
            Op::DFma { .. } => "DFMA",
            Op::SetP { .. } => "ISETP",
            Op::Sel { .. } => "SEL",
            Op::Ld {
                space: MemSpace::Global,
                ..
            } => "LDG",
            Op::Ld {
                space: MemSpace::Shared,
                ..
            } => "LDS",
            Op::St {
                space: MemSpace::Global,
                ..
            } => "STG",
            Op::St {
                space: MemSpace::Shared,
                ..
            } => "STS",
            Op::AtomAdd { .. } => "ATOM.ADD",
            Op::Shfl { .. } => "SHFL",
            Op::Bar => "BAR.SYNC",
            Op::Bra { .. } => "BRA",
            Op::Exit => "EXIT",
            Op::Trap => "BPT.TRAP",
            Op::Nop => "NOP",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::RZ;

    #[test]
    fn defs_and_uses_expand_pairs() {
        let op = Op::IMadWide {
            d: Reg(10),
            a: Reg(2),
            b: Reg(3),
            c: Reg(4),
        };
        assert_eq!(op.defs(), vec![Reg(10), Reg(11)]);
        assert_eq!(op.uses(), vec![Reg(2), Reg(3), Reg(4), Reg(5)]);
    }

    #[test]
    fn rz_is_invisible() {
        let op = Op::IAdd {
            d: RZ,
            a: RZ,
            b: Src::Imm(3),
        };
        assert!(op.defs().is_empty());
        assert!(op.uses().is_empty());
    }

    #[test]
    fn map_regs_shifts_into_shadow_space() {
        let op = Op::FFma {
            d: Reg(1),
            a: Reg(2),
            b: Reg(3),
            c: Reg(1),
        };
        let shadow = op.map_regs(|r, _| Reg(r.0 + 100));
        assert_eq!(
            shadow,
            Op::FFma {
                d: Reg(101),
                a: Reg(102),
                b: Reg(103),
                c: Reg(101),
            }
        );
    }

    #[test]
    fn eligibility_classification() {
        assert!(Op::FAdd {
            d: Reg(0),
            a: Reg(1),
            b: Src::Imm(0)
        }
        .is_dup_eligible());
        assert!(Op::Mov {
            d: Reg(0),
            a: Src::Reg(Reg(1))
        }
        .is_dup_eligible());
        assert!(!Op::Ld {
            d: Reg(0),
            space: MemSpace::Global,
            addr: Reg(1),
            offset: 0,
            width: MemWidth::W32
        }
        .is_dup_eligible());
        assert!(!Op::Bra { target: 0 }.is_dup_eligible());
        assert!(!Op::SetP {
            p: Pred(0),
            cmp: CmpOp::Eq,
            ty: CmpTy::I32,
            a: Reg(0),
            b: Src::Imm(0)
        }
        .is_dup_eligible());
        assert!(!Op::Shfl {
            d: Reg(0),
            a: Reg(1),
            mode: ShflMode::Bfly(16)
        }
        .is_dup_eligible());
    }

    #[test]
    fn move_detection() {
        assert!(Op::Mov {
            d: Reg(0),
            a: Src::Reg(Reg(1))
        }
        .is_move());
        assert!(!Op::Mov {
            d: Reg(0),
            a: Src::Imm(5)
        }
        .is_move());
    }

    #[test]
    fn store_uses_width() {
        let st64 = Op::St {
            space: MemSpace::Global,
            addr: Reg(0),
            offset: 0,
            v: Reg(4),
            width: MemWidth::W64,
        };
        assert_eq!(st64.uses(), vec![Reg(0), Reg(4), Reg(5)]);
    }

    #[test]
    fn latencies_are_ordered() {
        let int = Op::IAdd {
            d: Reg(0),
            a: Reg(1),
            b: Src::Imm(1),
        }
        .dep_latency();
        let sfu = Op::MufuRcp {
            d: Reg(0),
            a: Reg(1),
        }
        .dep_latency();
        let mem = Op::Ld {
            d: Reg(0),
            space: MemSpace::Global,
            addr: Reg(1),
            offset: 0,
            width: MemWidth::W32,
        }
        .dep_latency();
        assert!(int < sfu && sfu < mem);
    }
}
