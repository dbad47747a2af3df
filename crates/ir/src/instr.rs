//! Instructions, operands, and predicates.

use crate::ids::Reg;
use std::fmt;

/// Operation performed by an [`Instr`].
///
/// The set mirrors the RISC-like form the Scale compiler lowers to before
/// hyperblock formation: integer ALU operations, comparisons that produce a
/// 0/1 predicate value, moves, and memory accesses.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Opcode {
    /// `dst = a + b`
    Add,
    /// `dst = a - b`
    Sub,
    /// `dst = a * b`
    Mul,
    /// `dst = a / b` (wrapping; division by zero yields 0, like saturating
    /// hardware semantics — keeps the interpreter total)
    Div,
    /// `dst = a % b` (remainder; modulo-by-zero yields 0)
    Rem,
    /// `dst = a & b`
    And,
    /// `dst = a | b`
    Or,
    /// `dst = a ^ b`
    Xor,
    /// `dst = a << (b & 63)`
    Shl,
    /// `dst = a >> (b & 63)` (arithmetic)
    Shr,
    /// `dst = !a` (bitwise not)
    Not,
    /// `dst = -a`
    Neg,
    /// `dst = a`
    Mov,
    /// `dst = (a == b) as i64`
    CmpEq,
    /// `dst = (a != b) as i64`
    CmpNe,
    /// `dst = (a < b) as i64`
    CmpLt,
    /// `dst = (a <= b) as i64`
    CmpLe,
    /// `dst = (a > b) as i64`
    CmpGt,
    /// `dst = (a >= b) as i64`
    CmpGe,
    /// `dst = mem[a]`
    Load,
    /// `mem[a] = b`
    Store,
}

impl Opcode {
    /// Number of source operands this opcode consumes.
    pub fn arity(self) -> usize {
        match self {
            Opcode::Not | Opcode::Neg | Opcode::Mov | Opcode::Load => 1,
            _ => 2,
        }
    }

    /// Whether the opcode writes a destination register.
    pub fn has_dst(self) -> bool {
        !matches!(self, Opcode::Store)
    }

    /// Whether this is a memory access.
    pub fn is_memory(self) -> bool {
        matches!(self, Opcode::Load | Opcode::Store)
    }

    /// Whether this is a comparison producing a 0/1 value.
    pub fn is_compare(self) -> bool {
        matches!(
            self,
            Opcode::CmpEq
                | Opcode::CmpNe
                | Opcode::CmpLt
                | Opcode::CmpLe
                | Opcode::CmpGt
                | Opcode::CmpGe
        )
    }

    /// Whether the operation is commutative in its two operands.
    pub fn is_commutative(self) -> bool {
        matches!(
            self,
            Opcode::Add
                | Opcode::Mul
                | Opcode::And
                | Opcode::Or
                | Opcode::Xor
                | Opcode::CmpEq
                | Opcode::CmpNe
        )
    }

    /// Execution latency in cycles charged by the timing simulator.
    pub fn latency(self) -> u64 {
        match self {
            Opcode::Mul => 3,
            Opcode::Div | Opcode::Rem => 12,
            Opcode::Load => 3,
            Opcode::Store => 1,
            _ => 1,
        }
    }

    /// Mnemonic used by the printer.
    pub fn mnemonic(self) -> &'static str {
        match self {
            Opcode::Add => "add",
            Opcode::Sub => "sub",
            Opcode::Mul => "mul",
            Opcode::Div => "div",
            Opcode::Rem => "rem",
            Opcode::And => "and",
            Opcode::Or => "or",
            Opcode::Xor => "xor",
            Opcode::Shl => "shl",
            Opcode::Shr => "shr",
            Opcode::Not => "not",
            Opcode::Neg => "neg",
            Opcode::Mov => "mov",
            Opcode::CmpEq => "eq",
            Opcode::CmpNe => "ne",
            Opcode::CmpLt => "lt",
            Opcode::CmpLe => "le",
            Opcode::CmpGt => "gt",
            Opcode::CmpGe => "ge",
            Opcode::Load => "load",
            Opcode::Store => "store",
        }
    }
}

/// A source operand: either a register or an immediate constant.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Operand {
    /// Value of a virtual register.
    Reg(Reg),
    /// An immediate 64-bit constant.
    Imm(i64),
}

impl Operand {
    /// The register, if this operand is a register.
    pub fn as_reg(self) -> Option<Reg> {
        match self {
            Operand::Reg(r) => Some(r),
            Operand::Imm(_) => None,
        }
    }

    /// The constant, if this operand is an immediate.
    pub fn as_imm(self) -> Option<i64> {
        match self {
            Operand::Imm(v) => Some(v),
            Operand::Reg(_) => None,
        }
    }
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Self {
        Operand::Reg(r)
    }
}

impl From<i64> for Operand {
    fn from(v: i64) -> Self {
        Operand::Imm(v)
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(v) => write!(f, "#{v}"),
        }
    }
}

/// A predicate guard: instruction executes only when `reg`'s truth value
/// (non-zero) matches `if_true`.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct Pred {
    /// Register holding the predicate value.
    pub reg: Reg,
    /// `true` = execute when the register is non-zero; `false` = when zero.
    pub if_true: bool,
}

impl Pred {
    /// Predicate that fires when `reg` is true (non-zero).
    pub fn on_true(reg: Reg) -> Self {
        Pred { reg, if_true: true }
    }

    /// Predicate that fires when `reg` is false (zero).
    pub fn on_false(reg: Reg) -> Self {
        Pred {
            reg,
            if_true: false,
        }
    }

    /// The complementary predicate (same register, opposite polarity).
    pub fn negate(self) -> Self {
        Pred {
            reg: self.reg,
            if_true: !self.if_true,
        }
    }

    /// Whether `self` and `other` can never both be true.
    ///
    /// Only syntactic complements are recognized; this is conservative.
    pub fn is_complement_of(self, other: Pred) -> bool {
        self.reg == other.reg && self.if_true != other.if_true
    }
}

impl fmt::Display for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.if_true {
            write!(f, "[{}]", self.reg)
        } else {
            write!(f, "[!{}]", self.reg)
        }
    }
}

/// A single (optionally predicated) instruction.
///
/// Use the named constructors ([`Instr::add`], [`Instr::load`], …) rather
/// than building the struct directly; they enforce operand arity.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Instr {
    /// The operation.
    pub op: Opcode,
    /// Destination register, for opcodes that produce a value.
    pub dst: Option<Reg>,
    /// First source operand.
    pub a: Option<Operand>,
    /// Second source operand.
    pub b: Option<Operand>,
    /// Optional predicate guard.
    pub pred: Option<Pred>,
}

impl Instr {
    /// Generic binary-operation constructor.
    ///
    /// # Panics
    /// Panics if `op` is not a two-operand register-writing opcode.
    pub fn binary(op: Opcode, dst: Reg, a: Operand, b: Operand) -> Self {
        assert!(op.arity() == 2 && op.has_dst(), "not a binary op: {op:?}");
        Instr {
            op,
            dst: Some(dst),
            a: Some(a),
            b: Some(b),
            pred: None,
        }
    }

    /// Generic unary-operation constructor.
    ///
    /// # Panics
    /// Panics if `op` is not a one-operand register-writing opcode.
    pub fn unary(op: Opcode, dst: Reg, a: Operand) -> Self {
        assert!(op.arity() == 1 && op.has_dst(), "not a unary op: {op:?}");
        Instr {
            op,
            dst: Some(dst),
            a: Some(a),
            b: None,
            pred: None,
        }
    }

    /// `dst = a + b`
    pub fn add(dst: Reg, a: Operand, b: Operand) -> Self {
        Self::binary(Opcode::Add, dst, a, b)
    }

    /// `dst = a - b`
    pub fn sub(dst: Reg, a: Operand, b: Operand) -> Self {
        Self::binary(Opcode::Sub, dst, a, b)
    }

    /// `dst = a * b`
    pub fn mul(dst: Reg, a: Operand, b: Operand) -> Self {
        Self::binary(Opcode::Mul, dst, a, b)
    }

    /// `dst = a` (register copy or constant materialization)
    pub fn mov(dst: Reg, a: Operand) -> Self {
        Self::unary(Opcode::Mov, dst, a)
    }

    /// `dst = mem[addr]`
    pub fn load(dst: Reg, addr: Operand) -> Self {
        Self::unary(Opcode::Load, dst, addr)
    }

    /// `mem[addr] = value`
    pub fn store(addr: Operand, value: Operand) -> Self {
        Instr {
            op: Opcode::Store,
            dst: None,
            a: Some(addr),
            b: Some(value),
            pred: None,
        }
    }

    /// Attach a predicate guard, returning the modified instruction.
    pub fn predicated(mut self, pred: Pred) -> Self {
        self.pred = Some(pred);
        self
    }

    /// Registers read by this instruction, including the predicate register.
    pub fn uses(&self) -> impl Iterator<Item = Reg> + '_ {
        self.a
            .iter()
            .chain(self.b.iter())
            .filter_map(|o| o.as_reg())
            .chain(self.pred.iter().map(|p| p.reg))
    }

    /// The register defined by this instruction, if any.
    pub fn def(&self) -> Option<Reg> {
        self.dst
    }

    /// Whether this instruction has an observable side effect (memory write).
    pub fn has_side_effect(&self) -> bool {
        matches!(self.op, Opcode::Store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: u32) -> Reg {
        Reg(i)
    }

    #[test]
    fn constructors_enforce_arity() {
        let i = Instr::add(r(2), Operand::Reg(r(0)), Operand::Imm(3));
        assert_eq!(i.op, Opcode::Add);
        assert_eq!(i.def(), Some(r(2)));
        assert_eq!(i.uses().collect::<Vec<_>>(), vec![r(0)]);
    }

    #[test]
    #[should_panic(expected = "not a binary op")]
    fn binary_rejects_unary_opcode() {
        let _ = Instr::binary(Opcode::Mov, r(0), Operand::Imm(1), Operand::Imm(2));
    }

    #[test]
    fn store_has_no_dst_and_side_effect() {
        let s = Instr::store(Operand::Reg(r(1)), Operand::Reg(r(2)));
        assert!(s.def().is_none());
        assert!(s.has_side_effect());
        let uses: Vec<_> = s.uses().collect();
        assert_eq!(uses, vec![r(1), r(2)]);
    }

    #[test]
    fn predicate_counts_as_use() {
        let i = Instr::mov(r(3), Operand::Imm(1)).predicated(Pred::on_true(r(9)));
        assert!(i.uses().any(|u| u == r(9)));
    }

    #[test]
    fn pred_negation_and_complement() {
        let p = Pred::on_true(r(1));
        let n = p.negate();
        assert!(p.is_complement_of(n));
        assert!(!p.is_complement_of(p));
        assert!(!p.is_complement_of(Pred::on_false(r(2))));
    }

    #[test]
    fn opcode_properties() {
        assert!(Opcode::Add.is_commutative());
        assert!(!Opcode::Sub.is_commutative());
        assert!(Opcode::Load.is_memory());
        assert!(Opcode::CmpLt.is_compare());
        assert_eq!(Opcode::Mul.latency(), 3);
        assert_eq!(Opcode::Load.arity(), 1);
        assert!(!Opcode::Store.has_dst());
    }

    #[test]
    fn operand_conversions() {
        let o: Operand = Reg(5).into();
        assert_eq!(o.as_reg(), Some(Reg(5)));
        let o: Operand = 42i64.into();
        assert_eq!(o.as_imm(), Some(42));
        assert_eq!(o.as_reg(), None);
    }
}
