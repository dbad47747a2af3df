//! TRIPS structural block constraints (paper §2).
//!
//! The TRIPS ISA restricts every block to:
//!
//! 1. at most 128 instructions;
//! 2. at most 32 load/store instructions;
//! 3. at most 8 reads and 8 writes to each of 4 register banks;
//! 4. a fixed number of outputs per block (handled by output padding, whose
//!    cost is charged as estimated instruction overhead).
//!
//! The compiler must also leave headroom for instructions inserted after
//! formation (fanout/spill code, paper §6); [`BlockConstraints::headroom_percent`]
//! models that estimate.

use chf_ir::function::Function;
use chf_ir::ids::{BlockId, Reg};
use chf_ir::liveness::{Liveness, RegMeet};
use std::fmt;

/// Structural limits a block must satisfy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockConstraints {
    /// Maximum instruction slots (instructions + branch/exit slots).
    pub max_insts: usize,
    /// Maximum load/store instructions.
    pub max_memory_ops: usize,
    /// Number of register banks.
    pub reg_banks: u32,
    /// Maximum register-file reads per bank.
    pub reads_per_bank: usize,
    /// Maximum register-file writes per bank.
    pub writes_per_bank: usize,
    /// Fraction of `max_insts` reserved for post-formation insertions
    /// (fanout, spills, output padding), in percent.
    pub headroom_percent: usize,
}

impl BlockConstraints {
    /// The TRIPS prototype's constraints: 128 instructions, 32 loads/stores,
    /// 8 reads and 8 writes across each of 4 banks, with a 10% size
    /// headroom for fanout and spill insertions.
    pub fn trips() -> Self {
        BlockConstraints {
            max_insts: 128,
            max_memory_ops: 32,
            reg_banks: 4,
            reads_per_bank: 8,
            writes_per_bank: 8,
            headroom_percent: 10,
        }
    }

    /// Unconstrained blocks (useful for testing policies in isolation).
    pub fn unlimited() -> Self {
        BlockConstraints {
            max_insts: usize::MAX,
            max_memory_ops: usize::MAX,
            reg_banks: 4,
            reads_per_bank: usize::MAX,
            writes_per_bank: usize::MAX,
            headroom_percent: 0,
        }
    }

    /// Effective instruction budget after headroom. Saturates rather than
    /// overflows: a headroom above 100% leaves no budget.
    pub fn effective_max_insts(&self) -> usize {
        if self.max_insts == usize::MAX {
            return usize::MAX;
        }
        // `max_insts * headroom / 100`, split so the product cannot
        // overflow for any `max_insts`.
        let h = self.headroom_percent;
        let reserve = (self.max_insts / 100)
            .saturating_mul(h)
            .saturating_add((self.max_insts % 100).saturating_mul(h) / 100);
        self.max_insts.saturating_sub(reserve)
    }

    /// Reject constraints no block can be checked against: no register
    /// banks (every bank index divides by it), or a headroom above 100%.
    ///
    /// # Errors
    /// The first problem found.
    pub fn validate(&self) -> Result<(), InvalidConstraints> {
        if self.reg_banks == 0 {
            return Err(InvalidConstraints::NoRegisterBanks);
        }
        if self.headroom_percent > 100 {
            return Err(InvalidConstraints::HeadroomOver100 {
                percent: self.headroom_percent,
            });
        }
        Ok(())
    }

    /// Check block `b` of `f` against the constraints, using `liveness` for
    /// the register-interface counts. Allocates nothing: the bank counts
    /// are read straight from the liveness rows.
    ///
    /// # Errors
    /// Returns the first violated constraint.
    pub fn check_with(
        &self,
        f: &Function,
        b: BlockId,
        liveness: &Liveness,
    ) -> Result<(), Violation> {
        let blk = f.block(b);
        // Constant-output rule (paper §2/§4.1): every block execution must
        // produce the same number of register writes and stores, so each
        // additional exit path needs null-write padding for the outputs it
        // does not compute naturally. Charge one padding slot per register
        // output per extra exit.
        let writes = liveness.register_writes(b);
        let padding = blk.exits.len().saturating_sub(1) * writes.len();
        let size = blk.size() + padding;
        if size > self.effective_max_insts() {
            return Err(Violation::TooManyInstructions {
                block: b,
                size,
                max: self.effective_max_insts(),
            });
        }
        let mem = blk.memory_ops();
        if mem > self.max_memory_ops {
            return Err(Violation::TooManyMemoryOps {
                block: b,
                count: mem,
                max: self.max_memory_ops,
            });
        }
        let reads = liveness.register_reads(b);
        if let Some(bank) = self.first_overfull_bank(reads, self.reads_per_bank) {
            return Err(Violation::TooManyBankReads {
                block: b,
                bank,
                max: self.reads_per_bank,
            });
        }
        if let Some(bank) = self.first_overfull_bank(writes, self.writes_per_bank) {
            return Err(Violation::TooManyBankWrites {
                block: b,
                bank,
                max: self.writes_per_bank,
            });
        }
        Ok(())
    }

    /// The bank of register `r`.
    fn bank(&self, r: Reg) -> u32 {
        r.0 % self.reg_banks
    }

    /// The bank of the first register of `regs`, in ascending order, that is
    /// the `limit + 1`-th of its bank: the bank a running per-bank count
    /// would report first. Counts by rescanning the registers before it,
    /// which only the registers from index `limit` on need.
    fn first_overfull_bank(&self, regs: RegMeet<'_>, limit: usize) -> Option<u32> {
        if regs.len() <= limit {
            return None;
        }
        regs.iter().enumerate().skip(limit).find_map(|(i, r)| {
            let k = self.bank(r);
            let before = regs.iter().take(i).filter(|&q| self.bank(q) == k).count();
            (before == limit).then_some(k)
        })
    }

    /// Check block `b`, computing liveness internally.
    ///
    /// # Errors
    /// Returns the first violated constraint.
    pub fn check(&self, f: &Function, b: BlockId) -> Result<(), Violation> {
        let lv = Liveness::compute(f);
        self.check_with(f, b, &lv)
    }

    /// Check every block of `f`.
    ///
    /// # Errors
    /// Returns the first violation found, in block order.
    pub fn check_function(&self, f: &Function) -> Result<(), Violation> {
        let lv = Liveness::compute(f);
        for b in f.block_ids() {
            self.check_with(f, b, &lv)?;
        }
        Ok(())
    }
}

impl Default for BlockConstraints {
    fn default() -> Self {
        Self::trips()
    }
}

/// Constraints [`BlockConstraints::validate`] rejects.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InvalidConstraints {
    /// `reg_banks` is 0.
    NoRegisterBanks,
    /// `headroom_percent` reserves more than the whole block.
    HeadroomOver100 {
        /// The requested headroom.
        percent: usize,
    },
}

impl fmt::Display for InvalidConstraints {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvalidConstraints::NoRegisterBanks => write!(f, "reg_banks is 0"),
            InvalidConstraints::HeadroomOver100 { percent } => {
                write!(f, "headroom_percent {percent} is above 100")
            }
        }
    }
}

impl std::error::Error for InvalidConstraints {}

/// A violated structural constraint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// Block exceeds the instruction-slot budget.
    TooManyInstructions {
        /// Offending block.
        block: BlockId,
        /// Its size in slots.
        size: usize,
        /// The effective budget.
        max: usize,
    },
    /// Block exceeds the load/store budget.
    TooManyMemoryOps {
        /// Offending block.
        block: BlockId,
        /// Number of memory operations.
        count: usize,
        /// The budget.
        max: usize,
    },
    /// Too many register reads from one bank.
    TooManyBankReads {
        /// Offending block.
        block: BlockId,
        /// The saturated bank.
        bank: u32,
        /// The per-bank budget.
        max: usize,
    },
    /// Too many register writes to one bank.
    TooManyBankWrites {
        /// Offending block.
        block: BlockId,
        /// The saturated bank.
        bank: u32,
        /// The per-bank budget.
        max: usize,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::TooManyInstructions { block, size, max } => {
                write!(f, "block {block} has {size} instruction slots (max {max})")
            }
            Violation::TooManyMemoryOps { block, count, max } => {
                write!(f, "block {block} has {count} memory ops (max {max})")
            }
            Violation::TooManyBankReads { block, bank, max } => {
                write!(f, "block {block} reads bank {bank} more than {max} times")
            }
            Violation::TooManyBankWrites { block, bank, max } => {
                write!(f, "block {block} writes bank {bank} more than {max} times")
            }
        }
    }
}

impl std::error::Error for Violation {}

#[cfg(test)]
mod tests {
    use super::*;
    use chf_ir::builder::FunctionBuilder;
    use chf_ir::instr::Operand;

    #[test]
    fn trips_defaults() {
        let c = BlockConstraints::trips();
        assert_eq!(c.max_insts, 128);
        assert_eq!(c.effective_max_insts(), 116);
        assert_eq!(c.max_memory_ops, 32);
    }

    #[test]
    fn small_block_passes() {
        let mut fb = FunctionBuilder::new("f", 1);
        let e = fb.create_block();
        fb.switch_to(e);
        let x = fb.add(Operand::Reg(fb.param(0)), Operand::Imm(1));
        fb.ret(Some(Operand::Reg(x)));
        let f = fb.build().unwrap();
        assert_eq!(BlockConstraints::trips().check(&f, f.entry), Ok(()));
    }

    #[test]
    fn oversized_block_rejected() {
        let mut fb = FunctionBuilder::new("f", 1);
        let e = fb.create_block();
        fb.switch_to(e);
        let mut x = fb.param(0);
        for _ in 0..130 {
            x = fb.add(Operand::Reg(x), Operand::Imm(1));
        }
        fb.ret(Some(Operand::Reg(x)));
        let f = fb.build().unwrap();
        assert!(matches!(
            BlockConstraints::trips().check(&f, f.entry),
            Err(Violation::TooManyInstructions { .. })
        ));
    }

    #[test]
    fn memory_budget_enforced() {
        let mut fb = FunctionBuilder::new("f", 1);
        let e = fb.create_block();
        fb.switch_to(e);
        for i in 0..33 {
            fb.store(Operand::Imm(i), Operand::Imm(0));
        }
        fb.ret(None);
        let f = fb.build().unwrap();
        assert!(matches!(
            BlockConstraints::trips().check(&f, f.entry),
            Err(Violation::TooManyMemoryOps { .. })
        ));
    }

    #[test]
    fn bank_reads_enforced() {
        // Read 9 distinct registers of bank 0 (r0, r4, r8, ...): exceeds 8.
        let mut fb = FunctionBuilder::new("f", 40);
        let e = fb.create_block();
        let tgt = fb.create_block();
        fb.switch_to(e);
        fb.jump(tgt);
        fb.switch_to(tgt);
        let mut acc = fb.mov(Operand::Imm(0));
        for i in 0..9 {
            acc = fb.add(Operand::Reg(acc), Operand::Reg(chf_ir::ids::Reg(i * 4)));
        }
        fb.ret(Some(Operand::Reg(acc)));
        let f = fb.build().unwrap();
        assert!(matches!(
            BlockConstraints::trips().check(&f, tgt),
            Err(Violation::TooManyBankReads { bank: 0, .. })
        ));
    }

    #[test]
    fn bank_writes_enforced() {
        // Write 9 registers of bank 1 that are live-out.
        let mut fb = FunctionBuilder::new("f", 0);
        let e = fb.create_block();
        let sink = fb.create_block();
        fb.switch_to(e);
        let mut regs = Vec::new();
        // Allocate registers until we have 9 in bank 1.
        while regs.len() < 9 {
            let r = fb.fresh_reg();
            if r.bank() == 1 {
                regs.push(r);
            }
        }
        for (i, r) in regs.clone().into_iter().enumerate() {
            fb.mov_to(r, Operand::Imm(i as i64));
        }
        fb.jump(sink);
        fb.switch_to(sink);
        let mut acc = fb.mov(Operand::Imm(0));
        for r in regs {
            acc = fb.add(Operand::Reg(acc), Operand::Reg(r));
        }
        fb.ret(Some(Operand::Reg(acc)));
        let f = fb.build().unwrap();
        let entry = f.entry;
        assert!(matches!(
            BlockConstraints::trips().check(&f, entry),
            Err(Violation::TooManyBankWrites { bank: 1, .. })
        ));
    }

    #[test]
    fn unlimited_accepts_everything() {
        let mut fb = FunctionBuilder::new("f", 1);
        let e = fb.create_block();
        fb.switch_to(e);
        for i in 0..200 {
            fb.store(Operand::Imm(i), Operand::Imm(0));
        }
        fb.ret(None);
        let f = fb.build().unwrap();
        assert_eq!(BlockConstraints::unlimited().check_function(&f), Ok(()));
    }

    #[test]
    fn effective_budget_saturates() {
        let c = |max_insts, headroom_percent| BlockConstraints {
            max_insts,
            headroom_percent,
            ..BlockConstraints::trips()
        };
        assert_eq!(c(128, 100).effective_max_insts(), 0);
        assert_eq!(c(128, 1000).effective_max_insts(), 0);
        assert_eq!(c(199, 50).effective_max_insts(), 100);
        // Exact where `max_insts * headroom` overflows.
        let big = usize::MAX - 1;
        let exact = big as u128 - big as u128 * 10 / 100;
        assert_eq!(c(big, 10).effective_max_insts() as u128, exact);
        assert_eq!(c(usize::MAX, 10).effective_max_insts(), usize::MAX);
        assert_eq!(
            BlockConstraints::unlimited().effective_max_insts(),
            usize::MAX
        );
    }

    #[test]
    fn validate_rejects_no_banks_and_headroom_over_100() {
        assert_eq!(BlockConstraints::trips().validate(), Ok(()));
        assert_eq!(BlockConstraints::unlimited().validate(), Ok(()));
        let no_banks = BlockConstraints {
            reg_banks: 0,
            ..BlockConstraints::trips()
        };
        assert_eq!(
            no_banks.validate(),
            Err(InvalidConstraints::NoRegisterBanks)
        );
        let headroom = BlockConstraints {
            headroom_percent: 101,
            ..BlockConstraints::trips()
        };
        assert_eq!(
            headroom.validate(),
            Err(InvalidConstraints::HeadroomOver100 { percent: 101 })
        );
    }

    #[test]
    fn first_overfull_bank_matches_a_running_count() {
        // Reads of r0..r(n): with 3 banks and a limit of 2, the first
        // register past the limit in its bank is r6 (bank 0).
        let mut fb = FunctionBuilder::new("f", 12);
        let e = fb.create_block();
        let tgt = fb.create_block();
        fb.switch_to(e);
        fb.jump(tgt);
        fb.switch_to(tgt);
        let mut acc = fb.mov(Operand::Imm(0));
        for i in [1, 2, 4, 5, 6, 0, 9] {
            acc = fb.add(Operand::Reg(acc), Operand::Reg(Reg(i)));
        }
        fb.ret(Some(Operand::Reg(acc)));
        let f = fb.build().unwrap();
        let c = BlockConstraints {
            reg_banks: 3,
            reads_per_bank: 2,
            ..BlockConstraints::unlimited()
        };
        assert_eq!(
            c.check(&f, tgt),
            Err(Violation::TooManyBankReads {
                block: tgt,
                bank: 0,
                max: 2
            })
        );
        let lv = Liveness::compute(&f);
        let running = |limit: usize| {
            let mut counts = [0usize; 3];
            lv.register_reads(tgt).iter().find_map(|r| {
                let k = (r.0 % 3) as usize;
                counts[k] += 1;
                (counts[k] > limit).then_some(k as u32)
            })
        };
        for limit in 0..5 {
            assert_eq!(
                c.first_overfull_bank(lv.register_reads(tgt), limit),
                running(limit),
                "limit {limit}"
            );
        }
    }

    #[test]
    fn violation_messages() {
        let v = Violation::TooManyInstructions {
            block: BlockId(2),
            size: 150,
            max: 116,
        };
        assert!(v.to_string().contains("B2"));
        assert!(v.to_string().contains("150"));
    }
}
