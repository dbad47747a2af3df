//! Per-register scratch tables for the block-local kernels.
//!
//! The optimizer's block kernels and [`Block::dedupe_exits`] keep a few
//! facts per register while they walk a block. A hash map pays a hash per
//! lookup; a dense vector zeroed per call pays for the largest register
//! number, which the parser lets reach [`MAX_REGS`] in a block of three
//! instructions. A [`RegTable`] is a dense vector whose slots carry the
//! epoch they were written in: [`RegTable::clear`] bumps the epoch, and a
//! slot from an older epoch reads as the default. A kernel keeps one table
//! per thread and reuses it across calls, so a call costs time linear in
//! its block and nothing in the register numbers. The storage grows only
//! when a register past its end is written, to the largest register seen.
//!
//! [`Block::dedupe_exits`]: crate::block::Block::dedupe_exits
//! [`MAX_REGS`]: crate::parse::MAX_REGS

use crate::ids::Reg;

/// A map from [`Reg`] to `T` over dense, epoch-stamped slots. Every
/// register maps to `T::default()` until it is [set](RegTable::set) in the
/// current epoch.
#[derive(Debug)]
pub struct RegTable<T> {
    slots: Vec<(u32, T)>,
    /// Never 0, so the zeroed stamp of a fresh slot is always stale.
    epoch: u32,
}

impl<T: Copy + Default> Default for RegTable<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy + Default> RegTable<T> {
    /// An empty table; it allocates nothing until the first write.
    pub const fn new() -> Self {
        RegTable {
            slots: Vec::new(),
            epoch: 1,
        }
    }

    /// Reset every register to the default in O(1): a new epoch. Only when
    /// the epoch counter wraps, once in 2³² calls, are the stamps zeroed.
    pub fn clear(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.slots.iter_mut().for_each(|s| s.0 = 0);
            self.epoch = 1;
        }
    }

    /// The value of `r`: the last one set since [`RegTable::clear`], or
    /// the default.
    #[inline]
    pub fn get(&self, r: Reg) -> T {
        match self.slots.get(r.index()) {
            Some(&(stamp, v)) if stamp == self.epoch => v,
            _ => T::default(),
        }
    }

    /// Set the value of `r`, growing the storage to `r` if needed.
    #[inline]
    pub fn set(&mut self, r: Reg, v: T) {
        *self.get_mut(r) = v;
    }

    /// A mutable reference to the value of `r`, reset to the default first
    /// if it is from an older epoch.
    #[inline]
    pub fn get_mut(&mut self, r: Reg) -> &mut T {
        let i = r.index();
        if i >= self.slots.len() {
            self.slots.resize(i + 1, (0, T::default()));
        }
        let slot = &mut self.slots[i];
        if slot.0 != self.epoch {
            *slot = (self.epoch, T::default());
        }
        &mut slot.1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clear_forgets_every_value_and_keeps_the_storage() {
        let mut t: RegTable<u32> = RegTable::new();
        assert_eq!(t.get(Reg(7)), 0, "unwritten");
        t.set(Reg(7), 3);
        *t.get_mut(Reg(2)) += 5;
        assert_eq!((t.get(Reg(7)), t.get(Reg(2)), t.get(Reg(100))), (3, 5, 0));
        assert_eq!(t.slots.len(), 8, "grown to the largest register set");
        t.clear();
        assert_eq!((t.get(Reg(7)), t.get(Reg(2))), (0, 0));
        *t.get_mut(Reg(7)) += 1;
        assert_eq!(t.get(Reg(7)), 1, "a stale slot reads as the default");
        assert_eq!(t.slots.len(), 8);
    }

    #[test]
    fn a_wrapped_epoch_leaves_no_stale_value_live() {
        let mut t: RegTable<u32> = RegTable::new();
        t.set(Reg(0), 9);
        t.epoch = u32::MAX;
        t.set(Reg(1), 4);
        t.clear();
        assert_eq!(t.epoch, 1);
        assert_eq!((t.get(Reg(0)), t.get(Reg(1))), (0, 0));
    }
}
