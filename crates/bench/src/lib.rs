#![warn(missing_docs)]
//! # chf-bench — experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (§7):
//!
//! * [`table1`] — cycle-count improvement of the four phase orderings over
//!   basic blocks on the 24 microbenchmarks, with `m/t/u/p` statistics;
//! * [`table2`] — the VLIW, convergent-VLIW, depth-first and breadth-first
//!   heuristics on the same suite;
//! * [`table3`] — block-count improvement on the 19 SPEC-like composites
//!   (functional simulation);
//! * [`fig7`] — the cycle-count-reduction vs block-count-reduction
//!   correlation with its least-squares r²;
//! * [`whole_program`] — end-to-end cycle simulation of the composites
//!   (what §7.3 called "prohibitively slow"), with a measured-vs-model
//!   comparison against the block-count proxy.
//!
//! Every table is an instance of one [`matrix::Matrix`]: a suite × a list
//! of labelled compile configurations measured against the basic-block
//! baseline with the simulator(s) the table reads. The table modules only
//! name their columns and lay out their text and CSV cells; the matrix owns
//! the row type, compile-and-measure, the parallel runner, the `FAILED` and
//! `Average` rows ([`render::render_rows`]) and the CSV `POISONED` sentinel
//! ([`csv::write_rows`]).
//!
//! Binaries `table1`/`table2`/`table3`/`fig7`/`whole_program`/`summary`
//! print the tables.

pub mod csv;
pub mod fig7;
pub mod matrix;
pub mod render;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod whole_program;

/// Percent improvement of `new` over `base` (positive = faster/fewer).
pub fn percent_improvement(base: u64, new: u64) -> f64 {
    if base == 0 {
        return 0.0;
    }
    (base as f64 - new as f64) / base as f64 * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_improvement_signs() {
        assert_eq!(percent_improvement(100, 80), 20.0);
        assert_eq!(percent_improvement(100, 120), -20.0);
        assert_eq!(percent_improvement(0, 5), 0.0);
    }
}
