//! Typed error for the formation/pipeline path.
//!
//! The formation loop is iterative CFG surgery — exactly the class of
//! transformation the verifier exists to police. A violation discovered
//! mid-trial is not a reason to abort the whole compilation: the trial
//! machinery already knows how to roll the CFG back bit-identically, so the
//! correct reaction is *rollback + skip candidate*, reported through this
//! type. `ChfError` is therefore carried inside
//! [`crate::convergent::MergeOutcome::Skipped`] and surfaced by
//! [`crate::pipeline::try_compile`], never panicked.

use chf_ir::parse::ParseError;
use chf_ir::verify::VerifyError;
use chf_sim::functional::SimError;
use std::fmt;
use std::path::PathBuf;

/// An error detected (and contained) on the formation/pipeline path.
#[derive(Clone, Debug, PartialEq)]
pub enum ChfError {
    /// The IR verifier rejected the function.
    Verify {
        /// Where in the pipeline the violation was found.
        context: &'static str,
        /// The violation itself.
        error: VerifyError,
    },
    /// The functional simulator could not execute the function.
    Sim {
        /// Where in the pipeline the failure occurred.
        context: &'static str,
        /// The simulator error.
        error: SimError,
    },
    /// The differential oracle observed a behaviour change: the transformed
    /// function disagrees with the pre-transform function on a seeded input.
    OracleMismatch {
        /// Name of the function being transformed.
        function: String,
        /// The arguments on which behaviour diverged.
        args: Vec<i64>,
        /// Minimal reproducer written by the auto-shrinker, if one was
        /// produced (see `results/repros/`).
        repro: Option<PathBuf>,
    },
    /// Submitted `.til` text did not parse — a client error, reported with
    /// the parser's line/message diagnostics.
    Parse {
        /// The parse failure.
        error: ParseError,
    },
    /// A policy tournament could not crown a winner, for a reason that
    /// reproduces on every attempt: the uncompiled input fails its baseline
    /// simulation, or every portfolio entrant failed.
    Tournament {
        /// What went wrong.
        message: String,
    },
    /// A panic escaped the compilation itself and was caught at an
    /// isolation boundary (`catch_unwind` in the compile service or the
    /// benchmark harness). Unlike the typed variants above, nothing is
    /// known about the cause beyond the payload message — which is exactly
    /// why it is classified as *transient*: the retry policy distinguishes
    /// an environmental failure (allocation pressure, a poisoned worker)
    /// from a deterministic bug by compiling again.
    Panicked {
        /// Which isolation boundary caught the panic.
        context: &'static str,
        /// The panic payload rendered as text.
        message: String,
    },
}

impl ChfError {
    /// Whether the retry policy should re-attempt the compilation.
    ///
    /// Verifier violations, simulator failures, oracle mismatches, parse
    /// errors and failed tournaments are deterministic properties of (input, config) —
    /// retrying reproduces them byte-for-byte, so they are permanent. A
    /// caught panic is the one failure whose cause is unknown; one retry
    /// distinguishes environmental from deterministic (the same contract
    /// as `par_map_isolated`'s retry-once rationale).
    pub fn is_transient(&self) -> bool {
        matches!(self, ChfError::Panicked { .. })
    }
}

impl fmt::Display for ChfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChfError::Verify { context, error } => {
                write!(f, "verifier violation during {context}: {error}")
            }
            ChfError::Sim { context, error } => {
                write!(f, "simulation failure during {context}: {error}")
            }
            ChfError::OracleMismatch {
                function,
                args,
                repro,
            } => {
                write!(
                    f,
                    "differential oracle mismatch in `{function}` on args {args:?}"
                )?;
                if let Some(p) = repro {
                    write!(f, " (repro: {})", p.display())?;
                }
                Ok(())
            }
            ChfError::Parse { error } => write!(f, "parse error: {error}"),
            ChfError::Tournament { message } => write!(f, "tournament failed: {message}"),
            ChfError::Panicked { context, message } => {
                write!(f, "panic caught during {context}: {message}")
            }
        }
    }
}

impl std::error::Error for ChfError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ChfError::Verify { error, .. } => Some(error),
            ChfError::Sim { error, .. } => Some(error),
            ChfError::Parse { error } => Some(error),
            ChfError::OracleMismatch { .. }
            | ChfError::Tournament { .. }
            | ChfError::Panicked { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chf_ir::ids::BlockId;

    #[test]
    fn display_is_informative() {
        let e = ChfError::Verify {
            context: "merge trial",
            error: VerifyError::DanglingEdge(BlockId(3), BlockId(9)),
        };
        let s = e.to_string();
        assert!(s.contains("merge trial"));
        assert!(s.contains("B3"));

        let m = ChfError::OracleMismatch {
            function: "gcd".into(),
            args: vec![3, 7],
            repro: Some(PathBuf::from("results/repros/gcd-1234.til")),
        };
        let s = m.to_string();
        assert!(s.contains("gcd"));
        assert!(s.contains("repro"));
    }

    #[test]
    fn source_chains_to_inner_error() {
        use std::error::Error;
        let e = ChfError::Sim {
            context: "oracle run",
            error: chf_sim::functional::SimError::OutOfFuel { executed: 7 },
        };
        assert!(e.source().is_some());
        let p = ChfError::Parse {
            error: ParseError {
                line: 3,
                message: "bad opcode".into(),
            },
        };
        assert!(p.source().is_some());
        assert!(p.to_string().contains("line 3"));
    }

    #[test]
    fn only_panics_are_transient() {
        let panicked = ChfError::Panicked {
            context: "service worker",
            message: "boom".into(),
        };
        assert!(panicked.is_transient());
        assert!(panicked.to_string().contains("service worker"));
        let verify = ChfError::Verify {
            context: "compiled output",
            error: VerifyError::DanglingEdge(BlockId(0), BlockId(1)),
        };
        assert!(!verify.is_transient());
        assert!(!ChfError::OracleMismatch {
            function: "f".into(),
            args: vec![],
            repro: None,
        }
        .is_transient());
        assert!(!ChfError::Tournament {
            message: "every portfolio entrant failed".into(),
        }
        .is_transient());
    }
}
