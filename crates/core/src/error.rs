//! Typed error for the formation/pipeline path.
//!
//! The formation loop is iterative CFG surgery — exactly the class of
//! transformation the verifier exists to police. A violation discovered
//! mid-trial is not a reason to abort the whole compilation: the trial
//! machinery already knows how to roll the CFG back bit-identically, so the
//! correct reaction is *rollback + skip candidate*, reported through this
//! type. `ChfError` is therefore carried inside
//! [`crate::convergent::Reject::Skipped`] and surfaced by
//! [`crate::pipeline::try_compile`], never panicked.

use crate::constraints::InvalidConstraints;
use chf_ir::parse::ParseError;
use chf_ir::verify::VerifyError;
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
    /// The compile configuration's block constraints are unusable (see
    /// [`crate::constraints::BlockConstraints::validate`]); rejected before
    /// any compile work starts.
    Constraints {
        /// What is wrong with them.
        error: InvalidConstraints,
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
    /// known about the cause beyond the payload message. The boundary
    /// compiles once more, immediately, before reporting it: compilation is
    /// deterministic, so a bug panics again; the retry recovers only a
    /// panic that did not come from the input, such as an injected fault.
    Panicked {
        /// Which isolation boundary caught the panic.
        context: &'static str,
        /// The panic payload rendered as text.
        message: String,
    },
}

impl fmt::Display for ChfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChfError::Verify { context, error } => {
                write!(f, "verifier violation during {context}: {error}")
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
            ChfError::Constraints { error } => write!(f, "invalid block constraints: {error}"),
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
            ChfError::Parse { error } => Some(error),
            ChfError::Constraints { error } => Some(error),
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

        let p = ChfError::Panicked {
            context: "service worker",
            message: "boom".into(),
        };
        assert!(p.to_string().contains("service worker"));
    }

    #[test]
    fn source_chains_to_inner_error() {
        use std::error::Error;
        let e = ChfError::Verify {
            context: "compiled output",
            error: VerifyError::DanglingEdge(BlockId(0), BlockId(1)),
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
}
