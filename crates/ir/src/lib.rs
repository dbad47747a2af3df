#![warn(missing_docs)]
//! # chf-ir — predicated RISC-like IR for hyperblock formation
//!
//! This crate provides the intermediate representation consumed by the
//! convergent hyperblock formation algorithm of Maher et al. (MICRO 2006),
//! together with the CFG analyses the algorithm depends on: dominators,
//! natural loops, liveness, and edge/trip-count profiles.
//!
//! The representation is deliberately close to the RISC-like form the Scale
//! compiler lowers to before hyperblock formation (paper §6):
//!
//! * A [`Function`] is a set of [`Block`]s with a distinguished entry.
//! * A [`Block`] is a list of (optionally predicated) [`Instr`]s followed by
//!   a list of [`Exit`]s, each of which may also be predicated. A *basic*
//!   block is simply a block with no predication; a *hyperblock* is the same
//!   structure after if-conversion has folded several basic blocks into one.
//! * Predicates are ordinary registers produced by comparison instructions;
//!   an instruction guarded by `[p]`/`[!p]` executes only when the predicate
//!   register holds a true/false value, matching TRIPS dataflow predication.
//!
//! Every instruction has executable semantics (see `chf-sim`), so every
//! transformation in the compiler can be validated by running the program
//! before and after and comparing observable behaviour.
//!
//! ## Example
//!
//! ```
//! use chf_ir::builder::FunctionBuilder;
//! use chf_ir::instr::Operand;
//!
//! // r0 is the parameter; compute r0 * 2 + 1 and return it.
//! let mut b = FunctionBuilder::new("double_plus_one", 1);
//! let entry = b.create_block();
//! b.switch_to(entry);
//! let p = b.param(0);
//! let twice = b.add(Operand::Reg(p), Operand::Reg(p));
//! let out = b.add(Operand::Reg(twice), Operand::Imm(1));
//! b.ret(Some(Operand::Reg(out)));
//! let f = b.build().unwrap();
//! assert_eq!(f.block_ids().count(), 1);
//! ```

pub mod block;
pub mod builder;
pub mod cfg;
pub mod dom;
pub mod fingerprint;
pub mod function;
pub mod fxhash;
pub mod ids;
pub mod instr;
pub mod liveness;
pub mod loops;
pub mod parse;
pub mod print;
pub mod profile;
pub mod regtable;
pub mod stats;
pub mod testgen;
pub mod verify;

pub use block::{Block, Exit, ExitTarget};
pub use builder::FunctionBuilder;
pub use dom::{DomCache, DomTree};
pub use fingerprint::{shape_fingerprint, CfgShape};
pub use function::Function;
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet};
pub use ids::{BlockId, Reg};
pub use instr::{Instr, Opcode, Operand, Pred};
pub use loops::{Loop, LoopForest};
pub use parse::{parse_function, ParseError};
pub use profile::{ProfileData, TripHistogram};
pub use stats::FunctionStats;
pub use verify::{verify, verify_changed, verify_full, VerifyError, VerifyMemo};
