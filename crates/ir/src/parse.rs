//! Textual IR parser — the inverse of the [`crate::print`] format.
//!
//! Accepts exactly what [`Function`]'s `Display` implementation produces,
//! so IR can be dumped, edited by hand, and reloaded:
//!
//! ```text
//! fn gcd(params: 2, regs: 7)
//! B0 "entry" (freq 1):
//!     r2 = ne r0, #0
//!     [r2] store r1, #5
//!   exits:
//!     [r2] -> B1  (count 3)
//!     -> ret r1
//! ```
//!
//! Block labels are renumbered on input (parsing assigns fresh contiguous
//! ids in order of appearance), so `parse(print(f))` is structurally
//! identical to `f` and textually identical whenever `f`'s ids were already
//! contiguous.

use crate::block::{Block, Exit, ExitTarget};
use crate::function::Function;
use crate::ids::{BlockId, Reg};
use crate::instr::{Instr, Opcode, Operand, Pred};
use crate::verify::verify;
use std::collections::BTreeMap;
use std::fmt;

/// A parse failure, with the 1-based source line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Register numbers, and the `params:` and `regs:` counts of the header,
/// must stay below this. Register files are sized by the largest register,
/// so an absurd count in hostile input would otherwise allocate gigabytes
/// in the first liveness analysis. The largest counts in practice are in
/// the low hundreds.
pub const MAX_REGS: u32 = 1 << 16;

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError {
        line,
        message: message.into(),
    })
}

fn opcode_from_mnemonic(m: &str) -> Option<Opcode> {
    Some(match m {
        "add" => Opcode::Add,
        "sub" => Opcode::Sub,
        "mul" => Opcode::Mul,
        "div" => Opcode::Div,
        "rem" => Opcode::Rem,
        "and" => Opcode::And,
        "or" => Opcode::Or,
        "xor" => Opcode::Xor,
        "shl" => Opcode::Shl,
        "shr" => Opcode::Shr,
        "not" => Opcode::Not,
        "neg" => Opcode::Neg,
        "mov" => Opcode::Mov,
        "eq" => Opcode::CmpEq,
        "ne" => Opcode::CmpNe,
        "lt" => Opcode::CmpLt,
        "le" => Opcode::CmpLe,
        "gt" => Opcode::CmpGt,
        "ge" => Opcode::CmpGe,
        "load" => Opcode::Load,
        "store" => Opcode::Store,
        _ => return None,
    })
}

fn parse_reg(tok: &str, line: usize) -> Result<Reg, ParseError> {
    let digits = tok.strip_prefix('r').ok_or_else(|| ParseError {
        line,
        message: format!("expected register, got `{tok}`"),
    })?;
    let n = digits.parse::<u32>().map_err(|_| ParseError {
        line,
        message: format!("bad register `{tok}`"),
    })?;
    if n >= MAX_REGS {
        return err(line, format!("register `{tok}` is not below {MAX_REGS}"));
    }
    Ok(Reg(n))
}

/// A `params:` or `regs:` count of the header, below [`MAX_REGS`].
fn parse_count(v: &str, what: &str, line: usize) -> Result<u32, ParseError> {
    match v.trim().parse::<u32>() {
        Ok(n) if n < MAX_REGS => Ok(n),
        Ok(_) => err(line, format!("{what} count is not below {MAX_REGS}")),
        Err(_) => err(line, format!("bad {what} count")),
    }
}

fn parse_operand(tok: &str, line: usize) -> Result<Operand, ParseError> {
    if let Some(v) = tok.strip_prefix('#') {
        v.parse::<i64>().map(Operand::Imm).map_err(|_| ParseError {
            line,
            message: format!("bad immediate `{tok}`"),
        })
    } else {
        parse_reg(tok, line).map(Operand::Reg)
    }
}

/// Strip a leading `[rN]` / `[!rN]` predicate from `s`, if present.
fn take_pred(s: &str, line: usize) -> Result<(Option<Pred>, &str), ParseError> {
    let s = s.trim_start();
    if let Some(rest) = s.strip_prefix('[') {
        let end = rest.find(']').ok_or_else(|| ParseError {
            line,
            message: "unterminated predicate".into(),
        })?;
        let inner = &rest[..end];
        let (if_true, regtok) = match inner.strip_prefix('!') {
            Some(r) => (false, r),
            None => (true, inner),
        };
        let reg = parse_reg(regtok, line)?;
        Ok((Some(Pred { reg, if_true }), rest[end + 1..].trim_start()))
    } else {
        Ok((None, s))
    }
}

fn parse_instruction(body: &str, line: usize) -> Result<Instr, ParseError> {
    let (pred, rest) = take_pred(body, line)?;
    if let Some(store_args) = rest.strip_prefix("store ") {
        let mut parts = store_args.split(',').map(str::trim);
        let addr = parse_operand(parts.next().unwrap_or(""), line)?;
        let value = parse_operand(
            parts.next().ok_or_else(|| ParseError {
                line,
                message: "store needs two operands".into(),
            })?,
            line,
        )?;
        if parts.next().is_some() {
            return err(line, "too many operands for store");
        }
        let mut i = Instr::store(addr, value);
        i.pred = pred;
        return Ok(i);
    }

    // `rD = mnemonic a(, b)?`
    let (dst_tok, rhs) = rest.split_once('=').ok_or_else(|| ParseError {
        line,
        message: format!("expected `dst = op ...` in `{rest}`"),
    })?;
    let dst = parse_reg(dst_tok.trim(), line)?;
    let rhs = rhs.trim();
    let (mnem, args) = rhs.split_once(' ').ok_or_else(|| ParseError {
        line,
        message: format!("missing operands in `{rhs}`"),
    })?;
    let op = opcode_from_mnemonic(mnem).ok_or_else(|| ParseError {
        line,
        message: format!("unknown opcode `{mnem}`"),
    })?;
    let mut parts = args.split(',').map(str::trim);
    let a = parse_operand(parts.next().unwrap_or(""), line)?;
    let b = parts.next().map(|t| parse_operand(t, line)).transpose()?;
    if parts.next().is_some() {
        return err(line, "too many operands");
    }
    let mut i = match (op.arity(), b) {
        (1, None) => Instr::unary(op, dst, a),
        (2, Some(b)) => Instr::binary(op, dst, a, b),
        (want, _) => {
            return err(line, format!("`{mnem}` takes {want} operand(s)"));
        }
    };
    i.pred = pred;
    Ok(i)
}

/// Parse `(count F)` / `(freq F)` style suffixes.
fn take_paren_suffix<'a>(s: &'a str, key: &str) -> (Option<f64>, &'a str) {
    let prefix = format!("({key} ");
    if let Some(open) = s.rfind(&prefix) {
        if let Some(close) = s[open..].find(')') {
            let inner = &s[open + prefix.len()..open + close];
            if let Ok(v) = inner.parse::<f64>() {
                return (Some(v), s[..open].trim_end());
            }
        }
    }
    (None, s)
}

fn parse_exit(
    body: &str,
    line: usize,
    labels: &mut BTreeMap<String, usize>,
) -> Result<(Exit, Option<usize>), ParseError> {
    let (count, body) = take_paren_suffix(body, "count");
    let (pred, rest) = take_pred(body, line)?;
    let rest = rest.strip_prefix("->").ok_or_else(|| ParseError {
        line,
        message: format!("expected `->` in exit `{body}`"),
    })?;
    let rest = rest.trim();
    let (target, label_slot) = if let Some(ret) = rest.strip_prefix("ret") {
        let ret = ret.trim();
        let value = if ret.is_empty() {
            None
        } else {
            Some(parse_operand(ret, line)?)
        };
        (ExitTarget::Return(value), None)
    } else {
        if !rest.starts_with('B') {
            return err(line, format!("expected block label or `ret`, got `{rest}`"));
        }
        let next = labels.len();
        let slot = *labels.entry(rest.to_string()).or_insert(next);
        // Placeholder target; fixed up after all blocks are known.
        (ExitTarget::Block(BlockId(0)), Some(slot))
    };
    Ok((
        Exit {
            pred,
            target,
            count: count.unwrap_or(0.0),
        },
        label_slot,
    ))
}

/// Parse a function from its textual form.
///
/// Blank lines and `#`-comment lines are ignored anywhere in the input, so
/// machine-written repro files (see `chf-core`'s differential oracle) can
/// carry a human-readable provenance header above the IR itself.
///
/// # Errors
/// Returns a [`ParseError`] with the offending line, or a verification
/// failure mapped to line 0 if the parsed function is structurally invalid.
pub fn parse_function(text: &str) -> Result<Function, ParseError> {
    let mut lines = text
        .lines()
        .enumerate()
        .filter(|(_, l)| {
            let t = l.trim();
            !t.is_empty() && !t.starts_with('#')
        })
        .peekable();

    // Header.
    let (ln, header) = lines.next().ok_or_else(|| ParseError {
        line: 0,
        message: "empty input".into(),
    })?;
    let header = header.trim();
    let rest = header.strip_prefix("fn ").ok_or_else(|| ParseError {
        line: ln + 1,
        message: "expected `fn name(params: N, regs: M)`".into(),
    })?;
    let open = rest.find('(').ok_or_else(|| ParseError {
        line: ln + 1,
        message: "missing `(` in header".into(),
    })?;
    let name = rest[..open].to_string();
    let args = rest[open + 1..].trim_end_matches(')');
    let mut params = 0u32;
    let mut regs = 0u32;
    for part in args.split(',') {
        let part = part.trim();
        if let Some(v) = part.strip_prefix("params:") {
            params = parse_count(v, "params", ln + 1)?;
        } else if let Some(v) = part.strip_prefix("regs:") {
            regs = parse_count(v, "regs", ln + 1)?;
        }
    }

    // Blocks.
    let mut labels: BTreeMap<String, usize> = BTreeMap::new();
    // (label slot, block, per-exit label slots)
    let mut blocks: Vec<(usize, Block, Vec<Option<usize>>)> = Vec::new();

    while let Some((ln, raw)) = lines.next() {
        let line_no = ln + 1;
        let line = raw.trim_end();
        if line.trim().is_empty() {
            continue;
        }
        if !line.starts_with('B') {
            return err(line_no, format!("expected block header, got `{line}`"));
        }
        let header = line.strip_suffix(':').ok_or_else(|| ParseError {
            line: line_no,
            message: "block header must end with `:`".into(),
        })?;
        let (freq, header) = take_paren_suffix(header, "freq");
        let header = header.trim_end();
        let (label, name_part) = match header.split_once(' ') {
            Some((l, n)) => (l, Some(n.trim())),
            None => (header, None),
        };
        let next = labels.len();
        let slot = *labels.entry(label.to_string()).or_insert(next);
        let mut block = Block {
            freq: freq.unwrap_or(0.0),
            name: name_part
                .map(|n| n.trim_matches('"').to_string())
                .filter(|n| !n.is_empty()),
            ..Block::new()
        };
        let mut exit_slots: Vec<Option<usize>> = Vec::new();

        // Instructions until `  exits:`.
        let mut in_exits = false;
        while let Some((ln2, raw2)) = lines.peek().copied() {
            let line_no2 = ln2 + 1;
            let l = raw2.trim_end();
            if l.trim().is_empty() {
                lines.next();
                continue;
            }
            if !l.starts_with(' ') {
                break; // next block header
            }
            lines.next();
            let body = l.trim_start();
            if body == "exits:" {
                in_exits = true;
                continue;
            }
            if in_exits {
                let (exit, slot) = parse_exit(body, line_no2, &mut labels)?;
                exit_slots.push(slot);
                block.exits.push(exit);
            } else {
                block.insts.push(parse_instruction(body, line_no2)?);
            }
        }
        blocks.push((slot, block, exit_slots));
    }

    if blocks.is_empty() {
        return err(0, "no blocks");
    }

    // Assemble: label slots are assigned in first-appearance order, and we
    // create function blocks in *definition* order; map slots to ids.
    let mut f = Function::new(name, params);
    let mut slot_to_id: BTreeMap<usize, BlockId> = BTreeMap::new();
    for (i, (slot, _, _)) in blocks.iter().enumerate() {
        let id = if i == 0 {
            f.entry
        } else {
            f.add_block(Block::new())
        };
        if slot_to_id.insert(*slot, id).is_some() {
            return err(0, "duplicate block label");
        }
    }
    for (slot, mut block, exit_slots) in blocks {
        for (e, s) in block.exits.iter_mut().zip(&exit_slots) {
            if let Some(s) = s {
                let id = slot_to_id.get(s).ok_or_else(|| ParseError {
                    line: 0,
                    message: "exit targets undefined block".into(),
                })?;
                e.target = ExitTarget::Block(*id);
            }
        }
        let id = slot_to_id[&slot];
        *f.block_mut(id) = block;
    }
    f.ensure_regs(regs);

    verify(&f).map_err(|e| ParseError {
        line: 0,
        message: format!("parsed function fails verification: {e}"),
    })?;
    Ok(f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::testgen::{generate, GenConfig};

    #[test]
    fn round_trip_simple() {
        let mut fb = FunctionBuilder::new("demo", 2);
        let e = fb.create_named_block("entry");
        let t = fb.create_block();
        let z = fb.create_block();
        fb.switch_to(e);
        let c = fb.cmp_lt(Operand::Reg(fb.param(0)), Operand::Reg(fb.param(1)));
        fb.branch(c, t, z);
        fb.switch_to(t);
        fb.store(Operand::Imm(5), Operand::Reg(fb.param(0)));
        fb.ret(Some(Operand::Imm(1)));
        fb.switch_to(z);
        fb.ret(Some(Operand::Reg(fb.param(1))));
        let f = fb.build().unwrap();
        let text = f.to_string();
        let parsed = parse_function(&text).unwrap();
        assert_eq!(parsed.to_string(), text);
    }

    #[test]
    fn round_trip_generated_programs() {
        for seed in 0..40 {
            let f = generate(seed, &GenConfig::default());
            let text = f.to_string();
            let parsed =
                parse_function(&text).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{text}"));
            assert_eq!(parsed.to_string(), text, "seed {seed}");
        }
    }

    #[test]
    fn parses_predicates_and_counts() {
        let text = "fn p(params: 1, regs: 4)\n\
                    B0 (freq 7):\n    \
                    r1 = lt r0, #10\n    \
                    [r1] r2 = add r0, #1\n    \
                    [!r1] r3 = mov #0\n  \
                    exits:\n    \
                    [r1] -> B1  (count 5)\n    \
                    -> ret r3  (count 2)\n\
                    B1:\n  \
                    exits:\n    \
                    -> ret r2\n";
        let f = parse_function(text).unwrap();
        let b0 = f.block(f.entry);
        assert_eq!(b0.freq, 7.0);
        assert_eq!(b0.insts.len(), 3);
        assert_eq!(b0.insts[1].pred, Some(Pred::on_true(Reg(1))));
        assert_eq!(b0.insts[2].pred, Some(Pred::on_false(Reg(1))));
        assert_eq!(b0.exits[0].count, 5.0);
    }

    #[test]
    fn forward_references_resolve() {
        let text = "fn fwd(params: 0, regs: 0)\n\
                    B0:\n  exits:\n    -> B1\n\
                    B1:\n  exits:\n    -> ret\n";
        let f = parse_function(text).unwrap();
        assert_eq!(f.block_count(), 2);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let text =
            "fn bad(params: 0, regs: 2)\nB0:\n    r1 = frobnicate r0, #1\n  exits:\n    -> ret\n";
        let e = parse_function(text).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.to_string().contains("frobnicate"));
    }

    #[test]
    fn rejects_unverifiable_functions() {
        // Exit to a block that is never defined.
        let text = "fn bad(params: 0, regs: 0)\nB0:\n  exits:\n    -> B7\n";
        assert!(parse_function(text).is_err());
    }

    #[test]
    fn skips_comments_and_blank_lines() {
        let text = "# repro: seed 42, fault DanglingExit\n\
                    # reduced from 9 blocks to 2\n\n\
                    fn fwd(params: 0, regs: 0)\n\
                    B0:\n  exits:\n    -> B1\n\n\
                    # interior comment\n\
                    B1:\n  exits:\n    -> ret\n";
        let f = parse_function(text).unwrap();
        assert_eq!(f.block_count(), 2);
    }

    #[test]
    fn rejects_register_counts_at_or_above_the_limit() {
        let hostile = "fn f(params: 1, regs: 4294967295)\nB0 (freq 1):\n  exits:\n    -> ret r0\n";
        let e = parse_function(hostile).unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("regs count"), "{e}");

        let at = MAX_REGS;
        let below = MAX_REGS - 1;
        for (text, line) in [
            (format!("fn f(params: {at}, regs: 0)\nB0:\n  exits:\n    -> ret\n"), 1),
            (format!("fn f(params: 0, regs: {at})\nB0:\n  exits:\n    -> ret\n"), 1),
            (format!("fn f(params: 0, regs: 0)\nB0:\n    r{at} = mov #1\n  exits:\n    -> ret\n"), 3),
            (format!("fn f(params: 0, regs: 0)\nB0:\n  exits:\n    -> ret r{at}\n"), 4),
            (format!("fn f(params: 1, regs: 1)\nB0:\n    [r{at}] r0 = mov #1\n  exits:\n    -> ret\n"), 3),
        ] {
            let e = parse_function(&text).unwrap_err();
            assert_eq!(e.line, line, "{text}");
            assert!(e.message.contains(&MAX_REGS.to_string()), "{e}");
        }
        let top = below - 1;
        let f = parse_function(&format!(
            "fn f(params: 1, regs: {below})\nB0:\n    r{top} = mov r0\n  exits:\n    -> ret r{top}\n"
        ))
        .unwrap();
        assert_eq!(f.reg_count(), below);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_function("").is_err());
        assert!(parse_function("not a function").is_err());
        assert!(parse_function("fn x(params: 0, regs: 0)\n").is_err());
    }
}
