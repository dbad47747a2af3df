//! Hostile-input probe: every corpus program, mutated at the text level
//! (lines dropped, duplicated or swapped, tokens deleted, numbers made
//! extreme, the text truncated), goes through parsing, both simulators,
//! full verification, and a compile under a random, often absurd, profile.
//! The parser only accepts structurally valid IR, so the simulators also
//! run a copy of each parsed mutant broken in memory, which they must
//! refuse as malformed. Each mutant must end in `Ok` or a typed error; a
//! panic at any stage fails the test and names the mutant's file and seed.

use chf::core::pipeline::{try_compile, CompileConfig};
use chf::core::PolicyKind;
use chf::ir::block::{Exit, ExitTarget};
use chf::ir::function::Function;
use chf::ir::ids::{BlockId, Reg};
use chf::ir::instr::Pred;
use chf::ir::parse::parse_function;
use chf::ir::profile::{ProfileData, TripHistogram};
use chf::ir::testgen::SplitMix64;
use chf::ir::verify::verify_full;
use chf::sim::functional::{run, RunConfig, SimError};
use chf::sim::timing::{simulate_timing, TimingConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

/// Mutants drawn from each corpus program.
const MUTANTS_PER_FILE: u64 = 48;

/// Block budget of the simulator runs: mutants may loop forever.
const SIM_BLOCKS: u64 = 1_000;

/// Numbers that sit on or past the edge of what the text format, the
/// register file, or 64-bit arithmetic allow.
const EXTREMES: &[&str] = &[
    "0",
    "1",
    "65535",
    "65536",
    "4294967295",
    "4294967296",
    "9223372036854775807",
    "9223372036854775808",
    "18446744073709551615",
    "-1",
    "-9223372036854775808",
    "99999999999999999999999",
];

fn corpus_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("corpus directory") {
        let path = entry.expect("corpus entry").path();
        if path.is_dir() {
            corpus_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "til") {
            out.push(path);
        }
    }
}

fn pick<'a, T>(rng: &mut SplitMix64, items: &'a [T]) -> &'a T {
    &items[rng.below(items.len() as u64) as usize]
}

/// Apply one to three text-level mutations to `text`.
fn mutate(text: &str, rng: &mut SplitMix64) -> String {
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    for _ in 0..1 + rng.below(3) {
        if lines.is_empty() {
            break;
        }
        let i = rng.below(lines.len() as u64) as usize;
        match rng.below(6) {
            0 => {
                lines.remove(i);
            }
            1 => lines.insert(i, lines[i].clone()),
            2 => {
                // Swap with a line of the same indentation, so that most
                // swaps still parse and reach the compiler.
                let depth = |l: &String| l.len() - l.trim_start().len();
                let peers: Vec<usize> = (0..lines.len())
                    .filter(|&j| depth(&lines[j]) == depth(&lines[i]))
                    .collect();
                let j = *pick(rng, &peers);
                lines.swap(i, j);
            }
            3 => {
                let line = &lines[i];
                let indent = &line[..line.len() - line.trim_start().len()];
                let mut tokens: Vec<&str> = line.split_whitespace().collect();
                if !tokens.is_empty() {
                    tokens.remove(rng.below(tokens.len() as u64) as usize);
                }
                lines[i] = format!("{indent}{}", tokens.join(" "));
            }
            4 => lines[i] = extreme_number(&lines[i], rng),
            _ => {
                let joined = lines.join("\n");
                let mut cut = rng.below(joined.len() as u64 + 1) as usize;
                while !joined.is_char_boundary(cut) {
                    cut -= 1;
                }
                lines = joined[..cut].lines().map(str::to_string).collect();
            }
        }
    }
    lines.join("\n") + "\n"
}

/// Replace one run of digits in `line` with an extreme number.
fn extreme_number(line: &str, rng: &mut SplitMix64) -> String {
    let bytes = line.as_bytes();
    let runs: Vec<(usize, usize)> = (0..bytes.len())
        .filter(|&i| bytes[i].is_ascii_digit() && (i == 0 || !bytes[i - 1].is_ascii_digit()))
        .map(|start| {
            let len = bytes[start..]
                .iter()
                .take_while(|b| b.is_ascii_digit())
                .count();
            (start, start + len)
        })
        .collect();
    if runs.is_empty() {
        return line.to_string();
    }
    let &(start, end) = pick(rng, &runs);
    format!("{}{}{}", &line[..start], pick(rng, EXTREMES), &line[end..])
}

/// A profile over `f`'s blocks and exits whose counts and trip histograms
/// range from zero to `u64::MAX`.
fn random_profile(f: &Function, rng: &mut SplitMix64) -> ProfileData {
    let count = |rng: &mut SplitMix64| match rng.below(5) {
        0 => 0,
        1 => u64::MAX,
        2 => rng.next(),
        _ => rng.below(1000),
    };
    let mut p = ProfileData::default();
    for b in f.block_ids() {
        p.block_counts.insert(b, count(rng));
        for e in 0..f.block(b).exits.len() {
            p.exit_counts.insert((b, e), count(rng));
        }
        if rng.chance(30) {
            let mut h = TripHistogram::default();
            for _ in 0..1 + rng.below(3) {
                h.counts.insert(count(rng), count(rng));
            }
            p.trip_histograms.insert(b, h);
        }
    }
    p
}

/// How far a mutant got.
#[derive(Debug, Default)]
struct Tally {
    parse_errors: usize,
    /// Simulator answers that refused a parsed mutant as malformed.
    malformed_parsed: usize,
    /// Simulator answers that refused a corrupted copy as malformed.
    malformed_corrupted: usize,
    verify_errors: usize,
    compile_errors: usize,
    compiled: usize,
}

/// Break `f` structurally in one of four ways, chosen by `k` rather than
/// by the mutant's RNG, so the compile half keeps its inputs.
fn corrupt(f: &mut Function, k: u64) {
    let entry = f.entry;
    let ghost = BlockId(f.block_slots() as u32 + 1);
    match k % 4 {
        0 => f.entry = ghost,
        1 => f.block_mut(entry).exits.clear(),
        2 => f.block_mut(entry).exits[0].target = ExitTarget::Block(ghost),
        _ => {
            let bogus = Reg(f.reg_count() + 7);
            let mut exit = Exit::ret(None);
            exit.pred = Some(Pred::on_true(bogus));
            f.block_mut(entry).exits.insert(0, exit);
        }
    }
}

/// Run `f` on both simulators under a small block budget; return how many
/// of the two refused it as malformed.
fn simulate(f: &Function) -> usize {
    let args = vec![0; f.params as usize];
    let functional = run(
        f,
        &args,
        &[],
        &RunConfig {
            max_blocks: SIM_BLOCKS,
            ..RunConfig::default()
        },
    );
    let timing = simulate_timing(
        f,
        &args,
        &[],
        &TimingConfig {
            max_blocks: SIM_BLOCKS,
            ..TimingConfig::trips()
        },
    );
    [functional.err(), timing.err()]
        .iter()
        .filter(|e| matches!(e, Some(SimError::Malformed(_))))
        .count()
}

/// Run one mutant through the front end, the simulators and the compiler.
fn probe(text: &str, k: u64, rng: &mut SplitMix64, tally: &mut Tally) {
    let Ok(f) = parse_function(text) else {
        tally.parse_errors += 1;
        return;
    };
    tally.malformed_parsed += simulate(&f);
    let mut broken = f.clone();
    corrupt(&mut broken, k);
    tally.malformed_corrupted += simulate(&broken);
    if verify_full(&f).is_err() {
        tally.verify_errors += 1;
        return;
    }
    let profile = random_profile(&f, rng);
    let mut config = CompileConfig::convergent();
    config.policy = *pick(
        rng,
        &[
            PolicyKind::BreadthFirst,
            PolicyKind::HotFirst,
            PolicyKind::DepthFirst,
        ],
    );
    match try_compile(&f, &profile, &config) {
        Ok(_) => tally.compiled += 1,
        Err(_) => tally.compile_errors += 1,
    }
}

#[test]
fn mutated_corpus_programs_never_panic() {
    let mut files = Vec::new();
    corpus_files(
        &Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus"),
        &mut files,
    );
    files.sort();
    assert!(!files.is_empty(), "no corpus programs found");

    let mut tally = Tally::default();
    let mut panics = Vec::new();
    for (n, path) in files.iter().enumerate() {
        let text = std::fs::read_to_string(path).expect("corpus program");
        for k in 0..MUTANTS_PER_FILE {
            let seed = ((n as u64) << 32) | k;
            let mut rng = SplitMix64::new(seed);
            let mutant = mutate(&text, &mut rng);
            let outcome =
                catch_unwind(AssertUnwindSafe(|| probe(&mutant, k, &mut rng, &mut tally)));
            if outcome.is_err() {
                panics.push(format!("{} seed {seed}", path.display()));
            }
        }
    }
    assert!(panics.is_empty(), "mutants panicked: {panics:#?}");
    // The probe is only worth its time if mutants reach every stage.
    assert!(tally.parse_errors > 0, "{tally:?}");
    // The parser verifies what it accepts; every corrupted copy is refused
    // by both simulators.
    let parsed = MUTANTS_PER_FILE as usize * files.len() - tally.parse_errors;
    assert_eq!(tally.malformed_parsed, 0, "{tally:?}");
    assert_eq!(tally.malformed_corrupted, 2 * parsed, "{tally:?}");
    assert!(tally.verify_errors + tally.compile_errors > 0, "{tally:?}");
    assert!(tally.compiled > 0, "{tally:?}");
}

/// Every suite program with its non-parameter registers renamed to the
/// top of the register file (`rN` → `r(65534 − N)`, which the parser
/// admits) compiles, and behaves on its reference input as the original.
/// The optimizer's per-register scratch grows to the largest register a
/// block names, and must neither fail nor change a decision there.
#[test]
fn suite_programs_with_registers_near_the_limit_compile_and_behave() {
    let suite = chf::workloads::microbenchmarks()
        .into_iter()
        .chain(chf::workloads::spec_suite());
    for w in suite {
        let params = w.function.params;
        let top = |r: Reg| if r.0 < params { r } else { Reg(65534 - r.0) };
        let mut f = w.function.clone();
        let ids: Vec<BlockId> = f.block_ids().collect();
        for b in ids {
            f.block_mut(b).rename_regs(top);
        }
        f.ensure_regs(65535);
        let text = f.to_string();
        let f = parse_function(&text).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        assert_eq!(f.reg_count(), 65535, "{}", w.name);
        let compiled = try_compile(&f, &w.profile, &CompileConfig::default())
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let config = RunConfig::default();
        let want = run(&w.function, &w.args, &w.memory, &config).unwrap();
        let got = run(&compiled.function, &w.args, &w.memory, &config).unwrap();
        assert_eq!(got.digest(), want.digest(), "{}", w.name);
    }
}
