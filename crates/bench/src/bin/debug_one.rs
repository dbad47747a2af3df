//! Diagnostic: per-configuration breakdown for one microbenchmark.
//!
//! Usage: `debug_one [benchmark] [--ir] [--trace]`

use chf_core::pipeline::{compile, CompileConfig, PhaseOrdering};
use chf_sim::timing::{simulate_timing, simulate_timing_traced, TimingConfig};

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "art_1".into());
    let show_ir = std::env::args().any(|a| a == "--ir");
    let show_trace = std::env::args().any(|a| a == "--trace");
    let all = chf_workloads::microbenchmarks();
    let w = all
        .iter()
        .find(|w| w.name == name)
        .expect("unknown benchmark");

    for ordering in [
        PhaseOrdering::BasicBlocks,
        PhaseOrdering::Upio,
        PhaseOrdering::Iupo,
        PhaseOrdering::IupThenO,
        PhaseOrdering::Iupo_,
    ] {
        let c = compile(
            &w.function,
            &w.profile,
            &CompileConfig::with_ordering(ordering),
        );
        let t = simulate_timing(&c.function, &w.args, &w.memory, &TimingConfig::trips()).unwrap();
        println!(
            "{:8} cycles={:7} blocks={:6} fetched={:7} exec={:7} nullified={:6} mispred={:5}/{:5} static_blocks={} mtup={}",
            ordering.label(), t.cycles, t.blocks_executed, t.insts_fetched, t.insts_executed,
            t.insts_nullified, t.mispredictions, t.predictions, c.function.block_count(), c.stats.mtup(),
        );
        if show_ir && ordering == PhaseOrdering::Iupo_ {
            println!("{}", c.function);
        }
        if show_trace && ordering == PhaseOrdering::Iupo_ {
            let (_, trace) =
                simulate_timing_traced(&c.function, &w.args, &w.memory, &TimingConfig::trips())
                    .unwrap();
            trace.check().unwrap();
            // Aggregate residency (commit - dispatch) per static block.
            let mut per_block: std::collections::BTreeMap<_, (u64, u64)> =
                std::collections::BTreeMap::new();
            for e in &trace.events {
                let entry = per_block.entry(e.block).or_insert((0, 0));
                entry.0 += e.commit - e.dispatch;
                entry.1 += 1;
            }
            let mut rows: Vec<_> = per_block.into_iter().collect();
            rows.sort_by_key(|(_, (total, _))| std::cmp::Reverse(*total));
            println!("hottest blocks by total residency (cycles, executions, mean):");
            for (b, (total, n)) in rows.into_iter().take(5) {
                println!(
                    "  {b}: {total} cycles over {n} runs ({:.1}/run)",
                    total as f64 / n as f64
                );
            }
        }
    }
}

#[cfg(test)]
mod force_rebuild {}
