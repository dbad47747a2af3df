//! Ablation study over the design choices DESIGN.md calls out: speculation,
//! iterative optimization, trip-aware unrolling, head duplication and
//! tail duplication.
//!
//! For each configuration, reports the average % cycle improvement of
//! convergent formation over basic blocks across the 24 microbenchmarks.

use chf_core::convergent::{form_hyperblocks_with_profile, FormationConfig};
use chf_core::reverse::split_oversized;
use chf_core::PolicyKind;
use chf_sim::predictor::{PredictorConfig, PredictorKind};
use chf_sim::timing::{simulate_timing, TimingConfig};
use chf_workloads::{microbenchmarks, Workload};

/// Cycles of `w` compiled breadth-first with `config` (`None`: basic
/// blocks), followed by the final scalar-optimization pass and backend
/// splitting like the pipeline, and simulated under `timing`. Panics if the
/// compiled program does not return its expected value.
fn cycles(w: &Workload, config: Option<&FormationConfig>, timing: &TimingConfig) -> u64 {
    let mut f = w.function.clone();
    w.profile.apply(&mut f);
    if let Some(config) = config {
        let mut p = PolicyKind::BreadthFirst.instantiate();
        form_hyperblocks_with_profile(&mut f, p.as_mut(), config, Some(&w.profile));
    }
    chf_opt::optimize(&mut f);
    if let Some(config) = config {
        split_oversized(&mut f, &config.constraints);
        chf_ir::cfg::remove_unreachable(&mut f);
    }
    let t = simulate_timing(&f, &w.args, &w.memory, timing)
        .unwrap_or_else(|e| panic!("{}: {e}", w.name));
    assert_eq!(t.ret, Some(w.expected), "{} miscompiled", w.name);
    t.cycles
}

fn main() {
    let workers = chf_service::parallel::workers();
    let suite = microbenchmarks();
    // Average % cycle improvement of `config` over basic blocks under
    // `timing`.
    let average = |config: &FormationConfig, timing: &TimingConfig| -> f64 {
        let improvements = chf_service::parallel::par_map(&suite, workers, |w| {
            let bb = cycles(w, None, timing);
            let c = cycles(w, Some(config), timing);
            (bb as f64 - c as f64) / bb as f64 * 100.0
        });
        improvements.iter().sum::<f64>() / suite.len() as f64
    };

    let full = FormationConfig::default();
    println!("Ablation: average % cycle improvement over basic blocks (24 micros)\n");
    println!("{:<38} {:>8}", "configuration", "avg %");
    println!("{}", "-".repeat(48));

    let configs: Vec<(&str, FormationConfig)> = vec![
        ("full convergent (BF)", full.clone()),
        (
            "  - speculation (guard everything)",
            FormationConfig {
                speculation: false,
                ..full.clone()
            },
        ),
        (
            "  - iterative optimization",
            FormationConfig {
                iterative_opt: false,
                ..full.clone()
            },
        ),
        (
            "  - trip-aware unrolling",
            FormationConfig {
                trip_aware_unroll: false,
                ..full.clone()
            },
        ),
        (
            "  - head duplication (no unroll/peel)",
            FormationConfig {
                head_duplication: false,
                ..full.clone()
            },
        ),
        (
            "  - tail duplication",
            FormationConfig {
                tail_duplication: false,
                ..full.clone()
            },
        ),
    ];

    for (label, config) in configs {
        println!(
            "{:<38} {:>7.1}",
            label,
            average(&config, &TimingConfig::trips())
        );
    }

    // --- Timing-model sensitivity: how much of the hyperblock win depends
    // on the microarchitectural assumptions? ---
    println!(
        "
Timing-model sensitivity (convergent BF vs BB under each model)
"
    );
    println!("{:<38} {:>8}", "timing model", "avg %");
    println!("{}", "-".repeat(48));
    let timing_variants: Vec<(&str, TimingConfig)> = vec![
        ("TRIPS baseline", TimingConfig::trips()),
        (
            "  bimodal next-block predictor",
            TimingConfig {
                predictor: PredictorConfig::of_kind(PredictorKind::Bimodal),
                ..TimingConfig::trips()
            },
        ),
        (
            "  no next-block prediction",
            TimingConfig {
                predictor: PredictorConfig::of_kind(PredictorKind::Static),
                ..TimingConfig::trips()
            },
        ),
        (
            "  window of 2 blocks",
            TimingConfig {
                window_blocks: 2,
                ..TimingConfig::trips()
            },
        ),
        (
            "  double block overhead",
            TimingConfig {
                block_overhead: TimingConfig::trips().block_overhead * 2,
                ..TimingConfig::trips()
            },
        ),
        (
            "  zero block overhead",
            TimingConfig {
                block_overhead: 0,
                ..TimingConfig::trips()
            },
        ),
    ];
    for (label, timing) in timing_variants {
        println!("{:<38} {:>7.1}", label, average(&full, &timing));
    }
}
