//! Run the complete evaluation: Tables 1-3 and Figure 7, printing the
//! tables and archiving CSVs under `results/`. Exits non-zero when a table
//! has a poisoned row or a CSV cannot be written.

use chf_bench::matrix::any_poisoned;
use chf_bench::{fig7, table1, table2, table3};

fn main() {
    std::fs::create_dir_all("results").ok();
    println!("=== Table 1 ===\n");
    let t1 = table1::run();
    print!("{}", table1::render(&t1));

    println!("\n=== Table 2 ===\n");
    let t2 = table2::run();
    print!("{}", table2::render(&t2));

    let budget = table2::DEFAULT_TRIAL_BUDGET;
    println!("\n=== Table 2 budget ablation (cap: {budget} trials/function) ===\n");
    let t2b = table2::run_budget();
    print!("{}", table2::render_budget(&t2b, budget));

    println!("\n=== Table 3 ===\n");
    let t3 = table3::run();
    print!("{}", table3::render(&t3));

    println!("\n=== Figure 7 ===\n");
    let pts = fig7::points(&t1);
    let fit = fig7::linear_fit(&pts);
    println!(
        "{} points, fit: cycles_saved = {:.2} * blocks_saved + {:.1}, r^2 = {:.3}",
        pts.len(),
        fit.slope,
        fit.intercept,
        fit.r2
    );

    let mut failed = false;
    for (name, rows) in [
        ("Table 1", &t1),
        ("Table 2", &t2),
        ("Table 2 budget ablation", &t2b),
        ("Table 3", &t3),
    ] {
        if any_poisoned(rows) {
            eprintln!("{name} has a poisoned row (marked FAILED above)");
            failed = true;
        }
    }
    for (name, data) in [
        ("results/table1.csv", table1::csv(&t1)),
        ("results/table2.csv", table2::csv(&t2)),
        ("results/table2_budget.csv", table2::budget_csv(&t2b)),
        ("results/table3.csv", table3::csv(&t3)),
        ("results/fig7.csv", fig7::csv(&pts, &fit)),
    ] {
        match std::fs::write(name, data) {
            Ok(()) => println!("wrote {name}"),
            Err(e) => {
                eprintln!("could not write {name}: {e}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
