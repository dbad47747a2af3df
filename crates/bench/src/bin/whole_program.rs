//! End-to-end cycle simulation of the SPEC-like composites with a
//! measured-vs-model comparison (see `chf_bench::whole_program`).
//!
//! Usage:
//!
//! ```sh
//! whole_program          # full suite, parallel; archives results/whole_program.csv
//! whole_program --smoke  # 3-composite prefix, sequential (CI budget)
//! ```

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let (workers, limit) = if smoke {
        (1, 3)
    } else {
        (chf_service::parallel::workers(), usize::MAX)
    };
    let (rows, fit) = chf_bench::whole_program::run_with(workers, limit);
    println!("Whole-program cycle simulation of the SPEC-like composites");
    println!("(convergent vs basic blocks, end-to-end on the reference input)\n");
    print!("{}", chf_bench::whole_program::render(&rows, &fit));
    if !smoke {
        std::fs::create_dir_all("results").ok();
        let csv = chf_bench::csv::whole_program_csv(&rows, &fit);
        match std::fs::write("results/whole_program.csv", &csv) {
            Ok(()) => println!("wrote results/whole_program.csv"),
            Err(e) => eprintln!("could not write results/whole_program.csv: {e}"),
        }
    }
    if rows.iter().any(|r| r.error.is_some()) {
        std::process::exit(1);
    }
}
