//! Command-line entry of the repository benchmark.
//!
//! ```text
//! perfbench --workload fig3-grid|fleet-churn|collocated-pairs --seed N
//!           --seconds S --trace 0|1
//! ```
//!
//! Prints a human-readable report on stderr, then on stdout the run
//! context as one JSON line and, last, the result object.

use gemini_perfbench::{run, Options};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match Options::parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&opts) {
        Ok(outcome) => {
            eprint!("{}", outcome.report);
            println!("{{\"context\": {}}}", outcome.context.to_json());
            println!("{}", outcome.result_json());
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
