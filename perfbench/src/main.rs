//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a detail line (provenance and per-phase figures) and then the
//! result line, which is always the last line of standard output.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args = match perfbench::Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", perfbench::USAGE);
            return ExitCode::from(2);
        }
    };
    match perfbench::run(&args) {
        Ok(run) => {
            println!("{}", run.detail);
            println!("{}", run.result);
            if run.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: a response differed from its reference");
                ExitCode::from(3)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
