//! Runs every paper-artifact runner in sequence and prints one combined
//! report: the paper's tables and figures in one run. Each section is also
//! a bench target of its own (e.g. `cargo bench -p gust_bench --bench
//! table4` for the Tables 3–4 comparison against Serpens).
//!
//! ```sh
//! cargo run --release -p gust_bench --bin repro_all            # default scale
//! GUST_SCALE=1 cargo run --release -p gust_bench --bin repro_all
//! ```

use gust_bench::runners;
use std::time::Instant;

fn main() {
    let scale = gust_bench::env_scale(0.25);
    let table4_scale = gust_bench::env_scale(0.125);
    let start = Instant::now();

    let sections: Vec<(&str, String)> = vec![
        ("table1", runners::table1::run(scale)),
        ("fig7", runners::fig7::run(scale)),
        ("fig8", runners::fig8::run(scale)),
        ("fig9", runners::fig9::run(scale)),
        ("table2", runners::table2::run(1.0)),
        ("table4", runners::table4::run(table4_scale)),
        ("table5", runners::table5::run(1.0)),
        ("bound", runners::bound::run(scale)),
        ("ablation", runners::ablation::run(scale)),
        ("scaling", runners::scaling::run(scale)),
    ];

    for (name, body) in &sections {
        println!("################ {name} ################\n");
        println!("{body}");
    }
    eprintln!(
        "reproduced {} artifacts in {:.1}s (scale {scale})",
        sections.len(),
        start.elapsed().as_secs_f64()
    );
}
