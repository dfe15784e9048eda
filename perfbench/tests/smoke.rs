//! Every workload, untraced and traced, at a tiny scale: the run succeeds,
//! every answer checks, and the result line names every declared metric.

use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::{run, Args, WORKLOADS};
use std::path::PathBuf;

#[test]
fn every_workload_runs_at_tiny_scale() {
    let workdir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke");
    for workload in WORKLOADS {
        for trace in [false, true] {
            let args = Args {
                workload: workload.to_string(),
                seed: 3,
                seconds: 2.0,
                trace,
                scale: 0.03,
                workdir: workdir.clone(),
            };
            let out = run(&args).unwrap_or_else(|e| panic!("{workload} trace={trace}: {e}"));
            assert!(out.correct, "{workload} trace={trace}: wrong answers");
            assert!(
                out.result
                    .starts_with("{\"correct\": true, \"attempted\": "),
                "{}",
                out.result
            );
            assert!(!out.result.contains("null"), "{}", out.result);
            let declared = if trace { PER_LAYER } else { END_TO_END };
            for &(name, unit) in declared {
                let entry = format!("\"{name}\": {{\"value\": ");
                assert!(out.result.contains(&entry), "{workload}: {name} missing");
                assert!(out.result.contains(&format!("\"unit\": \"{unit}\"")));
            }
            assert!(out.detail.contains("\"cpu_features\""));
        }
        let trace_file = workdir.join("trace").join(format!("{workload}-seed3.json"));
        let spans = std::fs::read_to_string(&trace_file).expect("traced run writes its spans");
        assert!(spans.contains("\"self_ms\""));
    }
}
