//! The repository benchmark: four workloads over the GUST serving
//! runtime, restart path and engine, each answer checked, with an
//! untraced run for end-to-end metrics and a traced run for per-layer
//! ones. See `perfbench/README.md`.

pub mod inputs;
pub mod openloop;
pub mod report;
pub mod rng;
pub mod stats;
pub mod trace;
pub mod workloads;

use report::{json_num, json_obj, json_str, result_line, END_TO_END, PER_LAYER};
use stats::median;
use std::path::PathBuf;
use std::time::Duration;
use trace::Tracer;
use workloads::{Ctx, Layers};

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["serve-hot", "restart", "serve-churn", "cg-solve"];

/// Per-layer timings read as the median duration of one span name.
const SPAN_MEDIANS: &[(&str, &str)] = &[
    ("io.mtx_read_ms", "io.read_mtx"),
    ("io.gspb_read_ms", "io.read_gspb"),
    ("registry.insert_ms", "registry.insert"),
    ("registry.acquire_ms.build", "registry.acquire.build"),
    ("registry.acquire_ms.disk", "registry.acquire.disk"),
    ("schedule.build_ms", "schedule.build"),
    ("serialize.write_ms", "serialize.write"),
    ("serialize.read_ms", "serialize.read"),
    ("verify.audit_ms", "verify.audit"),
    ("verify.audit_against_ms", "verify.audit_against"),
    ("engine.panel_ms.w1", "engine.panel.w1"),
    ("engine.panel_ms.w16", "engine.panel.w16"),
    ("engine.single_ms", "engine.single"),
    ("engine.f64_panel_ms", "engine.walk_f64"),
    ("baseline.csr_ms.w1", "baseline.csr.w1"),
    ("baseline.csr_ms.w16", "baseline.csr.w16"),
];

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Seed every input derives from.
    pub seed: u64,
    /// Measuring time.
    pub seconds: f64,
    /// Whether this is the traced per-layer run.
    pub trace: bool,
    /// Input size factor; 1 unless testing.
    pub scale: f64,
    /// Where scratch files and the span dump go.
    pub workdir: PathBuf,
}

/// Usage text.
pub const USAGE: &str = "usage: perfbench --workload <serve-hot|restart|serve-churn|cg-solve> \
--seed <n> --seconds <s> --trace <0|1> [--scale <f>] [--workdir <dir>]";

impl Args {
    /// Parses `--flag value` pairs.
    ///
    /// # Errors
    ///
    /// A missing, unknown or malformed flag.
    pub fn parse(mut it: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let (mut scale, mut workdir) = (1.0, PathBuf::from(".bench_work"));
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag} {value:?}: expected {what}");
            match flag.as_str() {
                "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
                "--workload" => return Err(bad("a workload name")),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|_| bad("seconds"))?;
                    if !(s > 0.0 && s <= 3600.0) {
                        return Err(bad("seconds in (0, 3600]"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("0 or 1")),
                    });
                }
                "--scale" => {
                    scale = value.parse::<f64>().map_err(|_| bad("a number"))?;
                    if !(scale > 0.0 && scale <= 1.0) {
                        return Err(bad("a scale in (0, 1]"));
                    }
                }
                "--workdir" => workdir = PathBuf::from(value),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            scale,
            workdir,
        })
    }
}

/// The two output lines of a run.
#[derive(Debug, Clone)]
pub struct Run {
    /// Provenance and per-phase detail, one JSON object.
    pub detail: String,
    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub result: String,
    /// Whether every answer checked was right.
    pub correct: bool,
}

/// Runs one workload as `args` say, in a scratch directory under
/// `args.workdir` that is removed afterwards.
///
/// # Errors
///
/// A set-up or measuring step that failed outright.
pub fn run(args: &Args) -> Result<Run, String> {
    let dir = args.workdir.join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    workloads::reset_dir(&dir)?;
    let ctx = Ctx {
        seed: args.seed,
        scale: args.scale,
        seconds: args.seconds,
        dir: dir.clone(),
    };
    let out = run_in(args, &ctx);
    let _ = std::fs::remove_dir_all(&dir);
    out
}

fn run_in(args: &Args, ctx: &Ctx) -> Result<Run, String> {
    let (mut workload, setup_s) = workloads::setup(&args.workload, ctx)?;
    let budget = Duration::from_secs_f64(args.seconds);
    let mut detail: Vec<(&str, String)> = vec![
        ("provenance", provenance(args)),
        ("setup_s", json_num(setup_s)),
    ];
    let (metrics, attempted, failed, wrong) = if args.trace {
        let untraced = workload.measure(&Tracer::new(false), budget / 2)?;
        let tracer = Tracer::new(true);
        let traced = workload.measure(&tracer, budget / 2)?;
        let mut layers = traced.layers.clone();
        let probe_wrong = workload.probe(&tracer, &mut layers)?;
        let spans = tracer.spans();
        for &(metric, span) in SPAN_MEDIANS {
            let d: Vec<f64> = spans
                .iter()
                .filter(|s| s.name == span)
                .map(trace::Span::ms)
                .collect();
            if !d.is_empty() {
                layers.insert(metric, median(&d));
            }
        }
        for (layer, ms) in trace::self_ms_by_layer(&spans) {
            if let Some(&(metric, _)) = PER_LAYER
                .iter()
                .find(|(m, _)| m.strip_prefix("self_ms.") == Some(layer))
            {
                layers.insert(metric, ms);
            }
        }
        let pool = gust::Pool::global();
        layers.insert("pool.threads_spawned", pool.threads_spawned() as f64);
        layers.insert("pool.panics_observed", pool.panics_observed() as f64);
        layers.insert("trace.spans", spans.len() as f64);
        let overhead = traced.primary.p50 - untraced.primary.p50;
        layers.insert("trace.overhead_ms", overhead);
        layers.insert("trace.overhead_frac", overhead / untraced.primary.p50);
        layers.insert("tail_pct", traced.primary.tail_pct);
        layers.insert("samples", traced.primary.n as f64);
        let attempted = untraced.attempted + traced.attempted;
        let failed = untraced.failed + traced.failed + probe_wrong;
        layers.insert("fail_frac", failed as f64 / attempted.max(1) as f64);

        let trace_dir = args.workdir.join("trace");
        let trace_file = trace_dir.join(format!("{}-seed{}.json", args.workload, args.seed));
        std::fs::create_dir_all(&trace_dir)
            .and_then(|()| std::fs::write(&trace_file, trace::to_json(&spans)))
            .map_err(|e| format!("write {}: {e}", trace_file.display()))?;
        detail.push(("trace_file", json_str(&trace_file.display().to_string())));
        detail.push((
            "legs",
            legs_json(&[("untraced", &untraced), ("traced", &traced)]),
        ));
        let metrics = per_layer_metrics(&layers);
        let wrong = untraced.wrong + traced.wrong + probe_wrong;
        (metrics, attempted, failed, wrong)
    } else {
        let m = workload.measure(&Tracer::new(false), budget)?;
        let values = [
            setup_s,
            m.primary.p50,
            m.primary.tail,
            m.alt_p50_ms,
            m.rate_per_s,
        ];
        let metrics: Vec<(&str, f64, &str)> = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect();
        if let Some((name, v, _)) = metrics
            .iter()
            .find(|(_, v, _)| !(v.is_finite() && *v > 0.0))
        {
            return Err(format!("{name} was not measured ({v})"));
        }
        detail.push((
            "primary",
            json_obj(&[
                ("samples", m.primary.n.to_string()),
                ("p50_ms", json_num(m.primary.p50)),
                ("tail_ms", json_num(m.primary.tail)),
                ("tail_pct", json_num(m.primary.tail_pct)),
            ]),
        ));
        detail.push(("legs", legs_json(&[("untraced", &m)])));
        (metrics, m.attempted, m.failed, m.wrong)
    };
    Ok(Run {
        detail: json_obj(&detail),
        result: result_line(wrong == 0, attempted, failed, &metrics),
        correct: wrong == 0,
    })
}

fn per_layer_metrics(layers: &Layers) -> Vec<(&'static str, f64, &'static str)> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, layers.get(name).copied().unwrap_or(0.0), unit))
        .collect()
}

fn legs_json(legs: &[(&str, &workloads::Measured)]) -> String {
    let items: Vec<String> = legs
        .iter()
        .map(|(name, m)| {
            json_obj(&[
                ("leg", json_str(name)),
                ("attempted", m.attempted.to_string()),
                ("failed", m.failed.to_string()),
                ("wrong", m.wrong.to_string()),
                ("phases", format!("[{}]", m.phases.join(", "))),
            ])
        })
        .collect();
    format!("[{}]", items.join(", "))
}

/// Where and how the run was made.
fn provenance(args: &Args) -> String {
    let engine = workloads::engine();
    let (l1d, l2, llc) = report::cache_sizes();
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    json_obj(&[
        ("git_rev", json_str(&report::git_rev())),
        (
            "cpu_features",
            json_str(&gust_sparse::kernels::cpu_features()),
        ),
        ("backend", json_str(engine.backend().name())),
        ("reg_block", engine.reg_block().to_string()),
        ("reg_block_f64", engine.reg_block_f64().to_string()),
        ("nproc", nproc.to_string()),
        ("l1d_bytes", l1d.to_string()),
        ("l2_bytes", l2.to_string()),
        ("llc_bytes", llc.to_string()),
        ("accelerator_length", workloads::L.to_string()),
        ("workload", json_str(&args.workload)),
        ("seed", args.seed.to_string()),
        ("scale", json_num(args.scale)),
        ("seconds", json_num(args.seconds)),
        ("trace", args.trace.to_string()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn args_parse_the_required_flags() {
        let a = parse("--workload restart --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("restart", 7, 10.0, true)
        );
        assert_eq!(a.scale, 1.0);
        assert!(parse("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(parse("--workload restart --seed 1 --seconds 1 --trace 2").is_err());
        assert!(parse("--workload restart --seed 1 --trace 0").is_err());
        assert!(parse("--workload restart --seed 1 --seconds 1 --trace 0 --scale 2").is_err());
        assert!(parse("--workload restart --seed 1 --seconds 1 --trace 0 --bogus 1").is_err());
    }
}
