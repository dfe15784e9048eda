//! The four workloads and the layer probes they share.

pub mod cg;
pub mod restart;
pub mod serve;

use crate::inputs::Probe;
use crate::stats::{median, Summary};
use crate::trace::Tracer;
use gust::prelude::*;
use gust::schedule::serialize;
use gust::serve::RegistryStats;
use gust_sparse::CsrMatrix;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Accelerator length every schedule is built for.
pub const L: usize = 64;
/// Repetitions of a set-up step; `setup_s` reports their median.
pub const SETUP_REPS: usize = 3;
/// Repetitions of each probed call.
const PROBE_REPS: usize = 7;

/// Per-layer values by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// What a workload is run with.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Seed every input derives from.
    pub seed: u64,
    /// Input size factor (1 = the sizes in `perfbench/README.md`).
    pub scale: f64,
    /// Total measuring time of the run.
    pub seconds: f64,
    /// Scratch directory for files the workload writes.
    pub dir: PathBuf,
}

/// What one measuring leg produced.
#[derive(Debug, Clone)]
pub struct Measured {
    /// The workload's primary latency sample (`p50_ms`, `tail_ms`).
    pub primary: Summary,
    /// Median of the secondary latency sample (`alt_p50_ms`).
    pub alt_p50_ms: f64,
    /// Highest sustained rate of the primary operation (`rate_per_s`).
    pub rate_per_s: f64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed: shed, deadline-missed, errored or wrong.
    pub failed: u64,
    /// Wrong answers among them.
    pub wrong: u64,
    /// One JSON object per phase, for the detail line.
    pub phases: Vec<String>,
    /// Per-layer values read during the leg.
    pub layers: Layers,
}

/// A workload after set-up.
pub trait Workload {
    /// Runs the workload for `budget`, tracing calls into `tracer`.
    ///
    /// # Errors
    ///
    /// When the leg produced no correct timing at all.
    fn measure(&mut self, tracer: &Tracer, budget: Duration) -> Result<Measured, String>;

    /// Times the layers the leg cannot reach from outside with direct
    /// calls; returns the wrong answers seen.
    ///
    /// # Errors
    ///
    /// When a probed call fails outright.
    fn probe(&mut self, tracer: &Tracer, layers: &mut Layers) -> Result<u64, String>;
}

/// Sets up workload `name`; returns it with its set-up time in seconds.
///
/// # Errors
///
/// An unknown workload name, or a set-up step that failed.
pub fn setup(name: &str, ctx: &Ctx) -> Result<(Box<dyn Workload>, f64), String> {
    fn boxed<W: Workload + 'static>(
        r: Result<(W, f64), String>,
    ) -> Result<(Box<dyn Workload>, f64), String> {
        r.map(|(w, s)| (Box::new(w) as Box<dyn Workload>, s))
    }
    match name {
        "serve-hot" => boxed(serve::Serving::setup(ctx, false)),
        "serve-churn" => boxed(serve::Serving::setup(ctx, true)),
        "restart" => boxed(restart::Restart::setup(ctx)),
        "cg-solve" => boxed(cg::CgSolve::setup(ctx)),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// The engine every workload uses: defaults at length [`L`].
#[must_use]
pub fn engine() -> Gust {
    Gust::new(GustConfig::new(L))
}

/// Serving defaults with the benchmark's request deadline.
#[must_use]
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        default_deadline: crate::openloop::DEADLINE,
        ..ServeConfig::default()
    }
}

/// Runs `f` `reps` times (at least once); returns the last value and the
/// median time in seconds.
///
/// # Errors
///
/// The first error `f` returns.
pub fn timed_reps<T>(
    reps: usize,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        last = Some(f()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one repetition"), median(&times)))
}

/// Milliseconds since `t`.
#[must_use]
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Empties (or creates) `dir`.
///
/// # Errors
///
/// When the directory cannot be recreated.
pub fn reset_dir(dir: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))
}

/// Computed matrix-stream bytes per non-zero of one scheduled walk: value,
/// column and adder index per slot, the color offsets, and the row
/// permutation read plus output write per row. Operand gathers are left
/// out, as in [`csr_bytes_per_nnz`].
#[must_use]
pub fn schedule_bytes_per_nnz(s: &ScheduledMatrix) -> f64 {
    let offsets: usize = s.windows().iter().map(|w| w.color_ptr().len()).sum();
    (12 * s.nnz() + 4 * offsets + 8 * s.rows()) as f64 / s.nnz().max(1) as f64
}

/// Computed matrix-stream bytes per non-zero of one CSR walk: value and
/// column per non-zero, the row pointer, and the output write per row.
#[must_use]
pub fn csr_bytes_per_nnz(m: &CsrMatrix) -> f64 {
    (8 * m.nnz() + 8 * (m.rows() + 1) + 4 * m.rows()) as f64 / m.nnz().max(1) as f64
}

/// Records the registry counters.
pub fn registry_layers(stats: &RegistryStats, layers: &mut Layers) {
    let lookups = stats.hits + stats.misses;
    if lookups > 0 {
        layers.insert("registry.hit_ratio", stats.hits as f64 / lookups as f64);
    }
    layers.insert("registry.rebuilds", stats.rebuilds as f64);
    layers.insert("registry.disk_loads", stats.disk_loads as f64);
    layers.insert("registry.quarantined", stats.quarantined as f64);
}

/// Times the scheduled walk at panel widths 1 and 16 and the single-vector
/// walk on `s`, against `CsrMatrix::spmv` on the same vectors. Needs at
/// least 16 probes. Returns the wrong answers seen.
pub fn probe_engine(
    engine: &Gust,
    s: &ScheduledMatrix,
    m: &CsrMatrix,
    probes: &[Probe],
    tracer: &Tracer,
    layers: &mut Layers,
) -> u64 {
    let mut wrong = 0;
    let nnz = m.nnz() as f64;
    for (width, span, csr_span) in [
        (1, "engine.panel.w1", "baseline.csr.w1"),
        (16, "engine.panel.w16", "baseline.csr.w16"),
    ] {
        let used = &probes[..width];
        let panel: Vec<f32> = used.iter().flat_map(|p| p.x.iter().copied()).collect();
        for _ in 0..PROBE_REPS {
            let out = tracer.span(span, None, 0, |_| {
                engine.try_execute_batch(s, std::hint::black_box(&panel), width)
            });
            let ok = out.is_ok_and(|(y, _)| {
                used.iter()
                    .enumerate()
                    .all(|(j, p)| p.matches(&y[j * m.rows()..(j + 1) * m.rows()]))
            });
            wrong += u64::from(!ok);
            tracer.span(csr_span, None, 0, |_| {
                for p in used {
                    std::hint::black_box(m.spmv(std::hint::black_box(&p.x)));
                }
            });
        }
        let panel_ms = median(&tracer.durations(span));
        let key = if width == 1 {
            "engine.gnnz_per_s.w1"
        } else {
            "engine.gnnz_per_s.w16"
        };
        layers.insert(key, nnz * width as f64 / panel_ms / 1e6);
    }
    for _ in 0..PROBE_REPS {
        let out = tracer.span("engine.single", None, 0, |_| {
            engine.try_execute(s, &probes[0].x)
        });
        wrong += u64::from(!out.is_ok_and(|run| probes[0].matches(&run.output)));
    }
    let single_ms = median(&tracer.durations("engine.single"));
    layers.insert("engine.gnnz_per_s.single", nnz / single_ms / 1e6);
    layers.insert("engine.bytes_per_nnz", schedule_bytes_per_nnz(s));
    layers.insert("baseline.bytes_per_nnz", csr_bytes_per_nnz(m));
    wrong
}

/// Times a fresh schedule build, its container write and read, and both
/// audits for `m`, using `dir` for the container. Returns the schedule.
///
/// # Errors
///
/// When the container cannot be written or read back, or an audit of a
/// freshly built schedule fails.
pub fn probe_schedule(
    m: &CsrMatrix,
    dir: &Path,
    tracer: &Tracer,
    req: u64,
) -> Result<ScheduledMatrix, String> {
    let path = dir.join(format!("probe-{req}.gust"));
    let s = tracer.span("schedule.build", None, req, |_| engine().schedule(m));
    tracer
        .span("serialize.write", None, req, |_| {
            serialize::write_schedule_file(&s, &path)
        })
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    let back = tracer
        .span("serialize.read", None, req, |_| {
            serialize::read_schedule_file(&path)
        })
        .map_err(|e| format!("read {}: {e}", path.display()))?;
    if back.nnz() != s.nnz() || back.total_colors() != s.total_colors() {
        return Err(format!("{} did not read back as written", path.display()));
    }
    let clean = tracer.span("verify.audit", None, req, |_| {
        gust::verify::audit_schedule(&s).is_clean()
    }) && tracer.span("verify.audit_against", None, req, |_| {
        gust::verify::audit_schedule_against(&s, m).is_clean()
    });
    if !clean {
        return Err("a freshly built schedule failed its audit".to_string());
    }
    let _ = std::fs::remove_file(&path);
    Ok(s)
}

/// Records the schedule shape metrics for a set of schedules: total
/// colors, and the paper's utilization `nnz / (l × cycles)` over the set.
pub fn schedule_layers(schedules: &[&ScheduledMatrix], layers: &mut Layers) {
    let colors: u64 = schedules.iter().map(|s| s.total_colors()).sum();
    let cycles: u64 = schedules.iter().map(|s| s.total_colors() + 2).sum();
    let nnz: usize = schedules.iter().map(|s| s.nnz()).sum();
    layers.insert("schedule.colors", colors as f64);
    layers.insert(
        "schedule.predicted_utilization",
        nnz as f64 / (L as f64 * cycles.max(1) as f64),
    );
}

/// Container size in bytes of `s`.
#[must_use]
pub fn container_bytes(s: &ScheduledMatrix) -> f64 {
    let mut buf = Vec::new();
    match serialize::write_schedule(s, &mut buf) {
        Ok(()) => buf.len() as f64,
        Err(_) => 0.0,
    }
}
