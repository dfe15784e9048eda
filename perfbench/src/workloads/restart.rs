//! `restart`: bring a set of `.mtx` matrices to their first exact
//! response from an empty cache (cold), then again over the populated
//! cache (warm), one fresh registry and server per matrix.

use super::{
    engine, ms_since, probe_schedule, registry_layers, reset_dir, schedule_layers, serve_config,
    timed_reps, Ctx, Layers, Measured, Workload, SETUP_REPS,
};
use crate::inputs::{self, Probe};
use crate::report::{json_num, json_obj, json_str};
use crate::rng::Rng;
use crate::stats::{median, Summary};
use crate::trace::Tracer;
use gust::prelude::*;
use gust::serve::RegistryStats;
use gust_sparse::io;
use gust_sparse::CsrMatrix;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One matrix of the set, on disk as Matrix Market text.
struct OnDisk {
    name: &'static str,
    mtx: PathBuf,
    matrix: CsrMatrix,
    probe: Probe,
}

/// The restart set and its cache directory.
pub struct Restart {
    set: Vec<OnDisk>,
    cache_dir: PathBuf,
    dir: PathBuf,
}

/// How one bring-up ended.
enum BringUp {
    Correct(f64, RegistryStats),
    Wrong,
    Failed,
}

fn gspb_path(mtx: &Path) -> PathBuf {
    let mut os = mtx.as_os_str().to_os_string();
    os.push(".gspb");
    PathBuf::from(os)
}

impl Restart {
    /// Generates the set and writes each matrix as `.mtx`.
    ///
    /// # Errors
    ///
    /// When a file cannot be written.
    pub fn setup(ctx: &Ctx) -> Result<(Self, f64), String> {
        let mtx_dir = ctx.dir.join("mtx");
        let (set, setup_s) = timed_reps(SETUP_REPS, || {
            reset_dir(&mtx_dir)?;
            let mut rng = Rng::new(ctx.seed, 0x5e7);
            let mut set = Vec::new();
            for (name, matrix) in inputs::restart_set(ctx.seed, ctx.scale) {
                let mtx = mtx_dir.join(format!("{name}.mtx"));
                let failed = |e: std::io::Error| format!("{}: {e}", mtx.display());
                let mut out = BufWriter::new(std::fs::File::create(&mtx).map_err(failed)?);
                io::write_matrix_market(&matrix.to_coo(), &mut out).map_err(failed)?;
                out.flush().map_err(failed)?;
                let probe = Probe::new(&matrix, &mut rng);
                set.push(OnDisk {
                    name,
                    mtx,
                    matrix,
                    probe,
                });
            }
            Ok(set)
        })?;
        let restart = Self {
            set,
            cache_dir: ctx.dir.join("schedules"),
            dir: ctx.dir.clone(),
        };
        Ok((restart, setup_s))
    }

    /// Removes every cache the bring-ups write: the binary matrix caches
    /// beside the `.mtx` files and the schedule directory.
    fn clear_caches(&self) -> Result<(), String> {
        for m in &self.set {
            let _ = std::fs::remove_file(gspb_path(&m.mtx));
        }
        reset_dir(&self.cache_dir)
    }

    /// `.mtx` → fresh registry and server → register → first response.
    /// Traced, the schedule acquisition is an explicit call before the
    /// first request instead of the dispatcher's, so it gets its own span.
    fn bring_up(&self, m: &OnDisk, warm: bool, tracer: &Tracer, req: u64) -> BringUp {
        let (root, read, acquire) = if warm {
            ("restart.warm", "io.read_gspb", "registry.acquire.disk")
        } else {
            ("restart.cold", "io.read_mtx", "registry.acquire.build")
        };
        let t = Instant::now();
        let outcome = tracer.span(root, None, req, |id| {
            let matrix = tracer
                .span(read, id, req, |_| io::read_matrix_market_cached(&m.mtx))
                .ok()?;
            let registry =
                Arc::new(ScheduleRegistry::new(engine()).with_cache_dir(&self.cache_dir));
            let server = tracer.span("serve.start", id, req, |_| {
                SpmvServer::start(Arc::clone(&registry), serve_config())
            });
            let key = tracer.span("registry.insert", id, req, |_| server.register(&matrix));
            if tracer.enabled() {
                tracer
                    .span(acquire, id, req, |_| registry.acquire(key))
                    .ok()?;
            }
            let resp = tracer.span("serve.call", id, req, |_| {
                server.call(0, key, m.probe.x.clone())
            });
            Some((resp, server))
        });
        let elapsed = ms_since(t);
        let Some((resp, server)) = outcome else {
            return BringUp::Failed;
        };
        let stats = server.registry().stats();
        drop(server);
        match resp {
            Ok(r) if m.probe.matches(&r.output) => BringUp::Correct(elapsed, stats),
            Ok(_) => BringUp::Wrong,
            Err(_) => BringUp::Failed,
        }
    }
}

fn add_stats(total: &mut RegistryStats, s: &RegistryStats) {
    total.hits += s.hits;
    total.misses += s.misses;
    total.rebuilds += s.rebuilds;
    total.disk_loads += s.disk_loads;
    total.quarantined += s.quarantined;
}

impl Workload for Restart {
    fn measure(&mut self, tracer: &Tracer, budget: Duration) -> Result<Measured, String> {
        let end = Instant::now() + budget;
        let (mut cold, mut warm) = (Vec::new(), Vec::new());
        let (mut attempted, mut failed, mut wrong) = (0u64, 0u64, 0u64);
        let mut stats = RegistryStats::default();
        let mut per_matrix: Vec<Vec<f64>> = vec![Vec::new(); 2 * self.set.len()];
        let mut req = 0u64;
        while Instant::now() < end || cold.is_empty() {
            self.clear_caches()?;
            for (pass_is_warm, sink) in [(false, &mut cold), (true, &mut warm)] {
                let mut total = 0.0;
                let mut ok = true;
                for (i, m) in self.set.iter().enumerate() {
                    req += 1;
                    attempted += 1;
                    match self.bring_up(m, pass_is_warm, tracer, req) {
                        BringUp::Correct(ms, s) => {
                            total += ms;
                            per_matrix[2 * i + usize::from(pass_is_warm)].push(ms);
                            add_stats(&mut stats, &s);
                        }
                        BringUp::Wrong => {
                            wrong += 1;
                            failed += 1;
                            ok = false;
                        }
                        BringUp::Failed => {
                            failed += 1;
                            ok = false;
                        }
                    }
                }
                // A pass with a failed bring-up has no valid total.
                if ok {
                    sink.push(total);
                }
            }
            if failed > 0 && cold.is_empty() {
                return Err("every cold pass had a failed bring-up".to_string());
            }
        }
        let primary = Summary::of(&cold).ok_or("no complete cold pass")?;
        let busy_s = (cold.iter().sum::<f64>() + warm.iter().sum::<f64>()) / 1e3;
        let responses = (cold.len() + warm.len()) * self.set.len();
        let mut layers = Layers::new();
        registry_layers(&stats, &mut layers);
        let mut phases: Vec<String> = self
            .set
            .iter()
            .enumerate()
            .map(|(i, m)| {
                json_obj(&[
                    ("phase", json_str(&format!("matrix-{}", m.name))),
                    ("nnz", m.matrix.nnz().to_string()),
                    ("cold_p50_ms", json_num(median(&per_matrix[2 * i]))),
                    ("warm_p50_ms", json_num(median(&per_matrix[2 * i + 1]))),
                ])
            })
            .collect();
        phases.push(json_obj(&[
            ("phase", json_str("passes")),
            ("cold_passes", cold.len().to_string()),
            ("warm_passes", warm.len().to_string()),
            ("cold_tail_ms", json_num(primary.tail)),
            ("cold_tail_pct", json_num(primary.tail_pct)),
        ]));
        Ok(Measured {
            primary,
            alt_p50_ms: median(&warm),
            rate_per_s: responses as f64 / busy_s,
            attempted,
            failed,
            wrong,
            phases,
            layers,
        })
    }

    fn probe(&mut self, tracer: &Tracer, layers: &mut Layers) -> Result<u64, String> {
        let mut schedules = Vec::new();
        let mut bytes = 0.0;
        for (i, m) in self.set.iter().enumerate() {
            let s = probe_schedule(&m.matrix, &self.dir, tracer, i as u64)?;
            bytes += super::container_bytes(&s);
            schedules.push(s);
        }
        layers.insert("serialize.bytes", bytes);
        schedule_layers(&schedules.iter().collect::<Vec<_>>(), layers);
        Ok(0)
    }
}
