//! `serve-hot` and `serve-churn`: open-loop serving of one hot matrix,
//! without and with new matrices admitted beside it.

use super::{
    engine, probe_engine, probe_schedule, registry_layers, reset_dir, schedule_layers,
    serve_config, timed_reps, Ctx, Layers, Measured, Workload, SETUP_REPS,
};
use crate::inputs::{self, Probe};
use crate::openloop::{
    max, run_phase, search_max_rate, Admission, Admissions, Phase, PhaseOutcome, Target,
};
use crate::rng::Rng;
use crate::stats::{median, Summary};
use crate::trace::Tracer;
use gust::prelude::*;
use gust::serve::{Acquired, PreparedSchedule};
use gust_sparse::CsrMatrix;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Distinct input vectors the hot requests cycle through.
const PROBES: usize = 32;
/// Panels hold about one request: arrivals during a ~10 ms single-vector
/// walk of the paper-scale matrix stay well below one.
const LIGHT_RPS: f64 = 40.0;
/// About four requests per panel: a third of the ~1.5 k/s the search
/// finds on a 2-vCPU AVX-512 host, so panels batch without the tail
/// turning into queueing that amplifies every slow spell of the host.
const HEAVY_RPS: f64 = 500.0;
/// Hot load while matrices are admitted.
const CHURN_RPS: f64 = 300.0;
/// New matrices admitted per second during churn.
const ADMIT_RPS: f64 = 5.0;
/// Rounds of the primary phase (light and heavy alternated on
/// `serve-hot`); `tail_ms` is the median of the rounds' tails.
const ROUNDS: u32 = 8;

/// The hot matrix behind a running server, plus the admission pool for
/// churn.
pub struct Serving {
    churn: bool,
    seed: u64,
    scale: f64,
    matrix: CsrMatrix,
    probes: Vec<Probe>,
    server: SpmvServer,
    key: MatrixKey,
    admissions: Option<Admissions>,
    dir: PathBuf,
    legs: u64,
}

/// Starts a server over a fresh registry (disk-backed when `cache_dir`
/// is given), registers `matrix` and memoizes its schedule with one
/// checked call.
fn start_server(
    matrix: &CsrMatrix,
    probe: &Probe,
    cache_dir: Option<&PathBuf>,
) -> Result<(SpmvServer, MatrixKey), String> {
    let mut registry = ScheduleRegistry::new(engine());
    if let Some(dir) = cache_dir {
        registry = registry.with_cache_dir(dir);
    }
    let server = SpmvServer::start(Arc::new(registry), serve_config());
    let key = server.register(matrix);
    let resp = server
        .call(0, key, probe.x.clone())
        .map_err(|e| format!("warm-up call failed: {e}"))?;
    if !probe.matches(&resp.output) {
        return Err("warm-up response differs from CsrMatrix::spmv".to_string());
    }
    Ok((server, key))
}

impl Serving {
    /// Generates the hot matrix, starts the server and memoizes the hot
    /// schedule, three times over; churn first generates its admissions
    /// and also pre-populates the cache of every other one. Returns the
    /// workload and its set-up time.
    ///
    /// # Errors
    ///
    /// When a set-up call fails or answers wrongly.
    pub fn setup(ctx: &Ctx, churn: bool) -> Result<(Self, f64), String> {
        let t = Instant::now();
        let items: Vec<Admission> = if churn {
            let count = (ADMIT_RPS * ctx.seconds * 1.1).ceil() as usize + 16;
            let mut rng = Rng::new(ctx.seed, 0xad);
            (0..count)
                .map(|i| {
                    let matrix = inputs::admit_matrix(ctx.seed, i, ctx.scale);
                    let probe = Probe::new(&matrix, &mut rng);
                    Admission {
                        matrix,
                        probe,
                        cached: i % 2 == 0,
                    }
                })
                .collect()
        } else {
            Vec::new()
        };
        let admissions_s = t.elapsed().as_secs_f64();

        let cache_dir = ctx.dir.join("schedules");
        let ((matrix, probes, server, key), hot_s) = timed_reps(SETUP_REPS, || {
            let matrix = inputs::hot_matrix(ctx.seed, ctx.scale);
            let probes = inputs::probes(&matrix, PROBES, ctx.seed);
            if !churn {
                let (server, key) = start_server(&matrix, &probes[0], None)?;
                return Ok((matrix, probes, server, key));
            }
            reset_dir(&cache_dir)?;
            let (server, key) = start_server(&matrix, &probes[0], Some(&cache_dir))?;
            let prepopulate = ScheduleRegistry::new(engine()).with_cache_dir(&cache_dir);
            for a in items.iter().filter(|a| a.cached) {
                let key = prepopulate.insert(&a.matrix);
                match prepopulate.acquire(key) {
                    Ok(Acquired::Scheduled(_)) => {}
                    _ => return Err("pre-populating an admission cache failed".to_string()),
                }
            }
            Ok((matrix, probes, server, key))
        })?;
        let admissions = churn.then(|| Admissions::new(items, ADMIT_RPS));
        let serving = Self {
            churn,
            seed: ctx.seed,
            scale: ctx.scale,
            matrix,
            probes,
            server,
            key,
            admissions,
            dir: ctx.dir.clone(),
            legs: 0,
        };
        Ok((serving, admissions_s + hot_s))
    }

    fn phase(&self, name: &str, rate: f64, span: Duration, stream: u64) -> Phase {
        Phase {
            name: name.to_string(),
            rate,
            span,
            seed: self.seed,
            stream,
            abortable: false,
        }
    }
}

impl Workload for Serving {
    fn measure(&mut self, tracer: &Tracer, budget: Duration) -> Result<Measured, String> {
        let stream = self.legs * 1_000;
        self.legs += 1;
        let target = Target {
            server: &self.server,
            key: self.key,
            probes: &self.probes,
        };
        let admissions = self.admissions.as_ref();
        let mut round_tails: Vec<Summary> = Vec::new();
        let (fixed, primary_phase, alt_p50_ms, known): (Vec<PhaseOutcome>, usize, f64, f64) =
            if self.churn {
                let chunk = budget / (2 * ROUNDS);
                let run = |s: u64| {
                    let phase = self.phase("churn", CHURN_RPS, chunk, stream + s);
                    run_phase(&target, &phase, admissions, tracer)
                };
                let mut churn = run(1);
                round_tails.extend(churn.summary());
                for round in 1..u64::from(ROUNDS) {
                    let next = run(1 + round);
                    round_tails.extend(next.summary());
                    churn.absorb(next);
                }
                let admits: Vec<f64> = churn
                    .admit_cold_ms
                    .iter()
                    .chain(&churn.admit_warm_ms)
                    .copied()
                    .collect();
                let alt = median(&admits);
                let known = if churn.sustained() {
                    CHURN_RPS
                } else {
                    CHURN_RPS / 4.0
                };
                (vec![churn], 0, alt, known)
            } else {
                // Alternate the two rates so a slow spell of the host
                // lands on both rather than on one.
                let chunk = budget / (4 * ROUNDS);
                let run = |name: &str, rate: f64, s: u64| {
                    run_phase(
                        &target,
                        &self.phase(name, rate, chunk, stream + s),
                        None,
                        tracer,
                    )
                };
                let (mut light, mut heavy) =
                    (run("light", LIGHT_RPS, 1), run("heavy", HEAVY_RPS, 2));
                round_tails.extend(heavy.summary());
                for round in 1..u64::from(ROUNDS) {
                    light.absorb(run("light", LIGHT_RPS, 1 + 2 * round));
                    let next = run("heavy", HEAVY_RPS, 2 + 2 * round);
                    round_tails.extend(next.summary());
                    heavy.absorb(next);
                }
                let known = if heavy.sustained() {
                    HEAVY_RPS
                } else if light.sustained() {
                    LIGHT_RPS
                } else {
                    LIGHT_RPS / 4.0
                };
                let alt = light.summary().map_or(0.0, |s| s.p50);
                (vec![light, heavy], 1, alt, known)
            };
        let search = search_max_rate(
            &target,
            known,
            budget / 2,
            self.seed,
            stream + 100,
            admissions,
            tracer,
        );

        let main = &fixed[primary_phase];
        let mut primary: Summary = main
            .summary()
            .ok_or_else(|| format!("phase {} produced no correct response", main.name))?;
        if !round_tails.is_empty() {
            // Pooled over the whole phase the tail sits near p99.7 and
            // follows the single worst stall of the host (or admission);
            // the median of the rounds' tails, each near p97, is steadier.
            primary.tail = median(&round_tails.iter().map(|s| s.tail).collect::<Vec<_>>());
            primary.tail_pct = median(&round_tails.iter().map(|s| s.tail_pct).collect::<Vec<_>>());
        }
        let all: Vec<&PhaseOutcome> = fixed.iter().chain(&search.steps).collect();
        let mut layers = Layers::new();
        layers.insert("serve.agg_factor", main.agg_factor());
        layers.insert(
            "serve.queue_depth",
            main.depth.iter().sum::<f64>() / main.depth.len().max(1) as f64,
        );
        layers.insert("serve.dispatch_ms", median(&main.server_ms));
        layers.insert("serve.client_gap_ms", median(&main.gap_ms));
        layers.insert(
            "serve.shed",
            fixed.iter().map(|p| p.shed).sum::<u64>() as f64,
        );
        layers.insert(
            "serve.deadline_missed",
            fixed.iter().map(|p| p.deadline_missed).sum::<u64>() as f64,
        );
        layers.insert(
            "serve.degraded",
            all.iter().map(|p| p.degraded).sum::<u64>() as f64,
        );
        let late: Vec<f64> = fixed
            .iter()
            .flat_map(|p| p.late_ms.iter().copied())
            .collect();
        layers.insert("gen.late_max_ms", max(&late));
        layers.insert(
            "gen.late_tail_ms",
            Summary::of(&late).map_or(0.0, |s| s.tail),
        );
        layers.insert(
            "gen.lagging_phases",
            all.iter().filter(|p| p.lagging()).count() as f64,
        );
        registry_layers(&self.server.registry().stats(), &mut layers);

        let mut phases: Vec<String> = all.iter().map(|p| p.to_json()).collect();
        phases.push(format!(
            "{{\"phase\": \"max-rate\", \"rate_rps\": {}, \"converged\": {}, \"steps\": {}}}",
            search.rate,
            search.converged,
            search.steps.len()
        ));
        // Search steps probe past capacity on purpose: only their wrong
        // answers count as failures.
        let wrong: u64 = all.iter().map(|p| p.wrong).sum();
        Ok(Measured {
            primary,
            alt_p50_ms,
            rate_per_s: search.rate,
            attempted: all.iter().map(|p| p.attempted()).sum(),
            failed: fixed.iter().map(PhaseOutcome::failed).sum::<u64>()
                + search.steps.iter().map(|p| p.wrong).sum::<u64>(),
            wrong,
            phases,
            layers,
        })
    }

    fn probe(&mut self, tracer: &Tracer, layers: &mut Layers) -> Result<u64, String> {
        let mut wrong = 0;
        // The walk the server runs: the memoized schedule from `acquire`.
        let acquired = tracer.span("registry.acquire.hit", None, 0, |_| {
            self.server.registry().acquire(self.key)
        });
        if let Ok(Acquired::Scheduled(v)) = acquired {
            if let PreparedSchedule::Flat(s) = v.get() {
                wrong += probe_engine(&engine(), s, &self.matrix, &self.probes, tracer, layers);
            }
        }
        let spare;
        let scheduled = if self.churn {
            // One unseen admission-sized matrix, admitted cold and then
            // again from its cache by a fresh registry.
            spare = inputs::admit_matrix(self.seed, usize::MAX >> 1, self.scale);
            let cache = self.dir.join("probe-cache");
            reset_dir(&cache)?;
            for span in ["registry.acquire.build", "registry.acquire.disk"] {
                let registry = ScheduleRegistry::new(engine()).with_cache_dir(&cache);
                let key = tracer.span("registry.insert", None, 0, |_| registry.insert(&spare));
                let got = tracer.span(span, None, 0, |_| registry.acquire(key));
                if !matches!(got, Ok(Acquired::Scheduled(_))) {
                    return Err(format!("{span} did not produce a schedule"));
                }
            }
            &spare
        } else {
            &self.matrix
        };
        let s = probe_schedule(scheduled, &self.dir, tracer, 1)?;
        layers.insert("serialize.bytes", super::container_bytes(&s));
        schedule_layers(&[&s], layers);
        Ok(wrong)
    }
}
