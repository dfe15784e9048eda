//! `cg-solve`: f64 conjugate gradient on a 2D Poisson grid, `CHAINS`
//! right-hand sides per scheduled walk, straight through the engine.

use super::{
    csr_bytes_per_nnz, engine, ms_since, schedule_bytes_per_nnz, schedule_layers, timed_reps, Ctx,
    Layers, Measured, Workload, SETUP_REPS,
};
use crate::inputs;
use crate::report::{json_num, json_obj, json_str};
use crate::rng::Rng;
use crate::stats::{median, Summary};
use crate::trace::Tracer;
use gust::prelude::*;
use gust::serve::reference_spmv_f64;
use gust_sparse::gen;
use gust_sparse::CsrMatrix;
use std::time::{Duration, Instant};

/// Right-hand sides solved together: two `reg_block_f64()` blocks of 8,
/// so every walk fans out over the worker pool.
pub const CHAINS: usize = 16;
/// Relative residual every chain is solved to.
pub const TOL: f64 = 1e-9;
/// Grid side at scale 1: 6 400 unknowns, small enough for about a
/// hundred solves per run so the tail rule has samples to work with.
const GRID: usize = 80;
/// Every `COLD_EVERY`-th solve schedules the matrix afresh first.
const COLD_EVERY: usize = 4;

/// A block CG solve: solutions, iterations, and time in the walks.
#[derive(Debug, Clone)]
pub struct Solved {
    /// Column-major `n × k` solution panel.
    pub x: Vec<f64>,
    /// Walks taken.
    pub iterations: usize,
}

/// Runs `k` independent CG recurrences on column-major panels of length
/// `n`, one `walk` (the panel product `A·P`) per iteration, until every
/// chain's recurrence residual is within `tol` of its right-hand side.
pub fn block_cg(
    n: usize,
    k: usize,
    b: &[f64],
    tol: f64,
    max_iter: usize,
    mut walk: impl FnMut(&[f64]) -> Vec<f64>,
) -> Solved {
    let dot = |a: &[f64], c: &[f64]| a.iter().zip(c).map(|(x, y)| x * y).sum::<f64>();
    let col = |j: usize| j * n..(j + 1) * n;
    let mut x = vec![0.0; n * k];
    let mut r = b.to_vec();
    let mut p = r.clone();
    let bnorm: Vec<f64> = (0..k).map(|j| dot(&b[col(j)], &b[col(j)]).sqrt()).collect();
    let mut rr: Vec<f64> = (0..k).map(|j| dot(&r[col(j)], &r[col(j)])).collect();
    let mut active: Vec<bool> = (0..k).map(|j| rr[j].sqrt() > tol * bnorm[j]).collect();
    let mut iterations = 0;
    while iterations < max_iter && active.iter().any(|&a| a) {
        let ap = walk(&p);
        iterations += 1;
        for j in 0..k {
            if !active[j] {
                continue;
            }
            let c = col(j);
            let alpha = rr[j] / dot(&p[c.clone()], &ap[c.clone()]);
            for i in c.clone() {
                x[i] += alpha * p[i];
                r[i] -= alpha * ap[i];
            }
            let next = dot(&r[c.clone()], &r[c.clone()]);
            active[j] = next.sqrt() > tol * bnorm[j];
            let beta = next / rr[j];
            rr[j] = next;
            for i in c {
                p[i] = r[i] + beta * p[i];
            }
        }
    }
    Solved { x, iterations }
}

/// The Poisson system with known solutions.
pub struct CgSolve {
    a: CsrMatrix,
    schedule: ScheduledMatrix,
    x_true: Vec<f64>,
    b: Vec<f64>,
    kappa: f64,
    last_iterations: usize,
}

impl CgSolve {
    /// Builds the grid operator, `CHAINS` integer solutions and their
    /// right-hand sides, then schedules the operator.
    ///
    /// # Errors
    ///
    /// Never; the signature matches the other workloads.
    pub fn setup(ctx: &Ctx) -> Result<(Self, f64), String> {
        // The whole set-up takes milliseconds, so it is repeated more often
        // than the others to give `setup_s` a steady median.
        timed_reps(3 * SETUP_REPS, || {
            let grid = inputs::dim(GRID, ctx.scale, 8);
            let a = CsrMatrix::from(&gen::laplacian_2d(grid));
            let n = a.rows();
            let mut rng = Rng::new(ctx.seed, 0xc9);
            let x_true: Vec<f64> = (0..n * CHAINS)
                .map(|_| f64::from(rng.nonzero_int(3)))
                .collect();
            let b: Vec<f64> = (0..CHAINS)
                .flat_map(|j| reference_spmv_f64(&a, &x_true[j * n..(j + 1) * n]))
                .collect();
            // The grid Laplacian's eigenvalues are 4 − 2cos(πi/(g+1)) − 2cos(πj/(g+1)).
            let c = (std::f64::consts::PI / (grid as f64 + 1.0)).cos();
            let kappa = (4.0 + 4.0 * c) / (4.0 - 4.0 * c);
            let schedule = engine().schedule(&a);
            Ok(Self {
                a,
                schedule,
                x_true,
                b,
                kappa,
                last_iterations: 0,
            })
        })
    }

    /// Whether every chain of `x` is the known solution: true relative
    /// residual within 10·`TOL`, and relative error within what that
    /// residual allows (`κ` times it).
    fn correct(&self, x: &[f64]) -> bool {
        let n = self.a.rows();
        let norm = |v: &[f64]| v.iter().map(|e| e * e).sum::<f64>().sqrt();
        (0..CHAINS).all(|j| {
            let c = j * n..(j + 1) * n;
            let ax = reference_spmv_f64(&self.a, &x[c.clone()]);
            let res: Vec<f64> = ax
                .iter()
                .zip(&self.b[c.clone()])
                .map(|(p, q)| p - q)
                .collect();
            let err: Vec<f64> = x[c.clone()]
                .iter()
                .zip(&self.x_true[c.clone()])
                .map(|(p, q)| p - q)
                .collect();
            let rel_res = norm(&res) / norm(&self.b[c.clone()]);
            let rel_err = norm(&err) / norm(&self.x_true[c]);
            rel_res <= 10.0 * TOL && rel_err <= self.kappa * 10.0 * TOL
        })
    }

    /// One solve through the engine on `schedule`.
    fn solve(&self, schedule: &ScheduledMatrix, tracer: &Tracer, req: u64) -> Solved {
        let n = self.a.rows();
        let e = engine();
        tracer.span("solve.cg", None, req, |id| {
            block_cg(n, CHAINS, &self.b, TOL, 20 * n, |p| {
                tracer.span("engine.walk_f64", id, req, |_| {
                    e.execute_batch_f64(schedule, p, CHAINS).0
                })
            })
        })
    }
}

impl Workload for CgSolve {
    fn measure(&mut self, tracer: &Tracer, budget: Duration) -> Result<Measured, String> {
        let start = Instant::now();
        let end = start + budget;
        let (mut warm, mut cold) = (Vec::new(), Vec::new());
        let (mut attempted, mut wrong) = (0u64, 0u64);
        let mut i = 0usize;
        while Instant::now() < end || warm.len() < 2 {
            attempted += 1;
            let t = Instant::now();
            let fresh;
            let schedule = if i % COLD_EVERY == COLD_EVERY - 1 {
                fresh = tracer.span("schedule.build", None, i as u64, |_| {
                    engine().schedule(&self.a)
                });
                &fresh
            } else {
                &self.schedule
            };
            let solved = self.solve(schedule, tracer, i as u64);
            let ms = ms_since(t);
            self.last_iterations = solved.iterations;
            if !self.correct(&solved.x) {
                wrong += 1;
            } else if i % COLD_EVERY == COLD_EVERY - 1 {
                cold.push(ms);
            } else {
                warm.push(ms);
            }
            i += 1;
            if wrong > 0 && warm.is_empty() && i > 4 {
                return Err("every solve missed the known answer".to_string());
            }
        }
        let elapsed = start.elapsed().as_secs_f64();
        let primary = Summary::of(&warm).ok_or("no correct solve")?;
        let mut layers = Layers::new();
        layers.insert("solve.iterations", self.last_iterations as f64);
        let phases = vec![json_obj(&[
            ("phase", json_str("solves")),
            ("unknowns", self.a.rows().to_string()),
            ("chains", CHAINS.to_string()),
            ("tol", json_num(TOL)),
            ("iterations", self.last_iterations.to_string()),
            ("warm_solves", warm.len().to_string()),
            ("cold_solves", cold.len().to_string()),
            ("warm_tail_ms", json_num(primary.tail)),
            ("warm_tail_pct", json_num(primary.tail_pct)),
        ])];
        Ok(Measured {
            primary,
            alt_p50_ms: if cold.is_empty() {
                primary.p50
            } else {
                median(&cold)
            },
            rate_per_s: (warm.len() + cold.len()) as f64 / elapsed,
            attempted,
            failed: wrong,
            wrong,
            phases,
            layers,
        })
    }

    fn probe(&mut self, tracer: &Tracer, layers: &mut Layers) -> Result<u64, String> {
        let n = self.a.rows();
        let a = &self.a;
        let t = Instant::now();
        let solved = tracer.span("baseline.csr_solve", None, 0, |_| {
            block_cg(n, CHAINS, &self.b, TOL, 20 * n, |p| {
                (0..CHAINS)
                    .flat_map(|j| reference_spmv_f64(a, &p[j * n..(j + 1) * n]))
                    .collect()
            })
        });
        layers.insert("baseline.csr_solve_s", t.elapsed().as_secs_f64());
        let walks = tracer.durations("engine.walk_f64").iter().sum::<f64>();
        let solves = tracer.durations("solve.cg").iter().sum::<f64>();
        if solves > 0.0 {
            layers.insert("solve.walk_share", walks / solves);
        }
        layers.insert(
            "engine.bytes_per_nnz",
            schedule_bytes_per_nnz(&self.schedule),
        );
        layers.insert("baseline.bytes_per_nnz", csr_bytes_per_nnz(&self.a));
        schedule_layers(&[&self.schedule], layers);
        Ok(u64::from(!self.correct(&solved.x)))
    }
}
