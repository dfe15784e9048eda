//! The open-loop load generator and the maximum-rate search.
//!
//! Independent users send on a Poisson schedule whatever the server's
//! state, so a stall delays every request due after it. One sender thread
//! submits at each request's due time and one waiter thread collects the
//! tickets in send order: two client threads, one per vCPU of the host
//! the benchmark was sized on.
//!
//! A request's latency runs from its due time to its completion. The
//! completion instant is the sender's timestamp just before `submit` plus
//! the response's own submit-to-completion latency, because the single
//! waiter reads tickets in send order and may reach one later than it
//! completed; that client-side gap is reported separately.

use crate::inputs::Probe;
use crate::report::{json_num, json_obj, json_str};
use crate::rng::poisson_schedule;
use crate::stats::{median, Summary};
use crate::trace::Tracer;
use gust::prelude::*;
use gust_sparse::CsrMatrix;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// The latency limit the tail must stay under for a rate to count as
/// sustained (stated in `BENCHMARK.json`'s workload reasons).
pub const LATENCY_LIMIT_MS: f64 = 50.0;
/// Per-request deadline handed to the server.
pub const DEADLINE: Duration = Duration::from_millis(500);
/// Tenants the hot requests are spread over, round-robin.
pub const TENANTS: usize = 4;
/// The tenant id that admits new matrices during churn.
pub const ADMIT_TENANT: usize = TENANTS;
/// A phase whose send lateness tail exceeds this is flagged as lagging.
pub const LAG_LIMIT_MS: f64 = 5.0;
/// Relative resolution of the maximum-rate search; finer than the
/// `rate_per_s` bound.
pub const SEARCH_STEP: f64 = 0.04;
/// A search step stops sending once a request takes this long.
const ABORT_MS: f64 = 4.0 * LATENCY_LIMIT_MS;
/// Upper end of the search.
const MAX_RATE: f64 = 50_000.0;
/// Time between starting a phase and its first due time.
const LEAD: Duration = Duration::from_millis(2);

/// The registered hot matrix and its inputs.
pub struct Target<'a> {
    /// The server under load.
    pub server: &'a SpmvServer,
    /// The hot matrix's key.
    pub key: MatrixKey,
    /// Inputs with expected outputs; request `i` sends `probes[i % len]`.
    pub probes: &'a [Probe],
}

/// A matrix admitted while the hot load runs.
pub struct Admission {
    /// The new matrix.
    pub matrix: CsrMatrix,
    /// Its first request.
    pub probe: Probe,
    /// Whether set-up already wrote its schedule to the cache directory.
    pub cached: bool,
}

/// A pool of admissions consumed in order across phases, arriving as a
/// Poisson stream of their own.
pub struct Admissions {
    /// The matrices, in admission order.
    pub items: Vec<Admission>,
    /// Admissions per second.
    pub rate: f64,
    next: AtomicUsize,
}

impl Admissions {
    /// A pool admitted at `rate` per second.
    #[must_use]
    pub fn new(items: Vec<Admission>, rate: f64) -> Self {
        Self {
            items,
            rate,
            next: AtomicUsize::new(0),
        }
    }

    fn take(&self) -> Option<&Admission> {
        self.items.get(self.next.fetch_add(1, Ordering::Relaxed))
    }
}

/// One stretch of load at a fixed offered rate.
#[derive(Debug, Clone)]
pub struct Phase {
    /// Label in the detail output.
    pub name: String,
    /// Offered hot requests per second.
    pub rate: f64,
    /// How long requests are sent.
    pub span: Duration,
    /// Seed of the arrival schedule.
    pub seed: u64,
    /// Stream of the arrival schedule, distinct per phase.
    pub stream: u64,
    /// Search steps stop early once a request fails or takes
    /// [`ABORT_MS`]; fixed-rate phases never stop early.
    pub abortable: bool,
}

/// What one phase measured.
#[derive(Debug, Clone, Default)]
pub struct PhaseOutcome {
    /// The phase's label.
    pub name: String,
    /// Offered rate.
    pub rate: f64,
    /// Hot requests submitted.
    pub sent: u64,
    /// Admissions submitted.
    pub admits_sent: u64,
    /// Latency from due time of each correct hot response, in send order.
    pub lat_ms: Vec<f64>,
    /// First-response latency of admitted matrices without a cache.
    pub admit_cold_ms: Vec<f64>,
    /// First-response latency of admitted matrices with a cache.
    pub admit_warm_ms: Vec<f64>,
    /// How late each send started.
    pub late_ms: Vec<f64>,
    /// `Response::latency` of each correct response.
    pub server_ms: Vec<f64>,
    /// Client-observed completion minus server-stamped completion.
    pub gap_ms: Vec<f64>,
    /// Requests queued at each hot send.
    pub depth: Vec<f64>,
    /// Submits shed with `Overloaded`.
    pub shed: u64,
    /// Requests failed with `DeadlineExceeded`.
    pub deadline_missed: u64,
    /// Any other error.
    pub errors: u64,
    /// Responses that differ from `CsrMatrix::spmv`.
    pub wrong: u64,
    /// Correct responses served by the reference kernel.
    pub degraded: u64,
    /// Panels dispatched during the phase, from `ServeStats`.
    pub batches: u64,
    /// Requests served through those panels.
    pub batched_requests: u64,
    /// Whether a search step stopped sending early.
    pub aborted: bool,
}

impl PhaseOutcome {
    /// Appends a later stretch of the same phase.
    pub fn absorb(&mut self, other: PhaseOutcome) {
        self.sent += other.sent;
        self.admits_sent += other.admits_sent;
        self.lat_ms.extend(other.lat_ms);
        self.admit_cold_ms.extend(other.admit_cold_ms);
        self.admit_warm_ms.extend(other.admit_warm_ms);
        self.late_ms.extend(other.late_ms);
        self.server_ms.extend(other.server_ms);
        self.gap_ms.extend(other.gap_ms);
        self.depth.extend(other.depth);
        self.shed += other.shed;
        self.deadline_missed += other.deadline_missed;
        self.errors += other.errors;
        self.wrong += other.wrong;
        self.degraded += other.degraded;
        self.batches += other.batches;
        self.batched_requests += other.batched_requests;
        self.aborted |= other.aborted;
    }

    /// Requests that were attempted.
    #[must_use]
    pub fn attempted(&self) -> u64 {
        self.sent + self.admits_sent
    }

    /// Shed, deadline-missed, errored and wrong requests.
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.shed + self.deadline_missed + self.errors + self.wrong
    }

    /// Median and tail of the hot latencies.
    #[must_use]
    pub fn summary(&self) -> Option<Summary> {
        Summary::of(&self.lat_ms)
    }

    /// Whether the queue kept growing: the last fifth of the requests
    /// waited clearly longer than the first fifth.
    #[must_use]
    pub fn backlog_grew(&self) -> bool {
        let fifth = self.lat_ms.len() / 5;
        if fifth < 5 {
            return false;
        }
        let first = median(&self.lat_ms[..fifth]);
        let last = median(&self.lat_ms[self.lat_ms.len() - fifth..]);
        last > 2.0 * first + 5.0
    }

    /// Whether the offered rate was sustained: nothing failed, the tail
    /// stayed under the limit, and no backlog built up.
    #[must_use]
    pub fn sustained(&self) -> bool {
        self.failed() == 0
            && !self.aborted
            && !self.backlog_grew()
            && self
                .summary()
                .is_some_and(|s| s.has_tail() && s.tail < LATENCY_LIMIT_MS)
    }

    /// Whether the generator fell behind its schedule.
    #[must_use]
    pub fn lagging(&self) -> bool {
        Summary::of(&self.late_ms).is_some_and(|s| s.tail > LAG_LIMIT_MS)
    }

    /// Requests per panel.
    #[must_use]
    pub fn agg_factor(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched_requests as f64 / self.batches as f64
        }
    }

    /// The phase as a JSON object for the detail line.
    #[must_use]
    pub fn to_json(&self) -> String {
        let s = self.summary();
        let late = Summary::of(&self.late_ms);
        let num = |v: Option<f64>| v.map_or_else(|| "null".to_string(), json_num);
        json_obj(&[
            ("phase", json_str(&self.name)),
            ("rate_rps", json_num(self.rate)),
            ("sent", self.sent.to_string()),
            ("samples", s.map_or(0, |s| s.n).to_string()),
            ("p50_ms", num(s.map(|s| s.p50))),
            ("tail_ms", num(s.map(|s| s.tail))),
            ("tail_pct", num(s.map(|s| s.tail_pct))),
            ("late_max_ms", num(late.map(|_| max(&self.late_ms)))),
            ("late_tail_ms", num(late.map(|l| l.tail))),
            ("generator_lagging", self.lagging().to_string()),
            ("agg_factor", json_num(self.agg_factor())),
            ("admits_sent", self.admits_sent.to_string()),
            (
                "admit_cold_p50_ms",
                num(Summary::of(&self.admit_cold_ms).map(|s| s.p50)),
            ),
            (
                "admit_warm_p50_ms",
                num(Summary::of(&self.admit_warm_ms).map(|s| s.p50)),
            ),
            ("shed", self.shed.to_string()),
            ("deadline_missed", self.deadline_missed.to_string()),
            ("errors", self.errors.to_string()),
            ("wrong", self.wrong.to_string()),
            ("degraded", self.degraded.to_string()),
            ("aborted", self.aborted.to_string()),
            ("sustained", self.sustained().to_string()),
        ])
    }
}

/// Largest value of a sample (0 when empty).
#[must_use]
pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(0.0, f64::max)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

enum Event {
    Hot(usize),
    Admit,
}

enum Kind<'a> {
    Hot,
    Admit(&'a Admission),
}

struct Pending<'a> {
    ticket: Ticket<f32>,
    due: Instant,
    sent: Instant,
    probe: &'a Probe,
    kind: Kind<'a>,
    req: u64,
}

/// Runs one phase against `target`, admitting from `admissions` at their
/// own rate when given.
pub fn run_phase(
    target: &Target<'_>,
    phase: &Phase,
    admissions: Option<&Admissions>,
    tracer: &Tracer,
) -> PhaseOutcome {
    let mut events: Vec<(Duration, Event)> =
        poisson_schedule(phase.seed, phase.stream, phase.rate, phase.span)
            .into_iter()
            .enumerate()
            .map(|(i, t)| (t, Event::Hot(i)))
            .collect();
    if let Some(a) = admissions {
        let stream = phase.stream ^ 0xad_0000;
        events.extend(
            poisson_schedule(phase.seed, stream, a.rate, phase.span)
                .into_iter()
                .map(|t| (t, Event::Admit)),
        );
        events.sort_by_key(|e| e.0);
    }

    let before = target.server.stats();
    let abort = AtomicBool::new(false);
    let mut out = PhaseOutcome {
        name: phase.name.clone(),
        rate: phase.rate,
        ..PhaseOutcome::default()
    };
    let (tx, rx) = mpsc::channel::<Pending<'_>>();
    let waited = std::thread::scope(|s| {
        let waiter = s.spawn(|| wait_all(rx, &abort, phase.abortable, tracer));
        let start = Instant::now() + LEAD;
        for (req, (offset, event)) in events.iter().enumerate() {
            let due = start + *offset;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            if abort.load(Ordering::Relaxed) {
                out.aborted = true;
                break;
            }
            let sent = Instant::now();
            out.late_ms.push(ms(sent - due));
            let req = req as u64;
            let (tenant, key, probe, kind) = match event {
                Event::Hot(i) => {
                    out.sent += 1;
                    out.depth.push(target.server.queue_depth() as f64);
                    let probe = &target.probes[i % target.probes.len()];
                    (i % TENANTS, target.key, probe, Kind::Hot)
                }
                Event::Admit => {
                    let Some(a) = admissions.and_then(Admissions::take) else {
                        continue;
                    };
                    out.admits_sent += 1;
                    let key = tracer.span("registry.insert", None, req, |_| {
                        target.server.register(&a.matrix)
                    });
                    (ADMIT_TENANT, key, &a.probe, Kind::Admit(a))
                }
            };
            let submitted = tracer.span("serve.submit", None, req, |_| {
                target
                    .server
                    .submit(tenant, key, probe.x.clone(), Some(DEADLINE))
            });
            match submitted {
                Ok(ticket) => {
                    let pending = Pending {
                        ticket,
                        due,
                        sent,
                        probe,
                        kind,
                        req,
                    };
                    tx.send(pending).expect("waiter outlives the sender");
                }
                Err(GustError::Overloaded { .. }) => out.shed += 1,
                Err(_) => out.errors += 1,
            }
            if out.shed + out.errors > 0 && phase.abortable {
                abort.store(true, Ordering::Relaxed);
            }
        }
        drop(tx);
        waiter.join().expect("waiter thread panicked")
    });
    let after = target.server.stats();
    out.batches = after.batches - before.batches;
    out.batched_requests = after.batched_requests - before.batched_requests;
    out.lat_ms = waited.lat_ms;
    out.admit_cold_ms = waited.admit_cold_ms;
    out.admit_warm_ms = waited.admit_warm_ms;
    out.server_ms = waited.server_ms;
    out.gap_ms = waited.gap_ms;
    out.deadline_missed = waited.deadline_missed;
    out.errors += waited.errors;
    out.wrong = waited.wrong;
    out.degraded = waited.degraded;
    out
}

#[derive(Default)]
struct Waited {
    lat_ms: Vec<f64>,
    admit_cold_ms: Vec<f64>,
    admit_warm_ms: Vec<f64>,
    server_ms: Vec<f64>,
    gap_ms: Vec<f64>,
    deadline_missed: u64,
    errors: u64,
    wrong: u64,
    degraded: u64,
}

fn wait_all(
    rx: mpsc::Receiver<Pending<'_>>,
    abort: &AtomicBool,
    abortable: bool,
    tracer: &Tracer,
) -> Waited {
    let mut w = Waited::default();
    let stop = |failed: bool| {
        if failed && abortable {
            abort.store(true, Ordering::Relaxed);
        }
    };
    for p in rx {
        let result = tracer.span("serve.wait", None, p.req, |_| p.ticket.wait());
        let observed = Instant::now();
        let resp = match result {
            Ok(resp) => resp,
            Err(GustError::DeadlineExceeded { .. }) => {
                w.deadline_missed += 1;
                stop(true);
                continue;
            }
            Err(_) => {
                w.errors += 1;
                stop(true);
                continue;
            }
        };
        // A wrong answer is never timed.
        if !p.probe.matches(&resp.output) {
            w.wrong += 1;
            stop(true);
            continue;
        }
        w.degraded += u64::from(resp.degraded);
        let done = p.sent + resp.latency;
        let lat = ms(done.saturating_duration_since(p.due));
        w.server_ms.push(ms(resp.latency));
        w.gap_ms.push(ms(observed.saturating_duration_since(done)));
        match p.kind {
            Kind::Hot => {
                w.lat_ms.push(lat);
                stop(lat > ABORT_MS);
            }
            Kind::Admit(a) if a.cached => w.admit_warm_ms.push(lat),
            Kind::Admit(_) => w.admit_cold_ms.push(lat),
        }
    }
    w
}

/// Result of the maximum-rate search.
#[derive(Debug, Clone)]
pub struct Search {
    /// Highest offered rate that was sustained.
    pub rate: f64,
    /// Whether the bracket closed to [`SEARCH_STEP`] within the budget.
    pub converged: bool,
    /// Every step run.
    pub steps: Vec<PhaseOutcome>,
}

/// Finds the highest sustained hot rate within `budget`: doubles from
/// `known` (a rate already shown sustained) until a rate fails, then
/// bisects geometrically until the bracket is within [`SEARCH_STEP`].
pub fn search_max_rate(
    target: &Target<'_>,
    known: f64,
    budget: Duration,
    seed: u64,
    stream: u64,
    admissions: Option<&Admissions>,
    tracer: &Tracer,
) -> Search {
    let end = Instant::now() + budget;
    let step_span = (budget / 10).max(Duration::from_millis(150));
    let (mut lo, mut hi) = (known, f64::INFINITY);
    let mut rate = known * 1.5;
    let mut steps = Vec::new();
    let mut converged = false;
    let step = |rate: f64, steps: &mut Vec<PhaseOutcome>| {
        let phase = Phase {
            name: format!("search-{}", steps.len()),
            rate,
            span: step_span,
            seed,
            stream: stream + steps.len() as u64,
            abortable: true,
        };
        let out = run_phase(target, &phase, admissions, tracer);
        let ok = out.sustained();
        steps.push(out);
        ok
    };
    while Instant::now() + step_span / 2 < end {
        // A rate fails only if it fails twice in a row, so one stall of
        // the host does not end the search below capacity.
        let sustained = step(rate, &mut steps) || step(rate, &mut steps);
        if sustained {
            lo = lo.max(rate);
        } else {
            hi = hi.min(rate);
        }
        if hi / lo <= 1.0 + SEARCH_STEP || lo >= MAX_RATE {
            converged = true;
            break;
        }
        rate = if hi.is_finite() {
            (lo * hi).sqrt()
        } else {
            (lo * 2.0).min(MAX_RATE)
        };
    }
    Search {
        rate: lo,
        converged,
        steps,
    }
}
