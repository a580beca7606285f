//! `fleet_serve`: the serving layer under an open loop.
//!
//! One generator thread submits a seeded `plan_traffic` mix to a
//! `SolverServer` (default `ServerConfig`) at a fixed offered rate,
//! sleeping until each request's due time; one collector thread polls
//! the tickets and stamps each as it resolves. The mix holds
//! same-topology Gauss-Newton batch solves, unbatched Levenberg-Marquardt
//! solves, and incremental `Extend` writes that grow Bayes trees. Extends of one session are never in flight
//! together, so they apply in script order. Latency runs from each
//! request's due time, so a generator or server stall is charged to every
//! request it delays.

use crate::report::{beyond, mean, quantile, ratio, Metric, Run};
use crate::{derive_seed, Window};
use orianna_server::load::LOAD_PERTURB_SCALE;
use orianna_server::oracle::{compare_reports, replay_sequential, SequentialOutcomes};
use orianna_server::{
    build_sessions, install_sessions, plan_traffic, LoadSpec, MetricsSnapshot, OpSpec, Perturb,
    Request, ServerConfig, ServerError, SessionId, SessionSpec, SolveOutcome, SolverServer, Ticket,
    TrafficPlan,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Sweep period of the collector; a request's completion stamp is late by
/// at most about this much.
const POLL: Duration = Duration::from_micros(100);
/// Offered load, requests per second.
const RATE: f64 = 400.0;
/// The fixed latency limit behind `slo_miss_ratio`, milliseconds.
const SLO_MS: f64 = 25.0;
/// Seed of the session roster. The fleet's tenants are fixed; the
/// workload seed draws the traffic (targets, perturbations, extend
/// steps). Generated graphs differ several-fold in solve cost, so a
/// roster drawn per seed would make the seed, not the program, set the
/// latency.
const ROSTER_SEED: u64 = 0x0F1E_E7A5_5E55_1015;
/// Request scripts; each owns one incremental session, so its extends
/// all come from one script.
const SCRIPTS: usize = 16;

/// Request kinds, for per-kind latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Gn,
    Lm,
    Extend,
}

/// One scheduled request in send order.
struct Slot {
    script: usize,
    index: usize,
    request: Request,
    kind: Kind,
    /// Incremental session whose previous extend must finish first.
    extend_of: Option<usize>,
}

/// A submitted request awaiting its outcome.
struct InFlight {
    slot: usize,
    due: Instant,
    submitted: Instant,
    ticket: Ticket,
}

/// A resolved request.
struct Done {
    slot: usize,
    /// Completion stamp since the window began, seconds.
    end_s: f64,
    latency_ms: f64,
    served_ms: f64,
    outcome: Result<SolveOutcome, ServerError>,
}

/// The `fleet_serve` workload state.
pub struct FleetServe {
    plan: TrafficPlan,
    slots: Vec<Slot>,
    server: SolverServer,
    /// Submissions so far, warm-up included.
    sent: u64,
    cursor: usize,
    outcomes: Vec<Option<Result<SolveOutcome, ServerError>>>,
    served_ms: Vec<f64>,
    /// Per-request samples of traced windows.
    late_ms: Vec<f64>,
    submit_us: Vec<f64>,
    queue_depth_max: usize,
    kind_ms: [Vec<f64>; 3],
    /// Requests over [`SLO_MS`] or refused.
    slo_misses: u64,
    /// Server counters after set-up; layer metrics report the run's own
    /// share.
    baseline: MetricsSnapshot,
}

impl FleetServe {
    /// Expands the traffic plan for `seconds` of load at [`RATE`], starts
    /// a server, installs the roster (each batch session converges its
    /// warm estimate), and warms the plan cache with one solve per batch
    /// session.
    ///
    /// # Errors
    /// Session installation or warm-up failures.
    pub fn setup(seed: u64, seconds: f64) -> Result<Self, String> {
        let total = (RATE * seconds).ceil().max(1.0) as usize;
        let plan = traffic(seed, total.div_ceil(SCRIPTS));
        let slots = schedule(&plan);
        let server = SolverServer::new(ServerConfig::default());
        install_sessions(&server, &plan).map_err(|e| format!("install: {e}"))?;
        // Batch solves reset their session from the request's
        // perturbation, so warm-up solves leave every later outcome as
        // the sequential replay computes it.
        let mut tickets = Vec::new();
        for (i, s) in plan.sessions.iter().enumerate() {
            if matches!(s, SessionSpec::Batch { .. }) {
                let request = Request::Solve {
                    session: SessionId(i as u64),
                    perturb: Some(Perturb::new(
                        derive_seed(seed, 0x3A9, i as u64),
                        LOAD_PERTURB_SCALE,
                    )),
                };
                tickets.push(
                    server
                        .submit(request)
                        .map_err(|e| format!("warm-up: {e}"))?,
                );
            }
        }
        let sent = tickets.len() as u64;
        for t in tickets {
            t.wait().map_err(|e| format!("warm-up: {e}"))?;
        }
        Ok(Self {
            outcomes: (0..slots.len()).map(|_| None).collect(),
            served_ms: Vec::new(),
            baseline: server.metrics(),
            plan,
            slots,
            server,
            sent,
            cursor: 0,
            late_ms: Vec::new(),
            submit_us: Vec::new(),
            queue_depth_max: 0,
            kind_ms: [Vec::new(), Vec::new(), Vec::new()],
            slo_misses: 0,
        })
    }

    /// A digest of the generated traffic: roster and scripts.
    pub fn input_digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |x: u64| h = (h ^ x).wrapping_mul(0x0000_0100_0000_01b3);
        for s in &self.plan.sessions {
            match s {
                SessionSpec::Batch { cfg, lm } => {
                    mix(cfg.seed);
                    mix(cfg.variables as u64);
                    mix(u64::from(*lm));
                }
                SessionSpec::Incremental { seed } => mix(*seed),
            }
        }
        for slot in &self.slots {
            match slot.request {
                Request::Solve { session, perturb } => {
                    mix(session.0);
                    mix(perturb.map_or(0, |p| p.seed));
                }
                Request::Extend { session, steps } => {
                    mix(session.0);
                    mix(steps as u64);
                }
            }
        }
        h
    }

    /// Sends the next `seconds × RATE` scheduled requests open-loop.
    pub fn measure(&mut self, seconds: f64, traced: bool, run: &mut Run) -> Window {
        let n = ((RATE * seconds).round() as usize).min(self.slots.len() - self.cursor);
        let first = self.cursor;
        self.cursor += n;
        let extending: Vec<AtomicBool> = (0..self.plan.sessions.len())
            .map(|_| AtomicBool::new(false))
            .collect();
        let interval = Duration::from_secs_f64(1.0 / RATE);
        let (tx, rx) = mpsc::channel::<InFlight>();
        let start = Instant::now();
        let (done, refused) = std::thread::scope(|scope| {
            let extending = &extending;
            let slots = &self.slots;
            let collector = scope.spawn(move || collect(rx, slots, extending, start));
            let mut refused = Vec::new();
            for k in 0..n {
                let slot = first + k;
                let due = start + interval * k as u32;
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                if let Some(s) = self.slots[slot].extend_of {
                    while extending[s].load(Ordering::Acquire) {
                        std::thread::sleep(Duration::from_micros(20));
                    }
                    extending[s].store(true, Ordering::Release);
                }
                let submitted = Instant::now();
                let res = self.server.submit(self.slots[slot].request);
                self.sent += 1;
                if traced {
                    self.submit_us.push(submitted.elapsed().as_secs_f64() * 1e6);
                    self.late_ms.push((submitted - due).as_secs_f64() * 1e3);
                    self.queue_depth_max = self.queue_depth_max.max(self.server.queue_depth());
                }
                match res {
                    Ok(ticket) => tx
                        .send(InFlight {
                            slot,
                            due,
                            submitted,
                            ticket,
                        })
                        .expect("collector outlives the generator"),
                    Err(e) => {
                        if let Some(s) = self.slots[slot].extend_of {
                            extending[s].store(false, Ordering::Release);
                        }
                        refused.push((slot, e));
                    }
                }
            }
            drop(tx);
            let done = collector.join().expect("collector thread");
            (done, refused)
        });

        let mut window = Window::default();
        let mut done = done;
        done.sort_by(|a, b| a.end_s.total_cmp(&b.end_s));
        for d in done {
            window.record(d.latency_ms, d.end_s);
            self.served_ms.push(d.served_ms);
            if d.latency_ms > SLO_MS {
                self.slo_misses += 1;
            }
            if traced {
                self.kind_ms[self.slots[d.slot].kind as usize].push(d.latency_ms);
            }
            if let Err(e) = &d.outcome {
                run.fail(format!("request {}: {e}", d.slot));
            }
            self.outcomes[d.slot] = Some(d.outcome);
        }
        for (slot, e) in refused {
            run.fail(format!("request {slot} refused: {e}"));
            self.slo_misses += 1;
            self.outcomes[slot] = Some(Err(e));
        }
        run.attempted += n as u64;
        window
    }

    /// Post-run checks and metrics: drains and stops the server, checks
    /// its counter identities, compares every served outcome bitwise with
    /// the sequential oracle's replay, and reports `slo_miss_ratio` plus
    /// the per-layer metrics when traced.
    pub fn conclude(&mut self, traced: bool, run: &mut Run) {
        self.server.shutdown();
        let m = self.server.metrics();
        let sent = self.sent;
        run.identity(m.accepted == m.completed, || {
            format!("accepted {} != completed {}", m.accepted, m.completed)
        });
        run.identity(
            sent.checked_sub(m.rejected_overload) == Some(m.accepted),
            || {
                format!(
                    "accepted {} != sent {sent} - rejected {}",
                    m.accepted, m.rejected_overload
                )
            },
        );
        run.identity(m.batches <= m.completed, || {
            format!("batches {} > completed {}", m.batches, m.completed)
        });

        // The replay builds the roster itself; time one build to leave it
        // out of the replay's solve time.
        let t = Instant::now();
        drop(build_sessions(&self.plan));
        let build_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let replay = replay_sequential(&self.plan);
        let replay_s = t.elapsed().as_secs_f64() - build_s;
        match replay {
            Ok(sequential) => {
                let (served, reference) = self.sent_prefix(&sequential);
                if let Err(e) = compare_reports(&served, &reference) {
                    run.fail(format!("served outcomes differ from the oracle: {e}"));
                }
            }
            Err(e) => run.fail(format!("oracle replay: {e}")),
        }
        let requests = self.cursor;
        run.e2e.push(Metric::host(
            "slo_miss_ratio",
            ratio(self.slo_misses as f64, requests as f64),
            "ratio",
            requests,
        ));

        if traced {
            let sorted = |v: &[f64]| {
                let mut v = v.to_vec();
                v.sort_by(f64::total_cmp);
                v
            };
            let late = sorted(&self.late_ms);
            if beyond(late.len(), 0.99) < 10 {
                run.notes.push(format!(
                    "loadgen.late_p99_ms has fewer than 10 of its {} samples beyond it",
                    late.len()
                ));
            }
            let [gn, lm, ext] = &self.kind_ms;
            let b = &self.baseline;
            let completed = m.completed - b.completed;
            let batches = m.batches - b.batches;
            let coalesced = m.coalesced - b.coalesced;
            // Plan and workspace counters include set-up, whose plan
            // builds they explain; batching counters cover the run alone.
            let plan_hits = m.cache.plan_hits;
            let lookups = plan_hits + m.cache.plan_misses;
            run.layers.extend([
                Metric::host(
                    "server.submit_us",
                    mean(&self.submit_us),
                    "us",
                    self.submit_us.len(),
                ),
                Metric::host(
                    "server.gn_p50_ms",
                    quantile(&sorted(gn), 0.5),
                    "ms",
                    gn.len(),
                ),
                Metric::host(
                    "server.lm_p50_ms",
                    quantile(&sorted(lm), 0.5),
                    "ms",
                    lm.len(),
                ),
                Metric::host(
                    "server.extend_p50_ms",
                    quantile(&sorted(ext), 0.5),
                    "ms",
                    ext.len(),
                ),
                Metric::host(
                    "server.batch_mean",
                    ratio(completed as f64, batches as f64),
                    "count",
                    batches as usize,
                ),
                Metric::host(
                    "server.coalesced_ratio",
                    ratio(coalesced as f64, completed as f64),
                    "ratio",
                    completed as usize,
                ),
                Metric::host(
                    "server.plan_hit_ratio",
                    ratio(plan_hits as f64, lookups as f64),
                    "ratio",
                    lookups as usize,
                ),
                Metric::host(
                    "server.ws_builds",
                    m.cache.workspace_builds as f64,
                    "count",
                    1,
                ),
                Metric::host(
                    "server.queue_depth_max",
                    self.queue_depth_max as f64,
                    "count",
                    self.submit_us.len(),
                ),
                Metric::host(
                    "server.overhead_ratio",
                    ratio(self.served_ms.iter().sum::<f64>() / 1e3, replay_s),
                    "ratio",
                    self.served_ms.len(),
                ),
                Metric::host(
                    "loadgen.late_p99_ms",
                    quantile(&late, 0.99),
                    "ms",
                    late.len(),
                ),
            ]);
        }
    }

    /// The sent requests' outcomes and the oracle's for the same requests,
    /// both laid out `[script][op]` over each script's sent prefix.
    fn sent_prefix(
        &self,
        sequential: &SequentialOutcomes,
    ) -> (SequentialOutcomes, SequentialOutcomes) {
        let mut served: SequentialOutcomes = vec![Vec::new(); self.plan.scripts.len()];
        let mut reference: SequentialOutcomes = vec![Vec::new(); self.plan.scripts.len()];
        for (slot, out) in self.slots[..self.cursor].iter().zip(&self.outcomes) {
            let out = out.clone().unwrap_or(Err(ServerError::ShuttingDown));
            served[slot.script].push(out);
            reference[slot.script].push(sequential[slot.script][slot.index].clone());
        }
        (served, reference)
    }
}

/// The fleet: 64 batch sessions (every eighth Levenberg-Marquardt) on six
/// generator topologies and 16 incremental sessions, drawn from
/// [`ROSTER_SEED`], with [`SCRIPTS`] request scripts drawn from the
/// workload `seed`.
fn traffic(seed: u64, ops_per_script: usize) -> TrafficPlan {
    let spec = |seed: u64, ops_per_client: usize| LoadSpec {
        seed,
        clients: SCRIPTS,
        batch_sessions: 64,
        topologies: 6,
        lm_every: 8,
        incremental_sessions: 16,
        ops_per_client,
        variables: 10,
        density: 0.3,
        ..LoadSpec::default()
    };
    // Scripts address sessions by roster index, and the roster's layout
    // (batch, LM and incremental slots) depends only on the counts, so
    // the fixed roster and the seed's scripts fit together.
    let roster = plan_traffic(&spec(ROSTER_SEED, 0));
    let scripts = plan_traffic(&spec(seed, ops_per_script)).scripts;
    TrafficPlan {
        sessions: roster.sessions,
        scripts,
    }
}

/// Interleaves the plan's scripts round-robin into one send order.
fn schedule(plan: &TrafficPlan) -> Vec<Slot> {
    let longest = plan.scripts.iter().map(Vec::len).max().unwrap_or(0);
    let mut slots = Vec::with_capacity(plan.total_ops());
    for index in 0..longest {
        for (script, ops) in plan.scripts.iter().enumerate() {
            let Some(op) = ops.get(index) else { continue };
            let (request, kind, extend_of) = match *op {
                OpSpec::Solve { session, perturb } => {
                    let lm = matches!(plan.sessions[session], SessionSpec::Batch { lm: true, .. });
                    (
                        Request::Solve {
                            session: SessionId(session as u64),
                            perturb: Some(perturb),
                        },
                        if lm { Kind::Lm } else { Kind::Gn },
                        None,
                    )
                }
                OpSpec::Extend { session, steps } => (
                    Request::Extend {
                        session: SessionId(session as u64),
                        steps,
                    },
                    Kind::Extend,
                    Some(session),
                ),
            };
            slots.push(Slot {
                script,
                index,
                request,
                kind,
                extend_of,
            });
        }
    }
    slots
}

/// The collector: sweeps the outstanding tickets every
/// [`POLL`], stamping each at the sweep that finds it resolved, and
/// releases an incremental session for its next extend on that stamp.
/// Sleeps on the channel while nothing is outstanding.
fn collect(
    rx: mpsc::Receiver<InFlight>,
    slots: &[Slot],
    extending: &[AtomicBool],
    start: Instant,
) -> Vec<Done> {
    let mut pending: Vec<InFlight> = Vec::new();
    let mut done = Vec::new();
    let mut open = true;
    while open || !pending.is_empty() {
        if pending.is_empty() {
            match rx.recv() {
                Ok(f) => pending.push(f),
                Err(_) => break,
            }
        }
        loop {
            match rx.try_recv() {
                Ok(f) => pending.push(f),
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => {
                    open = false;
                    break;
                }
            }
        }
        let now = Instant::now();
        let mut k = 0;
        while k < pending.len() {
            if !pending[k].ticket.is_ready() {
                k += 1;
                continue;
            }
            let f = pending.swap_remove(k);
            if let Some(s) = slots[f.slot].extend_of {
                extending[s].store(false, Ordering::Release);
            }
            done.push(Done {
                slot: f.slot,
                end_s: (now - start).as_secs_f64(),
                latency_ms: (now - f.due).as_secs_f64() * 1e3,
                served_ms: (now - f.submitted).as_secs_f64() * 1e3,
                outcome: f.ticket.wait(),
            });
        }
        if !pending.is_empty() {
            std::thread::sleep(POLL);
        }
    }
    done
}
