//! The closed-loop workloads: the benchmark's own client threads, each
//! calling `AcnController::maybe_refresh` and then `ExecutorEngine::run`,
//! with every transaction timed exactly.

use crate::checks::{self, Committed};
use crate::micro;
use crate::procfs;
use crate::report::{exact_percentile, median, ratio};
use crate::setup::{self, Env, Kind, CLIENTS, SPAN_CAPACITY, WARMUP};
use crate::{Args, Metrics, RunOutput};
use acn_core::{DynamicModule, ExecStats, ExecutorEngine, LatencyHistogram, RetryPolicy};
use acn_dtm::{ClientStats, HistoryLog, ServerStats};
use acn_obs::{
    critical_path, AbortTable, Span, SpanCollector, TraceSummary, Tracer, TxnObserver, WorkTotals,
};
use acn_workloads::Workload;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What a committed transaction of `template` writes, for the
/// conservation check.
fn tally(kind: Kind, template: usize, c: &mut Committed) {
    match (kind, template) {
        (Kind::TpccMixedAcn, 0) => c.payments += 1,
        (Kind::TpccMixedAcn, t) if t >= 2 => c.neworders += 1,
        (Kind::VacationReadMostly, 0) => c.reservations += 1,
        _ => {}
    }
}

/// The client counters the per-layer metrics use.
#[derive(Debug, Clone, Copy, Default)]
struct ClientCounts {
    commits: u64,
    read_rounds: u64,
    validate_entries: u64,
    prepares: u64,
}

impl ClientCounts {
    fn of(s: &ClientStats) -> Self {
        ClientCounts {
            commits: s.commits,
            read_rounds: s.remote_reads,
            validate_entries: s.validate_entries_sent,
            prepares: s.prepares,
        }
    }

    fn since(self, base: ClientCounts) -> Self {
        ClientCounts {
            commits: self.commits - base.commits,
            read_rounds: self.read_rounds - base.read_rounds,
            validate_entries: self.validate_entries - base.validate_entries,
            prepares: self.prepares - base.prepares,
        }
    }
}

fn exec_since(now: ExecStats, base: ExecStats) -> ExecStats {
    ExecStats {
        commits: now.commits - base.commits,
        full_aborts: now.full_aborts - base.full_aborts,
        partial_aborts: now.partial_aborts - base.partial_aborts,
        locked_aborts: now.locked_aborts - base.locked_aborts,
        unavailable_retries: now.unavailable_retries - base.unavailable_retries,
    }
}

/// One client thread's results. "Window" fields cover the transactions
/// that started inside the timed window; the rest cover the whole run.
#[derive(Default)]
struct ThreadOut {
    lat_ns: Vec<u64>,
    attempted: u64,
    failed: u64,
    exec_window: ExecStats,
    client_window: ClientCounts,
    refresh_ns: u64,
    run_ns: u64,
    gen_ns: u64,
    ok_total: u64,
    exec_total: ExecStats,
    client_commits_total: u64,
    committed: Committed,
    /// The first few terminal `RunError`s, for the notes.
    failures: Vec<String>,
    aborts: AbortTable,
    trace: TraceSummary,
    work: WorkTotals,
    spans: Vec<Span>,
}

/// Whole-loop results.
struct LoopOut {
    threads: Vec<ThreadOut>,
    /// Network messages and bytes sent during the window.
    net_msgs: u64,
    net_bytes: u64,
    /// Process CPU `(user, system)` microseconds during the window.
    cpu: (f64, f64),
    /// Controller reconfigurations installed during the window.
    refreshes: u64,
    /// Share of the machine's CPU time stolen by other guests during the
    /// window.
    steal: f64,
    window: Duration,
}

impl LoopOut {
    fn sum(&self, f: impl Fn(&ThreadOut) -> u64) -> u64 {
        self.threads.iter().map(f).sum()
    }

    fn commits(&self) -> u64 {
        self.sum(|t| t.lat_ns.len() as u64)
    }

    fn sorted_latencies(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .threads
            .iter()
            .flat_map(|t| t.lat_ns.iter().copied())
            .collect();
        v.sort_unstable();
        v
    }
}

/// Optional instrumentation of a traced pass.
struct Traced {
    origin: Instant,
    history: Arc<HistoryLog>,
}

/// Run [`CLIENTS`] closed-loop threads for [`WARMUP`] plus `window`.
fn drive(
    kind: Kind,
    env: &Env,
    workload: &dyn Workload,
    seed: u64,
    window: Duration,
    traced: Option<&Traced>,
) -> LoopOut {
    let engine = ExecutorEngine::new(RetryPolicy::default());
    let start = Instant::now();
    let warm_end = start + WARMUP;
    let end = warm_end + window;
    let refresh_total = || env.ctrls.iter().map(|c| c.refresh_count()).sum::<u64>();
    let net_now = || {
        let s = env.cluster.net().stats();
        (s.sent, s.bytes_sent)
    };
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|t| {
                let mut client = env.cluster.client(t);
                if let Some(tr) = traced {
                    client.set_history(Arc::clone(&tr.history));
                    let node = (env.cluster.config().servers + t) as u32;
                    client.set_tracer(Tracer::new(tr.origin, node, t as u64, SPAN_CAPACITY));
                }
                let mut observer = traced.map(|_| TxnObserver::new(setup::traced_obs()));
                let mut rng =
                    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9).wrapping_add(t as u64));
                let engine = &engine;
                s.spawn(move || {
                    let mut out = ThreadOut::default();
                    let mut stats = ExecStats::default();
                    let mut base: Option<(ExecStats, ClientCounts)> = None;
                    loop {
                        let g0 = Instant::now();
                        if g0 >= end {
                            break;
                        }
                        let in_window = g0 >= warm_end;
                        if in_window && base.is_none() {
                            base = Some((stats, ClientCounts::of(&client.stats())));
                        }
                        let req = workload.next(&mut rng, 0);
                        let g1 = Instant::now();
                        let ctrl = &env.ctrls[req.template];
                        ctrl.maybe_refresh(&mut client);
                        let seq = ctrl.current();
                        let r1 = Instant::now();
                        if let Some(tr) = client.tracer_mut() {
                            tr.start_txn(req.template as u16);
                        }
                        let program = &env.dms[req.template].program;
                        let res = engine.run_observed(
                            &mut client,
                            program,
                            &req.params,
                            &seq,
                            &mut stats,
                            observer.as_mut(),
                        );
                        let done = Instant::now();
                        if let Some(tr) = client.tracer_mut() {
                            tr.end_txn(res.is_ok());
                        }
                        match &res {
                            Ok(()) => {
                                out.ok_total += 1;
                                tally(kind, req.template, &mut out.committed);
                            }
                            Err(e) if out.failures.len() < 5 => {
                                out.failures.push(format!("transaction failed: {e}"))
                            }
                            Err(_) => {}
                        }
                        if in_window {
                            out.attempted += 1;
                            out.gen_ns += (g1 - g0).as_nanos() as u64;
                            out.refresh_ns += (r1 - g1).as_nanos() as u64;
                            out.run_ns += (done - r1).as_nanos() as u64;
                            match res {
                                Ok(()) => out.lat_ns.push((done - g1).as_nanos() as u64),
                                Err(_) => out.failed += 1,
                            }
                        }
                    }
                    let cs = client.stats();
                    if let Some((e, c)) = base {
                        out.exec_window = exec_since(stats, e);
                        out.client_window = ClientCounts::of(&cs).since(c);
                    }
                    out.exec_total = stats;
                    out.client_commits_total = cs.commits;
                    if let Some(tracer) = client.take_tracer() {
                        out.spans = tracer.drain().0;
                    }
                    if let Some(o) = &observer {
                        o.merge_into(&mut out.aborts, &mut out.trace, &mut out.work);
                    }
                    out
                })
            })
            .collect();
        std::thread::sleep(warm_end.saturating_duration_since(Instant::now()));
        let (net0, cpu0, ref0) = (net_now(), procfs::cpu_us(), refresh_total());
        let host0 = procfs::host_ticks();
        let threads: Vec<ThreadOut> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        let (net1, cpu1) = (net_now(), procfs::cpu_us());
        let steal = procfs::steal_share(host0, procfs::host_ticks());
        LoopOut {
            threads,
            net_msgs: net1.0 - net0.0,
            net_bytes: net1.1 - net0.1,
            cpu: (cpu1.0 - cpu0.0, cpu1.1 - cpu0.1),
            refreshes: refresh_total() - ref0,
            steal,
            window,
        }
    })
}

/// The correctness gate shared by every pass: the clients' own commit
/// counts agree with the executor's and the DTM client's, and the
/// replicas' final versions account for exactly the committed writes.
fn gate(out: &LoopOut, servers: &[ServerStats], notes: &mut Vec<String>, errors: &mut Vec<String>) {
    let mut committed = Committed::default();
    for (t, th) in out.threads.iter().enumerate() {
        notes.extend(th.failures.iter().map(|e| format!("client {t}: {e}")));
        let window_ok = th.lat_ns.len() as u64;
        if th.exec_window.commits != window_ok || th.client_window.commits != window_ok {
            errors.push(format!(
                "client {t}: {window_ok} commits timed, ExecStats counts {}, ClientStats {}",
                th.exec_window.commits, th.client_window.commits
            ));
        }
        if th.exec_total.commits != th.ok_total || th.client_commits_total != th.ok_total {
            errors.push(format!(
                "client {t}: {} commits returned, ExecStats counts {}, ClientStats {}",
                th.ok_total, th.exec_total.commits, th.client_commits_total
            ));
        }
        committed.neworders += th.committed.neworders;
        committed.payments += th.committed.payments;
        committed.reservations += th.committed.reservations;
    }
    if out.commits() == 0 {
        errors.push("no transaction committed in the timed window".into());
    }
    errors.extend(checks::conservation(servers, committed));
}

pub fn run(kind: Kind, args: &Args) -> RunOutput {
    let workload = kind.workload();
    let workload = workload.as_ref();
    let mut m = Metrics::default();
    let mut errors = Vec::new();
    let mut notes = Vec::new();
    let (attempted, failed);
    if !args.trace {
        let (env, setups) = setup::repeated_setup(kind, workload);
        let out = drive(kind, &env, workload, args.seed, args.window(), None);
        let servers = env.shutdown();
        gate(&out, &servers, &mut notes, &mut errors);
        attempted = out.sum(|t| t.attempted);
        failed = out.sum(|t| t.failed);
        let lat = out.sorted_latencies();
        m.put(
            "commits_per_sec",
            out.commits() as f64 / out.window.as_secs_f64(),
        );
        crate::percentiles(&mut m, &mut notes, &mut errors, &lat, "");
        m.put("setup_s", median(&setups));
        m.put("peak_rss_mb", procfs::peak_rss_mib());
        notes.push(format!("setup_s: median of {} set-ups", setups.len()));
        notes.push(format!(
            "host CPU stolen during the window: {:.4}",
            out.steal
        ));
    } else {
        // Pass A: the untraced loop, for the layer counters and timings.
        let (env, _) = setup::setup(kind, workload, None, None);
        let a = drive(kind, &env, workload, args.seed, args.window() / 2, None);
        let levels = {
            let mut client = env.cluster.client(0);
            let classes = micro::classes(&env.dms).iter().map(|c| c.id).collect();
            let mut dynamic = DynamicModule::new(classes, 1.0);
            dynamic.refresh(&mut client).cloned().unwrap_or_default()
        };
        let dms = env.dms.clone();
        let servers = env.shutdown();
        gate(&a, &servers, &mut notes, &mut errors);
        attempted = a.sum(|t| t.attempted);
        failed = a.sum(|t| t.failed);
        layer_metrics(&mut m, &a, &servers);

        // Pass B: the same loop with the span tracer, observer and history.
        let collector = Arc::new(SpanCollector::new(SPAN_CAPACITY));
        let history = Arc::new(HistoryLog::new());
        let (env, _) = setup::setup(kind, workload, Some(&history), Some(&collector));
        let traced = Traced {
            origin: Instant::now(),
            history: Arc::clone(&history),
        };
        let b = drive(
            kind,
            &env,
            workload,
            args.seed,
            args.window() / 2,
            Some(&traced),
        );
        let servers = env.shutdown();
        gate(&b, &servers, &mut notes, &mut errors);
        let mut spans: Vec<Span> = b
            .threads
            .iter()
            .flat_map(|t| t.spans.iter().cloned())
            .collect();
        spans.extend(collector.drain(traced.origin).0);
        spans.sort_by_key(|s| (s.trace, s.start_ns, s.id));
        let mut aborts = AbortTable::default();
        let mut work = WorkTotals::default();
        let mut exec = ExecStats::default();
        for t in &b.threads {
            aborts.merge(&t.aborts);
            work.merge(&t.work);
            exec.merge(&t.exec_total);
        }
        let counted = exec.full_aborts + exec.partial_aborts + exec.locked_aborts;
        checks::traced(&aborts, counted, &history, &mut notes, &mut errors);
        let commits = b.sum(|t| t.ok_total) as f64;
        crate::traced_metrics(&mut m, &critical_path(&spans), &work, commits, &mut errors);
        let untraced = a.commits() as f64 / a.window.as_secs_f64();
        let traced_rate = b.commits() as f64 / b.window.as_secs_f64();
        m.put(
            "obs.tracing_overhead_pct",
            100.0 * ratio(untraced - traced_rate, untraced),
        );
        crate::micro_metrics(&mut m, workload, &dms, &levels, args.seed);
        for name in [
            "core.scheduler.mean_layers",
            "core.scheduler.max_width",
            "core.scheduler.edges_per_txn",
            "core.scheduler.mispredicts_per_commit",
        ] {
            m.put(name, 0.0);
        }
        notes.push("core.scheduler.*: 0, closed loops schedule no waves".into());
    }
    RunOutput {
        attempted,
        failed,
        metrics: m,
        notes,
        errors,
    }
}

/// Per-layer counters and call timings of one untraced pass.
fn layer_metrics(m: &mut Metrics, a: &LoopOut, servers: &[ServerStats]) {
    let commits = a.commits() as f64;
    let per_commit = |n: u64| ratio(n as f64, commits);
    let exec = a.threads.iter().fold(ExecStats::default(), |mut e, t| {
        e.merge(&t.exec_window);
        e
    });
    m.put("simnet.msgs_per_commit", per_commit(a.net_msgs));
    m.put("simnet.bytes_per_commit", per_commit(a.net_bytes));
    m.put(
        "core.controller.refresh_share",
        ratio(a.sum(|t| t.refresh_ns) as f64, a.sum(|t| t.run_ns) as f64),
    );
    m.put("core.controller.refreshes", a.refreshes as f64);
    m.put(
        "core.executor.full_aborts_per_commit",
        per_commit(exec.full_aborts),
    );
    m.put(
        "core.executor.partial_aborts_per_commit",
        per_commit(exec.partial_aborts),
    );
    m.put(
        "core.executor.locked_aborts_per_commit",
        per_commit(exec.locked_aborts),
    );
    m.put(
        "dtm.client.read_rounds_per_commit",
        per_commit(a.sum(|t| t.client_window.read_rounds)),
    );
    m.put(
        "dtm.client.validate_entries_per_commit",
        per_commit(a.sum(|t| t.client_window.validate_entries)),
    );
    m.put(
        "dtm.client.prepares_per_commit",
        per_commit(a.sum(|t| t.client_window.prepares)),
    );
    let all_commits = a.sum(|t| t.ok_total) as f64;
    crate::server_metrics(m, servers, all_commits);
    m.put(
        "workloads.gen_us_per_txn",
        ratio(
            a.sum(|t| t.gen_ns) as f64 / 1e3,
            a.sum(|t| t.attempted) as f64,
        ),
    );
    let (user, sys) = a.cpu;
    m.put("process.cpu_us_per_commit", ratio(user + sys, commits));
    m.put("process.sys_share", ratio(sys, user + sys));
    m.put("host.steal_share", a.steal);
    let lat = a.sorted_latencies();
    m.put(
        "diag.p999_ms",
        exact_percentile(&lat, 0.999).map_or(0.0, |p| p.value as f64 / 1e6),
    );
    let mut hist = LatencyHistogram::new();
    for &ns in &lat {
        hist.record(Duration::from_nanos(ns));
    }
    for (name, q) in [("diag.hist_p50_ms", 0.5), ("diag.hist_p99_ms", 0.99)] {
        m.put(
            name,
            hist.percentile(q).map_or(0.0, |d| d.as_secs_f64() * 1e3),
        );
    }
}
