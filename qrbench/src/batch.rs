//! The batch-ingest workload, run through the public `run_scenario`
//! entry because the wave coordinator is private to `acn-workloads`.

use crate::checks::{self, Committed};
use crate::procfs;
use crate::report::{exact_percentile, median, ratio};
use crate::setup::{self, Kind, WalDir, CLIENTS, WARMUP};
use crate::{Args, Metrics, RunOutput};
use acn_dtm::HistoryLog;
use acn_obs::{ObsConfig, SpanKind};
use acn_workloads::{
    run_scenario, BatchConfig, ScenarioConfig, ScenarioResult, SpecMode, SystemKind, Workload,
};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Measurement interval of the scenario driver; the warm-up is a whole
/// number of them.
const INTERVAL: Duration = Duration::from_millis(500);

fn intervals(d: Duration) -> usize {
    (d.as_millis() / INTERVAL.as_millis()) as usize
}

/// One `run_scenario` call on a fresh log directory: [`WARMUP`] plus
/// `window` on QR-CN with [`CLIENTS`] batch workers.
fn scenario(
    workload: &dyn Workload,
    seed: u64,
    window: Duration,
    obs: Option<ObsConfig>,
    history: Option<Arc<HistoryLog>>,
) -> ScenarioResult {
    let wal = WalDir::fresh();
    let mut cfg = ScenarioConfig::scaled(SystemKind::QrCn, CLIENTS);
    cfg.cluster = setup::cluster_config(Kind::NeworderBatch, Some(&wal));
    cfg.controller = setup::controller_config();
    cfg.interval = INTERVAL;
    cfg.intervals = intervals(WARMUP + window);
    cfg.seed = seed;
    cfg.obs = obs;
    cfg.history = history;
    cfg.batch = Some(BatchConfig {
        wave: crate::micro::WAVE,
        spec: SpecMode::Partial,
        overlap: true,
        speculate_inexact: true,
    });
    run_scenario(workload, &cfg)
}

fn window_commits(r: &ScenarioResult) -> u64 {
    r.intervals[intervals(WARMUP)..]
        .iter()
        .map(|w| w.commits)
        .sum()
}

/// The correctness gate: one latency sample per counted commit, every
/// commit scheduled, and the replicas' final versions account for
/// exactly the committed NewOrders.
fn gate(r: &ScenarioResult, errors: &mut Vec<String>) {
    let commits = r.total_commits();
    if r.latency.len() != commits {
        errors.push(format!(
            "workers returned {} commits, ExecStats counts {commits}",
            r.latency.len()
        ));
    }
    match &r.batch {
        Some(ws) if ws.txns >= commits => {}
        other => errors.push(format!("{commits} commits but wave stats {other:?}")),
    }
    if window_commits(r) == 0 {
        errors.push("no transaction committed in the timed window".into());
    }
    let committed = Committed {
        neworders: commits,
        ..Committed::default()
    };
    errors.extend(checks::conservation(&r.server_stats, committed));
}

pub fn run(args: &Args) -> RunOutput {
    let kind = Kind::NeworderBatch;
    let workload = kind.workload();
    let workload = workload.as_ref();
    let mut m = Metrics::default();
    let mut errors = Vec::new();
    let mut notes = Vec::new();
    let (attempted, failed);
    if !args.trace {
        let (env, setups) = setup::repeated_setup(kind, workload);
        env.shutdown();
        let host0 = procfs::host_ticks();
        let r = scenario(workload, args.seed, args.window(), None, None);
        let steal = procfs::steal_share(host0, procfs::host_ticks());
        gate(&r, &mut errors);
        let commits = window_commits(&r);
        notes.push(format!(
            "commits per {INTERVAL:?} interval: {:?}",
            r.intervals.iter().map(|w| w.commits).collect::<Vec<_>>()
        ));
        attempted = commits + r.failed;
        failed = r.failed;
        m.put(
            "commits_per_sec",
            commits as f64 / args.window().as_secs_f64(),
        );
        m.put("setup_s", median(&setups));
        m.put("peak_rss_mb", procfs::peak_rss_mib());
        notes.push(format!("setup_s: median of {} set-ups", setups.len()));
        notes.push(format!("host CPU stolen during the run: {steal:.4}"));
        // Per-transaction latencies need the span tracer: the workers are
        // inside `run_scenario`. A second run of the same length with the
        // tracer on gives each committed transaction's exact root-span
        // duration; throughput above comes from the untraced run.
        let traced = scenario(
            workload,
            args.seed,
            args.window(),
            Some(setup::traced_obs()),
            None,
        );
        gate(&traced, &mut errors);
        let lat = windowed_latencies(&traced);
        crate::percentiles(&mut m, &mut notes, &mut errors, &lat, " (traced run)");
    } else {
        let half = args.window() / 2;
        let (cpu0, host0) = (procfs::cpu_us(), procfs::host_ticks());
        let a = scenario(workload, args.seed, half, None, None);
        let (cpu1, host1) = (procfs::cpu_us(), procfs::host_ticks());
        gate(&a, &mut errors);
        attempted = window_commits(&a) + a.failed;
        failed = a.failed;
        let commits = a.total_commits() as f64;
        let per_commit = |n: u64| ratio(n as f64, commits);
        m.put("simnet.msgs_per_commit", per_commit(a.net.sent));
        m.put("simnet.bytes_per_commit", per_commit(a.net.bytes_sent));
        m.put("core.controller.refresh_share", 0.0);
        m.put("core.controller.refreshes", a.refreshes as f64);
        m.put(
            "core.executor.full_aborts_per_commit",
            per_commit(a.total_full_aborts()),
        );
        m.put(
            "core.executor.partial_aborts_per_commit",
            per_commit(a.total_partial_aborts()),
        );
        m.put(
            "core.executor.locked_aborts_per_commit",
            per_commit(a.total_locked_aborts()),
        );
        for name in [
            "dtm.client.read_rounds_per_commit",
            "dtm.client.validate_entries_per_commit",
            "dtm.client.prepares_per_commit",
        ] {
            m.put(name, 0.0);
        }
        notes.push("dtm.client.*: 0, run_scenario does not return ClientStats".into());
        crate::server_metrics(&mut m, &a.server_stats, commits);
        let ws = a.batch.unwrap_or_default();
        m.put(
            "core.scheduler.mean_layers",
            ratio(ws.layers as f64, ws.waves as f64),
        );
        m.put("core.scheduler.max_width", ws.max_width as f64);
        m.put(
            "core.scheduler.edges_per_txn",
            ratio(ws.edges as f64, ws.txns as f64),
        );
        m.put(
            "core.scheduler.mispredicts_per_commit",
            per_commit(ws.mispredicts),
        );
        m.put(
            "workloads.gen_us_per_txn",
            crate::micro::gen_us(workload, args.seed),
        );
        let (user, sys) = (cpu1.0 - cpu0.0, cpu1.1 - cpu0.1);
        m.put("process.cpu_us_per_commit", per_commit((user + sys) as u64));
        m.put("process.sys_share", ratio(sys, user + sys));
        m.put("host.steal_share", procfs::steal_share(host0, host1));
        for (name, q) in [("diag.hist_p50_ms", 0.5), ("diag.hist_p99_ms", 0.99)] {
            m.put(
                name,
                a.latency
                    .percentile(q)
                    .map_or(0.0, |d| d.as_secs_f64() * 1e3),
            );
        }

        let history = Arc::new(HistoryLog::new());
        let b = scenario(
            workload,
            args.seed,
            half,
            Some(setup::traced_obs()),
            Some(Arc::clone(&history)),
        );
        gate(&b, &mut errors);
        let obs = b.obs.as_ref().expect("observability was on");
        let counted = b.total_full_aborts() + b.total_partial_aborts() + b.total_locked_aborts();
        checks::traced(&obs.aborts, counted, &history, &mut notes, &mut errors);
        let lat = windowed_latencies(&b);
        m.put(
            "diag.p999_ms",
            exact_percentile(&lat, 0.999).map_or(0.0, |p| p.value as f64 / 1e6),
        );
        crate::traced_metrics(
            &mut m,
            &obs.critpath,
            &obs.wasted,
            b.total_commits() as f64,
            &mut errors,
        );
        let untraced = window_commits(&a) as f64;
        let traced = window_commits(&b) as f64;
        m.put(
            "obs.tracing_overhead_pct",
            100.0 * ratio(untraced - traced, untraced),
        );
        // Contention levels the run left behind, as the controller's
        // Dynamic Module would have sampled them (write levels).
        let dms = dms_of(workload);
        let ids: HashMap<&str, u16> = crate::micro::classes(&dms)
            .iter()
            .map(|c| (c.name, c.id))
            .collect();
        let levels = obs
            .contention
            .iter()
            .filter_map(|l| Some((*ids.get(l.class.as_str())?, l.writes_milli as f64 / 1e3)))
            .collect();
        crate::micro_metrics(&mut m, workload, &dms, &levels, args.seed);
    }
    RunOutput {
        attempted,
        failed,
        metrics: m,
        notes,
        errors,
    }
}

fn dms_of(workload: &dyn Workload) -> Vec<Arc<acn_txir::DependencyModel>> {
    let statics = acn_core::StaticModule::new();
    workload
        .templates()
        .iter()
        .map(|p| statics.analyze(p).expect("template is valid"))
        .collect()
}

/// Exact end-to-end durations of the transactions a traced run committed
/// after its warm-up, sorted.
fn windowed_latencies(r: &ScenarioResult) -> Vec<u64> {
    let Some(obs) = &r.obs else {
        return Vec::new();
    };
    let warm_ns = WARMUP.as_nanos() as u64;
    let started: HashMap<u64, u64> = obs
        .spans
        .iter()
        .filter(|s| s.kind == SpanKind::Txn)
        .map(|s| (s.trace, s.start_ns))
        .collect();
    let mut v: Vec<u64> = obs
        .critpath
        .iter()
        .filter(|c| started.get(&c.trace).is_some_and(|&t| t >= warm_ns))
        .map(|c| c.end_to_end_ns)
        .collect();
    v.sort_unstable();
    v
}
