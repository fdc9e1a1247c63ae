//! The shared shape of every workload: cluster, network, log and
//! controller settings, and the timed set-up the benchmark repeats.

use acn_core::{
    AcnController, AlgorithmModule, BlockSeq, ControllerConfig, SamplingMode, StaticModule,
    SumModel,
};
use acn_dtm::{Cluster, ClusterConfig, DurabilityMode, HistoryLog, PersistenceMode, ServerStats};
use acn_obs::{ObsConfig, SpanCollector};
use acn_simnet::LatencyModel;
use acn_txir::DependencyModel;
use acn_workloads::tpcc::{Tpcc, TpccConfig, TpccMix};
use acn_workloads::vacation::{Vacation, VacationConfig};
use acn_workloads::Workload;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client threads (closed loops) or batch workers: one per core of the
/// 2-core machine the benchmark was tuned on.
pub const CLIENTS: usize = 2;
/// Run time excluded before the timed window: covers the first controller
/// re-decompositions and the first contention windows.
pub const WARMUP: Duration = Duration::from_secs(2);
/// Set-ups per run, at least; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;
/// Set-up time a run spends at least on repeated set-ups.
const SETUP_BUDGET: Duration = Duration::from_secs(1);
/// Set-ups per run, at most.
const SETUP_MAX: usize = 200;
/// Span ring capacity per thread in traced runs, large enough that a
/// traced window keeps most of its transactions.
pub const SPAN_CAPACITY: usize = 1 << 18;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    TpccMixedAcn,
    VacationReadMostly,
    NeworderBatch,
}

impl Kind {
    pub const ALL: [Kind; 3] = [
        Kind::TpccMixedAcn,
        Kind::VacationReadMostly,
        Kind::NeworderBatch,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::TpccMixedAcn => "tpcc_mixed_acn",
            Kind::VacationReadMostly => "vacation_read_mostly",
            Kind::NeworderBatch => "neworder_batch",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The workload generator. Its seed is the benchmark's `--seed`; the
    /// program only ever sees the generated transactions.
    pub fn workload(self) -> Box<dyn Workload> {
        let tpcc = |mix| {
            Box::new(Tpcc::new(
                TpccConfig {
                    warehouses: 1,
                    districts_per_warehouse: 4,
                    customers_per_district: 400,
                    items: 200,
                    ol_min: 5,
                    ol_max: 10,
                },
                mix,
            ))
        };
        match self {
            Kind::TpccMixedAcn => tpcc(TpccMix::MIXED),
            Kind::NeworderBatch => tpcc(TpccMix::NEW_ORDER),
            Kind::VacationReadMostly => Box::new(Vacation::new(VacationConfig {
                hot_pool: 64,
                cold_pool: 4096,
                customers: 8192,
                write_pct: 20,
                queries_per_txn: 8,
            })),
        }
    }

    /// Whether the servers log to files (TPC-C) or to memory (Vacation,
    /// where the file log made p99 swing by 29% between runs).
    pub fn file_wal(self) -> bool {
        self != Kind::VacationReadMostly
    }
}

/// The paper's 10-server ternary tree on a uniform 80–240 µs one-way
/// network, with a 150 ms contention window and the workload's log.
pub fn cluster_config(kind: Kind, wal: Option<&WalDir>) -> ClusterConfig {
    let mut c = ClusterConfig::paper(CLIENTS);
    c.latency = LatencyModel::Uniform {
        min: Duration::from_micros(80),
        max: Duration::from_micros(240),
    };
    c.window.window = Duration::from_millis(150);
    if let Some(dir) = wal {
        c.persistence = PersistenceMode::File(dir.0.clone());
    }
    c.durability = if kind.file_wal() {
        DurabilityMode::GroupCommit {
            max_records: 32,
            max_delay: Duration::from_millis(1),
        }
    } else {
        DurabilityMode::EveryRecord
    };
    c
}

/// Observer and span-ring settings of the traced passes.
pub fn traced_obs() -> ObsConfig {
    ObsConfig {
        span_capacity: SPAN_CAPACITY,
        ..ObsConfig::default()
    }
}

pub fn controller_config() -> ControllerConfig {
    ControllerConfig {
        period: Duration::from_millis(400),
        alpha: 1.0,
        sampling: SamplingMode::Explicit,
    }
}

/// A fresh directory for one cluster's file logs, removed on drop so no
/// run replays an older log. It lives under the build directory, inside
/// the checkout.
pub struct WalDir(PathBuf);

impl WalDir {
    pub fn fresh() -> WalDir {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let root = std::env::var_os("CARGO_TARGET_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/target")));
        let dir = root.join("qrbench-wal").join(format!(
            "{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        WalDir(dir)
    }
}

impl Drop for WalDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A started, seeded and analysed system, ready to run transactions.
pub struct Env {
    pub cluster: Cluster,
    pub dms: Vec<Arc<DependencyModel>>,
    /// One controller per template (closed loops on QR-ACN).
    pub ctrls: Vec<Arc<AcnController>>,
    /// Declared last so the log directory outlives the cluster.
    _wal: Option<WalDir>,
}

impl Env {
    /// Stop the servers (returning their counters), then remove the log.
    pub fn shutdown(self) -> Vec<ServerStats> {
        self.cluster.shutdown()
    }
}

/// Start the cluster (until a read quorum answers), seed it, analyse
/// every template and build what runs them: QR-ACN controllers, or
/// QR-CN's manual Block sequences for the batch workload (which
/// `run_scenario` rebuilds itself, so they are only timed here). Returns
/// the environment and how long all of it took.
pub fn setup(
    kind: Kind,
    workload: &dyn Workload,
    history: Option<&Arc<HistoryLog>>,
    spans: Option<&Arc<SpanCollector>>,
) -> (Env, Duration) {
    let t0 = Instant::now();
    let wal = kind.file_wal().then(WalDir::fresh);
    let mut cfg = cluster_config(kind, wal.as_ref());
    cfg.spans = spans.cloned();
    let cluster = Cluster::start(cfg);
    {
        let mut seeder = cluster.client(0);
        if let Some(h) = history {
            seeder.set_history(Arc::clone(h));
        }
        // The cluster is started once a read quorum answers a request.
        seeder
            .query_contention(&[])
            .expect("a read quorum of a healthy cluster answers");
        workload.seed(&mut seeder);
    }
    let statics = StaticModule::new();
    let dms: Vec<Arc<DependencyModel>> = workload
        .templates()
        .iter()
        .map(|p| statics.analyze(p).expect("workload template is valid"))
        .collect();
    let ctrls = if kind == Kind::NeworderBatch {
        for (t, dm) in dms.iter().enumerate() {
            std::hint::black_box(BlockSeq::group_units(dm, &workload.manual_groups(t, dm)));
        }
        Vec::new()
    } else {
        dms.iter()
            .map(|dm| {
                Arc::new(AcnController::new(
                    Arc::clone(dm),
                    AlgorithmModule::with_model(Box::new(SumModel)),
                    controller_config(),
                ))
            })
            .collect()
    };
    let env = Env {
        cluster,
        dms,
        ctrls,
        _wal: wal,
    };
    (env, t0.elapsed())
}

/// Timed set-ups, repeated until at least [`SETUP_REPEATS`] of them and
/// [`SETUP_BUDGET`] of set-up time (at most [`SETUP_MAX`]), so that a
/// sub-millisecond set-up still gets a steady median. All but the last
/// are shut down again. Returns the last environment and the set-up
/// times in seconds.
pub fn repeated_setup(kind: Kind, workload: &dyn Workload) -> (Env, Vec<f64>) {
    let mut times: Vec<f64> = Vec::new();
    let mut env: Option<Env> = None;
    while times.len() < SETUP_REPEATS
        || (times.iter().sum::<f64>() < SETUP_BUDGET.as_secs_f64() && times.len() < SETUP_MAX)
    {
        if let Some(e) = env.take() {
            e.shutdown();
        }
        let (e, d) = setup(kind, workload, None, None);
        times.push(d.as_secs_f64());
        env = Some(e);
    }
    (env.expect("SETUP_REPEATS > 0"), times)
}
