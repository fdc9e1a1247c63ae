//! Layer microtimings taken from outside: repeated calls into the public
//! functions of `txir`, `core` and `quorum`, each reported as a median.

use crate::report::median;
use acn_core::{plan_wave_with, AlgorithmModule, InexactPolicy, StaticModule, SumModel};
use acn_quorum::{DaryTree, LevelQuorums, ReadLevelPolicy};
use acn_txir::{AccessSummary, CounterOracle, CounterSite, DependencyModel, ObjClass};
use acn_workloads::Workload;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Timed repetitions per microtiming.
const REPS: usize = 25;
/// Transactions per generated wave, as in the batch workload.
pub const WAVE: usize = 32;
/// Generated waves resolved and planned per repetition.
const WAVES: usize = 8;
/// Quorum selections per repetition.
const SELECTIONS: u64 = 1_000;

/// Median wall time of `f` over [`REPS`] calls, in microseconds.
fn median_us(mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// `StaticModule::analyze` of every template, summed: the static
/// analysis share of set-up, in milliseconds. A fresh module per call,
/// because the module caches by template name.
pub fn analyze_ms(workload: &dyn Workload) -> f64 {
    workload
        .templates()
        .iter()
        .map(|p| {
            median_us(|| {
                black_box(StaticModule::new().analyze(p).expect("template is valid"));
            })
        })
        .sum::<f64>()
        / 1e3
}

/// `AlgorithmModule::recompute` at `levels`, averaged over the templates,
/// in microseconds per call.
pub fn recompute_us(dms: &[Arc<DependencyModel>], levels: &HashMap<u16, f64>) -> f64 {
    let algo = AlgorithmModule::with_model(Box::new(SumModel));
    let per: Vec<f64> = dms
        .iter()
        .map(|dm| median_us(|| drop(black_box(algo.recompute(dm, levels)))))
        .collect();
    per.iter().sum::<f64>() / per.len().max(1) as f64
}

/// Every class a template opens, deduplicated.
pub fn classes(dms: &[Arc<DependencyModel>]) -> Vec<ObjClass> {
    let mut out: Vec<ObjClass> = dms
        .iter()
        .flat_map(|dm| dm.units.iter().flat_map(|u| u.classes.iter().copied()))
        .collect();
    out.sort_by_key(|c| c.id);
    out.dedup_by_key(|c| c.id);
    out
}

/// Predicts every hot counter from a running cursor, the way a batch
/// coordinator does: start at the never-written default and advance by
/// each instance's delta.
#[derive(Default)]
struct Cursors(HashMap<(u16, u64, u16), i64>);

impl CounterOracle for Cursors {
    fn predict(&mut self, site: &CounterSite) -> Option<i64> {
        let e = self
            .0
            .entry((site.obj.class.id, site.obj.index, site.field.0))
            .or_insert(0);
        let v = *e;
        *e += site.delta;
        Some(v)
    }
}

/// Resolution and wave-planning cost on waves drawn from the workload's
/// own generator.
pub struct WaveCost {
    /// `AccessSummary::resolve_with` per transaction, microseconds.
    pub resolve_us_per_txn: f64,
    /// `plan_wave_with` per [`WAVE`]-transaction wave, microseconds.
    pub plan_us_per_wave: f64,
}

pub fn wave_cost(workload: &dyn Workload, seed: u64) -> WaveCost {
    let summaries: Vec<AccessSummary> =
        workload.templates().iter().map(AccessSummary::of).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let waves: Vec<Vec<_>> = (0..WAVES)
        .map(|_| (0..WAVE).map(|_| workload.next(&mut rng, 0)).collect())
        .collect();
    let resolve_all = || {
        let mut oracle = Cursors::default();
        waves
            .iter()
            .map(|wave| {
                wave.iter()
                    .map(|r| summaries[r.template].resolve_with(&r.params, &mut oracle))
                    .collect::<Vec<_>>()
            })
            .collect::<Vec<_>>()
    };
    let resolve_us = median_us(|| drop(black_box(resolve_all())));
    let resolved = resolve_all();
    let plan_us = median_us(|| {
        for wave in &resolved {
            black_box(plan_wave_with(wave, InexactPolicy::Speculate));
        }
    });
    WaveCost {
        resolve_us_per_txn: resolve_us / (WAVES * WAVE) as f64,
        plan_us_per_wave: plan_us / WAVES as f64,
    }
}

/// Quorum sizes and selection cost on the benchmark's 10-node ternary
/// tree with every node alive.
pub struct QuorumCost {
    pub read_size: usize,
    pub write_size: usize,
    /// One read plus one write quorum selection, microseconds.
    pub select_us: f64,
}

pub fn quorum_cost(servers: usize, arity: usize) -> QuorumCost {
    let q = LevelQuorums::with_policy(DaryTree::new(servers, arity), ReadLevelPolicy::Deepest);
    let alive = |_: usize| true;
    let us = median_us(|| {
        for seed in 0..SELECTIONS {
            black_box(q.read_quorum(seed, &alive));
            black_box(q.write_quorum(seed, &alive));
        }
    });
    QuorumCost {
        read_size: q.read_quorum(0, &alive).map_or(0, |v| v.len()),
        write_size: q.write_quorum(0, &alive).map_or(0, |v| v.len()),
        select_us: us / SELECTIONS as f64,
    }
}

/// `Workload::next` per generated transaction, microseconds: a control
/// that no change to the system should move.
pub fn gen_us(workload: &dyn Workload, seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    median_us(|| {
        for _ in 0..WAVE {
            black_box(workload.next(&mut rng, 0));
        }
    }) / WAVE as f64
}
