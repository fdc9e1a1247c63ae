//! QR-ACN benchmark: one command per workload run.
//!
//! ```text
//! qrbench --workload <tpcc_mixed_acn|vacation_read_mostly|neworder_batch>
//!         --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with all tracing off;
//! `--trace 1` measures the per-layer metrics: an untraced pass for the
//! layer counters and call timings, a pass of the same configuration with
//! the span tracer, observer and history recorder on, and microtimings of
//! the layers' public functions. Human-readable notes go to standard
//! output first; the last line is the JSON result. The exit code is 0
//! only when every correctness check passed.

mod batch;
mod checks;
mod closed;
mod micro;
mod procfs;
mod report;
mod setup;

use acn_dtm::ServerStats;
use acn_obs::{TxnCritPath, WorkTotals};
use acn_txir::DependencyModel;
use acn_workloads::Workload;
use report::{ratio, Metric, Outcome};
use setup::Kind;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Duration;

/// End-to-end metrics and their units, printed with `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("commits_per_sec", "txn/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics and their units, printed with `--trace 1`.
const PER_LAYER: &[(&str, &str)] = &[
    ("simnet.msgs_per_commit", "msg/txn"),
    ("simnet.bytes_per_commit", "B/txn"),
    ("quorum.read_quorum_size", "nodes"),
    ("quorum.write_quorum_size", "nodes"),
    ("quorum.select_us", "us"),
    ("txir.analyze_ms", "ms"),
    ("txir.resolve_us_per_txn", "us"),
    ("core.controller.refresh_share", "ratio"),
    ("core.controller.refreshes", "count"),
    ("core.algorithm.recompute_us", "us"),
    ("core.executor.full_aborts_per_commit", "1/txn"),
    ("core.executor.partial_aborts_per_commit", "1/txn"),
    ("core.executor.locked_aborts_per_commit", "1/txn"),
    ("core.executor.useful_block_ratio", "ratio"),
    ("core.scheduler.plan_us_per_wave", "us"),
    ("core.scheduler.mean_layers", "layers"),
    ("core.scheduler.max_width", "txns"),
    ("core.scheduler.edges_per_txn", "1/txn"),
    ("core.scheduler.mispredicts_per_commit", "1/txn"),
    ("dtm.client.read_rounds_per_commit", "1/txn"),
    ("dtm.client.validate_entries_per_commit", "1/txn"),
    ("dtm.client.prepares_per_commit", "1/txn"),
    ("dtm.server.prepare_rejects_per_commit", "1/txn"),
    ("dtm.wal.records_per_sync", "records"),
    ("dtm.wal.syncs_per_commit", "1/txn"),
    ("workloads.gen_us_per_txn", "us"),
    ("process.cpu_us_per_commit", "us"),
    ("process.sys_share", "ratio"),
    ("host.steal_share", "ratio"),
    ("diag.p999_ms", "ms"),
    ("diag.hist_p50_ms", "ms"),
    ("diag.hist_p99_ms", "ms"),
    ("critpath.redo_ms", "ms"),
    ("critpath.lock_ms", "ms"),
    ("critpath.srvq_ms", "ms"),
    ("critpath.wal_ms", "ms"),
    ("critpath.net_ms", "ms"),
    ("critpath.local_ms", "ms"),
    ("wasted.blocks_discarded_share", "ratio"),
    ("wasted.read_rounds_discarded_share", "ratio"),
    ("wasted.lock_holds_discarded_share", "ratio"),
    ("wasted.full_blocks_per_commit", "1/txn"),
    ("wasted.partial_blocks_per_commit", "1/txn"),
    ("obs.tracing_overhead_pct", "%"),
];

/// Parsed command line.
pub struct Args {
    kind: Kind,
    pub seed: u64,
    seconds: u64,
    pub trace: bool,
}

impl Args {
    /// Length of the timed window (warm-up excluded).
    pub fn window(&self) -> Duration {
        Duration::from_secs(self.seconds)
    }
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut flags: HashMap<String, String> = HashMap::new();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .filter(|k| ["workload", "seed", "seconds", "trace"].contains(k))
            .ok_or_else(|| format!("unknown argument {flag}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(key.to_string(), value);
    }
    let get = |k: &str| flags.get(k).ok_or_else(|| format!("--{k} is required"));
    let number = |k: &str| get(k)?.parse::<u64>().map_err(|e| format!("--{k}: {e}"));
    let kind = Kind::from_name(get("workload")?)
        .ok_or_else(|| format!("unknown workload {}", flags["workload"]))?;
    let seconds = number("seconds")?;
    if !(2..=60).contains(&seconds) {
        return Err("--seconds must be between 2 and 60".into());
    }
    let trace = match number("trace")? {
        0 => false,
        1 => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    Ok(Args {
        kind,
        seed: number("seed")?,
        seconds,
        trace,
    })
}

/// The metrics one run measured, each checked against the catalogue.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, Metric>);

impl Metrics {
    /// Record `name`, which must be in [`END_TO_END`] or [`PER_LAYER`].
    pub fn put(&mut self, name: &str, value: f64) {
        let unit = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|(n, _)| *n == name)
            .map(|(_, u)| u.to_string())
            .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        self.0.insert(name.to_string(), Metric { value, unit });
    }
}

/// What a workload run hands back to `main`.
pub struct RunOutput {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    pub notes: Vec<String>,
    pub errors: Vec<String>,
}

/// `p50_ms` and `p99_ms` from sorted exact timings in nanoseconds, each
/// with its sample count; a percentile with fewer than 10 samples beyond
/// it is refused and fails the run.
pub fn percentiles(
    m: &mut Metrics,
    notes: &mut Vec<String>,
    errors: &mut Vec<String>,
    sorted_ns: &[u64],
    source: &str,
) {
    for (name, q) in [("p50_ms", 0.50), ("p99_ms", 0.99)] {
        match report::exact_percentile(sorted_ns, q) {
            Some(p) => {
                m.put(name, p.value as f64 / 1e6);
                notes.push(format!(
                    "{name}: exact{source}, n={} samples, {} beyond it",
                    p.n, p.beyond
                ));
            }
            None => errors.push(format!(
                "{name}: refused, {} samples leave fewer than {} beyond it",
                sorted_ns.len(),
                report::MIN_BEYOND
            )),
        }
    }
}

/// Server-side counters over the whole run, per committed transaction.
pub fn server_metrics(m: &mut Metrics, servers: &[ServerStats], commits: f64) {
    let sum = |f: fn(&ServerStats) -> u64| servers.iter().map(f).sum::<u64>() as f64;
    let syncs = sum(|s| s.wal_sync_batches);
    m.put(
        "dtm.server.prepare_rejects_per_commit",
        ratio(sum(|s| s.prepare_rejects), commits),
    );
    m.put(
        "dtm.wal.records_per_sync",
        ratio(sum(|s| s.wal_records_synced), syncs),
    );
    m.put("dtm.wal.syncs_per_commit", ratio(syncs, commits));
}

/// The traced pass's critical-path carve and wasted-work ledger.
pub fn traced_metrics(
    m: &mut Metrics,
    critpath: &[TxnCritPath],
    work: &WorkTotals,
    commits: f64,
    errors: &mut Vec<String>,
) {
    if let Err(e) = work.check() {
        errors.push(e);
    }
    if critpath.is_empty() {
        errors.push("the traced pass kept no complete committed trace".into());
    }
    let n = critpath.len() as f64;
    let mean_ms =
        |f: fn(&TxnCritPath) -> u64| ratio(critpath.iter().map(f).sum::<u64>() as f64 / 1e6, n);
    m.put("critpath.redo_ms", mean_ms(|c| c.redo_ns));
    m.put("critpath.lock_ms", mean_ms(|c| c.lock_ns));
    m.put("critpath.srvq_ms", mean_ms(|c| c.srvq_ns));
    m.put("critpath.wal_ms", mean_ms(|c| c.wal_ns));
    m.put("critpath.net_ms", mean_ms(|c| c.net_ns));
    m.put("critpath.local_ms", mean_ms(|c| c.local_ns));
    let (ex, dis) = (work.executed, work.discarded());
    m.put(
        "core.executor.useful_block_ratio",
        ratio(work.committed.blocks as f64, ex.blocks as f64),
    );
    m.put(
        "wasted.blocks_discarded_share",
        ratio(dis.blocks as f64, ex.blocks as f64),
    );
    m.put(
        "wasted.read_rounds_discarded_share",
        ratio(dis.read_rounds as f64, ex.read_rounds as f64),
    );
    m.put(
        "wasted.lock_holds_discarded_share",
        ratio(dis.lock_holds as f64, ex.lock_holds as f64),
    );
    m.put(
        "wasted.full_blocks_per_commit",
        ratio(work.discarded_full.blocks as f64, commits),
    );
    m.put(
        "wasted.partial_blocks_per_commit",
        ratio(work.discarded_partial.blocks as f64, commits),
    );
}

/// Microtimings of the layers' public functions.
pub fn micro_metrics(
    m: &mut Metrics,
    workload: &dyn Workload,
    dms: &[Arc<DependencyModel>],
    levels: &HashMap<u16, f64>,
    seed: u64,
) {
    m.put("txir.analyze_ms", micro::analyze_ms(workload));
    m.put(
        "core.algorithm.recompute_us",
        micro::recompute_us(dms, levels),
    );
    let waves = micro::wave_cost(workload, seed);
    m.put("txir.resolve_us_per_txn", waves.resolve_us_per_txn);
    m.put("core.scheduler.plan_us_per_wave", waves.plan_us_per_wave);
    let cfg = setup::cluster_config(Kind::TpccMixedAcn, None);
    let q = micro::quorum_cost(cfg.servers, cfg.arity);
    m.put("quorum.read_quorum_size", q.read_size as f64);
    m.put("quorum.write_quorum_size", q.write_size as f64);
    m.put("quorum.select_us", q.select_us);
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("qrbench: {e}");
            eprintln!(
                "usage: qrbench --workload <{}> --seed <n> --seconds <2-60> --trace <0|1>",
                Kind::ALL.map(Kind::name).join("|")
            );
            std::process::exit(2);
        }
    };
    let out = match args.kind {
        Kind::NeworderBatch => batch::run(&args),
        kind => closed::run(kind, &args),
    };
    let mut errors = out.errors;
    let expected = if args.trace { PER_LAYER } else { END_TO_END };
    for (name, _) in expected {
        if !out.metrics.0.contains_key(*name) {
            errors.push(format!("metric {name} was not measured"));
        }
    }
    let outcome = Outcome {
        correct: errors.is_empty(),
        attempted: out.attempted,
        failed: out.failed,
        metrics: out.metrics.0,
    };
    println!(
        "# {} seed={} seconds={} trace={}",
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for (name, m) in &outcome.metrics {
        println!("# {name:<42} {:>14.6} {}", m.value, m.unit);
    }
    println!(
        "# failed_ratio: {}/{} = {}",
        outcome.failed,
        outcome.attempted,
        ratio(outcome.failed as f64, outcome.attempted as f64)
    );
    for note in &out.notes {
        println!("# {note}");
    }
    for e in &errors {
        eprintln!("qrbench: correctness check failed: {e}");
    }
    let line = outcome.to_json();
    let names_ok = outcome.metrics.keys().all(|n| report::valid_name(n));
    if !names_ok || Outcome::parse(&line).as_ref() != Ok(&outcome) {
        eprintln!("qrbench: the result line does not parse back to what was measured");
        std::process::exit(1);
    }
    println!("{line}");
    if !outcome.correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_and_units_are_legal() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(report::valid_name(name), "{name}");
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
    }

    #[test]
    fn arguments_parse_and_reject() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload neworder_batch --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.kind, a.seed, a.seconds, a.trace),
            (Kind::NeworderBatch, 7, 10, true)
        );
        for bad in [
            "--workload nope --seed 1 --seconds 10 --trace 0",
            "--workload tpcc_mixed_acn --seed 1 --seconds 10 --trace 2",
            "--workload tpcc_mixed_acn --seed 1 --seconds 0 --trace 0",
            "--workload tpcc_mixed_acn --seed 1 --trace 0",
            "--workload tpcc_mixed_acn --seed 1 --seconds 10 --trace 0 --extra 1",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
