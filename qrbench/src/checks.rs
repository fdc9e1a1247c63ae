//! Output correctness, checked against the replicas' final state and the
//! process's own counters.

use acn_dtm::{check_history, HistoryLog, ServerStats};
use acn_obs::{AbortKind, AbortTable};
use acn_txir::ObjClass;
use acn_workloads::schema::{CAR, CUSTOMER_V, DISTRICT, FLIGHT, ORDER, ROOM, WAREHOUSE};
use std::collections::HashMap;

/// Committed transactions by what they write, as counted by the clients.
#[derive(Debug, Clone, Copy, Default)]
pub struct Committed {
    pub neworders: u64,
    pub payments: u64,
    /// Vacation reservations (the read-only queries write nothing).
    pub reservations: u64,
}

/// The newest version of every object any replica holds: every commit
/// reached a write quorum, so the maximum over replicas is the last
/// committed version.
fn latest_versions(servers: &[ServerStats]) -> HashMap<(u16, u64), u64> {
    let mut latest = HashMap::new();
    for s in servers {
        for &(obj, v) in &s.inventory {
            let e = latest.entry((obj.class.id, obj.index)).or_insert(0);
            *e = (*e).max(v);
        }
    }
    latest
}

/// Every commit installs version `read + 1` on each object it writes, so
/// the versions of a class add up to the commits that wrote it, plus one
/// per object the seeder wrote. Each committed NewOrder also inserts one
/// Order row, at an index taken from its district's order counter, so a
/// lost counter update shows as a missing Order.
///
/// Returns a description of every equation that does not hold.
pub fn conservation(servers: &[ServerStats], c: Committed) -> Vec<String> {
    let latest = latest_versions(servers);
    let of = |class: ObjClass| latest.iter().filter(move |((id, _), _)| *id == class.id);
    let version_sum = |class: ObjClass| of(class).map(|(_, v)| *v).sum::<u64>();
    let count = |class: ObjClass| of(class).filter(|(_, v)| **v > 0).count() as u64;
    let mut eqs: Vec<(&str, u64, u64)> = Vec::new();
    if c.neworders + c.payments > 0 {
        eqs.push(("Order rows == NewOrder commits", count(ORDER), c.neworders));
        eqs.push((
            "district versions - seeded districts == NewOrder + Payment commits",
            version_sum(DISTRICT).saturating_sub(count(DISTRICT)),
            c.neworders + c.payments,
        ));
        eqs.push((
            "warehouse versions - seeded warehouses == Payment commits",
            version_sum(WAREHOUSE).saturating_sub(count(WAREHOUSE)),
            c.payments,
        ));
    }
    if c.reservations > 0 {
        for (label, class) in [
            ("car versions == reservations", CAR),
            ("flight versions == reservations", FLIGHT),
            ("room versions == reservations", ROOM),
            ("customer versions == reservations", CUSTOMER_V),
        ] {
            eqs.push((label, version_sum(class), c.reservations));
        }
    }
    eqs.into_iter()
        .filter(|(_, got, want)| got != want)
        .map(|(label, got, want)| format!("{label}: replicas hold {got}, clients committed {want}"))
        .collect()
}

/// The traced pass's extra checks: abort attribution adds up to the
/// executor's abort count (`counted`), and the recorded committed history
/// is serializable.
pub fn traced(
    aborts: &AbortTable,
    counted: u64,
    history: &HistoryLog,
    notes: &mut Vec<String>,
    errors: &mut Vec<String>,
) {
    let attributed = aborts.total_of(&AbortKind::EXECUTOR_KINDS);
    if attributed != counted {
        errors.push(format!(
            "abort attribution {attributed} != executor aborts {counted}"
        ));
    }
    match check_history(&history.snapshot()) {
        Ok(sum) => notes.push(format!("history: {} commits serializable", sum.commits)),
        Err(v) => errors.push(format!(
            "history check: {} violations, first {:?}",
            v.len(),
            v.first()
        )),
    }
}
