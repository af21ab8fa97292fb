//! Transaction-path stage tracing.
//!
//! A [`TxnSpan`] rides one live operation from admission to
//! acknowledgement, recording the wall-clock boundary of every stage it
//! crosses: mailbox receive, lock grant, protocol decision, plus how many
//! protocol rounds the commit took. The serving node stamps the span; the
//! harness — which alone knows each operation's *scheduled* arrival and
//! the run's fault schedule — turns boundary instants into stage durations
//! and aggregates them per `(path, fault-phase, stage)` in a
//! [`StageTable`].
//!
//! Stages are consecutive boundary deltas over one timeline, so the table
//! accounts for the whole end-to-end latency by construction; the
//! benchmark's `live.stage_coverage` gate asserts the accounting covers
//! ≥ 95% of measured latency (saturating arithmetic can shave microseconds, never
//! add them).

use crate::hist::LogHistogram;
use crate::json::json_escape;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Stage name: time between the operation's scheduled arrival and the
/// serving node picking it out of its mailbox (driver + mailbox queueing).
pub const STAGE_QUEUE: &str = "queue";
/// Stage name: time parked waiting for conflicting locks.
pub const STAGE_LOCK_WAIT: &str = "lock-wait";
/// Stage name: locks held, commit-protocol rounds running, until decision.
pub const STAGE_PROTOCOL: &str = "protocol";
/// Stage name: decision reached, waiting for the group-commit flush that
/// makes it durable, plus the outcome ship / client ack.
pub const STAGE_COMMIT_WAIT: &str = "commit-wait";
/// Stage name: a read being served from committed storage (lease or
/// shared-lock path) after any lock wait.
pub const STAGE_SERVE: &str = "serve";
/// Pseudo-stage: distribution of protocol *round counts* per transaction
/// (a count histogram, not a duration).
pub const STAGE_ROUNDS: &str = "rounds";

/// Wall-clock stage boundaries of one live operation, stamped by the
/// serving node and shipped back on the completion ack.
#[derive(Debug, Clone, Copy)]
pub struct TxnSpan {
    /// Which path served the operation (`write-single`, `write-cross`,
    /// `read-lease`, `read-local`, `read-parked`, ...).
    pub path: &'static str,
    /// When the node picked the operation out of its mailbox.
    pub recv: Instant,
    /// When every lock was held and execution began (`None` while parked,
    /// or for operations that never acquired locks — lease reads).
    pub locked: Option<Instant>,
    /// When the commit protocol decided (writes only).
    pub decided: Option<Instant>,
    /// Protocol messages/timers the serving participant dispatched for
    /// this transaction — the round count the termination protocol's cost
    /// story is about.
    pub rounds: u32,
}

impl TxnSpan {
    /// A span starting at `recv` on `path`.
    pub fn begin(path: &'static str, recv: Instant) -> TxnSpan {
        TxnSpan { path, recv, locked: None, decided: None, rounds: 0 }
    }
}

/// Accumulated duration population of one `(path, phase, stage)` cell.
#[derive(Debug, Clone, Default)]
pub struct StageCell {
    /// Operations that crossed this stage.
    pub count: u64,
    /// Total microseconds spent (saturating).
    pub total_us: u64,
    /// The per-operation duration distribution.
    pub hist: LogHistogram,
}

/// Stage durations aggregated per `(path, fault-phase, stage)`.
///
/// `path` is where the operation was routed (single-shard write,
/// cross-shard write, lease read, ...), `phase` is where the run's fault
/// timeline stood when the operation completed (`"before"`, `"fault"`,
/// `"after"` — or `"none"` for fault-free runs), and `stage` is one of the
/// `STAGE_*` names.
#[derive(Debug, Clone, Default)]
pub struct StageTable {
    cells: BTreeMap<(&'static str, &'static str, &'static str), StageCell>,
}

impl StageTable {
    /// An empty table.
    pub fn new() -> StageTable {
        StageTable::default()
    }

    /// Records `us` microseconds for one operation crossing `stage`.
    pub fn add(&mut self, path: &'static str, phase: &'static str, stage: &'static str, us: u64) {
        let cell = self.cells.entry((path, phase, stage)).or_default();
        cell.count += 1;
        cell.total_us = cell.total_us.saturating_add(us);
        cell.hist.record(us);
    }

    /// All cells in `(path, phase, stage)` order.
    pub fn rows(
        &self,
    ) -> impl Iterator<Item = (&(&'static str, &'static str, &'static str), &StageCell)> {
        self.cells.iter()
    }

    /// The cell for `(path, phase, stage)`, if populated.
    pub fn cell(&self, path: &str, phase: &str, stage: &str) -> Option<&StageCell> {
        self.cells
            .iter()
            .find(|((p, f, s), _)| *p == path && *f == phase && *s == stage)
            .map(|(_, c)| c)
    }

    /// Total microseconds attributed to `stage` across paths and phases.
    pub fn stage_total_us(&self, stage: &str) -> u64 {
        self.cells
            .iter()
            .filter(|((_, _, s), _)| *s == stage)
            .fold(0u64, |acc, (_, c)| acc.saturating_add(c.total_us))
    }

    /// Total microseconds attributed to duration stages (everything except
    /// the [`STAGE_ROUNDS`] count pseudo-stage).
    pub fn attributed_us(&self) -> u64 {
        self.cells
            .iter()
            .filter(|((_, _, s), _)| *s != STAGE_ROUNDS)
            .fold(0u64, |acc, (_, c)| acc.saturating_add(c.total_us))
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Folds `other` into this table.
    pub fn merge(&mut self, other: &StageTable) {
        for (key, cell) in &other.cells {
            let mine = self.cells.entry(*key).or_default();
            mine.count += cell.count;
            mine.total_us = mine.total_us.saturating_add(cell.total_us);
            mine.hist.merge(&cell.hist);
        }
    }

    /// Renders `[{path, phase, stage, count, total_us, p50_us, p99_us,
    /// max_us}, ...]`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, ((path, phase, stage), c)) in self.cells.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n      {{\"path\": \"{}\", \"phase\": \"{}\", \"stage\": \"{}\", \
                 \"count\": {}, \"total_us\": {}, \"p50_us\": {}, \"p99_us\": {}, \"max_us\": {}}}",
                json_escape(path),
                json_escape(phase),
                json_escape(stage),
                c.count,
                c.total_us,
                c.hist.quantile(0.5),
                c.hist.quantile(0.99),
                c.hist.max(),
            );
        }
        out.push_str("\n    ]");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_accumulates_per_cell() {
        let mut t = StageTable::new();
        t.add("write-single", "none", STAGE_PROTOCOL, 100);
        t.add("write-single", "none", STAGE_PROTOCOL, 300);
        t.add("write-cross", "fault", STAGE_PROTOCOL, 900);
        t.add("write-single", "none", STAGE_ROUNDS, 3);
        let cell = t.cell("write-single", "none", STAGE_PROTOCOL).unwrap();
        assert_eq!(cell.count, 2);
        assert_eq!(cell.total_us, 400);
        assert_eq!(t.stage_total_us(STAGE_PROTOCOL), 1300);
        assert_eq!(t.attributed_us(), 1300, "rounds pseudo-stage is excluded");
    }

    #[test]
    fn merge_folds_tables() {
        let mut a = StageTable::new();
        a.add("p", "none", STAGE_QUEUE, 10);
        let mut b = StageTable::new();
        b.add("p", "none", STAGE_QUEUE, 30);
        b.add("q", "fault", STAGE_SERVE, 5);
        a.merge(&b);
        assert_eq!(a.cell("p", "none", STAGE_QUEUE).unwrap().count, 2);
        assert_eq!(a.cell("q", "fault", STAGE_SERVE).unwrap().total_us, 5);
    }

    #[test]
    fn json_rows_name_every_cell() {
        let mut t = StageTable::new();
        t.add("write-single", "before", STAGE_LOCK_WAIT, 42);
        let json = t.to_json();
        for needle in [
            "\"path\": \"write-single\"",
            "\"phase\": \"before\"",
            "\"stage\": \"lock-wait\"",
            "\"total_us\": 42",
        ] {
            assert!(json.contains(needle), "{json} missing {needle}");
        }
    }

    #[test]
    fn span_begin_is_unmarked() {
        let s = TxnSpan::begin("write-single", Instant::now());
        assert_eq!(s.path, "write-single");
        assert!(s.locked.is_none() && s.decided.is_none());
        assert_eq!(s.rounds, 0);
    }
}
