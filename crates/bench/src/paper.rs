//! The paper as one checked artifact: every figure, lemma and theorem of
//! Huang & Li (ICDE 1987) this repository reproduces, plus the two
//! experiments that leave the paper's model and the two that hold the
//! serving store to its claims, is one [`Experiment`] in [`EXPERIMENTS`].
//! Running one renders its tables and states its [`Claim`]s — what the
//! paper says, computed and judged.
//!
//! The `exp` binary prints them (`exp list`, `exp <name>…`, `exp all`) and
//! exits non-zero when a claim fails; `tests/paper.rs` runs every entry,
//! asserts every claim and compares each rendered output with its committed
//! golden, `paper/<name>.txt`. Every output is deterministic: no wall clock,
//! no thread count and no host reaches the text. Three entries return the
//! committed record that pins their claims — `multi_partition`
//! (`BENCH_schedule.json`), `campaign` (`BENCH_campaign.json`) and
//! `read_paths` (`BENCH_read.json`) — with wall times in the record only,
//! as context; only the `exp` binary writes records.

mod beyond;
mod bounds;
mod fsa;
mod resilience;
mod store;

pub use beyond::family_grid;

use crate::record::Obj;
use ptp_core::report::Table;
use ptp_core::{sweep_with_session, ProtocolKind, SessionPool, SweepGrid, SweepReport};
use std::sync::OnceLock;

/// Appends one formatted line to an [`Output`]'s text (`say!(o)` appends an
/// empty one).
macro_rules! say {
    ($out:expr) => {
        $out.text.push('\n')
    };
    ($out:expr, $($arg:tt)*) => {{
        use std::fmt::Write as _;
        writeln!($out.text, $($arg)*).expect("writing to a String")
    }};
}
use say;

/// One fact the paper states, as an experiment measured it.
#[derive(Debug)]
pub struct Claim {
    /// Unique within its experiment.
    pub name: &'static str,
    pub holds: bool,
    /// The numbers behind the verdict.
    pub detail: String,
}

/// What one experiment produced.
#[derive(Default)]
pub struct Output {
    /// The tables and prose, claims excluded.
    pub text: String,
    /// In the order they were judged.
    pub claims: Vec<Claim>,
    /// The committed record that pins the claims, and its file name.
    pub record: Option<(&'static str, Obj)>,
}

impl Output {
    fn claim(&mut self, name: &'static str, holds: bool, detail: impl Into<String>) {
        self.claims.push(Claim { name, holds, detail: detail.into() });
    }

    /// The text, then one line per claim.
    pub fn render(&self) -> String {
        let mut out = self.text.clone();
        out.push_str("\n-- claims --\n");
        for c in &self.claims {
            let verdict = if c.holds { "holds " } else { "FAILS " };
            out.push_str(&format!("{verdict} {}: {}\n", c.name, c.detail));
        }
        out
    }

    /// The claims that do not hold.
    pub fn failed(&self) -> impl Iterator<Item = &Claim> {
        self.claims.iter().filter(|c| !c.holds)
    }

    /// Writes the scorecard of `kinds` over `grid` under `title`, each kind
    /// swept serially through `pool` (every `(kind, n)` cluster is built
    /// once per pool and reused across grids), and returns the reports in
    /// `kinds` order. The line under the table — how many cells were
    /// simulated rather than proved ([`ptp_core::Session::executed`]) —
    /// does not depend on a thread count.
    fn scorecard(
        &mut self,
        pool: &mut SessionPool,
        title: &str,
        kinds: &[ProtocolKind],
        grid: &SweepGrid,
    ) -> Vec<SweepReport> {
        say!(self, "== {title} ==");
        say!(self, "({} scenarios per protocol)\n", grid.size());
        let mut table = Table::new(vec![
            "protocol",
            "scenarios",
            "all-commit",
            "all-abort",
            "blocked",
            "inconsistent",
            "resilient?",
        ]);
        let mut simulated = 0;
        let reports = kinds
            .iter()
            .map(|&kind| {
                let session = pool.session(kind, grid.n);
                let before = session.executed();
                let r = sweep_with_session(session, grid);
                simulated += session.executed() - before;
                table.row(vec![
                    kind.name().to_string(),
                    r.total.to_string(),
                    r.all_commit.to_string(),
                    r.all_abort.to_string(),
                    r.blocked_count.to_string(),
                    r.inconsistent_count.to_string(),
                    yes_no(r.fully_resilient()).into(),
                ]);
                r
            })
            .collect();
        say!(self, "{}", table.render());
        say!(self, "(simulated {simulated} of {} cells)\n", kinds.len() * grid.size());
        reports
    }
}

/// A table's yes/no cell.
fn yes_no(yes: bool) -> &'static str {
    if yes {
        "YES"
    } else {
        "no"
    }
}

/// A sweep's counts, for a claim's detail.
fn counts(r: &SweepReport) -> String {
    format!("{} cells: {} blocked, {} inconsistent", r.total, r.blocked_count, r.inconsistent_count)
}

/// Ticks as multiples of `T` = 1000 ticks.
fn in_t(ticks: u64, decimals: usize) -> String {
    format!("{:.decimals$}T", ticks as f64 / 1000.0)
}

/// One entry of the registry.
pub struct Experiment {
    /// What `exp <name>` and the golden `paper/<name>.txt` are called.
    pub name: &'static str,
    /// The paper artifact it reproduces.
    pub artifact: &'static str,
    pub run: fn() -> Output,
}

/// Every experiment, in the paper's order.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment { name: "fig1", artifact: "Fig. 1 + the 2PC blocking diagnosis", run: fsa::fig1 },
    Experiment {
        name: "fig2",
        artifact: "Fig. 2 + the Sec. 3 multisite counterexample",
        run: fsa::fig2,
    },
    Experiment {
        name: "fig3",
        artifact: "Fig. 3 + the naive-augmentation counterexample",
        run: fsa::fig3,
    },
    Experiment { name: "lemma12", artifact: "Lemmas 1 & 2", run: fsa::lemma12 },
    Experiment { name: "lemma3", artifact: "Lemma 3", run: fsa::lemma3 },
    Experiment { name: "fig5", artifact: "Fig. 5 timeout intervals", run: bounds::fig5 },
    Experiment { name: "fig6", artifact: "Fig. 6 probe bound", run: bounds::fig6 },
    Experiment { name: "fig7", artifact: "Fig. 7 wait-w bound", run: bounds::fig7 },
    Experiment { name: "fig9", artifact: "Fig. 9 + the Sec. 6 case table", run: bounds::fig9 },
    Experiment { name: "thm9", artifact: "Theorem 9 resilience sweeps", run: resilience::thm9 },
    Experiment {
        name: "thm10",
        artifact: "Theorem 10 (four-phase generalization)",
        run: resilience::thm10,
    },
    Experiment {
        name: "impossibility",
        artifact: "Sec. 2 impossibility theorems",
        run: resilience::impossibility,
    },
    Experiment {
        name: "assumptions",
        artifact: "Sec. 7 assumption-necessity counterexamples",
        run: resilience::assumptions,
    },
    Experiment {
        name: "blocking",
        artifact: "Sec. 1–2 motivation (locks + blocking)",
        run: resilience::blocking,
    },
    Experiment {
        name: "quorum",
        artifact: "reference [5] quorum-commit comparison",
        run: resilience::quorum,
    },
    Experiment {
        name: "multi_partition",
        artifact: "partition-schedule families beyond the paper's model → BENCH_schedule.json",
        run: beyond::multi_partition,
    },
    Experiment {
        name: "shard_availability",
        artifact: "per-shard availability of the sharded store per schedule family",
        run: beyond::shard_availability,
    },
    Experiment {
        name: "campaign",
        artifact: "chaos campaigns + 2PC's shrunk counterexample → BENCH_campaign.json",
        run: store::campaign,
    },
    Experiment {
        name: "read_paths",
        artifact: "local read paths against the commit round → BENCH_read.json",
        run: store::read_paths,
    },
];

/// The registry entry called `name`.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

/// Panics, naming both, unless `experiment`'s claim `claim` exists and
/// holds. Each experiment runs at most once per process, however many
/// claims of it are asserted.
pub fn assert_claim(experiment: &str, claim: &str) {
    static RUNS: [OnceLock<Output>; EXPERIMENTS.len()] =
        [const { OnceLock::new() }; EXPERIMENTS.len()];
    let i = EXPERIMENTS.iter().position(|e| e.name == experiment);
    let i = i.unwrap_or_else(|| panic!("no experiment `{experiment}`"));
    let out = RUNS[i].get_or_init(EXPERIMENTS[i].run);
    let c = out.claims.iter().find(|c| c.name == claim);
    let c = c.unwrap_or_else(|| panic!("{experiment} states no claim `{claim}`"));
    assert!(c.holds, "{experiment}/{claim} fails: {}", c.detail);
}

/// One `#[test]` per `name => "experiment" / "claim"` line, each an
/// [`assert_claim`]: a named test that states no claim of its own.
///
/// A shim that keeps the names of tests whose bodies became claims; the
/// lines of one test file share one run of each experiment, which
/// `tests/paper.rs` already checks. New claims go into an experiment, not
/// here, and the shim and its four test files can go once those names may
/// be retired.
#[macro_export]
macro_rules! claim_tests {
    ($($test:ident => $experiment:literal / $claim:literal,)*) => {$(
        #[test]
        fn $test() {
            $crate::paper::assert_claim($experiment, $claim);
        }
    )*};
}
