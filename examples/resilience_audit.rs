//! Resilience audit: sweep every protocol in the suite over the same grid
//! of partition scenarios and print the scorecard — the executable summary
//! of the paper's Secs. 3–5.
//!
//! ```sh
//! cargo run --release --example resilience_audit
//! ```

use ptp_core::report::Table;
use ptp_core::{sweep_with_session, ProtocolKind, Session, SweepGrid};
use ptp_simnet::DelayModel;

fn main() {
    let n = 3;
    let mut grid = SweepGrid::standard(n);
    grid.partition_times = (0..=32).map(|i| i * 250).collect();
    grid.delays = vec![
        DelayModel::Fixed(1000),
        DelayModel::Fixed(500),
        DelayModel::Uniform { seed: 42, min: 1, max: 1000 },
    ];

    println!(
        "Sweeping {} scenarios per protocol ({} boundaries x {} instants x {} delay models), n = {n}\n",
        grid.size(),
        grid.boundaries.len(),
        grid.partition_times.len(),
        grid.delays.len(),
    );

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
    for kind in ProtocolKind::ALL {
        let mut session = Session::new(kind, n);
        let report = sweep_with_session(&mut session, &grid);
        simulated += session.executed();
        table.row(vec![
            kind.name().to_string(),
            report.total.to_string(),
            report.all_commit.to_string(),
            report.all_abort.to_string(),
            report.blocked_count.to_string(),
            report.inconsistent_count.to_string(),
            if report.fully_resilient() { "YES".into() } else { "no".to_string() },
        ]);
    }

    println!("{}", table.render());
    println!(
        "(simulated {simulated} of {} cells; a partition that starts after a run's last message\n \
         has landed cannot touch it, so those cells share the partition-free verdict)\n",
        ProtocolKind::ALL.len() * grid.size()
    );
    println!(
        "This table asserts nothing. The paper's claims are checked by `exp thm9`, `exp thm10`,\n\
         `exp quorum`, `exp fig2` and `exp fig3` (cargo run --release --bin exp -- <name>)."
    );
}
