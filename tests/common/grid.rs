//! One sweep cell as a standalone scenario, for the suites that check the
//! sweep engine or a protocol against an oracle cell by cell. Include it
//! with `#[path = "common/grid.rs"] mod grid;` (`mod common;` would also
//! install the counting allocator).

use ptp_core::{Scenario, ScenarioSpec, SweepGrid};
use ptp_simnet::PartitionEngine;

/// The scenario of one grid cell, built without any of the sweep engine's
/// recycling.
pub fn scenario_of(grid: &SweepGrid, spec: &ScenarioSpec<'_>) -> Scenario {
    let mut scenario = Scenario::new(grid.n)
        .votes(grid.votes[spec.vote_index].clone())
        .delay(grid.delays[spec.delay_index].clone());
    scenario.mode = grid.mode;
    let mut schedule = PartitionEngine::always_connected();
    spec.shape.write_schedule(grid.n, spec.g2, spec.at, spec.heal, &mut schedule);
    scenario.partition_schedule(schedule)
}
