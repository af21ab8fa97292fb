//! # ptp-livenet — the protocols on real threads and real clocks
//!
//! The protocol implementations in `ptp-protocols` are sans-IO state
//! machines; the discrete-event simulator is only one possible harness.
//! This crate is the other: every site runs on its **own OS thread**,
//! messages travel through **mpsc channels** via a router thread that
//! imposes wall-clock delays bounded by a configurable `T`, and the paper's
//! optimistic partition semantics (undeliverable messages bounce back to
//! their senders) are enforced against the actual system clock. The faults
//! of a run are the simulator's own [`ptp_simnet::FaultPlan`], read in
//! nanoseconds since the run started ([`host_time`]): [`run_live_plan`]
//! takes one whole (partition episodes, crashes, degraded-delay windows,
//! envelope faults — e.g. a `ptp_core` timeline's
//! `faults().scaled(T_ns, t_unit)`), and [`LivePartition`] builds the
//! partition part from `Duration`s for the two families a live run names by
//! hand (a simple split, split→heal→re-split); any other schedule is stated
//! as a [`FaultPlan`]. The router routes a send by the simulator's rules: it
//! matches envelope faults with [`FaultPlan::match_send`] and decides
//! delivery or bounce once, at send time, with
//! [`ptp_simnet::PartitionEngine::bounce_instant`] — so a message sent into
//! an open partition comes back even if the partition heals before it would
//! have landed, one cut mid-flight bounces at the cut, and a message is lost
//! only if its receiver is down when it lands. The delivery core
//! ([`Router`]) is generic over the payload, so `ptp-live`'s long-running
//! shard server reuses it unchanged.
//!
//! Nothing in the protocol code changes between the two runtimes — which is
//! itself a useful validation: the termination protocol's guarantees follow
//! from its message/timer discipline, not from simulator conveniences.
//! Executions here are *not* deterministic (thread scheduling and timer
//! jitter are real), so the tests assert outcomes — atomicity,
//! nonblocking — rather than exact timings.
//!
//! ```
//! use ptp_livenet::{LiveConfig, LivePartition, run_live};
//! use ptp_protocols::clusters::huang_li_3pc_cluster;
//! use ptp_protocols::termination::TerminationVariant;
//! use ptp_protocols::api::Vote;
//! use ptp_simnet::SiteId;
//! use std::time::Duration;
//!
//! let parts = huang_li_3pc_cluster(3, &[Vote::Yes; 2], TerminationVariant::Transient);
//! let outcome = run_live(
//!     parts,
//!     LiveConfig::with_t(Duration::from_millis(10)),
//!     Some(LivePartition::simple(Duration::from_millis(25), vec![SiteId(2)], None)),
//! );
//! assert!(outcome.consistent(), "{outcome:?}");
//! assert!(outcome.all_decided());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod router;
mod site;
mod timers;

pub use router::{host_time, Inbound, LiveConfig, LivePartition, Outbound, Router, Tagged};
pub use timers::Timers;

use ptp_model::Decision;
use ptp_protocols::api::{CommitMsg, Participant};
use ptp_simnet::{FaultPlan, Payload, SiteId};
use std::sync::mpsc;
use std::time::{Duration, Instant};

impl Tagged for CommitMsg {
    fn tag(&self) -> &'static str {
        self.kind()
    }
}

/// What a live run produced.
#[derive(Debug, Clone)]
pub struct LiveOutcome {
    /// Final decision per site (`None` = undecided when the run ended).
    pub decisions: Vec<Option<Decision>>,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
}

impl LiveOutcome {
    /// No two sites decided differently.
    pub fn consistent(&self) -> bool {
        let mut kinds = self.decisions.iter().flatten();
        match kinds.next() {
            None => true,
            Some(first) => kinds.all(|d| d == first),
        }
    }

    /// Every site decided.
    pub fn all_decided(&self) -> bool {
        self.decisions.iter().all(Option::is_some)
    }

    /// Every site except the listed ones decided.
    pub fn all_decided_except(&self, exempt: &[SiteId]) -> bool {
        self.decisions
            .iter()
            .enumerate()
            .all(|(i, d)| d.is_some() || exempt.contains(&SiteId(i as u16)))
    }
}

/// Runs the participants (site `i` = `participants[i]`, site 0 the master)
/// on threads until everyone decides or `config.run_timeout` elapses.
///
/// Generic over the participant type: boxed `Vec<Box<dyn Participant>>`
/// clusters and enum-dispatched `Vec<ptp_protocols::AnyParticipant>` ones
/// (from [`ptp_protocols::ProtocolKind::cluster`]) both work.
pub fn run_live<P: Participant + 'static>(
    participants: Vec<P>,
    config: LiveConfig,
    partition: Option<LivePartition>,
) -> LiveOutcome {
    let n = participants.len();
    let partition = partition.map(|p| p.complete(n)).unwrap_or_default();
    run_live_plan(participants, config, partition.into())
}

/// [`run_live`] under a whole [`FaultPlan`] in [`host_time`]: partition
/// episodes, site crashes, degraded-delay windows and envelope-level faults
/// — what `ptp_core`'s scenario timeline lowers to. A crashed site stops
/// processing messages and timers; if it recovers it resumes with its
/// protocol state intact (the livenet harness models the network-level
/// message loss, not WAL recovery, which lives in `ptp-live`).
pub fn run_live_plan<P: Participant + 'static>(
    participants: Vec<P>,
    config: LiveConfig,
    faults: FaultPlan,
) -> LiveOutcome {
    let n = participants.len();
    assert!(n >= 2);
    let started = Instant::now();

    // Per-site inboxes and the router's shared inbox.
    let (router_tx, router_rx) = mpsc::channel();
    let mut site_txs = Vec::with_capacity(n);
    let mut site_rxs = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = mpsc::channel();
        site_txs.push(tx);
        site_rxs.push(rx);
    }
    let (done_tx, done_rx) = mpsc::channel();

    let router: Router<CommitMsg> = Router::with_plan(config, faults, site_txs.clone(), started);
    let router_handle = std::thread::spawn(move || router.run(router_rx));

    let mut handles = Vec::with_capacity(n);
    for (i, (participant, rx)) in participants.into_iter().zip(site_rxs).enumerate() {
        let runner = site::SiteRunner::new(
            SiteId(i as u16),
            n,
            participant,
            rx,
            router_tx.clone(),
            done_tx.clone(),
            config,
        );
        handles.push(std::thread::spawn(move || runner.run()));
    }
    drop(router_tx);
    drop(done_tx);

    // Collect decisions until all sites reported or the deadline passes.
    let mut decisions: Vec<Option<Decision>> = vec![None; n];
    let deadline = started + config.run_timeout;
    let mut reported = 0usize;
    while reported < n {
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        match done_rx.recv_timeout(deadline - now) {
            Ok((site, decision)) => {
                let slot: &mut Option<Decision> = &mut decisions[SiteId::index(site)];
                if slot.is_none() {
                    *slot = Some(decision);
                    reported += 1;
                }
            }
            Err(_) => break,
        }
    }

    // Shut everything down: tell every site to exit; their router senders
    // drop, the router's inbox disconnects, and the router drains out.
    for tx in &site_txs {
        let _ = tx.send(Inbound::Shutdown);
    }
    for h in handles {
        let _ = h.join().map_err(|_| ()); // a panicked site is reported as undecided
    }
    drop(site_txs);
    let _ = router_handle.join();

    LiveOutcome { decisions, elapsed: started.elapsed() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptp_protocols::api::Vote;
    use ptp_protocols::{AnyParticipant, ProtocolKind};
    use ptp_simnet::FailureSpec;

    fn cfg() -> LiveConfig {
        LiveConfig::with_t(Duration::from_millis(8))
    }

    // Enum-dispatched cluster: the live threads run without a single box.
    fn hl_cluster(n: usize) -> Vec<AnyParticipant> {
        ProtocolKind::HuangLi3pc.cluster(n, &vec![Vote::Yes; n - 1])
    }

    #[test]
    fn failure_free_commit_on_threads() {
        let outcome = run_live(hl_cluster(4), cfg(), None);
        assert!(outcome.all_decided(), "{outcome:?}");
        assert!(outcome.consistent());
        assert_eq!(outcome.decisions[0], Some(Decision::Commit));
    }

    #[test]
    fn partition_mid_commit_is_survived_on_threads() {
        let outcome = run_live(
            hl_cluster(3),
            cfg(),
            Some(LivePartition::simple(Duration::from_millis(20), vec![SiteId(2)], None)),
        );
        assert!(outcome.all_decided(), "{outcome:?}");
        assert!(outcome.consistent(), "{outcome:?}");
    }

    #[test]
    fn transient_partition_is_survived_on_threads() {
        let outcome = run_live(
            hl_cluster(3),
            cfg(),
            Some(LivePartition::simple(
                Duration::from_millis(16),
                vec![SiteId(1), SiteId(2)],
                Some(Duration::from_millis(40)),
            )),
        );
        assert!(outcome.all_decided(), "{outcome:?}");
        assert!(outcome.consistent(), "{outcome:?}");
    }

    #[test]
    fn crashed_slave_does_not_block_the_rest() {
        let crash = FailureSpec::crash(SiteId(3), host_time(Duration::from_millis(10)));
        let faults = FaultPlan { failures: vec![crash], ..FaultPlan::default() };
        let outcome = run_live_plan(hl_cluster(4), cfg(), faults);
        assert!(outcome.consistent(), "{outcome:?}");
        assert!(outcome.all_decided_except(&[SiteId(3)]), "{outcome:?}");
    }
}
