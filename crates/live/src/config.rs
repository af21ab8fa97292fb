//! Configuration of a live serving run: topology, offered load, batching.

use ptp_ddb::CommitProtocol;
use ptp_livenet::LivePartition;
use ptp_simnet::FaultPlan;
use std::time::Duration;

/// How the driver picks keys.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeySkew {
    /// Every key of the pool is equally likely.
    Uniform,
    /// With probability `hot_fraction`, the op targets the single hottest
    /// key of its shard (key 0 of the pool); otherwise uniform.
    HotKey {
        /// Fraction of operations hitting the hot key, in `[0, 1]`.
        hot_fraction: f64,
    },
}

/// Group-commit and coalescing windows.
#[derive(Debug, Clone, Copy)]
pub struct BatchConfig {
    /// `true` enables group-commit WAL flushing and protocol-message
    /// coalescing; `false` mirrors the simulator's flush points exactly
    /// (force-write per record, one channel send per message).
    pub enabled: bool,
    /// The batch window: at most one WAL flush and one coalesced send per
    /// destination per window.
    pub window: Duration,
}

impl BatchConfig {
    /// Batching off: per-record force writes, per-message sends.
    pub fn off() -> BatchConfig {
        BatchConfig { enabled: false, window: Duration::ZERO }
    }

    /// Batching on with the given window.
    pub fn on(window: Duration) -> BatchConfig {
        assert!(!window.is_zero(), "a batch window must have positive length");
        BatchConfig { enabled: true, window }
    }
}

/// Master-lease configuration for the wall-clock linearizable read fast
/// path: every `period`, each shard master sends a renewal to its group
/// replicas; an ack arms a grant lasting `duration` from the renewal's
/// *send* instant (the conservative anchor: the master never counts time
/// the replica did not promise). While every replica's grant is live and
/// the key is unlocked, the master serves reads from committed storage
/// without any lock or protocol round.
#[derive(Debug, Clone, Copy)]
pub struct LeaseConfig {
    /// Renewal cadence.
    pub period: Duration,
    /// Grant lifetime from each renewal's send instant.
    pub duration: Duration,
}

impl LeaseConfig {
    /// A lease renewed every `period`, valid for `duration` per renewal.
    ///
    /// # Panics
    ///
    /// Panics unless `ZERO < period < duration` — a lease that expires
    /// before its next renewal can never stay continuously valid.
    pub fn new(period: Duration, duration: Duration) -> LeaseConfig {
        assert!(!period.is_zero() && period < duration, "lease needs 0 < period < duration");
        LeaseConfig { period, duration }
    }
}

/// Everything a live serving run needs to know.
#[derive(Debug, Clone)]
pub struct LiveOptions {
    /// Total sites in the cluster.
    pub sites: usize,
    /// Shards (replica groups) over those sites.
    pub shards: usize,
    /// Replicas per shard.
    pub replication: usize,
    /// The commit protocol every group (and the cross-shard top level) runs.
    pub protocol: CommitProtocol,
    /// The network's longest end-to-end delay `T` (each leg samples
    /// uniform `(T/10, T]`, as in `ptp-livenet`).
    pub t: Duration,
    /// Offered load: client operations per second, cluster-wide. The driver
    /// injects on this schedule regardless of completions (open loop).
    pub offered_rate: f64,
    /// How long the driver offers load.
    pub duration: Duration,
    /// Fraction of operations that are reads (served by the key's shard
    /// master from committed storage).
    pub read_fraction: f64,
    /// Fraction of *write* transactions that span two shards (committed
    /// through a top-level protocol instance over the masters).
    pub cross_shard_fraction: f64,
    /// Key selection policy.
    pub skew: KeySkew,
    /// Keys per shard in the workload vocabulary.
    pub keys_per_shard: usize,
    /// Group-commit / coalescing configuration.
    pub batch: BatchConfig,
    /// Simulated stable-storage latency: every WAL flush busy-holds the
    /// site for this long (the cost group commit amortizes). `ZERO` makes
    /// flushes free, as in the simulator.
    pub flush_cost: Duration,
    /// RNG seed for the schedule and delay sampling (thread scheduling
    /// keeps runs nondeterministic regardless).
    pub seed: u64,
    /// Everything injected mid-run, in [`ptp_livenet::host_time`]
    /// (nanoseconds since the run started): partition episodes, site
    /// crashes and recoveries, degraded-delay windows, envelope faults —
    /// e.g. a `ptp_core` timeline's `live_faults(t)`.
    pub faults: FaultPlan,
    /// A partition schedule stated in `Duration`s; if set it replaces
    /// `faults.partition`, completed for this cluster's `sites`.
    pub partition: Option<LivePartition>,
    /// After the load window, how long to wait for in-flight transactions
    /// to decide before declaring the drain unclean.
    pub drain_timeout: Duration,
    /// Master leases for the linearizable read fast path (`None` = every
    /// read takes the shared-lock path).
    pub lease: Option<LeaseConfig>,
    /// Anti-entropy polling cadence: each replica asks its shard master
    /// for a version-stamped delta this often (`None` = stranded replicas
    /// only catch up through later commit shipping).
    pub anti_entropy: Option<Duration>,
    /// What to observe: stage spans, flight-recorder capacity, time-series
    /// bins. Defaults to [`ptp_obs::ObsConfig::off`] — the Null path, with
    /// near-zero overhead on the serving threads.
    pub obs: ptp_obs::ObsConfig,
}

impl LiveOptions {
    /// A small default cluster: 3 shards × 2 replicas over 6 sites,
    /// HL-3PC, uniform keys, 20% reads, 10% cross-shard, batching off.
    pub fn small(offered_rate: f64, duration: Duration) -> LiveOptions {
        LiveOptions {
            sites: 6,
            shards: 3,
            replication: 2,
            protocol: CommitProtocol::HuangLi,
            t: Duration::from_millis(20),
            offered_rate,
            duration,
            read_fraction: 0.2,
            cross_shard_fraction: 0.1,
            skew: KeySkew::Uniform,
            keys_per_shard: 64,
            batch: BatchConfig::off(),
            flush_cost: Duration::from_micros(400),
            seed: 7,
            faults: FaultPlan::default(),
            partition: None,
            drain_timeout: Duration::from_secs(10),
            lease: None,
            anti_entropy: None,
            obs: ptp_obs::ObsConfig::off(),
        }
    }

    /// The run's whole fault plan: `faults`, under `partition` if one is set.
    pub fn fault_plan(&self) -> FaultPlan {
        let mut plan = self.faults.clone();
        if let Some(partition) = &self.partition {
            plan.partition = partition.clone().complete(self.sites);
        }
        plan
    }

    /// Validates the knobs that have hard domains.
    pub fn validate(&self) {
        assert!(self.sites >= 2, "a live cluster needs at least two sites");
        assert!(self.shards >= 1 && self.replication >= 1);
        assert!(self.offered_rate > 0.0, "offered rate must be positive");
        assert!((0.0..=1.0).contains(&self.read_fraction));
        assert!((0.0..=1.0).contains(&self.cross_shard_fraction));
        assert!(self.keys_per_shard >= 1);
        if let KeySkew::HotKey { hot_fraction } = self.skew {
            assert!((0.0..=1.0).contains(&hot_fraction));
        }
        if self.batch.enabled {
            assert!(!self.batch.window.is_zero());
        }
        if let Some(lease) = self.lease {
            assert!(
                !lease.period.is_zero() && lease.period < lease.duration,
                "lease needs 0 < period < duration"
            );
        }
        if let Some(period) = self.anti_entropy {
            assert!(!period.is_zero(), "anti-entropy period must be positive");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_options_validate() {
        LiveOptions::small(100.0, Duration::from_millis(500)).validate();
    }

    #[test]
    fn obs_defaults_to_the_null_path() {
        let o = LiveOptions::small(100.0, Duration::from_millis(500));
        assert_eq!(o.obs, ptp_obs::ObsConfig::off(), "observability must be off unless asked for");
    }

    #[test]
    #[should_panic(expected = "positive length")]
    fn zero_batch_window_rejected() {
        let _ = BatchConfig::on(Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "offered rate")]
    fn zero_rate_rejected() {
        let mut o = LiveOptions::small(100.0, Duration::from_millis(500));
        o.offered_rate = 0.0;
        o.validate();
    }

    #[test]
    #[should_panic(expected = "period < duration")]
    fn lease_expiring_before_renewal_rejected() {
        let _ = LeaseConfig::new(Duration::from_millis(50), Duration::from_millis(50));
    }
}
