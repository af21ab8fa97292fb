//! Measurement plumbing shared by every workload: order statistics,
//! process CPU and memory readings, seed derivation, the pass clock that
//! times the sim workloads against a calibration kernel, and the micro-loop
//! sampler the layer ladder uses.

use ptp_obs::LogHistogram;
use ptp_simnet::rng::SmallRng;
use std::time::Instant;

/// Median of `values` (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    ptp_bench::median_of(&mut values.to_vec())
}

/// Folds `word` into an order-sensitive FNV-style digest (start it at
/// [`FNV_OFFSET`]) — how passes are checked to repeat bit for bit.
pub fn fnv(digest: &mut u64, word: u64) {
    *digest = (*digest ^ word).wrapping_mul(0x0000_0100_0000_01b3);
}

/// The digest's starting value.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// First and third quartile by the exclusive method — the same numbers
/// Python's `statistics.quantiles(values, n=4)` returns, which is how the
/// benchmark's own spread is judged.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let frac = pos as f64 / 4.0 - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    (at(1), at(3))
}

/// Exact quantile of integer samples (nearest-rank).
pub fn exact_quantile(samples: &mut [u64], q: f64) -> u64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    samples.sort_unstable();
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

/// The value at quantile `q` of a log-bucketed histogram, interpolated
/// linearly inside the bucket the rank falls in.
///
/// `LogHistogram::quantile` reports a bucket's upper edge, so two runs a
/// hair apart can read one whole bucket (≈ 6 %) apart. The histogram only
/// exposes `quantile` and `count`, which is enough: bisecting on the rank
/// finds the first and last rank that map to the same edge, i.e. the
/// bucket's population, and the previous occupied bucket's edge stands in
/// for its lower edge.
pub fn interpolated_quantile(hist: &LogHistogram, q: f64) -> f64 {
    let count = hist.count();
    if count == 0 {
        return 0.0;
    }
    // `quantile` takes ceil(q * count); half a rank below an integer keeps
    // floating-point rounding from tipping it into the next rank.
    let at_rank = |rank: u64| hist.quantile((rank as f64 - 0.5) / count as f64);
    let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
    let upper = at_rank(rank);
    let (mut lo, mut hi) = (1u64, rank); // first rank reading `upper`
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if at_rank(mid) >= upper {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let first = lo;
    let (mut lo, mut hi) = (rank, count); // last rank reading `upper`
    while lo < hi {
        let mid = lo + (hi - lo).div_ceil(2);
        if at_rank(mid) <= upper {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    let last = lo;
    let lower = if first > 1 { at_rank(first - 1) } else { 0 };
    let share = (rank - first + 1) as f64 / (last - first + 1) as f64;
    lower as f64 + share * (upper - lower) as f64
}

/// User + system CPU seconds this process has consumed, all threads
/// included, from `/proc/self/stat` (clock ticks of 1/100 s, the Linux
/// `USER_HZ` constant).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name (field 2) may contain spaces; fields resume after
    // its closing parenthesis, where utime and stime are the 12th and 13th.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let mut tick = || fields.next().and_then(|f| f.parse::<f64>().ok()).expect("cpu tick field");
    (tick() + tick()) / 100.0
}

/// The calibration kernel: a fixed, deterministic piece of work shaped like
/// the simulator's inner loop — a binary heap of timers, an ordered map, a
/// small allocation per step, data-dependent branches — that touches only
/// its own few kilobytes. It belongs to the benchmark, so it is the same on
/// every commit; how long it takes says how fast the machine is right now.
pub fn kernel() -> u64 {
    use std::cmp::Reverse;
    use std::collections::{BTreeMap, BinaryHeap};
    let mut heap: BinaryHeap<Reverse<u64>> = (0..64u64).map(|i| Reverse(i * 7919 % 1000)).collect();
    let mut map: BTreeMap<u64, u64> = BTreeMap::new();
    let (mut x, mut acc) = (0x9e37_79b9_7f4a_7c15_u64, 0u64);
    for _ in 0..1500 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let Reverse(due) = heap.pop().expect("the heap never empties");
        heap.push(Reverse(due + 1 + (x & 1023)));
        let key = x >> 58;
        let slot = map.entry(key).or_insert(0);
        *slot = slot.wrapping_add(due);
        match x & 3 {
            0 => acc = acc.wrapping_add(*slot),
            1 => drop(map.remove(&(key ^ 1))),
            _ => {}
        }
        acc ^= std::hint::black_box(vec![due, x, acc])[1];
    }
    acc
}

/// What one run of [`kernel`] takes on this class of host (2.1 GHz Xeon
/// vCPU) while nothing else competes for the core: the "reference second"
/// below is the second of a machine on which it takes exactly this long.
pub const KERNEL_REFERENCE_SECS: f64 = 108e-6;

/// Times the passes of a closed-loop sim workload against the machine's
/// speed at that moment.
///
/// Every pass does exactly the same work, yet on a host shared with other
/// tenants its wall time moves in steps — passes of `sim_sweep` read 0.54 s
/// for some seconds, then 0.61 s, then 0.70 s, with CPU time equal to wall
/// time throughout, and whole 25 s runs differ by 7 % — because the core
/// itself gets slower and faster. No statistic over a run's passes removes
/// that. So each timed cell of a pass (one sweep of one grid, one cluster
/// run) is followed by a few runs of the calibration [`kernel`], and a pass
/// is charged its time *relative to the kernel's*: pass seconds ÷ kernel
/// seconds of the same pass × what those kernel runs take on the reference
/// machine. Over six runs whose wall-clock medians ranged over 6.7 % that
/// ratio's median ranged over 0.9 %.
pub struct PassClock {
    kernels_per_cell: usize,
    passes: Vec<PassTime>,
}

/// Seconds one pass spent in its cells and in the kernel runs between them.
#[derive(Default)]
struct PassTime {
    cells: f64,
    kernel: f64,
    kernels: usize,
}

impl PassClock {
    pub fn new(kernels_per_cell: usize) -> PassClock {
        PassClock { kernels_per_cell, passes: Vec::new() }
    }

    /// Opens the next pass; [`time`](PassClock::time) adds to it.
    pub fn start_pass(&mut self) {
        self.passes.push(PassTime::default());
    }

    /// Runs `work` as one timed cell of the open pass, then the kernel.
    pub fn time<R>(&mut self, work: impl FnOnce() -> R) -> R {
        let pass = self.passes.last_mut().expect("start_pass comes first");
        let started = Instant::now();
        let out = work();
        pass.cells += started.elapsed().as_secs_f64();
        let started = Instant::now();
        for _ in 0..self.kernels_per_cell {
            std::hint::black_box(kernel());
        }
        pass.kernel += started.elapsed().as_secs_f64();
        pass.kernels += self.kernels_per_cell;
        out
    }

    /// Passes opened so far.
    pub fn passes(&self) -> usize {
        self.passes.len()
    }

    /// Seconds of one pass on the reference machine: the median over passes
    /// of cell time ÷ kernel time × the reference time of those kernel runs.
    pub fn reference_secs(&self) -> f64 {
        let scaled: Vec<f64> = self
            .passes
            .iter()
            .map(|p| p.cells / p.kernel * p.kernels as f64 * KERNEL_REFERENCE_SECS)
            .collect();
        median(&scaled)
    }

    /// Median seconds of a pass as the wall clock read them.
    pub fn wall_secs(&self) -> f64 {
        median(&self.passes.iter().map(|p| p.cells).collect::<Vec<_>>())
    }

    /// The pass count, the reference time, and what the wall clock read for
    /// the passes and for the kernel, for the run's notes.
    pub fn describe(&self) -> String {
        let walls: Vec<f64> = self.passes.iter().map(|p| p.cells).collect();
        let (q1, q3) = quartiles(&walls);
        let kernel: Vec<f64> =
            self.passes.iter().map(|p| p.kernel / p.kernels as f64 * 1e6).collect();
        format!(
            "{} timed passes: {:.4} reference s per pass (median of pass time / kernel time); on \
             the wall clock median {:.4} s, quartiles {q1:.4} / {q3:.4} s, while the kernel took \
             {:.1} to {:.1} us a run (reference {:.1} us)",
            self.passes.len(),
            self.reference_secs(),
            self.wall_secs(),
            kernel.iter().copied().fold(f64::INFINITY, f64::min),
            kernel.iter().copied().fold(0.0, f64::max),
            KERNEL_REFERENCE_SECS * 1e6,
        )
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse::<f64>().ok())
        .expect("VmHWM line");
    kb / 1024.0
}

/// A generator for one named input stream of a workload: streams drawn
/// from the same `--seed` under different labels are independent.
pub fn rng_for(seed: u64, stream: u64) -> SmallRng {
    let mut mix = SmallRng::seed_from_u64(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
    SmallRng::seed_from_u64(mix.next_u64())
}

/// Uniform index below `n`.
pub fn pick(rng: &mut SmallRng, n: usize) -> usize {
    rng.gen_range(0..=(n as u64 - 1)) as usize
}

/// Shortest time one micro-loop sample may take.
pub const MIN_SAMPLE_SECS: f64 = 0.2;
/// Samples per micro-loop; the median is reported.
pub const SAMPLES: usize = 11;

/// Times `batch` (which performs `ops_per_batch` operations and returns a
/// value to keep alive) and reports the median nanoseconds per operation.
///
/// One sample repeats the batch until [`MIN_SAMPLE_SECS`] have passed —
/// the repeat count is calibrated once, up front, and then held fixed so
/// every sample does the same work — and [`SAMPLES`] samples are taken.
pub fn ns_per_op<T>(ops_per_batch: u64, mut batch: impl FnMut() -> T) -> f64 {
    let mut repeats = 1u64;
    loop {
        let started = Instant::now();
        for _ in 0..repeats {
            std::hint::black_box(batch());
        }
        let took = started.elapsed().as_secs_f64();
        if took >= MIN_SAMPLE_SECS {
            break;
        }
        // Aim a fifth past the floor so jitter cannot drop a sample below it.
        let scale = (MIN_SAMPLE_SECS * 1.2 / took.max(1e-6)).ceil();
        repeats = (repeats as f64 * scale.min(1e6)) as u64;
    }
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..repeats {
                std::hint::black_box(batch());
            }
            started.elapsed().as_secs_f64() * 1e9 / (repeats * ops_per_batch) as f64
        })
        .collect();
    median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12, "{q1} {q3}");
        assert_eq!(median(&v), 5.5);
    }

    #[test]
    fn interpolation_stays_inside_the_bucket_and_moves_with_the_rank() {
        let mut h = LogHistogram::new();
        for v in 1000..2000u64 {
            h.record(v);
        }
        let coarse = h.quantile(0.5) as f64;
        let fine = interpolated_quantile(&h, 0.5);
        assert!(fine <= coarse && fine > coarse * 0.93, "{fine} vs {coarse}");
        assert!((fine - 1500.0).abs() < 15.0, "{fine}");
        assert!(interpolated_quantile(&h, 0.51) > fine);
    }

    #[test]
    fn pass_clock_charges_cells_relative_to_the_kernel() {
        assert_eq!(kernel(), kernel());
        // Cells that are kernel runs themselves cost what the kernel costs on
        // the reference machine, however fast this machine is.
        let mut clock = PassClock::new(20);
        for _ in 0..5 {
            clock.start_pass();
            for _ in 0..3 {
                clock.time(|| (0..20).map(|_| kernel()).fold(0, u64::wrapping_add));
            }
        }
        let expected = 60.0 * KERNEL_REFERENCE_SECS;
        assert!((clock.reference_secs() / expected - 1.0).abs() < 0.2, "{}", clock.describe());
    }

    #[test]
    fn streams_differ_by_seed_and_by_label() {
        assert_ne!(rng_for(7, 1).next_u64(), rng_for(11, 1).next_u64());
        assert_ne!(rng_for(7, 1).next_u64(), rng_for(7, 2).next_u64());
        assert_eq!(rng_for(7, 1).next_u64(), rng_for(7, 1).next_u64());
    }
}
