//! Small shared pieces: the seeded generator, latency percentiles, the
//! timed-loop clock, peak memory, and the metric sink.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// SplitMix64: a tiny seeded generator, so a stream is a pure function of
/// `--seed` and this file.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// Nearest-rank percentile of `samples` (milliseconds), plus the number of
/// samples strictly beyond its rank.
pub fn percentile(samples: &[f64], p: f64) -> (f64, usize) {
    if samples.is_empty() {
        return (0.0, 0);
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    (sorted[rank - 1], sorted.len() - rank)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5).0
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs `f` `n` times and returns the median wall in seconds together with
/// the last result: set-up is measured several times per run so its
/// figure is a median, not one noisy sample.
pub fn median_setup<T>(n: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut walls = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n {
        let t0 = Instant::now();
        let v = f();
        walls.push(t0.elapsed().as_secs_f64());
        last = Some(v);
    }
    (median(&walls), last.expect("n > 0"))
}

/// Peak resident set (VmHWM) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Latencies of one timed loop with each op's cost class. The loop's
/// wall is the sum of the timed public calls; generation and oracle checks
/// run outside them. Samples are stored compactly (5 bytes an op), so the
/// benchmark's own memory barely grows with the number of ops.
///
/// The end-to-end figures are medians over *slices*: consecutive runs of
/// `slice_ops` ops, a whole number of stream periods, so every slice holds
/// the exact class mix. A burst of machine noise then moves the slices it
/// covers, not the median of all of them.
#[derive(Default)]
pub struct Timed {
    lat_ms: Vec<f32>,
    class_of: Vec<u8>,
    classes: Vec<&'static str>,
    wall: Duration,
    slice_ops: usize,
    /// Peak memory is read once this many ops are done (or at the end of
    /// the run if it stops short), so it measures a fixed amount of work
    /// and does not grow with the speed of the program.
    rss_after: usize,
    rss_mb: Option<f64>,
}

/// Fewer complete slices than this, and the figures pool every sample.
const MIN_SLICES: usize = 3;

impl Timed {
    pub fn new(slice_ops: usize, rss_after: usize) -> Timed {
        Timed {
            slice_ops,
            rss_after,
            ..Timed::default()
        }
    }

    pub fn record(&mut self, class: &'static str, lat: Duration) {
        let c = match self.classes.iter().position(|&k| k == class) {
            Some(c) => c,
            None => {
                self.classes.push(class);
                self.classes.len() - 1
            }
        };
        self.wall += lat;
        self.lat_ms.push(ms(lat) as f32);
        self.class_of.push(c as u8);
        if self.lat_ms.len() == self.rss_after {
            self.rss_mb = Some(peak_rss_mb());
        }
    }

    pub fn ops(&self) -> usize {
        self.lat_ms.len()
    }

    /// Ops over the whole timed wall.
    pub fn ops_per_s(&self) -> f64 {
        self.ops() as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    pub fn all_ms(&self) -> Vec<f64> {
        self.lat_ms.iter().map(|&v| f64::from(v)).collect()
    }

    /// Latencies of the ops in any of `classes`.
    pub fn class_ms(&self, classes: &[&str]) -> Vec<f64> {
        self.lat_ms
            .iter()
            .zip(&self.class_of)
            .filter(|(_, &c)| classes.contains(&self.classes[c as usize]))
            .map(|(&v, _)| f64::from(v))
            .collect()
    }

    /// The complete slices' latencies, or one slice of everything when
    /// there are too few.
    fn slices(&self) -> Vec<Vec<f64>> {
        let all = self.all_ms();
        let n = all.len().checked_div(self.slice_ops).unwrap_or(0);
        if n < MIN_SLICES {
            return vec![all];
        }
        all.chunks_exact(self.slice_ops)
            .map(<[f64]>::to_vec)
            .collect()
    }

    /// (ops/s, p50, tail, samples beyond the tail per slice), each the
    /// median over slices.
    fn sliced(&self, tail_p: f64) -> (f64, f64, f64, usize) {
        let slices = self.slices();
        let per =
            |f: &dyn Fn(&[f64]) -> f64| median(&slices.iter().map(|s| f(s)).collect::<Vec<_>>());
        let rate = per(&|s| s.len() as f64 / (s.iter().sum::<f64>() / 1e3).max(1e-12));
        let p50 = per(&|s| percentile(s, 0.5).0);
        let tail = per(&|s| percentile(s, tail_p).0);
        let beyond = percentile(&slices[0], tail_p).1;
        (rate, p50, tail, beyond)
    }

    /// Prints the class-share report: each class's share and latency
    /// spread, and where the p50 and the tail percentile fall.
    pub fn report_classes(&self, tail_p: f64) {
        let all = self.all_ms();
        let n = self.ops().max(1) as f64;
        let (p50, _) = percentile(&all, 0.5);
        let (tail, beyond) = percentile(&all, tail_p);
        let pct = (tail_p * 100.0).round();
        println!(
            "classes: ops={} pooled p50={p50:.4}ms p{pct}={tail:.4}ms ({beyond} samples beyond, share beyond {:.4})",
            self.ops(),
            1.0 - tail_p
        );
        let mut classes = self.classes.clone();
        classes.sort_unstable();
        for class in classes {
            let v = self.class_ms(&[class]);
            let (lo, _) = percentile(&v, 0.0);
            let (mid, _) = percentile(&v, 0.5);
            let (hi, _) = percentile(&v, 1.0);
            println!(
                "  class {class:<10} n={:<8} share={:.4} min={lo:.4}ms p50={mid:.4}ms max={hi:.4}ms",
                v.len(),
                v.len() as f64 / n
            );
        }
        let (rate, p50, tail, beyond) = self.sliced(tail_p);
        println!(
            "slices: {} of {} ops; medians ops/s={rate:.1} p50={p50:.4}ms p{pct}={tail:.4}ms ({beyond} samples beyond per slice)",
            self.slices().len(),
            self.slices()[0].len()
        );
    }

    /// The end-to-end metrics every workload reports, plus a check that
    /// the tail percentile has at least ten samples beyond it.
    pub fn end_to_end(&self, setup_s: f64, tail_p: f64, metrics: &mut Metrics, ok: &mut bool) {
        self.report_classes(tail_p);
        let (rate, p50, tail, beyond) = self.sliced(tail_p);
        invariant(
            ok,
            beyond >= 10,
            "at least ten samples beyond the tail percentile",
        );
        metrics.set("setup_s", setup_s);
        metrics.set("ops_per_s", rate);
        metrics.set("p50_ms", p50);
        metrics.set("tail_ms", tail);
        metrics.set("peak_rss_mb", self.rss_mb.unwrap_or_else(peak_rss_mb));
    }
}

/// Metric values keyed by name; the driver emits exactly the declared set.
#[derive(Default)]
pub struct Metrics(pub BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }
}

/// Outcome of one workload run.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Structural checks (class counts, stationarity) that held.
    pub invariants_ok: bool,
    pub metrics: Metrics,
}

/// Records a structural check, printing what broke.
pub fn invariant(ok: &mut bool, cond: bool, what: &str) {
    if !cond {
        println!("INVARIANT BROKEN: {what}");
        *ok = false;
    }
}
