//! The benchmark's own arithmetic: percentiles, the `max_rps` ladder
//! rule, `/stats` histogram deltas, and the per-layer ledger. Kept free
//! of I/O so the unit tests below can pin every rule.

use telemetry::Json;

/// Percentiles the tail rule may pick, highest first.
const TAIL_CANDIDATES: [f64; 4] = [0.999, 0.99, 0.95, 0.90];

/// Samples that must lie beyond a reported percentile.
pub const TAIL_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice: the value at rank
/// `ceil(q·n)` (1-based). `NaN` for an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Samples strictly after the nearest-rank position of `q`.
pub fn beyond(n: usize, q: f64) -> usize {
    let rank = (q * n as f64).ceil().max(1.0) as usize;
    n.saturating_sub(rank)
}

/// The highest of p99.9 / p99 / p95 / p90 that leaves at least
/// [`TAIL_BEYOND`] samples beyond it, or `None` when even p90 does not.
pub fn tail_quantile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .iter()
        .copied()
        .find(|&q| beyond(n, q) >= TAIL_BEYOND)
}

/// Median of unsorted values (nearest rank, as [`percentile`]).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// One stretch of a closed-loop run.
#[derive(Debug, Clone, PartialEq)]
pub struct Window {
    pub p50_ms: f64,
    /// Requests completed per second.
    pub per_s: f64,
}

/// Splits requests, given as `(completion ns, latency ms)` in completion
/// order (failed ones at +∞ latency), into as many equal-count windows
/// as hold `min_per_window` requests each, at most `max_windows`, and
/// summarizes each; the first window starts at `start_ns`. Medians over
/// windows are steadier than one pooled figure when the host slows for
/// a stretch of the run.
pub fn windows(
    done_lat: &[(u64, f64)],
    start_ns: u64,
    max_windows: usize,
    min_per_window: usize,
) -> Vec<Window> {
    let count = (done_lat.len() / min_per_window.max(1)).clamp(1, max_windows.max(1));
    let per = done_lat.len() / count;
    let mut from = start_ns;
    (0..count)
        .filter_map(|w| {
            let end = if w + 1 == count {
                done_lat.len()
            } else {
                (w + 1) * per
            };
            let chunk = &done_lat[w * per..end];
            let last = chunk.last()?.0;
            let mut lat: Vec<f64> = chunk.iter().map(|&(_, l)| l).collect();
            lat.sort_by(f64::total_cmp);
            let span_s = last.saturating_sub(from) as f64 * 1e-9;
            from = last;
            Some(Window {
                p50_ms: percentile(&lat, 0.5),
                per_s: if span_s > 0.0 {
                    chunk.len() as f64 / span_s
                } else {
                    0.0
                },
            })
        })
        .collect()
}

/// Smallest of the values (`NaN` when empty).
pub fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(f64::NAN)
}

/// One open-loop step of the `max_rps` ladder.
#[derive(Debug, Clone)]
pub struct LadderStep {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// p99 latency timed from due time, ms (`INFINITY` if unmeasured).
    pub p99_ms: f64,
    /// Requests that failed or were refused.
    pub failed: u64,
    /// Time from the last due send to the last completion, ms.
    pub drain_ms: f64,
}

impl LadderStep {
    /// A step passes when nothing failed, p99 meets the limit and the
    /// queue left behind drains within the limit (no growing backlog).
    pub fn passes(&self, limit_ms: f64) -> bool {
        self.failed == 0 && self.p99_ms <= limit_ms && !self.backlog_grew(limit_ms)
    }

    /// A backlog that grew during the step still holds requests when
    /// sending stops; draining them takes longer than the limit.
    pub fn backlog_grew(&self, limit_ms: f64) -> bool {
        self.drain_ms > limit_ms
    }
}

/// `max_rps` from ascending ladder steps: the highest passing rate
/// below the first failing one, refined by linear interpolation of p99
/// toward the limit on the segment to that failing rate (a step that
/// failed for errors or backlog counts as p99 = ∞, so nothing is
/// added). `None` when the lowest step already fails.
pub fn max_rps(steps: &[LadderStep], limit_ms: f64) -> Option<f64> {
    let first_fail = steps.iter().position(|s| !s.passes(limit_ms));
    let last_pass = match first_fail {
        Some(0) => return None,
        Some(i) => i - 1,
        None => steps.len().checked_sub(1)?,
    };
    let pass = &steps[last_pass];
    let Some(fail) = first_fail.map(|i| &steps[i]) else {
        return Some(pass.rate);
    };
    let fail_p99 = if fail.failed == 0 && !fail.backlog_grew(limit_ms) {
        fail.p99_ms
    } else {
        f64::INFINITY
    };
    if !fail_p99.is_finite() || fail_p99 <= pass.p99_ms {
        return Some(pass.rate);
    }
    let t = ((limit_ms - pass.p99_ms) / (fail_p99 - pass.p99_ms)).clamp(0.0, 1.0);
    Some(pass.rate + t * (fail.rate - pass.rate))
}

/// A histogram from a `/stats` document: bucket upper bounds (the last
/// bucket is the overflow), counts, and the exact sum.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Hist {
    pub bounds: Vec<f64>,
    pub counts: Vec<u64>,
    pub count: u64,
    pub sum: f64,
    pub max: f64,
}

impl Hist {
    /// Parses the histogram object `/stats` serves (`count`, `mean`,
    /// `max`, `bounds`, `buckets`).
    pub fn from_stats(obj: &Json) -> Result<Hist, String> {
        let num = |k: &str| {
            obj.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("histogram without '{k}'"))
        };
        let arr = |k: &str| -> Result<Vec<f64>, String> {
            obj.get(k)
                .and_then(Json::as_arr)
                .map(|a| a.iter().filter_map(Json::as_f64).collect())
                .ok_or_else(|| format!("histogram without '{k}'"))
        };
        let count = num("count")? as u64;
        let bounds = arr("bounds")?;
        let counts: Vec<u64> = arr("buckets")?.into_iter().map(|c| c as u64).collect();
        if counts.len() < bounds.len() {
            return Err("histogram with fewer buckets than bounds".into());
        }
        Ok(Hist {
            bounds,
            counts,
            count,
            sum: num("mean")? * count as f64,
            max: num("max")?,
        })
    }

    /// Observations recorded between `before` and `self`.
    pub fn since(&self, before: &Hist) -> Hist {
        Hist {
            bounds: self.bounds.clone(),
            counts: self
                .counts
                .iter()
                .zip(before.counts.iter().chain(std::iter::repeat(&0)))
                .map(|(a, b)| a.saturating_sub(*b))
                .collect(),
            count: self.count.saturating_sub(before.count),
            sum: (self.sum - before.sum).max(0.0),
            max: self.max,
        }
    }

    /// Quantile by linear interpolation inside the bucket holding the
    /// nearest-rank observation (the lower edge of the first bucket is
    /// 0; the overflow bucket ends at the histogram's max).
    pub fn quantile(&self, q: f64) -> f64 {
        let total: u64 = self.counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (seen + c) as f64 >= rank {
                let lo = if i == 0 { 0.0 } else { self.bounds[i - 1] };
                let hi = self.bounds.get(i).copied().unwrap_or(self.max.max(lo));
                return lo + (hi - lo) * (rank - seen as f64) / c as f64;
            }
            seen += c;
        }
        self.max
    }

    /// Mean of a histogram whose buckets are exact integer values
    /// (`serve.batch_occupancy`: bound `b` holds observations equal to
    /// `b`).
    pub fn integer_mean(&self) -> f64 {
        let total: u64 = self.counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let weighted: f64 = self
            .counts
            .iter()
            .zip(&self.bounds)
            .map(|(&c, &b)| c as f64 * b)
            .sum();
        weighted / total as f64
    }
}

/// Attributes an end-to-end time to layers by their self times.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// End-to-end time the layers must explain, seconds.
    pub e2e_s: f64,
    /// `(layer, self seconds)` in insertion order.
    pub layers: Vec<(String, f64)>,
}

impl Ledger {
    pub fn new(e2e_s: f64) -> Ledger {
        Ledger {
            e2e_s,
            layers: Vec::new(),
        }
    }

    /// Adds `self_s` to `layer` (creating it on first use).
    pub fn add(&mut self, layer: &str, self_s: f64) {
        match self.layers.iter_mut().find(|(name, _)| name == layer) {
            Some((_, s)) => *s += self_s,
            None => self.layers.push((layer.to_string(), self_s)),
        }
    }

    pub fn self_s(&self, layer: &str) -> f64 {
        self.layers
            .iter()
            .find(|(name, _)| name == layer)
            .map_or(0.0, |(_, s)| *s)
    }

    /// Share of the end-to-end time no layer's self time explains
    /// (negative when the layers claim more than the whole).
    pub fn unattributed_frac(&self) -> f64 {
        if self.e2e_s <= 0.0 {
            return 0.0;
        }
        let attributed: f64 = self.layers.iter().map(|(_, s)| s).sum();
        (self.e2e_s - attributed) / self.e2e_s
    }
}

/// A closed interval of one traced call, in nanoseconds on a shared
/// clock.
pub type Interval = (u64, u64);

/// Total length covered by the union of `intervals` (overlaps counted
/// once) — the wall time during which at least one call was running.
pub fn union_ns(intervals: &mut [Interval]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0u64;
    let mut current: Option<Interval> = None;
    for &(s, e) in intervals.iter() {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = current {
        total += ce - cs;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        // p90 of 99 samples is rank 90: 9 beyond, not enough.
        assert_eq!(tail_quantile(99), None);
        assert_eq!(tail_quantile(100), Some(0.90));
        // p95 of 199 is rank 190: 9 beyond; of 200, rank 190: 10 beyond.
        assert_eq!(tail_quantile(199), Some(0.90));
        assert_eq!(tail_quantile(200), Some(0.95));
        assert_eq!(tail_quantile(999), Some(0.95));
        assert_eq!(tail_quantile(1000), Some(0.99));
        assert_eq!(tail_quantile(9999), Some(0.99));
        assert_eq!(tail_quantile(10_000), Some(0.999));
        for n in [100usize, 1000, 10_000, 12_345] {
            let q = tail_quantile(n).expect("supported");
            assert!(beyond(n, q) >= TAIL_BEYOND, "n={n} q={q}");
        }
    }

    fn step(rate: f64, p99_ms: f64) -> LadderStep {
        LadderStep {
            rate,
            p99_ms,
            failed: 0,
            drain_ms: 0.5,
        }
    }

    #[test]
    fn ladder_interpolates_to_the_first_failing_rate() {
        let steps = [step(100.0, 2.0), step(200.0, 4.0), step(300.0, 14.0)];
        // Limit 9 ms sits halfway between 4 and 14 ms.
        assert_eq!(max_rps(&steps, 9.0), Some(250.0));
        // Every step passes: the top rate, nothing extrapolated.
        assert_eq!(max_rps(&steps, 20.0), Some(300.0));
        // The lowest step fails: no rate meets the limit.
        assert_eq!(max_rps(&steps, 1.0), None);
    }

    #[test]
    fn ladder_stops_at_the_first_failure() {
        // A later step that passes again does not count.
        let steps = [step(100.0, 2.0), step(200.0, 30.0), step(300.0, 3.0)];
        let got = max_rps(&steps, 9.0).expect("first step passes");
        assert!((got - (100.0 + 100.0 * 7.0 / 28.0)).abs() < 1e-9);
    }

    #[test]
    fn ladder_counts_failures_and_backlog_as_misses() {
        let mut failed = step(200.0, 3.0);
        failed.failed = 1;
        assert!(!failed.passes(9.0));
        assert_eq!(max_rps(&[step(100.0, 2.0), failed], 9.0), Some(100.0));

        let mut backlog = step(200.0, 3.0);
        backlog.drain_ms = 50.0;
        assert!(backlog.backlog_grew(9.0));
        assert!(!backlog.passes(9.0));
        assert_eq!(max_rps(&[step(100.0, 2.0), backlog], 9.0), Some(100.0));
    }

    fn stats_hist(counts: &[u64], bounds: &[f64], mean: f64, max: f64) -> Json {
        let doc = format!(
            "{{\"count\":{},\"mean\":{mean},\"max\":{max},\"bounds\":[{}],\"buckets\":[{}]}}",
            counts.iter().sum::<u64>(),
            bounds
                .iter()
                .map(|b| b.to_string())
                .collect::<Vec<_>>()
                .join(","),
            counts
                .iter()
                .map(|c| c.to_string())
                .collect::<Vec<_>>()
                .join(","),
        );
        telemetry::json::parse(&doc).expect("valid JSON")
    }

    #[test]
    fn stats_histogram_delta_parses_and_subtracts() {
        let bounds = [1.0, 2.0, 4.0, 8.0];
        let before =
            Hist::from_stats(&stats_hist(&[1, 2, 0, 0, 0], &bounds, 1.6, 2.0)).expect("parses");
        let after =
            Hist::from_stats(&stats_hist(&[1, 2, 4, 2, 1], &bounds, 4.0, 9.0)).expect("parses");
        let d = after.since(&before);
        assert_eq!(d.counts, vec![0, 0, 4, 2, 1]);
        assert_eq!(d.count, 7);
        // Sums come from mean·count: 40 − 4.8.
        assert!((d.sum - 35.2).abs() < 1e-9);
        // Rank 4 of 7 is the last of the four (2, 4] observations.
        assert!((d.quantile(0.5) - 4.0).abs() < 1e-9);
        // Rank 7 falls in the overflow bucket, which ends at max.
        assert!((d.quantile(1.0) - 9.0).abs() < 1e-9);
        // Interpolation inside a bucket: rank 2 of 4 in (2, 4].
        assert!((d.quantile(2.0 / 7.0) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn stats_histogram_rejects_missing_fields() {
        let doc = telemetry::json::parse("{\"count\":1,\"mean\":1}").expect("valid JSON");
        assert!(Hist::from_stats(&doc).is_err());
    }

    #[test]
    fn occupancy_mean_uses_exact_bucket_values() {
        let bounds = [1.0, 2.0, 3.0];
        let h = Hist::from_stats(&stats_hist(&[2, 1, 1, 0], &bounds, 1.75, 3.0)).expect("parses");
        assert!((h.integer_mean() - 1.75).abs() < 1e-12);
    }

    #[test]
    fn self_times_add_up_to_the_end_to_end_time() {
        // A 100 ns request holds a 50 ns compute call [10, 60), inside
        // which engine calls on two threads overlap: b [20, 30) and the
        // pair c [40, 55), d [50, 58). Self times: engine = covered
        // wall, compute = its span minus that, request = the rest.
        let mut engine = [(20, 30), (40, 55), (50, 58)];
        let engine_ns = union_ns(&mut engine);
        assert_eq!(engine_ns, 10 + 18);
        let compute_self = 50 - engine_ns;
        let request_self = 100 - 50;

        let mut ledger = Ledger::new(100.0);
        ledger.add("engine", engine_ns as f64);
        ledger.add("compute", compute_self as f64);
        assert!((ledger.unattributed_frac() - 0.5).abs() < 1e-12);
        ledger.add("request", request_self as f64);
        assert!(ledger.unattributed_frac().abs() < 1e-12);
    }

    #[test]
    fn ledger_reports_overclaiming_as_negative() {
        let mut ledger = Ledger::new(10.0);
        ledger.add("x", 6.0);
        ledger.add("x", 6.0);
        assert_eq!(ledger.self_s("x"), 12.0);
        assert!((ledger.unattributed_frac() + 0.2).abs() < 1e-12);
    }

    #[test]
    fn windows_split_by_count() {
        // 250 requests, one every 10 ms from t = 0, latency = index ms.
        let reqs: Vec<(u64, f64)> = (0..250u64)
            .map(|i| ((i + 1) * 10_000_000, i as f64))
            .collect();
        let w = windows(&reqs, 0, 4, 100);
        assert_eq!(w.len(), 2, "250 requests hold two windows of >= 100");
        // First window: requests 0..125, p50 rank 63 -> latency 62.
        assert_eq!(w[0].p50_ms, 62.0);
        // 125 requests over 1.25 s.
        assert!((w[0].per_s - 100.0).abs() < 1e-9);
        assert!((w[1].per_s - 100.0).abs() < 1e-9);
        assert_eq!(w[1].p50_ms, 187.0);
        // Too few requests for two windows: one.
        assert_eq!(windows(&reqs[..150], 0, 4, 100).len(), 1);
        assert_eq!(windows(&reqs, 0, 1, 100).len(), 1);
    }

    #[test]
    fn union_counts_overlaps_once() {
        assert_eq!(union_ns(&mut [(18, 30), (0, 12), (10, 20)]), 30);
        assert_eq!(union_ns(&mut [(0, 5), (10, 15)]), 10);
        assert_eq!(union_ns(&mut []), 0);
    }
}
