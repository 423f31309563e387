//! The benchmark's own arithmetic: percentiles with their sample counts,
//! due-time latency for the paced (open-loop) phase, failure fractions and
//! per-second rates. Everything here is a pure function of recorded
//! timestamps, so the unit tests below pin it down without a server.

/// A percentile together with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// The quantile asked for, in `0.0..=1.0`.
    pub q: f64,
    /// The value at that quantile (nearest rank), in the samples' unit.
    pub value: f64,
    /// How many samples the percentile was taken over.
    pub samples: usize,
    /// How many samples lie strictly beyond the reported rank.
    pub beyond: usize,
}

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank quantile of `sorted` (ascending). `None` when empty.
pub fn quantile(sorted: &[f64], q: f64) -> Option<Quantile> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(Quantile {
        q,
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    })
}

/// The median, 90th and 99th percentiles of `samples`; a tail percentile
/// only when at least [`MIN_BEYOND`] samples lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Median.
    pub p50: Quantile,
    /// 90th percentile, if enough samples lie beyond it.
    pub p90: Option<Quantile>,
    /// 99th percentile, if enough samples lie beyond it.
    pub p99: Option<Quantile>,
}

/// Summarizes `samples` (any order) as a [`Tail`]; `None` when empty.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let p50 = quantile(&sorted, 0.50)?;
    let p90 = quantile(&sorted, 0.90).filter(|p| p.beyond >= MIN_BEYOND);
    let p99 = quantile(&sorted, 0.99).filter(|p| p.beyond >= MIN_BEYOND);
    Some(Tail { p50, p90, p99 })
}

/// The tail of each group (e.g. each second of a phase), then the median
/// over the groups of each percentile: one slow second cannot move the
/// result. The sample count is the total; `beyond` is the smallest over
/// the groups that report the percentile, which is kept only if at least
/// half the groups have ten samples beyond theirs.
pub fn median_tail(groups: &[Vec<f64>]) -> Option<Tail> {
    let tails: Vec<Tail> = groups.iter().filter_map(|g| tail(g)).collect();
    let samples = groups.iter().map(Vec::len).sum();
    let combine = |pick: &dyn Fn(&Tail) -> Option<Quantile>| -> Option<Quantile> {
        let qs: Vec<Quantile> = tails.iter().filter_map(pick).collect();
        (!qs.is_empty() && 2 * qs.len() >= tails.len()).then(|| Quantile {
            q: qs[0].q,
            value: median(&qs.iter().map(|q| q.value).collect::<Vec<_>>()).expect("non-empty"),
            samples,
            beyond: qs.iter().map(|q| q.beyond).min().expect("non-empty"),
        })
    };
    Some(Tail {
        p50: combine(&|t| Some(t.p50))?,
        p90: combine(&|t| t.p90),
        p99: combine(&|t| t.p99),
    })
}

/// Splits `(time_ns, value)` samples into one group per whole second of a
/// `secs`-second phase (a single group for phases under two seconds).
pub fn per_second(samples: &[(u64, f64)], secs: f64) -> Vec<Vec<f64>> {
    let whole = (secs.floor() as usize).max(1);
    let mut groups = vec![Vec::new(); whole];
    for &(t, v) in samples {
        let b = if whole < 2 {
            0
        } else {
            (t / 1_000_000_000) as usize
        };
        if let Some(g) = groups.get_mut(b) {
            g.push(v);
        }
    }
    groups
}

/// Median of `values` (any order); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// `values` holds rows of `width` values each (e.g. one row per sweep);
/// returns each column's median over the rows.
pub fn column_medians(values: &[f64], width: usize) -> Vec<f64> {
    (0..width)
        .map(|c| {
            let column: Vec<f64> = values.iter().skip(c).step_by(width).copied().collect();
            median(&column).unwrap_or(0.0)
        })
        .collect()
}

/// When the `i`-th request of a paced phase is due, in ns after the phase
/// starts, at `rate` requests per second.
pub fn due_ns(i: u64, rate: f64) -> u64 {
    (i as f64 * 1e9 / rate) as u64
}

/// One request's life in a phase, in ns since the phase started.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Record {
    /// When the schedule wanted it sent (closed loop: when it was sent).
    pub due_ns: u64,
    /// When it was sent.
    pub sent_ns: u64,
    /// When its reply arrived; `None` if the phase ended first.
    pub recv_ns: Option<u64>,
    /// The reply carried a non-`Ok` status.
    pub refused: bool,
}

impl Record {
    /// Latency from the due time: in an open loop this charges a stall to
    /// every request scheduled behind it, not only to the stalled one.
    pub fn latency_ns(&self) -> Option<u64> {
        self.recv_ns.map(|r| r.saturating_sub(self.due_ns))
    }

    /// How far behind schedule the generator sent this request.
    pub fn late_ns(&self) -> u64 {
        self.sent_ns.saturating_sub(self.due_ns)
    }

    /// Refused, or unanswered when the phase ended.
    pub fn failed(&self) -> bool {
        self.refused || self.recv_ns.is_none()
    }
}

/// Requests refused or left unanswered.
pub fn count_failed<'a>(records: impl IntoIterator<Item = &'a Record>) -> u64 {
    records.into_iter().filter(|r| r.failed()).count() as u64
}

/// Failed operations over attempted ones (0 when nothing was attempted).
pub fn failed_frac(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        return 0.0;
    }
    failed as f64 / attempted as f64
}

/// Completions in each whole second of a phase of `secs` seconds:
/// `completions` are `(time_ns, work)` pairs, with times since the phase
/// began. A phase under a second gives its one scaled rate.
pub fn per_second_rates(completions: &[(u64, u64)], secs: f64) -> Vec<f64> {
    let whole = secs.floor() as usize;
    if whole == 0 {
        let total: u64 = completions.iter().map(|&(_, w)| w).sum();
        return vec![total as f64 / secs];
    }
    let mut buckets = vec![0u64; whole];
    for &(t, w) in completions {
        if let Some(b) = buckets.get_mut((t / 1_000_000_000) as usize) {
            *b += w;
        }
    }
    buckets.into_iter().map(|c| c as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles_carry_their_counts() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        let p50 = quantile(&sorted, 0.5).unwrap();
        assert_eq!((p50.value, p50.samples, p50.beyond), (50.0, 100, 50));
        let p99 = quantile(&sorted, 0.99).unwrap();
        assert_eq!((p99.value, p99.beyond), (99.0, 1));
        assert_eq!(quantile(&sorted, 1.0).unwrap().value, 100.0);
        assert_eq!(quantile(&sorted, 0.0).unwrap().value, 1.0);
        assert!(quantile(&[], 0.5).is_none());
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 999 samples: rank 990 leaves 9 beyond, too few.
        let few: Vec<f64> = (0..999).map(f64::from).collect();
        let t = tail(&few).unwrap();
        assert!(t.p99.is_none());
        assert_eq!(t.p50.samples, 999);
        // 1000 samples: rank 990 leaves exactly 10 beyond.
        let enough: Vec<f64> = (0..1000).rev().map(f64::from).collect();
        let p99 = tail(&enough).unwrap().p99.unwrap();
        assert_eq!((p99.value, p99.samples, p99.beyond), (989.0, 1000, 10));
    }

    #[test]
    fn median_tail_ignores_one_slow_group() {
        let calm: Vec<f64> = (0..1000).map(f64::from).collect();
        let slow: Vec<f64> = (0..1000).map(|v| f64::from(v) * 100.0).collect();
        let t = median_tail(&[calm.clone(), slow, calm.clone()]).unwrap();
        assert_eq!(t.p50.value, 499.0);
        let p99 = t.p99.unwrap();
        assert_eq!((p99.value, p99.samples, p99.beyond), (989.0, 3000, 10));
        // Too few samples beyond in most groups: no p99 at all.
        let small: Vec<f64> = (0..100).map(f64::from).collect();
        let t = median_tail(&[small.clone(), small, calm]).unwrap();
        assert!(t.p99.is_none());
        assert!(median_tail(&[]).is_none());
    }

    #[test]
    fn per_second_groups_by_whole_second() {
        let samples = [(10, 1.0), (1_500_000_000, 2.0), (2_100_000_000, 3.0)];
        assert_eq!(per_second(&samples, 2.5), vec![vec![1.0], vec![2.0]]);
        assert_eq!(per_second(&samples, 1.5), vec![vec![1.0, 2.0, 3.0]]);
    }

    #[test]
    fn column_medians_drop_one_slow_row() {
        let rows = [1.0, 10.0, 100.0, 2.0, 20.0, 200.0, 90.0, 900.0, 9000.0];
        assert_eq!(column_medians(&rows, 3), vec![2.0, 20.0, 200.0]);
    }

    #[test]
    fn medians_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    /// A paced run at 10k req/s (one due every 100 µs) against a server
    /// that answers in order after 20 µs, except that it stalls for 5 ms
    /// on request 100. The sender blocks behind the stall too (its
    /// writes back up), so the schedule slips.
    fn stalled_run() -> Vec<Record> {
        let (service, stall, stalled) = (20_000u64, 5_000_000u64, 100usize);
        let mut records = Vec::new();
        let mut server_free = 0u64;
        let mut stall_end = 0u64;
        for i in 0..1000u64 {
            let due = due_ns(i, 10_000.0);
            let sent = due.max(stall_end);
            let start = sent.max(server_free);
            let mut done = start + service;
            if i as usize == stalled {
                done += stall;
                stall_end = done;
            }
            server_free = done;
            records.push(Record {
                due_ns: due,
                sent_ns: sent,
                recv_ns: Some(done),
                refused: false,
            });
        }
        records
    }

    #[test]
    fn due_time_latency_charges_a_stall_to_every_later_request() {
        let records = stalled_run();
        assert_eq!(due_ns(3, 10_000.0), 300_000);
        // Before the stall: just the service time.
        assert_eq!(records[99].latency_ns(), Some(20_000));
        // The stalled request and the ~50 due during the stall all wait.
        assert_eq!(records[100].latency_ns(), Some(5_020_000));
        for r in &records[101..140] {
            assert!(r.latency_ns().unwrap() > 1_000_000, "{r:?}");
        }
        // Timed from the send instead, the later requests would look fast:
        // the stall would vanish from every latency but one.
        let from_send = records[120].recv_ns.unwrap() - records[120].sent_ns;
        assert!(from_send < 2 * 20_000 * 50);
        // The generator's lateness shows the slip.
        let late: Vec<f64> = records.iter().map(|r| r.late_ns() as f64).collect();
        let max_late = late.iter().cloned().fold(0.0, f64::max);
        assert!(max_late > 4_900_000.0, "max late {max_late}");
        let t = tail(&late).unwrap();
        assert!(t.p99.unwrap().value > 3_000_000.0);
        assert_eq!(t.p50.value, 0.0);
    }

    #[test]
    fn failed_frac_counts_refused_and_unanswered() {
        let mut records: Vec<Record> = (0..100)
            .map(|i| Record {
                due_ns: i,
                sent_ns: i,
                recv_ns: Some(i + 10),
                refused: false,
            })
            .collect();
        assert_eq!(count_failed(&records), 0);
        for r in &mut records[..3] {
            r.refused = true;
        }
        // Two requests were still in flight when the phase ended.
        for r in &mut records[98..] {
            r.recv_ns = None;
        }
        let failed = count_failed(&records);
        assert_eq!(failed, 5);
        assert!((failed_frac(failed, records.len() as u64) - 0.05).abs() < 1e-12);
        assert!(records[99].latency_ns().is_none());
        assert_eq!(failed_frac(0, 0), 0.0);
    }

    #[test]
    fn per_second_rates_and_their_median_ignore_a_slow_second() {
        // 3.5 s: 100, 10 (a hiccup), 100 and 50 completions of weight 2;
        // the last half second is not a whole second.
        let mut done = Vec::new();
        for (sec, n) in [(0u64, 100u64), (1, 10), (2, 100), (3, 50)] {
            for j in 0..n {
                done.push((sec * 1_000_000_000 + j, 2));
            }
        }
        let rates = per_second_rates(&done, 3.5);
        assert_eq!(rates, vec![200.0, 20.0, 200.0]);
        assert_eq!(median(&rates), Some(200.0));
        let short: Vec<(u64, u64)> = done
            .iter()
            .copied()
            .filter(|&(t, _)| t < 500_000_000)
            .collect();
        assert_eq!(per_second_rates(&short, 0.5), vec![400.0]);
    }
}
