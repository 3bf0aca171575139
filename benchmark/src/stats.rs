//! The benchmark's own arithmetic: percentiles, open-loop latency, span
//! self time and the external DI* block meter. Every function here is
//! pure, so the unit tests at the bottom pin it without timing anything.

/// Percentiles the tail metric may report, highest first.
const TAIL_LADDER: [f64; 10] = [99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 60.0, 50.0];

/// Samples that must lie beyond a reported percentile.
pub const TAIL_SUPPORT: usize = 10;

/// Nearest-rank percentile (`p` in 0..=100) of an ascending sample: the
/// smallest value with at least `p`% of the sample at or below it.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(p, sorted.len()).clamp(1, sorted.len()) - 1]
}

/// The 1-based nearest rank of percentile `p` in a sample of `n`,
/// rounded so that float error in `p·n/100` never adds a rank.
fn rank(p: f64, n: usize) -> usize {
    (p * n as f64 / 100.0 - 1e-9).ceil().max(0.0) as usize
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`TAIL_SUPPORT`] samples strictly beyond its nearest rank, for a
/// sample of `n`.
pub fn supported_tail(n: usize) -> Option<f64> {
    TAIL_LADDER.into_iter().find(|&p| {
        let r = rank(p, n);
        r >= 1 && n.saturating_sub(r) >= TAIL_SUPPORT
    })
}

/// A timing sample summarised as its median plus the highest supported
/// percentile (the median itself when the sample is too small for any).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub tail_p: f64,
    pub tail: f64,
}

pub fn summarize(samples: &[f64]) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let p50 = nearest_rank(&sorted, 50.0);
    let (tail_p, tail) = match supported_tail(sorted.len()) {
        Some(p) => (p, nearest_rank(&sorted, p)),
        None => (50.0, p50),
    };
    Summary {
        n: sorted.len(),
        p50,
        tail_p,
        tail,
    }
}

/// The tail of a run as the median of its parts' tails: the sample is
/// cut into consecutive parts of `part` samples (an incomplete last part
/// is dropped), each part gives the highest percentile that size
/// supports, and the median across the parts is reported, so one stall
/// on a shared host moves one part, not the figure. The part size, not
/// the run's sample count, fixes the percentile, so a faster run does
/// not switch to a higher one. Returns (percentile, value); a sample too
/// small to cut falls back to [`summarize`].
pub fn chunked_tail(samples: &[f64], part: usize) -> (f64, f64) {
    match supported_tail(part) {
        Some(p) if samples.len() >= part => {
            let tails: Vec<f64> = samples
                .chunks_exact(part)
                .map(|chunk| {
                    let mut sorted = chunk.to_vec();
                    sorted.sort_by(f64::total_cmp);
                    nearest_rank(&sorted, p)
                })
                .collect();
            (p, median(&tails))
        }
        _ => {
            let s = summarize(samples);
            (s.tail_p, s.tail)
        }
    }
}

/// Percentile `p` of a sample when at least [`TAIL_SUPPORT`] samples lie
/// beyond it, else the highest percentile that is supported: a tail
/// whose percentile does not change with the sample count. Returns
/// (percentile, value).
pub fn fixed_tail(samples: &[f64], p: f64) -> (f64, f64) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let r = rank(p, sorted.len());
    if r >= 1 && sorted.len() - r >= TAIL_SUPPORT {
        (p, nearest_rank(&sorted, p))
    } else {
        let s = summarize(samples);
        (s.tail_p, s.tail)
    }
}

pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    nearest_rank(&sorted, 50.0)
}

/// A monotonic clock in seconds, abstracted so the open-loop driver can
/// be tested against a scripted clock.
pub trait Clock {
    fn now(&mut self) -> f64;
    /// Block until `t` (no-op when `t` has passed).
    fn wait_until(&mut self, t: f64);
}

/// Per-operation timing from an open-loop run.
#[derive(Debug, Clone, Default)]
pub struct OpenLoop {
    /// Completion time minus due time, seconds, per operation.
    pub latency: Vec<f64>,
    /// How late the generator issued each operation (start minus due).
    pub late: Vec<f64>,
    /// Time spent inside each operation.
    pub service: Vec<f64>,
}

/// Issue `n` operations on a fixed schedule (`start + i·interval`),
/// never waiting for the system to catch up: an operation that could not
/// start on time starts as soon as the previous one returns, and its
/// latency is charged from when it was *due*, so a stall is charged to
/// every operation queued behind it. `prepare(i)` builds operation `i`'s
/// input before its due time, outside the clock.
pub fn open_loop<C: Clock, T>(
    clock: &mut C,
    n: usize,
    interval: f64,
    mut prepare: impl FnMut(usize) -> T,
    mut op: impl FnMut(usize, T, &mut C),
) -> OpenLoop {
    let start = clock.now();
    let mut out = OpenLoop::default();
    for i in 0..n {
        let due = start + i as f64 * interval;
        let input = prepare(i);
        clock.wait_until(due);
        let issued = clock.now();
        op(i, input, clock);
        let done = clock.now();
        out.latency.push(done - due);
        out.late.push(issued - due);
        out.service.push(done - issued);
    }
    out
}

/// A span as the self-time arithmetic sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanTimes {
    pub start: u64,
    pub end: u64,
    /// Index of the parent span, if any.
    pub parent: Option<usize>,
}

/// Self time of every span: its duration minus the durations of its
/// direct children (which run one after another inside it, or are
/// replays of work it did), clipped at zero.
pub fn self_times(spans: &[SpanTimes]) -> Vec<u64> {
    spans
        .iter()
        .zip(child_totals(spans))
        .map(|(s, c)| (s.end - s.start).saturating_sub(c))
        .collect()
}

/// How many spans had their self time clipped to zero: their direct
/// children (replays included) took longer than they did.
pub fn clipped(spans: &[SpanTimes]) -> usize {
    spans
        .iter()
        .zip(child_totals(spans))
        .filter(|(s, c)| *c > s.end - s.start)
        .count()
}

/// Σ duration of every span's direct children.
fn child_totals(spans: &[SpanTimes]) -> Vec<u64> {
    let mut total = vec![0u64; spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            total[p] += span.end - span.start;
        }
    }
    total
}

/// The external fairness meter: DI* (lowest over highest selection rate
/// across group cells) computed by the benchmark from the decisions the
/// engine returned, over consecutive blocks of served tuples.
#[derive(Debug, Clone)]
pub struct DiBlockMeter {
    block: usize,
    floor: f64,
    /// Per cell: (served, selected) in the open block.
    cells: Vec<(u64, u64)>,
    filled: usize,
    /// DI* of every closed block, in order (`None`: fewer than two
    /// populated cells).
    pub blocks: Vec<Option<f64>>,
}

impl DiBlockMeter {
    pub fn new(groups: usize, block: usize, floor: f64) -> Self {
        DiBlockMeter {
            block,
            floor,
            cells: vec![(0, 0); groups],
            filled: 0,
            blocks: Vec::new(),
        }
    }

    pub fn push(&mut self, group: u8, decision: u8) {
        let cell = &mut self.cells[group as usize];
        cell.0 += 1;
        cell.1 += u64::from(decision);
        self.filled += 1;
        if self.filled == self.block {
            let rates: Vec<f64> = self
                .cells
                .iter()
                .filter(|c| c.0 > 0)
                .map(|&(n, s)| s as f64 / n as f64)
                .collect();
            let di = (rates.len() >= 2).then(|| {
                let lo = rates.iter().copied().fold(f64::INFINITY, f64::min);
                let hi = rates.iter().copied().fold(0.0, f64::max);
                if hi == 0.0 {
                    1.0
                } else {
                    lo / hi
                }
            });
            self.blocks.push(di);
            self.cells.iter_mut().for_each(|c| *c = (0, 0));
            self.filled = 0;
        }
    }

    fn breached(&self, di: Option<f64>) -> bool {
        di.is_some_and(|d| d < self.floor)
    }

    /// Share of metered tuples that fell in a block below the floor.
    pub fn unfair_share(&self) -> f64 {
        if self.blocks.is_empty() {
            return 0.0;
        }
        let bad = self.blocks.iter().filter(|&&d| self.breached(d)).count();
        bad as f64 / self.blocks.len() as f64
    }

    /// Breach → recovery episodes, each as the tuples from the start of
    /// the first block below the floor to the start of the next block at
    /// or above it. A breach still open at the end is not an episode.
    pub fn recoveries(&self) -> Vec<u64> {
        let mut out = Vec::new();
        let mut open: Option<usize> = None;
        for (i, &di) in self.blocks.iter().enumerate() {
            match (open, self.breached(di)) {
                (None, true) => open = Some(i),
                (Some(start), false) => {
                    out.push(((i - start) * self.block) as u64);
                    open = None;
                }
                _ => {}
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&sorted, 50.0), 50.0);
        assert_eq!(nearest_rank(&sorted, 99.0), 99.0);
        assert_eq!(nearest_rank(&sorted, 99.5), 100.0);
        assert_eq!(nearest_rank(&sorted, 0.0), 1.0);
        assert_eq!(nearest_rank(&[7.0], 90.0), 7.0);
        assert_eq!(nearest_rank(&[1.0, 2.0, 3.0, 4.0], 25.0), 1.0);
        assert_eq!(nearest_rank(&[1.0, 2.0, 3.0, 4.0], 26.0), 2.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // p99 of 1000 sits at rank 990: exactly 10 beyond.
        assert_eq!(supported_tail(1000), Some(99.0));
        // p99.9 needs 10 000 samples.
        assert_eq!(supported_tail(10_000), Some(99.9));
        assert_eq!(supported_tail(9_999), Some(99.5));
        // 999 samples: p99 leaves 9 beyond, so p98 is the highest.
        assert_eq!(supported_tail(999), Some(98.0));
        assert_eq!(supported_tail(20), Some(50.0));
        assert_eq!(supported_tail(19), None);
        let s = summarize(&(1..=19).map(f64::from).collect::<Vec<_>>());
        assert_eq!((s.p50, s.tail_p, s.tail, s.n), (10.0, 50.0, 10.0, 19));
        let s = summarize(&(1..=1000).rev().map(f64::from).collect::<Vec<_>>());
        assert_eq!((s.p50, s.tail_p, s.tail), (500.0, 99.0, 990.0));
    }

    #[test]
    fn chunked_tail_ignores_a_stall_confined_to_one_part() {
        // 4 parts of 1000: p99 of each is 990; one part stalls hard.
        let mut samples: Vec<f64> = (0..4).flat_map(|_| (1..=1000).map(f64::from)).collect();
        samples[1500..1600].iter_mut().for_each(|x| *x = 1e9);
        assert_eq!(chunked_tail(&samples, 1000), (99.0, 990.0));
        // The whole-sample tail is captured by the stall.
        assert_eq!(summarize(&samples).tail, 1e9);
        // An incomplete last part is dropped; the percentile stays p99.
        samples.extend((1..=999).map(|_| 1e9));
        assert_eq!(chunked_tail(&samples, 1000), (99.0, 990.0));
        // Too small to cut: the whole-sample rule.
        assert_eq!(chunked_tail(&[1.0, 2.0, 3.0], 4), (50.0, 2.0));
    }

    #[test]
    fn fixed_tail_keeps_its_percentile_as_the_sample_grows() {
        let up_to = |n: u32| (1..=n).map(f64::from).collect::<Vec<_>>();
        // p80 of 50 leaves exactly 10 beyond; p90 of 100 would be the
        // highest supported, but the fixed tail stays at p80.
        assert_eq!(fixed_tail(&up_to(50), 80.0), (80.0, 40.0));
        assert_eq!(fixed_tail(&up_to(100), 80.0), (80.0, 80.0));
        assert_eq!(supported_tail(100), Some(90.0));
        // Too few samples for p80: the highest supported percentile.
        assert_eq!(fixed_tail(&up_to(49), 80.0), (75.0, 37.0));
    }

    /// A scripted clock: operations take the listed service times and
    /// waiting jumps straight to the target.
    struct Scripted {
        t: f64,
    }

    impl Clock for Scripted {
        fn now(&mut self) -> f64 {
            self.t
        }
        fn wait_until(&mut self, t: f64) {
            self.t = self.t.max(t);
        }
    }

    #[test]
    fn open_loop_charges_a_stall_to_the_batches_behind_it() {
        // One op every 10 s; each takes 1 s except op 2, which stalls 35 s.
        let service = [1.0, 1.0, 35.0, 1.0, 1.0, 1.0];
        let mut clock = Scripted { t: 100.0 };
        let run = open_loop(
            &mut clock,
            service.len(),
            10.0,
            |i| service[i],
            |_, s, c| c.t += s,
        );
        // Op 2 is due at 20 and done at 55. Op 3 (due 30) starts at 55,
        // op 4 (due 40) at 56, op 5 (due 50) at 57: all late, all charged.
        assert_eq!(run.latency, vec![1.0, 1.0, 35.0, 26.0, 17.0, 8.0]);
        assert_eq!(run.late, vec![0.0, 0.0, 0.0, 25.0, 16.0, 7.0]);
        assert_eq!(run.service, service.to_vec());
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            // 0: root 0..100 with children 1 (10..40) and 2 (50..90).
            SpanTimes {
                start: 0,
                end: 100,
                parent: None,
            },
            SpanTimes {
                start: 10,
                end: 40,
                parent: Some(0),
            },
            SpanTimes {
                start: 50,
                end: 90,
                parent: Some(0),
            },
            // 3: grandchild inside 2; charged to 2, not to the root.
            SpanTimes {
                start: 60,
                end: 75,
                parent: Some(2),
            },
            // 4: a replay of 1's work, run after the root ended.
            SpanTimes {
                start: 200,
                end: 212,
                parent: Some(1),
            },
        ];
        assert_eq!(self_times(&spans), vec![30, 18, 25, 15, 12]);
        // The self times of a tree add up to its root.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
        // Children that overrun their parent clip it to zero.
        let over = [
            SpanTimes {
                start: 0,
                end: 5,
                parent: None,
            },
            SpanTimes {
                start: 0,
                end: 9,
                parent: Some(0),
            },
        ];
        assert_eq!(self_times(&over), vec![0, 9]);
        assert_eq!(clipped(&over), 1);
        assert_eq!(clipped(&spans), 0);
    }

    #[test]
    fn block_meter_finds_breaches_and_recoveries() {
        // Blocks of 4 over two cells; each block serves two of each.
        let mut meter = DiBlockMeter::new(2, 4, 0.8);
        let block = |meter: &mut DiBlockMeter, d0: [u8; 2], d1: [u8; 2]| {
            for k in 0..2 {
                meter.push(0, d0[k]);
                meter.push(1, d1[k]);
            }
        };
        block(&mut meter, [1, 1], [1, 1]); // DI* 1.0
        block(&mut meter, [1, 1], [1, 0]); // 0.5: breach
        block(&mut meter, [1, 1], [0, 0]); // 0.0
        block(&mut meter, [1, 0], [0, 1]); // 1.0: recovered after 8
        block(&mut meter, [0, 0], [0, 0]); // nobody selected: 1.0
        block(&mut meter, [0, 1], [1, 1]); // 0.5: breach, never closed
        assert_eq!(
            meter.blocks,
            vec![
                Some(1.0),
                Some(0.5),
                Some(0.0),
                Some(1.0),
                Some(1.0),
                Some(0.5)
            ]
        );
        assert_eq!(meter.recoveries(), vec![8]);
        assert_eq!(meter.unfair_share(), 0.5);
        // A block with only one populated cell has no DI*.
        let mut lone = DiBlockMeter::new(2, 2, 0.8);
        lone.push(0, 1);
        lone.push(0, 0);
        assert_eq!(lone.blocks, vec![None]);
        assert_eq!(lone.unfair_share(), 0.0);
    }
}
