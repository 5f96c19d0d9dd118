//! The reference clock that the reported timings are read on.
//!
//! The benchmark shares its host with other tenants. When one of them
//! loads the core or cache this process runs on, every operation here
//! slows down, by up to 60%, in stretches that last from a few
//! milliseconds to minutes. A fixed piece of reference work, timed every
//! few milliseconds between operations, slows down with them. Each timed
//! piece of work is therefore scaled by the slowness of the reference
//! samples taken just before and just after it ended (see the README). A
//! change to the program moves the wall time and leaves the reference
//! alone, so it shows in full; a busier host moves both, and cancels out.
//!
//! The reference work is chosen to wait on what the workload waits on.
//! Sorting a private array that fits in the core's private cache tracks
//! the detect and region workloads. The service copies a region's worth
//! of state for every request, so its reference also streams through a
//! buffer larger than the private cache.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Elements the reference sorts: 128 KiB of `u64`.
const SORT_LEN: u64 = 16_384;

/// Seconds one reference sort takes on a quiet host (2-vCPU Xeon VM).
const SORT_NOMINAL_S: f64 = 3.0e-4;

/// Elements the streaming reference reads: 16 MiB of `u64`.
const STREAM_LEN: u64 = 2 << 20;

/// Seconds one streaming read takes on a quiet host (same VM).
const STREAM_NOMINAL_S: f64 = 1.7e-3;

/// Least time between reference samples while operations run. An
/// operation shorter than this shares its samples with its neighbours.
const INTERVAL: Duration = Duration::from_millis(10);

/// Samples a catch-up may take at once, after an operation longer than
/// the interval.
const MAX_BURST: usize = 10;

/// Samples on each side of a piece of work that its factor is the median
/// of: two taken before it ended, two after.
const WINDOW: usize = 2;

/// What the reference times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Job {
    /// The cache-resident sort.
    Sort,
    /// The sort and the streaming read, their slowness averaged.
    SortAndStream,
}

/// Times the reference work and keeps every sample in the order taken.
#[derive(Debug)]
pub struct Reference {
    job: Job,
    sort_source: Vec<u64>,
    stream: Vec<u64>,
    /// Each sample's time over its time on a quiet host.
    slowness: Vec<f64>,
    last: Option<Instant>,
}

impl Reference {
    pub fn new(job: Job) -> Self {
        // A fixed pseudo-random order (splitmix64), so every sort does the
        // same comparisons and swaps.
        let sort_source = (0..SORT_LEN)
            .map(|i| {
                let mut x = i.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                x ^ (x >> 31)
            })
            .collect();
        let stream = match job {
            Job::Sort => Vec::new(),
            Job::SortAndStream => (0..STREAM_LEN).collect(),
        };
        Reference {
            job,
            sort_source,
            stream,
            slowness: Vec::new(),
            last: None,
        }
    }

    /// Times the reference once.
    pub fn sample(&mut self) {
        let mut v = self.sort_source.clone();
        let start = Instant::now();
        v.sort_unstable();
        let sort = start.elapsed().as_secs_f64() / SORT_NOMINAL_S;
        black_box(v);
        let slowness = match self.job {
            Job::Sort => sort,
            Job::SortAndStream => {
                let start = Instant::now();
                let sum = self.stream.iter().fold(0u64, |a, &x| a.wrapping_add(x));
                black_box(sum);
                (sort + start.elapsed().as_secs_f64() / STREAM_NOMINAL_S) / 2.0
            }
        };
        self.slowness.push(slowness);
        self.last = Some(Instant::now());
    }

    /// Takes the samples owed since the last one, one per interval
    /// elapsed (at most [`MAX_BURST`]).
    pub fn catch_up(&mut self) {
        let owed = self.last.map_or(1, |t| {
            (t.elapsed().as_secs_f64() / INTERVAL.as_secs_f64()) as usize
        });
        for _ in 0..owed.min(MAX_BURST) {
            self.sample();
        }
    }

    /// Samples taken so far. Work records this as it ends, and is scaled
    /// later by [`Reference::factor`] of it.
    pub fn mark(&self) -> usize {
        self.slowness.len()
    }

    /// The factor turning wall seconds of work that ended at `mark` into
    /// reference seconds: one over the median slowness of the samples
    /// around it (1 with none).
    pub fn factor(&self, mark: usize) -> f64 {
        let end = (mark + WINDOW).min(self.slowness.len());
        let window = &self.slowness[mark.saturating_sub(WINDOW).min(end)..end];
        if window.is_empty() {
            1.0
        } else {
            1.0 / crate::stats::median(window)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_is_scaled_by_the_samples_around_it() {
        for job in [Job::Sort, Job::SortAndStream] {
            let mut r = Reference::new(job);
            assert_eq!(r.factor(0), 1.0);
            r.sample();
            r.catch_up();
            assert!(r.mark() >= 1 && r.slowness.iter().all(|&s| s > 0.0));
        }
        // A host running the reference at half speed, then at full speed:
        // work that ended among the slow samples is halved, work among the
        // fast ones is not, and work at the switch sees both.
        let mut r = Reference::new(Job::Sort);
        r.slowness = vec![2.0, 2.0, 2.0, 2.0, 1.0, 1.0, 1.0, 1.0];
        assert_eq!(r.factor(2), 0.5);
        assert_eq!(r.factor(6), 1.0);
        assert_eq!(r.factor(4), 1.0 / 1.5);
        assert_eq!(r.factor(8), 1.0);
    }
}
