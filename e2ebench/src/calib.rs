//! Host-speed calibration.
//!
//! The host this benchmark runs on is a VM on a shared machine whose speed
//! for the simulator drifts by up to 2× in regimes of tens of seconds,
//! while steal time stays under 1 %: the simulator's thread keeps its
//! vCPU but gets less done per second. A pure ALU loop or a DRAM-bound
//! pointer chase barely notices these regimes, so dividing by either only
//! adds noise. What tracks them is work shaped like the simulator's own:
//! an event heap, per-node ordered maps and branchy handlers over a
//! cache-sized working set. [`Kernel`] is such a loop, fixed in this file
//! so no change to the simulator moves it.
//!
//! A [`Clock`] runs slices before the first and after every timed segment
//! of a run. Each such point stands for the host's speed over half of the
//! segment on either side of it, so the time-weighted mean of the points
//! is the host's mean speed over the run. Host seconds times
//! [`Clock::factor`] are reference seconds: seconds on a host where one
//! slice takes exactly [`REFERENCE_SLICE_S`].

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use std::time::Instant;

use crate::host::ThreadGuard;

/// Host seconds one slice takes on the reference host.
pub const REFERENCE_SLICE_S: f64 = 0.1;

/// Calibration time at a point, as a share of the longest segment so far.
const SLICE_SHARE: f64 = 0.03;
/// Slices per point, at least: a single slice is at the mercy of the
/// host's sub-second jitter.
const MIN_SLICES: usize = 3;
/// Events one slice processes.
const SLICE_EVENTS: u64 = 220_000;
/// Simulated nodes, each with an ordered map of keys.
const NODES: u32 = 64;
/// Distinct keys per node.
const KEYS: u64 = 2048;
/// Events pending when the kernel is made; the heap is capped at twice
/// this.
const PENDING: u32 = 4096;

/// The calibration kernel: a small discrete-event loop over state that
/// lives as long as the run, so that after the first slice it allocates
/// only what it frees and the simulator's heap cannot shape its speed.
#[derive(Debug)]
struct Kernel {
    maps: Vec<BTreeMap<u32, u64>>,
    heap: BinaryHeap<Reverse<(u64, u32, u32)>>,
    rng: u64,
    acc: u64,
}

impl Kernel {
    fn new() -> Self {
        let mut kernel = Kernel {
            maps: vec![BTreeMap::new(); NODES as usize],
            heap: BinaryHeap::with_capacity(2 * PENDING as usize + 4),
            rng: 0x9E37_79B9_7F4A_7C15,
            acc: 0,
        };
        for i in 0..PENDING {
            let t = kernel.rnd() % 1000;
            kernel.heap.push(Reverse((t, i % NODES, i)));
        }
        kernel
    }

    fn rnd(&mut self) -> u64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng
    }

    /// Processes `events` events: pop the earliest, look its key up in the
    /// node's map (remove, flip or insert), schedule up to three follow-ups
    /// on neighbouring nodes.
    fn run(&mut self, events: u64) {
        for _ in 0..events {
            let Some(Reverse((t, node, k))) = self.heap.pop() else {
                break;
            };
            let key = (self.rnd() % KEYS) as u32;
            let map = &mut self.maps[node as usize];
            match map.get(&key) {
                Some(&v) if v & 1 == 0 => {
                    self.acc = self.acc.wrapping_add(v);
                    map.remove(&key);
                }
                Some(_) => self.acc ^= t,
                None => {
                    map.insert(key, t ^ u64::from(k));
                }
            }
            for j in 0..=(self.rnd() % 3) as u32 {
                let at = t + 1 + self.rnd() % 500;
                self.heap
                    .push(Reverse((at, (node + j + 1) % NODES, k.wrapping_add(j))));
            }
            while self.heap.len() > 2 * PENDING as usize {
                self.heap.pop();
            }
        }
    }

    /// Runs one slice and returns its host seconds.
    fn slice(&mut self) -> f64 {
        let start = Instant::now();
        self.run(black_box(SLICE_EVENTS));
        black_box(self.acc);
        start.elapsed().as_secs_f64()
    }
}

/// The calibration points of one run, each with the host seconds of
/// timed work it stands for.
#[derive(Debug)]
pub struct Clock {
    /// One kernel per calibrated thread; the first runs on the calling
    /// thread, the others on scoped threads at the same time.
    kernels: Vec<Kernel>,
    /// Mean slice of each point.
    points: Vec<f64>,
    weights: Vec<f64>,
    /// Every slice run, in host seconds.
    slices: Vec<f64>,
    /// The longest segment marked so far, in host seconds.
    longest_s: f64,
}

impl Clock {
    /// A clock that calibrates `threads` hardware threads at once (at
    /// least one): as many as the workload keeps busy, since work split
    /// over several vCPUs runs at their common speed. Runs an untimed
    /// warm-up slice (it fills the kernels' maps and pays for cold caches
    /// and fresh pages), then the first counted point.
    pub fn start(threads: usize, guard: &mut ThreadGuard) -> Self {
        let mut clock = Clock::idle(threads);
        clock.run_slices(1, guard);
        clock.slices.clear();
        let first = clock.run_slices(MIN_SLICES, guard);
        clock.record(0.0, first);
        clock
    }

    fn idle(threads: usize) -> Self {
        Clock {
            kernels: (0..threads.max(1)).map(|_| Kernel::new()).collect(),
            points: Vec::new(),
            weights: Vec::new(),
            slices: Vec::new(),
            longest_s: 0.0,
        }
    }

    /// Records a timed segment of `host_s` seconds that just ended, then
    /// runs the point after it: slices totalling [`SLICE_SHARE`] of the
    /// longest segment so far, at least [`MIN_SLICES`], so that a point
    /// that stands for a long segment averages out the host's sub-second
    /// jitter. The longest so far, not this one, because the point also
    /// stands for the next segment, and passes repeat their segments.
    pub fn mark(&mut self, host_s: f64, guard: &mut ThreadGuard) {
        self.longest_s = self.longest_s.max(host_s);
        let n =
            ((self.longest_s * SLICE_SHARE / REFERENCE_SLICE_S).ceil() as usize).max(MIN_SLICES);
        let point = self.run_slices(n, guard);
        self.record(host_s, point);
    }

    /// Runs `n` slices on every calibrated thread and returns the mean
    /// slice. The thread count is sampled once the helpers are running.
    fn run_slices(&mut self, n: usize, guard: &mut ThreadGuard) -> f64 {
        let start = self.slices.len();
        let run = |kernel: &mut Kernel| (0..n).map(|_| kernel.slice()).collect::<Vec<f64>>();
        let (mine, others) = self.kernels.split_first_mut().expect("at least one kernel");
        let per_thread: Vec<Vec<f64>> = std::thread::scope(|scope| {
            let helpers: Vec<_> = others
                .iter_mut()
                .map(|k| scope.spawn(move || run(k)))
                .collect();
            guard.sample();
            let mut all = vec![run(mine)];
            all.extend(
                helpers
                    .into_iter()
                    .map(|h| h.join().expect("calibration thread")),
            );
            all
        });
        self.slices.extend(per_thread.into_iter().flatten());
        let taken = &self.slices[start..];
        taken.iter().sum::<f64>() / taken.len() as f64
    }

    /// Adds a point whose slices took `point_s` on average, after a
    /// segment of `host_s` seconds.
    fn record(&mut self, host_s: f64, point_s: f64) {
        if let Some(last) = self.weights.last_mut() {
            *last += host_s / 2.0;
        }
        self.points.push(point_s);
        self.weights.push(host_s / 2.0);
    }

    /// Reference seconds per host second over the run: the reference
    /// slice over the time-weighted mean point (the plain mean when no
    /// segment was timed).
    pub fn factor(&self) -> f64 {
        let total: f64 = self.weights.iter().sum();
        let mean = if total > 0.0 {
            self.points
                .iter()
                .zip(&self.weights)
                .map(|(s, w)| s * w)
                .sum::<f64>()
                / total
        } else {
            self.points.iter().sum::<f64>() / self.points.len().max(1) as f64
        };
        REFERENCE_SLICE_S / mean
    }

    /// Host seconds of every counted slice.
    pub fn slices(&self) -> &[f64] {
        &self.slices
    }

    /// The points in order, as `host ms of a slice @ seconds stood for`.
    pub fn describe(&self) -> String {
        self.points
            .iter()
            .zip(&self.weights)
            .map(|(p, w)| format!("{:.1}@{w:.2}", p * 1e3))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state_after(events: u64) -> (u64, usize, usize) {
        let mut k = Kernel::new();
        k.run(events);
        let keys = k.maps.iter().map(BTreeMap::len).sum();
        (k.acc, k.heap.len(), keys)
    }

    #[test]
    fn the_kernel_is_deterministic_and_stays_bounded() {
        assert_eq!(state_after(10_000), state_after(10_000));
        assert_ne!(state_after(10_000), state_after(10_001));
        let (_, pending, keys) = state_after(3 * SLICE_EVENTS);
        assert!(pending <= 2 * PENDING as usize);
        assert!(keys <= (NODES as usize) * KEYS as usize);
    }

    #[test]
    fn a_mark_runs_slices_in_proportion_to_the_segment() {
        let guard = &mut ThreadGuard::new();
        let mut clock = Clock::start(1, guard);
        assert_eq!(clock.slices().len(), MIN_SLICES);
        clock.mark(0.01, guard);
        assert_eq!(clock.slices().len(), 2 * MIN_SLICES);
        clock.mark(19.0, guard);
        assert_eq!(clock.slices().len(), 2 * MIN_SLICES + 6);
        // A short segment after a long one still gets the long one's count.
        clock.mark(0.01, guard);
        assert_eq!(clock.slices().len(), 2 * MIN_SLICES + 12);
        assert_eq!(clock.points.len(), 4);
        assert!(clock.slices().iter().all(|&s| s > 0.0));
        // Two calibrated threads run every slice twice, side by side.
        let mut clock = Clock::start(2, guard);
        clock.mark(0.01, guard);
        assert_eq!(clock.slices().len(), 2 * 2 * MIN_SLICES);
        assert!(guard.peak() >= 2);
    }

    fn clock(points: &[f64], segments: &[f64]) -> Clock {
        let mut clock = Clock::idle(1);
        clock.record(0.0, points[0]);
        for (&p, &seg) in points[1..].iter().zip(segments) {
            clock.record(seg, p);
        }
        clock
    }

    #[test]
    fn the_factor_weighs_slices_by_the_time_they_stand_for() {
        // A host twice as slow as the reference: slices take 0.2 s.
        assert_eq!(clock(&[0.2, 0.2], &[10.0]).factor(), 0.5);
        assert_eq!(clock(&[0.1, 0.1, 0.1], &[3.0, 1.0]).factor(), 1.0);
        // The middle slice stands for 5.5 s, the outer ones 5 s and 0.5 s.
        let f = clock(&[0.1, 0.2, 0.1], &[10.0, 1.0]).factor();
        assert!((f - 0.1 / ((0.5 + 1.1 + 0.05) / 11.0)).abs() < 1e-12, "{f}");
        // Without timed segments the points count alike.
        assert_eq!(clock(&[0.1, 0.3], &[0.0]).factor(), 0.5);
    }
}
