//! How fast the box is, measured while the benchmark runs.
//!
//! The sandbox's cores are shared with other tenants: for seconds or
//! minutes at a time the same instructions take 1.4–1.6× as long, and
//! which mode a run lands in is chance. A [`Calibrator`] thread times a
//! fixed arithmetic kernel once a millisecond on the core the program
//! runs on; a measurement taken over an interval is then divided by the
//! mean slowdown the kernel saw in that interval, so every time and
//! rate is reported **at reference speed** ([`REFERENCE_NS`] per kernel
//! pass) whatever mode the box was in. A slower program still reads
//! slower: the kernel is not part of it.

use crate::sched::make_realtime;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What one pass of the kernel takes on an undisturbed core of the
/// sandbox this benchmark was sized on. Only a scale: every reported
/// time is multiplied by `REFERENCE_NS / (what a pass took meanwhile)`.
pub const REFERENCE_NS: f64 = 2700.0;
/// Passes per tick: the first warms the caches, the fastest of the rest
/// is the tick's reading.
const PASSES: usize = 4;
const TICK: Duration = Duration::from_millis(1);
/// A reading above this many reference passes is a stall of the whole
/// box, not a speed: it is counted as this.
const MAX_SLOWDOWN: f64 = 3.0;

const ROWS: usize = 48;
const WIDTH: usize = 64;

/// The kernel: dot products of a query against a small resident block,
/// the arithmetic the catalog scan is made of.
struct Kernel {
    rows: Vec<f32>,
    query: Vec<f32>,
}

impl Kernel {
    fn new() -> Kernel {
        Kernel {
            rows: (0..ROWS * WIDTH).map(|i| (i % 97) as f32 * 0.01).collect(),
            query: (0..WIDTH).map(|i| i as f32 * 0.1).collect(),
        }
    }

    /// One pass; nanoseconds it took.
    fn pass(&self) -> u64 {
        let t0 = Instant::now();
        let mut acc = 0.0f32;
        for _ in 0..8 {
            for row in std::hint::black_box(&self.rows[..]).chunks_exact(WIDTH) {
                let mut lanes = [0.0f32; 8];
                for (r, q) in row.chunks_exact(8).zip(self.query.chunks_exact(8)) {
                    for l in 0..8 {
                        lanes[l] += r[l] * q[l];
                    }
                }
                acc += lanes.iter().sum::<f32>();
            }
        }
        std::hint::black_box(acc);
        t0.elapsed().as_nanos() as u64
    }

    /// One tick's reading: the fastest of the passes after the first.
    fn reading(&self) -> u64 {
        (0..PASSES)
            .map(|_| self.pass())
            .skip(1)
            .min()
            .expect("more than one pass")
    }
}

/// The readings of a run: `(nanoseconds after the origin, pass ns)`.
type Readings = Arc<Mutex<Vec<(u64, u64)>>>;

/// The calibration thread; stops when dropped.
pub struct Calibrator {
    origin: Instant,
    readings: Readings,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Calibrator {
    /// Start ticking on the calling thread's core (the thread inherits
    /// its affinity) in the real-time class where the kernel allows.
    pub fn start() -> Calibrator {
        let origin = Instant::now();
        let readings: Readings = Arc::default();
        let stop = Arc::new(AtomicBool::new(false));
        let (sink, stopped) = (Arc::clone(&readings), Arc::clone(&stop));
        let thread = std::thread::spawn(move || {
            make_realtime();
            let kernel = Kernel::new();
            while !stopped.load(Ordering::Relaxed) {
                let at = origin.elapsed().as_nanos() as u64;
                let ns = kernel.reading();
                sink.lock().expect("calibration readings").push((at, ns));
                std::thread::sleep(TICK);
            }
        });
        Calibrator {
            origin,
            readings,
            stop,
            thread: Some(thread),
        }
    }

    /// Mean slowdown against the reference over `[from, to]`: 1.0 on an
    /// undisturbed core. An interval shorter than a few ticks is widened
    /// to the readings around it.
    pub fn slowdown(&self, from: Instant, to: Instant) -> f64 {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let readings = self.readings.lock().expect("calibration readings");
        slowdown_in(&readings, ns(from), ns(to))
    }
}

impl Drop for Calibrator {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Fewest readings a slowdown may rest on.
const MIN_READINGS: usize = 8;

fn slowdown_in(readings: &[(u64, u64)], from: u64, to: u64) -> f64 {
    if readings.is_empty() {
        return 1.0;
    }
    let mut lo = readings.partition_point(|r| r.0 < from);
    let mut hi = readings.partition_point(|r| r.0 <= to);
    while hi - lo < MIN_READINGS.min(readings.len()) {
        lo = lo.saturating_sub(1);
        hi = (hi + 1).min(readings.len());
    }
    let sum: f64 = readings[lo..hi]
        .iter()
        .map(|r| (r.1 as f64 / REFERENCE_NS).min(MAX_SLOWDOWN))
        .sum();
    sum / (hi - lo) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_the_mean_reading_of_the_interval() {
        let r = REFERENCE_NS as u64;
        // 20 ticks at reference speed, then 20 at half speed.
        let readings: Vec<(u64, u64)> = (0..40u64)
            .map(|i| (i * 1_000_000, if i < 20 { r } else { 2 * r }))
            .collect();
        assert_eq!(slowdown_in(&readings, 0, 19_000_000), 1.0);
        assert_eq!(slowdown_in(&readings, 20_000_000, 39_000_000), 2.0);
        assert_eq!(slowdown_in(&readings, 0, 39_000_000), 1.5);
        // Shorter than a tick: the readings around it.
        assert_eq!(slowdown_in(&readings, 5_200_000, 5_300_000), 1.0);
        // A stall counts as MAX_SLOWDOWN, not as what it took.
        let stalled = [(0, r), (1_000_000, 1000 * r)];
        assert_eq!(
            slowdown_in(&stalled, 0, 1_000_000),
            (1.0 + MAX_SLOWDOWN) / 2.0
        );
        assert_eq!(slowdown_in(&[], 0, 1), 1.0);
    }

    #[test]
    fn kernel_pass_takes_microseconds() {
        let ns = Kernel::new().reading();
        assert!((200..3_000_000).contains(&ns), "{ns} ns");
    }
}
