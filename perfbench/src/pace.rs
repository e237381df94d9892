//! Host-speed calibration.
//!
//! On a shared 2-vCPU host the speed of unchanged code drifts by a third
//! or more within seconds as other tenants load the machine, so one run
//! can read a quarter slower than the next. The workloads therefore time a
//! fixed reference kernel that belongs to the benchmark, not the program
//! (so no program change can move it), on the thread doing the work,
//! between units of work. Host times are divided by the slowdown those
//! samples saw over the same interval, which gives seconds at the
//! reference speed.
//!
//! The kernel is a small trace-driven simulator of its own: it streams a
//! recorded address trace through a three-level set-associative LRU
//! hierarchy, as the program's replay does. Host contention slows it about
//! as much as it slows the program's replay (on a 2-vCPU Xeon host, replay
//! time over kernel time varied 5% over 3-second blocks while replay time
//! alone varied 18%). A kernel that only probes one small table moved half
//! as much as replay did, and dividing by it left most of the drift in.

use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// On-CPU nanoseconds of one kernel run at the reference speed (about
/// the median on a shared 2-vCPU Xeon host).
const REFERENCE_NS: f64 = 22_000_000.0;

/// Addresses in the reference trace (32 MiB, larger than a host LLC share,
/// so streaming it reads memory like a recorded program trace does).
const TRACE_LEN: usize = 1 << 22;
/// Trace addresses one kernel run replays; runs take successive slices.
const ACCESSES: usize = 400_000;

/// (sets, ways) of the three levels: 32 KiB, 512 KiB and 8 MiB of 64-byte
/// blocks.
const LEVELS: [(usize, usize); 3] = [(64, 8), (1024, 8), (8192, 16)];

pub struct Pace {
    trace: Vec<u64>,
    /// Where the next kernel run starts in `trace`.
    cursor: AtomicUsize,
    /// (midpoint, slowdown) of every kernel run.
    samples: Mutex<Vec<(Instant, f64)>>,
}

impl Default for Pace {
    fn default() -> Self {
        Pace { trace: reference_trace(), cursor: AtomicUsize::new(0), samples: Mutex::default() }
    }
}

impl Pace {
    /// Time the kernel on the calling thread and record the slowdown.
    pub fn sample(&self) {
        let start = self.cursor.fetch_add(ACCESSES, Ordering::Relaxed) % TRACE_LEN;
        let c0 = thread_cpu_ns();
        let t0 = Instant::now();
        black_box(kernel(&self.trace, start));
        let wall = t0.elapsed();
        // On-CPU time, so a preempted kernel does not read as a slow host.
        let ns = match (c0, thread_cpu_ns()) {
            (Some(a), Some(b)) if b > a => (b - a) as f64,
            _ => wall.as_nanos() as f64,
        };
        self.samples.lock().expect("pace lock poisoned").push((t0 + wall / 2, ns / REFERENCE_NS));
    }

    /// Sample every `period` until `stop` returns true (for phases whose
    /// work runs on threads the benchmark does not control).
    pub fn sample_until(&self, period: Duration, stop: impl Fn() -> bool) {
        while !stop() {
            self.sample();
            // Short naps, so the sampler ends soon after `stop` turns true.
            let next = Instant::now() + period;
            while !stop() && Instant::now() < next {
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }

    /// Mean slowdown over `[from, to]`: the samples inside it plus the
    /// nearest one on each side. 1.0 when nothing was sampled.
    pub fn slowdown(&self, from: Instant, to: Instant) -> f64 {
        let samples = self.samples.lock().expect("pace lock poisoned");
        let before = samples.iter().filter(|(t, _)| *t < from).max_by_key(|(t, _)| *t);
        let after = samples.iter().filter(|(t, _)| *t > to).min_by_key(|(t, _)| *t);
        let picked: Vec<f64> = samples
            .iter()
            .filter(|(t, _)| *t >= from && *t <= to)
            .chain(before)
            .chain(after)
            .map(|s| s.1)
            .collect();
        if picked.is_empty() {
            1.0
        } else {
            picked.iter().sum::<f64>() / picked.len() as f64
        }
    }
}

/// A fixed address stream: runs of short forward strides broken by jumps
/// to random blocks, one jump in four.
fn reference_trace() -> Vec<u64> {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut addr = 0u64;
    (0..TRACE_LEN)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            addr = if x & 3 == 0 { x & ((1 << 34) - 1) } else { addr + 8 * (1 + (x >> 60)) };
            addr
        })
        .collect()
}

/// Replay `ACCESSES` trace addresses from `start` through the hierarchy;
/// returns the number that missed every level.
fn kernel(trace: &[u64], start: usize) -> u64 {
    let mut levels = LEVELS.map(|(sets, ways)| Level::new(sets, ways));
    let mut misses = 0;
    for i in 0..ACCESSES {
        let block = trace[(start + i) % trace.len()] >> 6;
        if !levels.iter_mut().any(|l| l.access(block, i as u32)) {
            misses += 1;
        }
    }
    misses
}

/// One set-associative LRU cache level (tags and last-use times).
struct Level {
    sets: usize,
    ways: usize,
    tags: Vec<u64>,
    ages: Vec<u32>,
}

impl Level {
    fn new(sets: usize, ways: usize) -> Self {
        Level { sets, ways, tags: vec![u64::MAX; sets * ways], ages: vec![0; sets * ways] }
    }

    /// Look `block` up, filling it over the LRU way on a miss.
    fn access(&mut self, block: u64, clock: u32) -> bool {
        let base = (block as usize & (self.sets - 1)) * self.ways;
        let tags = &mut self.tags[base..base + self.ways];
        let ages = &mut self.ages[base..base + self.ways];
        match tags.iter().position(|&t| t == block) {
            Some(w) => {
                ages[w] = clock;
                true
            }
            None => {
                let victim = (0..self.ways).min_by_key(|&w| ages[w]).unwrap_or(0);
                tags[victim] = block;
                ages[victim] = clock;
                false
            }
        }
    }
}

/// On-CPU nanoseconds of the calling thread (Linux schedstat).
fn thread_cpu_ns() -> Option<u64> {
    let s = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    s.split_whitespace().next()?.parse().ok()
}
