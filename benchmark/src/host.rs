//! The host: the interleaved reference loop that the end-to-end times are
//! normalised by, on-CPU share and peak resident memory.
//!
//! This host's speed moves in spells that last from a second to minutes and
//! slow the simulator by 15 to 50 % (README, "noise study"). A dependent
//! multiply chain does not feel them; a loop with instruction-level
//! parallelism over a table larger than the private caches does, about as
//! much as the simulator. So that loop runs between passes, and a run's
//! times are divided by how much slower than nominal its best sample was.

use std::hint::black_box;
use std::time::Instant;

/// The reference table: 4 MiB, past the private caches.
const REF_WORDS: usize = 1 << 19;
/// Rounds of four steps per sample: ~40 ms on the host of the noise study.
/// Fixed, so every run does the same reference work.
const REF_ROUNDS: u64 = 6_000_000;
/// Nanoseconds per step of the reference loop on the host of the noise
/// study when nothing disturbs it: what a host factor of 1 means.
pub const REF_NOMINAL_NS: f64 = 1.55;

/// The reference loop: four independent xorshift streams, each step a
/// read-modify-write of a pseudo-random word of the table. It allocates
/// once, here.
pub struct Reference {
    table: Vec<u64>,
}

impl Reference {
    pub fn new() -> Self {
        Reference {
            table: vec![0; REF_WORDS],
        }
    }

    /// Runs the loop once and returns nanoseconds per step.
    // The indexed form is the loop the noise study validated; the iterator
    // form compiles to one that is half as fast and feels the host less.
    #[allow(clippy::needless_range_loop)]
    pub fn sample(&mut self) -> f64 {
        let table = self.table.as_mut_slice();
        let mask = table.len() as u64 - 1;
        let mut streams = [1u64, 2, 3, 4];
        let t0 = Instant::now();
        for _ in 0..REF_ROUNDS {
            for k in 0..4 {
                let mut x = streams[k];
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                streams[k] = x;
                let i = (x & mask) as usize;
                table[i] = table[i].wrapping_add(x);
            }
        }
        let ns = t0.elapsed().as_nanos() as f64;
        black_box(&streams);
        ns / (4 * REF_ROUNDS) as f64
    }
}

/// Nanoseconds this process has spent on a CPU, from
/// `/proc/self/schedstat`; `None` where the file does not exist.
pub fn on_cpu_ns() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/schedstat").ok()?;
    text.split_whitespace().next()?.parse().ok()
}

/// Peak resident set size (`VmHWM`) in MiB; `None` where `/proc` does not
/// provide it.
pub fn peak_rss_mb() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Hardware threads the host offers this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// What the host did during a run: reference-loop samples taken between
/// passes and the on-CPU share of the measured interval.
pub struct HostWatch {
    started: Instant,
    cpu_at_start: Option<u64>,
    reference: Reference,
    ref_ns: Vec<f64>,
}

/// The summary [`HostWatch::finish`] returns.
pub struct HostReport {
    /// Best reference-loop sample, ns per step.
    pub ref_ns: f64,
    /// Slowest ÷ fastest reference-loop sample.
    pub ref_spread: f64,
    /// `ref_ns / REF_NOMINAL_NS`: how much slower than nominal the host
    /// was at its best during the run. Measured seconds divided by it are
    /// host-normalised seconds.
    pub factor: f64,
    /// On-CPU time ÷ wall time since the watch started (1.0 when the host
    /// does not expose `schedstat`).
    pub cpu_share: f64,
    /// The run met interference: `cpu_share < 0.95` or `ref_spread > 1.25`.
    /// Reported, never failed or retried.
    pub disturbed: bool,
}

impl HostWatch {
    pub fn start() -> Self {
        HostWatch {
            reference: Reference::new(),
            started: Instant::now(),
            cpu_at_start: on_cpu_ns(),
            ref_ns: Vec::new(),
        }
    }

    /// Takes one reference-loop sample (call between passes).
    pub fn sample(&mut self) {
        let ns = self.reference.sample();
        self.ref_ns.push(ns);
    }

    /// # Panics
    ///
    /// Panics when no sample was taken.
    pub fn finish(self) -> HostReport {
        let wall = self.started.elapsed().as_nanos() as f64;
        let cpu_share = match (self.cpu_at_start, on_cpu_ns()) {
            (Some(a), Some(b)) if wall > 0.0 => ((b - a) as f64 / wall).min(1.0),
            _ => 1.0,
        };
        assert!(!self.ref_ns.is_empty(), "no reference sample taken");
        let best = self.ref_ns.iter().copied().fold(f64::INFINITY, f64::min);
        let worst = self.ref_ns.iter().copied().fold(0.0, f64::max);
        let ref_spread = worst / best;
        HostReport {
            ref_ns: best,
            ref_spread,
            factor: best / REF_NOMINAL_NS,
            cpu_share,
            disturbed: cpu_share < 0.95 || ref_spread > 1.25,
        }
    }
}
