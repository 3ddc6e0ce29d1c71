//! Host-speed correction of the end-to-end times.
//!
//! The benchmark runs on a few vCPUs of a shared host whose speed drifts by
//! up to 2x, between runs a minute apart as well as within a run. A fixed
//! loop's CPU time mostly tracks its wall time, so the drift does not
//! reliably show as steal time, and no run length averages it away.
//!
//! So a phase samples a probe between its measured intervals, never inside
//! one, while the program is idle: a fixed piece of work (hashing, short
//! fills and scattered reads over a 1.3 MiB table, the mix of the
//! simulator's host work) that uses only `std` and allocates nothing, so
//! neither the measured crates nor the process's thread count can change
//! it. A workload that runs on several threads probes on as many at once
//! and takes their mean: one vCPU is often stalled while the other runs,
//! and parallel work feels both. The phase's times are reported scaled by
//! [`PROBE_REF_S`] ÷ the median probe time of the phase: the times the
//! phase would have taken on a host where the probe takes `PROBE_REF_S`.
//! The raw figures and the factors are printed too.

use std::hash::{DefaultHasher, Hash as _, Hasher as _};
use std::hint::black_box;
use std::time::Instant;

use crate::trace::median;

/// The probe's time on the reference host, in seconds. It only sets the
/// scale of the reported times: a round figure near the probe's median on
/// a 2 GHz Xeon vCPU, which reads 5–8 ms there depending on host load.
pub const PROBE_REF_S: f64 = 0.005;
/// Steps per probe.
const PROBE_STEPS: u64 = 100_000;
/// Slots of the probe's table, and words per slot.
const SLOTS: usize = 4096;
const SLOT_WORDS: usize = 40;
/// Probes run before the first sample, to fault the table in.
const WARM_UP: usize = 3;

/// The probe: seconds the fixed work takes now on `table`.
fn probe(table: &mut [u64]) -> f64 {
    let t = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for _ in 0..PROBE_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let mut h = DefaultHasher::new();
        x.hash(&mut h);
        let slot = (h.finish() as usize % SLOTS) * SLOT_WORDS;
        table[slot..slot + 8 + (x & 31) as usize].fill(x);
        let other = ((x >> 12) as usize % SLOTS) * SLOT_WORDS;
        x = x.wrapping_add(table[other]);
    }
    black_box(&table);
    t.elapsed().as_secs_f64()
}

/// The probe's tables, one per thread, and the samples of the current
/// phase.
#[derive(Debug)]
pub struct HostSpeed {
    tables: Vec<Vec<u64>>,
    samples: Vec<f64>,
}

impl HostSpeed {
    /// Allocate a table for each of `threads` probe threads and warm the
    /// probe up. A single-threaded workload must pass 1, so the probe
    /// spawns no thread in its process.
    pub fn new(threads: usize) -> Self {
        let mut h = Self {
            tables: vec![vec![0; SLOTS * SLOT_WORDS]; threads.max(1)],
            samples: Vec::new(),
        };
        for _ in 0..WARM_UP {
            h.probe_all();
        }
        h
    }

    /// The probe on every table at once; the mean time.
    fn probe_all(&mut self) -> f64 {
        let n = self.tables.len() as f64;
        let (first, rest) = self.tables.split_first_mut().expect("one table at least");
        let total: f64 = std::thread::scope(|s| {
            let others: Vec<_> = rest.iter_mut().map(|t| s.spawn(|| probe(t))).collect();
            let mine = probe(first);
            others
                .into_iter()
                .map(|h| h.join().expect("probe thread panicked"))
                .sum::<f64>()
                + mine
        });
        total / n
    }

    /// Run the probe and keep its time. Call between measured intervals.
    pub fn sample(&mut self) {
        let t = self.probe_all();
        self.samples.push(t);
    }

    /// The phase's factor, [`PROBE_REF_S`] ÷ its median probe time, and the
    /// number of samples it rests on. Starts the next phase.
    pub fn take_factor(&mut self) -> HostFactor {
        let f = HostFactor {
            factor: PROBE_REF_S / median(&self.samples),
            samples: self.samples.len(),
        };
        self.samples.clear();
        f
    }
}

/// The host-speed factor of one phase: a corrected time is the raw time
/// times `factor`.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostFactor {
    pub factor: f64,
    pub samples: usize,
}
