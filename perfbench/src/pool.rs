//! The pre-generated event pool and its replay.
//!
//! Events come from `workloads::SyntheticWorkload`, the paper's §6.2 model
//! (uniform start values in [0, 1000], exponential inter-arrival with mean
//! 20, Gaussian steps with σ = 20, reflected at the domain edges). A run
//! usually needs more events than are worth keeping in memory, so the pool
//! stores each event's *step* and is replayed: every pass continues each
//! stream's walk from where the previous pass left it, and shifts times by
//! the pool's horizon, so a pass boundary adds no jump in value or time.
//! After the first pass each step gets a fresh seeded random sign. The
//! step law N(0, σ) is symmetric, so signed steps keep it; without the
//! signs a stream would add the same net displacement every pass and
//! drift at constant speed instead of walking (with 1M streams the pool
//! holds only a few steps per stream).

use asf_core::workload::UpdateEvent;
use simkit::reflect_into;
use streamnet::StreamId;
use workloads::{SyntheticConfig, SyntheticWorkload};

/// One generated event pool: initial values plus per-event steps.
pub struct Pool {
    /// Initial value of every stream.
    pub initial: Vec<f64>,
    times: Vec<f64>,
    streams: Vec<StreamId>,
    steps: Vec<f64>,
    horizon: f64,
    domain: (f64, f64),
    seed: u64,
}

impl Pool {
    /// Generates about `events` events over `num_streams` streams.
    pub fn generate(num_streams: usize, events: usize, seed: u64) -> Self {
        let defaults = SyntheticConfig::default();
        let horizon = events as f64 * defaults.mean_interarrival / num_streams as f64;
        let mut w =
            SyntheticWorkload::new(SyntheticConfig { num_streams, horizon, seed, ..defaults });
        let initial = asf_core::workload::Workload::initial_values(&w);
        let mut last = initial.clone();
        let mut pool = Self {
            initial,
            times: Vec::with_capacity(events + events / 8),
            streams: Vec::with_capacity(events + events / 8),
            steps: Vec::with_capacity(events + events / 8),
            horizon,
            domain: defaults.value_range,
            seed,
        };
        while let Some(ev) = asf_core::workload::Workload::next_event(&mut w) {
            let i = ev.stream.index();
            pool.times.push(ev.time);
            pool.streams.push(ev.stream);
            pool.steps.push(ev.value - last[i]);
            last[i] = ev.value;
        }
        assert!(!pool.times.is_empty(), "event pool is empty");
        pool
    }

    /// A replay from the start of the pool.
    pub fn replay(&self) -> Replay<'_> {
        Replay { pool: self, values: self.initial.clone(), pos: 0, pass: 0 }
    }
}

/// An endless, deterministic event stream over a [`Pool`].
pub struct Replay<'a> {
    pool: &'a Pool,
    values: Vec<f64>,
    pos: usize,
    pass: u64,
}

/// SplitMix64 finalizer: a well-mixed 64-bit hash of `x`.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl Replay<'_> {
    /// Replaces `out` with the next `len` events.
    pub fn fill(&mut self, len: usize, out: &mut Vec<UpdateEvent>) {
        let pool = self.pool;
        let (lo, hi) = pool.domain;
        out.clear();
        let mut pass_key = mix(pool.seed ^ self.pass);
        for _ in 0..len {
            if self.pos == pool.times.len() {
                self.pos = 0;
                self.pass += 1;
                pass_key = mix(pool.seed ^ self.pass);
            }
            let mut step = pool.steps[self.pos];
            if self.pass > 0 && mix(pass_key ^ self.pos as u64) & 1 == 1 {
                step = -step;
            }
            let stream = pool.streams[self.pos];
            let value = reflect_into(self.values[stream.index()] + step, lo, hi);
            self.values[stream.index()] = value;
            let time = pool.times[self.pos] + self.pass as f64 * pool.horizon;
            out.push(UpdateEvent { time, stream, value });
            self.pos += 1;
        }
    }
}
