//! Tracers implemented outside the engine: they receive the engine's
//! per-round events and add the benchmark's own clock readings.

use std::time::Instant;

use fssga_engine::{ChurnRoundMetrics, FaultSurgery, RoundMetrics, ShardRoundMetrics, Tracer};

/// Sums of [`RoundMetrics`] plus per-round shard statistics.
#[derive(Default)]
pub struct Probe {
    /// Rounds observed.
    pub rounds: u64,
    /// Σ eligible nodes over rounds.
    pub eligible: u64,
    /// Σ activations over rounds.
    pub activations: u64,
    /// Rounds that emitted shard events (the pool ran).
    pub pooled_rounds: u64,
    /// Σ over pooled rounds of the largest shard's neighbour reads.
    pub shard_max_reads: f64,
    /// Σ over pooled rounds of the mean shard's neighbour reads.
    pub shard_mean_reads: f64,
    shard_reads: Vec<u64>,
}

impl Tracer for Probe {
    fn round(&mut self, m: &RoundMetrics) {
        self.rounds += 1;
        self.eligible += m.eligible;
        self.activations += m.activations;
        if !self.shard_reads.is_empty() {
            let max = self.shard_reads.iter().copied().max().unwrap_or(0);
            let sum: u64 = self.shard_reads.iter().sum();
            self.pooled_rounds += 1;
            self.shard_max_reads += max as f64;
            self.shard_mean_reads += sum as f64 / self.shard_reads.len() as f64;
            self.shard_reads.clear();
        }
    }

    fn shard_round(&mut self, m: &ShardRoundMetrics) {
        self.shard_reads.push(m.neighbor_reads);
    }
}

/// Splits each churn round, by callback timestamps, into event surgery
/// (from the end of the previous round to the last `fault` callback)
/// and the kernel step (from there to the `round` callback).
pub struct ChurnProbe {
    /// Σ surgery time, ns.
    pub surgery_ns: f64,
    /// Events applied (arrivals + departures).
    pub events: u64,
    /// Per-round step time, µs.
    pub round_us: Vec<f64>,
    round_start: Instant,
    last_fault: Option<Instant>,
}

impl ChurnProbe {
    /// A probe whose first round starts now.
    pub fn start() -> Self {
        ChurnProbe {
            surgery_ns: 0.0,
            events: 0,
            round_us: Vec::new(),
            round_start: Instant::now(),
            last_fault: None,
        }
    }
}

impl Tracer for ChurnProbe {
    fn fault(&mut self, _surgery: &FaultSurgery) {
        self.last_fault = Some(Instant::now());
    }

    fn round(&mut self, _m: &RoundMetrics) {
        let now = Instant::now();
        let step_start = self.last_fault.take().unwrap_or(self.round_start);
        self.surgery_ns += (step_start - self.round_start).as_nanos() as f64;
        self.round_us
            .push((now - step_start).as_nanos() as f64 / 1e3);
    }

    fn churn_round(&mut self, m: &ChurnRoundMetrics) {
        self.events += m.arrivals + m.departures;
        self.round_start = Instant::now();
    }
}
