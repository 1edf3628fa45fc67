//! Interleaved 1F1B — Megatron-LM's virtual-pipeline schedule.
//!
//! With `v` *virtual stages* (model chunks) per device, the model is split
//! into `pp · v` chunks; device `d` hosts chunks `{c·pp + d}`. Microbatches
//! stream through all `pp · v` virtual stages in order, so the pipeline
//! fill shrinks by roughly `v×` (smaller bubble) at the cost of `v×` more
//! inter-device messages — including a wrap-around hop from the last
//! device back to the first between consecutive chunks. The paper's
//! Megatron-LM lineage (\[5\]) introduced this schedule; we provide it as a
//! simulator extension and ablation axis.
//!
//! The device-order closed form follows Megatron-LM: device `d` warms up
//! with `min(2·(pp − d − 1) + (v − 1)·pp, v·n_mb)` forwards, then strictly
//! alternates one-forward-one-backward, with microbatches advancing in
//! groups of `pp` and chunks rotating within each group.

use crate::schedule::{Task, TaskKind};

/// Decomposition of a device-local work item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkTask {
    /// Model-chunk index on this device, `0..v`.
    pub chunk: usize,
    /// The pass and microbatch.
    pub task: Task,
}

/// The `k`-th forward work item of any device: which chunk, which
/// microbatch.
fn forward_item(pp: usize, v: usize, k: u64) -> (usize, u64) {
    let group = k / (pp as u64 * v as u64);
    let pos = k % (pp as u64 * v as u64);
    let chunk = (pos / pp as u64) as usize;
    let mb = group * pp as u64 + pos % pp as u64;
    (chunk, mb)
}

/// The `k`-th backward work item (chunks drain in reverse order).
fn backward_item(pp: usize, v: usize, k: u64) -> (usize, u64) {
    let (chunk, mb) = forward_item(pp, v, k);
    (v - 1 - chunk, mb)
}

/// Execution order of device `device` under interleaved 1F1B.
///
/// # Panics
///
/// Panics if `v < 2`, `device >= pp`, or `pp` does not divide `n_mb`
/// (Megatron-LM requires the microbatch count to be a multiple of the
/// pipeline depth for this schedule).
pub fn device_order(pp: usize, v: usize, device: usize, n_mb: u64) -> Vec<ChunkTask> {
    debug_assert!(v >= 2, "interleaving needs at least two chunks per device");
    debug_assert!(device < pp, "device out of range");
    debug_assert!(
        n_mb > 0 && n_mb.is_multiple_of(pp as u64),
        "n_mb must be a positive multiple of pp"
    );
    let total = n_mb * v as u64;
    let warmup = ((2 * (pp - device - 1) + (v - 1) * pp) as u64).min(total);
    let mut order = Vec::with_capacity(2 * total as usize);
    for k in 0..warmup {
        let (chunk, mb) = forward_item(pp, v, k);
        order.push(ChunkTask {
            chunk,
            task: Task {
                kind: TaskKind::Forward,
                microbatch: mb,
            },
        });
    }
    for k in 0..(total - warmup) {
        let (fc, fm) = forward_item(pp, v, warmup + k);
        order.push(ChunkTask {
            chunk: fc,
            task: Task {
                kind: TaskKind::Forward,
                microbatch: fm,
            },
        });
        let (bc, bm) = backward_item(pp, v, k);
        order.push(ChunkTask {
            chunk: bc,
            task: Task {
                kind: TaskKind::Backward,
                microbatch: bm,
            },
        });
    }
    for k in (total - warmup)..total {
        let (bc, bm) = backward_item(pp, v, k);
        order.push(ChunkTask {
            chunk: bc,
            task: Task {
                kind: TaskKind::Backward,
                microbatch: bm,
            },
        });
    }
    order
}

/// Peak in-flight activation load on `device`, where in-flight chunk `c`
/// weighs `weights[c]` (e.g. bytes). Scans the actual execution order.
pub fn peak_inflight_weighted(
    pp: usize,
    v: usize,
    device: usize,
    n_mb: u64,
    weights: &[u64],
) -> u64 {
    debug_assert_eq!(weights.len(), v, "one weight per chunk");
    let mut load: i128 = 0;
    let mut peak: i128 = 0;
    for item in device_order(pp, v, device, n_mb) {
        match item.task.kind {
            TaskKind::Forward => load += weights[item.chunk] as i128,
            TaskKind::Backward => load -= weights[item.chunk] as i128,
        }
        peak = peak.max(load);
    }
    peak.max(0) as u64
}

/// Timing inputs for one interleaved pipeline chain: `pp · v` virtual
/// stages, with per-virtual-stage durations and per-hop transfer times.
#[derive(Debug, Clone, PartialEq)]
pub struct VirtualChainSpec {
    /// Devices (pipeline depth).
    pub pp: usize,
    /// Chunks per device.
    pub chunks: usize,
    /// Microbatches (multiple of `pp`).
    pub n_mb: u64,
    /// Forward duration per virtual stage (length `pp · chunks`).
    pub fwd_time: Vec<f64>,
    /// Backward duration per virtual stage.
    pub bwd_time: Vec<f64>,
    /// Forward transfer time from virtual stage `s` to `s + 1`
    /// (length `pp · chunks − 1`; entries at chunk boundaries are the
    /// wrap-around device `pp−1 → 0` links).
    pub fwd_comm: Vec<f64>,
    /// Backward transfer time from virtual stage `s + 1` to `s`.
    pub bwd_comm: Vec<f64>,
}

/// Timing results of an interleaved chain.
#[derive(Debug, Clone, PartialEq)]
pub struct VirtualChainResult {
    /// Finish time of the whole chain.
    pub makespan: f64,
    /// Finish of each *device's* final backward (for DP sync gating).
    pub device_finish: Vec<f64>,
    /// Busy time per device.
    pub device_busy: Vec<f64>,
}

impl VirtualChainSpec {
    fn validate(&self) {
        let s = self.pp * self.chunks;
        debug_assert!(
            self.pp > 0 && self.chunks >= 2,
            "need pp >= 1 and chunks >= 2"
        );
        debug_assert!(
            self.n_mb > 0 && self.n_mb.is_multiple_of(self.pp as u64),
            "n_mb must be a multiple of pp"
        );
        debug_assert_eq!(self.fwd_time.len(), s, "fwd_time length");
        debug_assert_eq!(self.bwd_time.len(), s, "bwd_time length");
        debug_assert_eq!(self.fwd_comm.len(), s - 1, "fwd_comm length");
        debug_assert_eq!(self.bwd_comm.len(), s - 1, "bwd_comm length");
    }

    /// Evaluates the chain with the same dependency relaxation as the
    /// non-interleaved engine, at virtual-stage granularity.
    ///
    /// # Panics
    ///
    /// Panics if the spec is malformed or the schedule deadlocks (which
    /// would indicate an invalid device order).
    pub fn simulate(&self) -> VirtualChainResult {
        self.validate();
        let pp = self.pp;
        let v = self.chunks;
        let s_total = pp * v;
        let n_mb = self.n_mb as usize;
        let orders: Vec<Vec<ChunkTask>> =
            (0..pp).map(|d| device_order(pp, v, d, self.n_mb)).collect();

        let unset = f64::NEG_INFINITY;
        let mut fwd_done = vec![vec![unset; n_mb]; s_total];
        let mut bwd_done = vec![vec![unset; n_mb]; s_total];
        let mut next = vec![0usize; pp];
        let mut device_free = vec![0.0f64; pp];
        let mut device_busy = vec![0.0f64; pp];
        let mut remaining: usize = orders.iter().map(Vec::len).sum();

        while remaining > 0 {
            let mut progressed = false;
            for d in 0..pp {
                while next[d] < orders[d].len() {
                    let item = orders[d][next[d]];
                    let s = item.chunk * pp + d;
                    let m = item.task.microbatch as usize;
                    let ready = match item.task.kind {
                        TaskKind::Forward => {
                            if s == 0 {
                                Some(0.0)
                            } else if fwd_done[s - 1][m] > unset {
                                Some(fwd_done[s - 1][m] + self.fwd_comm[s - 1])
                            } else {
                                None
                            }
                        }
                        TaskKind::Backward => {
                            if s == s_total - 1 {
                                if fwd_done[s][m] > unset {
                                    Some(fwd_done[s][m])
                                } else {
                                    None
                                }
                            } else if bwd_done[s + 1][m] > unset {
                                Some(bwd_done[s + 1][m] + self.bwd_comm[s])
                            } else {
                                None
                            }
                        }
                    };
                    let Some(ready) = ready else { break };
                    let start = device_free[d].max(ready);
                    let dur = match item.task.kind {
                        TaskKind::Forward => self.fwd_time[s],
                        TaskKind::Backward => self.bwd_time[s],
                    };
                    let finish = start + dur;
                    match item.task.kind {
                        TaskKind::Forward => fwd_done[s][m] = finish,
                        TaskKind::Backward => bwd_done[s][m] = finish,
                    }
                    device_free[d] = finish;
                    device_busy[d] += dur;
                    next[d] += 1;
                    remaining -= 1;
                    progressed = true;
                }
            }
            // pipette-lint: allow(D2) -- deadlock guard: an invalid device order must abort in release too, or the loop spins forever
            assert!(
                progressed,
                "interleaved schedule deadlocked — invalid device order"
            );
        }

        let device_finish: Vec<f64> = (0..pp)
            .map(|d| {
                (0..v)
                    .flat_map(|c| bwd_done[c * pp + d].iter().cloned())
                    .fold(0.0, f64::max)
            })
            .collect();
        let makespan = device_finish.iter().cloned().fold(0.0, f64::max);
        VirtualChainResult {
            makespan,
            device_finish,
            device_busy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn device_order_covers_every_chunk_microbatch_once() {
        for (pp, v, n_mb) in [(2usize, 2usize, 4u64), (4, 2, 8), (4, 3, 12), (8, 2, 16)] {
            for d in 0..pp {
                let order = device_order(pp, v, d, n_mb);
                assert_eq!(order.len() as u64, 2 * n_mb * v as u64);
                let mut fwd = vec![vec![0u32; n_mb as usize]; v];
                let mut bwd = vec![vec![0u32; n_mb as usize]; v];
                for item in &order {
                    match item.task.kind {
                        TaskKind::Forward => fwd[item.chunk][item.task.microbatch as usize] += 1,
                        TaskKind::Backward => bwd[item.chunk][item.task.microbatch as usize] += 1,
                    }
                }
                assert!(fwd.iter().flatten().all(|&c| c == 1), "pp={pp} v={v} d={d}");
                assert!(bwd.iter().flatten().all(|&c| c == 1));
            }
        }
    }

    fn uniform_spec(pp: usize, v: usize, n_mb: u64, c: f64, d: f64) -> VirtualChainSpec {
        let s = pp * v;
        VirtualChainSpec {
            pp,
            chunks: v,
            n_mb,
            fwd_time: vec![c; s],
            bwd_time: vec![2.0 * c; s],
            fwd_comm: vec![d; s - 1],
            bwd_comm: vec![d; s - 1],
        }
    }

    #[test]
    fn interleaved_schedule_is_deadlock_free() {
        for (pp, v) in [(2usize, 2usize), (2, 4), (4, 2), (4, 4), (8, 2), (8, 3)] {
            for groups in [1u64, 2, 4] {
                let n_mb = pp as u64 * groups;
                let r = uniform_spec(pp, v, n_mb, 1.0, 0.05).simulate();
                assert!(
                    r.makespan.is_finite() && r.makespan > 0.0,
                    "pp={pp} v={v} n_mb={n_mb}"
                );
            }
        }
    }

    #[test]
    fn busy_time_is_schedule_invariant() {
        // Total work per device is the same with or without interleaving.
        let r = uniform_spec(4, 2, 8, 1.0, 0.0).simulate();
        for d in 0..4 {
            // 8 microbatches × 2 chunks × (1 + 2) seconds.
            assert!((r.device_busy[d] - 48.0).abs() < 1e-9);
        }
    }

    #[test]
    fn interleaving_shrinks_the_fill_bubble() {
        // Bubble-dominated regime: few microbatches, deep pipeline.
        // Interleaved 1F1B's fill is ~v× shorter than the non-interleaved
        // schedule's.
        use crate::engine::ChainSpec;
        use crate::schedule::PipelineSchedule;
        let (pp, n_mb, c) = (8usize, 8u64, 1.0f64);
        let plain = ChainSpec {
            pp,
            n_mb,
            schedule: PipelineSchedule::OneFOneB,
            fwd_time: vec![c; pp],
            bwd_time: vec![2.0 * c; pp],
            fwd_comm: vec![0.0; pp - 1],
            bwd_comm: vec![0.0; pp - 1],
        }
        .simulate();
        // Same model split into twice as many chunks: per-chunk time c/2.
        let inter = uniform_spec(pp, 2, n_mb, c / 2.0, 0.0).simulate();
        assert!(
            inter.makespan < plain.makespan,
            "interleaving should cut the bubble: {} vs {}",
            inter.makespan,
            plain.makespan
        );
        // Busy lower bound still holds.
        assert!(inter.makespan >= n_mb as f64 * 3.0 * c - 1e-9);
    }

    #[test]
    fn interleaving_pays_more_communication() {
        // Comm-heavy regime: the extra hops hurt.
        let (pp, n_mb) = (4usize, 8u64);
        let plain = uniform_spec(pp, 2, n_mb, 1.0, 0.0).simulate();
        let comm_heavy = uniform_spec(pp, 2, n_mb, 1.0, 0.5).simulate();
        assert!(comm_heavy.makespan > plain.makespan);
    }

    #[test]
    fn peak_inflight_bounded_by_warmup_plus_one() {
        for (pp, v) in [(2usize, 2usize), (4, 2), (4, 4), (8, 2)] {
            let n_mb = 4 * pp as u64;
            for d in 0..pp {
                let weights = vec![1u64; v];
                let peak = peak_inflight_weighted(pp, v, d, n_mb, &weights);
                let warmup = (2 * (pp - d - 1) + (v - 1) * pp) as u64;
                assert!(
                    peak <= warmup + 1,
                    "pp={pp} v={v} d={d}: peak {peak} vs warmup {warmup}"
                );
                assert!(peak >= 1);
            }
        }
    }

    #[test]
    #[should_panic(expected = "multiple of pp")]
    fn indivisible_microbatches_rejected() {
        device_order(4, 2, 0, 6);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]
        #[test]
        fn makespan_respects_bounds(
            pp in 2usize..6,
            v in 2usize..4,
            groups in 1u64..4,
            c in 0.1f64..1.0,
            d in 0.0f64..0.3,
        ) {
            let n_mb = pp as u64 * groups;
            let r = uniform_spec(pp, v, n_mb, c, d).simulate();
            let busy = n_mb as f64 * v as f64 * 3.0 * c;
            let s = (pp * v) as f64;
            let serial = s * busy + 2.0 * n_mb as f64 * (s - 1.0) * d;
            prop_assert!(r.makespan >= busy - 1e-9);
            prop_assert!(r.makespan <= serial + 1e-9);
        }
    }
}
