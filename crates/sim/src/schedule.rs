//! Pipeline schedules: task orderings per stage.
//!
//! Two schedules from Fig. 2 of the paper:
//!
//! * **GPipe** ("memory-hungry"): every stage runs all forwards, then all
//!   backwards. Simple, maximal overlap, but all `n_mb` microbatches'
//!   activations are alive at once.
//! * **1F1B** ("memory-efficient", the de facto standard): after a short
//!   warm-up, each stage alternates one forward with one backward, capping
//!   in-flight microbatches at `pp - stage`. This interleaving creates the
//!   *hidden critical path*: the first stage cannot start forward `m + pp`
//!   before backward `m` has returned through the entire pipeline.

use std::fmt;

/// Which pass a task performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskKind {
    /// Forward pass of one microbatch.
    Forward,
    /// Backward pass of one microbatch.
    Backward,
}

/// One unit of pipeline work: a pass over one microbatch at one stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Task {
    /// Forward or backward.
    pub kind: TaskKind,
    /// Microbatch index, `0..n_mb`.
    pub microbatch: u64,
}

impl fmt::Display for Task {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            TaskKind::Forward => write!(f, "F{}", self.microbatch),
            TaskKind::Backward => write!(f, "B{}", self.microbatch),
        }
    }
}

/// The pipeline schedule family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PipelineSchedule {
    /// All forwards, then all backwards (Fig. 2a).
    GPipe,
    /// Memory-efficient one-forward-one-backward (Fig. 2b).
    OneFOneB,
}

impl PipelineSchedule {
    /// The execution order of tasks on stage `stage` of `pp`, for `n_mb`
    /// microbatches.
    ///
    /// # Panics
    ///
    /// Panics if `stage >= pp` or `n_mb == 0`.
    pub fn stage_order(&self, pp: usize, stage: usize, n_mb: u64) -> Vec<Task> {
        debug_assert!(stage < pp, "stage out of range");
        debug_assert!(n_mb > 0, "need at least one microbatch");
        let mut order = Vec::with_capacity(2 * n_mb as usize);
        match self {
            PipelineSchedule::GPipe => {
                for m in 0..n_mb {
                    order.push(Task {
                        kind: TaskKind::Forward,
                        microbatch: m,
                    });
                }
                for m in 0..n_mb {
                    order.push(Task {
                        kind: TaskKind::Backward,
                        microbatch: m,
                    });
                }
            }
            PipelineSchedule::OneFOneB => {
                let warmup = ((pp - stage - 1) as u64).min(n_mb);
                for m in 0..warmup {
                    order.push(Task {
                        kind: TaskKind::Forward,
                        microbatch: m,
                    });
                }
                for k in 0..(n_mb - warmup) {
                    order.push(Task {
                        kind: TaskKind::Forward,
                        microbatch: warmup + k,
                    });
                    order.push(Task {
                        kind: TaskKind::Backward,
                        microbatch: k,
                    });
                }
                for m in (n_mb - warmup)..n_mb {
                    order.push(Task {
                        kind: TaskKind::Backward,
                        microbatch: m,
                    });
                }
            }
        }
        order
    }

    /// Peak in-flight microbatches at `stage` (forwards executed but whose
    /// backward has not yet run), computed from the actual order.
    pub fn peak_inflight(&self, pp: usize, stage: usize, n_mb: u64) -> u64 {
        let mut inflight: i64 = 0;
        let mut peak: i64 = 0;
        for t in self.stage_order(pp, stage, n_mb) {
            match t.kind {
                TaskKind::Forward => inflight += 1,
                TaskKind::Backward => inflight -= 1,
            }
            peak = peak.max(inflight);
        }
        peak as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn last_stage_alternates_strictly() {
        let order = PipelineSchedule::OneFOneB.stage_order(4, 3, 4);
        let s: Vec<String> = order.iter().map(|t| t.to_string()).collect();
        assert_eq!(s, vec!["F0", "B0", "F1", "B1", "F2", "B2", "F3", "B3"]);
    }

    #[test]
    fn first_stage_warms_up() {
        let order = PipelineSchedule::OneFOneB.stage_order(4, 0, 6);
        let s: Vec<String> = order.iter().map(|t| t.to_string()).collect();
        assert_eq!(
            s,
            vec!["F0", "F1", "F2", "F3", "B0", "F4", "B1", "F5", "B2", "B3", "B4", "B5"]
        );
    }

    #[test]
    fn gpipe_runs_all_forwards_first() {
        let order = PipelineSchedule::GPipe.stage_order(2, 0, 3);
        let s: Vec<String> = order.iter().map(|t| t.to_string()).collect();
        assert_eq!(s, vec!["F0", "F1", "F2", "B0", "B1", "B2"]);
    }

    #[test]
    fn peak_inflight_matches_paper() {
        // 1F1B stage s holds at most min(pp - s, n_mb) microbatches;
        // GPipe holds all of them.
        assert_eq!(PipelineSchedule::OneFOneB.peak_inflight(4, 0, 32), 4);
        assert_eq!(PipelineSchedule::OneFOneB.peak_inflight(4, 3, 32), 1);
        assert_eq!(PipelineSchedule::OneFOneB.peak_inflight(8, 2, 3), 3);
        assert_eq!(PipelineSchedule::GPipe.peak_inflight(4, 0, 32), 32);
    }

    proptest! {
        #[test]
        fn every_microbatch_scheduled_exactly_once(
            pp in 1usize..8, stage_sel in 0usize..8, n_mb in 1u64..40,
            gpipe in proptest::bool::ANY,
        ) {
            let stage = stage_sel % pp;
            let sched = if gpipe { PipelineSchedule::GPipe } else { PipelineSchedule::OneFOneB };
            let order = sched.stage_order(pp, stage, n_mb);
            prop_assert_eq!(order.len() as u64, 2 * n_mb);
            let mut fwd = vec![0u32; n_mb as usize];
            let mut bwd = vec![0u32; n_mb as usize];
            for t in &order {
                match t.kind {
                    TaskKind::Forward => fwd[t.microbatch as usize] += 1,
                    TaskKind::Backward => bwd[t.microbatch as usize] += 1,
                }
            }
            prop_assert!(fwd.iter().all(|&c| c == 1));
            prop_assert!(bwd.iter().all(|&c| c == 1));
        }

        #[test]
        fn backward_never_precedes_forward_on_stage(
            pp in 1usize..8, stage_sel in 0usize..8, n_mb in 1u64..40,
        ) {
            let stage = stage_sel % pp;
            let order = PipelineSchedule::OneFOneB.stage_order(pp, stage, n_mb);
            let mut seen_fwd = vec![false; n_mb as usize];
            for t in &order {
                match t.kind {
                    TaskKind::Forward => seen_fwd[t.microbatch as usize] = true,
                    TaskKind::Backward => prop_assert!(seen_fwd[t.microbatch as usize]),
                }
            }
        }

        #[test]
        fn inflight_cap_is_pp_minus_stage(
            pp in 1usize..10, stage_sel in 0usize..10, n_mb in 1u64..64,
        ) {
            let stage = stage_sel % pp;
            let peak = PipelineSchedule::OneFOneB.peak_inflight(pp, stage, n_mb);
            prop_assert_eq!(peak, ((pp - stage) as u64).min(n_mb));
        }
    }
}
