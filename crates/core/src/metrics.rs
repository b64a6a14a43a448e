//! Instrumentation collected by the dynamic programs.

use std::time::Duration;

/// Counters describing one optimization run — the raw material for
/// Table 2 and Figure 5 of the paper.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DpStats {
    /// Nodes processed (equals the tree size on success).
    pub nodes_processed: usize,
    /// Largest candidate list held at any node.
    pub max_solutions_per_node: usize,
    /// Candidate solutions generated across the whole run.
    pub solutions_generated: usize,
    /// Solutions discarded by pruning.
    pub solutions_pruned: usize,
    /// Wall-clock runtime.
    pub runtime: Duration,
    /// Time spent generating branch-merge combinations (both the linear
    /// walk and the 4P cross product). Under the parallel engine this is
    /// the *sum* across workers, so it can exceed `runtime`.
    pub merge_time: Duration,
    /// Time spent extending solutions along wire segments (the lift
    /// loops, eager or deferred) plus materializing pending lazy-wire
    /// transforms at consumption points. Was folded into `merge_time`
    /// before lazy wire propagation made the split worth watching.
    /// Summed across workers in parallel runs. Materialization that
    /// happens inside the buffering arm is charged to `buffer_time`.
    pub wire_time: Duration,
    /// Time spent in dominance pruning (list pruning plus the quadratic
    /// cross-product sweep). Summed across workers in parallel runs.
    pub prune_time: Duration,
    /// Time spent offering buffers at candidate nodes. Summed across
    /// workers in parallel runs.
    pub buffer_time: Duration,
    /// Solutions retired by the deterministic upstream bound before any
    /// dominance sweep saw them (0 when bounding is off or disarmed).
    pub pruned_by_bound: usize,
    /// Solutions removed by dominance pruning (the keyed 2P/4P sweeps) —
    /// together with `pruned_by_bound` this partitions the predictive
    /// share of `solutions_pruned` from the comparative share.
    pub pruned_by_dominance: usize,
    /// Time spent testing candidates against the deterministic bounds,
    /// including the preorder bound construction. Summed across workers
    /// in parallel runs.
    pub bound_time: Duration,
    /// Buffered-candidate generations the Li–Shi precheck skipped: the
    /// candidate's predicted keys were already shadowed by a listed
    /// solution, so the dominance sweep would have discarded it and the
    /// form kernels never ran (0 when `use_lishi` is off or disarmed).
    pub lishi_skipped: usize,
    /// The `DpOptions::jobs` value the caller asked for (1 = sequential).
    /// Recorded for bench attribution; cleared by
    /// [`sans_times`](Self::sans_times) because it is configuration, not
    /// computation.
    pub jobs_requested: usize,
    /// The shard workers whose results the run committed: the request
    /// clamped to the host's available parallelism (unless forced) and
    /// to the shard count, or 1 when the run stayed or went serial.
    /// Cleared by
    /// [`sans_times`](Self::sans_times) — it is host-dependent while the
    /// computed result is not.
    pub jobs_effective: usize,
    /// Pruning-rule fallback steps a governed run took (0 = primary rule
    /// held for the whole run).
    pub rule_fallbacks: usize,
    /// Epsilon-tightening steps a governed run took.
    pub epsilon_tightenings: usize,
    /// Spread-preserving list truncations a governed run applied.
    pub list_truncations: usize,
    /// Poisoned (non-finite) candidates dropped by the sanitizer.
    pub poisoned_dropped: usize,
    /// Whether the run finished in panic-completion (best-so-far) mode.
    pub panic_completion: bool,
    /// Nodes whose pruned lists were replayed from the session solution
    /// cache instead of being recomputed (0 outside incremental runs).
    pub cache_hits: usize,
    /// Nodes the incremental engine had to recompute — the dirty set.
    /// Equals `nodes_processed` on the incremental path; 0 elsewhere.
    pub cache_misses: usize,
    /// Candidate nodes where the deterministic bound pass was skipped
    /// because the subtree probe had already disarmed it (the anchor
    /// invocations retired nothing).
    pub bound_skipped: usize,
}

impl DpStats {
    /// Fraction of generated solutions that pruning removed.
    #[must_use]
    pub fn prune_ratio(&self) -> f64 {
        if self.solutions_generated == 0 {
            return 0.0;
        }
        self.solutions_pruned as f64 / self.solutions_generated as f64
    }

    /// Whether the run gave up any fidelity to stay within budget.
    #[must_use]
    pub fn degraded(&self) -> bool {
        self.rule_fallbacks > 0
            || self.epsilon_tightenings > 0
            || self.list_truncations > 0
            || self.poisoned_dropped > 0
            || self.panic_completion
    }

    /// One-line attribution of where the run's time went — the
    /// phase-level companion to `runtime` used by the bench output.
    #[must_use]
    pub fn phase_summary(&self) -> String {
        format!(
            "wire {:.1}ms, merge {:.1}ms, prune {:.1}ms, buffering {:.1}ms, bounds {:.1}ms \
             (of {:.1}ms total; cache {}/{} hit/miss, {} bound-skipped)",
            self.wire_time.as_secs_f64() * 1e3,
            self.merge_time.as_secs_f64() * 1e3,
            self.prune_time.as_secs_f64() * 1e3,
            self.buffer_time.as_secs_f64() * 1e3,
            self.bound_time.as_secs_f64() * 1e3,
            self.runtime.as_secs_f64() * 1e3,
            self.cache_hits,
            self.cache_misses,
            self.bound_skipped,
        )
    }

    /// This record with every wall-clock field zeroed — counters only.
    ///
    /// Timings vary run to run even when the computation is bit-for-bit
    /// identical; the determinism suite compares `sans_times()` records.
    #[must_use]
    pub fn sans_times(mut self) -> Self {
        self.runtime = Duration::ZERO;
        self.merge_time = Duration::ZERO;
        self.wire_time = Duration::ZERO;
        self.prune_time = Duration::ZERO;
        self.buffer_time = Duration::ZERO;
        self.bound_time = Duration::ZERO;
        self.jobs_requested = 0;
        self.jobs_effective = 0;
        self
    }

    /// Accumulates another run's counters into this one (batch/parallel
    /// reduction): sums counts and times, maxes the peak list size, and
    /// ORs the panic flag. `runtime` is maxed, not summed — in a parallel
    /// reduction it reflects the longest worker.
    pub fn absorb(&mut self, other: &DpStats) {
        self.nodes_processed += other.nodes_processed;
        self.max_solutions_per_node = self
            .max_solutions_per_node
            .max(other.max_solutions_per_node);
        self.solutions_generated += other.solutions_generated;
        self.solutions_pruned += other.solutions_pruned;
        self.runtime = self.runtime.max(other.runtime);
        self.merge_time += other.merge_time;
        self.wire_time += other.wire_time;
        self.prune_time += other.prune_time;
        self.buffer_time += other.buffer_time;
        self.pruned_by_bound += other.pruned_by_bound;
        self.pruned_by_dominance += other.pruned_by_dominance;
        self.bound_time += other.bound_time;
        self.lishi_skipped += other.lishi_skipped;
        self.jobs_requested = self.jobs_requested.max(other.jobs_requested);
        self.jobs_effective = self.jobs_effective.max(other.jobs_effective);
        self.rule_fallbacks += other.rule_fallbacks;
        self.epsilon_tightenings += other.epsilon_tightenings;
        self.list_truncations += other.list_truncations;
        self.poisoned_dropped += other.poisoned_dropped;
        self.panic_completion |= other.panic_completion;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.bound_skipped += other.bound_skipped;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prune_ratio_handles_zero() {
        assert_eq!(DpStats::default().prune_ratio(), 0.0);
        let s = DpStats {
            solutions_generated: 10,
            solutions_pruned: 4,
            ..DpStats::default()
        };
        assert!((s.prune_ratio() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn degraded_reflects_any_counter() {
        assert!(!DpStats::default().degraded());
        assert!(DpStats {
            rule_fallbacks: 1,
            ..DpStats::default()
        }
        .degraded());
        assert!(DpStats {
            panic_completion: true,
            ..DpStats::default()
        }
        .degraded());
    }
}
