//! Parallel execution layer: the batch API ([`optimize_batch`]) and the
//! shard executor behind [`DpOptions::jobs`]. Hermetic std-only
//! threading (`std::thread::scope`) — no external runtime.
//!
//! # Threading model
//!
//! Two independent tiers, both on the one order-preserving pool
//! (`run_indexed`):
//!
//! * **Batch** ([`optimize_batch`]): independent requests (net + rule +
//!   budget) are pulled off a shared atomic cursor by a fixed worker
//!   pool. Result `i` always corresponds to request `i`, and each
//!   request runs with one DP worker, so a batch at any `jobs` is
//!   bit-identical to the same requests run in a serial loop.
//! * **Shards** ([`DpOptions::jobs`] > 1): one engine run fans its
//!   independent *shards* out to workers. A shard is the subtree of a
//!   cut node with no other cut below it: the hierarchical engine's own
//!   cuts ([`crate::hier::plan_cuts`]), or, for a flat run, two disjoint
//!   subtrees per worker (`flat_shard_cuts`). Each worker runs the
//!   unchanged per-node DP over one shard's postorder and, on a hier
//!   run, materializes the shard root's list. The calling thread then
//!   walks the whole postorder serially (`dp::run_walk`): it adopts each
//!   solved shard where the walk reaches it and processes every other
//!   node itself, so the hier splice, the frontier-cap halving and the
//!   chunk ledger see exactly the serial sequence of events.
//!
//! # Determinism contract and governor reconciliation
//!
//! Workers run under a probe supervisor: a frozen snapshot of the
//! governor (rule, epsilon, budget, clock origin) that never mutates
//! it. An event the real governor would have to account for — a list
//! over the solution cap, a poisoned candidate the sanitizer would
//! drop, a strict time or capacity breach, a live estimate of its own
//! past the soft memory limit — fails the shard instead. Each shard
//! also reports its live-byte profile: the peak of its own
//! lists' estimated bytes at any admission, and the bytes still live
//! at its end. Where the walk reaches a shard, it adopts the worker's
//! list only if the governor is still pristine and its live estimate
//! plus the shard's peak stays within the soft memory limit — exactly
//! the condition under which the serial run would have recorded no
//! event inside that subtree — and then charges the shard's end bytes.
//! From the first shard that fails either test, the walk is serial:
//! that shard and every later one are recomputed on the calling thread
//! under the real governor, which then records whatever the serial run
//! records (or returns the serial run's first error). Results,
//! counters, degradation events and hier reports are therefore
//! bit-identical to `jobs = 1` by construction.
//!
//! Runs whose governance depends on the clock or on the order of reads
//! stay serial from the start: fault injection, a scripted [`Clock`],
//! a cancellation token or watchdog, or a governed time budget.
//!
//! [`Clock`]: crate::governor::Clock

use crate::dp::{
    fallback_cascade, materialize_list, optimize_governed_detailed, optimize_with_sizing,
    process_node, take_children, DpOptions, EngineInterrupt, Finished, GovernedResult, RuleHandle,
    RunControls, RunCtx, SolPool, Supervisor, WireSizing,
};
use crate::error::InsertionError;
use crate::governor::{is_sound, solution_footprint, Admission, Budget, Degradation, Governor};
use crate::hier::HierOptions;
use crate::metrics::DpStats;
use crate::prune::PruningRule;
use crate::solution::StatSolution;
use std::collections::BinaryHeap;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use varbuf_rctree::{NodeId, RoutingTree};
use varbuf_variation::{ProcessModel, VariationMode};

/// The machine's available parallelism (`1` when undetectable) — what
/// the CLI's `--jobs 0` resolves to.
#[must_use]
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// One independent optimization request for [`optimize_batch`].
///
/// Strict requests (`strict == true`) take their limits from
/// `options` (the legacy caps) and surface breaches as typed errors;
/// governed requests degrade within `budget` and always carry a
/// [`Degradation`] report.
pub struct BatchRequest<'a> {
    /// The net to optimize.
    pub tree: &'a RoutingTree,
    /// Process-variation model.
    pub model: &'a ProcessModel,
    /// Variation categories the solution forms carry.
    pub mode: VariationMode,
    /// Primary pruning rule; governed requests start their fallback
    /// cascade here.
    pub rule: Arc<dyn PruningRule>,
    /// Wire-width choice set.
    pub sizing: WireSizing,
    /// Engine knobs (including intra-tree `jobs`, forced to 1 inside a
    /// multi-worker batch).
    pub options: DpOptions,
    /// Resource budget for governed requests.
    pub budget: Budget,
    /// Strict (typed errors on breach) vs governed (degrade) policy.
    pub strict: bool,
    /// When set, governed requests route through the hierarchical
    /// engine ([`crate::hier::optimize_hier`]) with these decomposition
    /// knobs; strict requests ignore it. This is how a forest of
    /// clock subtrees shards across the batch pool at full-chip scale.
    pub hier: Option<HierOptions>,
}

impl<'a> BatchRequest<'a> {
    /// A governed request with default sizing, options, and an
    /// unlimited budget.
    #[must_use]
    pub fn new(
        tree: &'a RoutingTree,
        model: &'a ProcessModel,
        mode: VariationMode,
        rule: Arc<dyn PruningRule>,
    ) -> Self {
        Self {
            tree,
            model,
            mode,
            rule,
            sizing: WireSizing::single(),
            options: DpOptions::default(),
            budget: Budget::unlimited(),
            strict: false,
            hier: None,
        }
    }

    /// Routes this request through the hierarchical engine.
    #[must_use]
    pub fn with_hier(mut self, hier: HierOptions) -> Self {
        self.hier = Some(hier);
        self
    }

    fn run(&self, inner_jobs: Option<usize>) -> Result<GovernedResult, InsertionError> {
        let mut options = self.options;
        if let Some(jobs) = inner_jobs {
            options.jobs = jobs;
        }
        if self.strict {
            let result = optimize_with_sizing(
                self.tree,
                self.model,
                self.mode,
                self.rule.as_ref(),
                &self.sizing,
                &options,
            )?;
            let name = self.rule.name().to_owned();
            return Ok(GovernedResult {
                result,
                degradation: Degradation {
                    initial_rule: name.clone(),
                    final_rule: name,
                    ..Degradation::default()
                },
            });
        }
        if let Some(hier) = &self.hier {
            return crate::hier::optimize_hier(
                self.tree,
                self.model,
                self.mode,
                fallback_cascade(Arc::clone(&self.rule)),
                &self.sizing,
                &options,
                hier,
                &self.budget,
                RunControls::default(),
            )
            .map(crate::hier::HierResult::into_governed);
        }
        optimize_governed_detailed(
            self.tree,
            self.model,
            self.mode,
            fallback_cascade(Arc::clone(&self.rule)),
            &self.sizing,
            &options,
            &self.budget,
            RunControls::default(),
        )
    }
}

/// Order-preserving parallel map over `0..n`: result `i` is `f(i)`,
/// independent of `jobs`. The shared-atomic-cursor worker pool behind
/// both [`optimize_batch`] and the service layer's request drain.
pub(crate) fn run_indexed<R, F>(n: usize, jobs: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let jobs = jobs.max(1).min(n.max(1));
    if jobs == 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        let out = f(i);
        *slots[i].lock().expect("result slot") = Some(out);
    };
    std::thread::scope(|s| {
        // `work` only captures shared references, so it is `Copy` and
        // each spawn gets its own copy.
        for _ in 1..jobs {
            s.spawn(work);
        }
        work();
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot")
                .expect("every index completed")
        })
        .collect()
}

/// Fans independent optimization requests across `jobs` workers.
///
/// Result `i` always corresponds to `requests[i]`. With `jobs > 1`
/// each request runs with one intra-tree worker (the batch already
/// saturates the pool; nesting would oversubscribe), so the output is
/// bit-identical to running the requests in a serial loop.
/// `jobs` beyond the host's available parallelism is clamped (an
/// oversubscribed pool only adds contention); use
/// [`optimize_batch_forced`] to probe the pool machinery regardless.
#[must_use]
pub fn optimize_batch(
    requests: &[BatchRequest<'_>],
    jobs: usize,
) -> Vec<Result<GovernedResult, InsertionError>> {
    optimize_batch_with(requests, jobs.min(default_jobs()))
}

/// [`optimize_batch`] without the available-parallelism clamp: spawns
/// exactly `min(jobs, requests.len())` workers even on a host with
/// fewer hardware threads. The output is bit-identical to
/// [`optimize_batch`] either way (order-preserving result slots); this
/// exists so determinism tests and pool diagnostics exercise the
/// multi-worker path on any machine.
#[must_use]
pub fn optimize_batch_forced(
    requests: &[BatchRequest<'_>],
    jobs: usize,
) -> Vec<Result<GovernedResult, InsertionError>> {
    optimize_batch_with(requests, jobs)
}

fn optimize_batch_with(
    requests: &[BatchRequest<'_>],
    jobs: usize,
) -> Vec<Result<GovernedResult, InsertionError>> {
    let jobs = jobs.max(1).min(requests.len().max(1));
    if jobs == 1 {
        return requests.iter().map(|r| r.run(None)).collect();
    }
    run_indexed(requests.len(), jobs, |i| requests[i].run(Some(1)))
}

/// The probe snapshot shared by one run's shard workers.
struct ProbeShared {
    /// Governor-relative elapsed time at fan-out…
    base_elapsed: Duration,
    /// …plus this stopwatch.
    start: Instant,
    governed: bool,
    /// The strict run's abort limit (governed runs with a finite time
    /// budget never fan out, so theirs is unlimited).
    time_limit: Duration,
    /// The candidate count past which the governor would act: the soft
    /// cap when governed, the strict abort cap otherwise.
    max_solutions: usize,
    /// The soft memory limit: a shard whose own live estimate passes
    /// it can never be adopted ([`Shard::adoptable`]).
    mem_limit: usize,
    /// Lowest failed shard index (`usize::MAX` = none): the walk goes
    /// serial there, so later shards stop. A hint that publishes no
    /// data, so `Relaxed`: a stale read wastes work, never a result.
    first_failed: AtomicUsize,
}

/// One shard worker's supervisor: fails the shard
/// ([`EngineInterrupt::Pressure`]) at the first event the real governor
/// would have to account for, and tracks the shard's own live-byte
/// estimate as [`Governor::note_memory`] would.
struct ProbeSupervisor<'r, 's> {
    shared: &'s ProbeShared,
    shard: usize,
    rule: RuleHandle<'r>,
    epsilon: f64,
    live: usize,
    /// Highest `live` seen by any admission.
    peak: usize,
}

impl<'r> Supervisor<'r> for ProbeSupervisor<'r, '_> {
    fn rule(&self) -> RuleHandle<'r> {
        self.rule.clone()
    }

    fn epsilon(&self) -> f64 {
        self.epsilon
    }

    fn is_governed(&self) -> bool {
        self.shared.governed
    }

    fn panicking(&self) -> bool {
        false
    }

    fn check_time(&mut self) -> Result<(), EngineInterrupt> {
        let superseded = self.shared.first_failed.load(Ordering::Relaxed) < self.shard;
        let elapsed = self.shared.base_elapsed + self.shared.start.elapsed();
        if superseded || elapsed > self.shared.time_limit {
            return Err(EngineInterrupt::Pressure);
        }
        Ok(())
    }

    fn admit(&mut self, _node: NodeId, solutions: usize) -> Result<Admission, EngineInterrupt> {
        self.peak = self.peak.max(self.live);
        if solutions > self.shared.max_solutions || self.live > self.shared.mem_limit {
            return Err(EngineInterrupt::Pressure);
        }
        Ok(Admission::Ok)
    }

    fn sanitize(
        &mut self,
        _node: NodeId,
        sols: &mut Vec<StatSolution>,
    ) -> Result<(), EngineInterrupt> {
        // A drop Governor::sanitize would make must be recorded by it.
        let sound = sols.iter().all(is_sound);
        sound.then_some(()).ok_or(EngineInterrupt::Pressure)
    }

    fn note_memory(&mut self, stored: &[StatSolution], freed: usize) {
        let added: usize = stored.iter().map(solution_footprint).sum();
        self.live = self.live.saturating_add(added).saturating_sub(freed);
    }
}

/// Each shard's postorder span, with its outcome.
pub(crate) type SolvedShards = Vec<(Range<usize>, Option<Shard>)>;

/// A shard solved on a worker.
pub(crate) struct Shard {
    /// The shard root's list (materialized on hier runs).
    pub(crate) list: Vec<StatSolution>,
    pub(crate) stats: DpStats,
    /// Peak of the shard's own live-byte estimate at any admission.
    peak_bytes: usize,
    /// The shard's live bytes at its end: its root list's footprint.
    pub(crate) end_bytes: usize,
}

impl Shard {
    /// Whether the serial run, reaching this shard with `governor` in
    /// its current state, would have recorded no event inside it.
    pub(crate) fn adoptable(&self, governor: &Governor) -> bool {
        governor.pristine()
            && governor.live_bytes().saturating_add(self.peak_bytes)
                <= governor.budget().soft_mem_bytes
    }
}

/// Every subtree's node count, in one sweep down the topological ids.
fn subtree_sizes(tree: &RoutingTree) -> Vec<u32> {
    let mut size = vec![1; tree.len()];
    for i in (1..tree.len()).rev() {
        let parent = tree.node(NodeId(i as u32)).parent.expect("non-root");
        size[parent.index()] += size[i];
    }
    size
}

/// The shard plan of a flat run, whose cuts only mark where shards end:
/// the largest subtree is split at its root until there are two per
/// worker or it has under 16 nodes. More shards only add serial split
/// nodes and per-shard pool warm-up (EXPERIMENTS.md).
pub(crate) fn flat_shard_cuts(tree: &RoutingTree, jobs: usize) -> Vec<bool> {
    let size = subtree_sizes(tree);
    let mut pieces = BinaryHeap::from([(size[0], tree.root())]);
    while let Some(&(n, id)) = pieces.peek() {
        if pieces.len() >= 2 * jobs || n < 16 {
            break;
        }
        pieces.pop();
        pieces.extend(tree.node(id).children.iter().map(|&c| (size[c.index()], c)));
    }
    let mut cuts = vec![false; tree.len()];
    for (_, id) in pieces {
        cuts[id.index()] = id != tree.root();
    }
    cuts
}

/// Postorder spans of the shards: the subtrees of the cut nodes with no
/// cut below them, in walk order.
fn shard_spans(tree: &RoutingTree, order: &[NodeId], cuts: &[bool]) -> Vec<Range<usize>> {
    let size = subtree_sizes(tree);
    let mut cut_below = vec![false; tree.len()];
    let mut spans = Vec::new();
    for (i, &id) in order.iter().enumerate() {
        for &c in &tree.node(id).children {
            cut_below[id.index()] |= cuts[c.index()] || cut_below[c.index()];
        }
        if cuts[id.index()] && !cut_below[id.index()] {
            spans.push(i + 1 - size[id.index()] as usize..i + 1);
        }
    }
    spans
}

/// Fans the shards between `cuts` out to up to `jobs` workers, or to
/// none when the run's governance depends on the clock or on the order
/// of reads (see the module docs). Returns each shard's postorder span
/// with its outcome — `None` for a failed shard, or one past the first
/// failure that was not worth finishing — and the worker count used.
#[allow(clippy::too_many_arguments)]
pub(crate) fn solve_shards(
    ctx: &RunCtx<'_>,
    governor: &Governor,
    static_rule: Option<&dyn PruningRule>,
    order: &[NodeId],
    cuts: &[bool],
    jobs: usize,
    faults: bool,
    materialize: bool,
) -> (SolvedShards, usize) {
    let budget = governor.budget();
    let governed = governor.is_governed();
    let timed =
        governed && (budget.soft_time != Duration::MAX || budget.hard_time != Duration::MAX);
    let serial = faults || timed || governor.cancellable() || !governor.uses_real_clock();
    let spans = if jobs > 1 && !serial {
        shard_spans(ctx.tree, order, cuts)
    } else {
        Vec::new()
    };
    let workers = jobs.min(spans.len());
    if workers <= 1 {
        return (Vec::new(), 1);
    }
    let shared = ProbeShared {
        base_elapsed: governor.elapsed(),
        start: Instant::now(),
        governed,
        time_limit: budget.hard_time,
        max_solutions: if governed {
            budget.soft_solutions
        } else {
            budget.hard_solutions
        },
        mem_limit: budget.soft_mem_bytes,
        first_failed: AtomicUsize::new(usize::MAX),
    };
    let rule = match static_rule {
        Some(r) => RuleHandle::Static(r),
        None => RuleHandle::Shared(governor.active_rule()),
    };
    let epsilon = governor.epsilon();
    let solved = run_indexed(spans.len(), workers, |k| {
        let mut sup = ProbeSupervisor {
            shared: &shared,
            shard: k,
            rule: rule.clone(),
            epsilon,
            live: 0,
            peak: 0,
        };
        let shard = solve_shard(ctx, &mut sup, &order[spans[k].clone()], materialize);
        if shard.is_none() {
            shared.first_failed.fetch_min(k, Ordering::Relaxed);
        }
        shard
    });
    (spans.into_iter().zip(solved).collect(), workers)
}

fn solve_shard(
    ctx: &RunCtx<'_>,
    sup: &mut ProbeSupervisor<'_, '_>,
    order: &[NodeId],
    materialize: bool,
) -> Option<Shard> {
    let mut pool = SolPool::default();
    let mut stats = DpStats::default();
    let mut stack = Vec::new();
    for &id in order {
        let children = take_children(&mut stack, ctx.tree.node(id).children.len());
        let sols = process_node(ctx, sup, id, children, None, &mut pool, &mut stats).ok()?;
        stack.push(Finished::Live(sols));
    }
    let mut list = stack.pop()?.into_vec();
    if materialize {
        materialize_list(&mut list, sup.epsilon, &mut stats);
    }
    Some(Shard {
        list,
        stats,
        peak_bytes: sup.peak,
        end_bytes: sup.live,
    })
}
