//! Deterministic upstream bounds for bound-guided pruning.
//!
//! Li & Shi's *predictive pruning* observation, adapted to the
//! statistical DP: long before the dominance sweep compares candidates
//! against each other, most of them can be proven incapable of ever
//! becoming the root winner — because everything that happens *above* a
//! node can only lower a candidate's RAT by a computable minimum amount.
//!
//! For a candidate `(L, T)` held at node `v`, every upstream DP step is
//! monotone in the candidate's favorables:
//!
//! * the wire edge directly above `v` subtracts `r·(c/2 + L)` from `T`
//!   before any buffer can decouple `L` (buffers are offered at nodes,
//!   after the lift), and wire sizing can shrink `r` at most to
//!   `r / w_max`;
//! * every other edge on the root path subtracts at least its own
//!   `r·c/2` (charging its own capacitance through its own resistance is
//!   unavoidable, and `r·c` is width-invariant: `r/w · c·w = r·c`);
//! * buffers subtract positive delays, merges take a min against a
//!   sibling and add sibling load, and the driver subtracts
//!   `R_d·L_root ≥ 0`.
//!
//! So the root RAT of **any** completion through the candidate is at
//! most `T − up_res(v)·L − up_delay(v)`, where `up_res(v)` is the
//! width-maximized resistance of the edge above `v` (the driver
//! resistance at the root) and `up_delay(v)` is the accumulated `r·c/2`
//! of the root path. At the statistical level the same bound holds for
//! the *mean* (wire/buffer ops are exact on means, Clark's min mean is
//! ≤ either operand's mean, and both root-selection keys are ≤ the
//! mean), so a candidate whose optimistic envelope
//! `μ_T + k·σ_T − up_res·max(μ_L − k·σ_L, 0)` falls below an *anchor* —
//! a proven lower bound on the winner's selection key — can be retired
//! without ever being merged, pruned, or lifted again.
//!
//! The anchor is built in two stages. Two cheap deterministic runs —
//! one at the process mean and one at a conservative corner (buffer
//! capacitance and intrinsic delay degraded by the run's variation
//! budgets, see [`corner_library`]) — give a coarse floor,
//! `min(mean, corner)`. Then the mean run's winning assignment is
//! replayed through the *statistical* operators ([`stat_anchor`]): the
//! resulting root form's selection key is the key of one concrete,
//! reachable candidate, so the true winner — which maximizes that key —
//! can only sit at or above it. That replayed key is usually within
//! `z·σ` of the winner and far tighter than the corner floor, which
//! over-prices every device at a simultaneous `k·σ` excursion. The
//! anchor takes the better (larger) of the two; the 336-case oracle in
//! `tests/bounds_oracle.rs` asserts the resulting filter is
//! output-invariant bit for bit.

use crate::det::optimize_deterministic;
use crate::dp::{RootSelection, RunCtx, WireSizing};
use crate::ops::{
    buffer_extend_stat_into, driver_rat_stat, merge_pair_stat_into, wire_extend_stat_in_place,
};
use crate::solution::StatSolution;
use std::cell::RefCell;
use std::sync::Arc;
use varbuf_rctree::tree::NodeKind;
use varbuf_rctree::{NodeId, RoutingTree};
use varbuf_stats::CanonicalForm;
use varbuf_variation::{BufferLibrary, BufferType, BufferTypeId, ProcessModel, VariationMode};

/// Per-node upstream bounds plus the run's anchor, cached in the DP's
/// `RunCtx` and shared read-only by every worker.
/// How many `(threshold, resistance)` states each node retains. Upstream
/// completions form a concave family of linear charges in the
/// candidate's load; three lines (few upstream buffers / balanced / many
/// upstream buffers) approximate its lower envelope well, and unused
/// slots are padded with an infinite threshold that can never win the
/// min.
const BOUND_STATES: usize = 3;

#[derive(Debug)]
pub(crate) struct DetBounds {
    /// `node.index()` → up to [`BOUND_STATES`] linear retirement tests
    /// `(threshold, resistance)`: a candidate `(L, T)` can only reach
    /// the root winner through SOME upstream completion class, and each
    /// class `j` guarantees `root ≤ T − resistanceⱼ·L −
    /// (thresholdⱼ − anchor)`. The candidate survives if its optimistic
    /// envelope clears ANY class: `rat_hi − resistanceⱼ·load_lo ≥
    /// thresholdⱼ` for some `j`.
    states: Vec<[(f64, f64); BOUND_STATES]>,
    /// The envelope width, in σ, from [`crate::dp::DpOptions::bound_k`].
    k: f64,
}

impl DetBounds {
    /// The envelope half-width, in σ, the table was built for.
    #[inline]
    pub(crate) fn k(&self) -> f64 {
        self.k
    }

    /// The envelope-endpoint form of the bound test: `load_lo` is the
    /// candidate's optimistic (lower) load excursion, `rat_hi` its
    /// optimistic (upper) RAT excursion — both from
    /// `CanonicalForm::envelope(k)` with this table's `k`.
    /// Every completion above `node` belongs to one upstream class (how
    /// its buffers split the root path), and every class is covered by a
    /// stored state whose linear charge never exceeds the class's real
    /// delay. The candidate survives if it clears ANY state; it is
    /// retired only when every state provably falls short.
    #[inline]
    pub(crate) fn keeps_envelope(&self, node: NodeId, load_lo: f64, rat_hi: f64) -> bool {
        let load = load_lo.max(0.0);
        // Retire only on a definite strict shortfall of EVERY state;
        // `>= threshold` and NaN keep, so poisoned solutions stay
        // visible to the sanitizer.
        !self.states[node.index()]
            .iter()
            .all(|&(threshold, resistance)| rat_hi - resistance * load < threshold)
    }

    /// Diagnostic: how far the candidate's optimistic envelope sits
    /// above the retirement cutoff (negative means it would be retired).
    #[inline]
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn margin(&self, node: NodeId, load_lo: f64, rat_hi: f64) -> f64 {
        let load = load_lo.max(0.0);
        self.states[node.index()]
            .iter()
            .map(|&(threshold, resistance)| rat_hi - resistance * load - threshold)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Whether the candidate with the given load/RAT moments can still
    /// reach the root winner's selection key — `false` means it is
    /// provably non-optimal and may be retired. (The hot path computes
    /// the envelope endpoints itself; this moment form serves the tests.)
    #[inline]
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn keeps(
        &self,
        node: NodeId,
        load_mean: f64,
        load_sigma: f64,
        rat_mean: f64,
        rat_sigma: f64,
    ) -> bool {
        self.keeps_envelope(
            node,
            load_mean - self.k * load_sigma,
            rat_mean + self.k * rat_sigma,
        )
    }
}

/// The conservative corner of `model`'s buffer library for `mode`: every
/// type's capacitance and intrinsic delay degraded by `k·σ` of the
/// variation categories the mode activates, plus the full systematic
/// intra-die amplitude for within-die runs. Resistance stays nominal
/// (the paper keeps `R_b` deterministic).
fn corner_library(model: &ProcessModel, mode: VariationMode, k: f64) -> BufferLibrary {
    let budgets = model.budgets();
    let (random_span, systematic) = match mode {
        VariationMode::Nominal => (0.0, 0.0),
        VariationMode::DieToDie => (budgets.random + budgets.inter_die, 0.0),
        VariationMode::WithinDie => (
            budgets.random + budgets.inter_die + budgets.intra_die,
            budgets.systematic,
        ),
    };
    let types = model
        .library()
        .iter()
        .map(|(_, t)| BufferType {
            name: t.name.clone(),
            capacitance: t.capacitance * (1.0 + k * random_span * t.cap_sensitivity + systematic),
            intrinsic_delay: t.intrinsic_delay
                * (1.0 + k * random_span * t.delay_sensitivity + systematic),
            resistance: t.resistance,
            cap_sensitivity: t.cap_sensitivity,
            delay_sensitivity: t.delay_sensitivity,
            max_load: t.max_load,
        })
        .collect();
    BufferLibrary::new(types)
}

/// Replays a fixed buffer assignment (every wire at the sizing table's
/// first width) through the statistical operators and returns the root
/// selection key, or `None` when the assignment is not reachable in the
/// statistical decision space (a buffer's mean load exceeds its
/// `max_load` once the variation-shifted device forms are priced in) or
/// the key comes out non-finite.
///
/// Because the DP's winner *maximizes* the selection key over reachable
/// candidates, the replayed key is a lower bound on the winner's key —
/// the tight anchor the corner run cannot provide.
fn stat_anchor(
    ctx: &RunCtx<'_>,
    assignment: &[(NodeId, BufferTypeId)],
    selection: RootSelection,
) -> Option<f64> {
    let tree = ctx.tree;
    let mut buf_at = vec![usize::MAX; tree.len()];
    for &(n, ty) in assignment {
        buf_at[n.index()] = ty.0;
    }
    let mut sols: Vec<Option<StatSolution>> = vec![None; tree.len()];
    for id in tree.postorder() {
        let node = tree.node(id);
        let mut sol = match node.kind {
            NodeKind::Sink {
                capacitance,
                required_arrival,
            } => StatSolution::new(
                CanonicalForm::constant(capacitance),
                CanonicalForm::constant(required_arrival),
            ),
            NodeKind::Internal | NodeKind::Source { .. } => {
                let mut acc: Option<StatSolution> = None;
                for &c in &node.children {
                    let mut child = sols[c.index()].take()?;
                    wire_extend_stat_in_place(&mut child, ctx.segment(c, 0));
                    acc = Some(match acc {
                        None => child,
                        Some(a) => {
                            let mut merged = StatSolution::new(
                                CanonicalForm::constant(0.0),
                                CanonicalForm::constant(0.0),
                            );
                            merge_pair_stat_into(&mut merged, &a, &child);
                            merged
                        }
                    });
                }
                acc?
            }
        };
        let ty = buf_at[id.index()];
        if ty != usize::MAX {
            let bt = ctx.model.library().get(BufferTypeId(ty));
            if bt.max_load.is_some_and(|m| sol.load.mean() > m) {
                return None;
            }
            let ty = BufferTypeId(ty);
            let cap_form = ctx.model.buffer_cap_form(ty, id, node.location, ctx.mode);
            let delay_form = ctx.model.buffer_delay_form(ty, id, node.location, ctx.mode);
            let mut buffered =
                StatSolution::new(CanonicalForm::constant(0.0), CanonicalForm::constant(0.0));
            buffer_extend_stat_into(
                &mut buffered,
                &sol,
                &cap_form,
                &delay_form,
                bt.resistance,
                id,
                ty,
            );
            sol = buffered;
        }
        sols[id.index()] = Some(sol);
    }
    let root = tree.root();
    let driver_resistance = match tree.node(root).kind {
        NodeKind::Source { driver_resistance } => driver_resistance,
        _ => return None,
    };
    let sol = sols[root.index()].take()?;
    let key = selection.key(&driver_rat_stat(&sol, driver_resistance));
    key.is_finite().then_some(key)
}

/// Builds the bounds for one run: two deterministic DPs plus one
/// statistical replay for the anchor, then a parents-before-children
/// sweep for `up_res`/`up_delay`. Returns `None` when the deterministic
/// engine cannot run the tree (the statistical engine will then surface
/// its own validation error) or a bound came out non-finite — the
/// caller simply runs unbounded.
fn compute(
    ctx: &RunCtx<'_>,
    mode: VariationMode,
    k: f64,
    selection: RootSelection,
) -> Option<Arc<DetBounds>> {
    let tree = ctx.tree;
    let model = ctx.model;
    let sizing = ctx.sizing;
    let mean = optimize_deterministic(tree, model.library()).ok()?;
    let corner_best = optimize_deterministic(tree, &corner_library(model, mode, k))
        .ok()?
        .root_rat;
    // Coarse floor: the corner run prices EVERY device at its
    // simultaneous k·σ-worst excursion, which sits well below the
    // winner's selection key (a z·σ excursion of the aggregated root
    // form, z ≤ 2.33 for the yield selections in use, against k ≥ 3 per
    // device) plus the Clark-min mean drift the statistical forms pick
    // up. With zero variation the corner equals the mean and the floor
    // is exactly the shared deterministic optimum, which the winner
    // chain meets with equality (the bound test keeps on ≥).
    let floor = mean.root_rat.min(corner_best);
    // Tight anchor: the mean run's assignment replayed statistically is
    // one reachable candidate, so its key lower-bounds the winner's by
    // construction. A relative guard band absorbs ulp-level operand
    // ordering differences against the engine's own evaluation of the
    // same decisions. The 336-case oracle pins the combination
    // empirically: bounds on/off are bit-identical.
    let anchor = match stat_anchor(ctx, &mean.assignment, selection) {
        Some(key) => (key - (key.abs() * 1e-9 + 1e-9)).max(floor),
        None => floor,
    };
    if !anchor.is_finite() {
        return None;
    }

    let w_max = sizing
        .widths()
        .iter()
        .copied()
        .fold(1.0_f64, f64::max)
        .max(1e-12);
    let w_min = sizing
        .widths()
        .iter()
        .copied()
        .fold(f64::INFINITY, f64::min);
    let wire = tree.wire();
    let order = tree.postorder();

    // Per-node load floor: the smallest mean load ANY decision sequence
    // can present at a node — either a buffer's input capacitance (the
    // cheapest device, at its most favorable systematic shift) or the
    // merged wire-plus-child floors at the narrowest width. Charging
    // each upstream edge `r·Lfloor` on top of its `r·c/2` recovers the
    // load-dependent share of the unavoidable path delay, which on
    // finely subdivided nets dwarfs the quadratic-shrinking `r·c/2`
    // terms. (Buffer intrinsic delays stay uncharged: a completion with
    // zero upstream buffers is always reachable.)
    // Device floors: the smallest mean capacitance, intrinsic delay and
    // output resistance ANY buffer can present, at its most favorable
    // systematic shift (only a within-die run shifts nominals, and the
    // pattern reaches `−systematic`; resistance stays deterministic).
    let sys = match mode {
        VariationMode::WithinDie => model.budgets().systematic,
        _ => 0.0,
    };
    let lib_min = |f: fn(&BufferType) -> f64| {
        model
            .library()
            .iter()
            .map(|(_, t)| f(t))
            .fold(f64::INFINITY, f64::min)
    };
    let min_buf_cap = (lib_min(|t| t.capacitance) * (1.0 - sys)).max(0.0);
    let min_buf_delay = (lib_min(|t| t.intrinsic_delay) * (1.0 - sys)).max(0.0);
    let min_buf_res = lib_min(|t| t.resistance).max(0.0);

    // Per-node load floor: the smallest mean load ANY decision sequence
    // can present at a node — either a buffer's input capacitance or the
    // merged wire-plus-child floors at the narrowest width.
    let mut lfloor = vec![0.0_f64; tree.len()];
    for &id in &order {
        let node = tree.node(id);
        let mut floor = match node.kind {
            NodeKind::Sink { capacitance, .. } => capacitance,
            NodeKind::Internal | NodeKind::Source { .. } => node
                .children
                .iter()
                .map(|&c| {
                    wire.segment(tree.node(c).edge_length).capacitance * w_min + lfloor[c.index()]
                })
                .sum(),
        };
        if node.is_candidate {
            floor = floor.min(min_buf_cap);
        }
        lfloor[id.index()] = floor.max(0.0);
    }
    // `childmass(p)`: the wire-plus-floor mass ALL of p's children merge
    // into it at minimum width — transitions subtract the path child's
    // floor to get the mass a lifted candidate joins (its own edge cap
    // plus the sibling floors).
    let childmass: Vec<f64> = (0..tree.len())
        .map(|i| {
            tree.node(NodeId(i as u32))
                .children
                .iter()
                .map(|&c| {
                    wire.segment(tree.node(c).edge_length).capacitance * w_min + lfloor[c.index()]
                })
                .sum()
        })
        .collect();

    let root = tree.root();
    let driver_resistance = match tree.node(root).kind {
        NodeKind::Source { driver_resistance } => driver_resistance,
        _ => return None,
    };

    // Preorder state DP. A state `(threshold, resistance)` at node `v`
    // covers a class of upstream completions and certifies
    // `root_mean ≤ μ_T − resistance·μ_L − (threshold − anchor)` for any
    // candidate in that class. Walking parent → child, each class either
    //
    // * keeps the candidate undecoupled: the joined wire/sibling mass
    //   crosses everything above the parent (`+R·mass`), and the child
    //   edge's resistance stacks onto the load coefficient; or
    // * inserts a buffer at the parent (candidate nodes only): one
    //   minimum intrinsic delay, the buffer's floor input cap crossing
    //   the resistance above, and the merged mass crossing the buffer's
    //   floor output resistance — which then becomes the load's new,
    //   small coefficient.
    //
    // Dominated states are dropped (sound: a state with smaller
    // threshold AND resistance charges less for every load); overflow
    // beyond BOUND_STATES is merged pairwise by component-wise min
    // (sound: the merged line under-charges both classes).
    let mut states: Vec<[(f64, f64); BOUND_STATES]> =
        vec![[(f64::INFINITY, 0.0); BOUND_STATES]; tree.len()];
    states[root.index()][0] = (anchor, driver_resistance);
    let mut scratch: Vec<(f64, f64)> = Vec::with_capacity(2 * BOUND_STATES);
    for &id in order.iter().rev() {
        let p = id.index();
        let parent_is_candidate = tree.node(id).is_candidate;
        let parent_states = states[p];
        for &c in &tree.node(id).children {
            let seg = wire.segment(tree.node(c).edge_length);
            let i = c.index();
            let half = seg.resistance * seg.capacitance * 0.5;
            let edge_res = seg.resistance / w_max;
            let mass = childmass[p] - lfloor[i];
            scratch.clear();
            for &(threshold, resistance) in &parent_states {
                if !threshold.is_finite() {
                    continue;
                }
                // Undecoupled: the mass crosses everything above.
                scratch.push((threshold + half + resistance * mass, resistance + edge_res));
                // Decoupled at the parent: pay the device floors, reset
                // the load coefficient to the buffer's output
                // resistance.
                if parent_is_candidate {
                    scratch.push((
                        threshold
                            + half
                            + min_buf_delay
                            + resistance * min_buf_cap
                            + min_buf_res * mass,
                        min_buf_res + edge_res,
                    ));
                }
            }
            // Pareto sweep: sort by threshold, keep states whose
            // resistance strictly improves on everything cheaper.
            scratch.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut kept = 0usize;
            for j in 0..scratch.len() {
                if kept == 0 || scratch[j].1 < scratch[kept - 1].1 {
                    scratch[kept] = scratch[j];
                    kept += 1;
                }
            }
            scratch.truncate(kept);
            // Merge-down to capacity: fold the adjacent pair that loses
            // the least envelope area into its component-wise min.
            while scratch.len() > BOUND_STATES {
                let mut best = 0usize;
                let mut best_area = f64::INFINITY;
                for j in 0..scratch.len() - 1 {
                    let area =
                        (scratch[j + 1].0 - scratch[j].0) * (scratch[j].1 - scratch[j + 1].1);
                    if area < best_area {
                        best_area = area;
                        best = j;
                    }
                }
                scratch[best] = (scratch[best].0, scratch[best + 1].1);
                scratch.remove(best + 1);
            }
            for (slot, &s) in states[i].iter_mut().zip(scratch.iter()) {
                *slot = s;
            }
        }
    }
    if states
        .iter()
        .flatten()
        .any(|&(t, r)| t.is_nan() || !r.is_finite())
    {
        return None;
    }
    Some(Arc::new(DetBounds { states, k }))
}

/// How many `(tree, model, mode, sizing, k)` combinations the per-thread
/// memo retains — enough for a bench or sweep revisiting the same net
/// without letting a multi-net batch pin every table.
const BOUNDS_CACHE_CAP: usize = 4;

thread_local! {
    /// Per-thread memo of [`compute`] results. The two deterministic DPs
    /// cost ~1/8 of a statistical run; sweeps, yield re-evaluation and
    /// bench iterations revisit the same net many times, and the memo
    /// hands every repeat the identical `Arc`'d table. Keyed by the full
    /// input content (tree structure and electricals, library, budgets,
    /// mode, widths, k), so a hit is exactly a recompute.
    static BOUNDS_CACHE: RefCell<Vec<(Vec<u64>, Arc<DetBounds>)>> = const { RefCell::new(Vec::new()) };
}

/// The complete content signature of a bounds computation. Folding the
/// inputs into bit patterns (not hashes of hashes) keeps equality exact:
/// two signatures match only if every float and every topology entry is
/// bitwise identical.
fn signature(
    tree: &RoutingTree,
    model: &ProcessModel,
    mode: VariationMode,
    sizing: &WireSizing,
    k: f64,
    selection: RootSelection,
) -> Vec<u64> {
    let mut sig = Vec::with_capacity(4 * tree.len() + 8 * model.library().len() + 16);
    sig.push(tree.len() as u64);
    sig.push(mode as u64);
    sig.push(k.to_bits());
    match selection {
        RootSelection::MeanRat => sig.push(u64::MAX - 1),
        RootSelection::YieldRat(y) => {
            sig.push(u64::MAX);
            sig.push(y.to_bits());
        }
    }
    let wire = tree.wire();
    sig.push(wire.res_per_um.to_bits());
    sig.push(wire.cap_per_um.to_bits());
    for &w in sizing.widths() {
        sig.push(w.to_bits());
    }
    let budgets = model.budgets();
    sig.extend([
        budgets.random.to_bits(),
        budgets.inter_die.to_bits(),
        budgets.intra_die.to_bits(),
        budgets.systematic.to_bits(),
    ]);
    for (_, t) in model.library().iter() {
        sig.extend([
            t.capacitance.to_bits(),
            t.intrinsic_delay.to_bits(),
            t.resistance.to_bits(),
            t.cap_sensitivity.to_bits(),
            t.delay_sensitivity.to_bits(),
            t.max_load.unwrap_or(f64::NAN).to_bits(),
        ]);
    }
    for i in 0..tree.len() {
        let node = tree.node(NodeId(i as u32));
        sig.push(node.edge_length.to_bits());
        sig.push(u64::from(node.is_candidate));
        match node.kind {
            NodeKind::Sink {
                capacitance,
                required_arrival,
            } => sig.extend([1, capacitance.to_bits(), required_arrival.to_bits()]),
            NodeKind::Internal => sig.push(2),
            NodeKind::Source { driver_resistance } => sig.extend([3, driver_resistance.to_bits()]),
        }
        for &c in &node.children {
            sig.push(u64::from(c.0));
        }
    }
    sig
}

/// The memoized entry point the DP engine calls once per run.
pub(crate) fn det_bounds(
    ctx: &RunCtx<'_>,
    mode: VariationMode,
    k: f64,
    selection: RootSelection,
) -> Option<Arc<DetBounds>> {
    let sig = signature(ctx.tree, ctx.model, mode, ctx.sizing, k, selection);
    BOUNDS_CACHE.with(|cache| {
        let mut cache = cache.borrow_mut();
        if let Some(pos) = cache.iter().position(|(s, _)| *s == sig) {
            let entry = cache.remove(pos);
            let hit = Arc::clone(&entry.1);
            cache.push(entry); // most-recently-used at the back
            return Some(hit);
        }
        let bounds = compute(ctx, mode, k, selection)?;
        if cache.len() >= BOUNDS_CACHE_CAP {
            cache.remove(0);
        }
        cache.push((sig, Arc::clone(&bounds)));
        Some(bounds)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use varbuf_rctree::generate::{generate_benchmark, BenchmarkSpec};
    use varbuf_variation::SpatialKind;

    #[test]
    fn corner_library_is_uniformly_worse() {
        let tree = generate_benchmark(&BenchmarkSpec::random("cb", 16, 1));
        let model = ProcessModel::paper_defaults(tree.bounding_box(), SpatialKind::Homogeneous);
        let corner = corner_library(&model, VariationMode::WithinDie, 3.0);
        for ((_, nom), (_, cor)) in model.library().iter().zip(corner.iter()) {
            assert!(cor.capacitance > nom.capacitance);
            assert!(cor.intrinsic_delay > nom.intrinsic_delay);
            assert_eq!(cor.resistance, nom.resistance);
        }
        // D2D skips the intra-die and systematic shares.
        let d2d = corner_library(&model, VariationMode::DieToDie, 3.0);
        for ((_, w), (_, d)) in corner.iter().zip(d2d.iter()) {
            assert!(d.capacitance < w.capacitance);
        }
        // Nominal mode degrades nothing.
        let nom = corner_library(&model, VariationMode::Nominal, 3.0);
        for ((_, a), (_, b)) in model.library().iter().zip(nom.iter()) {
            assert_eq!(a.capacitance.to_bits(), b.capacitance.to_bits());
        }
    }

    #[test]
    fn bounds_anchor_is_below_the_deterministic_optimum() {
        let tree = generate_benchmark(&BenchmarkSpec::random("ba", 24, 3));
        let model = ProcessModel::paper_defaults(tree.bounding_box(), SpatialKind::Homogeneous);
        let sizing = WireSizing::single();
        // Nominal mode: zero variation makes the statistical replay, the
        // corner run and the mean run coincide, so the anchor must sit at
        // (just below) the deterministic optimum exactly.
        let ctx = RunCtx::new(&tree, &model, VariationMode::Nominal, &sizing);
        let b = compute(
            &ctx,
            VariationMode::Nominal,
            3.0,
            RootSelection::YieldRat(0.95),
        )
        .expect("bounds");
        let det = optimize_deterministic(&tree, model.library()).expect("det");
        let root = tree.root();
        // The root's single state is the anchor itself paired with the
        // driver resistance (no path above the root).
        let (anchor, root_res) = b.states[root.index()][0];
        assert!(anchor <= det.root_rat);
        assert!(anchor > det.root_rat - det.root_rat.abs() * 1e-6 - 1e-6);
        assert!(root_res > 0.0);
        // Every node's state thresholds grow with path delay, never
        // shrink below the anchor, and every load coefficient is
        // non-negative.
        for id in tree.postorder() {
            let mut finite = 0;
            for &(threshold, resistance) in &b.states[id.index()] {
                if threshold.is_finite() {
                    assert!(threshold >= anchor);
                    assert!(resistance >= 0.0);
                    finite += 1;
                }
            }
            assert!(finite >= 1, "every node needs at least one live state");
        }
        // A candidate matching the deterministic optimum with zero load
        // must always be kept.
        assert!(b.keeps(root, 0.0, 0.0, det.root_rat, 0.0));
        // A hopeless candidate (RAT far below the anchor) is retired.
        assert!(!b.keeps(root, 0.0, 0.0, anchor - 1e6, 0.0));
        // NaN moments are kept for the sanitizer.
        assert!(b.keeps(root, f64::NAN, 0.0, f64::NAN, 0.0));
    }

    #[test]
    fn memo_returns_the_same_table() {
        let tree = generate_benchmark(&BenchmarkSpec::random("bm", 12, 5));
        let model = ProcessModel::paper_defaults(tree.bounding_box(), SpatialKind::Homogeneous);
        let sizing = WireSizing::single();
        let sel = RootSelection::YieldRat(0.95);
        let ctx = RunCtx::new(&tree, &model, VariationMode::DieToDie, &sizing);
        let a = det_bounds(&ctx, VariationMode::DieToDie, 3.0, sel).expect("a");
        let b = det_bounds(&ctx, VariationMode::DieToDie, 3.0, sel).expect("b");
        assert!(Arc::ptr_eq(&a, &b), "second lookup must be a cache hit");
        // A different k misses.
        let c = det_bounds(&ctx, VariationMode::DieToDie, 4.0, sel).expect("c");
        assert!(!Arc::ptr_eq(&a, &c));
        // A different root selection misses too: the anchor replay is
        // keyed by it.
        let d = det_bounds(&ctx, VariationMode::DieToDie, 3.0, RootSelection::MeanRat).expect("d");
        assert!(!Arc::ptr_eq(&a, &d));
    }

    #[test]
    fn stat_anchor_tightens_the_corner_floor() {
        // On a within-die heterogeneous net the corner floor prices every
        // buffer at its simultaneous 3σ-worst and lands far below any
        // reachable key; the statistical replay of the mean assignment
        // must recover (almost) all of that gap.
        let tree = generate_benchmark(&BenchmarkSpec::random("sa", 32, 7)).subdivided(500.0);
        let model = ProcessModel::paper_defaults(tree.bounding_box(), SpatialKind::Heterogeneous);
        let sizing = WireSizing::single();
        let mode = VariationMode::WithinDie;
        let ctx = RunCtx::new(&tree, &model, mode, &sizing);
        let mean = optimize_deterministic(&tree, model.library()).expect("mean det");
        let corner_best = optimize_deterministic(&tree, &corner_library(&model, mode, 3.0))
            .expect("corner det")
            .root_rat;
        let replay =
            stat_anchor(&ctx, &mean.assignment, RootSelection::YieldRat(0.95)).expect("replay key");
        assert!(
            replay > mean.root_rat.min(corner_best),
            "replayed key {replay} must beat the corner floor {}",
            mean.root_rat.min(corner_best)
        );
    }
}
