//! Statistical clock-skew analysis — the extension the paper names as
//! future work ("we intend to apply the same 2P-based pruning rule and
//! develop efficient algorithms for clock skew minimization").
//!
//! For a *fixed* buffered clock tree, [`SkewAnalyzer`] propagates
//! source-to-sink **arrival times** as first-order canonical forms (the
//! downward analogue of the upward RAT propagation): every sink's
//! arrival becomes `a0 + Σ aᵢ·Xᵢ`, so the skew between any two sinks is
//! just the difference of two forms — with all the shared inter-die and
//! spatial terms cancelling exactly as they do on silicon. The global
//! skew (max minus min arrival) is estimated with iterated Clark
//! max/min.

use std::sync::{mpsc, Arc};
use varbuf_rctree::tree::NodeKind;
use varbuf_rctree::{NodeId, RoutingTree};
use varbuf_stats::{stat_max_assign, stat_min_assign, CanonicalForm};
use varbuf_variation::{BufferTypeId, ProcessModel, VariationMode};

/// Per-sink arrival forms plus derived skew quantities.
#[derive(Debug, Clone)]
pub struct SkewAnalysis {
    /// Arrival time of every sink, canonical form, ps, in ascending
    /// node-id order.
    pub arrivals: Vec<(NodeId, CanonicalForm)>,
    /// The statistical latest arrival (Clark max over sinks).
    pub latest: CanonicalForm,
    /// The statistical earliest arrival (Clark min over sinks).
    pub earliest: CanonicalForm,
}

impl SkewAnalysis {
    /// The global-skew form: latest minus earliest arrival.
    ///
    /// Shared variation (inter-die, common spatial regions, shared
    /// buffers on common paths) cancels in the difference — the reason a
    /// correlation-aware model predicts far less skew than an
    /// independent-variation one.
    #[must_use]
    pub fn global_skew(&self) -> CanonicalForm {
        self.latest.sub(&self.earliest)
    }

    /// The skew form between two specific sinks.
    ///
    /// # Panics
    ///
    /// Panics if either node is not a sink of the analyzed tree.
    #[must_use]
    pub fn pair_skew(&self, a: NodeId, b: NodeId) -> CanonicalForm {
        let find = |id: NodeId| match self.arrivals.binary_search_by_key(&id, |&(n, _)| n) {
            Ok(pos) => &self.arrivals[pos].1,
            Err(_) => panic!("{id} is not a sink of the analyzed tree"),
        };
        find(a).sub(find(b))
    }

    /// Probability that the global skew stays below `target` ps.
    #[must_use]
    pub fn skew_yield(&self, target: f64) -> f64 {
        skew_yield(&self.global_skew(), target)
    }
}

/// The latest and earliest sink arrivals without the per-sink forms:
/// what [`SkewAnalyzer::extremes`] returns. The fields and methods are
/// bit-identical to [`SkewAnalysis`]'s.
#[derive(Debug, Clone)]
pub struct SkewExtremes {
    /// The statistical latest arrival (Clark max over sinks).
    pub latest: CanonicalForm,
    /// The statistical earliest arrival (Clark min over sinks).
    pub earliest: CanonicalForm,
}

impl SkewExtremes {
    /// The global-skew form: latest minus earliest arrival.
    #[must_use]
    pub fn global_skew(&self) -> CanonicalForm {
        self.latest.sub(&self.earliest)
    }

    /// Probability that the global skew stays below `target` ps.
    #[must_use]
    pub fn skew_yield(&self, target: f64) -> f64 {
        skew_yield(&self.global_skew(), target)
    }
}

/// `P(skew <= target) = P(skew - target <= 0)`.
fn skew_yield(skew: &CanonicalForm, target: f64) -> f64 {
    1.0 - skew.prob_at_least(target)
}

/// Computes arrival-time forms for fixed buffer placements on one tree.
///
/// # Streaming
///
/// Both entry points share one walk in ascending node-id order. Ids
/// are topological (a parent's id is below its children's, see
/// [`RoutingTree`]), so the walk computes each arrival from its
/// parent's and drops the parent's form after its last child: only the
/// forms of nodes with unvisited children are live, one per level on
/// an H-tree. Each sink's arrival goes straight into the Clark max/min
/// folds, which run in place in the serial `tree.iter()` sink order —
/// Clark's fold depends on its operand order, so that order is part of
/// the answer.
#[derive(Debug)]
pub struct SkewAnalyzer<'a> {
    tree: &'a RoutingTree,
    model: &'a ProcessModel,
    mode: VariationMode,
}

impl<'a> SkewAnalyzer<'a> {
    /// Creates an analyzer; `mode` selects the silicon's variation
    /// categories (normally [`VariationMode::WithinDie`]).
    #[must_use]
    pub fn new(tree: &'a RoutingTree, model: &'a ProcessModel, mode: VariationMode) -> Self {
        Self { tree, model, mode }
    }

    /// Analyzes one buffer placement, keeping every sink's arrival form.
    ///
    /// # Panics
    ///
    /// Panics if the tree has no sinks.
    #[must_use]
    pub fn analyze(&self, assignment: &[(NodeId, BufferTypeId)]) -> SkewAnalysis {
        let mut shared = Vec::new();
        let SkewExtremes { latest, earliest } =
            self.walk(assignment, |id, form| shared.push((id, form)));
        // The fold threads are joined, so each form has one owner left.
        let arrivals = shared
            .into_iter()
            .map(|(id, form)| (id, Arc::into_inner(form).expect("fold threads joined")))
            .collect();
        SkewAnalysis {
            arrivals,
            latest,
            earliest,
        }
    }

    /// The latest/earliest arrivals of one buffer placement, bitwise
    /// equal to [`analyze`](Self::analyze)'s, without keeping the
    /// per-sink forms: memory stays at the live walk front.
    ///
    /// # Panics
    ///
    /// Panics if the tree has no sinks.
    #[must_use]
    pub fn extremes(&self, assignment: &[(NodeId, BufferTypeId)]) -> SkewExtremes {
        self.walk(assignment, |_, _| {})
    }

    /// The shared walk: an upward load pass in descending id order, then
    /// the downward arrival pass in ascending id order, handing each
    /// sink's arrival to the folds and then to `keep`. The max fold runs
    /// on a second thread behind a bounded queue; the min fold runs
    /// inline.
    fn walk(
        &self,
        assignment: &[(NodeId, BufferTypeId)],
        keep: impl FnMut(NodeId, Arc<CanonicalForm>),
    ) -> SkewExtremes {
        std::thread::scope(|s| {
            let (tx, rx) = mpsc::sync_channel::<Arc<CanonicalForm>>(FOLD_QUEUE);
            let max_fold = s.spawn(move || {
                let mut latest = Fold::new(stat_max_assign);
                for arrival in rx {
                    latest.push(&arrival);
                }
                latest
            });
            let earliest = self.propagate(assignment, tx, keep);
            let latest = max_fold
                .join()
                .unwrap_or_else(|p| std::panic::resume_unwind(p));
            SkewExtremes {
                latest: latest.finish(),
                earliest: earliest.finish(),
            }
        })
    }

    /// Computes every sink's arrival, sends it to the max fold, folds it
    /// into the returned min fold, and hands it to `keep`.
    fn propagate(
        &self,
        assignment: &[(NodeId, BufferTypeId)],
        max_fold: mpsc::SyncSender<Arc<CanonicalForm>>,
        mut keep: impl FnMut(NodeId, Arc<CanonicalForm>),
    ) -> Fold {
        let tree = self.tree;
        let wire = tree.wire();
        let n = tree.len();
        // Each buffered node's slot in `buffered`: its type and, from
        // the upward pass until its arrival is computed, the subtree
        // load it drives. A later entry for the same node wins.
        let mut buffer_slot: Vec<u32> = vec![NO_SLOT; n];
        let mut buffered: Vec<(BufferTypeId, CanonicalForm)> = Vec::new();
        for &(id, ty) in assignment {
            if let Some(slot) = buffer_slot.get_mut(id.index()) {
                *slot = buffered.len() as u32;
                buffered.push((ty, CanonicalForm::default()));
            }
        }

        // Upward pass: the load each node presents upward (buffer cap
        // form when buffered) and, at buffered nodes, the subtree load
        // the buffer drives. Descending ids visit children first.
        let mut upward_load: Vec<CanonicalForm> = vec![CanonicalForm::default(); n];
        for i in (0..n).rev() {
            let id = NodeId(i as u32);
            let node = tree.node(id);
            let mut load = match node.kind {
                NodeKind::Sink { capacitance, .. } => CanonicalForm::constant(capacitance),
                _ => CanonicalForm::constant(0.0),
            };
            for &c in &node.children {
                let seg_cap = wire.cap_per_um * tree.node(c).edge_length;
                load.add_scaled_assign(&upward_load[c.index()], 1.0);
                load.add_constant(seg_cap);
            }
            upward_load[i] = match buffered.get_mut(buffer_slot[i] as usize) {
                Some((ty, driven)) => {
                    *driven = load;
                    self.model
                        .buffer_cap_form(*ty, id, node.location, self.mode)
                }
                None => load,
            };
        }

        // Downward pass: arrival forms, each dropped after its parent's
        // last child took it as a base.
        let root = tree.root();
        let driver_res = match tree.node(root).kind {
            NodeKind::Source { driver_resistance } => driver_resistance,
            _ => panic!("root must be a source"),
        };
        let mut pending: Vec<u32> = tree.iter().map(|(_, v)| v.children.len() as u32).collect();
        let mut arrival_slot: Vec<u32> = vec![NO_SLOT; n];
        let mut front = Front::default();
        arrival_slot[root.index()] = front.insert(upward_load[root.index()].scaled(driver_res));
        let mut earliest = Fold::new(stat_min_assign);
        for (id, node) in tree.iter().skip(1) {
            let parent = node.parent.expect("non-root").index();
            // The parent id precedes the child id, so its arrival is live.
            let base = &front.forms[arrival_slot[parent] as usize];
            let seg = wire.segment(node.edge_length);
            let up = std::mem::take(&mut upward_load[id.index()]);
            // Wire delay r·l·(c·l/2 + upward load of child).
            let mut t = base.linear_combination(1.0, &up, seg.resistance);
            t.add_constant(seg.resistance * seg.capacitance / 2.0);
            if let Some((ty, driven)) = buffered.get_mut(buffer_slot[id.index()] as usize) {
                let delay = self
                    .model
                    .buffer_delay_form(*ty, id, node.location, self.mode);
                t = t.add(&delay).linear_combination(
                    1.0,
                    driven,
                    self.model.buffer_resistance(*ty),
                );
                *driven = CanonicalForm::default();
            }
            pending[parent] -= 1;
            if pending[parent] == 0 {
                front.remove(arrival_slot[parent]);
            }
            if matches!(node.kind, NodeKind::Sink { .. }) {
                let t = Arc::new(t);
                // A send fails only if the max fold panicked; the join
                // re-raises that panic.
                let _ = max_fold.send(Arc::clone(&t));
                earliest.push(&t);
                keep(id, t);
            } else if !node.children.is_empty() {
                arrival_slot[id.index()] = front.insert(t);
            }
        }
        earliest
    }
}

/// A per-node slot index meaning "none": it lies past the end of any
/// table, so a `get` with it finds nothing.
const NO_SLOT: u32 = u32::MAX;

/// The arrival forms of the live walk front, in recycled slots: a
/// node-indexed table of forms would cost a 56-byte header per node.
#[derive(Default)]
struct Front {
    forms: Vec<CanonicalForm>,
    free: Vec<u32>,
}

impl Front {
    fn insert(&mut self, form: CanonicalForm) -> u32 {
        if let Some(slot) = self.free.pop() {
            self.forms[slot as usize] = form;
            return slot;
        }
        self.forms.push(form);
        (self.forms.len() - 1) as u32
    }

    /// Frees the slot's form (and its terms).
    fn remove(&mut self, slot: u32) {
        self.forms[slot as usize] = CanonicalForm::default();
        self.free.push(slot);
    }
}

/// Sink arrivals queued between the walk and the max fold: enough to
/// ride out a burst of cheap arrivals, small next to the tree.
const FOLD_QUEUE: usize = 64;

/// One running Clark extreme over sink arrivals, folded in place: each
/// step writes into a recycled scratch form and swaps it in.
struct Fold {
    kernel: fn(&mut CanonicalForm, &CanonicalForm, &CanonicalForm) -> f64,
    acc: Option<CanonicalForm>,
    scratch: CanonicalForm,
}

impl Fold {
    fn new(kernel: fn(&mut CanonicalForm, &CanonicalForm, &CanonicalForm) -> f64) -> Self {
        Self {
            kernel,
            acc: None,
            scratch: CanonicalForm::default(),
        }
    }

    fn push(&mut self, arrival: &CanonicalForm) {
        match &mut self.acc {
            None => self.acc = Some(arrival.clone()),
            Some(acc) => {
                (self.kernel)(&mut self.scratch, acc, arrival);
                std::mem::swap(acc, &mut self.scratch);
            }
        }
    }

    fn finish(self) -> CanonicalForm {
        self.acc.expect("tree must have at least one sink")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{optimize_statistical, Options};
    use varbuf_rctree::generate::{generate_benchmark, generate_htree, BenchmarkSpec, HTreeSpec};
    use varbuf_variation::SpatialKind;

    #[test]
    fn symmetric_htree_has_zero_mean_skew() {
        let tree = generate_htree(&HTreeSpec::with_levels(6));
        let model = ProcessModel::paper_defaults(tree.bounding_box(), SpatialKind::Homogeneous);
        let analyzer = SkewAnalyzer::new(&tree, &model, VariationMode::WithinDie);
        // Unbuffered symmetric tree: all nominal arrivals identical.
        let analysis = analyzer.analyze(&[]);
        let skew = analysis.global_skew();
        // Mean skew is positive (max > min with independent terms) but
        // small relative to arrival times.
        let arrival_scale = analysis.arrivals[0].1.mean().abs();
        assert!(skew.mean() >= -1e-9);
        assert!(
            skew.mean() < 0.05 * arrival_scale,
            "skew {} vs arrival {arrival_scale}",
            skew.mean()
        );
        // Pairwise skew between mirror sinks: zero-mean.
        let a = analysis.arrivals.first().expect("sinks").0;
        let b = analysis.arrivals.last().expect("sinks").0;
        let pair = analysis.pair_skew(a, b);
        assert!(pair.mean().abs() < 1e-6);
    }

    #[test]
    fn buffered_htree_skew_and_yield() {
        let tree = generate_htree(&HTreeSpec::with_levels(7));
        let model = ProcessModel::paper_defaults(tree.bounding_box(), SpatialKind::Homogeneous);
        let wid =
            optimize_statistical(&tree, &model, VariationMode::WithinDie, &Options::default())
                .expect("optimize");
        let analyzer = SkewAnalyzer::new(&tree, &model, VariationMode::WithinDie);
        let analysis = analyzer.analyze(&wid.assignment);
        let skew = analysis.global_skew();
        assert!(skew.mean() >= 0.0);
        // Yield is monotone in the target and hits the extremes.
        let tight = analysis.skew_yield(0.0);
        let loose = analysis.skew_yield(skew.mean() + 10.0 * skew.std_dev() + 1.0);
        assert!(tight <= 0.6, "P(skew<=0) = {tight}");
        assert!(loose > 0.999);
        assert!(analysis.skew_yield(skew.mean()) >= tight);
    }

    #[test]
    fn asymmetric_tree_has_nonzero_mean_skew() {
        let tree = generate_benchmark(&BenchmarkSpec::random("skew", 24, 9));
        let model = ProcessModel::paper_defaults(tree.bounding_box(), SpatialKind::Homogeneous);
        let analyzer = SkewAnalyzer::new(&tree, &model, VariationMode::WithinDie);
        let analysis = analyzer.analyze(&[]);
        let skew = analysis.global_skew();
        // Random trees have structurally different path lengths.
        assert!(skew.mean() > 1.0, "skew mean {}", skew.mean());
        // Latest >= every arrival mean; earliest <= every arrival mean.
        for (_, a) in &analysis.arrivals {
            assert!(analysis.latest.mean() >= a.mean() - 1e-6);
            assert!(analysis.earliest.mean() <= a.mean() + 1e-6);
        }
    }

    #[test]
    fn arrival_matches_deterministic_elmore_nominal() {
        use crate::det::assignment_with_nominal_values;
        use varbuf_rctree::elmore::ElmoreEvaluator;

        let tree = generate_benchmark(&BenchmarkSpec::random("skewdet", 16, 4));
        let model = ProcessModel::paper_defaults(tree.bounding_box(), SpatialKind::Homogeneous);
        let wid =
            optimize_statistical(&tree, &model, VariationMode::WithinDie, &Options::default())
                .expect("optimize");
        // In Nominal mode the arrival forms are deterministic and must
        // equal the Elmore evaluator's sink delays exactly.
        let analyzer = SkewAnalyzer::new(&tree, &model, VariationMode::Nominal);
        let analysis = analyzer.analyze(&wid.assignment);
        let elmore = ElmoreEvaluator::new(&tree).evaluate(
            &assignment_with_nominal_values(&wid.assignment, model.library())
                .expect("ids from this library"),
        );
        for (id, form) in &analysis.arrivals {
            let (_, d) = elmore
                .sink_delays
                .iter()
                .find(|&&(s, _)| s == *id)
                .expect("sink present");
            assert!(
                (form.mean() - d).abs() < 1e-6 * d.abs().max(1.0),
                "{id}: skew-analyzer {} vs elmore {}",
                form.mean(),
                d
            );
            assert!(form.std_dev() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "is not a sink")]
    fn pair_skew_rejects_non_sinks() {
        let tree = generate_htree(&HTreeSpec::with_levels(3));
        let model = ProcessModel::paper_defaults(tree.bounding_box(), SpatialKind::Homogeneous);
        let analysis = SkewAnalyzer::new(&tree, &model, VariationMode::WithinDie).analyze(&[]);
        let _ = analysis.pair_skew(tree.root(), tree.root());
    }
}
