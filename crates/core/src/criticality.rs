//! Statistical sink criticality.
//!
//! Under variation there is no single critical sink: each sink has a
//! *probability* of being the one that sets the root RAT. This module
//! computes those probabilities with the tightness-probability cascade
//! used in block-based SSTA (Visweswariah et al., the paper's \[3\]):
//! fold the per-sink slack forms through Clark minimums, scaling the
//! already-folded criticalities by each step's tightness.
//!
//! Criticalities are a diagnosis tool the deterministic flow cannot
//! offer: a design whose criticality mass is spread across many sinks is
//! the regime where variation-aware optimization matters (and where
//! deterministic "fix the worst path" iterations thrash).

use crate::skew::SkewAnalyzer;
use varbuf_rctree::tree::NodeKind;
use varbuf_rctree::{NodeId, RoutingTree};
use varbuf_stats::{stat_min_assign, CanonicalForm};
use varbuf_variation::{BufferTypeId, ProcessModel, VariationMode};

/// Per-sink criticality report.
#[derive(Debug, Clone)]
pub struct CriticalityReport {
    /// `(sink, slack form, probability the sink is critical)`, sorted by
    /// descending criticality. Probabilities sum to 1.
    pub sinks: Vec<(NodeId, CanonicalForm, f64)>,
    /// The statistical minimum slack (the root-RAT form relative to the
    /// sink required times).
    pub min_slack: CanonicalForm,
}

impl CriticalityReport {
    /// The number of sinks needed to cover `mass` of the criticality
    /// probability (e.g. `0.95`) — a scalar "how spread out is the
    /// criticality" summary.
    ///
    /// # Panics
    ///
    /// Panics unless `mass` is in `(0, 1]`.
    #[must_use]
    pub fn sinks_covering(&self, mass: f64) -> usize {
        assert!(mass > 0.0 && mass <= 1.0, "mass must be in (0, 1]");
        let mut acc = 0.0;
        for (i, &(_, _, c)) in self.sinks.iter().enumerate() {
            acc += c;
            if acc >= mass {
                return i + 1;
            }
        }
        self.sinks.len()
    }
}

/// Computes sink criticalities for a fixed buffered design.
///
/// `mode` is the silicon's variation model (normally
/// [`VariationMode::WithinDie`]).
///
/// # Panics
///
/// Panics if the tree has no sinks.
#[must_use]
pub fn sink_criticalities(
    tree: &RoutingTree,
    model: &ProcessModel,
    mode: VariationMode,
    assignment: &[(NodeId, BufferTypeId)],
) -> CriticalityReport {
    // Arrival forms come from the skew analyzer's downward propagation.
    let arrivals = SkewAnalyzer::new(tree, model, mode)
        .analyze(assignment)
        .arrivals;

    // Slack_i = required_i − arrival_i.
    let slacks: Vec<(NodeId, CanonicalForm)> = arrivals
        .into_iter()
        .map(|(id, arrival)| {
            let required = match tree.node(id).kind {
                NodeKind::Sink {
                    required_arrival, ..
                } => required_arrival,
                _ => unreachable!("arrivals only lists sinks"),
            };
            (id, arrival.scaled(-1.0).plus_constant(required))
        })
        .collect();
    assert!(!slacks.is_empty(), "tree must have at least one sink");

    // Tightness cascade: fold slacks through Clark minimums. Step k
    // keeps `t_k = P(running-min < slack_k)` of the accumulated mass and
    // gives `1 − t_k` to sink k, so sink k's criticality is its share
    // times every later step's tightness — a suffix product, taken in
    // one backward pass.
    let mut min_slack = slacks[0].1.clone();
    let mut scratch = CanonicalForm::default();
    let mut tightness = vec![1.0; slacks.len()];
    for (t, (_, slack)) in tightness.iter_mut().zip(&slacks).skip(1) {
        *t = stat_min_assign(&mut scratch, &min_slack, slack);
        std::mem::swap(&mut min_slack, &mut scratch);
    }
    let mut criticality = vec![0.0; slacks.len()];
    let mut later = 1.0; // product of the tightnesses after step k
    for k in (0..slacks.len()).rev() {
        let share = if k == 0 { 1.0 } else { 1.0 - tightness[k] };
        criticality[k] = share * later;
        later *= tightness[k];
    }
    let mut report: Vec<(NodeId, CanonicalForm, f64)> = slacks
        .into_iter()
        .zip(criticality)
        .map(|((id, slack), c)| (id, slack, c))
        .collect();
    report.sort_by(|a, b| b.2.total_cmp(&a.2));

    CriticalityReport {
        sinks: report,
        min_slack,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{optimize_statistical, Options};
    use varbuf_rctree::generate::{generate_benchmark, generate_htree, BenchmarkSpec, HTreeSpec};
    use varbuf_variation::SpatialKind;

    #[test]
    fn criticalities_sum_to_one_and_sorted() {
        let tree = generate_benchmark(&BenchmarkSpec::random("crit", 40, 5));
        let model = ProcessModel::paper_defaults(tree.bounding_box(), SpatialKind::Homogeneous);
        let wid =
            optimize_statistical(&tree, &model, VariationMode::WithinDie, &Options::default())
                .expect("optimize");
        let report = sink_criticalities(&tree, &model, VariationMode::WithinDie, &wid.assignment);
        let total: f64 = report.sinks.iter().map(|&(_, _, c)| c).sum();
        assert!((total - 1.0).abs() < 1e-9, "criticalities sum to {total}");
        assert!(report.sinks.windows(2).all(|w| w[0].2 >= w[1].2 - 1e-12));
        assert!(report
            .sinks
            .iter()
            .all(|&(_, _, c)| (0.0..=1.0).contains(&c)));
        assert_eq!(report.sinks.len(), tree.sink_count());
    }

    #[test]
    fn symmetric_buffered_htree_spreads_criticality() {
        // Every sink of an ideal H-tree is equally likely to be critical;
        // with real (buffered) variation the tightness cascade should
        // spread the mass across many sinks. (The unbuffered tree is
        // fully deterministic, where ties make the cascade order-biased —
        // a known limitation of Clark cascades on exact ties.)
        let tree = generate_htree(&HTreeSpec::with_levels(5));
        let model = ProcessModel::paper_defaults(tree.bounding_box(), SpatialKind::Homogeneous);
        let wid =
            optimize_statistical(&tree, &model, VariationMode::WithinDie, &Options::default())
                .expect("optimize");
        let report = sink_criticalities(&tree, &model, VariationMode::WithinDie, &wid.assignment);
        let n = tree.sink_count();
        // Covering 95% of the mass needs a sizable fraction of the sinks.
        assert!(
            report.sinks_covering(0.95) > n / 4,
            "covering {} of {n}",
            report.sinks_covering(0.95)
        );
    }

    #[test]
    fn dominant_sink_concentrates_criticality() {
        // An unbuffered random tree: the farthest path dominates sharply,
        // so a handful of sinks hoard the criticality mass.
        let tree = generate_benchmark(&BenchmarkSpec::random("crit2", 20, 9));
        let model = ProcessModel::paper_defaults(tree.bounding_box(), SpatialKind::Homogeneous);
        let report = sink_criticalities(&tree, &model, VariationMode::WithinDie, &[]);
        assert!(
            report.sinks_covering(0.95) <= 5,
            "expected concentration, needed {}",
            report.sinks_covering(0.95)
        );
        // min_slack mean is at most the most-critical sink's slack mean.
        let best = report.sinks[0].1.mean();
        assert!(report.min_slack.mean() <= best + 1e-9);
    }

    /// The quadratic cascade: every fold step rescales every earlier
    /// entry. Returns `(sink, criticality)` in fold order.
    fn quadratic_criticalities(
        tree: &RoutingTree,
        model: &ProcessModel,
        assignment: &[(NodeId, BufferTypeId)],
    ) -> Vec<(NodeId, f64)> {
        let mut slacks: Vec<(NodeId, CanonicalForm)> =
            SkewAnalyzer::new(tree, model, VariationMode::WithinDie)
                .analyze(assignment)
                .arrivals
                .into_iter()
                .map(|(id, a)| {
                    let NodeKind::Sink {
                        required_arrival, ..
                    } = tree.node(id).kind
                    else {
                        unreachable!("arrivals only lists sinks")
                    };
                    (id, a.scaled(-1.0).plus_constant(required_arrival))
                })
                .collect();
        let (first_id, first_slack) = slacks.remove(0);
        let mut min_slack = first_slack;
        let mut out = vec![(first_id, 1.0)];
        for (id, slack) in slacks {
            let folded = varbuf_stats::stat_min(&min_slack, &slack);
            for entry in &mut out {
                entry.1 *= folded.tightness;
            }
            out.push((id, 1.0 - folded.tightness));
            min_slack = folded.form;
        }
        out
    }

    #[test]
    fn suffix_product_matches_quadratic_cascade() {
        let trees = [
            generate_benchmark(&BenchmarkSpec::random("crit3", 60, 2)),
            generate_benchmark(&BenchmarkSpec::random("crit4", 90, 11)),
            generate_htree(&HTreeSpec::with_levels(6)),
        ];
        for tree in &trees {
            let model = ProcessModel::paper_defaults(tree.bounding_box(), SpatialKind::Homogeneous);
            let wid =
                optimize_statistical(tree, &model, VariationMode::WithinDie, &Options::default())
                    .expect("optimize");
            let report =
                sink_criticalities(tree, &model, VariationMode::WithinDie, &wid.assignment);
            let reference = quadratic_criticalities(tree, &model, &wid.assignment);
            assert_eq!(report.sinks.len(), reference.len());
            for &(id, want) in &reference {
                let got = report
                    .sinks
                    .iter()
                    .find(|e| e.0 == id)
                    .expect("every sink reported")
                    .2;
                assert!(
                    (got - want).abs() <= 1e-12 * want.abs().max(got.abs()),
                    "{}: sink {id}: {got} vs {want}",
                    tree.name()
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "mass must be in (0, 1]")]
    fn covering_rejects_bad_mass() {
        let tree = generate_htree(&HTreeSpec::with_levels(2));
        let model = ProcessModel::paper_defaults(tree.bounding_box(), SpatialKind::Homogeneous);
        let report = sink_criticalities(&tree, &model, VariationMode::WithinDie, &[]);
        let _ = report.sinks_covering(0.0);
    }
}
