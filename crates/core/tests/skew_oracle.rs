//! The streaming skew analyzer's bit-identity oracle.
//!
//! `SkewAnalyzer` walks the tree once in ascending node-id order, drops
//! each arrival form after its parent's last child, and folds the sink
//! arrivals through in-place Clark max/min kernels. This suite keeps a
//! copy of the materializing analyzer it replaced — every node's load
//! and arrival form held at once, sinks collected in `tree.iter()`
//! order, then folded with the allocating `stat_max` / `stat_min` — and
//! asserts bit equality of `latest`, `earliest` and every sink's
//! arrival (id, mean and coefficient bits), plus bit equality of the
//! lean `extremes` entry point with `analyze`. It covers H-trees at
//! levels 1–10, random benchmark trees and their subdivided copies, and
//! a tree-file round trip, under all three variation modes, both
//! unbuffered and with `optimize_statistical`'s buffers.

use std::collections::HashMap;
use varbuf_core::driver::{optimize_statistical, Options};
use varbuf_core::skew::{SkewAnalysis, SkewAnalyzer};
use varbuf_rctree::generate::{generate_benchmark, generate_htree, BenchmarkSpec, HTreeSpec};
use varbuf_rctree::io::{read_tree, write_tree};
use varbuf_rctree::tree::NodeKind;
use varbuf_rctree::{NodeId, RoutingTree};
use varbuf_stats::{stat_max, stat_min, CanonicalForm};
use varbuf_variation::{BufferTypeId, ProcessModel, SpatialKind, VariationMode};

const MODES: [VariationMode; 3] = [
    VariationMode::Nominal,
    VariationMode::DieToDie,
    VariationMode::WithinDie,
];

/// The materializing analyzer: upward loads in post-order, every
/// node's arrival in pre-order, then the serial Clark folds.
fn reference_analyze(
    tree: &RoutingTree,
    model: &ProcessModel,
    mode: VariationMode,
    assignment: &[(NodeId, BufferTypeId)],
) -> SkewAnalysis {
    let buffers: HashMap<NodeId, BufferTypeId> = assignment.iter().copied().collect();
    let wire = tree.wire();
    let n = tree.len();

    let mut subtree_load: Vec<Option<CanonicalForm>> = vec![None; n];
    let mut upward_load: Vec<Option<CanonicalForm>> = vec![None; n];
    let postorder = tree.postorder();
    for &id in &postorder {
        let node = tree.node(id);
        let mut load = match node.kind {
            NodeKind::Sink { capacitance, .. } => CanonicalForm::constant(capacitance),
            _ => CanonicalForm::constant(0.0),
        };
        for &c in &node.children {
            let seg_cap = wire.cap_per_um * tree.node(c).edge_length;
            load = load
                .add(upward_load[c.index()].as_ref().expect("post-order"))
                .plus_constant(seg_cap);
        }
        upward_load[id.index()] = Some(match buffers.get(&id) {
            Some(&ty) => model.buffer_cap_form(ty, id, node.location, mode),
            None => load.clone(),
        });
        subtree_load[id.index()] = Some(load);
    }

    let root = tree.root();
    let NodeKind::Source { driver_resistance } = tree.node(root).kind else {
        panic!("root must be a source")
    };
    let mut arrival: Vec<Option<CanonicalForm>> = vec![None; n];
    arrival[root.index()] = Some(
        upward_load[root.index()]
            .as_ref()
            .expect("root")
            .scaled(driver_resistance),
    );
    for &id in postorder.iter().rev() {
        let base = arrival[id.index()].clone().expect("pre-order");
        for &c in &tree.node(id).children {
            let child = tree.node(c);
            let seg = wire.segment(child.edge_length);
            let mut t = base.linear_combination(
                1.0,
                upward_load[c.index()].as_ref().expect("post-order"),
                seg.resistance,
            );
            t.add_constant(seg.resistance * seg.capacitance / 2.0);
            if let Some(&ty) = buffers.get(&c) {
                let delay = model.buffer_delay_form(ty, c, child.location, mode);
                t = t.add(&delay).linear_combination(
                    1.0,
                    subtree_load[c.index()].as_ref().expect("post-order"),
                    model.buffer_resistance(ty),
                );
            }
            arrival[c.index()] = Some(t);
        }
    }

    let mut arrivals = Vec::new();
    for (id, node) in tree.iter() {
        if matches!(node.kind, NodeKind::Sink { .. }) {
            arrivals.push((id, arrival[id.index()].clone().expect("computed")));
        }
    }
    assert!(!arrivals.is_empty(), "tree must have at least one sink");
    let mut latest = arrivals[0].1.clone();
    let mut earliest = arrivals[0].1.clone();
    for (_, a) in &arrivals[1..] {
        latest = stat_max(&latest, a).form;
        earliest = stat_min(&earliest, a).form;
    }
    SkewAnalysis {
        arrivals,
        latest,
        earliest,
    }
}

fn assert_bits_eq(got: &CanonicalForm, want: &CanonicalForm, what: &str) {
    assert_eq!(
        got.mean().to_bits(),
        want.mean().to_bits(),
        "{what}: mean {} vs {}",
        got.mean(),
        want.mean()
    );
    assert_eq!(got.term_ids(), want.term_ids(), "{what}: term ids");
    for (k, (x, y)) in got.term_coeffs().iter().zip(want.term_coeffs()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: coefficient {k}: {x} vs {y}"
        );
    }
}

/// Checks one (tree, model) pair under every mode, unbuffered and with
/// the statistical optimizer's buffers.
fn check(tree: &RoutingTree, model: &ProcessModel) {
    let wid = optimize_statistical(tree, model, VariationMode::WithinDie, &Options::default())
        .expect("optimize");
    assert!(
        tree.sink_count() < 4 || !wid.assignment.is_empty(),
        "{}: no buffers, the buffered case would be vacuous",
        tree.name()
    );
    for assignment in [&[][..], &wid.assignment[..]] {
        for mode in MODES {
            let label = format!(
                "{} ({} nodes), {mode:?}, {} buffers",
                tree.name(),
                tree.len(),
                assignment.len()
            );
            let analyzer = SkewAnalyzer::new(tree, model, mode);
            let got = analyzer.analyze(assignment);
            let want = reference_analyze(tree, model, mode, assignment);
            assert_eq!(got.arrivals.len(), want.arrivals.len(), "{label}: sinks");
            for ((gid, g), (wid, w)) in got.arrivals.iter().zip(&want.arrivals) {
                assert_eq!(gid, wid, "{label}: sink order");
                assert_bits_eq(g, w, &format!("{label}: arrival {gid}"));
            }
            assert_bits_eq(&got.latest, &want.latest, &format!("{label}: latest"));
            assert_bits_eq(&got.earliest, &want.earliest, &format!("{label}: earliest"));

            let lean = analyzer.extremes(assignment);
            assert_bits_eq(&lean.latest, &got.latest, &format!("{label}: lean latest"));
            assert_bits_eq(
                &lean.earliest,
                &got.earliest,
                &format!("{label}: lean earliest"),
            );
        }
    }
}

#[test]
fn htrees_levels_1_to_10_match_the_materializing_analyzer() {
    for levels in 1..=10 {
        let tree = generate_htree(&HTreeSpec::with_levels(levels));
        let kind = if levels % 2 == 0 {
            SpatialKind::Homogeneous
        } else {
            SpatialKind::Heterogeneous
        };
        check(
            &tree,
            &ProcessModel::paper_defaults(tree.bounding_box(), kind),
        );
    }
}

#[test]
fn random_trees_and_subdivisions_match_the_materializing_analyzer() {
    for (sinks, seed) in [(1, 3), (7, 1), (40, 5), (120, 9)] {
        let tree = generate_benchmark(&BenchmarkSpec::random("oracle", sinks, seed));
        let model = ProcessModel::paper_defaults(tree.bounding_box(), SpatialKind::Homogeneous);
        check(&tree, &model);
        let fine = tree.subdivided(400.0);
        assert!(
            fine.len() > tree.len() || sinks == 1,
            "subdivision added nodes"
        );
        check(&fine, &model);
    }
}

#[test]
fn tree_file_round_trip_matches_the_materializing_analyzer() {
    let tree = generate_benchmark(&BenchmarkSpec::random("oracle-io", 60, 4)).subdivided(600.0);
    let mut text = Vec::new();
    write_tree(&tree, &mut text).expect("write");
    let back = read_tree(text.as_slice()).expect("read");
    let model = ProcessModel::paper_defaults(back.bounding_box(), SpatialKind::Heterogeneous);
    check(&back, &model);
}
