//! Property-style tests on routing-tree structure, generation, Elmore
//! evaluation, and IO round-tripping, driven by the in-tree deterministic
//! [`SplitMix64`] generator.

use varbuf_rctree::elmore::{BufferAssignment, BufferValues, ElmoreEvaluator};
use varbuf_rctree::generate::{generate_benchmark, generate_htree, BenchmarkSpec, HTreeSpec};
use varbuf_rctree::io::{read_tree, write_tree};
use varbuf_rctree::tree::NodeKind;
use varbuf_stats::rng::SplitMix64;

#[test]
fn generated_tree_invariants() {
    let mut rng = SplitMix64::new(0xA11CE);
    for _ in 0..48 {
        let sinks = 1 + rng.below(159);
        let seed = rng.next_u64() % 1000;
        let tree = generate_benchmark(&BenchmarkSpec::random("prop", sinks, seed));
        assert!(tree.validate().is_ok());
        assert_eq!(tree.sink_count(), sinks);
        assert_eq!(tree.candidate_count(), 2 * sinks - 1);
        // Binary topology over n sinks: n-1 internal nodes + source.
        assert_eq!(tree.len(), 2 * sinks);
        assert!(tree.total_wire_length() >= 0.0);
    }
}

#[test]
fn postorder_is_a_valid_schedule() {
    let mut rng = SplitMix64::new(1);
    for _ in 0..48 {
        let sinks = 1 + rng.below(99);
        let seed = rng.next_u64() % 100;
        let tree = generate_benchmark(&BenchmarkSpec::random("prop", sinks, seed));
        let order = tree.postorder();
        assert_eq!(order.len(), tree.len());
        let pos: std::collections::HashMap<_, _> =
            order.iter().enumerate().map(|(i, &id)| (id, i)).collect();
        for (id, node) in tree.iter() {
            for &c in &node.children {
                assert!(pos[&c] < pos[&id], "child after parent");
            }
        }
    }
}

#[test]
fn node_ids_are_topological() {
    let mut trees: Vec<_> = (1..=10)
        .map(|levels| generate_htree(&HTreeSpec::with_levels(levels)))
        .collect();
    let mut rng = SplitMix64::new(0x70B0);
    for _ in 0..16 {
        let sinks = 1 + rng.below(119);
        let seed = rng.next_u64() % 1000;
        let tree = generate_benchmark(&BenchmarkSpec::random("topo", sinks, seed));
        trees.push(tree.subdivided(300.0));
        let mut buf = Vec::new();
        write_tree(&tree, &mut buf).expect("write");
        trees.push(read_tree(buf.as_slice()).expect("read"));
        trees.push(tree);
    }
    for tree in &trees {
        assert!(tree.node(tree.root()).parent.is_none());
        for (id, node) in tree.iter().skip(1) {
            let parent = node.parent.expect("non-root has a parent");
            assert!(parent < id, "{}: parent {parent} of {id}", tree.name());
        }
    }
}

#[test]
fn postorder_visits_last_child_first() {
    let mut trees: Vec<_> = (1..=8)
        .map(|levels| generate_htree(&HTreeSpec::with_levels(levels)))
        .collect();
    let mut rng = SplitMix64::new(0x0DE2);
    for _ in 0..16 {
        let sinks = 1 + rng.below(119);
        let seed = rng.next_u64() % 1000;
        let tree = generate_benchmark(&BenchmarkSpec::random("order", sinks, seed));
        trees.push(tree.subdivided(300.0));
        trees.push(tree);
    }
    for tree in &trees {
        // Replay the DP's stack discipline: every node pops its
        // children, which must come off first child first.
        let mut stack = Vec::new();
        for id in tree.postorder() {
            let children = &tree.node(id).children;
            let at = stack.len() - children.len();
            let popped: Vec<_> = stack.drain(at..).rev().collect();
            assert_eq!(&popped, children, "{}: children of {id}", tree.name());
            stack.push(id);
        }
        assert_eq!(stack, vec![tree.root()]);
    }
}

#[test]
fn io_roundtrip() {
    let mut rng = SplitMix64::new(2);
    for _ in 0..48 {
        let sinks = 1 + rng.below(79);
        let seed = rng.next_u64() % 100;
        let tree = generate_benchmark(&BenchmarkSpec::random("prop", sinks, seed));
        let mut buf = Vec::new();
        write_tree(&tree, &mut buf).expect("write");
        let back = read_tree(buf.as_slice()).expect("read");
        assert_eq!(tree, back);
    }
}

#[test]
fn unbuffered_rat_bounded_by_critical_path() {
    let mut rng = SplitMix64::new(3);
    for _ in 0..48 {
        let sinks = 2 + rng.below(78);
        let seed = rng.next_u64() % 100;
        let tree = generate_benchmark(&BenchmarkSpec::random("prop", sinks, seed));
        let eval = ElmoreEvaluator::new(&tree);
        let rep = eval.evaluate_unbuffered();
        // All sink RATs are 0 in generated benchmarks, so root RAT is
        // minus the max delay, which must be positive.
        let max_delay = rep
            .sink_delays
            .iter()
            .map(|&(_, d)| d)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(max_delay > 0.0);
        assert!((rep.root_rat + max_delay).abs() < 1e-6 * max_delay.abs());
        // Delays are all positive and finite.
        for &(_, d) in &rep.sink_delays {
            assert!(d.is_finite() && d > 0.0);
        }
    }
}

#[test]
fn buffering_never_increases_root_load() {
    let mut rng = SplitMix64::new(4);
    for _ in 0..48 {
        let sinks = 2 + rng.below(58);
        let seed = rng.next_u64() % 50;
        let pick = rng.below(117);
        let tree = generate_benchmark(&BenchmarkSpec::random("prop", sinks, seed));
        let eval = ElmoreEvaluator::new(&tree);
        let unbuf = eval.evaluate_unbuffered();

        // Place one small buffer at some candidate.
        let candidates: Vec<_> = tree
            .iter()
            .filter(|(_, n)| n.is_candidate)
            .map(|(id, _)| id)
            .collect();
        let at = candidates[pick % candidates.len()];
        let mut buffers = BufferAssignment::new();
        buffers.insert(
            at,
            BufferValues {
                capacitance: 5.0,
                intrinsic_delay: 30.0,
                resistance: 0.2,
            },
        );
        let buffered = eval.evaluate(&buffers);
        // A 5 fF buffer cap can only reduce (or preserve) the load the
        // driver sees, because it replaces a subtree of sinks >= 5 fF...
        // unless the subtree is a single tiny sink; allow equality slack.
        assert!(buffered.root_load <= unbuf.root_load + 5.0);
        assert!(buffered.root_rat.is_finite());
    }
}

#[test]
fn htree_structure() {
    for levels in 1u32..10 {
        let tree = generate_htree(&HTreeSpec::with_levels(levels));
        assert!(tree.validate().is_ok());
        assert_eq!(tree.sink_count(), 1usize << levels);
        // Sinks all carry the same capacitance.
        for id in tree.sinks() {
            match tree.node(id).kind {
                NodeKind::Sink { capacitance, .. } => assert_eq!(capacitance, 12.0),
                _ => panic!("non-sink from sinks()"),
            }
        }
    }
}
