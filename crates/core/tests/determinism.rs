//! Bit-for-bit determinism of the parallel engine.
//!
//! The contract (see `pool` module docs): for every pruning rule and
//! any `jobs` count, batch and shard-parallel results — winning RAT
//! form, assignment, wire widths, `DpStats` counters, degradation
//! events, hierarchical reports — are identical to the sequential
//! engine's, bit for bit.

use std::sync::Arc;
use std::time::Duration;
use varbuf_core::dp::{
    fallback_cascade, optimize_governed, optimize_with_rule, DpOptions, GovernedResult,
    RunControls, StatResult, WireSizing,
};
use varbuf_core::governor::{Budget, Degradation};
use varbuf_core::hier::{optimize_hier, HierOptions, HierResult};
use varbuf_core::pool::{optimize_batch, BatchRequest};
use varbuf_core::prune::{FourParam, OneParam, PruningRule, TwoParam};
use varbuf_core::solution::StatSolution;
use varbuf_core::InsertionError;
use varbuf_rctree::generate::{generate_benchmark, generate_htree, BenchmarkSpec, HTreeSpec};
use varbuf_rctree::RoutingTree;
use varbuf_stats::{
    lane_dot_ref, lane_variance_ref, CanonicalForm, ColumnForm, FormBatch, SourceId, SplitMix64,
    TermInterner,
};
use varbuf_variation::{ProcessModel, SpatialKind, VariationMode};

/// SplitMix64-style seeds for the generated benchmark topologies.
const SEEDS: [u64; 3] = [0x9E37_79B9, 0x85EB_CA6B, 0xC2B2_AE35];

fn model_for(tree: &RoutingTree) -> ProcessModel {
    ProcessModel::paper_defaults(tree.bounding_box(), SpatialKind::Homogeneous)
}

/// All three rules with tree sizes each can digest (the 4P cross
/// product blows up fast, mirroring the paper's 9-sink ceiling).
fn rule_suite() -> Vec<(&'static str, Arc<dyn PruningRule>, usize)> {
    vec![
        (
            "1P",
            Arc::new(OneParam::default()) as Arc<dyn PruningRule>,
            40,
        ),
        (
            "2P",
            Arc::new(TwoParam::default()) as Arc<dyn PruningRule>,
            40,
        ),
        (
            "4P",
            Arc::new(FourParam::default()) as Arc<dyn PruningRule>,
            6,
        ),
    ]
}

/// Bitwise equality of two results, durations excluded (wall-clock
/// fields are the only thing allowed to differ between runs).
fn assert_bit_identical(label: &str, seq: &StatResult, par: &StatResult) {
    assert_eq!(seq.assignment, par.assignment, "{label}: assignment");
    assert_eq!(seq.wire_widths, par.wire_widths, "{label}: wire widths");
    assert_eq!(
        seq.root_rat.mean().to_bits(),
        par.root_rat.mean().to_bits(),
        "{label}: RAT mean bits"
    );
    assert_eq!(
        seq.root_rat.variance().to_bits(),
        par.root_rat.variance().to_bits(),
        "{label}: RAT variance bits"
    );
    assert_eq!(
        seq.root_rat.term_count(),
        par.root_rat.term_count(),
        "{label}: term count"
    );
    for (a, b) in seq.root_rat.terms().zip(par.root_rat.terms()) {
        assert_eq!(a.0, b.0, "{label}: term source");
        assert_eq!(a.1.to_bits(), b.1.to_bits(), "{label}: term coefficient");
    }
    assert_eq!(
        seq.stats.sans_times(),
        par.stats.sans_times(),
        "{label}: DpStats counters"
    );
}

fn assert_same_degradation(label: &str, seq: &GovernedResult, par: &GovernedResult) {
    assert_bit_identical(label, &seq.result, &par.result);
    assert_same_report(label, &seq.degradation, &par.degradation);
}

fn assert_same_report(label: &str, seq: &Degradation, par: &Degradation) {
    // Event timestamps are wall clock; triggers and actions are not.
    let strip = |d: &Degradation| {
        d.events
            .iter()
            .map(|e| (e.trigger.clone(), e.action.clone()))
            .collect::<Vec<_>>()
    };
    assert_eq!(strip(seq), strip(par), "{label}: degradation events");
    assert_eq!(seq.final_rule, par.final_rule, "{label}: final rule");
    assert_eq!(
        seq.panic_completion, par.panic_completion,
        "{label}: panic completion"
    );
    assert_eq!(
        seq.peak_chunk_bytes, par.peak_chunk_bytes,
        "{label}: peak chunk bytes"
    );
}

#[test]
fn strict_parallel_is_bit_identical_for_all_rules() {
    for (name, rule, sinks) in rule_suite() {
        for seed in SEEDS {
            let tree = generate_benchmark(&BenchmarkSpec::random("det-strict", sinks, seed));
            let model = model_for(&tree);
            let run = |jobs: usize| {
                optimize_with_rule(
                    &tree,
                    &model,
                    VariationMode::WithinDie,
                    rule.as_ref(),
                    &DpOptions {
                        jobs,
                        // Force the fan-out so single-thread hosts still
                        // exercise the parallel engine under test.
                        jobs_force: true,
                        ..DpOptions::default()
                    },
                )
                .expect("strict run")
            };
            let seq = run(1);
            let par = run(4);
            let label = format!("{name}/seed{seed:x}/strict");
            assert_bit_identical(&label, &seq, &par);
            if sinks >= 40 {
                assert!(
                    par.stats.jobs_effective > 1,
                    "{label}: shards not committed"
                );
            }
        }
    }
}

#[test]
fn governed_parallel_is_bit_identical_for_all_rules() {
    for (name, rule, sinks) in rule_suite() {
        for seed in SEEDS {
            let tree = generate_benchmark(&BenchmarkSpec::random("det-gov", sinks, seed));
            let model = model_for(&tree);
            let run = |jobs: usize| {
                optimize_governed(
                    &tree,
                    &model,
                    VariationMode::WithinDie,
                    Arc::clone(&rule),
                    &DpOptions {
                        jobs,
                        // Force the fan-out so single-thread hosts still
                        // exercise the parallel engine under test.
                        jobs_force: true,
                        ..DpOptions::default()
                    },
                    &Budget::unlimited(),
                )
                .expect("governed run")
            };
            let seq = run(1);
            let par = run(4);
            let label = format!("{name}/seed{seed:x}/governed");
            assert_same_degradation(&label, &seq, &par);
            if sinks >= 40 {
                assert!(
                    par.result.stats.jobs_effective > 1,
                    "{label}: shards not committed"
                );
            }
        }
    }
}

#[test]
fn governed_under_pressure_matches_including_degradation_counters() {
    // A tight solution budget forces the degradation ladder: the shard
    // workers must detect the pressure, the walk must go serial there,
    // and the run must reproduce the sequential one — including every
    // recorded trigger/action pair — bit for bit.
    let budget = Budget {
        soft_solutions: 6,
        hard_solutions: 24,
        ..Budget::unlimited()
    };
    for (name, rule, sinks) in rule_suite() {
        for seed in SEEDS {
            let tree = generate_benchmark(&BenchmarkSpec::random("det-press", sinks, seed));
            let model = model_for(&tree);
            let run = |jobs: usize| {
                optimize_governed(
                    &tree,
                    &model,
                    VariationMode::WithinDie,
                    Arc::clone(&rule),
                    &DpOptions {
                        jobs,
                        // Force the fan-out so single-thread hosts still
                        // exercise the parallel engine under test.
                        jobs_force: true,
                        ..DpOptions::default()
                    },
                    &budget,
                )
                .expect("governed run")
            };
            let seq = run(1);
            let par = run(4);
            let label = format!("{name}/seed{seed:x}/pressure");
            assert_same_degradation(&label, &seq, &par);
            assert!(
                seq.result.stats.degraded(),
                "{label}: budget was meant to force degradation"
            );
        }
    }
}

/// Hierarchical cases: the paper-scale H-trees at the default plan, and
/// random trees cut small enough to nest regions inside regions.
fn hier_cases() -> Vec<(String, RoutingTree, HierOptions)> {
    let mut cases: Vec<(String, RoutingTree, HierOptions)> = [12, 14]
        .into_iter()
        .map(|levels| {
            let tree = generate_htree(&HTreeSpec::with_levels(levels));
            (format!("htree{levels}"), tree, HierOptions::default())
        })
        .collect();
    for seed in SEEDS {
        let tree = generate_benchmark(&BenchmarkSpec::random("det-hier", 300, seed));
        let nested = HierOptions {
            cut_nodes: 24,
            fanout_cut: 0,
            ..HierOptions::default()
        };
        cases.push((format!("random300/seed{seed:x}"), tree, nested));
    }
    cases
}

fn assert_same_hier(label: &str, seq: &HierResult, par: &HierResult) {
    assert_bit_identical(label, &seq.result, &par.result);
    assert_same_report(label, &seq.degradation, &par.degradation);
    assert_eq!(seq.hier, par.hier, "{label}: hier report");
}

#[test]
fn hier_shards_are_bit_identical_across_jobs_and_budgets() {
    // Unlimited; the CLI's `--budget-mem 512`, which must not keep the
    // run serial; and a budget tight enough to degrade, which must
    // match jobs=1 event for event. On the H-trees the first shard's
    // own live estimate passes 200 KiB, so the probe fails it.
    let mem = |bytes: usize| Budget {
        soft_mem_bytes: bytes,
        hard_mem_bytes: bytes * 4,
        ..Budget::unlimited()
    };
    let budgets = [
        ("unlimited", Budget::unlimited()),
        ("mem512MiB", mem(512 << 20)),
        ("mem200KiB", mem(200 << 10)),
    ];
    for (name, tree, hier) in hier_cases() {
        let model = ProcessModel::paper_defaults(tree.bounding_box(), SpatialKind::Heterogeneous);
        for (budget_name, budget) in &budgets {
            let run = |jobs: usize| {
                optimize_hier(
                    &tree,
                    &model,
                    VariationMode::WithinDie,
                    fallback_cascade(Arc::new(TwoParam::default())),
                    &WireSizing::single(),
                    &DpOptions {
                        jobs,
                        jobs_force: true,
                        ..DpOptions::default()
                    },
                    &hier,
                    budget,
                    RunControls::default(),
                )
                .expect("hier run")
            };
            let seq = run(1);
            assert!(seq.hier.cut_count >= 2, "{name}: needs independent regions");
            assert_eq!(seq.result.stats.jobs_effective, 1);
            let degrades = *budget_name == "mem200KiB";
            assert_eq!(
                seq.degradation.degraded(),
                degrades,
                "{name}/{budget_name}: degradation expected only under the tight budget"
            );
            for jobs in [2, 4] {
                let par = run(jobs);
                let label = format!("{name}/{budget_name}/jobs{jobs}");
                assert_same_hier(&label, &seq, &par);
                let committed = par.result.stats.jobs_effective;
                if degrades {
                    assert_eq!(committed, 1, "{label}: a degraded walk is serial");
                } else {
                    assert!(committed > 1, "{label}: parallel result not committed");
                }
            }
        }
    }
}

/// Random canonical forms over a shared (non-contiguous) source
/// universe: a mix of empty, sparse, and fully dense forms, with signed
/// coefficients spanning several magnitudes.
fn random_forms(rng: &mut SplitMix64, universe: &[SourceId], count: usize) -> Vec<CanonicalForm> {
    (0..count)
        .map(|i| {
            let nominal = (rng.next_f64() - 0.5) * 200.0;
            let density = match i % 4 {
                0 => 0.0,            // constant form
                1 => 1.0,            // fully dense
                _ => rng.next_f64(), // sparse
            };
            let terms: Vec<(SourceId, f64)> = universe
                .iter()
                .filter_map(|&id| {
                    let keep = rng.next_f64() < density;
                    let coeff = (rng.next_f64() - 0.5) * 10.0;
                    (keep && coeff != 0.0).then_some((id, coeff))
                })
                .collect();
            CanonicalForm::with_terms(nominal, terms)
        })
        .collect()
}

fn assert_form_bits(label: &str, a: &CanonicalForm, b: &CanonicalForm) {
    assert_eq!(a.mean().to_bits(), b.mean().to_bits(), "{label}: mean");
    assert_eq!(
        a.variance().to_bits(),
        b.variance().to_bits(),
        "{label}: variance"
    );
    assert_eq!(a.term_count(), b.term_count(), "{label}: term count");
    for (x, y) in a.terms().zip(b.terms()) {
        assert_eq!(x.0, y.0, "{label}: term source");
        assert_eq!(x.1.to_bits(), y.1.to_bits(), "{label}: term coefficient");
    }
}

#[test]
fn interner_round_trip_preserves_moments_and_rule_decisions() {
    // The representation-equivalence contract behind the batched
    // kernels: round-tripping sparse forms through the dense interner
    // representation changes no observable moment — mean, variance,
    // pairwise covariance — by even one bit, and therefore cannot
    // perturb any pruning rule's decisions.
    for seed in SEEDS {
        let mut rng = SplitMix64::new(seed);
        // Non-contiguous ids, as a real run's source layout produces.
        let universe: Vec<SourceId> = (0..24u32).map(|i| SourceId(i * 3 + 1)).collect();
        let interner = TermInterner::new(universe.iter().copied());
        let forms = random_forms(&mut rng, &universe, 24);

        // 1. Round-trip is a bitwise identity on every moment.
        let columns: Vec<ColumnForm> = forms
            .iter()
            .map(|f| ColumnForm::from_canonical(&interner, f))
            .collect();
        for (i, (f, col)) in forms.iter().zip(&columns).enumerate() {
            let label = format!("seed{seed:x}/form{i}");
            assert_eq!(f.mean().to_bits(), col.mean().to_bits(), "{label}: mean");
            assert_eq!(
                f.variance().to_bits(),
                col.variance().to_bits(),
                "{label}: variance"
            );
            assert_form_bits(&label, f, &col.to_canonical(&interner));
        }

        // 2. Dense covariance replays the sparse merge walk exactly.
        for (i, (fi, ci)) in forms.iter().zip(&columns).enumerate() {
            for (fj, cj) in forms.iter().zip(&columns).skip(i) {
                assert_eq!(
                    fi.covariance(fj).to_bits(),
                    ci.covariance(cj).to_bits(),
                    "seed{seed:x}: covariance"
                );
            }
        }

        // 3. The lane-blocked batch kernels follow their documented
        // scalar references exactly (the lane schedule reassociates the
        // fold, so the pin is against `lane_*_ref`, not the sparse
        // walk), and stay numerically equivalent to the sparse moments.
        let mut batch = FormBatch::new(&interner);
        for f in &forms {
            batch.push(&interner, f);
        }
        let mut variances = Vec::new();
        batch.variances_into(&mut variances);
        let mut covariances = Vec::new();
        batch.covariances_with_into(&columns[0], &mut covariances);
        for (i, f) in forms.iter().enumerate() {
            assert_eq!(
                lane_variance_ref(batch.row(i)).to_bits(),
                variances[i].to_bits(),
                "seed{seed:x}: batched variance {i}"
            );
            assert_eq!(
                lane_dot_ref(batch.row(i), columns[0].columns()).to_bits(),
                covariances[i].to_bits(),
                "seed{seed:x}: batched covariance {i}"
            );
            let tol = 1e-12 * (1.0 + f.variance().abs());
            assert!(
                (f.variance() - variances[i]).abs() <= tol,
                "seed{seed:x}: lane variance {i} drifted beyond reassociation"
            );
            assert!(
                (f.covariance(&forms[0]) - covariances[i]).abs()
                    <= 1e-12 * (1.0 + f.covariance(&forms[0]).abs()),
                "seed{seed:x}: lane covariance {i} drifted beyond reassociation"
            );
        }

        // 4. Pruning under every rule is blind to the representation:
        // a list built from round-tripped forms keeps the same
        // survivors, in the same order, bit for bit.
        let solutions: Vec<StatSolution> = forms
            .chunks_exact(2)
            .map(|pair| StatSolution::new(pair[0].clone(), pair[1].clone()))
            .collect();
        let round_tripped: Vec<StatSolution> = columns
            .chunks_exact(2)
            .map(|pair| {
                StatSolution::new(
                    pair[0].to_canonical(&interner),
                    pair[1].to_canonical(&interner),
                )
            })
            .collect();
        for (name, rule, _) in rule_suite() {
            let a = varbuf_core::prune::prune_solutions(rule.as_ref(), solutions.clone());
            let b = varbuf_core::prune::prune_solutions(rule.as_ref(), round_tripped.clone());
            let label = format!("seed{seed:x}/{name}");
            assert_eq!(a.len(), b.len(), "{label}: survivor count");
            for (x, y) in a.iter().zip(&b) {
                assert_form_bits(&format!("{label}/load"), &x.load, &y.load);
                assert_form_bits(&format!("{label}/rat"), &x.rat, &y.rat);
            }
        }
    }
}

#[test]
fn strict_capacity_error_is_deterministic_across_jobs() {
    // The 4P cross product on a bigger tree breaches a tight cap; the
    // sharded walk must surface the same first-in-postorder breach the
    // sequential engine hits.
    let tree = generate_benchmark(&BenchmarkSpec::random("det-cap", 100, 11));
    let model = model_for(&tree);
    let run = |jobs: usize| -> InsertionError {
        optimize_with_rule(
            &tree,
            &model,
            VariationMode::WithinDie,
            &FourParam::default(),
            &DpOptions {
                max_solutions_per_node: 150,
                jobs,
                jobs_force: true,
                ..DpOptions::default()
            },
        )
        .expect_err("cap was meant to breach")
    };
    let seq = run(1);
    let par = run(4);
    assert!(matches!(seq, InsertionError::CapacityExceeded { .. }));
    assert_eq!(format!("{seq:?}"), format!("{par:?}"), "breach identity");
}

#[test]
fn batch_is_bit_identical_to_serial_loop_and_order_preserving() {
    let trees: Vec<RoutingTree> = SEEDS
        .iter()
        .enumerate()
        .map(|(i, &seed)| generate_benchmark(&BenchmarkSpec::random("det-batch", 24 + 8 * i, seed)))
        .collect();
    let models: Vec<ProcessModel> = trees.iter().map(model_for).collect();
    let mut requests = Vec::new();
    for (tree, model) in trees.iter().zip(&models) {
        for strict in [false, true] {
            let mut req = BatchRequest::new(
                tree,
                model,
                VariationMode::WithinDie,
                Arc::new(TwoParam::default()),
            );
            req.strict = strict;
            requests.push(req);
        }
    }
    // One deliberately failing request: batch must report errors in
    // place without disturbing its neighbors' slots.
    let mut failing = BatchRequest::new(
        &trees[0],
        &models[0],
        VariationMode::WithinDie,
        Arc::new(FourParam::default()),
    );
    failing.strict = true;
    failing.options = DpOptions {
        max_solutions_per_node: 10,
        time_limit: Duration::from_secs(4 * 3600),
        ..DpOptions::default()
    };
    requests.push(failing);

    // Forced fan-out: the host clamp would quietly serialize this on a
    // single-thread machine, and the whole point is to drive the
    // multi-worker result slots.
    let serial = optimize_batch(&requests, 1);
    let batched = varbuf_core::optimize_batch_forced(&requests, 4);
    assert_eq!(serial.len(), requests.len());
    assert_eq!(batched.len(), requests.len());
    for (i, (s, p)) in serial.iter().zip(&batched).enumerate() {
        match (s, p) {
            (Ok(s), Ok(p)) => assert_same_degradation(&format!("batch[{i}]"), s, p),
            (Err(es), Err(ep)) => {
                assert_eq!(format!("{es:?}"), format!("{ep:?}"), "batch[{i}]: error")
            }
            _ => panic!("batch[{i}]: Ok/Err divergence between jobs=1 and jobs=4"),
        }
    }
    assert!(
        serial.last().expect("non-empty").is_err(),
        "failing request must error in both"
    );
}
