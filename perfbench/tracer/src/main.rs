//! In-process side of the perfbench harness.
//!
//! `run.py` drives the `varbuf` binary from outside for the end-to-end
//! numbers. This program supplies what only the library can: the
//! seeded inputs, the library's answer for seeds with no pinned answer,
//! and the traced runs, which make
//! the same public calls as `varbuf opt`, `varbuf cts` and `varbuf serve`
//! with a span around each call into a layer.
//!
//! ```text
//! tracer gen SEED DIR      write the seven suite nets for SEED into DIR
//! tracer expect FILE...    the library's `varbuf opt FILE --mode wid` lines
//! tracer opt FILE          traced `varbuf opt FILE --mode wid --spatial hetero`
//! tracer cts LEVELS        traced `varbuf cts --levels LEVELS --budget-mem 512`
//! tracer closure SCRIPT    traced `varbuf serve --jobs 2` over a script file
//! ```
//!
//! A traced run prints the same lines as the command it mirrors, then one
//! last line `trace {json}` holding its spans and the engine's own
//! counters. Spans are offsets in nanoseconds from the start of `main`.

use std::fmt::Write as _;
use std::fs::File;
use std::hint::black_box;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use varbuf::core::metrics::DpStats;
use varbuf::prelude::*;
use varbuf::rctree::io::{read_tree, write_tree};
use varbuf::stats::{stat_min, SplitMix64};

/// Queue levels far above any cost the closure session can queue, so
/// admission control never sheds or tightens a request.
const QUEUE_UNBOUNDED: u64 = 1 << 40;
/// Worker count `varbuf serve --jobs 2` drains batches with.
const DRAIN_JOBS: usize = 2;
/// Subdivision every suite net is written with, µm.
const SUBDIVIDE_UM: f64 = 250.0;
/// `--budget-mem` of the clock workload, MiB.
const CTS_BUDGET_MIB: usize = 512;
/// Minimum time spent timing each stats kernel, ns.
const KERNEL_BUDGET_NS: u128 = 2_000_000;

fn main() -> ExitCode {
    let t0 = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("gen") => cmd_gen(&args[1..]),
        Some("expect") => cmd_expect(&args[1..]),
        Some("opt") => cmd_opt(t0, &args[1..]),
        Some("cts") => cmd_cts(t0, &args[1..]),
        Some("closure") => cmd_closure(t0, &args[1..]),
        _ => Err("usage: tracer gen|expect|opt|cts|closure ARGS".to_owned()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("tracer: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Spans recorded around the calls into each layer.
struct Tracer {
    t0: Instant,
    spans: Vec<(&'static str, u128, u128)>,
}

impl Tracer {
    fn new(t0: Instant) -> Self {
        Self {
            t0,
            spans: Vec::new(),
        }
    }

    fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = self.t0.elapsed().as_nanos();
        let out = f();
        self.spans.push((name, start, self.t0.elapsed().as_nanos()));
        out
    }

    fn spans_json(&self) -> String {
        let items: Vec<String> = self
            .spans
            .iter()
            .map(|(name, s, e)| format!(r#"{{"name":"{name}","start_ns":{s},"end_ns":{e}}}"#))
            .collect();
        format!("[{}]", items.join(","))
    }
}

fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_owned()
    }
}

fn ms(d: std::time::Duration) -> String {
    num(d.as_secs_f64() * 1e3)
}

fn dp_json(s: &DpStats) -> String {
    format!(
        r#"{{"runtime_ms":{},"wire_ms":{},"merge_ms":{},"prune_ms":{},"buffer_ms":{},"bound_ms":{},"generated":{},"pruned":{},"pruned_by_bound":{},"lishi_skipped":{},"max_list":{}}}"#,
        ms(s.runtime),
        ms(s.wire_time),
        ms(s.merge_time),
        ms(s.prune_time),
        ms(s.buffer_time),
        ms(s.bound_time),
        s.solutions_generated,
        s.solutions_pruned,
        s.pruned_by_bound,
        s.lishi_skipped,
        s.max_solutions_per_node,
    )
}

/// The seven Table 1-shaped suite nets for `seed`. Seed 0 is the named
/// suite itself; any other seed keeps each net's sink count and die and
/// draws a fresh placement.
fn suite_specs(seed: u64) -> Vec<BenchmarkSpec> {
    let mut mix = SplitMix64::new(seed);
    BenchmarkSpec::suite()
        .into_iter()
        .map(|mut spec| {
            if seed != 0 {
                spec.seed ^= mix.next_u64();
            }
            spec
        })
        .collect()
}

fn cmd_gen(args: &[String]) -> Result<(), String> {
    let [seed, dir] = args else {
        return Err("gen needs SEED DIR".to_owned());
    };
    let seed: u64 = seed.parse().map_err(|_| format!("bad seed `{seed}`"))?;
    for spec in suite_specs(seed) {
        let tree = generate_benchmark(&spec).subdivided(SUBDIVIDE_UM);
        let path = format!("{dir}/{}.tree", spec.name);
        let file = File::create(&path).map_err(|e| format!("cannot create {path}: {e}"))?;
        let mut out = BufWriter::new(file);
        write_tree(&tree, &mut out).map_err(|e| e.to_string())?;
        out.flush()
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("{path} {} sinks", tree.sink_count());
    }
    Ok(())
}

fn load_tree(path: &str) -> Result<RoutingTree, String> {
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    read_tree(BufReader::new(file)).map_err(|e| format!("cannot parse {path}: {e}"))
}

/// The two lines `varbuf opt FILE --mode wid` prints for a clean run.
fn opt_lines(result: &OptimizeResult, analysis: &YieldAnalysis) -> [String; 2] {
    [
        format!(
            "mode {}: {} buffers, RAT {:.1} ± {:.2} ps",
            VariationMode::WithinDie.label(),
            result.assignment.len(),
            result.root_rat.mean(),
            result.root_rat.std_dev()
        ),
        format!(
            "silicon (WID): mean {:.1}, sigma {:.2}, 95%-yield RAT {:.1}",
            analysis.rat.mean(),
            analysis.rat.std_dev(),
            analysis.rat_at_95_yield
        ),
    ]
}

fn cmd_expect(paths: &[String]) -> Result<(), String> {
    for path in paths {
        let tree = load_tree(path)?;
        let model = ProcessModel::paper_defaults(tree.bounding_box(), SpatialKind::Heterogeneous);
        let r = optimize_statistical(&tree, &model, VariationMode::WithinDie, &Options::default())
            .map_err(|e| e.to_string())?;
        let a = YieldEvaluator::new(&tree, &model, VariationMode::WithinDie).analyze(&r.assignment);
        println!("== {path}");
        for line in opt_lines(&r, &a) {
            println!("{line}");
        }
    }
    Ok(())
}

/// Nanoseconds per operand term of three public stats kernels, timed on
/// `pairs` for at least [`KERNEL_BUDGET_NS`] each.
fn kernels_json(pairs: &[(&CanonicalForm, &CanonicalForm)]) -> String {
    fn time_kernel(
        pairs: &[(&CanonicalForm, &CanonicalForm)],
        mut op: impl FnMut(&CanonicalForm, &CanonicalForm),
    ) -> f64 {
        let terms_per_round: usize = pairs
            .iter()
            .map(|(a, b)| a.term_count() + b.term_count())
            .sum();
        let start = Instant::now();
        let mut rounds = 0usize;
        while rounds == 0 || start.elapsed().as_nanos() < KERNEL_BUDGET_NS {
            for &(a, b) in pairs {
                op(black_box(a), black_box(b));
            }
            rounds += 1;
        }
        start.elapsed().as_nanos() as f64 / (rounds * terms_per_round.max(1)) as f64
    }
    let cov = time_kernel(pairs, |a, b| {
        black_box(a.covariance(b));
    });
    let lin = time_kernel(pairs, |a, b| {
        black_box(a.linear_combination(1.0, b, -1.0));
    });
    let min = time_kernel(pairs, |a, b| {
        black_box(stat_min(a, b));
    });
    let terms: Vec<String> = pairs
        .iter()
        .flat_map(|(a, b)| [a.term_count(), b.term_count()])
        .map(|n| n.to_string())
        .collect();
    format!(
        r#"{{"cov_ns_per_term":{},"lin_comb_ns_per_term":{},"clark_min_ns_per_term":{},"form_terms":[{}]}}"#,
        num(cov),
        num(lin),
        num(min),
        terms.join(",")
    )
}

fn rel_err(a: f64, b: f64) -> f64 {
    (a - b).abs() / b.abs().max(f64::MIN_POSITIVE)
}

/// Traced `varbuf opt FILE --mode wid --spatial hetero`.
fn cmd_opt(t0: Instant, args: &[String]) -> Result<(), String> {
    let [path] = args else {
        return Err("opt needs FILE".to_owned());
    };
    let mut tr = Tracer::new(t0);
    let tree = tr.span("rctree.io.read", || load_tree(path))?;
    let model = tr.span("variation.model", || {
        ProcessModel::paper_defaults(tree.bounding_box(), SpatialKind::Heterogeneous)
    });
    let r = tr
        .span("core.dp.run", || {
            optimize_statistical(&tree, &model, VariationMode::WithinDie, &Options::default())
        })
        .map_err(|e| e.to_string())?;
    let a = tr.span("core.yield_eval.analyze", || {
        YieldEvaluator::new(&tree, &model, VariationMode::WithinDie).analyze(&r.assignment)
    });
    for line in opt_lines(&r, &a) {
        println!("{line}");
    }
    // The re-scoring walks the final assignment with no DP state, so it
    // checks the engine's root form independently.
    let rescore = rel_err(r.root_rat.mean(), a.rat.mean())
        .max(rel_err(r.root_rat.std_dev(), a.rat.std_dev()));
    let kernels = tr.span("stats.kernels", || kernels_json(&[(&r.root_rat, &a.rat)]));
    println!(
        r#"trace {{"spans":{},"dp":{},"rescore_rel_err":{},"kernels":{}}}"#,
        tr.spans_json(),
        dp_json(&r.stats),
        num(rescore),
        kernels
    );
    Ok(())
}

/// Traced `varbuf cts --levels LEVELS --budget-mem 512`.
fn cmd_cts(t0: Instant, args: &[String]) -> Result<(), String> {
    let [levels] = args else {
        return Err("cts needs LEVELS".to_owned());
    };
    let levels: u32 = levels
        .parse()
        .ok()
        .filter(|l| (1..=24).contains(l))
        .ok_or_else(|| format!("bad level count `{levels}`"))?;
    let mut tr = Tracer::new(t0);
    let tree = tr.span("rctree.generate.htree", || {
        let tree = generate_htree(&HTreeSpec::with_levels(levels));
        tree.validate().map(|()| tree)
    });
    let tree = tree.map_err(|e| e.to_string())?;
    let model = tr.span("variation.model", || {
        ProcessModel::paper_defaults(tree.bounding_box(), SpatialKind::Heterogeneous)
    });
    let mut budget = Budget::unlimited();
    budget.soft_mem_bytes = CTS_BUDGET_MIB << 20;
    budget.hard_mem_bytes = budget.soft_mem_bytes * 4;
    let rule: Arc<dyn PruningRule> = Arc::new(TwoParam::default());
    let g = tr
        .span("core.hier.run", || {
            optimize_hier(
                &tree,
                &model,
                VariationMode::WithinDie,
                fallback_cascade(rule),
                &WireSizing::single(),
                &DpOptions::default(),
                &HierOptions::default(),
                &budget,
                RunControls::default(),
            )
        })
        .map_err(|e| e.to_string())?;
    if g.degradation.degraded() {
        print!("{}", g.degradation.summary());
    }
    let r = &g.result;
    println!(
        "htree{levels}: {} sinks, {} buffers, RAT {:.1} ± {:.2} ps",
        tree.sink_count(),
        r.assignment.len(),
        r.root_rat.mean(),
        r.root_rat.std_dev()
    );
    println!(
        "decomposition: {} cuts, {} spliced candidates dropped, peak chunk bytes {}, frontier cap {}",
        g.hier.cut_count, g.hier.spliced_dropped, g.hier.peak_chunk_bytes, g.hier.final_frontier_cap
    );
    let (analysis, skew, yields) = tr.span("core.skew.analyze", || {
        let analysis =
            SkewAnalyzer::new(&tree, &model, VariationMode::WithinDie).analyze(&r.assignment);
        let skew = analysis.global_skew();
        let yields: Vec<(f64, f64)> = [1.0, 1.5, 2.0]
            .iter()
            .map(|m| {
                let target = skew.mean() * m + 1e-9;
                (target, analysis.skew_yield(target))
            })
            .collect();
        (analysis, skew, yields)
    });
    println!("global skew {:.2} ± {:.2} ps", skew.mean(), skew.std_dev());
    for (target, y) in yields {
        println!("  P(skew <= {target:.2} ps) = {:.1}%", 100.0 * y);
    }
    let kernels = tr.span("stats.kernels", || {
        // Sixty-four arrival pairs spread across the sinks, each paired
        // with the sink half the tree away.
        let n = analysis.arrivals.len();
        let step = (n / 64).max(1);
        let pairs: Vec<(&CanonicalForm, &CanonicalForm)> = (0..n / 2)
            .step_by(step)
            .map(|i| (&analysis.arrivals[i].1, &analysis.arrivals[i + n / 2].1))
            .collect();
        kernels_json(&pairs)
    });
    println!(
        r#"trace {{"spans":{},"dp":{},"hier":{{"cuts":{},"spliced_dropped":{},"peak_chunk_bytes":{},"governor_events":{}}},"kernels":{}}}"#,
        tr.spans_json(),
        dp_json(&r.stats),
        g.hier.cut_count,
        g.hier.spliced_dropped,
        g.hier.peak_chunk_bytes,
        g.degradation.events.len(),
        kernels
    );
    Ok(())
}

/// One answered interactive request of the closure trace.
struct ReqRecord {
    kind: &'static str,
    parse_ns: u128,
    exec_ns: u128,
    render_ns: u128,
    dirty: Option<u64>,
}

fn nanos_since(start: Instant) -> u128 {
    start.elapsed().as_nanos()
}

/// Traced `varbuf serve --jobs 2` with unbounded queues: the serve loop's
/// request handling, in process, over the lines of SCRIPT.
fn cmd_closure(t0: Instant, args: &[String]) -> Result<(), String> {
    let [path] = args else {
        return Err("closure needs SCRIPT".to_owned());
    };
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let mut service = Service::new(ServiceConfig {
        queue_soft_cost: QUEUE_UNBOUNDED,
        queue_hard_cost: QUEUE_UNBOUNDED,
        ..ServiceConfig::default()
    });
    let mut out = std::io::stdout().lock();
    let mut say = |line: &str| writeln!(out, "{line}").map_err(|e| e.to_string());
    let mut records: Vec<ReqRecord> = Vec::new();
    let mut drains: Vec<(u128, usize)> = Vec::new();
    let mut read_ns: u128 = 0;
    let mut batching = false;
    let mut lines = BufReader::new(file).lines();
    while let Some(line) = lines.next() {
        let line = line.map_err(|e| e.to_string())?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let start = Instant::now();
        let command = parse_line(trimmed).map_err(|e| format!("`{trimmed}`: {e}"))?;
        let parse_ns = nanos_since(start);
        let request = match command {
            Command::Quit => break,
            Command::Begin => {
                batching = true;
                say("ok begin")?;
                continue;
            }
            Command::Commit => {
                batching = false;
                let start = Instant::now();
                let responses = service.drain(DRAIN_JOBS);
                drains.push((nanos_since(start), responses.len()));
                for response in responses {
                    say(&response.to_string())?;
                }
                say("ok commit")?;
                continue;
            }
            Command::LoadTree { spatial } => {
                let mut text = String::new();
                for body in lines.by_ref() {
                    let body = body.map_err(|e| e.to_string())?;
                    if body.trim() == "end" {
                        break;
                    }
                    text.push_str(&body);
                    text.push('\n');
                }
                let start = Instant::now();
                let tree = read_tree(text.as_bytes()).map_err(|e| e.to_string())?;
                read_ns += nanos_since(start);
                Request::Open {
                    tree: Box::new(tree),
                    spatial,
                }
            }
            Command::Req(request) => request,
            Command::Help | Command::Inject { .. } => {
                return Err(format!("`{trimmed}` is not part of a closure script"))
            }
        };
        if batching {
            service.submit(request);
            continue;
        }
        let kind = match &request {
            Request::Optimize { .. } => "opt",
            Request::Edit { .. } => "edit",
            Request::Open { .. } => "open",
            _ => "other",
        };
        let start = Instant::now();
        let response = service.execute(request);
        let exec_ns = nanos_since(start);
        let start = Instant::now();
        let rendered = response.to_string();
        let render_ns = nanos_since(start);
        say(&rendered)?;
        let dirty = match response {
            Response::Edited { dirty, .. } => Some(dirty),
            _ => None,
        };
        records.push(ReqRecord {
            kind,
            parse_ns,
            exec_ns,
            render_ns,
            dirty,
        });
    }
    say("ok bye")?;
    let wall_ns = nanos_since(t0);
    let stats = service.stats();
    let mut json = String::from(r#"trace {"requests":["#);
    for (i, r) in records.iter().enumerate() {
        let dirty = r.dirty.map_or("null".to_owned(), |d| d.to_string());
        let _ = write!(
            json,
            r#"{}{{"kind":"{}","parse_ns":{},"exec_ns":{},"render_ns":{},"dirty":{dirty}}}"#,
            if i == 0 { "" } else { "," },
            r.kind,
            r.parse_ns,
            r.exec_ns,
            r.render_ns,
        );
    }
    let drains: Vec<String> = drains
        .iter()
        .map(|(ns, n)| format!(r#"{{"ns":{ns},"requests":{n}}}"#))
        .collect();
    let _ = write!(
        json,
        r#"],"drains":[{}],"read_ns":{read_ns},"wall_ns":{wall_ns},"stats":{{"cache_hits":{},"cache_misses":{},"cache_invalidations":{},"served":{},"shed":{},"tightened":{}}}}}"#,
        drains.join(","),
        stats.cache_hits,
        stats.cache_misses,
        stats.cache_invalidations,
        stats.served,
        stats.shed,
        stats.tightened,
    );
    say(&json)
}
