//! The repository's benchmark: end-to-end and per-layer metrics of
//! `gemini map`, the 72-TOPs exploration and the `gemini serve` daemon.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload map-cnn --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Run it from the repository root. It prints `metric <name> <value>
//! <unit>` lines, then, as its last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end set
//! with `--trace 0`, the per-layer set with `--trace 1`. It exits
//! non-zero if any correctness check fails. See `perfbench/README.md`.

mod common;
mod explore;
mod layers;
mod map_cnn;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use common::{valid_name, Metric, Outcome, RunCfg};
use trace::Tracer;

/// Workload names, as `--workload` takes them.
const WORKLOADS: [&str; 3] = ["map-cnn", "explore-72tops", "serve-mix"];

/// The `--trace 0` metric set every workload reports.
const END_TO_END: [&str; 4] = ["setup_s", "peak_rss_mb", "primary_ms", "tail_ms"];

/// The `--trace 1` metric set every workload reports.
const PER_LAYER: [&str; 31] = [
    "sa.iters",
    "sa.member_sims",
    "sa.member_reuses",
    "sa.member_reuse_pct",
    "sa.cache_hit_pct",
    "sa.delta_hits",
    "sa.full_evals",
    "sa.iters_per_s",
    "engine.map_ms",
    "engine.stripe_ms",
    "sim.eval_group_cold_us",
    "sim.eval_group_warm_us",
    "sim.cache_probe_ns",
    "sim.bound_us",
    "intracore.explore_cold_us",
    "intracore.explore_warm_ns",
    "noc.route_ns",
    "noc.multicast_dram_ns",
    "noc.network_new_us",
    "noc.fluid_group_us",
    "dse.candidates",
    "dse.seeds",
    "dse.pruned",
    "dse.prune_pct",
    "service.handle_ms",
    "service.memo_hit_pct",
    "service.eval_cache_hit_pct",
    "service.busy",
    "service.expired",
    "model.build_ms",
    "trace.overhead_pct",
];

/// Output directory, relative to the working directory: campaign scratch
/// space (removed at exit) and span files.
const OUT_DIR: &str = ".perfbench";

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <{}> --seed N --seconds N --trace 0|1",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    let i = args.iter().position(|a| a == name)?;
    args.get(i + 1).map(String::as_str)
}

/// Writes the traced run's spans to `.perfbench/trace-<workload>-<seed>.json`.
pub fn write_trace(tr: &Tracer, workload: &str, seed: u64) {
    let path = PathBuf::from(OUT_DIR).join(format!("trace-{workload}-{seed}.json"));
    let res = std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, tr.to_json()));
    match res {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("write {}: {e}", path.display()),
    }
    for (name, t) in tr.totals() {
        println!(
            "span {name:<28} n {:>6}  total {:>10.3} ms  self {:>10.3} ms",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
}

/// The final JSON line.
fn result_json(out: &Outcome, metrics: &[Metric], correct: bool) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failures.len(),
        fields.join(", ")
    )
}

/// Checks a metric set against its expected names; returns what is off.
fn check_set(metrics: &[Metric], expected: &[&str]) -> Vec<String> {
    let mut problems = Vec::new();
    let names: BTreeSet<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
    let want: BTreeSet<&str> = expected.iter().copied().collect();
    if names != want || names.len() != metrics.len() {
        problems.push(format!("metric set {names:?} is not {want:?}"));
    }
    for m in metrics {
        if !valid_name(&m.name) {
            problems.push(format!("bad metric name {:?}", m.name));
        }
        if !m.value.is_finite() {
            problems.push(format!("{} is not finite ({})", m.name, m.value));
        }
    }
    problems
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--serve-daemon") {
        return serve::daemon_main();
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (
        flag(&args, "--workload").filter(|w| WORKLOADS.contains(w)),
        flag(&args, "--seed").and_then(|s| s.parse::<u64>().ok()),
        flag(&args, "--seconds")
            .and_then(|s| s.parse::<u64>().ok())
            .filter(|&s| s > 0),
        flag(&args, "--trace").filter(|t| matches!(*t, "0" | "1")),
    ) else {
        return usage();
    };
    let cfg = RunCfg {
        seed,
        seconds: Duration::from_secs(seconds),
        trace: trace == "1",
    };
    let work = PathBuf::from(OUT_DIR).join(format!("work-{}", std::process::id()));
    let mut out = match workload {
        "map-cnn" => map_cnn::run(&cfg),
        "explore-72tops" => explore::run(&cfg, &work),
        _ => serve::run(&cfg),
    };
    let _ = std::fs::remove_dir_all(&work);

    let (metrics, expected) = if cfg.trace {
        (out.per_layer.clone(), &PER_LAYER[..])
    } else {
        (out.end_to_end.clone(), &END_TO_END[..])
    };
    for m in out.extra.iter().chain(&metrics) {
        println!("metric {:<32} {} {}", m.name, m.value, m.unit);
    }
    // A broken metric set is a failed check of the benchmark itself,
    // reported the same way as a failed check of the program.
    for p in check_set(&metrics, expected) {
        out.fail(p);
    }
    for f in &out.failures {
        eprintln!("FAILED: {f}");
    }
    let correct = out.failures.is_empty();
    println!("{}", result_json(&out, &metrics, correct));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gemini::core::campaign::value::{parse_json, Value};

    fn names(doc: &Value, key: &str) -> Vec<String> {
        doc.get(key)
            .and_then(Value::as_list)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
            .iter()
            .map(|m| m.get("name").and_then(Value::as_str).unwrap().to_string())
            .collect()
    }

    /// `BENCHMARK.json` declares exactly the metric and workload names
    /// this program reports and accepts.
    #[test]
    fn benchmark_json_matches_the_reported_sets() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse_json(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(names(&doc, "end_to_end"), END_TO_END);
        assert_eq!(names(&doc, "per_layer"), PER_LAYER);
        assert_eq!(names(&doc, "workloads"), WORKLOADS);
        for n in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(n), "{n}");
        }
    }

    #[test]
    fn a_broken_metric_set_is_reported() {
        let m = |n: &str, v: f64| common::metric(n, v, "ms");
        let good: Vec<Metric> = END_TO_END.iter().map(|n| m(n, 1.0)).collect();
        assert!(check_set(&good, &END_TO_END).is_empty());
        assert!(
            !check_set(&good[1..], &END_TO_END).is_empty(),
            "missing metric"
        );
        let mut bad = good.clone();
        bad[0].value = f64::NAN;
        assert!(!check_set(&bad, &END_TO_END).is_empty(), "NaN value");
        bad[0] = m("setup s", 1.0);
        assert!(!check_set(&bad, &END_TO_END).is_empty(), "bad name");
    }
}
