//! `map-cnn`: `gemini map` requests for GoogLeNet and ResNet-50.
//!
//! Why: this is the paper's mapping loop and the SA hot path. It does no
//! bound, fluid, queue or journal work. `gn` is delta-dominated (about
//! 80% of member records reused, no full evaluations); `rn-50` adds
//! 16 groups and about 900 full evaluations, so a change to delta
//! evaluation and a change to full evaluation show on different
//! requests.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use gemini::arch::presets::g_arch_72;
use gemini::prelude::{Evaluator, MapParams, RequestBody, SaOptions, ServiceState};

use crate::common::{
    cache_counts, metric, num, peak_rss_mb, setup_s, with_cpu, Outcome, Rng, RunCfg,
};
use crate::layers::{self, EngineJob};
use crate::stats::{geomean, median, tail};
use crate::trace::Tracer;

/// The two requests of one round, lightest first.
const MODELS: [&str; 2] = ["gn", "rn-50"];
const BATCH: u32 = 8;
const ITERS: u32 = 4000;
/// SA seeds per run. Map time depends on the seed by up to 20%, so every
/// round takes a seed of its own and the medians are taken over as many
/// seeds as rounds fit in the run (a pool of six seeds, cycled, moved
/// the `rn-50` median by 5% from run to run).
const SEEDS: usize = 64;
/// Fewest rounds, whatever `--seconds` is; `map.sim_edp` is taken over
/// these.
const MIN_ROUNDS: usize = 7;

/// The `gemini map <model> --arch g-arch --batch 8 --iters 4000
/// --threads 1` request body.
pub fn request(model: &str, seed: u64) -> RequestBody {
    RequestBody::Map(MapParams {
        model: model.to_string(),
        arch: "g-arch".to_string(),
        batch: BATCH,
        iters: ITERS,
        seed,
        threads: 1,
        stats: false,
    })
}

/// One timed phase's samples.
#[derive(Default)]
struct Phase {
    /// Wall seconds per request, per model.
    secs: BTreeMap<&'static str, Vec<f64>>,
    /// CPU seconds per request, per model.
    cpu: BTreeMap<&'static str, Vec<f64>>,
    /// G-Map energy-delay products (simulated), J*s, of the first
    /// `MIN_ROUNDS` rounds, which every run makes, so their geomean does
    /// not depend on the run's length.
    edp: Vec<f64>,
    /// Summed (hits, misses) of the request memo and the eval cache.
    memo: (f64, f64),
    eval: (f64, f64),
}

/// Runs rounds of `MODELS` requests for at least `secs` seconds, each on
/// a fresh one-shot state (the CLI path), then repeats the first round
/// untimed, so that every run checks a repeated map is bit-identical.
fn phase(out: &mut Outcome, tr: &Tracer, seeds: &[u64], secs: f64) -> Phase {
    let mut ph = Phase::default();
    let mut first: BTreeMap<(&str, u64), String> = BTreeMap::new();
    let start = Instant::now();
    let mut round = 0;
    let mut repeat = false;
    loop {
        if round >= MIN_ROUNDS && start.elapsed().as_secs_f64() >= secs {
            if repeat {
                break;
            }
            repeat = true;
        }
        let seed = seeds[if repeat { 0 } else { round % seeds.len() }];
        let span = tr.open("map.round", None, round as u64);
        for model in MODELS {
            out.attempted += 1;
            let state = ServiceState::one_shot();
            let req = out.attempted;
            let ((res, s), cpu) = with_cpu(|| {
                tr.time("service.handle", span, req, |_| {
                    state.handle(&request(model, seed))
                })
            });
            let payload = match res {
                Ok(p) => p,
                Err(e) => {
                    out.fail(format!("map {model} seed {seed}: {e}"));
                    continue;
                }
            };
            if !repeat {
                ph.secs.entry(model).or_default().push(s);
                ph.cpu.entry(model).or_default().push(cpu);
            }
            let json = payload.to_json();
            match first.get(&(model, seed)) {
                Some(prev) if *prev != json => out.fail(format!(
                    "map {model} seed {seed}: repeat is not bit-identical"
                )),
                Some(_) => {}
                None => {
                    first.insert((model, seed), json);
                    match (
                        num(&payload, "gmap_delay_s"),
                        num(&payload, "gmap_energy_j"),
                    ) {
                        (Some(d), Some(e)) if d > 0.0 && e > 0.0 => {
                            if round < MIN_ROUNDS {
                                ph.edp.push(d * e);
                            }
                        }
                        _ => out.fail(format!(
                            "map {model}: payload lacks a positive G-Map result"
                        )),
                    }
                }
            }
            let c = state.counters();
            for (acc, section) in [(&mut ph.memo, "request_memo"), (&mut ph.eval, "eval_cache")] {
                let (h, m) = cache_counts(&c, section);
                acc.0 += h;
                acc.1 += m;
            }
        }
        tr.close(span);
        round += 1;
    }
    ph
}

/// Graph and evaluator build: what a `map` run does before its first
/// SA step.
fn setup_once() {
    for m in MODELS {
        black_box(gemini::model::zoo::by_name(m).expect("model is in the zoo"));
    }
    black_box(Evaluator::new(&g_arch_72()));
}

/// Set-ups per `setup_s` sample: about 90 ms of builds, so a sample is
/// not one call's tens of microseconds.
const SETUP_BATCH: usize = 1000;

/// The median `gn` and the median `rn-50` request. Each is one fixed
/// statistic of one request class, so how many rounds fit in the run
/// cannot change what it reports.
fn headline_ms(secs: &BTreeMap<&str, Vec<f64>>) -> (f64, f64) {
    let med = |m: &str| secs.get(m).map_or(f64::NAN, |xs| median(xs) * 1e3);
    (med("gn"), med("rn-50"))
}

/// Runs the workload.
pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let setup = setup_s(SETUP_BATCH, setup_once);
    let mut rng = Rng::new(cfg.seed, 1);
    let seeds: Vec<u64> = (0..SEEDS).map(|_| rng.sa_seed()).collect();
    let secs = cfg.seconds.as_secs_f64();
    let off = Tracer::new(false);

    if !cfg.trace {
        let ph = phase(&mut out, &off, &seeds, secs);
        // CPU time; see `cpu_time_s`. A map runs on one thread.
        let (gn, rn) = headline_ms(&ph.cpu);
        let (gn_wall, rn_wall) = headline_ms(&ph.secs);
        out.end_to_end = vec![
            metric("setup_s", setup, "s"),
            metric(
                "peak_rss_mb",
                peak_rss_mb(std::process::id()).unwrap_or(f64::NAN),
                "MiB",
            ),
            metric("primary_ms", gn, "ms"),
            metric("tail_ms", rn, "ms"),
        ];
        out.extra
            .push(metric("map.wall_s", (gn_wall + rn_wall) / 2e3, "s"));
        out.extra.push(metric("map.gn.wall_ms", gn_wall, "ms"));
        out.extra.push(metric("map.rn-50.wall_ms", rn_wall, "ms"));
        out.extra
            .push(metric("map.sim_edp", geomean(&ph.edp), "J.s"));
        for (m, xs) in &ph.secs {
            out.extra
                .push(metric(&format!("map.{m}.n"), xs.len() as f64, "count"));
            if let Some(t) = tail(xs) {
                out.extra
                    .push(metric(&format!("map.{m}.p{}_s", t.pct), t.value, "s"));
            }
        }
        out.extra.push(metric("fail_pct", out.fail_pct(), "%"));
        return out;
    }

    // Traced run: the same loop untraced, then traced, for half the
    // time each; the difference is the tracing overhead.
    let tr = Tracer::new(true);
    let a = phase(&mut out, &off, &seeds, secs / 2.0);
    let b = phase(&mut out, &tr, &seeds, secs / 2.0);
    let overhead = median(&b.secs["gn"]) / median(&a.secs["gn"]) * 100.0 - 100.0;
    let handle: Vec<f64> = b.secs.values().flatten().copied().collect();

    let arch = g_arch_72();
    let jobs = MODELS
        .iter()
        .map(|m| EngineJob {
            arch: arch.clone(),
            dnn: gemini::model::zoo::by_name(m)
                .expect("model is in the zoo")
                .graph,
            batch: BATCH,
            sa: SaOptions {
                iters: ITERS,
                seed: seeds[0],
                threads: 1,
                ..Default::default()
            },
        })
        .collect();
    let (mut layer, cases) = layers::engine(&tr, jobs);
    layer.extend(layers::sim_noc_intracore(&tr, &cases));
    layer.push(layers::network_new(&tr, &[arch]));
    layer.push(layers::model_build(&tr, &MODELS));
    layer.extend(layers::service_metrics(&handle, b.memo, b.eval, 0.0, 0.0));
    layer.extend(layers::no_dse());
    layer.push(metric("trace.overhead_pct", overhead, "%"));
    out.per_layer = layer;
    out.extra.push(metric("fail_pct", out.fail_pct(), "%"));
    crate::write_trace(&tr, "map-cnn", cfg.seed);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gemini::core::campaign::value::parse_json;

    /// Samples of a 30 s run whose `gn` and `rn-50` requests take `gn_s`
    /// and `rn_s`, with up to 15% seed-to-seed variation.
    fn run_of(gn_s: f64, rn_s: f64) -> BTreeMap<&'static str, Vec<f64>> {
        let rounds = (30.0 / (gn_s + rn_s)).ceil().max(MIN_ROUNDS as f64) as usize;
        let vary = |base: f64| {
            (0..rounds)
                .map(|i| base * (1.0 + 0.03 * (i % 6) as f64))
                .collect()
        };
        BTreeMap::from([("gn", vary(gn_s)), ("rn-50", vary(rn_s))])
    }

    /// A slower `rn-50` means fewer rounds in the run. `tail_ms` must
    /// rise with it, by the slowdown give or take the seed variation,
    /// and `primary_ms` must stay put, whatever the round count.
    #[test]
    fn a_slower_heavy_request_cannot_lower_tail_ms() {
        let (gn0, rn0) = headline_ms(&run_of(0.35, 0.58));
        let mut last = rn0;
        for slow in [1.2, 1.5, 1.77, 2.0, 3.0, 6.0] {
            let (gn, rn) = headline_ms(&run_of(0.35, 0.58 * slow));
            assert!(
                (gn / gn0 - 1.0).abs() < 0.1,
                "slowdown {slow}: primary {gn} vs {gn0}"
            );
            let k = rn / rn0;
            assert!(
                rn > last && k > slow / 1.1 && k < slow * 1.1,
                "slowdown {slow}: tail x{k}"
            );
            last = rn;
        }
        let (gn, rn) = headline_ms(&run_of(0.35 / 1.7, 0.58 / 1.7));
        assert!((gn0 / gn / 1.7 - 1.0).abs() < 0.1 && (rn0 / rn / 1.7 - 1.0).abs() < 0.1);
    }

    /// The `sa.*` counters keep `BENCH_sa.json`'s meaning: its `gn`
    /// map (batch 8, 4000 iterations, seed 42, one chain thread) reports
    /// exactly the counts the file records.
    #[test]
    fn sa_counters_match_bench_sa_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCH_sa.json");
        let file = parse_json(&std::fs::read_to_string(path).expect("BENCH_sa.json is readable"))
            .expect("BENCH_sa.json is JSON");
        let want = |k: &str| num(&file, k).unwrap_or_else(|| panic!("BENCH_sa.json lacks {k}"));
        assert_eq!(want("batch"), f64::from(BATCH));
        assert_eq!(want("iters"), f64::from(ITERS));

        let job = EngineJob {
            arch: g_arch_72(),
            dnn: gemini::model::zoo::by_name("gn").unwrap().graph,
            batch: BATCH,
            sa: SaOptions {
                iters: ITERS,
                seed: 42,
                threads: 1,
                ..Default::default()
            },
        };
        let (metrics, _) = layers::engine(&Tracer::new(false), vec![job]);
        let got = |k: &str| metrics.iter().find(|m| m.name == k).unwrap().value;
        assert_eq!(got("sa.member_sims"), 10756.0);
        assert_eq!(got("sa.member_reuses"), 41395.0);
        assert_eq!(got("sa.delta_hits"), 3818.0);
        assert_eq!(got("sa.full_evals"), 0.0);
        for k in ["member_sims", "member_reuses", "delta_hits", "full_evals"] {
            assert_eq!(got(&format!("sa.{k}")), want(k), "sa.{k}");
        }
        assert_eq!(
            (got("sa.member_reuse_pct") * 10.0).round() / 10.0,
            want("member_reuse_pct")
        );
    }
}
