//! Per-layer replays for the traced run.
//!
//! Each function calls one layer's public functions on a workload's own
//! architectures, graphs and final group mappings, inside the
//! benchmark's spans, and turns the span durations into metrics.

use std::hint::black_box;

use gemini::arch::ArchConfig;
use gemini::core::sa::SaStats;
use gemini::intracore::PartWorkload;
use gemini::model::Dnn;
use gemini::noc::{FlowSimWorkspace, Network};
use gemini::prelude::{EvalCache, Evaluator, MappingEngine, MappingOptions, SaOptions};
use gemini::sim::fidelity::check_group_fluid;
use gemini::sim::{part_workload, CoreProfile, GroupMapping};

use crate::common::{metric, sa_metrics, Metric};
use crate::stats::median;
use crate::stats::pct;
use crate::trace::{SpanId, Tracer};

/// Repeats of each warm (cached or memoized) call, so a sub-µs call is
/// timed over many invocations.
const WARM_REPS: usize = 200;

/// Capped stage bytes for the fluid replay, as `gemini map --stats`
/// uses.
const FLUID_CAP_BYTES: f64 = 512e3;

/// One mapped workload: what the sim, intracore and noc replays run on.
pub struct Case {
    /// Architecture the mapping targets.
    pub arch: ArchConfig,
    /// The mapped graph.
    pub dnn: Dnn,
    /// Total batch.
    pub batch: u32,
    /// Final G-Map group mappings.
    pub gms: Vec<GroupMapping>,
}

/// One `MappingEngine` job to replay.
pub struct EngineJob {
    /// Architecture to map onto.
    pub arch: ArchConfig,
    /// Graph to map.
    pub dnn: Dnn,
    /// Total batch.
    pub batch: u32,
    /// SA options (seed, budget, one chain thread).
    pub sa: SaOptions,
}

/// Maps every job with `MappingEngine::map` and `map_stripe` (spans
/// `engine.stripe` and `engine.map` under one `engine.job` each) and
/// returns the `engine.*` and `sa.*` metrics plus the mapped cases.
pub fn engine(tr: &Tracer, jobs: Vec<EngineJob>) -> (Vec<Metric>, Vec<Case>) {
    let mut map_s = Vec::new();
    let mut stripe_s = Vec::new();
    let mut sa = SaStats::default();
    let mut cases = Vec::new();
    for job in jobs {
        let ev = Evaluator::new(&job.arch);
        let eng = MappingEngine::new(&ev);
        let opts = MappingOptions {
            sa: job.sa,
            ..Default::default()
        };
        let (g, _) = tr.time("engine.job", None, 0, |id| {
            stripe_s.push(per_call(tr, "engine.stripe", id, 1, || {
                black_box(eng.map_stripe(&job.dnn, job.batch, &MappingOptions::default()));
            }));
            let (g, s) = tr.time("engine.map", id, 0, |_| eng.map(&job.dnn, job.batch, &opts));
            map_s.push(s);
            g
        });
        if let Some(st) = &g.sa_stats {
            sa.add_counters(st);
        }
        let gms = g.group_mappings(&job.dnn);
        cases.push(Case {
            arch: job.arch,
            dnn: job.dnn,
            batch: job.batch,
            gms,
        });
    }
    let mut out = sa_metrics(&sa, map_s.iter().sum());
    out.push(metric("engine.map_ms", median(&map_s) * 1e3, "ms"));
    out.push(metric("engine.stripe_ms", median(&stripe_s) * 1e3, "ms"));
    (out, cases)
}

/// Mean seconds per call of `f` over `reps` calls, inside one span.
fn per_call(
    tr: &Tracer,
    name: &'static str,
    parent: Option<SpanId>,
    reps: usize,
    mut f: impl FnMut(),
) -> f64 {
    let (_, s) = tr.time(name, parent, 0, |_| {
        for _ in 0..reps {
            f();
        }
    });
    s / reps as f64
}

/// The part workloads of one group mapping.
fn part_workloads(dnn: &Dnn, gm: &GroupMapping) -> Vec<PartWorkload> {
    gm.members
        .iter()
        .flat_map(|la| {
            la.parts
                .iter()
                .map(move |(_, region)| part_workload(dnn, la.layer, region))
        })
        .collect()
}

/// `sim.*`, `intracore.*` and the routing `noc.*` metrics over every
/// group of every case, each group's calls under one `replay.group`
/// span.
pub fn sim_noc_intracore(tr: &Tracer, cases: &[Case]) -> Vec<Metric> {
    let mut cold = Vec::new();
    let mut warm = Vec::new();
    let mut probe = Vec::new();
    let mut bound = Vec::new();
    let mut ic_cold = Vec::new();
    let mut ic_warm = Vec::new();
    let mut fluid = Vec::new();
    let mut route = Vec::new();
    let mut multicast = Vec::new();
    let mut ws = FlowSimWorkspace::new();
    for c in cases {
        let net = Network::new(&c.arch);
        let cores: Vec<_> = c.arch.cores().collect();
        let mut path = Vec::new();
        let pairs = cores.len() * cores.len();
        route.push(
            per_call(tr, "noc.route_cores", None, 1, || {
                for &a in &cores {
                    for &b in &cores {
                        path.clear();
                        net.route_cores(a, b, &mut path);
                        black_box(&path);
                    }
                }
            }) / pairs as f64,
        );
        for gm in &c.gms {
            tr.time("replay.group", None, 0, |id| {
                let ev = Evaluator::new(&c.arch);
                cold.push(per_call(tr, "sim.evaluate_group.cold", id, 1, || {
                    black_box(ev.evaluate_group(&c.dnn, gm, c.batch));
                }));
                warm.push(per_call(tr, "sim.evaluate_group.warm", id, 5, || {
                    black_box(ev.evaluate_group(&c.dnn, gm, c.batch));
                }));
                let mut cache = EvalCache::new();
                cache.evaluate(&ev, &c.dnn, gm, c.batch);
                probe.push(per_call(tr, "sim.cache_probe", id, WARM_REPS, || {
                    black_box(cache.evaluate(&ev, &c.dnn, gm, c.batch));
                }));
                bound.push(per_call(tr, "sim.group_bound", id, 20, || {
                    black_box(gemini::sim::bound::group_bound(&ev, &c.dnn, gm, c.batch));
                }));
                fluid.push(per_call(tr, "noc.check_group_fluid", id, 5, || {
                    black_box(check_group_fluid(&ev, &c.dnn, gm, FLUID_CAP_BYTES, &mut ws));
                }));

                // A fresh explorer, so the first pass searches and the
                // second hits its memo.
                let wls = part_workloads(&c.dnn, gm);
                let profile = CoreProfile::homogeneous(&c.arch);
                let ex = profile.class_explorer(0);
                let pass = |name, reps| {
                    per_call(tr, name, id, reps, || {
                        for wl in &wls {
                            black_box(ex.explore(wl));
                        }
                    }) / wls.len() as f64
                };
                ic_cold.push(pass("intracore.explore.cold", 1));
                ic_warm.push(pass("intracore.explore.warm", 20));

                let tos: Vec<_> = gm
                    .members
                    .iter()
                    .flat_map(|la| la.parts.iter().map(|p| p.0))
                    .collect();
                let mut links = Vec::new();
                let dram = c.arch.dram_count();
                let per_dram = per_call(tr, "noc.multicast_from_dram", id, 20, || {
                    for d in 0..dram {
                        net.multicast_from_dram(d, &tos, &mut links, |t| {
                            black_box(t);
                        });
                    }
                });
                multicast.push(per_dram / f64::from(dram));
            });
        }
    }
    vec![
        metric("sim.eval_group_cold_us", median(&cold) * 1e6, "us"),
        metric("sim.eval_group_warm_us", median(&warm) * 1e6, "us"),
        metric("sim.cache_probe_ns", median(&probe) * 1e9, "ns"),
        metric("sim.bound_us", median(&bound) * 1e6, "us"),
        metric("intracore.explore_cold_us", median(&ic_cold) * 1e6, "us"),
        metric("intracore.explore_warm_ns", median(&ic_warm) * 1e9, "ns"),
        metric("noc.route_ns", median(&route) * 1e9, "ns"),
        metric("noc.multicast_dram_ns", median(&multicast) * 1e9, "ns"),
        metric("noc.fluid_group_us", median(&fluid) * 1e6, "us"),
    ]
}

/// `noc.network_new_us`: median `Network::new` time over `archs`.
pub fn network_new(tr: &Tracer, archs: &[ArchConfig]) -> Metric {
    let times: Vec<f64> = archs
        .iter()
        .map(|a| {
            per_call(tr, "noc.network_new", None, 1, || {
                black_box(Network::new(a));
            })
        })
        .collect();
    metric("noc.network_new_us", median(&times) * 1e6, "us")
}

/// `model.build_ms`: median `zoo::by_name` time over `models`.
pub fn model_build(tr: &Tracer, models: &[&str]) -> Metric {
    let times: Vec<f64> = models
        .iter()
        .map(|m| {
            let (w, s) = tr.time("model.build", None, 0, |_| gemini::model::zoo::by_name(m));
            assert!(w.is_some(), "model {m} is in the zoo");
            s
        })
        .collect();
    metric("model.build_ms", median(&times) * 1e3, "ms")
}

/// The `service.*` per-layer metrics shared by every workload.
pub fn service_metrics(
    handle_s: &[f64],
    memo: (f64, f64),
    eval: (f64, f64),
    busy: f64,
    expired: f64,
) -> Vec<Metric> {
    vec![
        metric(
            "service.handle_ms",
            handle_s.iter().sum::<f64>() / handle_s.len().max(1) as f64 * 1e3,
            "ms",
        ),
        metric("service.memo_hit_pct", pct(memo.0, memo.0 + memo.1), "%"),
        metric(
            "service.eval_cache_hit_pct",
            pct(eval.0, eval.0 + eval.1),
            "%",
        ),
        metric("service.busy", busy, "count"),
        metric("service.expired", expired, "count"),
    ]
}

/// The `dse.*` counters of a workload that runs no DSE.
pub fn no_dse() -> Vec<Metric> {
    ["dse.candidates", "dse.seeds", "dse.pruned"]
        .iter()
        .map(|n| metric(n, 0.0, "count"))
        .chain([metric("dse.prune_pct", 0.0, "%")])
        .collect()
}
