//! `explore-72tops`: the Table-I 72-TOPs exploration on the Transformer.
//!
//! Why: this workload runs many short SA chains, each on a freshly
//! built evaluator, so per-candidate set-up (`Evaluator::new`,
//! `Network::new`), the rung-0 bound and the fluid simulator carry the
//! work that `map-cnn` skips. A gain in long hot-loop chains is diluted
//! here, and a precompute that speeds up `map-cnn` but adds set-up cost
//! per candidate shows its cost here.
//!
//! Each round runs the strided sweep (`gemini dse --tops 72 --stride 29
//! --batch 8 --iters 200 --fidelity analytic+prune --threads 2`) twice,
//! with fresh seeds, then the `manifests/dse_72tops.toml` campaign cold
//! into a fresh directory, then the same campaign with `--resume`.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use gemini::core::campaign::journal::{cell_from_json, cell_to_json};
use gemini::core::campaign::value::{parse_json, Value};
use gemini::core::dse::evaluate_candidate;
use gemini::cost::CostModel;
use gemini::prelude::{
    parse_policy, run_dse, CampaignParams, CampaignSpec, DseOptions, DseParams, DseSpec,
    MappingOptions, Objective, RequestBody, SaOptions, ServiceState,
};

use crate::common::{metric, num, peak_rss_mb, setup_s, with_cpu, Metric, Outcome, Rng, RunCfg};
use crate::layers::{self, EngineJob};
use crate::stats::median;
use crate::trace::{SpanId, Tracer};

const MANIFEST: &str = "manifests/dse_72tops.toml";
const TOPS: f64 = 72.0;
const STRIDE: usize = 29;
const BATCH: u32 = 8;
const ITERS: u32 = 200;
const FIDELITY: &str = "analytic+prune";
const OBJECTIVE: &str = "mc-e-d";
/// Sweep and campaign workers.
const THREADS: usize = 2;
/// Sweeps per cold campaign. A sweep takes under half a campaign's time
/// and varies more with the seed, so it gets more samples.
const SWEEPS_PER_ROUND: usize = 2;

fn sweep_request(seed: u64) -> RequestBody {
    RequestBody::Dse(DseParams {
        tops: TOPS,
        stride: STRIDE,
        batch: BATCH,
        iters: ITERS,
        seed,
        fidelity: FIDELITY.to_string(),
        rerank_k: 8,
        threads: Some(THREADS),
        sa_threads: 0,
        objective: OBJECTIVE.to_string(),
    })
}

fn campaign_request(manifest: &Path, out: &Path, resume: bool) -> RequestBody {
    RequestBody::Campaign(CampaignParams {
        manifest: manifest.display().to_string(),
        resume,
        threads: THREADS,
        out: Some(out.display().to_string()),
        merge: false,
        shards: None,
        shard_index: None,
        steal: false,
    })
}

/// The repository manifest with the run's SA seed written into its
/// `[campaign]` table.
fn seeded_manifest(text: &str, seed: u64) -> String {
    let mut out = String::new();
    for line in text.lines() {
        out.push_str(line);
        out.push('\n');
        if line.trim() == "[campaign]" {
            out.push_str(&format!("seed = {seed}\n"));
        }
    }
    out
}

/// The per-objective winner's score from a campaign report's
/// `best under <objective> ... score <x>` line.
fn campaign_best(report: &str) -> Option<f64> {
    report
        .lines()
        .find(|l| {
            l.trim_start()
                .starts_with(&format!("best under {OBJECTIVE}"))
        })
        .and_then(|l| l.rsplit("score").next())
        .and_then(|s| s.trim().parse().ok())
}

fn read_all(paths: &[PathBuf]) -> std::io::Result<Vec<Vec<u8>>> {
    paths.iter().map(std::fs::read).collect()
}

fn artifact_paths(payload: &Value) -> Vec<PathBuf> {
    payload
        .get("artifacts")
        .and_then(Value::as_list)
        .unwrap_or(&[])
        .iter()
        .filter_map(Value::as_str)
        .map(PathBuf::from)
        .collect()
}

/// One timed phase's samples.
#[derive(Default)]
struct Phase {
    /// Wall and CPU seconds per sweep and per cold campaign.
    sweep_s: Vec<f64>,
    sweep_cpu_s: Vec<f64>,
    campaign_s: Vec<f64>,
    campaign_cpu_s: Vec<f64>,
    resume_s: Vec<f64>,
    cells: f64,
    /// The first sweep's winner objective (its seed depends only on the
    /// run's seed).
    sweep_score: f64,
    campaign_score: f64,
    /// A cold campaign's journal, kept for the codec replay.
    journal: Option<String>,
}

/// Runs sweep + campaign rounds for at least `secs` seconds.
fn phase(out: &mut Outcome, tr: &Tracer, cfg: &RunCfg, work: &Path, secs: f64) -> Phase {
    let mut ph = Phase {
        sweep_score: f64::NAN,
        ..Phase::default()
    };
    // Each round's sweep takes the next seed: sweep time depends on the
    // seed through how many candidates the bound prunes.
    let mut sweep_seeds = Rng::new(cfg.seed, 2);
    let manifest = work.join("manifest.toml");
    let text = match std::fs::read_to_string(MANIFEST) {
        Ok(t) => t,
        Err(e) => {
            out.fail(format!("read {MANIFEST}: {e}"));
            return ph;
        }
    };
    let seeded = seeded_manifest(&text, Rng::new(cfg.seed, 3).sa_seed());
    if let Err(e) = std::fs::create_dir_all(work).and_then(|()| std::fs::write(&manifest, seeded)) {
        out.fail(format!("write {}: {e}", manifest.display()));
        return ph;
    }
    let start = Instant::now();
    let mut round = 0;
    while round == 0 || start.elapsed().as_secs_f64() < secs {
        let span = tr.open("explore.round", None, round as u64);
        for _ in 0..SWEEPS_PER_ROUND {
            sweep(out, tr, span, &mut ph, sweep_seeds.sa_seed());
        }
        out.attempted += 1;
        let dir = work.join(format!("round-{round}"));
        let state = ServiceState::one_shot();
        let ((res, s), cpu) = with_cpu(|| {
            tr.time("campaign.cold", span, out.attempted, |_| {
                state.handle(&campaign_request(&manifest, &dir, false))
            })
        });
        match res {
            Ok(p) => {
                ph.campaign_s.push(s);
                ph.campaign_cpu_s.push(cpu);
                ph.cells = num(&p, "cells").unwrap_or(0.0);
                if num(&p, "evaluated") != Some(ph.cells) || ph.cells == 0.0 {
                    out.fail("cold campaign did not evaluate every cell");
                }
                let report = p.get("report").and_then(Value::as_str).unwrap_or("");
                match campaign_best(report) {
                    Some(b) => ph.campaign_score = b,
                    None => out.fail("campaign report lacks a best score"),
                }
                let artifacts = artifact_paths(&p);
                check_resume(out, tr, span, &mut ph, &manifest, &dir, &artifacts);
            }
            Err(e) => out.fail(format!("campaign: {e}")),
        }
        let _ = std::fs::remove_dir_all(&dir);
        tr.close(span);
        round += 1;
    }
    ph
}

/// One strided sweep through the CLI path.
fn sweep(out: &mut Outcome, tr: &Tracer, parent: Option<SpanId>, ph: &mut Phase, seed: u64) {
    out.attempted += 1;
    let state = ServiceState::one_shot();
    let ((res, s), cpu) = with_cpu(|| {
        tr.time("dse.sweep", parent, out.attempted, |_| {
            state.handle(&sweep_request(seed))
        })
    });
    match res {
        Ok(p) => {
            ph.sweep_s.push(s);
            ph.sweep_cpu_s.push(cpu);
            match (num(&p, "mc"), num(&p, "energy_j"), num(&p, "delay_s")) {
                (Some(mc), Some(e), Some(d)) if ph.sweep_score.is_nan() => {
                    ph.sweep_score = mc * e * d;
                }
                (Some(_), Some(_), Some(_)) => {}
                _ => out.fail("sweep payload lacks mc/energy_j/delay_s"),
            }
            if num(&p, "bound_total").is_none() {
                out.fail("sweep payload lacks the rung-0 bound counters");
            }
        }
        Err(e) => out.fail(format!("sweep: {e}")),
    }
}

/// Resumes the campaign in `dir` over its full journal and checks the
/// artifacts come out byte-identical.
fn check_resume(
    out: &mut Outcome,
    tr: &Tracer,
    parent: Option<SpanId>,
    ph: &mut Phase,
    manifest: &Path,
    dir: &Path,
    artifacts: &[PathBuf],
) {
    let cold = match read_all(artifacts) {
        Ok(b) if !b.is_empty() => b,
        Ok(_) => return out.fail("cold campaign listed no artifacts"),
        Err(e) => return out.fail(format!("read cold artifacts: {e}")),
    };
    if ph.journal.is_none() {
        let j = artifacts
            .first()
            .and_then(|a| a.parent())
            .map(|d| d.join("journal.jsonl"));
        ph.journal = j.and_then(|j| std::fs::read_to_string(j).ok());
    }
    out.attempted += 1;
    let state = ServiceState::one_shot();
    let (res, s) = tr.time("campaign.resume", parent, out.attempted, |_| {
        state.handle(&campaign_request(manifest, dir, true))
    });
    match res {
        Ok(p) if num(&p, "evaluated") == Some(0.0) => {
            ph.resume_s.push(s);
            match read_all(artifacts) {
                Ok(warm) if warm == cold => {}
                Ok(_) => out.fail("resumed campaign artifacts differ from the cold run's"),
                Err(e) => out.fail(format!("read resumed artifacts: {e}")),
            }
        }
        Ok(_) => out.fail("resumed campaign re-evaluated cells"),
        Err(e) => out.fail(format!("campaign --resume: {e}")),
    }
}

/// Candidate enumeration and manifest load: what the sweep and the
/// campaign do before their first SA chain.
fn setup_once() {
    black_box(DseSpec::table1(TOPS).candidates());
    black_box(CampaignSpec::load(Path::new(MANIFEST)).ok());
}

/// Set-ups per `setup_s` sample: about 100 ms of enumeration and loads.
const SETUP_BATCH: usize = 300;

/// The median sweep and the median cold campaign, in ms. Each is one
/// fixed statistic of one operation kind, so how many rounds fit in the
/// run cannot change what it reports.
fn headline_ms(sweep_s: &[f64], campaign_s: &[f64]) -> (f64, f64) {
    (median(sweep_s) * 1e3, median(campaign_s) * 1e3)
}

/// Runs the workload. `work` is a scratch directory it may fill.
pub fn run(cfg: &RunCfg, work: &Path) -> Outcome {
    let mut out = Outcome::default();
    let setup = setup_s(SETUP_BATCH, setup_once);
    if CampaignSpec::load(Path::new(MANIFEST)).is_err() {
        out.fail(format!("{MANIFEST} does not load"));
        return out;
    }
    let secs = cfg.seconds.as_secs_f64();
    let off = Tracer::new(false);

    if !cfg.trace {
        let ph = phase(&mut out, &off, cfg, work, secs);
        // CPU time of both workers together; see `cpu_time_s`. The
        // wall times, which also show how well the two workers overlap,
        // are the printed `dse.wall_s` and `campaign.cells_per_s`.
        let (sweep_ms, campaign_ms) = headline_ms(&ph.sweep_cpu_s, &ph.campaign_cpu_s);
        let (sweep_wall_ms, campaign_wall_ms) = headline_ms(&ph.sweep_s, &ph.campaign_s);
        out.end_to_end = vec![
            metric("setup_s", setup, "s"),
            metric(
                "peak_rss_mb",
                peak_rss_mb(std::process::id()).unwrap_or(f64::NAN),
                "MiB",
            ),
            metric("primary_ms", sweep_ms, "ms"),
            metric("tail_ms", campaign_ms, "ms"),
        ];
        out.extra = vec![
            metric("dse.wall_s", sweep_wall_ms / 1e3, "s"),
            metric("dse.best_score", ph.sweep_score, "mc.E.D"),
            metric(
                "campaign.cells_per_s",
                ph.cells / campaign_wall_ms * 1e3,
                "cells/s",
            ),
            metric("campaign.best_score", ph.campaign_score, "mc.E.D"),
            metric("campaign.resume_s", median(&ph.resume_s), "s"),
            metric("dse.sweeps", ph.sweep_s.len() as f64, "count"),
            metric("fail_pct", out.fail_pct(), "%"),
        ];
        return out;
    }

    let tr = Tracer::new(true);
    let a = phase(&mut out, &off, cfg, work, secs / 2.0);
    let b = phase(&mut out, &tr, cfg, work, secs / 2.0);
    let overhead = median(&b.sweep_s) / median(&a.sweep_s) * 100.0 - 100.0;
    let handle: Vec<f64> = b
        .sweep_s
        .iter()
        .chain(&b.campaign_s)
        .chain(&b.resume_s)
        .copied()
        .collect();
    let mut layer = dse_layer(&mut out, &tr, cfg);
    layer.extend(layers::service_metrics(
        &handle,
        (0.0, 0.0),
        (0.0, 0.0),
        0.0,
        0.0,
    ));
    layer.push(metric("trace.overhead_pct", overhead, "%"));
    out.per_layer = layer;

    out.extra.extend([
        metric(
            "campaign.cell_ms",
            median(&b.campaign_s) * THREADS as f64 / b.cells * 1e3,
            "ms",
        ),
        metric("campaign.resume_s", median(&b.resume_s), "s"),
    ]);
    if let Some(j) = &b.journal {
        out.extra.push(journal_codec(&tr, j));
    }
    out.extra.push(metric("fail_pct", out.fail_pct(), "%"));
    crate::write_trace(&tr, "explore-72tops", cfg.seed);
    out
}

/// The sweep's layers: `run_dse` for the exact bound counters,
/// `evaluate_candidate` on a fixed sample of candidates, the engine and
/// sim/noc/intracore replays on that sample plus the winner, and
/// `Network::new` per strided candidate.
fn dse_layer(out: &mut Outcome, tr: &Tracer, cfg: &RunCfg) -> Vec<Metric> {
    let seed = Rng::new(cfg.seed, 2).sa_seed();
    let (fidelity, bound) = parse_policy(FIDELITY, 8).expect("known fidelity policy");
    let mapping = MappingOptions {
        sa: SaOptions {
            iters: ITERS,
            seed,
            threads: 0,
            ..Default::default()
        },
        ..Default::default()
    };
    let opts = DseOptions {
        objective: Objective::parse(OBJECTIVE).expect("known objective"),
        batch: BATCH,
        mapping: mapping.clone(),
        stride: STRIDE,
        fidelity,
        bound,
        threads: THREADS,
    };
    let spec = DseSpec::table1(TOPS);
    let tf = gemini::model::zoo::transformer_base();
    let dnns = vec![tf.clone()];
    let (res, _) = tr.time("dse.run", None, 0, |_| run_dse(&dnns, &spec, &opts));
    let mut layer = Vec::new();
    match &res.report.bound {
        Some(b) => layer.extend([
            metric("dse.candidates", b.total as f64, "count"),
            metric("dse.seeds", b.seeds as f64, "count"),
            metric("dse.pruned", b.pruned as f64, "count"),
            metric("dse.prune_pct", b.prune_pct(), "%"),
        ]),
        None => out.fail("run_dse reported no bound counters under +prune"),
    }

    // A fixed sample of the strided candidates, evaluated one at a time
    // and then replayed through the engine with the sweep's winner.
    let strided: Vec<_> = spec.candidates().into_iter().step_by(STRIDE).collect();
    let mut sample: Vec<_> = [0, strided.len() / 2, strided.len() - 1]
        .iter()
        .map(|&i| strided[i].clone())
        .collect();
    let one = DseOptions {
        threads: 1,
        mapping: MappingOptions {
            sa: SaOptions {
                threads: 1,
                ..mapping.sa
            },
            ..Default::default()
        },
        ..opts
    };
    let cost = CostModel::default();
    let cand: Vec<f64> = sample
        .iter()
        .map(|a| {
            tr.time("dse.evaluate_candidate", None, 0, |_| {
                black_box(evaluate_candidate(a, &dnns, &cost, &one))
            })
            .1
        })
        .collect();
    out.extra
        .push(metric("dse.candidate_ms", median(&cand) * 1e3, "ms"));

    sample.push(res.best_record().arch.clone());
    let jobs = sample
        .into_iter()
        .map(|arch| EngineJob {
            arch,
            dnn: tf.clone(),
            batch: BATCH,
            sa: one.mapping.sa.clone(),
        })
        .collect();
    let (eng, cases) = layers::engine(tr, jobs);
    layer.extend(eng);
    layer.extend(layers::sim_noc_intracore(tr, &cases));
    layer.push(layers::network_new(tr, &strided));
    layer.push(layers::model_build(tr, &["tf"]));
    layer
}

/// `campaign.journal_codec_us`: one `cell_from_json` plus one
/// `cell_to_json` per journal cell line.
fn journal_codec(tr: &Tracer, journal: &str) -> Metric {
    let lines: Vec<(&str, Option<String>, u32)> = journal
        .lines()
        .filter_map(|l| {
            let v = parse_json(l).ok()?;
            v.get("cell")?;
            let arch = v.get("arch").and_then(Value::as_str).map(str::to_string);
            Some((l, arch, num(&v, "batch")? as u32))
        })
        .collect();
    let (_, s) = tr.time("campaign.journal_codec", None, 0, |_| {
        for (l, arch, batch) in &lines {
            if let Ok(c) = cell_from_json(l) {
                black_box(cell_to_json(&c, arch.as_deref(), *batch));
            }
        }
    });
    metric(
        "campaign.journal_codec_us",
        s / lines.len().max(1) as f64 * 1e6,
        "us",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The samples of a 30 s run whose sweeps take `sweep_s` and whose
    /// cold campaigns take `campaign_s`, with some seed-to-seed
    /// variation.
    fn run_of(sweep_s: f64, campaign_s: f64) -> Phase {
        let round = SWEEPS_PER_ROUND as f64 * sweep_s + campaign_s;
        let rounds = (30.0 / round).ceil() as usize;
        let vary = |base: f64, n: usize| {
            (0..n)
                .map(|i| base * (1.0 + 0.05 * (i % 3) as f64))
                .collect()
        };
        Phase {
            sweep_s: vary(sweep_s, rounds * SWEEPS_PER_ROUND),
            campaign_s: vary(campaign_s, rounds),
            resume_s: vary(0.01, rounds),
            ..Phase::default()
        }
    }

    fn headline_of(ph: &Phase) -> (f64, f64) {
        headline_ms(&ph.sweep_s, &ph.campaign_s)
    }

    /// A slower campaign, a faster sweep or a faster everything changes
    /// the round count. `tail_ms` must follow the campaign alone and
    /// `primary_ms` the sweep alone, give or take the seed variation.
    #[test]
    fn tail_ms_follows_the_campaign_whatever_the_round_count() {
        let (sweep0, camp0) = headline_of(&run_of(2.4, 5.6));
        let near = |x: f64, want: f64| (x / want - 1.0).abs() < 0.1;
        let mut last = camp0;
        for k in [1.3, 1.8, 2.5, 4.0] {
            let (sweep, camp) = headline_of(&run_of(2.4, 5.6 * k));
            assert!(
                near(sweep, sweep0) && near(camp, camp0 * k) && camp > last,
                "slower campaign {k}"
            );
            last = camp;
            let (sweep, camp) = headline_of(&run_of(2.4 / k, 5.6));
            assert!(
                near(sweep, sweep0 / k) && near(camp, camp0),
                "faster sweep {k}"
            );
            let (sweep, camp) = headline_of(&run_of(2.4 / k, 5.6 / k));
            assert!(
                near(sweep, sweep0 / k) && near(camp, camp0 / k),
                "faster everything {k}"
            );
        }
    }
}
