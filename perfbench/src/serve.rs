//! `serve-mix`: an open-loop request mix against `gemini serve
//! --workers 1`.
//!
//! Why: this is the only workload where queueing, the request memo, the
//! shared eval cache and the wire protocol sit on the latency path. Its
//! decode graphs use the SA layer differently from `gn` (little member
//! reuse, many full evaluations), so a change tuned for CNN delta
//! evaluation that costs decode shows here; and because the mix has
//! both memo hits and misses, a memo-cache change shows its effect on
//! each.
//!
//! The daemon is this benchmark's own executable re-run in daemon mode
//! ([`daemon_main`]), which does exactly what `gemini serve --workers 1`
//! does. One process drives it over one persistent TCP connection with
//! one writer and one reader thread. Arrivals follow a seeded, paced
//! schedule (see [`plan`]), and each request is timed from the moment
//! it was due, so a stall also charges the requests queued behind it.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use gemini::core::campaign::value::{parse_json, Value};
use gemini::prelude::{MapParams, RequestBody, SaOptions, ServeOptions, Server, ServiceState};

use crate::common::{
    cache_counts, metric, peak_rss_mb, proc_cpu_s, with_cpu, Metric, Outcome, Rng, RunCfg,
};
use crate::layers::{self, EngineJob};
use crate::stats::{geomean, median, pct, percentile, tail};
use crate::trace::Tracer;

/// Models of the fresh `map` requests.
const MODELS: [&str; 5] = ["decode-tiny@64", "gn", "tf", "rn-50", "gpt2-decode@128"];
/// The heaviest model of the mix, whose fresh maps `tail_ms` follows.
const HEAVY: &str = "gpt2-decode@128";
const ITERS: u32 = 300;
/// Repeated requests, answered from the request memo after their first
/// occurrence.
const HOT_SET: usize = 5;
/// One cycle of the mix, a request class per slot: `F` a fresh map,
/// `H` a hot-set repeat, `S` an inline `stats`. Twelve of twenty
/// requests are repeats and one is inline, so the median request is a
/// memo hit (the wire, queue hand-off and memo path) and the p95 is a
/// fresh decode or CNN map. The fresh slots are fixed: the first two
/// are adjacent, so in every cycle a fresh map queues behind another,
/// and every hit right after a fresh map queues behind it. A seeded
/// placement let the number of such collisions vary from seed to seed,
/// which moved a run's fresh-map median by 10-15%.
const CYCLE: &[u8; 20] = b"FFHHHFHHFHHFHHFHHFHS";
/// Offered load, requests per second. A fresh map is served in about
/// 95 ms on a 2-core host and 7 of 20 requests are fresh maps, so this
/// keeps one worker about 37% busy: queueing sits on the latency path,
/// but a run's latencies stay steady. At half load (14 req/s) the same
/// seed's fresh-map latency moved by 25% between back-to-back runs,
/// because queueing amplifies the host's own drift.
const RATE: f64 = 11.0;
/// Fewest requests per run: nearest-rank p95 then leaves ten samples
/// beyond it.
const MIN_REQUESTS: usize = 200;
/// The latency limit of `serve.sla_miss_pct`.
const SLA_MS: f64 = 500.0;
/// How long the reader waits for a response before giving up.
const READ_TIMEOUT: Duration = Duration::from_secs(60);
/// Daemon starts timed for `setup_s`: throwaway ones plus the real one.
const SETUP_STARTS: usize = 5;

/// What a request is, for checking its response.
#[derive(Debug, Clone, PartialEq)]
pub enum Kind {
    /// A `map`; repeats of the hot set share a body.
    Map(MapParams),
    /// An inline `stats` request.
    Stats,
}

/// One scheduled request.
#[derive(Debug, Clone)]
pub struct Planned {
    /// Due time, from the start of the run.
    pub due: Duration,
    /// The request line (no newline); its `id` is the plan index.
    pub line: String,
    /// What it asks.
    pub kind: Kind,
}

/// The `k`-th map request of a kind: models and batches cycle so every
/// run has the same mix, and only the SA seed is random.
fn map_params(k: usize, rng: &mut Rng) -> MapParams {
    MapParams {
        model: MODELS[k % MODELS.len()].to_string(),
        arch: "g-arch".to_string(),
        batch: 2 + (k / MODELS.len() % 3) as u32,
        iters: ITERS,
        seed: rng.sa_seed(),
        threads: 1,
        stats: false,
    }
}

fn map_line(id: usize, p: &MapParams) -> String {
    format!(
        "{{\"id\":\"{id}\",\"verb\":\"map\",\"model\":\"{}\",\"arch\":\"{}\",\"batch\":{},\
         \"iters\":{},\"seed\":{},\"threads\":{}}}",
        p.model, p.arch, p.batch, p.iters, p.seed, p.threads
    )
}

/// The `n`-request list and arrival schedule of `seed`.
///
/// Request `i` is of the class of slot `i % 20` of [`CYCLE`], so every
/// run has the same mix in the same order. The seed draws the SA seeds
/// of the hot set and of every fresh map, and the arrival times: each
/// gap is the mean gap times a seeded factor in [0.9, 1.1), rescaled so
/// the schedule spans exactly `n / RATE` seconds. With Poisson gaps and
/// a seeded order, how often a seed happened to pile up expensive
/// requests moved a run's p95 by 10-25%.
pub fn plan(seed: u64, n: usize) -> Vec<Planned> {
    let mut rng = Rng::new(seed, 4);
    let hot: Vec<MapParams> = (0..HOT_SET).map(|k| map_params(k, &mut rng)).collect();
    let (mut n_hot, mut n_fresh) = (0, 0);
    let kinds: Vec<Kind> = (0..n)
        .map(|i| match CYCLE[i % CYCLE.len()] {
            b'H' => {
                n_hot += 1;
                Kind::Map(hot[(n_hot - 1) % HOT_SET].clone())
            }
            b'S' => Kind::Stats,
            _ => {
                n_fresh += 1;
                Kind::Map(map_params(n_fresh - 1, &mut rng))
            }
        })
        .collect();
    let gaps: Vec<f64> = (0..n).map(|_| 0.9 + 0.2 * rng.unit()).collect();
    let scale = n as f64 / RATE / gaps.iter().sum::<f64>();
    let mut t = 0.0;
    kinds
        .into_iter()
        .zip(gaps)
        .enumerate()
        .map(|(id, (kind, gap))| {
            t += gap * scale;
            let line = match &kind {
                Kind::Map(p) => map_line(id, p),
                Kind::Stats => format!("{{\"id\":\"{id}\",\"verb\":\"stats\"}}"),
            };
            Planned {
                due: Duration::from_secs_f64(t),
                line,
                kind,
            }
        })
        .collect()
}

/// Requests in a run of `secs` seconds at [`RATE`], rounded up to whole
/// cycles, at least [`MIN_REQUESTS`].
fn requests_for(secs: f64) -> usize {
    ((RATE * secs / CYCLE.len() as f64).ceil() as usize * CYCLE.len()).max(MIN_REQUESTS)
}

/// One request's timing, measured against its due time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Response received minus due time: what the user waited.
    pub latency_s: f64,
    /// Send minus due time: how late the generator ran.
    pub late_s: f64,
}

/// Times one open-loop request from its due time, not its send time.
pub fn timing(due: Instant, sent: Instant, received: Instant) -> Timing {
    Timing {
        latency_s: received.saturating_duration_since(due).as_secs_f64(),
        late_s: sent.saturating_duration_since(due).as_secs_f64(),
    }
}

/// How a response line ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// `ok:true`.
    Ok,
    /// `ok:false`, with the error code (`busy`, `expired`, ...).
    Refused(String),
    /// Not a response line at all.
    Garbled,
}

/// Classifies a response line and extracts its payload bytes.
pub fn answer(line: &str) -> Answer {
    let Ok(v) = parse_json(line) else {
        return Answer::Garbled;
    };
    match v.get("ok").and_then(Value::as_bool) {
        Some(true) if v.get("payload").is_some() => Answer::Ok,
        Some(false) => Answer::Refused(
            v.get("error")
                .and_then(|e| e.get("code"))
                .and_then(Value::as_str)
                .unwrap_or("unknown")
                .to_string(),
        ),
        _ => Answer::Garbled,
    }
}

/// Whether a request missed the SLA: it failed, was refused, or took
/// longer than [`SLA_MS`].
pub fn sla_miss(answer: &Answer, latency_s: f64) -> bool {
    *answer != Answer::Ok || latency_s * 1e3 > SLA_MS
}

/// A daemon child process, killed and reaped if dropped while running.
struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Daemon {
    /// Starts the daemon and waits for its `listening on` line.
    fn start() -> std::io::Result<Self> {
        let mut child = Command::new(std::env::current_exe()?)
            .arg("--serve-daemon")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut first = String::new();
        stdout.read_line(&mut first)?;
        let Some(addr) = first.trim().strip_prefix("listening on ") else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(std::io::Error::other(format!("daemon said {first:?}")));
        };
        let addr = addr.to_string();
        Ok(Self {
            child,
            stdout,
            addr,
        })
    }

    /// Sends `shutdown` and waits for the daemon to drain and exit.
    fn stop(mut self, conn: &mut Connection) -> std::io::Result<()> {
        conn.call("{\"id\":\"bye\",\"verb\":\"shutdown\"}")?;
        let mut rest = String::new();
        while self.stdout.read_line(&mut rest)? > 0 {}
        let status = self.child.wait()?;
        if status.success() {
            Ok(())
        } else {
            Err(std::io::Error::other(format!(
                "daemon exited with {status}"
            )))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One line-oriented TCP connection to the daemon.
struct Connection {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Connection {
    fn open(addr: &str) -> std::io::Result<Self> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(READ_TIMEOUT))?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Self { writer, reader })
    }

    /// Sends one line and reads one response line.
    fn call(&mut self, line: &str) -> std::io::Result<String> {
        self.writer.write_all(format!("{line}\n").as_bytes())?;
        let mut resp = String::new();
        self.reader.read_line(&mut resp)?;
        Ok(resp)
    }
}

/// Starts a daemon and times it until its first `ping` is answered.
fn start_and_ping() -> std::io::Result<(Daemon, Connection, f64)> {
    let t = Instant::now();
    let d = Daemon::start()?;
    let mut c = Connection::open(&d.addr)?;
    let pong = c.call("{\"id\":\"hello\",\"verb\":\"ping\"}")?;
    if !pong.contains("\"pong\":true") {
        return Err(std::io::Error::other(format!("ping answered {pong:?}")));
    }
    Ok((d, c, t.elapsed().as_secs_f64()))
}

/// Drives `plan` open-loop over `conn`: one writer thread sending each
/// line at its due time, one reader thread timing each response.
/// Returns each planned request's timing and response line, if one came.
fn drive(
    conn: &Connection,
    plan: &[Planned],
    tr: &Tracer,
) -> std::io::Result<Vec<Option<(Timing, String)>>> {
    let mut writer = conn.writer.try_clone()?;
    let mut reader = BufReader::new(conn.writer.try_clone()?);
    let start = Instant::now() + Duration::from_millis(20);
    let due = |i: usize| start + plan[i].due;
    let (sent, recv) = std::thread::scope(|s| {
        let w = s.spawn(move || -> std::io::Result<Vec<Instant>> {
            let mut sent = Vec::with_capacity(plan.len());
            for (i, p) in plan.iter().enumerate() {
                let at = due(i);
                if let Some(wait) = at.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                sent.push(Instant::now());
                writer.write_all(format!("{}\n", p.line).as_bytes())?;
            }
            Ok(sent)
        });
        let r = s.spawn(move || {
            let mut got: BTreeMap<usize, (Instant, String)> = BTreeMap::new();
            let mut line = String::new();
            while got.len() < plan.len() {
                line.clear();
                match reader.read_line(&mut line) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {}
                }
                let at = Instant::now();
                let id = parse_json(&line).ok().and_then(|v| {
                    v.get("id")
                        .and_then(Value::as_str)
                        .and_then(|s| s.parse().ok())
                });
                if let Some(id) = id.filter(|&i: &usize| i < plan.len()) {
                    got.insert(id, (at, line.trim_end().to_string()));
                }
            }
            got
        });
        let sent = w.join().expect("writer thread does not panic");
        let got = r.join().expect("reader thread does not panic");
        (sent, got)
    });
    let sent = sent?;
    let mut obs = vec![None; plan.len()];
    for (id, (at, line)) in recv {
        tr.record("serve.request", due(id), at, None, id as u64 + 1);
        obs[id] = Some((timing(due(id), sent[id], at), line));
    }
    Ok(obs)
}

/// A phase's results, after checking every response.
#[derive(Default)]
struct Phase {
    latency_s: Vec<f64>,
    /// Latencies of `map` requests the daemon had not answered before
    /// (the ones that run SA), per model.
    fresh_s: BTreeMap<String, Vec<f64>>,
    /// Latencies of repeated `map` requests (request-memo hits).
    hit_s: Vec<f64>,
    late_s: Vec<f64>,
    /// Latency minus in-process handle time, per `map` request.
    wait_s: Vec<f64>,
    inline_s: Vec<f64>,
    handle_s: Vec<f64>,
    /// CPU seconds of the in-process replay of each fresh `map`, per
    /// model.
    fresh_cpu_s: BTreeMap<String, Vec<f64>>,
    /// CPU seconds the daemon used from its start to the final `stats`.
    daemon_cpu_s: f64,
    sla_miss: usize,
    busy: usize,
    expired: usize,
    stats: Option<Value>,
    peak_rss_mb: f64,
    setup_s: f64,
    span_s: f64,
}

/// One daemon lifetime: start, drive `plan`, read `stats` and `VmHWM`,
/// shut down, then replay every `map` in-process and compare payloads.
fn phase(out: &mut Outcome, tr: &Tracer, plan: &[Planned]) -> Phase {
    let mut ph = Phase::default();
    let (daemon, mut conn, setup) = match start_and_ping() {
        Ok(x) => x,
        Err(e) => {
            out.fail(format!("daemon start: {e}"));
            return ph;
        }
    };
    ph.setup_s = setup;
    out.attempted += plan.len() as u64;
    let obs = match drive(&conn, plan, tr) {
        Ok(o) => o,
        Err(e) => {
            out.fail(format!("load generator: {e}"));
            return ph;
        }
    };
    match conn.call("{\"id\":\"final\",\"verb\":\"stats\"}") {
        Ok(line) if answer(&line) == Answer::Ok => {
            ph.stats = parse_json(&line)
                .ok()
                .and_then(|v| v.get("payload").cloned())
        }
        other => out.fail(format!("final stats: {other:?}")),
    }
    ph.peak_rss_mb = peak_rss_mb(daemon.child.id()).unwrap_or(f64::NAN);
    ph.daemon_cpu_s = proc_cpu_s(daemon.child.id()).unwrap_or(f64::NAN);
    if let Err(e) = daemon.stop(&mut conn) {
        out.fail(format!("daemon shutdown: {e}"));
    }
    ph.span_s = plan.last().map_or(0.0, |p| p.due.as_secs_f64());

    // The same requests in-process, on a fresh serving state, in arrival
    // order: each socket payload must match byte for byte.
    let state = ServiceState::serving(daemon_options().eval_cache_cap);
    let mut seen = std::collections::BTreeSet::new();
    for (i, p) in plan.iter().enumerate() {
        let Some((t, line)) = &obs[i] else {
            out.fail(format!("request {i}: no response"));
            ph.sla_miss += 1;
            continue;
        };
        let ans = answer(line);
        ph.latency_s.push(t.latency_s);
        ph.late_s.push(t.late_s);
        if sla_miss(&ans, t.latency_s) {
            ph.sla_miss += 1;
        }
        match ans {
            Answer::Ok => {}
            Answer::Refused(code) => {
                ph.busy += usize::from(code == "busy");
                ph.expired += usize::from(code == "expired");
                out.fail(format!("request {i}: refused {code}"));
                continue;
            }
            Answer::Garbled => {
                out.fail(format!("request {i}: unreadable response"));
                continue;
            }
        }
        match &p.kind {
            Kind::Stats => ph.inline_s.push(t.latency_s),
            Kind::Map(m) => {
                let fresh = seen.insert(map_line(0, m));
                if fresh {
                    ph.fresh_s
                        .entry(m.model.clone())
                        .or_default()
                        .push(t.latency_s);
                } else {
                    ph.hit_s.push(t.latency_s);
                }
                let body = RequestBody::Map(m.clone());
                let ((res, s), cpu) = with_cpu(|| {
                    tr.time("service.handle", None, i as u64 + 1, |_| {
                        state.handle(&body)
                    })
                });
                ph.handle_s.push(s);
                if fresh {
                    ph.fresh_cpu_s.entry(m.model.clone()).or_default().push(cpu);
                }
                ph.wait_s.push(t.latency_s - s);
                match res {
                    Ok(v)
                        if line.contains(&format!("\"payload\":{},\"service\":", v.to_json())) => {}
                    Ok(_) => out.fail(format!(
                        "request {i}: socket payload differs from in-process"
                    )),
                    Err(e) => out.fail(format!("request {i}: in-process replay failed: {e}")),
                }
            }
        }
    }
    ph
}

/// Runs the workload.
pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let secs = cfg.seconds.as_secs_f64();
    let off = Tracer::new(false);
    // Throwaway daemon starts for the set-up median; the phase adds
    // the real one.
    let mut setup = Vec::new();
    for _ in 1..SETUP_STARTS {
        match start_and_ping().and_then(|(d, mut c, s)| d.stop(&mut c).map(|()| s)) {
            Ok(s) => setup.push(s),
            Err(e) => out.fail(format!("daemon start: {e}")),
        }
    }

    if !cfg.trace {
        let plan = plan(cfg.seed, requests_for(secs));
        let ph = phase(&mut out, &off, &plan);
        setup.push(ph.setup_s);
        let p50 = median(&ph.latency_s);
        let fresh = fresh_typical(&ph);
        let p95 = percentile(&ph.latency_s, 95.0);
        if p95.is_none_or(|p| p.beyond < 10) {
            out.fail("too few responses for a p95 with ten samples beyond it");
        }
        let p95 = p95.map_or(f64::NAN, |p| p.value);
        // The bounded figures are CPU time (see `cpu_time_s`): the
        // daemon's CPU time per request of the mix, and the median
        // replayed fresh map of the heaviest model, the mix's heavy
        // request class. Latency is printed: it is wall time by nature,
        // and steal moved a run's p95 by up to 85%.
        let per_request = ph.daemon_cpu_s / plan.len() as f64;
        let heavy = ph.fresh_cpu_s.get(HEAVY).map_or(f64::NAN, |v| median(v));
        out.end_to_end = vec![
            metric("setup_s", median(&setup), "s"),
            metric("peak_rss_mb", ph.peak_rss_mb, "MiB"),
            metric("primary_ms", per_request * 1e3, "ms"),
            metric("tail_ms", heavy * 1e3, "ms"),
        ];
        out.extra = vec![
            metric("serve.p50_ms", p50 * 1e3, "ms"),
            metric("serve.fresh_model_p50_ms", fresh * 1e3, "ms"),
            metric(
                "serve.fresh_n",
                ph.fresh_s.values().map(Vec::len).sum::<usize>() as f64,
                "count",
            ),
            metric("serve.hit_p50_ms", median(&ph.hit_s) * 1e3, "ms"),
            metric("serve.hit_n", ph.hit_s.len() as f64, "count"),
            metric("serve.p95_ms", p95 * 1e3, "ms"),
            metric("serve.n", ph.latency_s.len() as f64, "count"),
            metric(
                "serve.sla_miss_pct",
                pct(ph.sla_miss as f64, out.attempted as f64),
                "%",
            ),
            metric("fail_pct", out.fail_pct(), "%"),
        ];
        out.extra.extend(loadgen_metrics(&ph, out.attempted));
        return out;
    }

    // Traced run: two daemon lifetimes over the same half-length plan,
    // untraced then traced. The load generator records its spans only
    // after the responses are in, so what tracing can slow is the
    // in-process replay: the overhead compares the two replays' handle
    // time (socket latency differs by more between two identical
    // schedules than tracing could move it).
    let tr = Tracer::new(true);
    let half = plan(cfg.seed, requests_for(secs) / 2);
    let a = phase(&mut out, &off, &half);
    let b = phase(&mut out, &tr, &half);
    let overhead = b.handle_s.iter().sum::<f64>() / a.handle_s.iter().sum::<f64>() * 100.0 - 100.0;

    // Engine and layer replays: the plan's first map request of each
    // model.
    let jobs = half
        .iter()
        .filter_map(|p| match &p.kind {
            Kind::Map(m) => Some(m),
            Kind::Stats => None,
        })
        .fold(Vec::<&MapParams>::new(), |mut v, m| {
            if !v.iter().any(|x| x.model == m.model) {
                v.push(m);
            }
            v
        })
        .into_iter()
        .map(|m| EngineJob {
            arch: gemini::core::service::preset(&m.arch).expect("known preset"),
            dnn: gemini::model::zoo::by_name(&m.model)
                .expect("model is in the zoo")
                .graph,
            batch: m.batch,
            sa: SaOptions {
                iters: m.iters,
                seed: m.seed,
                threads: 1,
                ..Default::default()
            },
        })
        .collect::<Vec<_>>();
    let archs: Vec<_> = jobs.iter().map(|j| j.arch.clone()).take(1).collect();
    let (mut layer, cases) = layers::engine(&tr, jobs);
    layer.extend(layers::sim_noc_intracore(&tr, &cases));
    layer.push(layers::network_new(&tr, &archs));
    layer.push(layers::model_build(&tr, &MODELS));
    let stats = b.stats.as_ref();
    let memo = stats.map_or((0.0, 0.0), |s| cache_counts(s, "request_memo"));
    let eval = stats.map_or((0.0, 0.0), |s| cache_counts(s, "eval_cache"));
    layer.extend(layers::service_metrics(
        &b.handle_s,
        memo,
        eval,
        b.busy as f64,
        b.expired as f64,
    ));
    layer.extend(layers::no_dse());
    layer.push(metric("trace.overhead_pct", overhead, "%"));
    out.per_layer = layer;

    out.extra = vec![metric("service.wait_p50_ms", median(&b.wait_s) * 1e3, "ms")];
    if let Some(t) = tail(&b.wait_s) {
        out.extra.push(metric(
            &format!("service.wait_p{}_ms", t.pct),
            t.value * 1e3,
            "ms",
        ));
    }
    out.extra.push(metric(
        "service.inline_p50_ms",
        median(&b.inline_s) * 1e3,
        "ms",
    ));
    if let Some(t) = tail(&b.inline_s) {
        out.extra.push(metric(
            &format!("service.inline_p{}_ms", t.pct),
            t.value * 1e3,
            "ms",
        ));
    }
    out.extra
        .push(metric("service.inline_n", b.inline_s.len() as f64, "count"));
    out.extra.extend(loadgen_metrics(&b, out.attempted));
    out.extra.push(metric("fail_pct", out.fail_pct(), "%"));
    crate::write_trace(&tr, "serve-mix", cfg.seed);
    out
}

/// Typical latency of a request that runs SA: the geometric mean over
/// models of each model's median fresh-map latency. Fresh-map service
/// time varies several-fold between models and by about 20% with the SA
/// seed, so a plain median over the mixed sample jumps between model
/// clusters from seed to seed; the per-model medians do not.
fn fresh_typical(ph: &Phase) -> f64 {
    geomean(&ph.fresh_s.values().map(|v| median(v)).collect::<Vec<_>>())
}

fn loadgen_metrics(ph: &Phase, attempted: u64) -> Vec<Metric> {
    let late = percentile(&ph.late_s, 99.0).map_or(f64::NAN, |p| p.value);
    vec![
        metric("loadgen.late_p99_ms", late * 1e3, "ms"),
        metric(
            "loadgen.offered_rps",
            ph.late_s.len() as f64 / ph.span_s.max(f64::MIN_POSITIVE),
            "1/s",
        ),
        metric("loadgen.attempted", attempted as f64, "count"),
    ]
}

/// The daemon's options: `gemini serve --workers 1` with the library
/// defaults, which the CLI's own defaults match (checked by a
/// self-test).
fn daemon_options() -> ServeOptions {
    ServeOptions {
        workers: 1,
        ..ServeOptions::default()
    }
}

/// Daemon mode: what `gemini serve --addr 127.0.0.1:0 --workers 1`
/// runs, printing the same `listening on` line.
pub fn daemon_main() -> std::process::ExitCode {
    let opts = daemon_options();
    let cache_cap = opts.eval_cache_cap;
    let server = match Server::bind("127.0.0.1:0", opts) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bind: {e}");
            return std::process::ExitCode::FAILURE;
        }
    };
    match server.local_addr() {
        Ok(a) => {
            println!("listening on {a}");
            let _ = std::io::stdout().flush();
        }
        Err(e) => {
            eprintln!("bind: {e}");
            return std::process::ExitCode::FAILURE;
        }
    }
    let state = ServiceState::serving(cache_cap);
    match server.run(&state) {
        Ok(_) => std::process::ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("serve: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The daemon runs what `gemini serve --workers 1` runs: the CLI's
    /// `--queue` and `--cache-cap` defaults are the library defaults the
    /// daemon takes.
    #[test]
    fn daemon_options_match_the_cli_serve_defaults() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../src/bin/gemini.rs");
        let cli = std::fs::read_to_string(path).expect("the CLI source is readable");
        let serve = &cli[cli
            .find("Some(\"serve\")")
            .expect("the CLI has a serve verb")..];
        let default_of = |flag: &str| {
            let at = serve
                .find(&format!("\"{flag}\""))
                .unwrap_or_else(|| panic!("no {flag}"));
            let rest = &serve[at..];
            let start = rest.find(".unwrap_or(").expect("a default") + ".unwrap_or(".len();
            rest[start..rest[start..].find(')').unwrap() + start]
                .trim()
                .to_string()
        };
        let opts = daemon_options();
        assert_eq!(opts.workers, 1);
        assert_eq!(default_of("--queue"), opts.queue_cap.to_string());
        assert_eq!(
            default_of("--cache-cap"),
            "gemini::core::service::SERVE_EVAL_CACHE_CAP"
        );
        assert_eq!(
            opts.eval_cache_cap,
            gemini::core::service::SERVE_EVAL_CACHE_CAP
        );
    }

    #[test]
    fn latency_is_timed_from_the_due_time_and_lateness_is_recorded() {
        let due = Instant::now();
        let sent = due + Duration::from_millis(30);
        let received = due + Duration::from_millis(100);
        let t = timing(due, sent, received);
        assert!((t.latency_s - 0.100).abs() < 1e-9, "{t:?}");
        assert!((t.late_s - 0.030).abs() < 1e-9, "{t:?}");
        // A send ahead of schedule is not negative lateness.
        let t = timing(sent, due, received);
        assert_eq!(t.late_s, 0.0);
    }

    #[test]
    fn refusals_and_errors_fail_and_miss_the_sla() {
        let ok = answer(r#"{"id":"1","ok":true,"payload":{"pong":true},"verb":"ping"}"#);
        assert_eq!(ok, Answer::Ok);
        assert!(!sla_miss(&ok, 0.010));
        assert!(sla_miss(&ok, 0.501));
        for code in ["busy", "expired", "internal", "bad_request"] {
            let line = format!(
                r#"{{"error":{{"code":"{code}","detail":"x"}},"id":"1","ok":false,"verb":"map"}}"#
            );
            let a = answer(&line);
            assert_eq!(a, Answer::Refused(code.to_string()));
            assert!(sla_miss(&a, 0.001), "{code} must count as an SLA miss");
        }
        assert_eq!(answer("not json"), Answer::Garbled);
        assert!(sla_miss(&Answer::Garbled, 0.0));
    }

    #[test]
    fn plan_is_seeded_with_a_fixed_mix_and_load() {
        let a = plan(5, MIN_REQUESTS);
        let b = plan(5, MIN_REQUESTS);
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.line == y.line && x.due == y.due));
        let c = plan(6, MIN_REQUESTS);
        assert_ne!(c[0].line, a[0].line);
        assert!(a.windows(2).all(|w| w[0].due <= w[1].due));
        let span = a.last().unwrap().due.as_secs_f64();
        assert!((span - MIN_REQUESTS as f64 / RATE).abs() < 1e-6, "{span}");
        let count = |class: u8| CYCLE.iter().filter(|&&c| c == class).count();
        let cycles = MIN_REQUESTS / CYCLE.len();
        for p in [&a, &c] {
            let stats = p.iter().filter(|p| p.kind == Kind::Stats).count();
            assert_eq!(stats, cycles * count(b'S'));
            let mut distinct: Vec<&str> = p
                .iter()
                .map(|p| p.line.split_once(",").unwrap().1)
                .collect();
            distinct.sort_unstable();
            distinct.dedup();
            assert_eq!(
                distinct.len(),
                HOT_SET + 1 + cycles * count(b'F'),
                "hot set + stats + fresh"
            );
        }
        for p in &a {
            let r = gemini::prelude::Request::from_json(&p.line).expect("valid request line");
            if let Kind::Map(m) = &p.kind {
                assert_eq!(r.body, RequestBody::Map(m.clone()));
            }
        }
        // Every seed has the same classes in the same slots; only SA
        // seeds and arrival times differ.
        let class = |p: &Planned| match &p.kind {
            Kind::Stats => "stats".to_string(),
            Kind::Map(m) => format!("{}/{}", m.model, m.batch),
        };
        assert!(a.iter().zip(&c).all(|(x, y)| class(x) == class(y)));
        // Gaps stay within 10% of the mean, so arrivals are paced.
        let mean = 1.0 / RATE;
        assert!(a.windows(2).all(|w| {
            let gap = (w[1].due - w[0].due).as_secs_f64();
            gap > 0.85 * mean && gap < 1.15 * mean
        }));
        // `tail_ms` is a median over at least ten fresh heavy maps.
        let mut heavy: Vec<&str> = a
            .iter()
            .filter(|p| matches!(&p.kind, Kind::Map(m) if m.model == HEAVY))
            .map(|p| p.line.split_once(',').unwrap().1)
            .collect();
        heavy.sort_unstable();
        heavy.dedup();
        assert!(heavy.len() >= 10, "{} fresh {HEAVY} maps", heavy.len());
        assert_eq!(requests_for(1.0), MIN_REQUESTS);
        assert_eq!(requests_for(25.0), 280);
        assert_eq!(requests_for(60.0), (RATE * 60.0) as usize);
    }
}
