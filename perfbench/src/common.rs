//! Shared pieces of the workloads: the result record, metric names,
//! seed derivation and host measurements.

use std::time::Duration;

use gemini::core::campaign::value::Value;
use gemini::prelude::SaStats;

use crate::stats::{median, pct};

/// Set-up samples timed per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 21;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Dotted name, `[A-Za-z0-9_.-]+`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, as printed.
    pub unit: &'static str,
}

/// Run settings taken from the command line.
#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    /// Workload seed: SA seeds, request lists and arrival schedules
    /// derive from it.
    pub seed: u64,
    /// How long the timed phase runs.
    pub seconds: Duration,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the timed phase.
    pub attempted: u64,
    /// Correctness-check failures and failed or refused operations.
    pub failures: Vec<String>,
    /// The `--trace 0` metrics (the benchmark's end-to-end set).
    pub end_to_end: Vec<Metric>,
    /// The `--trace 1` metrics (the benchmark's per-layer set).
    pub per_layer: Vec<Metric>,
    /// Named figures printed as `name value unit` lines: the
    /// workload-specific metrics that are not part of the JSON sets.
    pub extra: Vec<Metric>,
}

impl Outcome {
    /// Records a failed operation or check.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failures.push(why.into());
    }

    /// `failed` as a percentage of `attempted`.
    pub fn fail_pct(&self) -> f64 {
        pct(self.failures.len() as f64, self.attempted as f64)
    }
}

/// Shorthand constructor.
pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// Whether `name` is a valid metric name: one or more of
/// `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// SplitMix64: the benchmark's only random source, so every input is a
/// pure function of the seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one purpose (`stream`) of one seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Self(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A seed for the SA engine. Kept below 2^53 so it survives the
    /// JSON wire format, whose numbers are doubles.
    pub fn sa_seed(&mut self) -> u64 {
        self.next_u64() >> 11
    }
}

/// Median CPU seconds per call of `setup` over [`SETUP_REPS`] samples
/// of `batch` back-to-back calls each, so that a sample covers a tenth
/// of a second, not one call's tens of microseconds. (CPU time, for the
/// reason given at [`cpu_time_s`].)
pub fn setup_s(batch: usize, mut setup: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let (_, cpu) = with_cpu(|| {
                for _ in 0..batch {
                    setup();
                }
            });
            cpu / batch as f64
        })
        .collect();
    median(&samples)
}

/// Runs `f` and returns its result with the CPU seconds the process
/// spent meanwhile.
pub fn with_cpu<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = cpu_time_s();
    let out = f();
    (out, cpu_time_s() - start)
}

/// CPU seconds this process has used so far, over all its threads, live
/// or exited (`getrusage(RUSAGE_SELF)`, user plus system).
///
/// The bounded times of the in-process workloads are CPU time, not wall
/// time. The kernel charges a thread only for time it ran, so time the
/// host's hypervisor takes the vCPU away (steal) is not in it. On a
/// shared 2-vCPU host, stretches of steal lasting minutes moved
/// wall-time medians of the same work by 20-80% between runs, while CPU
/// time stayed within a few percent; on an idle host the two agree for
/// one-thread work.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn cpu_time_s() -> f64 {
    /// `struct timeval` and `struct rusage` of 64-bit Linux.
    #[repr(C)]
    #[derive(Default)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }
    #[repr(C)]
    #[derive(Default)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        rest: [i64; 14],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut u = Rusage::default();
    // SAFETY: `getrusage` writes one `struct rusage`, which `Rusage`
    // mirrors field for field, into memory we own.
    if unsafe { getrusage(RUSAGE_SELF, &mut u) } != 0 {
        return f64::NAN;
    }
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    secs(&u.utime) + secs(&u.stime)
}

/// Not measured on other targets: every CPU-time metric reads `NaN`,
/// which fails the run's metric check.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn cpu_time_s() -> f64 {
    f64::NAN
}

/// CPU seconds process `pid` has used so far, over all its threads, live
/// or exited: `utime + stime` of `/proc/<pid>/stat`, in clock ticks.
pub fn proc_cpu_s(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the command name, which may hold spaces: state is
    // field 3, utime 14, stime 15.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut f = rest.split_whitespace().skip(11);
    let utime: f64 = f.next()?.parse().ok()?;
    let stime: f64 = f.next()?.parse().ok()?;
    Some((utime + stime) / clock_ticks_per_s()?)
}

/// `sysconf(_SC_CLK_TCK)`: the unit of `/proc` CPU times.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn clock_ticks_per_s() -> Option<f64> {
    extern "C" {
        fn sysconf(name: i32) -> i64;
    }
    const SC_CLK_TCK: i32 = 2;
    // SAFETY: `sysconf` takes an integer and returns one; it touches no
    // memory of ours.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    (hz > 0).then_some(hz as f64)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn clock_ticks_per_s() -> Option<f64> {
    None
}

/// Peak resident set (`VmHWM`) of process `pid`, in MiB.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Field `key` of a payload as a number.
pub fn num(v: &Value, key: &str) -> Option<f64> {
    v.get(key).and_then(Value::as_num)
}

/// `(hits, misses)` of one cache section (`eval_cache` or
/// `request_memo`) of a `stats` payload.
pub fn cache_counts(stats: &Value, section: &str) -> (f64, f64) {
    let s = stats.get(section);
    let get = |k| s.and_then(|s| num(s, k)).unwrap_or(0.0);
    (get("hits"), get("misses"))
}

/// The exact SA counters as per-layer metrics. `map_s` is the host time
/// spent in the maps that produced them.
pub fn sa_metrics(s: &SaStats, map_s: f64) -> Vec<Metric> {
    let members = (s.member_sims + s.member_reuses) as f64;
    let lookups = (s.cache_hits + s.cache_misses) as f64;
    vec![
        metric("sa.iters", f64::from(s.iters), "count"),
        metric("sa.member_sims", s.member_sims as f64, "count"),
        metric("sa.member_reuses", s.member_reuses as f64, "count"),
        metric(
            "sa.member_reuse_pct",
            pct(s.member_reuses as f64, members),
            "%",
        ),
        metric("sa.cache_hit_pct", pct(s.cache_hits as f64, lookups), "%"),
        metric("sa.delta_hits", s.delta_hits as f64, "count"),
        metric("sa.full_evals", s.full_evals as f64, "count"),
        metric("sa.iters_per_s", f64::from(s.iters) / map_s, "1/s"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn metric_names_are_checked() {
        assert!(valid_name("sa.member_reuse_pct"));
        assert!(valid_name("setup_s"));
        assert!(valid_name("noc.route-ns.2"));
        assert!(!valid_name(""));
        assert!(!valid_name("map wall"));
        assert!(!valid_name("p95/ms"));
        assert!(!valid_name("latency_µs"));
    }

    /// Work on this thread and on threads that have since exited both
    /// count. (Tests run in parallel threads of one process, so only
    /// lower bounds hold.)
    #[test]
    fn cpu_time_counts_work_on_live_and_exited_threads() {
        let spin = || {
            let start = Instant::now();
            let mut x = 1u64;
            while start.elapsed() < Duration::from_millis(50) {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            std::hint::black_box(x);
        };
        let t0 = cpu_time_s();
        spin();
        assert!(cpu_time_s() - t0 > 0.03);
        let t1 = cpu_time_s();
        std::thread::spawn(spin).join().unwrap();
        assert!(cpu_time_s() - t1 > 0.03);
        // The same process read through `/proc` agrees, to its clock
        // ticks.
        let before = cpu_time_s();
        let proc = proc_cpu_s(std::process::id()).unwrap();
        let after = cpu_time_s();
        assert!(proc <= after && proc > before - 0.05, "{proc} vs {before}");
    }

    #[test]
    fn rng_is_a_pure_function_of_seed_and_stream() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(8, 1).next_u64());
        let mut r = Rng::new(1, 0);
        assert!((0..1000).all(|_| r.sa_seed() < 1 << 53));
    }
}
