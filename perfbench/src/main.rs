//! `perfbench`: the host-time benchmark of the metablade simulator.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload. It repeats set-up and timed body
//! until `--seconds` have passed (at least three times), checks every
//! repetition's simulated outputs, and prints the metrics as human
//! readable lines followed by one JSON object on the last line. With
//! `--trace 0` the metrics are the end-to-end ones, measured with no
//! instrumentation in the path. With `--trace 1` the same untraced
//! repetitions run first, then traced ones whose spans and proxied
//! trait calls give the per-layer metrics; the spans are written as a
//! Chrome trace under the cargo target directory. See `README.md` for
//! the workloads and the map from each layer metric to the end-to-end
//! metric it should move.

mod checks;
mod host;
mod paper;
mod proxy;
mod stream;
mod tracer;
mod treecode;

use std::time::{Duration, Instant};

use mb_cluster::machine::Cluster;
use mb_cluster::spec::metablade;
use mb_cluster::ExecPolicy;

use checks::Checks;
use host::HostStamp;
use tracer::{RepTrace, Tracer};

/// End-to-end metrics (`--trace 0`), with units.
const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("sim_rate_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), with units. A traced run reports
/// all of them; a layer the workload never calls reads 0.
const PER_LAYER: [(&str, &str); 46] = [
    ("crusoe.table1_s", "s"),
    ("crusoe.interp_insns", "count"),
    ("crusoe.translated_insns", "count"),
    ("crusoe.translations", "count"),
    ("npb.table3_s", "s"),
    ("npb.verified", "count"),
    ("treecode.table2_s", "s"),
    ("treecode.figure3_s", "s"),
    ("treecode.interactions", "count"),
    ("treecode.imported_cells", "count"),
    ("treecode.imported_bodies", "count"),
    ("treecode.force_rel_err", "ratio"),
    ("cluster.spawn_s", "s"),
    ("cluster.msgs", "count"),
    ("cluster.bytes", "B"),
    ("cluster.host_us_per_msg", "us"),
    ("cluster.width_gain", "ratio"),
    ("cluster.sim_makespan_s", "sim_s"),
    ("cluster.sim_blocked_frac", "ratio"),
    ("workload.calibrate_s", "s"),
    ("workload.arrival_s", "s"),
    ("workload.arrival_calls", "count"),
    ("workload.admission_s", "s"),
    ("workload.admission_calls", "count"),
    ("workload.shed", "count"),
    ("workload.cost_s", "s"),
    ("workload.cost_calls", "count"),
    ("workload.cost_ns_p50", "ns"),
    ("workload.cost_ns_p999", "ns"),
    ("workload.memo_hit_ratio", "ratio"),
    ("sched.policy_s", "s"),
    ("sched.policy_calls", "count"),
    ("sched.policy_ns_p50", "ns"),
    ("sched.policy_ns_p999", "ns"),
    ("sched.queue_depth_p50", "count"),
    ("sched.queue_depth_max", "count"),
    ("sched.dispatch_ratio", "ratio"),
    ("sched.engine_self_s", "s"),
    ("sched.engine_self_us_per_job", "us"),
    ("sched.sim_util", "ratio"),
    ("sched.sim_wait_p99_s", "sim_s"),
    ("sched.sim_max_contention", "ratio"),
    ("metrics.tables567_s", "s"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.traced_wall_s", "s"),
    ("bench.untraced_wall_s", "s"),
];

const WORKLOADS: [&str; 3] = [paper::NAME, "stream_diurnal_star", "stream_poisson_ft64"];

/// Fewest repetitions a run measures, however short `--seconds` is.
const MIN_REPS: usize = 3;
/// Repetitions of the width-1 treecode pass and of the empty-run spawn
/// probe.
const PROBE_REPS: usize = 3;
/// Set-up repeats until it has taken this long in one repetition.
const SETUP_FLOOR: Duration = Duration::from_millis(20);
/// A run that has not finished by then reports every check failed.
const DEADLINE: Duration = Duration::from_secs(170);

/// Per-layer metrics of one repetition.
pub type Layers = Vec<(&'static str, f64)>;

/// One repetition, summarized outside the timed body.
pub struct Rep {
    /// Work the body simulated: offered jobs, messages, or artifacts.
    pub items: f64,
    /// Fingerprint of the simulated outputs (executor-invariant).
    pub fingerprint: String,
    /// Per-layer metrics (traced repetitions only).
    pub layers: Layers,
}

/// A benchmark workload: set-up (timed as `setup_s`), a body (timed as
/// `wall_s`) and a review that checks the outputs outside both timers.
pub trait Workload {
    type Input;
    type Output;
    fn name(&self) -> &'static str;
    fn setup(&self, tracer: Option<&Tracer>) -> Self::Input;
    fn body(&self, input: &Self::Input, tracer: Option<&Tracer>) -> Self::Output;
    fn review(
        &self,
        input: Self::Input,
        out: Self::Output,
        trace: Option<&RepTrace>,
        checks: &mut Checks,
    ) -> Rep;
}

/// Run `f`, inside a span named `name` when tracing.
pub fn traced<R>(t: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match t {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <paper_tables|stream_diurnal_star|\
stream_poisson_ft64> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Samples of one measured series of repetitions.
#[derive(Default)]
struct Measured {
    /// Peak resident memory through set-up and the first repetition:
    /// what one run of the workload costs. Later repetitions re-use
    /// memory the allocator kept from earlier ones, so the process peak
    /// creeps with the repetition count, not with the workload.
    peak_rss_mb: f64,
    /// Set-up CPU seconds (all threads) per repetition.
    setup_s: Vec<f64>,
    /// Set-up wall seconds per repetition, for the report only.
    setup_wall_s: Vec<f64>,
    wall_s: Vec<f64>,
    reps: Vec<Rep>,
}

fn measure<W: Workload>(
    w: &W,
    seconds: f64,
    tracer: Option<&Tracer>,
    checks: &mut Checks,
) -> Measured {
    let start = Instant::now();
    let mut m = Measured::default();
    while m.reps.len() < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        // One set-up sample per repetition, in CPU seconds of the whole
        // process; a set-up shorter than SETUP_FLOOR is repeated and
        // the batch averaged.
        let (wall0, cpu0) = (Instant::now(), host::process_cpu_s());
        let mut batch = 0u32;
        let input = loop {
            let input = w.setup(tracer);
            batch += 1;
            if wall0.elapsed() >= SETUP_FLOOR || tracer.is_some() {
                break input;
            }
        };
        m.setup_s
            .push((host::process_cpu_s() - cpu0) / f64::from(batch));
        m.setup_wall_s
            .push(wall0.elapsed().as_secs_f64() / f64::from(batch));
        let t1 = Instant::now();
        let out = std::hint::black_box(w.body(&input, tracer));
        m.wall_s.push(t1.elapsed().as_secs_f64());
        if m.reps.is_empty() {
            m.peak_rss_mb = host::peak_rss_mb();
        }
        let trace = tracer.map(Tracer::take_rep);
        m.reps.push(w.review(input, out, trace.as_ref(), checks));
    }
    m
}

/// Every repetition must reproduce the first one's outputs, and the
/// reference seed must reproduce the recorded fingerprint.
fn check_fingerprints(name: &str, seed: u64, m: &Measured, expect: &str, checks: &mut Checks) {
    for (i, r) in m.reps.iter().enumerate() {
        checks.check(r.fingerprint == expect, || {
            format!(
                "{name}: repetition {i} fingerprint {} != {expect}",
                r.fingerprint
            )
        });
    }
    if checks::reference_seed(name) == Some(seed) {
        checks.reference(name, "fingerprint", expect);
    }
}

fn summary(label: &str, xs: &[f64]) -> String {
    let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    format!(
        "{label}: median {:.6} min {lo:.6} max {hi:.6} (n={})",
        median(xs),
        xs.len()
    )
}

/// Median host seconds of an empty `Cluster::run` at the treecode
/// workload's rank count: thread spawn plus teardown.
fn spawn_s(tracer: &Tracer, exec: ExecPolicy) -> f64 {
    let cluster = Cluster::new(metablade().with_nodes(treecode::RANKS)).with_exec(exec);
    let walls: Vec<f64> = (0..PROBE_REPS)
        .map(|_| {
            let t0 = Instant::now();
            tracer.span("Cluster::run", || cluster.run(|_| ()));
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&walls)
}

fn write_trace(args: &Args, tracer: &Tracer) {
    let dir = std::path::PathBuf::from(
        std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".into()),
    )
    .join("perfbench-traces");
    let path = dir.join(format!("{}-seed{}.trace.json", args.workload, args.seed));
    match std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, tracer.chrome_json())) {
        Ok(()) => println!("trace: wrote {}", path.display()),
        Err(e) => eprintln!("trace: could not write {}: {e}", path.display()),
    }
}

/// Metrics of a run: name, unit, value.
type Metrics = Vec<(&'static str, &'static str, f64)>;

fn run<W: Workload>(w: &W, args: &Args, host: &HostStamp, checks: &mut Checks) -> Metrics {
    let name = w.name();
    // A traced run splits its window between the untraced and the
    // traced repetitions, so it takes about as long as an untraced run.
    let window = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let untraced = measure(w, window, None, checks);
    let expect = untraced.reps[0].fingerprint.clone();
    check_fingerprints(name, args.seed, &untraced, &expect, checks);
    let wall = median(&untraced.wall_s);
    println!("{}", summary("wall_s", &untraced.wall_s));
    println!("{}", summary("setup_s (cpu)", &untraced.setup_s));
    println!("{}", summary("setup wall", &untraced.setup_wall_s));
    let items = untraced.reps[0].items;

    if !args.trace {
        let rate = items / wall;
        match name {
            "stream_diurnal_star" | "stream_poisson_ft64" => {
                println!("sim_jobs_per_s: {rate:.3} 1/s (offered jobs per host second)")
            }
            _ => {
                println!("sim_artifacts_per_s: {rate:.6} 1/s (tables and figures per host second)")
            }
        }
        return vec![
            ("wall_s", "s", wall),
            ("setup_s", "s", median(&untraced.setup_s)),
            ("sim_rate_per_s", "1/s", rate),
            ("peak_rss_mb", "MB", untraced.peak_rss_mb),
        ];
    }

    let tracer = Tracer::new();
    let traced = measure(w, window, Some(&tracer), checks);
    check_fingerprints(name, args.seed, &traced, &expect, checks);
    let traced_wall = median(&traced.wall_s);
    println!("{}", summary("traced wall_s", &traced.wall_s));

    let mut layers = median_layers(&traced.reps);
    layers.push(("cluster.spawn_s", spawn_s(&tracer, host_exec(host))));
    if name == paper::NAME {
        layers.extend(executor_probe(args.seed, host, &tracer, checks));
    }
    layers.push(("bench.trace_overhead_frac", (traced_wall - wall) / wall));
    layers.push(("bench.traced_wall_s", traced_wall));
    layers.push(("bench.untraced_wall_s", wall));
    write_trace(args, &tracer);

    PER_LAYER
        .iter()
        .map(|&(key, unit)| {
            let v = layers
                .iter()
                .find(|(k, _)| *k == key)
                .map_or(0.0, |&(_, v)| v);
            (key, unit, v)
        })
        .collect()
}

/// Each per-layer metric's median over the repetitions that report it.
fn median_layers(reps: &[Rep]) -> Layers {
    PER_LAYER
        .iter()
        .filter_map(|&(key, _)| {
            let vals: Vec<f64> = reps
                .iter()
                .filter_map(|r| r.layers.iter().find(|(k, _)| *k == key).map(|&(_, v)| v))
                .collect();
            (!vals.is_empty()).then(|| (key, median(&vals)))
        })
        .collect()
}

/// The executor at scale, for the traced `paper_tables` run: one
/// 256-rank treecode step (Plummer sphere seeded by `--seed`), repeated
/// untraced and traced at the benchmark's width and untraced at width 1.
/// Its host time swings up to twofold between runs on a 2-vCPU virtual
/// machine, too far for an end-to-end bound, so it reports only
/// per-layer metrics.
fn executor_probe(seed: u64, host: &HostStamp, tracer: &Tracer, checks: &mut Checks) -> Layers {
    let tc = treecode::Treecode {
        seed,
        exec: host_exec(host),
    };
    let untraced = measure(&tc, 0.0, None, checks);
    let expect = untraced.reps[0].fingerprint.clone();
    check_fingerprints(treecode::NAME, seed, &untraced, &expect, checks);
    let traced = measure(&tc, 0.0, Some(tracer), checks);
    check_fingerprints(treecode::NAME, seed, &traced, &expect, checks);
    let wall = median(&untraced.wall_s);
    let w1 = tc.width1_wall_s(PROBE_REPS, &expect, checks);
    println!("{}", summary("treecode step wall_s", &untraced.wall_s));
    println!(
        "treecode step width-1 wall_s: median {w1:.6} (n={PROBE_REPS}); width {}: {wall:.6}",
        host.exec_width
    );
    let mut layers = median_layers(&traced.reps);
    layers.push(("cluster.width_gain", w1 / wall));
    layers
}

fn host_exec(host: &HostStamp) -> ExecPolicy {
    ExecPolicy::Parallel {
        workers: host.exec_width,
    }
}

fn result_json(checks_attempted: u64, checks_failed: u64, metrics: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, unit, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{k}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks_failed == 0 && checks_attempted > 0,
        checks_attempted.max(1),
        if checks_attempted == 0 {
            1
        } else {
            checks_failed
        },
        body.join(", ")
    )
}

/// The result of a run that crashed or overran: every check failed.
fn failed_result(trace: bool) -> String {
    let names: Vec<(&str, &str, f64)> = if trace {
        PER_LAYER.iter().map(|&(k, u)| (k, u, 0.0)).collect()
    } else {
        END_TO_END.iter().map(|&(k, u)| (k, u, 0.0)).collect()
    };
    result_json(1, 1, &names)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let host = HostStamp::capture();
    // Simulations the benchmark cannot hand a policy (the table
    // regenerators) read the executor from MB_PARALLEL. A value of 1
    // would select the legacy sequential engine, so a one-core host
    // runs those at width 2.
    std::env::set_var("MB_PARALLEL", host.exec_width.max(2).to_string());
    println!("{}", host.line());
    println!(
        "workload: {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    let trace = args.trace;
    std::thread::spawn(move || {
        std::thread::sleep(DEADLINE);
        println!("perfbench: run exceeded {} s", DEADLINE.as_secs());
        println!("{}", failed_result(trace));
        std::process::exit(0);
    });

    let exec = host_exec(&host);
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut checks = Checks::default();
        let metrics = match args.workload.as_str() {
            paper::NAME => run(&paper::PaperTables, &args, &host, &mut checks),
            "stream_diurnal_star" => run(
                &stream::Stream {
                    scenario: stream::Scenario::DiurnalStar,
                    seed: args.seed,
                    exec,
                },
                &args,
                &host,
                &mut checks,
            ),
            _ => run(
                &stream::Stream {
                    scenario: stream::Scenario::PoissonFt64,
                    seed: args.seed,
                    exec,
                },
                &args,
                &host,
                &mut checks,
            ),
        };
        (metrics, checks)
    }));
    match outcome {
        Ok((metrics, checks)) => {
            for f in checks.failures() {
                println!("check failed: {f}");
            }
            let frac = checks.failed as f64 / checks.attempted.max(1) as f64;
            println!(
                "check_fail_frac: {frac} ({} of {} checks failed)",
                checks.failed, checks.attempted
            );
            for (k, unit, v) in &metrics {
                println!("{k}: {v} {unit}");
            }
            println!("{}", result_json(checks.attempted, checks.failed, &metrics));
        }
        Err(_) => {
            println!("perfbench: the workload panicked");
            println!("{}", failed_result(args.trace));
        }
    }
}
