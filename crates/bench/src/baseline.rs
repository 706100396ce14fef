//! The `bench_baseline` measurement harness: width-1-vs-width-N
//! executor sweeps over the simulated cluster and the distributed
//! treecode step, emitted as machine-readable `BENCH_cluster.json` /
//! `BENCH_treecode.json` documents (schema documented in
//! `BENCHMARKS.md` at the repo root).
//!
//! Two numbers per benchmark matter and they must not be confused:
//!
//! * **virtual makespan** — the simulated MetaBlade's wall-clock for the
//!   job (slowest rank's virtual clock). This is a *result* of the
//!   simulation: bit-identical under every [`ExecPolicy`], on every
//!   host, in every run. The harness verifies that by fingerprinting
//!   each outcome (results + clocks + `CommStats`) and recording
//!   `identical_across_policies`.
//! * **host wall seconds** — how long the simulator itself took on this
//!   machine, per executor policy. This is a *measurement*: it depends
//!   on `host_threads`, load, and the OS scheduler. Speedups are
//!   derived from it; on a single-core host every policy is expected to
//!   tie (the recorded `host_threads` field says which regime a given
//!   document was produced in).

use std::collections::BTreeMap;
use std::time::Instant;

use mb_cluster::machine::{Cluster, SpmdOutcome};
use mb_cluster::spec::{metablade, ClusterSpec};
use mb_cluster::topology::record_link_occupancy;
use mb_cluster::{Comm, CommStats, ExecPolicy, Topology};
use mb_telemetry::artifact::{host_threads, unix_time_s};
use mb_telemetry::json::Json;
use mb_treecode::parallel::{distributed_step, DistributedConfig};
use mb_treecode::plummer;

/// Schema tag stamped into every BENCH document. `/2` added the
/// per-record `topology` column and the fat-tree contention sweep
/// (records suffixed `@ft16x2o4`); the gate treats a schema mismatch
/// as a hard failure, so baselines must be regenerated together.
pub const SCHEMA: &str = "metablade-bench/2";

/// The oversubscribed fat-tree every contention sweep uses: radix 16,
/// two tiers (256-node capacity), 4:1 uplinks — big enough that the
/// 128-rank cases straddle eight edge switches.
pub fn sweep_fat_tree() -> Topology {
    Topology::fat_tree(16, 2, 4.0)
}

/// Shape of one baseline sweep.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Simulated rank counts for the cluster suite (the paper's machine
    /// is 24 nodes; 128/512/1024 probe executor-engine scaling).
    pub rank_counts: Vec<usize>,
    /// Simulated rank counts for the treecode suite. Capped lower than
    /// the cluster sweep: past ~128 ranks a 20k-body Plummer sphere
    /// leaves too few bodies per rank for the domain decomposition to
    /// say anything about the paper's machine.
    pub treecode_rank_counts: Vec<usize>,
    /// Communication rounds per cluster microbenchmark at small rank
    /// counts; see [`rounds_for`] for the high-rank scaling.
    pub rounds: usize,
    /// Plummer-sphere size for the treecode step.
    pub n_bodies: usize,
    /// Wall-clock repeats per (bench, policy); the minimum is recorded.
    /// High-rank cases (≥ 128) always run once.
    pub repeats: usize,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            rank_counts: vec![1, 4, 8, 24, 128, 512, 1024],
            treecode_rank_counts: vec![1, 4, 8, 24, 128],
            rounds: 64,
            n_bodies: 20_000,
            repeats: 2,
        }
    }
}

impl SweepConfig {
    /// A seconds-scale configuration for CI smoke gates: few rounds, a
    /// small body count, single repeats.
    pub fn smoke() -> Self {
        SweepConfig {
            rank_counts: vec![1, 8],
            treecode_rank_counts: vec![1, 8],
            rounds: 4,
            n_bodies: 1_000,
            repeats: 1,
        }
    }

    /// Restrict both suites' sweeps to the given rank counts.
    pub fn with_ranks(mut self, ranks: Vec<usize>) -> Self {
        self.rank_counts = ranks.clone();
        self.treecode_rank_counts = ranks;
        self
    }
}

/// Communication rounds for one cluster case: `rounds` up to 24 ranks,
/// scaled down as `rounds / (ranks / 16)` (min 1) from 128 ranks up, so
/// the event count per case stays roughly flat across the sweep. The
/// formula is part of every record's identity: the bench *name* embeds
/// the effective round count, keeping every record self-describing and
/// its fingerprint comparable with the committed baselines.
pub fn rounds_for(rounds: usize, ranks: usize) -> usize {
    if ranks >= 128 {
        (rounds / (ranks / 16)).max(1)
    } else {
        rounds.max(1)
    }
}

/// The executor policies every sweep compares: width 1 (`seq`, the
/// reference the speedups are taken against), bounded pools of 2 and 8
/// workers, and the unbounded default.
pub fn policies() -> [ExecPolicy; 4] {
    [
        ExecPolicy::Parallel { workers: 1 },
        ExecPolicy::Parallel { workers: 2 },
        ExecPolicy::Parallel { workers: 8 },
        ExecPolicy::Unbounded,
    ]
}

// The hasher moved to `mb_telemetry::fnv` (PR 5) so `mb-sched` can
// fingerprint outcomes without depending on the bench harness;
// re-exported here to keep this module's API stable.
pub use mb_telemetry::fnv::Fnv;

/// Fold per-rank [`CommStats`] into a fingerprint: every counter and
/// every virtual-time accumulator, bit-exact.
pub fn hash_stats(h: &mut Fnv, stats: &[CommStats]) {
    for s in stats {
        h.write_u64(s.sends);
        h.write_u64(s.recvs);
        h.write_u64(s.bytes_sent);
        h.write_u64(s.bytes_recv);
        h.write_f64(s.compute_s);
        h.write_f64(s.wait_s);
        h.write_f64(s.send_busy_s);
        h.write_f64(s.recv_busy_s);
    }
}

/// One measured benchmark: virtual result plus per-policy wall clocks.
pub struct BenchRecord {
    /// Benchmark name (stable across document versions).
    pub name: String,
    /// Simulated rank count.
    pub ranks: usize,
    /// Interconnect label ([`Topology::label`]): `star`, `ft16x2o4`, ….
    /// Records are only comparable across documents when this matches;
    /// the gate enforces that.
    pub topology: String,
    /// Simulated makespan, identical across policies when `identical`.
    pub virtual_makespan_s: f64,
    /// Outcome fingerprint (results + clocks + stats) per policy label.
    pub fingerprints: BTreeMap<String, u64>,
    /// Host wall seconds per policy label (minimum over repeats).
    pub wall_s: BTreeMap<String, f64>,
    /// Simulated communication events (sends + receives summed over
    /// ranks) per host wall second, per policy label: the executor
    /// engine's throughput on this machine. The numerator is a simulated
    /// quantity — identical across policies — so ratios of this field
    /// are pure engine-overhead comparisons.
    pub events_per_sec: BTreeMap<String, f64>,
    /// True when every policy produced a bit-identical outcome.
    pub identical: bool,
    /// Extra scalar fields (e.g. treecode gflops).
    pub extra: Vec<(&'static str, Json)>,
}

impl BenchRecord {
    /// The record as one JSON object (fields documented in BENCHMARKS.md).
    pub fn to_json(&self) -> Json {
        let seq_wall = self.wall_s.get("seq").copied().unwrap_or(f64::NAN);
        let walls = Json::Obj(
            self.wall_s
                .iter()
                .map(|(k, v)| (k.clone(), Json::Num(*v)))
                .collect(),
        );
        let speedups = Json::Obj(
            self.wall_s
                .iter()
                .filter(|(k, _)| k.as_str() != "seq")
                .map(|(k, v)| (k.clone(), Json::Num(seq_wall / v.max(1e-12))))
                .collect(),
        );
        let fps = Json::Obj(
            self.fingerprints
                .iter()
                .map(|(k, v)| (k.clone(), Json::str(format!("{v:016x}"))))
                .collect(),
        );
        let events = Json::Obj(
            self.events_per_sec
                .iter()
                .map(|(k, v)| (k.clone(), Json::Num(*v)))
                .collect(),
        );
        let mut fields = vec![
            ("name", Json::str(self.name.clone())),
            ("ranks", Json::Num(self.ranks as f64)),
            ("topology", Json::str(self.topology.clone())),
            ("virtual_makespan_s", Json::Num(self.virtual_makespan_s)),
            ("identical_across_policies", Json::Bool(self.identical)),
            ("outcome_fingerprints", fps),
            ("wall_s", walls),
            ("speedup_vs_seq", speedups),
            ("events_per_sec", events),
        ];
        fields.extend(self.extra.iter().cloned());
        Json::obj(fields)
    }
}

/// Wrap bench records into a full BENCH document.
fn document(suite: &str, cfg_fields: Vec<(&'static str, Json)>, benches: &[BenchRecord]) -> Json {
    let mut fields = vec![
        ("schema", Json::str(SCHEMA)),
        ("suite", Json::str(suite)),
        ("generated_unix_s", Json::Num(unix_time_s() as f64)),
        ("host_threads", Json::Num(host_threads() as f64)),
        (
            "policies",
            Json::Arr(policies().iter().map(|p| Json::str(p.label())).collect()),
        ),
    ];
    fields.extend(cfg_fields);
    fields.push((
        "benches",
        Json::Arr(benches.iter().map(BenchRecord::to_json).collect()),
    ));
    Json::obj(fields)
}

/// Fingerprint a finished SPMD outcome: per-rank result vectors, virtual
/// clocks and every [`CommStats`] field, bit-exact. This is the hash the
/// BENCH documents record per policy and the determinism suite pins
/// against them.
pub fn fingerprint_outcome(out: &SpmdOutcome<Vec<f64>>) -> u64 {
    let mut h = Fnv::new();
    for r in &out.results {
        for v in r {
            h.write_f64(*v);
        }
    }
    for c in &out.clocks {
        h.write_f64(*c);
    }
    hash_stats(&mut h, &out.stats);
    h.finish()
}

/// The `allreduce_32x{rounds}` microbenchmark body: repeated 32-double
/// allreduces with a data-dependent transform and a small compute charge
/// between rounds. Shared with the determinism suite so the committed
/// BENCH fingerprints can be reproduced outside the harness.
pub fn allreduce_job(rounds: usize) -> impl Fn(&mut Comm) -> Vec<f64> + Sync {
    move |comm: &mut Comm| {
        let mut v = vec![comm.rank() as f64 + 1.0; 32];
        for _ in 0..rounds {
            v = comm.allreduce_sum(&v);
            for x in v.iter_mut() {
                *x = (*x / comm.nranks() as f64).sqrt() + 1.0;
            }
            comm.compute(64.0 * v.len() as f64);
        }
        v.push(comm.now());
        v
    }
}

/// The `ring_4KiBx{rounds}` microbenchmark body: 4-KiB payloads around a
/// ring with a per-hop compute charge.
pub fn ring_job(rounds: usize) -> impl Fn(&mut Comm) -> Vec<f64> + Sync {
    move |comm: &mut Comm| {
        let rank = comm.rank();
        let n = comm.nranks();
        let mut buf = vec![rank as f64; 512]; // 4 KiB payload
        if n > 1 {
            let next = (rank + 1) % n;
            let prev = (rank + n - 1) % n;
            for _ in 0..rounds {
                comm.send_f64s(next, 5, &buf);
                let got = comm.recv_f64s(prev, 5);
                buf[0] += got[0] + 1.0;
                comm.compute(buf.len() as f64);
            }
        }
        vec![buf[0], comm.now()]
    }
}

/// The `imbalance_x{rounds}` microbenchmark body: skewed virtual compute
/// (so the conservative scheduler has clock spread to order) plus real
/// host spin (so wall-clock reflects admitted parallelism), barriered.
pub fn imbalance_job(rounds: usize) -> impl Fn(&mut Comm) -> Vec<f64> + Sync {
    move |comm: &mut Comm| {
        let rank = comm.rank();
        let mut spin = 0.0f64;
        for round in 0..rounds {
            comm.compute(2e5 * (1 + (rank + round) % 4) as f64);
            for i in 0..2_000u64 {
                spin += ((i + rank as u64) as f64).sqrt();
            }
            comm.barrier();
        }
        vec![std::hint::black_box(spin), comm.now()]
    }
}

/// Run `job` on `spec` under every policy, `repeats` wall repeats each.
fn run_case<F>(name: &str, spec: &ClusterSpec, repeats: usize, job: F) -> BenchRecord
where
    F: Fn(&mut Comm) -> Vec<f64> + Sync,
{
    let ranks = spec.nodes;
    let repeats = if ranks >= 128 { 1 } else { repeats.max(1) };
    let mut wall_s = BTreeMap::new();
    let mut events_per_sec = BTreeMap::new();
    let mut fingerprints = BTreeMap::new();
    let mut makespan = 0.0;
    for policy in policies() {
        let cluster = Cluster::new(spec.clone()).with_exec(policy);
        let mut best = f64::INFINITY;
        let mut fp = 0u64;
        let mut events = 0u64;
        for _ in 0..repeats {
            let t = Instant::now();
            let out = cluster.run(&job);
            best = best.min(t.elapsed().as_secs_f64());
            fp = fingerprint_outcome(&out);
            makespan = out.makespan_s();
            events = out.stats.iter().map(|s| s.sends + s.recvs).sum();
        }
        wall_s.insert(policy.label(), best);
        events_per_sec.insert(policy.label(), events as f64 / best.max(1e-12));
        fingerprints.insert(policy.label(), fp);
    }
    let identical = {
        let mut vals = fingerprints.values();
        let first = vals.next().copied();
        vals.all(|v| Some(*v) == first)
    };
    BenchRecord {
        name: name.to_string(),
        ranks,
        topology: spec.network.topology.label(),
        virtual_makespan_s: makespan,
        fingerprints,
        wall_s,
        events_per_sec,
        identical,
        extra: Vec::new(),
    }
}

/// The cluster suite: collective, point-to-point and imbalanced-compute
/// microbenchmarks swept over rank counts and executor policies on the
/// paper's star switch, plus an oversubscribed fat-tree allreduce sweep
/// (records named `…@ft16x2o4`) that measures topology contention at
/// every rank count the tree can wire.
pub fn cluster_baseline(cfg: &SweepConfig) -> Json {
    let star = metablade();
    let ft = sweep_fat_tree();
    let ft_cap = ft.capacity().expect("fat-trees are finite");
    let mut benches = Vec::new();
    for &ranks in &cfg.rank_counts {
        let rounds = rounds_for(cfg.rounds, ranks);
        let spec = star.with_nodes(ranks);
        benches.push(run_case(
            &format!("allreduce_32x{rounds}"),
            &spec,
            cfg.repeats,
            allreduce_job(rounds),
        ));
        benches.push(run_case(
            &format!("ring_4KiBx{rounds}"),
            &spec,
            cfg.repeats,
            ring_job(rounds),
        ));
        benches.push(run_case(
            &format!("imbalance_x{rounds}"),
            &spec,
            cfg.repeats,
            imbalance_job(rounds),
        ));
        if ranks <= ft_cap {
            benches.push(run_case(
                &format!("allreduce_32x{rounds}@{}", ft.label()),
                &spec.with_topology(ft),
                cfg.repeats,
                allreduce_job(rounds),
            ));
        }
    }
    document(
        "cluster",
        vec![
            ("rounds", Json::Num(cfg.rounds.max(1) as f64)),
            (
                "topologies",
                Json::Arr(vec![
                    Json::str(star.network.topology.label()),
                    Json::str(ft.label()),
                ]),
            ),
        ],
        &benches,
    )
}

/// A traced fat-tree rerun of the allreduce microbenchmark at the
/// sweep's largest tree-wireable rank count, exported as a Chrome trace
/// whose counter tracks carry per-link occupancy
/// (`network/link_bytes` / `network/link_msgs`, one series per named
/// link). This is the `FATTREE_links.trace.json` CI artifact: open it in
/// Perfetto and the oversubscribed `up:`/`down:` links visibly carry the
/// cross-switch halves of each collective. Derived data only — the
/// occupancy fold consumes finished [`CommStats`]; it never feeds back
/// into virtual time.
pub fn fat_tree_link_trace(cfg: &SweepConfig) -> String {
    let ft = sweep_fat_tree();
    let cap = ft.capacity().expect("fat-trees are finite");
    let ranks = cfg
        .rank_counts
        .iter()
        .copied()
        .filter(|&r| r <= cap)
        .max()
        .unwrap_or(8);
    let rounds = rounds_for(cfg.rounds, ranks);
    let cluster = Cluster::new(metablade().with_nodes(ranks).with_topology(ft))
        .with_exec(ExecPolicy::Parallel { workers: 1 });
    let (out, trace) = cluster.run_traced(allreduce_job(rounds));
    let occ = ft.link_occupancy(&out.stats, None);
    let mut reg = mb_telemetry::metrics::Registry::new();
    record_link_occupancy(&mut reg, &occ);
    mb_telemetry::chrome::export_with_metrics(&trace, &reg)
}

/// The treecode suite: one full distributed force evaluation per
/// (rank count, policy), wall-timed, with virtual makespan, sustained
/// Gflops and a particle-state fingerprint (acc + pot bit patterns).
pub fn treecode_baseline(cfg: &SweepConfig) -> Json {
    let bodies = plummer(cfg.n_bodies, 1999);
    let tree_cfg = DistributedConfig::default();
    let mut benches = Vec::new();
    for &ranks in &cfg.treecode_rank_counts {
        let spec = metablade().with_nodes(ranks);
        let mut wall_s = BTreeMap::new();
        let mut events_per_sec = BTreeMap::new();
        let mut fingerprints = BTreeMap::new();
        let mut makespan = 0.0;
        let mut gflops = 0.0;
        for policy in policies() {
            let cluster = Cluster::new(spec.clone()).with_exec(policy);
            let t = Instant::now();
            let report = distributed_step(&cluster, &bodies, &tree_cfg);
            let wall = t.elapsed().as_secs_f64();
            wall_s.insert(policy.label(), wall);
            let events: u64 = report.comm.iter().map(|s| s.sends + s.recvs).sum();
            events_per_sec.insert(policy.label(), events as f64 / wall.max(1e-12));
            let mut h = Fnv::new();
            h.write_f64(report.makespan_s);
            for a in &report.acc {
                for v in a {
                    h.write_f64(*v);
                }
            }
            for p in &report.pot {
                h.write_f64(*p);
            }
            hash_stats(&mut h, &report.comm);
            fingerprints.insert(policy.label(), h.finish());
            makespan = report.makespan_s;
            gflops = report.gflops;
        }
        let identical = {
            let mut vals = fingerprints.values();
            let first = vals.next().copied();
            vals.all(|v| Some(*v) == first)
        };
        benches.push(BenchRecord {
            name: "treecode_step".to_string(),
            ranks,
            topology: spec.network.topology.label(),
            virtual_makespan_s: makespan,
            fingerprints,
            wall_s,
            events_per_sec,
            identical,
            extra: vec![("gflops", Json::Num(gflops))],
        });
    }
    document(
        "treecode",
        vec![
            ("n_bodies", Json::Num(cfg.n_bodies as f64)),
            ("ic", Json::str("plummer(seed=1999)")),
        ],
        &benches,
    )
}

/// One host-time-profiled rerun of the imbalance microbenchmark at the
/// sweep's largest rank count under the 8-worker pool, with the JSONL
/// event log attached. Returns `(prometheus_text, event_jsonl)` — the
/// `PROF_cluster.prom` / `prof_events.jsonl` artifacts `bench_baseline`
/// writes when `MB_PROF=1`.
///
/// This is deliberately *outside* the timed sweep: profiling reads host
/// clocks per admission and would bias the wall-second measurements the
/// BENCH documents exist to track. Virtual outcomes are unaffected
/// either way (the determinism suite proves that at 256 ranks).
pub fn profiled_pass(cfg: &SweepConfig) -> (String, String) {
    use std::sync::Arc;

    let ranks = cfg.rank_counts.iter().copied().max().unwrap_or(8);
    let rounds = rounds_for(cfg.rounds, ranks);
    let log = Arc::new(mb_telemetry::eventlog::EventLog::new());
    let cluster = Cluster::new(metablade().with_nodes(ranks))
        .with_exec(ExecPolicy::Parallel { workers: 8 })
        .with_prof(true)
        .with_event_log(Arc::clone(&log));
    let out = cluster.run(move |comm: &mut Comm| {
        let rank = comm.rank();
        let mut spin = 0.0f64;
        for round in 0..rounds {
            comm.compute(2e5 * (1 + (rank + round) % 4) as f64);
            for i in 0..2_000u64 {
                spin += ((i + rank as u64) as f64).sqrt();
            }
            comm.barrier();
        }
        vec![std::hint::black_box(spin), comm.now()]
    });
    let mut reg = mb_telemetry::metrics::Registry::new();
    out.exec_report
        .record_into(&mut reg, &cluster.exec().label());
    log.emit(
        "bench.profiled_pass",
        &[
            ("bench", Json::str(format!("imbalance_x{rounds}"))),
            ("ranks", Json::Num(ranks as f64)),
            ("admissions", Json::Num(out.exec_report.admissions as f64)),
        ],
    );
    (mb_telemetry::prom::render(&reg), log.to_jsonl())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SweepConfig {
        SweepConfig {
            rank_counts: vec![1, 4],
            treecode_rank_counts: vec![1, 4],
            rounds: 4,
            n_bodies: 400,
            repeats: 1,
        }
    }

    fn assert_benches_identical(doc: &Json, expected: usize) {
        let benches = doc.get("benches").and_then(Json::as_arr).expect("benches");
        assert_eq!(benches.len(), expected);
        for b in benches {
            assert_eq!(
                b.get("identical_across_policies"),
                Some(&Json::Bool(true)),
                "{:?} diverged across policies",
                b.get("name")
            );
            let walls = b.get("wall_s").expect("wall_s");
            let events = b.get("events_per_sec").expect("events_per_sec");
            for p in policies() {
                assert!(
                    walls.get(&p.label()).and_then(Json::as_f64).is_some(),
                    "missing wall for {}",
                    p.label()
                );
                let eps = events.get(&p.label()).and_then(Json::as_f64);
                assert!(
                    eps.is_some_and(|v| v >= 0.0),
                    "missing events_per_sec for {}",
                    p.label()
                );
            }
        }
    }

    #[test]
    fn high_rank_round_scaling_keeps_event_counts_flat() {
        assert_eq!(rounds_for(64, 1), 64);
        assert_eq!(rounds_for(64, 24), 64);
        assert_eq!(rounds_for(64, 128), 8);
        assert_eq!(rounds_for(64, 512), 2);
        assert_eq!(rounds_for(64, 1024), 1);
        assert_eq!(rounds_for(4, 1024), 1); // floors at one round
    }

    #[test]
    fn cluster_baseline_outcomes_match_across_policies() {
        let doc = cluster_baseline(&tiny());
        assert_eq!(doc.get("schema"), Some(&Json::str(SCHEMA)));
        assert_eq!(doc.get("suite"), Some(&Json::str("cluster")));
        // Two rank counts × (three star microbenchmarks + the fat-tree
        // allreduce sweep).
        assert_benches_identical(&doc, 2 * 4);
        // Every record carries its topology column; `@`-suffixed names
        // are exactly the fat-tree ones.
        for b in doc.get("benches").and_then(Json::as_arr).unwrap() {
            let name = b.get("name").and_then(Json::as_str).unwrap();
            let topo = b.get("topology").and_then(Json::as_str).unwrap();
            if name.contains('@') {
                assert_eq!(topo, "ft16x2o4", "{name}");
            } else {
                assert_eq!(topo, "star", "{name}");
            }
        }
        // The document round-trips through the dependency-free parser.
        let text = doc.to_string();
        assert_eq!(mb_telemetry::json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn fat_tree_allreduce_is_slower_than_the_star_at_equal_ranks() {
        let doc = cluster_baseline(&tiny());
        let benches = doc.get("benches").and_then(Json::as_arr).unwrap();
        let makespan = |name: &str, ranks: f64| {
            benches
                .iter()
                .find(|b| {
                    b.get("name").and_then(Json::as_str) == Some(name)
                        && b.get("ranks").and_then(Json::as_f64) == Some(ranks)
                })
                .and_then(|b| b.get("virtual_makespan_s"))
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("missing {name} at {ranks} ranks"))
        };
        // 4 ranks on a radix-16 tree fit under one edge switch: exactly
        // the star. (Contention needs >16 ranks; the committed BENCH
        // documents show it at 24+.)
        assert_eq!(
            makespan("allreduce_32x4@ft16x2o4", 4.0),
            makespan("allreduce_32x4", 4.0)
        );
    }

    #[test]
    fn fat_tree_link_trace_validates_and_names_uplinks() {
        let trace = fat_tree_link_trace(&tiny());
        let summary = mb_telemetry::chrome::validate(&trace).expect("valid Chrome trace");
        assert!(summary.events > 0, "no spans in the traced run");
        assert!(summary.counters > 0, "no link-occupancy counters");
        assert!(
            trace.contains("network/link_bytes") && trace.contains("host-up:"),
            "missing per-link occupancy tracks"
        );
    }

    #[test]
    fn profiled_pass_renders_prom_histograms_and_a_nonempty_event_log() {
        let (prom, jsonl) = profiled_pass(&tiny());
        assert!(
            prom.contains("# TYPE prof_task_busy_ns histogram"),
            "missing busy histogram:\n{prom}"
        );
        assert!(prom.contains("prof_gate_wake_ns_bucket"));
        assert!(prom.contains("executor_admissions"));
        // At least the trailing summary event; every line parses.
        assert!(!jsonl.is_empty());
        for line in jsonl.lines() {
            let v = mb_telemetry::json::parse(line).expect("JSONL line parses");
            assert!(v.get("t_ns").is_some() && v.get("kind").is_some());
        }
        assert!(jsonl.contains("\"kind\":\"bench.profiled_pass\""));
    }

    #[test]
    fn treecode_baseline_outcomes_match_across_policies() {
        let doc = treecode_baseline(&tiny());
        assert_eq!(doc.get("suite"), Some(&Json::str("treecode")));
        assert_benches_identical(&doc, 2);
        for b in doc.get("benches").and_then(Json::as_arr).unwrap() {
            let g = b.get("gflops").and_then(Json::as_f64).unwrap();
            assert!(g > 0.0, "gflops must be positive, got {g}");
        }
    }
}
