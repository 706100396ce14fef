//! Executor determinism at scale: the regression gate for the
//! event-driven core.
//!
//! Every executor width (one slot, bounded pools and unbounded; see
//! `mb_cluster::event`) must reproduce golden simulated outcomes —
//! makespan, per-rank clocks, and every `CommStats` counter and
//! virtual-time accumulator — at 256 ranks, where lookahead grants,
//! horizon deferrals and heap admission orderings all genuinely differ
//! between widths. Also asserts that observability (span tracing and
//! executor telemetry) never perturbs virtual time.

use metablade::bench::baseline::{allreduce_job, fingerprint_outcome, rounds_for};
use metablade::cluster::machine::Cluster;
use metablade::cluster::spec::metablade as metablade_spec;
use metablade::cluster::{Comm, CommStats, ExecPolicy, Topology};
use metablade::sched::engine::Placement;
use metablade::sched::policy::{EasyBackfill, Fcfs, SchedPolicy, Sjf};
use metablade::sched::{
    generate, simulate, FailureConfig, JobSpec, NpbKernel, SchedConfig, ServiceModel, SimReport,
    WorkModel, WorkloadConfig,
};
use metablade::telemetry::fnv::Fnv;
use metablade::telemetry::json::{parse, Json};

/// Fingerprint the simulated quantities of one outcome bit-exactly:
/// results, clocks, stats (never the executor report — that is
/// wall-clock-side and legitimately differs between engines).
fn outcome_fingerprint(results: &[Vec<f64>], clocks: &[f64], stats: &[CommStats]) -> u64 {
    let mut h = Fnv::new();
    for r in results {
        for v in r {
            h.write_f64(*v);
        }
    }
    for c in clocks {
        h.write_f64(*c);
    }
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
    h.finish()
}

/// A 256-rank job that exercises collectives, point-to-point rings and
/// skewed compute — enough structure that a scheduling bug would move
/// clock bits somewhere.
fn job_256(comm: &mut Comm) -> Vec<f64> {
    let rank = comm.rank();
    let n = comm.nranks();
    let mut v = vec![rank as f64 + 1.0; 16];
    for round in 0..3 {
        v = comm.allreduce_sum(&v);
        for x in v.iter_mut() {
            *x = (*x / n as f64).sqrt() + 1.0;
        }
        comm.compute(1e5 * (1 + (rank + round) % 5) as f64);
        let next = (rank + 1) % n;
        let prev = (rank + n - 1) % n;
        comm.send_f64s(next, 9, &v[..4]);
        let got = comm.recv_f64s(prev, 9);
        v[0] += got[0];
        comm.barrier();
    }
    v.push(comm.now());
    v
}

/// Golden pins for `job_256`: the outcome fingerprint and the makespan
/// bits, captured under the legacy global-min sequential engine. The
/// reference that engine provided at run time survives as data, so every
/// width is checked against history rather than against another engine.
const STAR_256_PIN: (&str, u64) = ("7df7222566d6bb09", 0x3f9c_a852_5060_025c);
/// As [`STAR_256_PIN`], for `job_256` on the 16-port two-level 4:1
/// fat tree.
const FAT_TREE_256_PIN: (&str, u64) = ("38795f1c1d2f33d6", 0x3fa2_c6a9_a33f_96f6);

#[test]
fn outcome_is_bit_identical_across_engines_at_256_ranks() {
    let spec = metablade_spec().with_nodes(256);
    let policies = [
        ExecPolicy::Parallel { workers: 1 },
        ExecPolicy::Parallel { workers: 8 },
        ExecPolicy::Unbounded,
    ];
    for policy in policies {
        let out = Cluster::new(spec.clone()).with_exec(policy).run(job_256);
        // The event core really ran: every rank was admitted at least
        // once per blocking receive.
        assert!(
            out.exec_report.admissions >= 256,
            "{}: {:?}",
            policy.label(),
            out.exec_report
        );
        let print = outcome_fingerprint(&out.results, &out.clocks, &out.stats);
        assert_eq!(
            (format!("{print:016x}").as_str(), out.makespan_s().to_bits()),
            STAR_256_PIN,
            "{}: outcome drifted from the golden pin at 256 ranks",
            policy.label()
        );
    }
}

#[test]
fn fat_tree_outcome_is_bit_identical_across_engine_widths_at_256_ranks() {
    // A 256-rank job on a two-tier oversubscribed fat-tree — where
    // per-pair lookahead bounds, not the global minimum, drive
    // admission — still produces bit-identical outcomes at every
    // `MB_PARALLEL` width.
    let spec = metablade_spec()
        .with_nodes(256)
        .with_topology(Topology::fat_tree(16, 2, 4.0));
    let policies = [
        ExecPolicy::Parallel { workers: 1 },
        ExecPolicy::Parallel { workers: 4 },
        ExecPolicy::Parallel { workers: 8 },
    ];
    for policy in policies {
        let out = Cluster::new(spec.clone()).with_exec(policy).run(job_256);
        let print = outcome_fingerprint(&out.results, &out.clocks, &out.stats);
        assert_eq!(
            (format!("{print:016x}").as_str(), out.makespan_s().to_bits()),
            FAT_TREE_256_PIN,
            "{}: fat-tree outcome drifted from the golden pin",
            policy.label()
        );
    }
}

#[test]
fn fat_tree_contention_slows_collectives_versus_the_star_at_128_ranks() {
    let rounds = rounds_for(64, 128);
    let star = Cluster::new(metablade_spec().with_nodes(128))
        .with_exec(ExecPolicy::Parallel { workers: 1 })
        .run(allreduce_job(rounds));
    let ft = Cluster::new(
        metablade_spec()
            .with_nodes(128)
            .with_topology(Topology::fat_tree(16, 2, 4.0)),
    )
    .with_exec(ExecPolicy::Parallel { workers: 1 })
    .run(allreduce_job(rounds));
    assert!(
        ft.makespan_s() > star.makespan_s() * 1.05,
        "4:1-oversubscribed fat-tree ({}) not measurably slower than star ({})",
        ft.makespan_s(),
        star.makespan_s()
    );
}

#[test]
fn star_outcomes_reproduce_the_committed_bench_fingerprints() {
    // Pin the simulation against the committed BENCH_cluster.json: the
    // star allreduce at 128 ranks must reproduce the document's
    // fingerprint and makespan bit-for-bit, on any host, under the
    // event core. This is what "Star stays bit-identical" means — not
    // just self-consistency within one build, but equality with the
    // committed history.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_cluster.json");
    let doc = parse(&std::fs::read_to_string(path).expect("committed BENCH_cluster.json"))
        .expect("BENCH_cluster.json parses");
    let rounds = rounds_for(64, 128);
    let name = format!("allreduce_32x{rounds}");
    let rec = doc
        .get("benches")
        .and_then(Json::as_arr)
        .and_then(|bs| {
            bs.iter().find(|b| {
                b.get("name").and_then(Json::as_str) == Some(name.as_str())
                    && b.get("ranks").and_then(Json::as_f64) == Some(128.0)
            })
        })
        .unwrap_or_else(|| panic!("no {name} @ 128 record in BENCH_cluster.json"));
    assert_eq!(
        rec.get("topology").and_then(Json::as_str),
        Some("star"),
        "the pinned record must be the star one"
    );
    let committed_fp = rec
        .get("outcome_fingerprints")
        .and_then(|f| f.get("unbounded"))
        .and_then(Json::as_str)
        .expect("unbounded fingerprint");
    let committed_mk = rec
        .get("virtual_makespan_s")
        .and_then(Json::as_f64)
        .expect("virtual makespan");

    let out = Cluster::new(metablade_spec().with_nodes(128))
        .with_exec(ExecPolicy::Unbounded)
        .run(allreduce_job(rounds));
    assert_eq!(
        format!("{:016x}", fingerprint_outcome(&out)),
        committed_fp,
        "star outcome fingerprint drifted from the committed baseline"
    );
    assert_eq!(
        out.makespan_s().to_bits(),
        committed_mk.to_bits(),
        "star makespan bits drifted from the committed baseline"
    );
}

/// Run one scheduler simulation at a given executor width and return
/// the full `SimReport` (its `fingerprint` folds every job record,
/// requeue and failure bit-exactly).
fn sched_run(
    spec: &metablade::cluster::spec::ClusterSpec,
    exec: ExecPolicy,
    policy: &dyn SchedPolicy,
    jobs: &[JobSpec],
    cfg: &SchedConfig,
) -> SimReport {
    let cluster = Cluster::new(spec.clone()).with_exec(exec);
    let service = ServiceModel::new(&cluster);
    simulate(&service, policy, jobs, cfg)
}

#[test]
fn shared_uplink_contention_is_bit_identical_across_executor_widths() {
    // The PR-9 acceptance gate: two jobs whose ring exchanges meet on
    // the same fat-tree uplinks — so the mean-field contention factor
    // is genuinely live — must fingerprint identically at every
    // `MB_PARALLEL` width, under both the compact and the
    // contention-aware allocator.
    let spec = metablade_spec()
        .with_nodes(16)
        .with_topology(Topology::fat_tree(4, 2, 4.0));
    let comm_heavy = |id: usize, ranks: usize| JobSpec {
        id,
        submit_s: 0.0,
        ranks,
        work: WorkModel::Synthetic {
            flops_per_step: 1e6,
            msg_kib: 64,
            rounds: 8,
            steps: 120,
        },
    };
    // 6+6 fill group 0 + half of 1 and group 2 + half of 3; the
    // 4-rank straggler must then straddle the two half-used groups, so
    // its flows meet both neighbours' on the l1.s1/l1.s3 uplinks under
    // *every* placement — the contention path is live, not incidental.
    let jobs = [comm_heavy(0, 6), comm_heavy(1, 6), comm_heavy(2, 4)];
    let widths = [
        ExecPolicy::Parallel { workers: 1 },
        ExecPolicy::Parallel { workers: 4 },
        ExecPolicy::Parallel { workers: 8 },
    ];
    for placement in [Placement::Compact, Placement::ContentionAware] {
        let cfg = SchedConfig {
            placement,
            ..SchedConfig::default()
        };
        let reports: Vec<SimReport> = widths
            .iter()
            .map(|&w| sched_run(&spec, w, &Fcfs, &jobs, &cfg))
            .collect();
        assert!(
            reports[0].max_contention_factor > 1.0,
            "{}: no job ever shared an uplink — the gate is vacuous",
            placement.label()
        );
        for (r, w) in reports[1..].iter().zip(&widths[1..]) {
            assert_eq!(
                r.fingerprint,
                reports[0].fingerprint,
                "{} at width {} diverged from width 1",
                placement.label(),
                w.label()
            );
            assert_eq!(
                r.makespan_s.to_bits(),
                reports[0].makespan_s.to_bits(),
                "{}: makespan bits moved across widths",
                placement.label()
            );
        }
    }
}

#[test]
fn star_and_single_job_runs_reproduce_pre_contention_fingerprints() {
    // The contention layer's no-op guarantee, pinned against history:
    // these fingerprints were captured from the engine *before* link
    // accounting existed (schema metablade-sched/2). Star runs bypass
    // traffic accounting entirely, and a lone job on a fat tree shares
    // no link with anyone — so with contention compiled in, every one
    // of these outcomes must still reproduce bit for bit.
    let star = metablade_spec();
    let stream = generate(&WorkloadConfig {
        jobs: 40,
        seed: 11,
        mean_interarrival_s: 180.0,
        max_ranks: 24,
    });
    let nofail = SchedConfig::default();
    let fail = SchedConfig {
        failure: Some(FailureConfig::accelerated(2000.0, 3)),
        ..SchedConfig::default()
    };
    let policies: [(&dyn SchedPolicy, &str); 3] =
        [(&Fcfs, "fcfs"), (&EasyBackfill, "easy"), (&Sjf, "sjf")];
    let pinned_nofail = [
        ("fcfs", "ddd60c626b546613"),
        ("easy", "afd32e4b95806a0c"),
        ("sjf", "16d0cba34212c2a2"),
    ];
    let pinned_fail = [
        ("fcfs", "e6f56ced2ea60691"),
        ("easy", "81cb5db6b4a10f88"),
        ("sjf", "67101a6400156499"),
    ];
    for (cfg, pinned) in [(&nofail, &pinned_nofail), (&fail, &pinned_fail)] {
        for ((policy, name), (pin_name, pin_fp)) in policies.iter().zip(pinned) {
            assert_eq!(name, pin_name);
            let rep = sched_run(
                &star,
                ExecPolicy::Parallel { workers: 1 },
                *policy,
                &stream,
                cfg,
            );
            assert_eq!(
                rep.fingerprint_hex(),
                *pin_fp,
                "star {name} stream drifted from the pre-contention engine"
            );
            assert_eq!(rep.max_contention_factor, 1.0);
            assert!(rep.link_bytes.is_empty(), "star run accounted fabric links");
        }
    }

    // Single jobs: one on the star, one each on a small and a large
    // oversubscribed fat tree (placement factors and path profiles
    // active, contention idle).
    let single = |ranks: usize| {
        vec![JobSpec {
            id: 0,
            submit_s: 0.0,
            ranks,
            work: WorkModel::Npb {
                kernel: NpbKernel::Is,
                iters: 64,
            },
        }]
    };
    let cases: [(metablade::cluster::spec::ClusterSpec, usize, &str); 3] = [
        (metablade_spec(), 8, "fd08038eecb12844"),
        (
            metablade_spec()
                .with_nodes(16)
                .with_topology(Topology::fat_tree(4, 2, 4.0)),
            12,
            "b8689c22c8c31f59",
        ),
        (
            metablade_spec()
                .with_nodes(32)
                .with_topology(Topology::fat_tree(16, 2, 4.0)),
            24,
            "5e08e50064250b9d",
        ),
    ];
    for (spec, ranks, pin_fp) in cases {
        let rep = sched_run(
            &spec,
            ExecPolicy::Parallel { workers: 1 },
            &Fcfs,
            &single(ranks),
            &SchedConfig::default(),
        );
        assert_eq!(
            rep.fingerprint_hex(),
            pin_fp,
            "single {ranks}-rank job on {} drifted from the pre-contention engine",
            spec.network.topology.label()
        );
        assert_eq!(rep.max_contention_factor, 1.0);
        assert!(
            rep.link_shared_s.is_empty(),
            "a lone job cannot share a link with itself"
        );
    }
}

#[test]
fn tracing_and_telemetry_do_not_perturb_virtual_time_at_256_ranks() {
    let spec = metablade_spec().with_nodes(256);
    let cluster = Cluster::new(spec).with_exec(ExecPolicy::Parallel { workers: 8 });
    let plain = cluster.run(job_256);
    let (traced, trace) = cluster.run_traced(job_256);
    assert_eq!(
        outcome_fingerprint(&plain.results, &plain.clocks, &plain.stats),
        outcome_fingerprint(&traced.results, &traced.clocks, &traced.stats),
        "attaching trace sinks changed simulated outcomes"
    );
    assert!(!trace.is_empty(), "traced run produced no spans");

    // Executor telemetry flows into the registry and the Chrome
    // exporter without touching the simulation.
    let mut reg = metablade::telemetry::metrics::Registry::new();
    traced
        .exec_report
        .record_into(&mut reg, &cluster.exec().label());
    assert_eq!(
        reg.counter_value("executor/admissions", "w8"),
        Some(traced.exec_report.admissions),
    );
    let chrome = metablade::telemetry::chrome::export_with_metrics(&trace, &reg);
    let summary = metablade::telemetry::chrome::validate(&chrome).expect("valid chrome trace");
    assert!(summary.events > 0);
    assert!(
        chrome.contains("executor/admissions"),
        "executor counters missing from Chrome export"
    );
}

#[test]
fn host_time_profiling_does_not_perturb_virtual_time_at_256_ranks() {
    // The ISSUE-7 acceptance gate: fingerprints must be bit-identical
    // with profiling enabled vs disabled — host-clock instrumentation
    // (gate wake latency, busy/idle spans, horizon stall timing) reads
    // `Instant` only and never a virtual clock.
    let spec = metablade_spec().with_nodes(256);
    let cluster = Cluster::new(spec).with_exec(ExecPolicy::Parallel { workers: 8 });
    let off = cluster.clone().with_prof(false).run(job_256);
    let log = std::sync::Arc::new(metablade::telemetry::eventlog::EventLog::new());
    let on = cluster
        .clone()
        .with_prof(true)
        .with_event_log(std::sync::Arc::clone(&log))
        .run(job_256);
    assert_eq!(
        outcome_fingerprint(&off.results, &off.clocks, &off.stats),
        outcome_fingerprint(&on.results, &on.clocks, &on.stats),
        "host-time profiling changed simulated outcomes"
    );
    assert!(off.exec_report.prof.is_none());
    let p = on.exec_report.prof.as_ref().expect("profile captured");
    assert_eq!(
        p.busy_ns.count(),
        on.exec_report.admissions,
        "one busy span per admission"
    );
    assert!(p.wake_ns.p50() <= p.wake_ns.p99());

    // The profile flows through every export surface: registry →
    // Prometheus text and Chrome counters.
    let mut reg = metablade::telemetry::metrics::Registry::new();
    on.exec_report
        .record_into(&mut reg, &cluster.exec().label());
    let prom = metablade::telemetry::prom::render(&reg);
    assert!(
        prom.contains("prof_task_busy_ns_bucket"),
        "prof histograms missing from Prometheus export:\n{prom}"
    );
    assert!(prom.contains("# TYPE prof_task_busy_ns histogram"));
}
