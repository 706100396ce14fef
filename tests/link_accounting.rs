//! Golden pin of the scheduler's per-link telemetry on contended
//! fat-tree streams.
//!
//! Run fingerprints hash job timelines, not the per-link accounting
//! beside them: a change that reorders a float sum over links or jobs
//! would move `link_bytes` / `link_shared_s` bits (or the order the
//! `sched.uplink_rate_Bps` series are registered in) without touching
//! any committed fingerprint. These pins were captured from the
//! `String`-keyed link accounting and must keep reproducing bit for
//! bit.

use metablade::cluster::machine::Cluster;
use metablade::cluster::spec::metablade as metablade_spec;
use metablade::cluster::{ExecPolicy, Topology};
use metablade::sched::engine::Placement;
use metablade::sched::policy::Fcfs;
use metablade::sched::{simulate, JobSpec, SchedConfig, ServiceModel, SimReport, WorkModel};
use metablade::telemetry::fnv::Fnv;
use metablade::telemetry::metrics::MetricValue;

/// The seeded comm-heavy ring-exchange stream `sched_sim` uses for its
/// fat-tree contention sections (same generator, same seeds).
fn contention_workload(
    jobs: usize,
    min_ranks: usize,
    max_ranks: usize,
    mean_gap_s: f64,
    seed: u64,
) -> Vec<JobSpec> {
    let mut s = seed | 1;
    let mut next = move |m: u64| {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s % m
    };
    let mut t = 0.0;
    (0..jobs)
        .map(|i| {
            let ranks = min_ranks + next((max_ranks - min_ranks + 1) as u64) as usize;
            let steps = 150 + next(150) as u32;
            let msg_kib = 32u32 << (next(3) as u32);
            let spec = JobSpec {
                id: i,
                submit_s: t,
                ranks,
                work: WorkModel::Synthetic {
                    flops_per_step: 1e6,
                    msg_kib,
                    rounds: 8,
                    steps,
                },
            };
            t += mean_gap_s * (0.5 + next(100) as f64 / 100.0);
            spec
        })
        .collect()
}

/// FCFS with contention-aware placement and ECMP route spreading.
fn contended_run(nodes: usize, topo: Topology, wl: &[JobSpec], lean: bool) -> SimReport {
    let spec = metablade_spec().with_nodes(nodes).with_topology(topo);
    let cluster = Cluster::new(spec).with_exec(ExecPolicy::Parallel { workers: 1 });
    let service = ServiceModel::new(&cluster);
    let cfg = SchedConfig {
        placement: Placement::ContentionAware,
        route_spread: true,
        lean,
        ..SchedConfig::default()
    };
    simulate(&service, &Fcfs, wl, &cfg)
}

/// `sched.uplink_rate_Bps` series in registration order: label and
/// sample count.
fn uplink_series(rep: &SimReport) -> Vec<(String, usize)> {
    rep.registry
        .iter()
        .filter(|(name, _, _)| *name == "sched.uplink_rate_Bps")
        .map(|(_, label, v)| match v {
            MetricValue::Series(s) => (label.to_string(), s.len()),
            other => panic!("{label}: not a series: {other:?}"),
        })
        .collect()
}

fn bits(map: &std::collections::BTreeMap<String, f64>) -> Vec<(String, u64)> {
    map.iter().map(|(l, v)| (l.clone(), v.to_bits())).collect()
}

/// One FNV digest over every `(name, value bits)` entry of the link
/// accounting, the contention maximum and the series layout.
fn digest(rep: &SimReport) -> u64 {
    let mut h = Fnv::new();
    for map in [&rep.link_bytes, &rep.link_shared_s] {
        h.write_usize(map.len());
        for (l, v) in map {
            h.write_str(l);
            h.write_f64(*v);
        }
    }
    h.write_f64(rep.max_contention_factor);
    for (l, n) in uplink_series(rep) {
        h.write_str(&l);
        h.write_usize(n);
    }
    h.finish()
}

/// `link_bytes` of the ft16 scenario: every entry, as `f64` bits.
const LINK_BYTES: [(&str, u64); 40] = [
    ("down:l1.s0", 0x41cbfe0000000000),
    ("down:l1.s1", 0x41d28f0000000000),
    ("down:l1.s2", 0x41c6f80000000000),
    ("down:l1.s3", 0x41d06c0000000000),
    ("host-down:0", 0x41cbfe0000000000),
    ("host-down:1", 0x41cbfe0000000000),
    ("host-down:10", 0x41c4b80000000000),
    ("host-down:11", 0x41c4b80000000000),
    ("host-down:12", 0x41c8000000000000),
    ("host-down:13", 0x41c3660000000000),
    ("host-down:14", 0x41c1300000000000),
    ("host-down:15", 0x41c1300000000000),
    ("host-down:2", 0x41cbfe0000000000),
    ("host-down:3", 0x41cbfe0000000000),
    ("host-down:4", 0x41cbd60000000000),
    ("host-down:5", 0x41d08f0000000000),
    ("host-down:6", 0x41c5320000000000),
    ("host-down:7", 0x41c5820000000001),
    ("host-down:8", 0x41c6f80000000000),
    ("host-down:9", 0x41c6f80000000000),
    ("host-up:0", 0x41cbfe0000000000),
    ("host-up:1", 0x41cbfe0000000000),
    ("host-up:10", 0x41c4b80000000000),
    ("host-up:11", 0x41c4b80000000000),
    ("host-up:12", 0x41c8000000000000),
    ("host-up:13", 0x41c3660000000000),
    ("host-up:14", 0x41c1300000000000),
    ("host-up:15", 0x41c1300000000000),
    ("host-up:2", 0x41cbfe0000000000),
    ("host-up:3", 0x41cbfe0000000000),
    ("host-up:4", 0x41cbd60000000000),
    ("host-up:5", 0x41d08f0000000000),
    ("host-up:6", 0x41c5320000000000),
    ("host-up:7", 0x41c5820000000001),
    ("host-up:8", 0x41c6f80000000000),
    ("host-up:9", 0x41c6f80000000000),
    ("up:l1.s0", 0x41cbfe0000000000),
    ("up:l1.s1", 0x41d28f0000000000),
    ("up:l1.s2", 0x41c6f80000000000),
    ("up:l1.s3", 0x41d06c0000000000),
];

/// `link_shared_s` of the ft16 scenario, as `f64` bits.
const LINK_SHARED_S: [(&str, u64); 4] = [
    ("down:l1.s1", 0x407377e86c31e509),
    ("down:l1.s3", 0x40667cf0cbb3e535),
    ("up:l1.s1", 0x407377e86c31e509),
    ("up:l1.s3", 0x40667cf0cbb3e535),
];

/// `sched.uplink_rate_Bps` of the ft16 scenario: registration order and
/// sample count per series.
const UPLINK_SERIES: [(&str, usize); 8] = [
    ("down:l1.s0", 26),
    ("down:l1.s1", 25),
    ("up:l1.s0", 26),
    ("up:l1.s1", 25),
    ("down:l1.s2", 24),
    ("down:l1.s3", 26),
    ("up:l1.s2", 24),
    ("up:l1.s3", 26),
];

#[test]
fn ft16_smoke_link_accounting_is_pinned_bit_for_bit() {
    // `sched_sim --smoke`'s fat-tree contention scenario: 16 nodes on a
    // 4-ary two-tier tree with 4x oversubscribed uplinks.
    let wl = contention_workload(14, 3, 8, 10.0, 11);
    let rep = contended_run(16, Topology::fat_tree(4, 2, 4.0), &wl, false);
    assert_eq!(rep.fingerprint_hex(), "ea34b5c0b9e0918e");
    let pinned = |t: &[(&str, u64)]| -> Vec<(String, u64)> {
        t.iter().map(|&(l, b)| (l.to_string(), b)).collect()
    };
    assert_eq!(bits(&rep.link_bytes), pinned(&LINK_BYTES));
    assert_eq!(bits(&rep.link_shared_s), pinned(&LINK_SHARED_S));
    assert_eq!(rep.max_contention_factor.to_bits(), 0x400166924062b4ac);
    let series: Vec<(String, usize)> = UPLINK_SERIES
        .iter()
        .map(|&(l, n)| (l.to_string(), n))
        .collect();
    assert_eq!(uplink_series(&rep), series);
}

#[test]
fn sixteen_way_ecmp_link_accounting_is_pinned() {
    // A non-oversubscribed 16-ary tree spreads flows over 16 uplink
    // ways, so link names carry two-digit way suffixes whose name order
    // (`.w10` < `.w2`) differs from numeric order — the case an
    // id-ordered sum would get wrong. Edge-group loads summed in the
    // wrong order would also move the placement, hence the fingerprint.
    let wl = contention_workload(24, 6, 40, 12.0, 2002);
    let rep = contended_run(64, Topology::fat_tree(16, 2, 1.0), &wl, false);
    assert_eq!(rep.fingerprint_hex(), "39e5ca6d4327e245");
    assert_eq!(
        (
            rep.link_bytes.len(),
            rep.link_shared_s.len(),
            uplink_series(&rep).len()
        ),
        (196, 1, 68)
    );
    assert!(rep.link_bytes.keys().any(|l| l.ends_with(".w10")));
    assert_eq!(rep.max_contention_factor.to_bits(), 0x3ff39ce0511f561d);
    assert_eq!(digest(&rep), 0x643afba78966e1bd);
}

#[test]
fn lean_runs_skip_the_uplink_series_and_nothing_else() {
    let wl = contention_workload(14, 3, 8, 10.0, 11);
    let topo = Topology::fat_tree(4, 2, 4.0);
    let full = contended_run(16, topo, &wl, false);
    let lean = contended_run(16, topo, &wl, true);
    assert!(full.max_contention_factor > 1.0, "the stream must contend");
    assert_eq!(lean.fingerprint, full.fingerprint);
    assert_eq!(bits(&lean.link_bytes), bits(&full.link_bytes));
    assert_eq!(bits(&lean.link_shared_s), bits(&full.link_shared_s));
    assert_eq!(
        lean.max_contention_factor.to_bits(),
        full.max_contention_factor.to_bits()
    );
    assert!(!uplink_series(&full).is_empty());
    assert!(uplink_series(&lean).is_empty(), "lean sampled uplink rates");
}
