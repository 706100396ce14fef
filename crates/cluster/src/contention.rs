//! Cross-job link contention: per-link virtual load accounting that
//! spans communicators, and the deterministic mean-field slowdown the
//! scheduler charges against it.
//!
//! PR 8's [`crate::topology`] layer prices contention *within* one
//! job's communicator (an oversubscribed uplink serializes that job's
//! bytes at `o ×` the edge gap). This module models the interference
//! *between* concurrently running jobs that share fabric links — the
//! effect that dominates multi-tenant fleet throughput and that the
//! paper's single-job TCO comparison ignores.
//!
//! The model is a fluid (mean-field) approximation, chosen because it
//! keeps the determinism contract intact:
//!
//! * each running job is summarized by its **steady-state byte rate per
//!   link** ([`JobTraffic`], derived from one memoized isolated step via
//!   [`job_traffic`]) and the fraction of a rank-second it spends
//!   communicating. Links are ids of the run's [`LinkTable`]
//!   (DESIGN.md §14), so the per-event path never touches a link name;
//! * at every scheduler event the per-link rates of all running jobs
//!   are summed ([`epoch`]); a link used by **two or more** jobs delays
//!   each of them by the serialization time of the *other* jobs' bytes
//!   — `foreign_rate × eff_gap` extra seconds per second, where
//!   `eff_gap` is the oversubscription-adjusted seconds-per-byte of the
//!   link;
//! * a job's slowdown factor is `1 + comm_frac × worst_link_delay`,
//!   exactly `1.0` when no link is shared (links with a single user
//!   charge nothing, so a lone job — and every job on the star, whose
//!   host links are never shared — reproduces the contention-free
//!   timeline bit for bit).
//!
//! Everything here is a pure function of per-job traffic summaries that
//! are themselves bit-identical across `MB_PARALLEL` widths, so the
//! scheduler's fingerprints stay executor-invariant (DESIGN.md §14).

use crate::comm::CommStats;
use crate::topology::{LinkId, LinkTable};

/// One running job's steady-state traffic summary: bytes per virtual
/// second on each contention link (an id of the run's [`LinkTable`],
/// ECMP way included) plus the fraction of a rank-second spent in
/// communication. Derived once per dispatch from the job's memoized
/// isolated step.
#[derive(Debug, Clone, Default)]
pub struct JobTraffic {
    /// Payload bytes per second per link, from one isolated step,
    /// ascending by link id (hence by link name).
    pub rates: Vec<(LinkId, f64)>,
    /// Mean fraction of a rank's time spent sending/receiving/waiting
    /// in that step, clamped to `[0, 1]`.
    pub comm_frac: f64,
}

/// Summarize one isolated step of a job as per-link byte rates.
///
/// `stats` are the per-rank counters of the memoized step simulation,
/// `node_ids[rank]` the physical node each rank runs on, `step_s` the
/// step's virtual makespan, `salt` the job id for ECMP spreading over
/// the table's ways (see [`crate::Topology::contention_links`]).
pub fn job_traffic(
    links: &LinkTable,
    stats: &[CommStats],
    node_ids: &[usize],
    step_s: f64,
    salt: u64,
) -> JobTraffic {
    assert_eq!(stats.len(), node_ids.len(), "one node per rank");
    assert!(step_s > 0.0, "step must take time");
    let topo = links.topology();
    let mut flows: Vec<(LinkId, u64)> = Vec::new();
    for (src, s) in stats.iter().enumerate() {
        for (dst, peer) in s.peers.iter().enumerate() {
            if peer.bytes_to == 0 {
                continue;
            }
            let route = topo.contention_links(links, node_ids[src], node_ids[dst], salt);
            flows.extend(route.map(|l| (l, peer.bytes_to)));
        }
    }
    flows.sort_unstable_by_key(|&(l, _)| l);
    let rates = flows
        .chunk_by(|a, b| a.0 == b.0)
        .map(|run| {
            let bytes: u64 = run.iter().map(|&(_, b)| b).sum();
            (run[0].0, bytes as f64 / step_s)
        })
        .collect();
    let busy: f64 = stats
        .iter()
        .map(|s| s.send_busy_s + s.recv_busy_s + s.wait_s)
        .sum();
    let comm_frac = (busy / (stats.len() as f64 * step_s)).clamp(0.0, 1.0);
    JobTraffic { rates, comm_frac }
}

/// One scheduler epoch's aggregate contention state. A run keeps one
/// and [`epoch`] refills it at every event: the per-link aggregate is a
/// dense vector indexed by [`LinkId`], cleared through the list of
/// links the previous epoch touched, so an epoch costs the running
/// jobs' link count and allocates nothing once warm.
#[derive(Debug, Clone)]
pub struct ContentionEpoch {
    /// Per link: aggregate bytes per second and user count this epoch
    /// (zero for links no running job uses).
    agg: Vec<(f64, u32)>,
    /// Links some running job uses, ascending.
    touched: Vec<LinkId>,
    factors: Vec<f64>,
    shared: Vec<LinkId>,
}

impl ContentionEpoch {
    /// Empty state for the links of `links`.
    pub fn new(links: &LinkTable) -> Self {
        Self {
            agg: vec![(0.0, 0); links.len()],
            touched: Vec::new(),
            factors: Vec::new(),
            shared: Vec::new(),
        }
    }

    /// Per-job mean-field slowdown factor (≥ 1.0), in input order.
    /// Exactly `1.0` for a job none of whose links is shared.
    pub fn factors(&self) -> &[f64] {
        &self.factors
    }

    /// Links carrying two or more jobs this epoch, ascending by id.
    pub fn shared(&self) -> &[LinkId] {
        &self.shared
    }

    /// Aggregate bytes-in-flight per second of every link in use,
    /// ascending by id.
    pub fn agg_rates(&self) -> impl Iterator<Item = (LinkId, f64)> + '_ {
        self.touched.iter().map(|&l| (l, self.agg[l as usize].0))
    }
}

/// Compute the epoch's aggregate link loads and each job's mean-field
/// slowdown factor into `ep`. Pure function of the per-job summaries:
/// each link's rate sums over `jobs` in their given (deterministic)
/// order, so the factors are bit-identical on every host and executor
/// width.
pub fn epoch<'a, I>(links: &LinkTable, jobs: I, ep: &mut ContentionEpoch)
where
    I: Iterator<Item = &'a JobTraffic> + Clone,
{
    for l in ep.touched.drain(..) {
        ep.agg[l as usize] = (0.0, 0);
    }
    for t in jobs.clone() {
        for &(l, r) in &t.rates {
            let e = &mut ep.agg[l as usize];
            if e.1 == 0 {
                ep.touched.push(l);
            }
            e.0 += r;
            e.1 += 1;
        }
    }
    ep.touched.sort_unstable();
    ep.factors.clear();
    ep.factors.extend(jobs.map(|t| {
        let mut worst = 0.0f64;
        for &(l, own) in &t.rates {
            let (total, users) = ep.agg[l as usize];
            if users < 2 {
                continue;
            }
            let delay = (total - own) * links.eff_gap(l);
            if delay > worst {
                worst = delay;
            }
        }
        // A job alone on all its links is untouched: `worst` is the
        // literal 0.0, so the factor is the literal 1.0 and the
        // engine's no-contention arithmetic stays bit-exact.
        if worst == 0.0 {
            1.0
        } else {
            1.0 + t.comm_frac * worst
        }
    }));
    ep.shared.clear();
    ep.shared.extend(
        ep.touched
            .iter()
            .copied()
            .filter(|&l| ep.agg[l as usize].1 >= 2),
    );
}

/// Aggregate byte rate per fat-tree *edge group* uplink (level-1 `up:`
/// links, any ECMP way), indexed by edge-switch id — the signal
/// contention-aware placement scores candidate allocations against.
pub fn edge_uplink_loads<'a>(
    links: &LinkTable,
    jobs: impl IntoIterator<Item = &'a JobTraffic>,
    ngroups: usize,
) -> Vec<f64> {
    let mut loads = vec![0.0; ngroups];
    for t in jobs {
        for &(l, r) in &t.rates {
            if let Some(g) = links.edge_group(l).filter(|&g| g < ngroups) {
                loads[g] += r;
            }
        }
    }
    loads
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::PeerTraffic;
    use crate::topology::Topology;

    fn stats_pair(bytes: u64) -> Vec<CommStats> {
        // Rank 0 sends `bytes` to rank 1 and spends half the step busy.
        let mut s0 = CommStats {
            peers: vec![PeerTraffic::default(); 2],
            send_busy_s: 0.5,
            ..CommStats::default()
        };
        s0.peers[1] = PeerTraffic {
            msgs_to: 1,
            bytes_to: bytes,
            ..PeerTraffic::default()
        };
        let s1 = CommStats {
            peers: vec![PeerTraffic::default(); 2],
            ..CommStats::default()
        };
        vec![s0, s1]
    }

    /// `(name, rate)` pairs of a job's traffic, in id order.
    fn named(links: &LinkTable, t: &JobTraffic) -> Vec<(String, f64)> {
        t.rates
            .iter()
            .map(|&(l, r)| (links.name(l).to_string(), r))
            .collect()
    }

    fn epoch_of(links: &LinkTable, jobs: &[&JobTraffic]) -> ContentionEpoch {
        let mut ep = ContentionEpoch::new(links);
        epoch(links, jobs.iter().copied(), &mut ep);
        ep
    }

    #[test]
    fn job_traffic_folds_bytes_over_contention_links() {
        let ft = Topology::fat_tree(4, 2, 4.0);
        let links = LinkTable::new(&ft, 16, 1, 8e-8);
        // Ranks on nodes 0 and 4: a cross-switch route.
        let t = job_traffic(&links, &stats_pair(1000), &[0, 4], 2.0, 7);
        let by_name = |n: &str| (n.to_string(), 500.0);
        assert_eq!(
            named(&links, &t),
            vec![
                by_name("down:l1.s1"),
                by_name("host-down:4"),
                by_name("host-up:0"),
                by_name("up:l1.s0"),
            ]
        );
        // comm_frac: 0.5 busy seconds over 2 ranks × 2 s.
        assert!((t.comm_frac - 0.125).abs() < 1e-12);
        // Same-switch placement uses no fabric links.
        let local = job_traffic(&links, &stats_pair(1000), &[0, 1], 2.0, 7);
        assert_eq!(local.rates.len(), 2);
        assert!(local.rates.iter().all(|&(l, _)| !links.is_fabric(l)));
    }

    #[test]
    fn lone_jobs_and_disjoint_links_charge_exactly_one() {
        let ft = Topology::fat_tree(4, 2, 4.0);
        let links = LinkTable::new(&ft, 16, 1, 8e-8);
        let a = job_traffic(&links, &stats_pair(1000), &[0, 4], 1.0, 0);
        // Alone: factor is the literal 1.0.
        let ep = epoch_of(&links, &[&a]);
        assert_eq!(ep.factors(), &[1.0]);
        assert!(ep.shared().is_empty());
        // Two jobs on disjoint switch pairs: still exactly 1.0.
        let b = job_traffic(&links, &stats_pair(1000), &[8, 12], 1.0, 1);
        let ep = epoch_of(&links, &[&a, &b]);
        assert_eq!(ep.factors(), &[1.0, 1.0]);
    }

    #[test]
    fn shared_uplinks_slow_both_jobs_by_the_foreign_load() {
        let ft = Topology::fat_tree(4, 2, 4.0);
        let gap = 8e-8; // 100 Mb/s edge links
        let links = LinkTable::new(&ft, 16, 1, gap);
        // Both jobs cross the same s0→s1 uplink.
        let a = job_traffic(&links, &stats_pair(1_000_000), &[0, 4], 1.0, 0);
        let b = job_traffic(&links, &stats_pair(1_000_000), &[1, 5], 1.0, 1);
        let ep = epoch_of(&links, &[&a, &b]);
        let up = links.lookup("up:l1.s0").unwrap();
        let down = links.lookup("down:l1.s1").unwrap();
        assert_eq!(ep.shared(), &[down, up], "{ep:?}");
        // Foreign load 1 MB/s at 4×-oversubscribed gap = 0.32 extra
        // seconds per second, scaled by each job's comm fraction.
        let expect = 1.0 + a.comm_frac * (1_000_000.0 * gap * 4.0);
        assert!(
            (ep.factors()[0] - expect).abs() < 1e-9,
            "{:?}",
            ep.factors()
        );
        assert_eq!(ep.factors()[0], ep.factors()[1]);
        assert!(ep.factors()[0] > 1.0);
        // Aggregate rate on the shared uplink is the sum of both flows.
        let agg: Vec<(LinkId, f64)> = ep.agg_rates().collect();
        assert!(agg.windows(2).all(|w| w[0].0 < w[1].0), "ascending ids");
        let (_, rate) = agg.iter().find(|&&(l, _)| l == up).unwrap();
        assert!((rate - 2_000_000.0).abs() < 1e-6);
    }

    #[test]
    fn a_reused_epoch_matches_a_fresh_one() {
        let ft = Topology::fat_tree(4, 2, 4.0);
        let links = LinkTable::new(&ft, 16, 1, 8e-8);
        let a = job_traffic(&links, &stats_pair(1_000_000), &[0, 4], 1.0, 0);
        let b = job_traffic(&links, &stats_pair(1_000_000), &[1, 5], 1.0, 1);
        let c = job_traffic(&links, &stats_pair(1_000_000), &[8, 12], 1.0, 2);
        let mut ep = ContentionEpoch::new(&links);
        epoch(&links, [&a, &b].into_iter(), &mut ep);
        // A later epoch with a different mix leaves no stale load behind.
        epoch(&links, [&b, &c].into_iter(), &mut ep);
        let fresh = epoch_of(&links, &[&b, &c]);
        assert_eq!(ep.factors(), &[1.0, 1.0]);
        assert_eq!(ep.factors(), fresh.factors());
        assert!(ep.shared().is_empty());
        let rates = |e: &ContentionEpoch| e.agg_rates().collect::<Vec<_>>();
        assert_eq!(rates(&ep), rates(&fresh));
    }

    #[test]
    fn ecmp_spreading_can_separate_colliding_flows() {
        let ft = Topology::fat_tree(16, 2, 4.0);
        let ways = ft.ecmp_ways();
        let spread_links = LinkTable::new(&ft, 32, ways, 8e-8);
        // Many same-pair jobs without spreading all pile onto one
        // uplink; with spreading they hash across ways.
        let jobs: Vec<JobTraffic> = (0..8)
            .map(|salt| job_traffic(&spread_links, &stats_pair(1000), &[0, 16], 1.0, salt))
            .collect();
        let refs: Vec<&JobTraffic> = jobs.iter().collect();
        let ep = epoch_of(&spread_links, &refs);
        let uplinks: std::collections::BTreeSet<&str> = jobs
            .iter()
            .flat_map(|t| t.rates.iter().map(|&(l, _)| spread_links.name(l)))
            .filter(|l| l.starts_with("up:"))
            .collect();
        assert!(uplinks.len() > 1, "{uplinks:?}");
        // Spreading must never slow things down versus one shared pipe.
        let piled_links = LinkTable::new(&ft, 32, 1, 8e-8);
        let unspread: Vec<JobTraffic> = (0..8)
            .map(|salt| job_traffic(&piled_links, &stats_pair(1000), &[0, 16], 1.0, salt))
            .collect();
        let urefs: Vec<&JobTraffic> = unspread.iter().collect();
        let uep = epoch_of(&piled_links, &urefs);
        for (s, u) in ep.factors().iter().zip(uep.factors()) {
            assert!(s <= u, "spread {s} > unspread {u}");
        }
    }

    #[test]
    fn edge_uplink_loads_index_by_group_and_count_every_way() {
        let ft = Topology::fat_tree(4, 2, 1.0);
        let links = LinkTable::new(&ft, 16, 4, 8e-8);
        let id = |n: &str| links.lookup(n).unwrap();
        let mut a = JobTraffic {
            rates: vec![
                (id("up:l1.s0.w0"), 100.0),
                (id("up:l1.s2.w3"), 50.0),
                (id("down:l1.s1.w0"), 70.0), // downlinks not counted
                (id("host-up:5"), 10.0),
            ],
            comm_frac: 0.0,
        };
        a.rates.sort_by_key(|&(l, _)| l);
        let b = JobTraffic {
            rates: vec![(id("up:l1.s0.w1"), 25.0)],
            comm_frac: 0.0,
        };
        let loads = edge_uplink_loads(&links, [&a, &b], 4);
        assert_eq!(loads, vec![125.0, 0.0, 50.0, 0.0]);
    }
}
