//! The cluster runtime: run an SPMD closure over all ranks of a
//! [`ClusterSpec`] and gather results, virtual clocks and statistics.
//!
//! [`Cluster::run_traced`] is the observability entry point: it attaches
//! a buffering trace sink to every rank's communicator, so the same job
//! closure additionally yields a [`RunTrace`] ready for Chrome export
//! (`mb_telemetry::chrome::export`) — one track per rank.
//!
//! How ranks map onto host threads is an [`ExecPolicy`]
//! ([`Cluster::with_exec`], default `MB_PARALLEL`): a bounded worker
//! pool (width 1 runs one rank at a time) or one slot per rank. Every
//! policy produces the same [`SpmdOutcome`] bit for bit — see
//! [`crate::exec`].

use std::sync::Arc;

use mb_telemetry::summary::{RankTime, RunSummary};
use mb_telemetry::trace::{MemorySink, RunTrace};
use std::sync::mpsc::channel;

use crate::comm::{Comm, CommStats, Msg};
use crate::event::{EventCore, ExecutorReport, PairBound};
use crate::exec::ExecPolicy;
use crate::network::NetworkModel;
use crate::spec::ClusterSpec;
use crate::topology::Topology;

/// Topology-aware per-pair lookahead bounds for the event core: the
/// zero-byte delivery delay between two ranks' *nodes*. On the star this
/// equals the global minimum for every pair, so it is only attached for
/// hierarchical topologies.
struct TopoBounds {
    net: NetworkModel,
    nodes: Arc<Vec<usize>>,
}

impl PairBound for TopoBounds {
    fn bound_s(&self, from: usize, to: usize) -> f64 {
        self.net.min_delay_between(self.nodes[from], self.nodes[to])
    }
}

/// Result of one SPMD run.
#[derive(Debug, Clone)]
pub struct SpmdOutcome<R> {
    /// Per-rank return values, indexed by rank.
    pub results: Vec<R>,
    /// Per-rank final virtual clocks, seconds.
    pub clocks: Vec<f64>,
    /// Per-rank communication/computation statistics.
    pub stats: Vec<CommStats>,
    /// Executor-core counters for the run. Wall-clock-side observability
    /// only: never part of outcome fingerprints, which cover `results`,
    /// `clocks` and `stats` — the simulated quantities.
    pub exec_report: ExecutorReport,
}

impl<R> SpmdOutcome<R> {
    /// Wall-clock of the parallel job: the slowest rank.
    pub fn makespan_s(&self) -> f64 {
        self.clocks.iter().copied().fold(0.0, f64::max)
    }

    /// Parallel efficiency versus a given serial time.
    pub fn efficiency(&self, serial_s: f64) -> f64 {
        let p = self.clocks.len() as f64;
        serial_s / (p * self.makespan_s())
    }

    /// Aggregate virtual compute seconds across ranks.
    pub fn total_compute_s(&self) -> f64 {
        self.stats.iter().map(|s| s.compute_s).sum()
    }

    /// Aggregate bytes sent across ranks.
    pub fn total_bytes(&self) -> u64 {
        self.stats.iter().map(|s| s.bytes_sent).sum()
    }

    /// Per-rank compute / comm / blocked time split, derived from the
    /// running statistics (available whether or not tracing was on).
    pub fn summary(&self) -> RunSummary {
        RunSummary::new(
            self.stats
                .iter()
                .zip(&self.clocks)
                .map(|(s, &clock)| RankTime {
                    compute_s: s.compute_s,
                    comm_s: s.send_busy_s + s.recv_busy_s,
                    blocked_s: s.wait_s,
                    total_s: clock,
                })
                .collect(),
        )
    }

    /// Load imbalance in `[0, 1)`: `1 − mean(busy) / max(busy)` over
    /// ranks.
    pub fn load_imbalance(&self) -> f64 {
        self.summary().load_imbalance()
    }

    /// The `nranks × nranks` traffic matrix: entry `[src][dst]` is the
    /// payload bytes rank `src` sent to rank `dst`.
    pub fn traffic_matrix(&self) -> Vec<Vec<u64>> {
        self.stats
            .iter()
            .map(|s| s.peers.iter().map(|p| p.bytes_to).collect())
            .collect()
    }
}

/// A simulated cluster ready to run SPMD jobs.
#[derive(Debug, Clone)]
pub struct Cluster {
    spec: ClusterSpec,
    exec: ExecPolicy,
    prof: bool,
    event_log: Option<Arc<mb_telemetry::eventlog::EventLog>>,
}

impl Cluster {
    /// Build a cluster from a spec. The executor policy comes from the
    /// `MB_PARALLEL` environment variable (see [`ExecPolicy::from_env`]);
    /// host-time profiling of the executor from `MB_PROF`
    /// (see [`mb_telemetry::prof::enabled_from_env`]).
    pub fn new(spec: ClusterSpec) -> Self {
        Self {
            spec,
            exec: ExecPolicy::from_env(),
            prof: mb_telemetry::prof::enabled_from_env(),
            event_log: None,
        }
    }

    /// Use an explicit executor policy instead of the environment's.
    pub fn with_exec(mut self, exec: ExecPolicy) -> Self {
        self.exec = exec;
        self
    }

    /// Enable (or disable) host-time profiling of the executor core
    /// explicitly, instead of the `MB_PROF` environment default. The
    /// profile comes back on [`SpmdOutcome::exec_report`]'s `prof` field;
    /// simulated outcomes are bit-identical either way (see
    /// `tests/determinism.rs`).
    pub fn with_prof(mut self, on: bool) -> Self {
        self.prof = on;
        self
    }

    /// Attach a structured host-event log (JSONL sink); the executor
    /// core emits rare scheduling events (horizon stalls) into it when
    /// profiling is on.
    pub fn with_event_log(mut self, log: Arc<mb_telemetry::eventlog::EventLog>) -> Self {
        self.event_log = Some(log);
        self
    }

    /// The executor policy in force.
    pub fn exec(&self) -> ExecPolicy {
        self.exec
    }

    /// True when executor host-time profiling is enabled.
    pub fn prof(&self) -> bool {
        self.prof
    }

    /// The spec.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// Run `f` as one SPMD process per node. Each invocation gets a
    /// [`Comm`] wired to every peer; the closure's return values, final
    /// virtual clocks and stats come back indexed by rank.
    ///
    /// Ranks run on real OS threads; virtual time stays deterministic
    /// because every receive names its source (see [`crate::comm`]).
    ///
    /// ```
    /// use mb_cluster::machine::Cluster;
    /// use mb_cluster::spec::metablade;
    /// let cluster = Cluster::new(metablade().with_nodes(4));
    /// let out = cluster.run(|comm| {
    ///     let sum = comm.allreduce_sum(&[comm.rank() as f64]);
    ///     sum[0]
    /// });
    /// assert_eq!(out.results, vec![6.0; 4]); // 0+1+2+3 on every rank
    /// assert!(out.makespan_s() > 0.0);
    /// ```
    pub fn run<R, F>(&self, f: F) -> SpmdOutcome<R>
    where
        R: Send,
        F: Fn(&mut Comm) -> R + Sync,
    {
        self.run_inner(None, f, false).0
    }

    /// Like [`Cluster::run`], but rank `r` executes on physical node
    /// `node_ids[r]` — the entry point [`Cluster::run_on`] uses so a
    /// partitioned job's network costs reflect *where* its nodes sit in
    /// the topology (a job spanning fat-tree switch boundaries pays
    /// uplink contention; a compact one does not). On the star this is
    /// indistinguishable from `run`, because star costs are
    /// placement-independent.
    pub(crate) fn run_mapped<R, F>(&self, node_ids: &[usize], f: F) -> SpmdOutcome<R>
    where
        R: Send,
        F: Fn(&mut Comm) -> R + Sync,
    {
        self.run_inner(Some(node_ids), f, false).0
    }

    /// Like [`Cluster::run`], but with span tracing on: every rank gets a
    /// buffering [`MemorySink`], and the harvested spans come back as a
    /// [`RunTrace`] (index = rank) alongside the normal outcome. Virtual
    /// clocks are identical to an untraced run — tracing observes the
    /// simulation without perturbing it.
    pub fn run_traced<R, F>(&self, f: F) -> (SpmdOutcome<R>, RunTrace)
    where
        R: Send,
        F: Fn(&mut Comm) -> R + Sync,
    {
        self.run_inner(None, f, true)
    }

    fn run_inner<R, F>(
        &self,
        node_ids: Option<&[usize]>,
        f: F,
        traced: bool,
    ) -> (SpmdOutcome<R>, RunTrace)
    where
        R: Send,
        F: Fn(&mut Comm) -> R + Sync,
    {
        let n = self.spec.nodes;
        assert!(n > 0, "cluster has no nodes");
        let net = NetworkModel::new(self.spec.network);
        let topology = net.topology();
        let nodes: Arc<Vec<usize>> = Arc::new(match node_ids {
            Some(ids) => {
                assert_eq!(ids.len(), n, "one node id per rank");
                ids.to_vec()
            }
            None => (0..n).collect(),
        });
        if let Some(cap) = topology.capacity() {
            let max = nodes.iter().copied().max().unwrap_or(0);
            assert!(
                max < cap,
                "node {max} does not exist on a {} of capacity {cap}",
                topology.label()
            );
        }
        let mflops = self.spec.node.cpu.sustained_mflops;

        // One engine for every policy: the event-driven core, with
        // `Unbounded` as the workers == nranks special case. The
        // network's global minimum delivery delay is the scalar horizon,
        // upgraded to topology-aware per-pair bounds whenever the
        // topology actually differentiates pairs (on the star every pair
        // bound equals the global minimum, so attaching them would only
        // add a virtual call per dispatch).
        let workers = self.exec.workers().unwrap_or(n);
        let mut core =
            EventCore::new(workers, n, net.min_delivery_delay()).with_profiling(self.prof);
        if topology != Topology::Star {
            core = core.with_pair_bounds(Arc::new(TopoBounds {
                net,
                nodes: Arc::clone(&nodes),
            }));
        }
        if let Some(log) = &self.event_log {
            core = core.with_event_log(Arc::clone(log));
        }
        let core = Arc::new(core);

        // One inbox per rank; every rank holds a sender clone to each inbox.
        let mut txs = Vec::with_capacity(n);
        let mut rxs = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = channel::<Msg>();
            txs.push(tx);
            rxs.push(rx);
        }
        let mut comms: Vec<Comm> = rxs
            .into_iter()
            .enumerate()
            .map(|(rank, rx)| {
                Comm::new(
                    rank,
                    mflops,
                    net,
                    Arc::clone(&nodes),
                    txs.clone(),
                    rx,
                    Arc::clone(&core),
                )
            })
            .collect();
        // Drop the original senders so channels close when ranks finish.
        drop(txs);

        let f = &f;
        type RankOut<R> = (R, f64, CommStats, Vec<mb_telemetry::trace::SpanEvent>);
        let mut results: Vec<Option<RankOut<R>>> = (0..n).map(|_| None).collect();
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(n);
            for (rank, mut comm) in comms.drain(..).enumerate() {
                let core = Arc::clone(&core);
                handles.push((
                    rank,
                    scope.spawn(move || {
                        if traced {
                            comm.attach_sink(Box::new(MemorySink::new()));
                        }
                        core.acquire(rank, 0.0);
                        let r = f(&mut comm);
                        core.release(rank);
                        let spans = comm
                            .detach_sink()
                            .map(|mut s| s.drain())
                            .unwrap_or_default();
                        (r, comm.now(), comm.stats, spans)
                    }),
                ));
            }
            for (rank, h) in handles {
                let out = h.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
                results[rank] = Some(out);
            }
        });
        let mut vals = Vec::with_capacity(n);
        let mut clocks = Vec::with_capacity(n);
        let mut stats = Vec::with_capacity(n);
        let mut ranks = Vec::with_capacity(n);
        for r in results {
            let (v, c, s, spans) = r.expect("every rank completes");
            vals.push(v);
            clocks.push(c);
            stats.push(s);
            ranks.push(spans);
        }
        (
            SpmdOutcome {
                results: vals,
                clocks,
                stats,
                exec_report: core.report(),
            },
            RunTrace { ranks },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::pack_f64s;
    use crate::spec::metablade;
    use bytes::Bytes;

    fn small_cluster(n: usize) -> Cluster {
        Cluster::new(metablade().with_nodes(n))
    }

    #[test]
    fn ping_pong_times_are_symmetric_and_positive() {
        let c = small_cluster(2);
        let out = c.run(|comm| {
            if comm.rank() == 0 {
                comm.send(1, 7, Bytes::from_static(b"hello"));
                let r = comm.recv(1, 8);
                assert_eq!(&r[..], b"world");
            } else {
                let r = comm.recv(0, 7);
                assert_eq!(&r[..], b"hello");
                comm.send(0, 8, Bytes::from_static(b"world"));
            }
            comm.now()
        });
        // One round trip ≥ 2 × (latency + overheads).
        assert!(out.makespan_s() > 2.0 * 70e-6, "{}", out.makespan_s());
        assert!(out.makespan_s() < 1e-3);
        assert_eq!(out.stats[0].sends, 1);
        assert_eq!(out.stats[0].recvs, 1);
    }

    #[test]
    fn virtual_time_is_deterministic_across_runs() {
        let c = small_cluster(8);
        let job = |comm: &mut crate::comm::Comm| {
            let vals = vec![comm.rank() as f64; 16];
            let sum = comm.allreduce_sum(&vals);
            comm.compute(1e6);
            comm.barrier();
            (sum[0], comm.now())
        };
        let a = c.run(job);
        let b = c.run(job);
        for r in 0..8 {
            assert_eq!(a.results[r].0, 28.0);
            assert_eq!(
                a.results[r].1, b.results[r].1,
                "rank {r} clock must be reproducible"
            );
        }
    }

    #[test]
    fn bcast_delivers_to_all_from_any_root() {
        for root in [0, 3, 6] {
            let c = small_cluster(7);
            let out = c.run(|comm| {
                let payload = (comm.rank() == root).then(|| pack_f64s(&[42.0, root as f64]));
                let got = comm.bcast(root, payload);
                crate::comm::unpack_f64s(&got)
            });
            for r in out.results {
                assert_eq!(r, vec![42.0, root as f64]);
            }
        }
    }

    #[test]
    fn reduce_sum_collects_at_root_only() {
        let c = small_cluster(6);
        let out = c.run(|comm| comm.reduce_sum(2, &[1.0, comm.rank() as f64]));
        for (rank, r) in out.results.iter().enumerate() {
            if rank == 2 {
                assert_eq!(r.as_ref().unwrap(), &vec![6.0, 15.0]);
            } else {
                assert!(r.is_none());
            }
        }
    }

    #[test]
    fn allgather_orders_by_rank() {
        let c = small_cluster(5);
        let out = c.run(|comm| {
            let mine = pack_f64s(&[comm.rank() as f64 * 10.0]);
            comm.allgather(mine)
                .iter()
                .map(|b| crate::comm::unpack_f64s(b)[0])
                .collect::<Vec<_>>()
        });
        for r in out.results {
            assert_eq!(r, vec![0.0, 10.0, 20.0, 30.0, 40.0]);
        }
    }

    #[test]
    fn alltoallv_routes_personalized_payloads() {
        let n = 4;
        let c = small_cluster(n);
        let out = c.run(|comm| {
            let outgoing: Vec<Bytes> = (0..n)
                .map(|d| pack_f64s(&[(comm.rank() * 100 + d) as f64]))
                .collect();
            comm.alltoallv(outgoing)
                .iter()
                .map(|b| crate::comm::unpack_f64s(b)[0])
                .collect::<Vec<_>>()
        });
        for (rank, incoming) in out.results.iter().enumerate() {
            for (src, &v) in incoming.iter().enumerate() {
                assert_eq!(v, (src * 100 + rank) as f64, "src {src} → dst {rank}");
            }
        }
    }

    #[test]
    fn gather_collects_in_rank_order() {
        let c = small_cluster(5);
        let out = c.run(|comm| {
            comm.gather(0, pack_f64s(&[comm.rank() as f64])).map(|v| {
                v.iter()
                    .map(|b| crate::comm::unpack_f64s(b)[0])
                    .collect::<Vec<_>>()
            })
        });
        assert_eq!(
            out.results[0].as_ref().unwrap(),
            &vec![0.0, 1.0, 2.0, 3.0, 4.0]
        );
        assert!(out.results[1].is_none());
    }

    #[test]
    fn compute_charges_at_sustained_rate() {
        let c = small_cluster(1);
        let out = c.run(|comm| {
            comm.compute(87.5e6); // exactly one second at 87.5 Mflops
            comm.now()
        });
        assert!((out.results[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn out_of_order_tags_are_buffered() {
        let c = small_cluster(2);
        let out = c.run(|comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, Bytes::from_static(b"first"));
                comm.send(1, 2, Bytes::from_static(b"second"));
                0
            } else {
                // Receive in reverse tag order.
                let b = comm.recv(0, 2);
                let a = comm.recv(0, 1);
                assert_eq!(&b[..], b"second");
                assert_eq!(&a[..], b"first");
                1
            }
        });
        assert_eq!(out.results, vec![0, 1]);
    }

    #[test]
    fn barrier_aligns_no_one_before_the_slowest() {
        let c = small_cluster(4);
        let out = c.run(|comm| {
            if comm.rank() == 3 {
                comm.compute(87.5e6); // 1 virtual second of work
            }
            comm.barrier();
            comm.now()
        });
        for (rank, t) in out.results.iter().enumerate() {
            assert!(*t >= 1.0, "rank {rank} left the barrier at {t}");
        }
    }

    #[test]
    fn outcome_is_bit_identical_under_every_exec_policy() {
        use crate::exec::ExecPolicy;
        // A job exercising point-to-point traffic, collectives and
        // skewed compute, so clocks, stats and results all depend on the
        // full message schedule.
        let job = |comm: &mut crate::comm::Comm| {
            let rank = comm.rank();
            let n = comm.nranks();
            comm.compute(1e6 * (1 + rank % 3) as f64);
            if n > 1 {
                let next = (rank + 1) % n;
                let prev = (rank + n - 1) % n;
                comm.send_f64s(next, 11, &[rank as f64]);
                let got = comm.recv_f64s(prev, 11);
                assert_eq!(got, vec![prev as f64]);
            }
            let sum = comm.allreduce_sum(&[comm.now(), rank as f64]);
            comm.barrier();
            (sum, comm.now())
        };
        for n in [1usize, 4, 8, 24] {
            let reference = small_cluster(n).with_exec(ExecPolicy::Unbounded).run(job);
            for policy in [
                ExecPolicy::Parallel { workers: 1 },
                ExecPolicy::Parallel { workers: 2 },
                ExecPolicy::Parallel { workers: 8 },
            ] {
                let out = small_cluster(n).with_exec(policy).run(job);
                assert_eq!(out.results, reference.results, "{policy:?} at {n} ranks");
                assert_eq!(out.clocks, reference.clocks, "{policy:?} at {n} ranks");
                assert_eq!(out.stats, reference.stats, "{policy:?} at {n} ranks");
            }
        }
    }

    #[test]
    fn topology_outcomes_are_bit_identical_under_every_exec_policy() {
        use crate::exec::ExecPolicy;
        use crate::topology::Topology;
        let job = |comm: &mut crate::comm::Comm| {
            let rank = comm.rank();
            let n = comm.nranks();
            comm.compute(1e6 * (1 + rank % 3) as f64);
            let next = (rank + 1) % n;
            let prev = (rank + n - 1) % n;
            comm.send_f64s(next, 11, &[rank as f64]);
            let _ = comm.recv_f64s(prev, 11);
            let sum = comm.allreduce_sum(&[comm.now(), rank as f64]);
            comm.barrier();
            (sum, comm.now())
        };
        for topo in [Topology::fat_tree(4, 2, 4.0), Topology::torus([4, 4, 1])] {
            let spec = metablade().with_nodes(16).with_topology(topo);
            let reference = Cluster::new(spec.clone())
                .with_exec(ExecPolicy::Parallel { workers: 1 })
                .run(job);
            for policy in [
                ExecPolicy::Parallel { workers: 2 },
                ExecPolicy::Parallel { workers: 8 },
                ExecPolicy::Unbounded,
            ] {
                let out = Cluster::new(spec.clone()).with_exec(policy).run(job);
                assert_eq!(out.results, reference.results, "{topo:?} {policy:?}");
                assert_eq!(out.clocks, reference.clocks, "{topo:?} {policy:?}");
                assert_eq!(out.stats, reference.stats, "{topo:?} {policy:?}");
            }
        }
    }

    #[test]
    fn fat_tree_collectives_are_slower_than_the_star() {
        use crate::topology::Topology;
        let job = |comm: &mut crate::comm::Comm| {
            for _ in 0..4 {
                let _ = comm.allreduce_sum(&[comm.rank() as f64; 64]);
            }
            comm.now()
        };
        let star = Cluster::new(metablade().with_nodes(64)).run(job);
        let ft = Cluster::new(
            metablade()
                .with_nodes(64)
                .with_topology(Topology::fat_tree(8, 2, 4.0)),
        )
        .run(job);
        assert!(
            ft.makespan_s() > star.makespan_s() * 1.05,
            "oversubscribed fat-tree allreduce ({}) not slower than star ({})",
            ft.makespan_s(),
            star.makespan_s()
        );
    }

    #[test]
    fn placement_changes_fat_tree_costs_but_not_star_costs() {
        use crate::topology::Topology;
        let job = |comm: &mut crate::comm::Comm| {
            comm.send_f64s((comm.rank() + 1) % comm.nranks(), 5, &[1.0; 128]);
            let _ = comm.recv_f64s((comm.rank() + comm.nranks() - 1) % comm.nranks(), 5);
            comm.barrier();
            comm.now()
        };
        let ft_spec = metablade()
            .with_nodes(4)
            .with_topology(Topology::fat_tree(4, 2, 4.0));
        // Same 4-rank job, nodes all under edge switch 0 vs spread over
        // four different edge switches.
        let compact = Cluster::new(ft_spec.clone()).run_mapped(&[0, 1, 2, 3], job);
        let spread = Cluster::new(ft_spec).run_mapped(&[0, 4, 8, 12], job);
        assert!(
            spread.makespan_s() > compact.makespan_s(),
            "spanning switch boundaries must cost uplink time: {} vs {}",
            spread.makespan_s(),
            compact.makespan_s()
        );
        // On the star, identical placements are indistinguishable.
        let star_spec = metablade().with_nodes(4);
        let a = Cluster::new(star_spec.clone()).run_mapped(&[0, 1, 2, 3], job);
        let b = Cluster::new(star_spec).run_mapped(&[7, 3, 11, 19], job);
        assert_eq!(a.clocks, b.clocks);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn nodes_beyond_topology_capacity_are_rejected() {
        use crate::topology::Topology;
        // 17 nodes cannot be wired onto a 4×2 fat-tree (capacity 16).
        let spec = metablade()
            .with_nodes(17)
            .with_topology(Topology::fat_tree(4, 2, 4.0));
        let _ = Cluster::new(spec).run(|comm| comm.rank());
    }

    #[test]
    fn bounded_executor_supports_tracing_identically() {
        use crate::exec::ExecPolicy;
        let job = |comm: &mut crate::comm::Comm| {
            let s = comm.allreduce_sum(&[comm.rank() as f64]);
            comm.compute(2e6);
            comm.barrier();
            s[0]
        };
        let plain = small_cluster(8)
            .with_exec(ExecPolicy::Parallel { workers: 1 })
            .run(job);
        let (traced, trace) = small_cluster(8)
            .with_exec(ExecPolicy::Parallel { workers: 3 })
            .run_traced(job);
        assert_eq!(plain.clocks, traced.clocks);
        assert_eq!(plain.results, traced.results);
        assert_eq!(trace.ranks.len(), 8);
    }

    #[test]
    fn profiled_run_matches_unprofiled_and_carries_host_profile() {
        use crate::exec::ExecPolicy;
        let job = |comm: &mut crate::comm::Comm| {
            let s = comm.allreduce_sum(&[comm.rank() as f64]);
            comm.compute(1e6);
            comm.barrier();
            s[0]
        };
        let mk = || small_cluster(8).with_exec(ExecPolicy::Parallel { workers: 3 });
        let plain = mk().with_prof(false).run(job);
        let log = Arc::new(mb_telemetry::eventlog::EventLog::new());
        let profiled = mk()
            .with_prof(true)
            .with_event_log(Arc::clone(&log))
            .run(job);
        // Simulated quantities are bit-identical: profiling reads only
        // the host clock.
        assert_eq!(plain.results, profiled.results);
        assert_eq!(plain.clocks, profiled.clocks);
        assert_eq!(plain.stats, profiled.stats);
        assert!(plain.exec_report.prof.is_none());
        let p = profiled.exec_report.prof.as_ref().expect("profile present");
        assert_eq!(p.busy_ns.count(), profiled.exec_report.admissions);
        assert!(p.idle_ns.p50() <= p.idle_ns.p99());
    }

    #[test]
    fn efficiency_of_embarrassingly_parallel_work_is_high() {
        let serial_flops = 87.5e6 * 8.0;
        let c = small_cluster(8);
        let out = c.run(|comm| {
            comm.compute(serial_flops / 8.0);
            comm.barrier();
        });
        let serial_s = serial_flops / 87.5e6;
        let eff = out.efficiency(serial_s);
        assert!(eff > 0.95, "efficiency {eff}");
    }
}

#[cfg(test)]
mod collective_tests {
    use super::*;
    use crate::comm::pack_f64s;
    use crate::spec::metablade;
    use bytes::Bytes;

    #[test]
    fn scatter_routes_each_slice() {
        let c = Cluster::new(metablade().with_nodes(5));
        let out = c.run(|comm| {
            let payloads = (comm.rank() == 2).then(|| {
                (0..5)
                    .map(|r| pack_f64s(&[r as f64 * 3.0]))
                    .collect::<Vec<Bytes>>()
            });
            crate::comm::unpack_f64s(&comm.scatter(2, payloads))[0]
        });
        assert_eq!(out.results, vec![0.0, 3.0, 6.0, 9.0, 12.0]);
    }

    #[test]
    fn reduce_scatter_sums_chunks() {
        let n = 4;
        let chunk = 3;
        let c = Cluster::new(metablade().with_nodes(n));
        let out = c.run(move |comm| {
            // Rank r contributes value (r+1) everywhere.
            let vals = vec![(comm.rank() + 1) as f64; n * chunk];
            comm.reduce_scatter_sum(&vals, chunk)
        });
        // Sum over ranks of (r+1) = 10, for every chunk element.
        for r in 0..n {
            assert_eq!(out.results[r], vec![10.0; chunk]);
        }
    }

    #[test]
    fn scan_is_inclusive_prefix_sum() {
        let c = Cluster::new(metablade().with_nodes(6));
        let out = c.run(|comm| comm.scan_sum(&[1.0, (comm.rank() + 1) as f64]));
        for (r, v) in out.results.iter().enumerate() {
            assert_eq!(v[0], (r + 1) as f64, "rank {r} count");
            let tri = ((r + 1) * (r + 2) / 2) as f64;
            assert_eq!(v[1], tri, "rank {r} triangular");
        }
    }
}

#[cfg(test)]
mod telemetry_tests {
    use super::*;
    use crate::spec::metablade;
    use bytes::Bytes;
    use mb_telemetry::chrome;
    use mb_telemetry::json::{parse, Json};
    use mb_telemetry::trace::SpanKind;

    fn ping_pong(comm: &mut Comm) -> f64 {
        comm.begin_phase("ping-pong");
        if comm.rank() == 0 {
            comm.compute(87.5e4); // 10 ms of "work" before the exchange
            comm.send(1, 7, Bytes::from_static(b"ping"));
            let r = comm.recv(1, 8);
            assert_eq!(&r[..], b"pong");
        } else {
            let r = comm.recv(0, 7);
            assert_eq!(&r[..], b"ping");
            comm.send(0, 8, Bytes::from_static(b"pong"));
        }
        comm.end_phase();
        comm.now()
    }

    #[test]
    fn traced_run_matches_untraced_clocks_exactly() {
        let c = Cluster::new(metablade().with_nodes(4));
        let job = |comm: &mut Comm| {
            let s = comm.allreduce_sum(&[comm.rank() as f64]);
            comm.compute(1e6);
            comm.barrier();
            s[0]
        };
        let plain = c.run(job);
        let (traced, trace) = c.run_traced(job);
        assert_eq!(plain.clocks, traced.clocks);
        assert_eq!(plain.results, traced.results);
        assert!(!trace.is_empty());
        assert_eq!(trace.ranks.len(), 4);
    }

    #[test]
    fn trace_spans_account_for_the_stats() {
        let c = Cluster::new(metablade().with_nodes(2));
        let (out, trace) = c.run_traced(ping_pong);
        for rank in 0..2 {
            let s = &out.stats[rank];
            let eps = 1e-12;
            assert!(
                (trace.kind_time(rank, SpanKind::Compute) - s.compute_s).abs() < eps,
                "rank {rank} compute spans vs stats"
            );
            assert!(
                (trace.kind_time(rank, SpanKind::Send) - s.send_busy_s).abs() < eps,
                "rank {rank} send spans vs stats"
            );
            // Recv spans cover wait + busy.
            assert!(
                (trace.kind_time(rank, SpanKind::Recv) - (s.wait_s + s.recv_busy_s)).abs() < eps,
                "rank {rank} recv spans vs stats"
            );
            // The phase span covers the whole rank timeline.
            assert!(
                (trace.kind_time(rank, SpanKind::Phase) - out.clocks[rank]).abs() < eps,
                "rank {rank} phase span vs clock"
            );
        }
    }

    /// The golden Chrome-exporter test: a 2-rank ping-pong must produce a
    /// trace_event document that parses back, validates (monotonic
    /// timestamps, proper nesting), has one track per rank, and pairs
    /// every send with a recv of the same byte count on the peer track.
    #[test]
    fn ping_pong_chrome_trace_is_valid_and_paired() {
        let c = Cluster::new(metablade().with_nodes(2));
        let (out, trace) = c.run_traced(ping_pong);
        let text = chrome::export(&trace);

        let summary = chrome::validate(&text).expect("exporter output validates");
        assert_eq!(summary.tracks, vec![0, 1], "one track per rank");
        assert!((summary.end_us - out.makespan_s() * 1e6).abs() < 1e-6);

        let doc = parse(&text).unwrap();
        let events = doc.as_arr().unwrap();
        let named = |track: f64, name: &str| -> Vec<&Json> {
            events
                .iter()
                .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
                .filter(|e| e.get("tid").and_then(Json::as_f64) == Some(track))
                .filter(|e| e.get("name").and_then(Json::as_str) == Some(name))
                .collect()
        };
        // Each rank sent one 4-byte message and received one.
        for (track, peer) in [(0.0, 1.0), (1.0, 0.0)] {
            let sends = named(track, "send");
            let recvs = named(track, "recv");
            assert_eq!(sends.len(), 1, "track {track} sends");
            assert_eq!(recvs.len(), 1, "track {track} recvs");
            for ev in sends.iter().chain(&recvs) {
                let args = ev.get("args").unwrap();
                assert_eq!(args.get("peer").unwrap().as_f64(), Some(peer));
                assert_eq!(args.get("bytes").unwrap().as_f64(), Some(4.0));
            }
        }
        // Metadata names both tracks.
        let meta: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
            .collect();
        assert_eq!(meta.len(), 2);
    }

    #[test]
    fn per_peer_traffic_is_counted_and_symmetric() {
        let n = 4;
        let c = Cluster::new(metablade().with_nodes(n));
        let out = c.run(|comm| {
            // Each rank sends (rank+1) 8-byte messages to its successor.
            let next = (comm.rank() + 1) % comm.nranks();
            let prev = (comm.rank() + comm.nranks() - 1) % comm.nranks();
            for i in 0..comm.rank() + 1 {
                comm.send_f64s(next, 3, &[i as f64]);
            }
            for _ in 0..prev + 1 {
                let _ = comm.recv_f64s(prev, 3);
            }
        });
        for src in 0..n {
            let dst = (src + 1) % n;
            let sent = out.stats[src].peer(dst);
            let got = out.stats[dst].peer(src);
            assert_eq!(sent.msgs_to, (src + 1) as u64, "rank {src} msgs to {dst}");
            assert_eq!(sent.bytes_to, 8 * (src + 1) as u64);
            assert_eq!(got.msgs_from, sent.msgs_to, "symmetry {src}→{dst}");
            assert_eq!(got.bytes_from, sent.bytes_to);
            // No traffic to anyone else.
            let other = (src + 2) % n;
            if other != dst {
                assert_eq!(out.stats[src].peer(other).msgs_to, 0);
            }
        }
        // The traffic matrix agrees with the per-rank totals.
        let m = out.traffic_matrix();
        for (src, row) in m.iter().enumerate() {
            assert_eq!(
                row.iter().sum::<u64>(),
                out.stats[src].bytes_sent,
                "row {src} sums to bytes_sent"
            );
        }
    }

    #[test]
    fn summary_reports_imbalance_of_skewed_work() {
        let c = Cluster::new(metablade().with_nodes(4));
        let out = c.run(|comm| {
            if comm.rank() == 0 {
                comm.compute(87.5e6); // 1 s on rank 0, nothing elsewhere
            }
            comm.barrier();
        });
        let s = out.summary();
        assert_eq!(s.ranks.len(), 4);
        assert!(s.makespan_s >= 1.0);
        // Rank 0 did ~all the busy work: imbalance approaches 0.75.
        assert!(s.load_imbalance() > 0.5, "imbalance {}", s.load_imbalance());
        assert!(s.critical_path_s() >= 1.0);
        let text = s.render();
        assert!(text.contains("load imbalance"));
    }
}
