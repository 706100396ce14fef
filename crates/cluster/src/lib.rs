//! Beowulf cluster simulator — the machine substrate for *"Honey, I
//! Shrunk the Beowulf!"*.
//!
//! The paper's MetaBlade is "twenty-four compute nodes with each node
//! containing a 633-MHz Transmeta TM5600 CPU …, 256-MB SDRAM, 10-GB hard
//! disk, and 100-Mb/s network interface. We connect each compute node to a
//! 100-Mb/s Fast Ethernet switch, resulting in a cluster with a star
//! topology" (§3.1). That machine no longer exists, so this crate
//! simulates it — and its traditional-Beowulf comparison points — in
//! enough detail to regenerate the paper's scalability, power, thermal and
//! reliability results:
//!
//! * [`spec`] — CPU/node/network/cluster specifications and the catalog of
//!   the paper's machines (MetaBlade, MetaBlade2, Avalon, Loki, …);
//! * [`topology`] — interconnect wiring plans ([`Topology`]): the paper's
//!   star switch, multi-level fat-trees with oversubscribed uplinks, and
//!   3-D tori, each with deterministic per-pair routes and per-link
//!   occupancy accounting;
//! * [`network`] — a LogGP-style Fast-Ethernet model applied per link of
//!   the topology (per-hop latency, per-byte serialization at sender,
//!   switches and receiver, oversubscription on shared uplinks);
//! * [`comm`] — an MPI-like communicator: SPMD ranks on real threads, each
//!   with a **virtual clock**; sends/receives/collectives charge modeled
//!   time, `compute(flops)` charges CPU time. Virtual time is fully
//!   deterministic: a rank's clock depends only on its own event sequence
//!   and on the send timestamps of messages it receives;
//! * [`exec`] — the deterministic rank executor: an [`ExecPolicy`] maps
//!   ranks onto host worker threads (bounded pool of `N` slots, width 1
//!   included, or unbounded; `MB_PARALLEL`), all served by the
//!   event-driven [`event`] core; every policy yields bit-identical
//!   outcomes;
//! * [`machine`] — the cluster runtime: run an SPMD closure over all
//!   ranks, gather results, per-rank statistics and the makespan;
//!   [`machine::Cluster::run_traced`] additionally captures a span trace
//!   of every rank (see the `mb-telemetry` crate) ready for Chrome
//!   `trace_event` export;
//! * [`partition`] — node-subset allocation ([`NodeSet`], lowest-first or
//!   topology-compact) and partitioned runs ([`machine::Cluster::run_on`],
//!   which places ranks on real node ids so placement costs follow the
//!   topology): the substrate the `mb-sched` batch workload manager
//!   schedules jobs onto;
//! * [`power`] — node and cluster power accounting (load/idle, cooling),
//!   plus sampled power series recorded into a telemetry registry;
//! * [`thermal`] — ambient → component temperature model;
//! * [`reliability`] — the paper's empirical failure law ("the failure
//!   rate of a component doubles for every 10 °C increase in
//!   temperature"), MTBF, expected downtime, and failure injection;
//! * [`checkpoint`] — Young/Daly checkpoint-restart modeling plus a
//!   Monte-Carlo validator, closing the loop from the failure law to
//!   long-job efficiency.
//!
//! # Example
//!
//! ```
//! use mb_cluster::machine::Cluster;
//! use mb_cluster::spec::metablade;
//! use mb_cluster::ExecPolicy;
//!
//! // Four simulated MetaBlade nodes summing their ranks with an
//! // allreduce. The executor policy bounds *host* parallelism only:
//! // results and virtual clocks are bit-identical under every policy.
//! let cluster = Cluster::new(metablade().with_nodes(4))
//!     .with_exec(ExecPolicy::Parallel { workers: 2 });
//! let out = cluster.run(|comm| comm.allreduce_sum(&[comm.rank() as f64])[0]);
//! assert_eq!(out.results, vec![6.0; 4]); // 0+1+2+3 on every rank
//! assert!(out.makespan_s() > 0.0); // virtual seconds on 100-Mb/s Ethernet
//! ```

pub mod checkpoint;
pub mod comm;
pub mod contention;
pub mod event;
pub mod exec;
pub mod machine;
pub mod network;
pub mod partition;
pub mod power;
pub mod reliability;
pub mod spec;
pub mod thermal;
pub mod topology;

pub use comm::{Comm, CommStats, PeerTraffic};
pub use contention::{ContentionEpoch, JobTraffic};
pub use event::{EventCore, ExecutorReport, PairBound};
pub use exec::ExecPolicy;
pub use machine::{Cluster, SpmdOutcome};
pub use network::NetworkModel;
pub use partition::NodeSet;
pub use spec::{cluster_catalog, ClusterSpec, CpuSpec, NetworkSpec, NodeSpec, PackagingKind};
pub use topology::{Link, LinkId, LinkLoad, LinkTable, Topology};
