//! Shared plumbing for the experiment binaries: where telemetry
//! artifacts (Chrome traces, run manifests) land on disk, the standard
//! manifest a traced treecode run produces, the [`baseline`]
//! width-1-vs-width-N executor benchmark harness behind `bench_baseline`,
//! and the [`gate`] regression checker behind `bench_gate`.
//!
//! # Example
//!
//! ```
//! use mb_bench::baseline::{policies, SweepConfig};
//!
//! // The default baseline sweep: the paper's rank counts plus the
//! // executor-scaling points, under every executor policy (labels are
//! // the BENCH_*.json keys).
//! let cfg = SweepConfig::default();
//! assert_eq!(cfg.rank_counts, vec![1, 4, 8, 24, 128, 512, 1024]);
//! assert_eq!(cfg.treecode_rank_counts, vec![1, 4, 8, 24, 128]);
//! let labels: Vec<String> = policies().iter().map(|p| p.label()).collect();
//! assert_eq!(labels, ["seq", "w2", "w8", "unbounded"]);
//! ```

pub mod baseline;
pub mod cli;
pub mod gate;

use mb_cluster::power;
use mb_cluster::spec::ClusterSpec;
use mb_telemetry::manifest::RunManifest;
use mb_treecode::parallel::StepReport;

// Artifact placement moved into the telemetry layer (PR 5) so non-bench
// binaries (`sched_sim`) share the same convention; re-exported here to
// keep the experiment binaries' imports stable.
pub use mb_telemetry::artifact::{artifact_dir, write_artifact};

/// Power samples recorded into a run manifest's `power.watts` series.
pub const POWER_SAMPLES: usize = 64;

/// The standard manifest of one distributed treecode step: per-rank
/// time summary, per-rank traffic counters, sampled power draw, and the
/// headline scalars.
pub fn treecode_manifest(run: &str, spec: &ClusterSpec, report: &StepReport) -> RunManifest {
    let mut m = RunManifest::new(run, spec.name.clone(), spec.nodes);
    m.summary = report.summary();
    let clocks: Vec<f64> = report.per_rank.iter().map(|r| r.clock_s).collect();
    power::record_into(&mut m.metrics, spec, &report.comm, &clocks, POWER_SAMPLES);
    for (rank, s) in report.comm.iter().enumerate() {
        let label = mb_telemetry::metrics::rank_label(rank);
        m.metrics.count("comm.sends", &label, s.sends);
        m.metrics.count("comm.bytes_sent", &label, s.bytes_sent);
    }
    m.note("gflops", report.gflops);
    m.note("makespan_s", report.makespan_s);
    m.note("total_flops", report.total_flops);
    m.note("load_imbalance", m.summary.load_imbalance());
    m
}
