//! `treecode_r256`, the executor at scale: one `distributed_step` of an
//! 8000-body truncated Plummer sphere (seeded by `--seed`) on 256 star
//! ranks. Every rank exchanges its locally essential tree with every
//! other, about 196k messages per step, so `Comm` send/recv and executor
//! admission do most of the work. The traced `paper_tables` run drives
//! it as a probe for the `treecode.*` and `cluster.*` layer metrics.

use mb_cluster::machine::Cluster;
use mb_cluster::spec::metablade;
use mb_cluster::ExecPolicy;
use mb_treecode::parallel::{distributed_step, DistributedConfig, StepReport};
use mb_treecode::{plummer, Bodies};

use crate::checks::{fingerprint, Checks};
use crate::tracer::{RepTrace, Tracer};
use crate::{median, traced, Layers, Rep, Workload};

pub const NAME: &str = "treecode_r256";
pub const RANKS: usize = 256;
const BODIES: usize = 8_000;
/// Truncation radius of the Plummer sphere, in model length units.
const R_CUT: f64 = 10.0;
/// Largest accepted median relative force error against direct
/// summation: the treecode crate's own accuracy contract
/// (`distributed_forces_match_direct_summation`).
const MEDIAN_TOL: f64 = 4e-3;
/// Largest accepted 99th-percentile relative force error. With the
/// standard MAC (theta 0.8, quadrupoles) the error's p99 sits near
/// 0.008 and its maximum, one body in thousands, reaches several
/// percent, so the tail is bounded at a quantile, not at the maximum.
const P99_TOL: f64 = 0.02;
const STEP: &str = "distributed_step";

pub struct Treecode {
    pub seed: u64,
    pub exec: ExecPolicy,
}

pub struct Input {
    bodies: Bodies,
    cluster: Cluster,
    /// Direct-summation accelerations, the force check's reference.
    direct_acc: Vec<[f64; 3]>,
}

impl Treecode {
    fn input(&self, exec: ExecPolicy) -> Input {
        let bodies = truncated_plummer(self.seed);
        let mut direct = bodies.clone();
        mb_treecode::direct::direct_forces(&mut direct, DistributedConfig::default().eps2);
        Input {
            bodies,
            cluster: Cluster::new(metablade().with_nodes(RANKS)).with_exec(exec),
            direct_acc: direct.acc,
        }
    }

    /// Median untraced wall seconds of the step at executor width 1,
    /// over `reps` repetitions; checks the outcome against `expect`.
    pub fn width1_wall_s(&self, reps: usize, expect: &str, checks: &mut Checks) -> f64 {
        let input = self.input(ExecPolicy::Parallel { workers: 1 });
        let walls: Vec<f64> = (0..reps)
            .map(|_| {
                let t0 = std::time::Instant::now();
                let out = self.body(&input, None);
                let wall = t0.elapsed().as_secs_f64();
                let fp = step_fingerprint(&out);
                checks.check(fp == expect, || {
                    format!(
                        "{NAME}: width-1 fingerprint {fp} != width-{:?} {expect}",
                        self.exec.workers()
                    )
                });
                wall
            })
            .collect();
        median(&walls)
    }
}

/// `BODIES` bodies of a Plummer sphere seeded by `seed`, truncated at
/// radius `R_CUT` (about 98.5 % of the model's mass), each of mass
/// `1 / BODIES`. Untruncated realizations carry a few bodies tens to
/// hundreds of scale radii out, and depending on where they fall one
/// step does either about 5.5M or 15-19M interactions; truncation
/// keeps every seed in the second regime.
fn truncated_plummer(seed: u64) -> Bodies {
    let sphere = plummer(BODIES + BODIES / 8, seed);
    let inside: Vec<usize> = (0..sphere.len())
        .filter(|&i| norm(sphere.pos[i]) < R_CUT)
        .take(BODIES)
        .collect();
    assert_eq!(inside.len(), BODIES, "too few bodies inside the cut");
    let mut bodies = sphere.select(&inside);
    bodies.mass.fill(1.0 / BODIES as f64);
    bodies
}

fn step_fingerprint(r: &StepReport) -> String {
    fingerprint(
        "treecode-step",
        std::iter::once(r.makespan_s)
            .chain(std::iter::once(r.total_flops))
            .chain(r.acc.iter().flatten().copied())
            .chain(r.pot.iter().copied())
            .chain(
                r.comm
                    .iter()
                    .flat_map(|s| [s.sends as f64, s.bytes_sent as f64]),
            ),
    )
}

fn norm(v: [f64; 3]) -> f64 {
    (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt()
}

impl Workload for Treecode {
    type Input = Input;
    type Output = StepReport;

    fn name(&self) -> &'static str {
        NAME
    }

    /// The Plummer sphere and the direct-summation forces the output
    /// check compares against.
    fn setup(&self, _t: Option<&Tracer>) -> Input {
        self.input(self.exec)
    }

    fn body(&self, input: &Input, t: Option<&Tracer>) -> StepReport {
        traced(t, STEP, || {
            distributed_step(&input.cluster, &input.bodies, &DistributedConfig::default())
        })
    }

    fn review(
        &self,
        input: Input,
        out: StepReport,
        trace: Option<&RepTrace>,
        checks: &mut Checks,
    ) -> Rep {
        let mut errs: Vec<f64> = out
            .acc
            .iter()
            .zip(&input.direct_acc)
            .map(|(t, a)| norm([t[0] - a[0], t[1] - a[1], t[2] - a[2]]) / norm(*a))
            .collect();
        errs.sort_by(f64::total_cmp);
        let (err_p50, err_p99) = (median(&errs), errs[errs.len() * 99 / 100]);
        checks.check(err_p50 <= MEDIAN_TOL && err_p99 <= P99_TOL, || {
            format!(
                "{NAME}: force error median {err_p50} (limit {MEDIAN_TOL}), \
                 p99 {err_p99} (limit {P99_TOL})"
            )
        });
        let msgs: u64 = out.comm.iter().map(|s| s.sends).sum();
        let recvs: u64 = out.comm.iter().map(|s| s.recvs).sum();
        checks.check(msgs == recvs && msgs > 0, || {
            format!("{NAME}: {msgs} messages sent but {recvs} received")
        });

        let mut layers = Layers::new();
        if let Some(tr) = trace {
            let wall = tr.span_s(STEP);
            let bytes: u64 = out.comm.iter().map(|s| s.bytes_sent).sum();
            let waited: f64 = out.comm.iter().map(|s| s.wait_s).sum();
            let clocks: f64 = out.per_rank.iter().map(|r| r.clock_s).sum();
            layers.extend([
                (
                    "treecode.interactions",
                    out.per_rank
                        .iter()
                        .map(|r| (r.interactions.pp + r.interactions.pc) as f64)
                        .sum(),
                ),
                (
                    "treecode.imported_cells",
                    out.per_rank.iter().map(|r| r.imported_cells as f64).sum(),
                ),
                (
                    "treecode.imported_bodies",
                    out.per_rank.iter().map(|r| r.imported_bodies as f64).sum(),
                ),
                ("treecode.force_rel_err", err_p99),
                ("cluster.msgs", msgs as f64),
                ("cluster.bytes", bytes as f64),
                ("cluster.host_us_per_msg", wall * 1e6 / msgs as f64),
                ("cluster.sim_makespan_s", out.makespan_s),
                ("cluster.sim_blocked_frac", waited / clocks),
            ]);
        }
        Rep {
            items: msgs as f64,
            fingerprint: step_fingerprint(&out),
            layers,
        }
    }
}
