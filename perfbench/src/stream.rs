//! The two open-arrival stream workloads. Both drive `simulate_stream`
//! with `OpenArrivals` over `JobMix::standard`, `SloAdmission::standard`
//! and `Fcfs` in the `lean` configuration, priced by a `CostModel`
//! calibrated on the workload's own cluster.
//!
//! * `stream_diurnal_star`: 2x10^5 jobs on the 24-node star with a
//!   diurnal rate (rho 0.3 base, 1.4 peak, 86 400 s period) — about 59
//!   simulated days, so every run crosses dozens of crests that build
//!   deep queues and shed. Stream loop, policy and admission dominate;
//!   contention is a no-op on the star and the cost memo almost always
//!   hits.
//! * `stream_poisson_ft64`: 10^4 Poisson jobs at rho 0.8 on a 64-node
//!   `fat_tree(16, 2, 4.0)` with contention-aware placement and ECMP
//!   route spreading. Queues stay shallow, but contention epochs and
//!   placement scoring run on every event and one pricing in six misses
//!   the memo.
//!
//! Arrivals are open in simulated time only: the host makes one call
//! after another. The arrival seed is `--seed`; the offered-load
//! estimate uses a fixed sample seed (as `stream_sim` does) so the
//! load level is the same for every seed.

use mb_cluster::spec::metablade;
use mb_cluster::topology::Topology;
use mb_cluster::{ClusterSpec, ExecPolicy};
use mb_sched::{
    simulate_stream, AdmissionControl, ArrivalSource, Fcfs, Placement, SchedConfig, SchedPolicy,
    ServiceOracle, StreamReport,
};
use mb_workload::{CostModel, JobMix, OpenArrivals, SloAdmission, TrafficPattern};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::checks::Checks;
use crate::proxy::{self, Admission, Arrivals, Oracle, Policy};
use crate::tracer::{RepTrace, Tracer};
use crate::{traced, Layers, Rep, Workload};

const CALIBRATE: &str = "CostModel::calibrate";
const DEMAND: &str = "demand_estimate";
const SIMULATE: &str = "simulate_stream";

#[derive(Clone, Copy)]
pub enum Scenario {
    DiurnalStar,
    PoissonFt64,
}

pub struct Stream {
    pub scenario: Scenario,
    pub seed: u64,
    pub exec: ExecPolicy,
}

pub struct Input {
    cost: CostModel,
    pattern: TrafficPattern,
}

/// What the proxies saw during one traced simulation.
struct ProxyCounts {
    admitted_by_request: Vec<u64>,
    shed_by_request: Vec<u64>,
    queue_depth: mb_telemetry::LogHistogram,
    picks: u64,
}

pub struct Output {
    report: StreamReport,
    memo_hits: u64,
    memo_misses: u64,
    proxies: Option<ProxyCounts>,
}

impl Stream {
    fn spec(&self) -> ClusterSpec {
        match self.scenario {
            Scenario::DiurnalStar => metablade(),
            Scenario::PoissonFt64 => {
                let mut s = metablade()
                    .with_nodes(64)
                    .with_topology(Topology::fat_tree(16, 2, 4.0));
                s.name = "MetaBlade-ft64".into();
                s
            }
        }
    }

    fn jobs(&self) -> usize {
        match self.scenario {
            Scenario::DiurnalStar => 200_000,
            Scenario::PoissonFt64 => 10_000,
        }
    }

    fn config(&self) -> SchedConfig {
        match self.scenario {
            Scenario::DiurnalStar => SchedConfig {
                lean: true,
                ..SchedConfig::default()
            },
            Scenario::PoissonFt64 => SchedConfig {
                lean: true,
                placement: Placement::ContentionAware,
                route_spread: true,
                ..SchedConfig::default()
            },
        }
    }

    fn mix(&self) -> JobMix {
        JobMix::standard(self.spec().nodes)
    }

    fn run<S: ServiceOracle>(
        &self,
        cost: &S,
        policy: &dyn SchedPolicy,
        source: &mut dyn ArrivalSource,
        admission: &mut dyn AdmissionControl,
    ) -> StreamReport {
        simulate_stream(cost, policy, source, admission, &self.config())
    }
}

/// Mean node-seconds one job of `mix` demands, from a fixed 2000-job
/// sample priced by the model (the offered-load knob of `stream_sim`).
fn mean_demand_node_s(cost: &CostModel, mix: &JobMix) -> f64 {
    let mut rng = StdRng::seed_from_u64(1234);
    let n = 2_000;
    let total: f64 = (0..n)
        .map(|i| {
            let a = mix.draw(&mut rng, i, 0.0);
            a.spec.ranks as f64 * cost.work_s(&a.spec.work, a.spec.ranks)
        })
        .sum();
    total / n as f64
}

impl Workload for Stream {
    type Input = Input;
    type Output = Output;

    fn name(&self) -> &'static str {
        match self.scenario {
            Scenario::DiurnalStar => "stream_diurnal_star",
            Scenario::PoissonFt64 => "stream_poisson_ft64",
        }
    }

    /// Calibrate a fresh cost model (so every repetition starts from a
    /// cold pricing memo, as a user's run does) and estimate the
    /// offered load.
    fn setup(&self, t: Option<&Tracer>) -> Input {
        let spec = self.spec();
        let nodes = spec.nodes as f64;
        let mix = self.mix();
        let mut cost = CostModel::new(spec);
        traced(t, CALIBRATE, || cost.calibrate(&mix.patterns(), self.exec));
        let demand = traced(t, DEMAND, || mean_demand_node_s(&cost, &mix));
        let rate = |rho: f64| rho * nodes / demand;
        let pattern = match self.scenario {
            Scenario::DiurnalStar => TrafficPattern::Diurnal {
                base_rate_per_s: rate(0.3),
                peak_rate_per_s: rate(1.4),
                period_s: 86_400.0,
            },
            Scenario::PoissonFt64 => TrafficPattern::Poisson {
                rate_per_s: rate(0.8),
            },
        };
        Input { cost, pattern }
    }

    fn body(&self, input: &Input, t: Option<&Tracer>) -> Output {
        let nodes = self.spec().nodes;
        let source = OpenArrivals::new(input.pattern, self.mix(), self.jobs(), self.seed);
        let admission = SloAdmission::standard(nodes);
        let (hits0, misses0) = (input.cost.memo_hits(), input.cost.memo_misses());
        let (report, proxies) = match t {
            None => {
                let (mut source, mut admission) = (source, admission);
                (
                    self.run(&input.cost, &Fcfs, &mut source, &mut admission),
                    None,
                )
            }
            Some(t) => {
                let oracle = Oracle::new(&input.cost, t);
                let policy = Policy::new(Fcfs, t);
                let mut source = Arrivals::new(source, t);
                let mut admission = Admission::new(admission, t);
                let report = t.span(SIMULATE, || {
                    self.run(&oracle, &policy, &mut source, &mut admission)
                });
                let counts = ProxyCounts {
                    admitted_by_request: admission.admitted,
                    shed_by_request: admission.shed,
                    queue_depth: policy.queue_depth.into_inner(),
                    picks: policy.picks.get(),
                };
                (report, Some(counts))
            }
        };
        Output {
            report,
            memo_hits: input.cost.memo_hits() - hits0,
            memo_misses: input.cost.memo_misses() - misses0,
            proxies,
        }
    }

    fn review(
        &self,
        _input: Input,
        out: Output,
        trace: Option<&RepTrace>,
        checks: &mut Checks,
    ) -> Rep {
        let rep = &out.report;
        let name = self.name();
        checks.check(rep.offered == self.jobs() as u64, || {
            format!("{name}: offered {} of {} jobs", rep.offered, self.jobs())
        });
        let admitted: u64 = rep.classes.iter().map(|c| c.admitted).sum();
        let completed: u64 = rep.classes.iter().map(|c| c.completed).sum();
        checks.check(rep.offered == admitted + rep.shed, || {
            format!(
                "{name}: offered {} != admitted {admitted} + shed {}",
                rep.offered, rep.shed
            )
        });
        for c in &rep.classes {
            checks.check(c.completed == c.admitted, || {
                format!(
                    "{name}: class {} completed {} of {} admitted jobs",
                    c.label, c.completed, c.admitted
                )
            });
        }
        checks.check(
            completed == admitted && rep.sim.jobs.len() as u64 == admitted,
            || {
                format!(
                    "{name}: {completed} completed, {} job records, {admitted} admitted",
                    rep.sim.jobs.len()
                )
            },
        );

        let mut layers = Layers::new();
        if let (Some(tr), Some(p)) = (trace, &out.proxies) {
            // Per requested class: offered = admitted + shed, with the
            // admissions counted where they were asked for.
            for (c, class) in rep.classes.iter().enumerate() {
                let (adm, shed) = (p.admitted_by_request[c], p.shed_by_request[c]);
                checks.check(class.offered == adm + shed && class.shed == shed, || {
                    format!(
                        "{name}: class {} offered {} != admitted {adm} + shed {shed}",
                        class.label, class.offered
                    )
                });
            }
            let arrival = tr.calls(proxy::ARRIVAL);
            let admission = tr.calls(proxy::ADMISSION);
            let policy = tr.calls(proxy::POLICY);
            let cost = tr.calls(proxy::COST);
            let wall = tr.span_s(SIMULATE);
            let engine_self = tr.self_s(SIMULATE);
            let children = arrival.sum() + admission.sum() + policy.sum() + cost.sum();
            println!(
                "{name}: traced simulate_stream {wall:.6} s = engine self {engine_self:.6} s \
                 + proxied calls {children:.6} s"
            );
            let started = rep.sim.jobs.len() as f64 + f64::from(rep.sim.requeues);
            let lookups = (out.memo_hits + out.memo_misses).max(1) as f64;
            layers.extend([
                ("workload.calibrate_s", tr.span_s(CALIBRATE)),
                ("workload.arrival_s", arrival.sum()),
                ("workload.arrival_calls", arrival.count() as f64),
                ("workload.admission_s", admission.sum()),
                ("workload.admission_calls", admission.count() as f64),
                ("workload.shed", rep.shed as f64),
                ("workload.cost_s", cost.sum()),
                ("workload.cost_calls", cost.count() as f64),
                ("workload.cost_ns_p50", cost.p50() * 1e9),
                ("workload.cost_ns_p999", cost.p999() * 1e9),
                ("workload.memo_hit_ratio", out.memo_hits as f64 / lookups),
                ("sched.policy_s", policy.sum()),
                ("sched.policy_calls", policy.count() as f64),
                ("sched.policy_ns_p50", policy.p50() * 1e9),
                ("sched.policy_ns_p999", policy.p999() * 1e9),
                ("sched.queue_depth_p50", p.queue_depth.p50()),
                ("sched.queue_depth_max", p.queue_depth.max()),
                ("sched.dispatch_ratio", started / p.picks.max(1) as f64),
                ("sched.engine_self_s", engine_self),
                (
                    "sched.engine_self_us_per_job",
                    engine_self * 1e6 / rep.offered as f64,
                ),
                ("sched.sim_util", rep.sim.utilization),
                ("sched.sim_wait_p99_s", rep.sim.wait_hist.p99()),
                ("sched.sim_max_contention", rep.sim.max_contention_factor),
            ]);
        }
        Rep {
            items: rep.offered as f64,
            fingerprint: rep.stream_fingerprint_hex(),
            layers,
        }
    }
}
