//! The PR's acceptance criteria, executed: the standard seeded 200-job
//! workload on a 24-node MetaBlade under all three policies, with
//! failure injection, must (a) produce bit-identical fingerprints
//! under every executor policy and (b) give EASY backfill strictly
//! higher utilization than FCFS.

use mb_cluster::{Cluster, ExecPolicy};
use mb_sched::{
    simulate, workload, EasyBackfill, FailureConfig, Fcfs, SchedConfig, SchedPolicy, ServiceModel,
    Sjf,
};

#[test]
fn standard_workload_is_deterministic_and_easy_beats_fcfs() {
    let jobs = workload::generate(&workload::standard());
    assert_eq!(jobs.len(), 200);
    let cfg = SchedConfig {
        failure: Some(FailureConfig::accelerated(400.0, 2002)),
        ..SchedConfig::default()
    };
    let policies: [&dyn SchedPolicy; 3] = [&Fcfs, &EasyBackfill, &Sjf];
    let execs = [
        ExecPolicy::Parallel { workers: 1 },
        ExecPolicy::Parallel { workers: 3 },
        ExecPolicy::Unbounded,
    ];

    // reports[policy][exec]
    let mut utils = [0.0f64; 3];
    let mut prints = [[0u64; 3]; 3];
    for (ei, &exec) in execs.iter().enumerate() {
        let cluster = Cluster::new(mb_cluster::spec::metablade()).with_exec(exec);
        let service = ServiceModel::new(&cluster);
        for (pi, policy) in policies.iter().enumerate() {
            let rep = simulate(&service, *policy, &jobs, &cfg);
            assert_eq!(rep.jobs.len(), 200, "{} lost jobs", policy.name());
            prints[pi][ei] = rep.fingerprint;
            if ei == 0 {
                utils[pi] = rep.utilization;
            }
        }
    }

    for (pi, policy) in policies.iter().enumerate() {
        assert_eq!(
            prints[pi][0],
            prints[pi][1],
            "'{}' fingerprint differs: seq vs 3 workers",
            policy.name()
        );
        assert_eq!(
            prints[pi][0],
            prints[pi][2],
            "'{}' fingerprint differs: seq vs unbounded",
            policy.name()
        );
    }

    let (fcfs_util, easy_util) = (utils[0], utils[1]);
    assert!(
        easy_util > fcfs_util,
        "EASY backfill must strictly beat FCFS utilization: easy={easy_util} fcfs={fcfs_util}"
    );
}
