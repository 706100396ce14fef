//! Scheduling policies behind the [`SchedPolicy`] trait.
//!
//! A policy is consulted by the engine at every event and answers one
//! question: *which queued jobs start now?* It sees an immutable
//! [`PolicyCtx`] — virtual now, free/total node counts, a borrowed view
//! of the queue with service estimates, and the predicted release times
//! of running jobs — and returns queue indices in dispatch order.
//! Policies must be
//! pure functions of the context (the determinism contract, DESIGN.md
//! §10): no interior state, no randomness, no wall-clock.

use crate::queue::QueueView;

/// A queued job as policies see it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueuedJob {
    /// Nodes requested (already clamped to the cluster size).
    pub ranks: usize,
    /// Predicted wall time if started now, seconds (remaining work plus
    /// checkpoint/restart overhead).
    pub service_est_s: f64,
}

/// A running job's predicted release, as policies see it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunningJob {
    /// Predicted completion, virtual seconds.
    pub end_s: f64,
    /// Nodes held.
    pub ranks: usize,
}

/// What a policy sees when asked to dispatch. The engine builds one per
/// event without copying the queue: `queue` borrows the engine's lanes.
#[derive(Debug, Clone)]
pub struct PolicyCtx<'a> {
    /// Virtual now, seconds.
    pub now_s: f64,
    /// Nodes that are up and idle.
    pub free_nodes: usize,
    /// Nodes that are up (idle or busy); failed nodes are excluded until
    /// repaired.
    pub total_nodes: usize,
    /// The queue in queue order: failure requeues newest first, then
    /// each admission class in turn, FIFO within a class.
    pub queue: QueueView<'a>,
    /// Currently running jobs.
    pub running: &'a [RunningJob],
}

/// A batch scheduling policy: pick queue indices to dispatch now.
pub trait SchedPolicy {
    /// Stable name (report and metric keys).
    fn name(&self) -> &'static str;

    /// Indices into `ctx.queue` to start now, in dispatch order. The
    /// engine re-validates fit against the live free list and skips
    /// picks that no longer fit, so policies may be optimistic.
    fn select(&self, ctx: &PolicyCtx) -> Vec<usize>;
}

/// First-come-first-served: start jobs strictly in queue order, stop at
/// the first one that does not fit. Simple and starvation-free, but a
/// wide job at the head idles free nodes (head-of-line blocking).
#[derive(Debug, Clone, Copy, Default)]
pub struct Fcfs;

impl SchedPolicy for Fcfs {
    fn name(&self) -> &'static str {
        "fcfs"
    }

    fn select(&self, ctx: &PolicyCtx) -> Vec<usize> {
        let mut free = ctx.free_nodes;
        let mut picks = Vec::new();
        for (i, job) in ctx.queue.iter().enumerate() {
            if job.ranks > free {
                break;
            }
            free -= job.ranks;
            picks.push(i);
        }
        picks
    }
}

/// FCFS with EASY backfill (Argonne's "Extensible Argonne Scheduling
/// sYstem"): FCFS starts first; then the head job gets a *reservation*
/// at the shadow time (the earliest instant enough nodes will be free
/// for it), and any later job may jump the queue if it cannot delay that
/// reservation — either it finishes before the shadow time, or it fits
/// in the nodes the reservation leaves over.
#[derive(Debug, Clone, Copy, Default)]
pub struct EasyBackfill;

impl SchedPolicy for EasyBackfill {
    fn name(&self) -> &'static str {
        "easy"
    }

    fn select(&self, ctx: &PolicyCtx) -> Vec<usize> {
        let mut free = ctx.free_nodes;
        let mut picks = Vec::new();
        // Predicted releases: running jobs plus the FCFS starts below.
        let mut ends: Vec<(f64, usize)> = ctx.running.iter().map(|r| (r.end_s, r.ranks)).collect();
        let mut jobs = ctx.queue.iter().enumerate();
        let mut blocked = None;
        for (i, job) in jobs.by_ref() {
            if job.ranks > free {
                blocked = Some(job);
                break;
            }
            free -= job.ranks;
            ends.push((ctx.now_s + job.service_est_s, job.ranks));
            picks.push(i);
        }
        let Some(head) = blocked else {
            return picks;
        };
        // Reservation for the blocked head: walk releases in time order
        // until enough nodes accumulate.
        ends.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut avail = free;
        let mut shadow = f64::INFINITY;
        let mut extra = 0usize;
        for &(t, r) in &ends {
            avail += r;
            if avail >= head.ranks {
                shadow = t;
                extra = avail - head.ranks;
                break;
            }
        }
        if shadow.is_infinite() {
            // The head can never start until failed nodes return; the
            // reservation is moot, so backfill freely.
            extra = free;
        }
        // Backfill behind the reservation.
        for (j, job) in jobs {
            if job.ranks > free {
                continue;
            }
            let fits_before_shadow = ctx.now_s + job.service_est_s <= shadow;
            if fits_before_shadow || job.ranks <= extra {
                picks.push(j);
                free -= job.ranks;
                if !fits_before_shadow {
                    extra -= job.ranks;
                }
            }
        }
        picks
    }
}

/// Shortest-job-first: among fitting jobs, start the one with the
/// smallest service estimate (ties: queue order). Minimizes mean wait on
/// many workloads but can starve long jobs — the classic contrast the
/// report quantifies.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sjf;

impl SchedPolicy for Sjf {
    fn name(&self) -> &'static str {
        "sjf"
    }

    fn select(&self, ctx: &PolicyCtx) -> Vec<usize> {
        // (estimate, queue index, ranks), read from the queue once.
        let mut order: Vec<(f64, usize, usize)> = ctx
            .queue
            .iter()
            .enumerate()
            .map(|(i, job)| (job.service_est_s, i, job.ranks))
            .collect();
        order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut free = ctx.free_nodes;
        let mut picks = Vec::new();
        for (_, i, ranks) in order {
            if ranks <= free {
                free -= ranks;
                picks.push(i);
            }
        }
        picks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    fn q(ranks: usize, est: f64) -> QueuedJob {
        QueuedJob {
            ranks,
            service_est_s: est,
        }
    }

    /// One lane holding `jobs` in order.
    fn lane(jobs: &[QueuedJob]) -> [VecDeque<QueuedJob>; 1] {
        [jobs.iter().copied().collect()]
    }

    #[test]
    fn fcfs_stops_at_first_blocker() {
        let queue = lane(&[q(2, 10.0), q(8, 10.0), q(1, 10.0)]);
        let ctx = PolicyCtx {
            now_s: 0.0,
            free_nodes: 4,
            total_nodes: 8,
            queue: QueueView::new(&queue),
            running: &[],
        };
        // The 8-wide job blocks; the 1-wide job behind it must NOT run.
        assert_eq!(Fcfs.select(&ctx), vec![0]);
    }

    #[test]
    fn easy_backfills_short_jobs_behind_the_reservation() {
        // 4 free of 8; head wants 8 and must wait for the running job's
        // release at t=100 (shadow). A 30 s 2-wide job finishes before
        // the shadow → backfilled. A 500 s 4-wide job would delay the
        // reservation and exceeds the zero leftover → held back.
        let queue = lane(&[q(8, 50.0), q(4, 500.0), q(2, 30.0)]);
        let running = [RunningJob {
            end_s: 100.0,
            ranks: 4,
        }];
        let ctx = PolicyCtx {
            now_s: 0.0,
            free_nodes: 4,
            total_nodes: 8,
            queue: QueueView::new(&queue),
            running: &running,
        };
        assert_eq!(EasyBackfill.select(&ctx), vec![2]);
    }

    #[test]
    fn easy_uses_leftover_nodes_for_long_narrow_jobs() {
        // Shadow at t=100 frees 6 nodes for a 4-wide head → 2 extra.
        // A long 2-wide job can't finish before the shadow but fits in
        // the extra nodes, so it backfills anyway.
        let queue = lane(&[q(4, 50.0), q(2, 900.0)]);
        let running = [
            RunningJob {
                end_s: 100.0,
                ranks: 6,
            },
            RunningJob {
                end_s: 400.0,
                ranks: 2,
            },
        ];
        let ctx = PolicyCtx {
            now_s: 0.0,
            free_nodes: 2,
            total_nodes: 10,
            queue: QueueView::new(&queue),
            running: &running,
        };
        assert_eq!(EasyBackfill.select(&ctx), vec![1]);
    }

    #[test]
    fn easy_matches_fcfs_when_nothing_blocks() {
        let queue = lane(&[q(2, 10.0), q(3, 20.0)]);
        let ctx = PolicyCtx {
            now_s: 5.0,
            free_nodes: 8,
            total_nodes: 8,
            queue: QueueView::new(&queue),
            running: &[],
        };
        assert_eq!(EasyBackfill.select(&ctx), Fcfs.select(&ctx));
    }

    #[test]
    fn sjf_orders_by_service_estimate() {
        let queue = lane(&[q(2, 300.0), q(2, 10.0), q(2, 100.0), q(6, 1.0)]);
        let ctx = PolicyCtx {
            now_s: 0.0,
            free_nodes: 6,
            total_nodes: 8,
            queue: QueueView::new(&queue),
            running: &[],
        };
        // 6-wide 1 s job first, then the 10 s job; 100 s fits too (2+2+6
        // > 6? no: 6 then 2 exhausts to 6-6=0 → only the 6-wide runs,
        // nothing else fits).
        assert_eq!(Sjf.select(&ctx), vec![3]);
        let ctx8 = PolicyCtx {
            free_nodes: 8,
            ..ctx.clone()
        };
        assert_eq!(Sjf.select(&ctx8), vec![3, 1]);
    }

    #[test]
    fn policies_have_stable_names() {
        assert_eq!(Fcfs.name(), "fcfs");
        assert_eq!(EasyBackfill.name(), "easy");
        assert_eq!(Sjf.name(), "sjf");
    }
}
