//! Reference-model test for the engine's job queue. Seeded random
//! sequences of arrivals, failure requeues and pick removals drive a
//! [`JobQueue`] and a naive `Vec` that follows the documented order —
//! requeues newest first, then each admission class FIFO, in class
//! order — and every read of the queue must agree with the model after
//! every step. Inputs come from a fixed-seed loop, so a failure
//! replays exactly.

use mb_sched::{JobQueue, QueueView, QueuedJob};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 64;
const STEPS: usize = 300;

/// The documented order, kept the slow way: `(lane, job, payload)`
/// with lane 0 for requeues and `1 + class` for arrivals.
#[derive(Default)]
struct Model {
    items: Vec<(usize, QueuedJob, u64)>,
}

impl Model {
    fn arrive(&mut self, class: usize, job: QueuedJob, id: u64) {
        let lane = 1 + class;
        let pos = self
            .items
            .iter()
            .position(|e| e.0 > lane)
            .unwrap_or(self.items.len());
        self.items.insert(pos, (lane, job, id));
    }

    fn requeue(&mut self, job: QueuedJob, id: u64) {
        self.items.insert(0, (0, job, id));
    }

    /// Payloads at the (distinct) indices of `set`, removed.
    fn remove_set(&mut self, set: &[usize]) -> Vec<u64> {
        let mut sorted = set.to_vec();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        sorted.into_iter().map(|i| self.items.remove(i).2).collect()
    }
}

fn job(rng: &mut StdRng, id: u64) -> QueuedJob {
    QueuedJob {
        ranks: rng.random_range(1..=24usize),
        service_est_s: id as f64 + rng.random::<f64>(),
    }
}

/// Distinct indices below `len` in the shapes policies return: a
/// prefix (FCFS), a scattered ascending set (EASY backfill) or an
/// unsorted one (SJF), each at most `len` long.
fn pick_set(rng: &mut StdRng, len: usize) -> Vec<usize> {
    let want = rng.random_range(0..=len.min(8));
    match rng.random_range(0..3u32) {
        0 => (0..want).collect(),
        shape => {
            let mut set: Vec<usize> = Vec::new();
            while set.len() < want {
                let i = rng.random_range(0..len);
                if !set.contains(&i) {
                    set.push(i);
                }
            }
            if shape == 1 {
                set.sort_unstable();
            }
            set
        }
    }
}

fn assert_agrees(queue: &JobQueue<u64>, model: &Model, ctx: &str) {
    let view = queue.view();
    assert_eq!(view.len(), model.items.len(), "{ctx}: len");
    assert_eq!(queue.len(), model.items.len(), "{ctx}: queue len");
    assert_eq!(view.is_empty(), model.items.is_empty(), "{ctx}: is_empty");
    let seen: Vec<QueuedJob> = view.iter().copied().collect();
    let want: Vec<QueuedJob> = model.items.iter().map(|e| e.1).collect();
    assert_eq!(seen, want, "{ctx}: iter order");
    for (i, &(_, job, id)) in model.items.iter().enumerate() {
        assert_eq!(view[i], job, "{ctx}: view[{i}]");
        assert_eq!(queue.get(i), Some((&job, &id)), "{ctx}: get({i})");
    }
    let len = model.items.len();
    assert!(view.get(len).is_none(), "{ctx}: view.get past the end");
    assert!(queue.get(len).is_none(), "{ctx}: get past the end");
}

#[test]
fn job_queue_matches_the_documented_order() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x51_0000 + case);
        let classes = rng.random_range(1..=4usize);
        let mut queue: JobQueue<u64> = JobQueue::new(classes);
        let mut model = Model::default();
        let mut next_id = 0u64;
        for step in 0..STEPS {
            let ctx = format!("case {case} ({classes} classes) step {step}");
            match rng.random_range(0..10u32) {
                // Arrivals outnumber removals early on, so lanes fill,
                // drain from the front and wrap their ring buffers.
                0..=3 => {
                    let class = rng.random_range(0..classes);
                    let j = job(&mut rng, next_id);
                    queue.arrive(class, j, next_id);
                    model.arrive(class, j, next_id);
                    next_id += 1;
                }
                4 => {
                    let j = job(&mut rng, next_id);
                    queue.requeue(j, next_id);
                    model.requeue(j, next_id);
                    next_id += 1;
                }
                _ if model.items.is_empty() => {}
                _ => {
                    let mut set = pick_set(&mut rng, model.items.len());
                    let mut want = model.remove_set(&set);
                    let mut got = Vec::new();
                    queue.remove_set(&mut set, |id| got.push(id));
                    want.sort_unstable();
                    got.sort_unstable();
                    assert_eq!(got, want, "{ctx}: removed payloads");
                }
            }
            assert_agrees(&queue, &model, &ctx);
        }
    }
}

#[test]
fn a_view_over_loose_lanes_joins_them_in_sequence() {
    use std::collections::VecDeque;
    let q = |ranks| QueuedJob {
        ranks,
        service_est_s: 1.0,
    };
    // An empty lane between two full ones, and a wrapped ring buffer.
    let mut wrapped: VecDeque<QueuedJob> = VecDeque::with_capacity(4);
    wrapped.extend([q(9), q(9), q(3)]);
    wrapped.pop_front();
    wrapped.pop_front();
    wrapped.extend([q(4), q(5)]);
    assert!(!wrapped.as_slices().1.is_empty(), "the ring buffer wraps");
    let lanes = [VecDeque::from(vec![q(1), q(2)]), VecDeque::new(), wrapped];
    let view = QueueView::new(&lanes);
    assert_eq!(view.len(), 5);
    let ranks: Vec<usize> = view.iter().map(|j| j.ranks).collect();
    assert_eq!(ranks, [1, 2, 3, 4, 5]);
    assert_eq!(view[2].ranks, 3);
    assert_eq!(view[4].ranks, 5);
    assert!(view.get(5).is_none());
    assert!(QueueView::new(&[]).is_empty());
}

#[test]
#[should_panic(expected = "removed twice")]
fn removing_an_index_twice_is_refused() {
    let mut queue: JobQueue<u64> = JobQueue::new(1);
    let j = QueuedJob {
        ranks: 1,
        service_est_s: 1.0,
    };
    queue.arrive(0, j, 0);
    queue.arrive(0, j, 1);
    queue.remove_set(&mut [1, 1], |_| {});
}
