//! The engine's job queue: one lane for failure requeues, then one FIFO
//! lane per admission class.
//!
//! Queue order — what [`QueueView`] shows policies, and what the indices
//! they return refer to — is the lanes joined in sequence: requeued
//! failure victims newest first, then class 0 in arrival order, then
//! class 1, and so on (DESIGN.md §10). Arrivals push onto the back of
//! their lane and requeues onto the front of theirs, so the stream loop
//! never scans for an insertion point, and policies read the lanes
//! through a borrowed view instead of a per-event copy.

use std::collections::VecDeque;
use std::ops::Index;

use crate::policy::QueuedJob;

/// Waiting jobs in class lanes. Each job carries the [`QueuedJob`]
/// policies see (fixed while the job waits, so computed once when it is
/// queued) and an engine payload `E`, kept in a parallel lane.
#[derive(Debug, Clone)]
pub struct JobQueue<E> {
    /// Lane 0 holds failure requeues; lane `1 + c` holds class `c`.
    jobs: Vec<VecDeque<QueuedJob>>,
    entries: Vec<VecDeque<E>>,
    len: usize,
}

impl<E> JobQueue<E> {
    /// An empty queue for `classes` admission classes.
    pub fn new(classes: usize) -> Self {
        assert!(classes > 0, "the queue needs at least one class");
        Self {
            jobs: (0..=classes).map(|_| VecDeque::new()).collect(),
            entries: (0..=classes).map(|_| VecDeque::new()).collect(),
            len: 0,
        }
    }

    /// Jobs waiting.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no job waits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Queue an admitted arrival behind every waiting job of its class
    /// and of the classes ahead of it.
    pub fn arrive(&mut self, class: usize, job: QueuedJob, entry: E) {
        let lane = 1 + class;
        assert!(lane < self.jobs.len(), "class {class} out of range");
        self.jobs[lane].push_back(job);
        self.entries[lane].push_back(entry);
        self.len += 1;
    }

    /// Queue a failure victim ahead of every waiting job, earlier
    /// requeues included.
    pub fn requeue(&mut self, job: QueuedJob, entry: E) {
        self.jobs[0].push_front(job);
        self.entries[0].push_front(entry);
        self.len += 1;
    }

    /// The policy's view of the queue, in queue order.
    pub fn view(&self) -> QueueView<'_> {
        QueueView::new(&self.jobs)
    }

    /// The job at queue index `idx`, or `None` past the end.
    pub fn get(&self, idx: usize) -> Option<(&QueuedJob, &E)> {
        let (lane, off) = locate(&self.jobs, idx)?;
        Some((&self.jobs[lane][off], &self.entries[lane][off]))
    }

    /// Remove the jobs at the queue indices in `picks` (distinct, any
    /// order; sorted descending on return) and hand each payload to
    /// `removed`. Indices refer to the queue as it was before the call.
    pub fn remove_set(&mut self, picks: &mut [usize], mut removed: impl FnMut(E)) {
        picks.sort_unstable_by(|a, b| b.cmp(a));
        for w in picks.windows(2) {
            assert!(w[0] != w[1], "queue index {} removed twice", w[0]);
        }
        // Descending order: removing an index never shifts a smaller one.
        for &idx in picks.iter() {
            let (lane, off) = locate(&self.jobs, idx)
                .unwrap_or_else(|| panic!("queue index {idx} out of range ({})", self.len));
            self.jobs[lane].remove(off);
            removed(self.entries[lane].remove(off).expect("lanes stay parallel"));
            self.len -= 1;
        }
    }
}

/// `(lane, offset)` of queue index `idx` within `lanes`.
fn locate(lanes: &[VecDeque<QueuedJob>], mut idx: usize) -> Option<(usize, usize)> {
    for (lane, jobs) in lanes.iter().enumerate() {
        if idx < jobs.len() {
            return Some((lane, idx));
        }
        idx -= jobs.len();
    }
    None
}

/// A borrowed, read-only view of the queue in queue order: what
/// [`crate::PolicyCtx::queue`] hands a policy. Building one allocates
/// nothing; indexing walks the (few) lanes.
#[derive(Debug, Clone, Copy)]
pub struct QueueView<'a> {
    lanes: &'a [VecDeque<QueuedJob>],
    len: usize,
}

impl<'a> QueueView<'a> {
    /// A view over `lanes` joined in sequence.
    pub fn new(lanes: &'a [VecDeque<QueuedJob>]) -> Self {
        Self {
            lanes,
            len: lanes.iter().map(VecDeque::len).sum(),
        }
    }

    /// Jobs waiting.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no job waits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The job at queue index `idx`, or `None` past the end.
    pub fn get(&self, idx: usize) -> Option<&'a QueuedJob> {
        let (lane, off) = locate(self.lanes, idx)?;
        Some(&self.lanes[lane][off])
    }

    /// The jobs in queue order.
    pub fn iter(&self) -> impl Iterator<Item = &'a QueuedJob> + 'a {
        self.lanes.iter().flat_map(VecDeque::iter)
    }
}

impl Index<usize> for QueueView<'_> {
    type Output = QueuedJob;

    fn index(&self, idx: usize) -> &QueuedJob {
        self.get(idx)
            .unwrap_or_else(|| panic!("queue index {idx} out of range ({})", self.len))
    }
}
