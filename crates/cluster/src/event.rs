//! The event-driven executor core: lookahead scheduling over a worker
//! pool.
//!
//! The one engine behind every [`crate::exec::ExecPolicy`]; width 1 is
//! this core with a single slot. Each rank execution is a resumable
//! task: its OS thread parks on a **per-rank gate** whenever the task is
//! not admitted, and the core multiplexes the admitted tasks over a
//! fixed number of execution slots (the worker pool). Three structures
//! drive admission:
//!
//! * a **ready queue** — a binary min-heap ordered by
//!   `(virtual clock, rank)`, so selecting the next task is `O(log n)`
//!   rather than an `O(n)` scan over every rank;
//! * a **running heap** — the admitted tasks' admission-time clocks,
//!   giving the scheduler a conservative lower bound on the slowest
//!   in-flight rank in `O(log n)` (entries are lazily invalidated, never
//!   searched);
//! * a **lookahead horizon** — instead of only admitting the globally
//!   minimal clock (a global-min barrier), any ready task within
//!   `min_running_clock + L` is admissible, where `L` is the network
//!   model's [`crate::network::NetworkModel::min_delivery_delay`].
//!   When the cluster's topology makes some node pairs farther apart
//!   than others, the core upgrades the single scalar to **per-pair
//!   bounds** (see [`PairBound`]): a candidate task is admitted when its
//!   clock is within `bound(floor_rank, candidate)` of the slowest
//!   admitted rank — the zero-byte delivery bound of that specific pair
//!   ([`crate::network::NetworkModel::min_delay_between`]). Every
//!   per-pair bound is ≥ the global minimum, so the horizon only ever
//!   widens relative to the scalar baseline — ranks that are many
//!   switch hops away from the current floor may run further ahead,
//!   which is exactly where hierarchical topologies would otherwise
//!   serialize admission.
//!
//! **Why the lookahead is safe.** Simulated outcomes do not depend on
//! admission order at all: receives name their source rank and are FIFO
//! per `(source, tag)`, so every rank's virtual clock is a pure function
//! of its own event sequence and its senders' timestamps (see
//! [`crate::exec`]). Admission policy affects only *wall-clock* time and
//! host memory. The horizon exists to bound virtual-clock skew — and with
//! it the pending-message buffers — and the delivery bound is the natural
//! choice: a rank less than `bound(floor, r)` ahead of the slowest
//! admitted rank cannot yet observe any message that rank has still to
//! send (no message from `floor` can arrive at `r` sooner than the
//! pair's zero-byte delivery delay), so running it early cannot even
//! reorder message arrival interleavings. The same argument covers the
//! per-pair form because the bound is evaluated against the *current
//! floor rank specifically* — the one rank whose unsent messages the
//! horizon is guarding against (see DESIGN.md §13 for the full sketch).
//! Wake-ups use one `Condvar` per rank (`notify_one` direct handoff), so
//! an admission wakes exactly the admitted task — no `notify_all`
//! thundering herd of `O(k·n)` wake-and-rescan work at high rank counts.
//!
//! Deadlock freedom: when no task holds a slot the heap minimum is
//! admitted unconditionally, and the heap minimum is always admissible
//! whenever it is also the globally minimal active clock, so the core
//! admits at least one task whenever any task is ready.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use mb_telemetry::eventlog::EventLog;
use mb_telemetry::json::Json;
use mb_telemetry::prof::{ConcurrentHistogram, LogHistogram, ShardedHistogram};

/// Per-pair admission bounds: how far ahead (virtual seconds) rank `to`
/// may run of rank `from` without being able to observe any message
/// `from` has yet to send. Implemented over the network model's
/// topology-aware [`crate::network::NetworkModel::min_delay_between`];
/// every bound must be ≥ the scalar lookahead the core was built with,
/// or admission would be *more* conservative than the safe baseline.
pub trait PairBound: Send + Sync {
    /// Zero-byte delivery lower bound from `from`'s node to `to`'s node.
    fn bound_s(&self, from: usize, to: usize) -> f64;
}

/// Order-preserving map from `f64` to `u64` (IEEE-754 total order trick)
/// so clocks can live in integer-keyed heaps.
fn clock_key(c: f64) -> u64 {
    let b = c.to_bits();
    if b >> 63 == 0 {
        b | (1 << 63)
    } else {
        !b
    }
}

/// Scheduling state of one rank's task.
#[derive(Debug, Clone, Copy, PartialEq)]
enum TaskState {
    /// In the ready queue at this clock, waiting for admission.
    Ready(f64),
    /// Holds an execution slot; clock is the admission-time lower bound.
    Running(f64),
    /// Blocked on a message or finished: holds no slot, wants none.
    Blocked,
}

/// Host-time latency distributions the profiled core accumulates, all in
/// **host nanoseconds** (never virtual seconds — see DESIGN.md §12).
/// Present on [`ExecutorReport::prof`] only when profiling was enabled
/// ([`EventCore::with_profiling`] or `MB_PROF=1`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfReport {
    /// Slot-held spans: admission wake to release, per task.
    pub busy_ns: LogHistogram,
    /// Admission waits: `acquire` entry to admission (task idle).
    pub idle_ns: LogHistogram,
    /// Gate wake-to-run: dispatcher's `notify_one` to the woken task
    /// resuming past its condvar wait.
    pub wake_ns: LogHistogram,
    /// Ready-queue push latency (heap insert under the core lock).
    pub push_ns: LogHistogram,
    /// Ready-queue pop latency (valid-minimum selection per admission).
    pub pop_ns: LogHistogram,
    /// Lookahead-horizon stalls: queue head blocked by the horizon until
    /// the next successful admission.
    pub stall_ns: LogHistogram,
}

impl ProfReport {
    /// Publish every distribution into a registry under `prof/*` names
    /// (compacted log-bucket histograms), labelled by `label`. These ride
    /// the existing export paths: Chrome counter tracks via
    /// `export_with_metrics`, Prometheus text via `mb_telemetry::prom`.
    pub fn record_into(&self, reg: &mut mb_telemetry::metrics::Registry, label: &str) {
        for (name, h) in [
            ("prof/task.busy_ns", &self.busy_ns),
            ("prof/task.idle_ns", &self.idle_ns),
            ("prof/gate.wake_ns", &self.wake_ns),
            ("prof/ready.push_ns", &self.push_ns),
            ("prof/ready.pop_ns", &self.pop_ns),
            ("prof/horizon.stall_ns", &self.stall_ns),
        ] {
            reg.set_histogram(name, label, h.to_metric());
        }
    }
}

/// The profiled core's lock-free accumulators. Latency-class histograms
/// are sharded by rank so recording threads never contend on a counter
/// cache line; drained into a [`ProfReport`] at snapshot time.
struct CoreProf {
    busy_ns: ShardedHistogram,
    idle_ns: ShardedHistogram,
    wake_ns: ShardedHistogram,
    push_ns: ShardedHistogram,
    pop_ns: ShardedHistogram,
    /// Stalls are recorded by whichever thread runs the dispatcher, so a
    /// single concurrent histogram (they are rare) beats sharding.
    stall_ns: ConcurrentHistogram,
}

impl CoreProf {
    fn new(nranks: usize) -> Self {
        let shards = nranks.clamp(1, 64);
        CoreProf {
            busy_ns: ShardedHistogram::new(shards),
            idle_ns: ShardedHistogram::new(shards),
            wake_ns: ShardedHistogram::new(shards),
            push_ns: ShardedHistogram::new(shards),
            pop_ns: ShardedHistogram::new(shards),
            stall_ns: ConcurrentHistogram::new(),
        }
    }

    fn snapshot(&self) -> ProfReport {
        ProfReport {
            busy_ns: self.busy_ns.drain(),
            idle_ns: self.idle_ns.drain(),
            wake_ns: self.wake_ns.drain(),
            push_ns: self.push_ns.drain(),
            pop_ns: self.pop_ns.drain(),
            stall_ns: self.stall_ns.snapshot(),
        }
    }
}

/// Counters and distribution sketches the core maintains under its lock.
/// Depth/occupancy samples go straight into the shared log-bucketed
/// histogram type, so dispatch-time sampling stays O(1) and the report
/// answers percentile queries exactly like the `prof/*` metrics do.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecutorReport {
    /// Execution slots in the pool (`nranks` when unbounded).
    pub workers: usize,
    /// Simulated ranks served.
    pub nranks: usize,
    /// Lookahead horizon `L`, seconds.
    pub lookahead_s: f64,
    /// Total task admissions (initial + every recv re-admission).
    pub admissions: u64,
    /// Admissions a global min-clock barrier would have delayed: the
    /// admitted task's clock was strictly ahead of the slowest admitted
    /// rank's known clock.
    pub lookahead_grants: u64,
    /// Dispatch attempts stopped by the horizon: slots were free and a
    /// task was ready, but it was more than `L` ahead of the slowest
    /// running rank.
    pub horizon_waits: u64,
    /// Admissions granted *only because* a per-pair bound widened the
    /// horizon: the admitted task's clock was beyond `floor + L` (the
    /// scalar horizon) but within the pair's delivery bound. Zero
    /// whenever no [`PairBound`] is attached — i.e. on the star, where
    /// every pair bound equals the global minimum.
    pub pair_grants: u64,
    /// Ready-queue depth sampled at each dispatch (log-bucketed; exact
    /// count/sum/extremes, percentile queries via
    /// [`LogHistogram::quantile`]).
    pub depth_hist: LogHistogram,
    /// Occupied-slot count sampled at each admission, same bucketing.
    pub occupancy_hist: LogHistogram,
    /// Peak ready-queue depth.
    pub max_ready_depth: usize,
    /// Peak simultaneously admitted tasks.
    pub max_occupancy: usize,
    /// Host-time latency distributions; `Some` only when the core ran
    /// with profiling enabled.
    pub prof: Option<ProfReport>,
}

impl ExecutorReport {
    fn sample_depth(&mut self, depth: usize) {
        self.depth_hist.observe(depth as f64);
        self.max_ready_depth = self.max_ready_depth.max(depth);
    }

    fn sample_occupancy(&mut self, running: usize) {
        self.occupancy_hist.observe(running as f64);
        self.max_occupancy = self.max_occupancy.max(running);
    }

    /// Mean ready-queue depth over dispatch samples (exact: the shared
    /// histogram keeps the true sum, not a bucket-midpoint estimate).
    pub fn mean_ready_depth(&self) -> f64 {
        self.depth_hist.mean()
    }

    /// Publish the report into a telemetry registry under `executor/*`
    /// metric names, labelled by `label` (normally the policy label);
    /// host-time `prof/*` distributions ride along when profiling ran.
    pub fn record_into(&self, reg: &mut mb_telemetry::metrics::Registry, label: &str) {
        reg.count("executor/admissions", label, self.admissions);
        reg.count("executor/lookahead_grants", label, self.lookahead_grants);
        reg.count("executor/horizon_waits", label, self.horizon_waits);
        reg.count("executor/pair_grants", label, self.pair_grants);
        reg.record_gauge("executor/workers", label, self.workers as f64);
        reg.record_gauge("executor/lookahead_s", label, self.lookahead_s);
        reg.record_gauge(
            "executor/max_ready_depth",
            label,
            self.max_ready_depth as f64,
        );
        reg.record_gauge("executor/max_occupancy", label, self.max_occupancy as f64);
        reg.set_histogram("executor/ready_depth", label, self.depth_hist.to_metric());
        reg.set_histogram("executor/occupancy", label, self.occupancy_hist.to_metric());
        if let Some(p) = &self.prof {
            p.record_into(reg, label);
        }
    }
}

/// One rank's parking spot: the flag is "admitted", flipped by the
/// dispatcher under the gate lock, then signalled with `notify_one`. The
/// profiling stamps live behind the same lock: `granted_at` is written
/// by the dispatcher and consumed by the woken task (wake-to-run
/// latency); `busy_since` is written by the task as it resumes and
/// consumed by its own `release` (slot-held span). Both stay `None` with
/// profiling off.
struct Gate {
    slot: Mutex<GateSlot>,
    cv: Condvar,
}

#[derive(Default)]
struct GateSlot {
    admitted: bool,
    granted_at: Option<Instant>,
    busy_since: Option<Instant>,
}

struct CoreState {
    running: usize,
    ready: usize,
    tasks: Vec<TaskState>,
    /// Min-heap of `(clock_key, rank)` over Ready tasks; entries are
    /// lazily invalidated (valid iff the rank is still Ready at that
    /// exact clock).
    ready_heap: BinaryHeap<Reverse<(u64, usize)>>,
    /// Min-heap of `(clock_key, rank)` over Running tasks' admission
    /// clocks; same lazy invalidation.
    running_heap: BinaryHeap<Reverse<(u64, usize)>>,
    report: ExecutorReport,
    /// When the queue head is horizon-blocked and profiling is on: the
    /// host instant the stall began (cleared at the next admission).
    stall_since: Option<Instant>,
}

impl CoreState {
    /// Clock (and rank) of the slowest admitted task, if any (lower
    /// bound: running tasks only ever advance past their admission
    /// clock). The rank identity is what per-pair horizon bounds are
    /// evaluated against.
    fn min_running(&mut self) -> Option<(f64, usize)> {
        while let Some(&Reverse((key, rank))) = self.running_heap.peek() {
            match self.tasks[rank] {
                TaskState::Running(c) if clock_key(c) == key => return Some((c, rank)),
                _ => {
                    self.running_heap.pop();
                }
            }
        }
        None
    }

    /// Pop the valid ready minimum, if any.
    fn peek_ready(&mut self) -> Option<(f64, usize)> {
        while let Some(&Reverse((key, rank))) = self.ready_heap.peek() {
            match self.tasks[rank] {
                TaskState::Ready(c) if clock_key(c) == key => return Some((c, rank)),
                _ => {
                    self.ready_heap.pop();
                }
            }
        }
        None
    }
}

/// The event-driven executor core. The communicator's slot-handoff
/// protocol: a rank blocks in [`EventCore::acquire`] until it may make
/// host progress, and calls [`EventCore::release`] whenever it is about
/// to block on a message (or has finished).
pub struct EventCore {
    workers: usize,
    lookahead_s: f64,
    /// Topology-aware per-pair horizon bounds; `None` keeps the scalar
    /// `lookahead_s` for every pair (the star).
    pair_bounds: Option<Arc<dyn PairBound>>,
    state: Mutex<CoreState>,
    gates: Vec<Gate>,
    /// Host-time accumulators; `None` (zero overhead beyond the branch)
    /// unless profiling was requested.
    prof: Option<CoreProf>,
    /// Optional structured event sink: rare scheduling events (horizon
    /// stalls) are logged here when profiling is on.
    event_log: Option<Arc<EventLog>>,
}

impl EventCore {
    /// A core with `workers` execution slots serving `nranks` tasks and a
    /// lookahead horizon of `lookahead_s` virtual seconds.
    pub fn new(workers: usize, nranks: usize, lookahead_s: f64) -> Self {
        let workers = workers.max(1);
        EventCore {
            workers,
            lookahead_s,
            pair_bounds: None,
            state: Mutex::new(CoreState {
                running: 0,
                ready: 0,
                tasks: vec![TaskState::Blocked; nranks],
                ready_heap: BinaryHeap::with_capacity(nranks),
                running_heap: BinaryHeap::with_capacity(nranks),
                report: ExecutorReport {
                    workers,
                    nranks,
                    lookahead_s,
                    ..ExecutorReport::default()
                },
                stall_since: None,
            }),
            gates: (0..nranks)
                .map(|_| Gate {
                    slot: Mutex::new(GateSlot::default()),
                    cv: Condvar::new(),
                })
                .collect(),
            prof: None,
            event_log: None,
        }
    }

    /// Enable (or disable) host-time profiling. Profiling observes only
    /// the **host** clock — admission waits, gate wake latency, heap
    /// costs — and never a virtual clock, so simulated outcomes are
    /// bit-identical with it on or off (regressed by
    /// `tests/determinism.rs`).
    pub fn with_profiling(mut self, on: bool) -> Self {
        let nranks = self.gates.len();
        self.prof = on.then(|| CoreProf::new(nranks));
        self
    }

    /// Attach a structured event log; only consulted when profiling is
    /// on.
    pub fn with_event_log(mut self, log: Arc<EventLog>) -> Self {
        self.event_log = Some(log);
        self
    }

    /// True when host-time profiling is enabled.
    pub fn profiling(&self) -> bool {
        self.prof.is_some()
    }

    /// Attach topology-aware per-pair horizon bounds: dispatch evaluates
    /// `bounds.bound_s(floor_rank, candidate)` instead of the scalar
    /// horizon. Every pair bound must be ≥ the scalar (the network
    /// model's per-pair bounds are, by construction: a route crosses at
    /// least one hop), so admission is never more conservative than the
    /// global-minimum baseline.
    pub fn with_pair_bounds(mut self, bounds: Arc<dyn PairBound>) -> Self {
        self.pair_bounds = Some(bounds);
        self
    }

    /// Execution slots in the pool.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Snapshot of the executor counters (plus the host-time profile
    /// when profiling is on).
    pub fn report(&self) -> ExecutorReport {
        let mut rep = self.state.lock().expect("event core lock").report.clone();
        rep.prof = self.prof.as_ref().map(CoreProf::snapshot);
        rep
    }

    /// Admit every admissible ready task while slots are free. Called
    /// with the state lock held, on every arrival and release.
    fn dispatch(&self, st: &mut CoreState) {
        let depth = st.ready;
        st.report.sample_depth(depth);
        while st.running < self.workers {
            let t_pop = self.prof.as_ref().map(|_| Instant::now());
            let Some((clock, rank)) = st.peek_ready() else {
                break;
            };
            let min_running = st.min_running();
            if let Some((floor, floor_rank)) = min_running {
                let horizon = match &self.pair_bounds {
                    // The pair bound: how soon could the floor rank's
                    // next (still unsent) message reach this candidate?
                    Some(pb) => pb.bound_s(floor_rank, rank),
                    None => self.lookahead_s,
                };
                if clock > floor + horizon {
                    // Beyond the horizon: running it now is still *legal*
                    // (results are admission-order independent) but would
                    // let virtual-clock skew — and pending-message memory
                    // — grow unboundedly. Wait for the floor to advance.
                    st.report.horizon_waits += 1;
                    if self.prof.is_some() && st.stall_since.is_none() {
                        st.stall_since = Some(Instant::now());
                    }
                    break;
                }
            }
            st.ready_heap.pop();
            st.ready -= 1;
            st.tasks[rank] = TaskState::Running(clock);
            st.running_heap.push(Reverse((clock_key(clock), rank)));
            st.running += 1;
            st.report.admissions += 1;
            if let Some((floor, _)) = min_running {
                if clock > floor {
                    st.report.lookahead_grants += 1;
                }
                if clock > floor + self.lookahead_s {
                    // Only reachable through a per-pair bound wider than
                    // the scalar horizon.
                    st.report.pair_grants += 1;
                }
            }
            st.report.sample_occupancy(st.running);
            if let Some(p) = &self.prof {
                if let Some(t) = t_pop {
                    p.pop_ns.record_elapsed(rank, t);
                }
                if let Some(since) = st.stall_since.take() {
                    let dur_ns = since.elapsed().as_nanos() as f64;
                    p.stall_ns.record(dur_ns);
                    if let Some(log) = &self.event_log {
                        log.emit(
                            "horizon.stall",
                            &[
                                ("rank", Json::Num(rank as f64)),
                                ("dur_ns", Json::Num(dur_ns)),
                            ],
                        );
                    }
                }
            }
            let mut slot = self.gates[rank].slot.lock().expect("gate lock");
            slot.admitted = true;
            if self.prof.is_some() {
                slot.granted_at = Some(Instant::now());
            }
            self.gates[rank].cv.notify_one();
        }
    }

    /// Block until `rank` (at virtual time `clock`) is admitted.
    pub fn acquire(&self, rank: usize, clock: f64) {
        let t_enter = self.prof.as_ref().map(|_| Instant::now());
        {
            let mut st = self.state.lock().expect("event core lock");
            debug_assert!(
                !matches!(st.tasks[rank], TaskState::Running(_)),
                "acquire while running"
            );
            st.tasks[rank] = TaskState::Ready(clock);
            let t_push = self.prof.as_ref().map(|_| Instant::now());
            st.ready_heap.push(Reverse((clock_key(clock), rank)));
            st.ready += 1;
            if let (Some(p), Some(t)) = (&self.prof, t_push) {
                p.push_ns.record_elapsed(rank, t);
            }
            self.dispatch(&mut st);
        }
        let mut slot = self.gates[rank].slot.lock().expect("gate lock");
        while !slot.admitted {
            slot = self.gates[rank].cv.wait(slot).expect("gate wait");
        }
        slot.admitted = false;
        if let Some(p) = &self.prof {
            if let Some(granted) = slot.granted_at.take() {
                p.wake_ns.record_elapsed(rank, granted);
            }
            if let Some(t) = t_enter {
                p.idle_ns.record_elapsed(rank, t);
            }
            slot.busy_since = Some(Instant::now());
        }
    }

    /// Give up `rank`'s slot (about to block on a message, or finished).
    pub fn release(&self, rank: usize) {
        if let Some(p) = &self.prof {
            // Safe to take the gate lock before the core lock here: the
            // dispatcher only touches gates of *Ready* tasks, and `rank`
            // stays Running until the state update below.
            let busy = self.gates[rank]
                .slot
                .lock()
                .expect("gate lock")
                .busy_since
                .take();
            if let Some(since) = busy {
                p.busy_ns.record_elapsed(rank, since);
            }
        }
        let mut st = self.state.lock().expect("event core lock");
        debug_assert!(
            matches!(st.tasks[rank], TaskState::Running(_)),
            "release without slot"
        );
        st.tasks[rank] = TaskState::Blocked;
        st.running -= 1;
        self.dispatch(&mut st);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn clock_key_preserves_order() {
        let vals = [-2.0, -0.5, -0.0, 0.0, 1e-12, 85e-6, 1.0, 1e9];
        for w in vals.windows(2) {
            assert!(clock_key(w[0]) <= clock_key(w[1]), "{} vs {}", w[0], w[1]);
        }
        assert!(clock_key(-1.0) < clock_key(1.0));
    }

    #[test]
    fn core_never_exceeds_worker_count() {
        let nranks = 12;
        for workers in [1usize, 3] {
            let core = Arc::new(EventCore::new(workers, nranks, 1.0));
            let running = Arc::new(AtomicUsize::new(0));
            let peak = Arc::new(AtomicUsize::new(0));
            std::thread::scope(|scope| {
                for rank in 0..nranks {
                    let core = Arc::clone(&core);
                    let running = Arc::clone(&running);
                    let peak = Arc::clone(&peak);
                    scope.spawn(move || {
                        for round in 0..16 {
                            core.acquire(rank, round as f64 + rank as f64 / 100.0);
                            let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                            peak.fetch_max(now, Ordering::SeqCst);
                            std::thread::yield_now();
                            running.fetch_sub(1, Ordering::SeqCst);
                            core.release(rank);
                        }
                    });
                }
            });
            assert!(
                peak.load(Ordering::SeqCst) <= workers,
                "peak concurrency {} exceeded {workers} workers",
                peak.load(Ordering::SeqCst)
            );
            let rep = core.report();
            assert_eq!(rep.admissions, (nranks * 16) as u64);
            assert!(rep.max_occupancy <= workers);
        }
    }

    #[test]
    fn single_slot_admission_is_lowest_clock_first() {
        // With one slot and all tasks queued before any admission, the
        // heap hands out slots in (clock, rank) order.
        let nranks = 6;
        let core = Arc::new(EventCore::new(1, nranks, 0.0));
        let order = Arc::new(Mutex::new(Vec::new()));
        core.acquire(0, -1.0);
        std::thread::scope(|scope| {
            for rank in 1..nranks {
                let core = Arc::clone(&core);
                let order = Arc::clone(&order);
                scope.spawn(move || {
                    core.acquire(rank, (nranks - rank) as f64);
                    order.lock().unwrap().push(rank);
                    core.release(rank);
                });
            }
            while core.state.lock().unwrap().ready < nranks - 1 {
                std::thread::yield_now();
            }
            core.release(0);
        });
        assert_eq!(*order.lock().unwrap(), vec![5, 4, 3, 2, 1]);
    }

    #[test]
    fn horizon_defers_far_future_tasks_while_one_runs() {
        // Rank 0 holds a slot at clock 0; a task 10 s ahead must wait
        // even though a second slot is free, and a task inside the
        // horizon must be admitted through it.
        let core = EventCore::new(2, 3, 1.0);
        core.acquire(0, 0.0);
        let near_admitted = Arc::new(AtomicUsize::new(0));
        let far_admitted = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|scope| {
            {
                let core = &core;
                let far_admitted = Arc::clone(&far_admitted);
                scope.spawn(move || {
                    core.acquire(1, 10.0);
                    far_admitted.store(1, Ordering::SeqCst);
                    core.release(1);
                });
            }
            // Give the far task a chance to (wrongly) get in.
            while core.state.lock().unwrap().ready < 1 {
                std::thread::yield_now();
            }
            std::thread::yield_now();
            assert_eq!(
                far_admitted.load(Ordering::SeqCst),
                0,
                "10 s > 0 + 1 s horizon"
            );
            {
                let core = &core;
                let near_admitted = Arc::clone(&near_admitted);
                scope.spawn(move || {
                    core.acquire(2, 0.5);
                    near_admitted.store(1, Ordering::SeqCst);
                    core.release(2);
                });
            }
            // The near task (0.5 ≤ 0 + 1.0) rides through the horizon
            // while rank 0 still runs: a lookahead grant.
            while near_admitted.load(Ordering::SeqCst) == 0 {
                std::thread::yield_now();
            }
            // Far task still parked until rank 0 releases and the floor
            // becomes 10.0's own clock.
            assert_eq!(far_admitted.load(Ordering::SeqCst), 0);
            core.release(0);
        });
        assert_eq!(far_admitted.load(Ordering::SeqCst), 1);
        let rep = core.report();
        assert!(rep.horizon_waits >= 1, "far task deferred: {rep:?}");
        assert!(rep.lookahead_grants >= 1, "near task granted: {rep:?}");
    }

    struct FarPairs {
        wide_s: f64,
    }
    impl PairBound for FarPairs {
        fn bound_s(&self, _from: usize, _to: usize) -> f64 {
            self.wide_s
        }
    }

    #[test]
    fn pair_bounds_widen_the_horizon_and_count_pair_grants() {
        // Scalar horizon 1 s; the pair bound says these ranks are 100 s
        // of delivery delay apart. A task 10 s ahead of the floor must
        // now be admitted (and counted as a pair grant), where the
        // scalar core defers it — same setup as
        // `horizon_defers_far_future_tasks_while_one_runs`.
        let core = EventCore::new(2, 2, 1.0).with_pair_bounds(Arc::new(FarPairs { wide_s: 100.0 }));
        core.acquire(0, 0.0);
        let far_admitted = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|scope| {
            {
                let core = &core;
                let far_admitted = Arc::clone(&far_admitted);
                scope.spawn(move || {
                    core.acquire(1, 10.0);
                    far_admitted.store(1, Ordering::SeqCst);
                    core.release(1);
                });
            }
            while far_admitted.load(Ordering::SeqCst) == 0 {
                std::thread::yield_now();
            }
            core.release(0);
        });
        let rep = core.report();
        assert_eq!(
            rep.horizon_waits, 0,
            "wide pair bound never stalls: {rep:?}"
        );
        assert!(rep.pair_grants >= 1, "10 s > 0 + 1 s scalar: {rep:?}");
        assert!(rep.lookahead_grants >= rep.pair_grants);
    }

    #[test]
    fn tight_pair_bounds_behave_like_the_scalar_horizon() {
        // A pair bound equal to the scalar horizon must defer exactly
        // like the scalar core — and record zero pair grants.
        let core = EventCore::new(2, 2, 1.0).with_pair_bounds(Arc::new(FarPairs { wide_s: 1.0 }));
        core.acquire(0, 0.0);
        let far_admitted = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|scope| {
            {
                let core = &core;
                let far_admitted = Arc::clone(&far_admitted);
                scope.spawn(move || {
                    core.acquire(1, 10.0);
                    far_admitted.store(1, Ordering::SeqCst);
                    core.release(1);
                });
            }
            while core.state.lock().unwrap().ready < 1 {
                std::thread::yield_now();
            }
            std::thread::yield_now();
            assert_eq!(far_admitted.load(Ordering::SeqCst), 0, "10 s > 0 + 1 s");
            core.release(0);
        });
        assert_eq!(far_admitted.load(Ordering::SeqCst), 1);
        let rep = core.report();
        assert!(rep.horizon_waits >= 1);
        assert_eq!(rep.pair_grants, 0);
    }

    #[test]
    fn report_histograms_use_shared_log_buckets() {
        let mut r = ExecutorReport::default();
        for d in [0usize, 1, 2, 3, 1024] {
            r.sample_depth(d);
        }
        assert_eq!(r.depth_hist.count(), 5);
        assert_eq!(r.max_ready_depth, 1024);
        assert_eq!(r.depth_hist.max(), 1024.0);
        // The shared histogram keeps the true sum: mean is now exact,
        // not a bucket-midpoint estimate.
        assert!((r.mean_ready_depth() - 206.0).abs() < 1e-12);
        // And percentile queries come for free.
        assert!(r.depth_hist.p50() <= r.depth_hist.p99());
    }

    #[test]
    fn report_record_into_publishes_compact_histograms() {
        let mut r = ExecutorReport::default();
        for d in [1usize, 1, 8, 300] {
            r.sample_depth(d);
            r.sample_occupancy(d.min(4));
        }
        r.admissions = 4;
        let mut reg = mb_telemetry::metrics::Registry::new();
        r.record_into(&mut reg, "w4");
        match reg.find("executor/ready_depth", "w4").unwrap() {
            mb_telemetry::metrics::MetricValue::Histogram(h) => {
                assert_eq!(h.n, 4);
                assert_eq!(h.counts.iter().sum::<u64>(), 4);
                // Compacted: 3 occupied buckets, not a fixed 16.
                assert_eq!(h.bounds.len(), 3);
            }
            _ => panic!("not a histogram"),
        }
        // No prof section → no prof/* metrics.
        assert!(reg.find("prof/task.busy_ns", "w4").is_none());
    }

    #[test]
    fn profiled_core_records_host_latencies_without_changing_counters() {
        let nranks = 8;
        let rounds = 12;
        let run = |prof: bool| {
            let core = Arc::new(EventCore::new(2, nranks, 1.0).with_profiling(prof));
            std::thread::scope(|scope| {
                for rank in 0..nranks {
                    let core = Arc::clone(&core);
                    scope.spawn(move || {
                        for round in 0..rounds {
                            core.acquire(rank, round as f64 + rank as f64 / 100.0);
                            std::thread::yield_now();
                            core.release(rank);
                        }
                    });
                }
            });
            core.report()
        };
        let plain = run(false);
        let profiled = run(true);
        // Scheduling counters are identical in distribution-free terms:
        // total admissions cannot depend on whether we timed them.
        assert_eq!(plain.admissions, (nranks * rounds) as u64);
        assert_eq!(profiled.admissions, plain.admissions);
        assert!(plain.prof.is_none());
        let p = profiled.prof.expect("profiling enabled");
        let total = (nranks * rounds) as u64;
        assert_eq!(p.busy_ns.count(), total, "one busy span per admission");
        assert_eq!(p.idle_ns.count(), total, "one admission wait per acquire");
        assert_eq!(p.wake_ns.count(), total, "one wake per grant");
        assert_eq!(p.push_ns.count(), total);
        assert_eq!(p.pop_ns.count(), total);
        assert!(p.busy_ns.max() > 0.0, "spans take measurable host time");
        assert!(p.busy_ns.p50() <= p.busy_ns.p999());
    }

    #[test]
    fn profiled_horizon_stalls_are_timed_and_logged() {
        let log = Arc::new(EventLog::new());
        let core = EventCore::new(2, 2, 1.0)
            .with_profiling(true)
            .with_event_log(Arc::clone(&log));
        core.acquire(0, 0.0);
        std::thread::scope(|scope| {
            {
                let core = &core;
                scope.spawn(move || {
                    core.acquire(1, 10.0); // beyond 0 + 1 s horizon: stalls
                    core.release(1);
                });
            }
            while core.state.lock().unwrap().ready < 1 {
                std::thread::yield_now();
            }
            std::thread::yield_now();
            core.release(0); // floor advances; rank 1 admitted, stall ends
        });
        let rep = core.report();
        let p = rep.prof.expect("profiling on");
        assert!(rep.horizon_waits >= 1);
        assert_eq!(p.stall_ns.count(), 1, "one stall span");
        assert!(p.stall_ns.max() > 0.0);
        assert_eq!(log.len(), 1, "stall logged to the event sink");
        let line = log.to_jsonl();
        assert!(line.contains("\"kind\":\"horizon.stall\""), "{line}");
    }
}
