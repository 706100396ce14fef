//! Timing proxies for the four traits `simulate_stream` takes.
//!
//! Each proxy forwards to the real implementation and times the call
//! through the [`Tracer`]; the policy and admission proxies also count
//! what the engine asked and what came back. Untraced runs never use
//! them, so the measured end-to-end numbers carry no proxy cost.

use std::cell::{Cell, RefCell};

use mb_cluster::{ClusterSpec, NodeSet};
use mb_sched::{
    AdmissionControl, AdmissionCtx, Arrival, ArrivalSource, PolicyCtx, SchedPolicy, ServiceOracle,
    StepProfile, WorkModel,
};
use mb_telemetry::prof::LogHistogram;

use crate::tracer::{CallId, Tracer};

pub const ARRIVAL: &str = "ArrivalSource";
pub const ADMISSION: &str = "AdmissionControl::admit";
pub const POLICY: &str = "SchedPolicy::select";
pub const COST: &str = "ServiceOracle::step_profile_on";

/// Times `peek_s` and `next_arrival` of the wrapped source.
pub struct Arrivals<'t, A> {
    inner: A,
    tracer: &'t Tracer,
    id: CallId,
}

impl<'t, A: ArrivalSource> Arrivals<'t, A> {
    pub fn new(inner: A, tracer: &'t Tracer) -> Self {
        let id = tracer.call_id(ARRIVAL);
        Self { inner, tracer, id }
    }
}

impl<A: ArrivalSource> ArrivalSource for Arrivals<'_, A> {
    fn peek_s(&mut self) -> Option<f64> {
        let inner = &mut self.inner;
        self.tracer.call(self.id, || inner.peek_s())
    }

    fn next_arrival(&mut self) -> Option<Arrival> {
        let inner = &mut self.inner;
        self.tracer.call(self.id, || inner.next_arrival())
    }
}

/// Times `admit` and counts decisions per *requested* class.
pub struct Admission<'t, A> {
    inner: A,
    tracer: &'t Tracer,
    id: CallId,
    /// Arrivals admitted (into any class), by requested class.
    pub admitted: Vec<u64>,
    /// Arrivals shed, by requested class.
    pub shed: Vec<u64>,
}

impl<'t, A: AdmissionControl> Admission<'t, A> {
    pub fn new(inner: A, tracer: &'t Tracer) -> Self {
        let id = tracer.call_id(ADMISSION);
        let n = inner.class_labels().len();
        Self {
            inner,
            tracer,
            id,
            admitted: vec![0; n],
            shed: vec![0; n],
        }
    }
}

impl<A: AdmissionControl> AdmissionControl for Admission<'_, A> {
    fn class_labels(&self) -> Vec<String> {
        self.inner.class_labels()
    }

    fn admit(&mut self, arrival: &Arrival, ctx: &AdmissionCtx) -> Option<usize> {
        let inner = &mut self.inner;
        let decision = self.tracer.call(self.id, || inner.admit(arrival, ctx));
        // Same clamp the engine applies before it counts the offer.
        let asked = arrival.class.min(self.admitted.len() - 1);
        match decision {
            Some(_) => self.admitted[asked] += 1,
            None => self.shed[asked] += 1,
        }
        decision
    }
}

/// Times `select` and records the queue depth it saw and the picks it
/// returned.
pub struct Policy<'t, P> {
    inner: P,
    tracer: &'t Tracer,
    id: CallId,
    pub queue_depth: RefCell<LogHistogram>,
    pub picks: Cell<u64>,
}

impl<'t, P: SchedPolicy> Policy<'t, P> {
    pub fn new(inner: P, tracer: &'t Tracer) -> Self {
        let id = tracer.call_id(POLICY);
        Self {
            inner,
            tracer,
            id,
            queue_depth: RefCell::new(LogHistogram::new()),
            picks: Cell::new(0),
        }
    }
}

impl<P: SchedPolicy> SchedPolicy for Policy<'_, P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn select(&self, ctx: &PolicyCtx) -> Vec<usize> {
        let picks = self.tracer.call(self.id, || self.inner.select(ctx));
        self.queue_depth
            .borrow_mut()
            .observe(ctx.queue.len() as f64);
        self.picks.set(self.picks.get() + picks.len() as u64);
        picks
    }
}

/// Times every priced step. The provided `step_on`/`step_s`/`work_s`
/// route through `step_profile_on`, so every pricing path is timed once.
pub struct Oracle<'t, S> {
    inner: &'t S,
    tracer: &'t Tracer,
    id: CallId,
}

impl<'t, S: ServiceOracle> Oracle<'t, S> {
    pub fn new(inner: &'t S, tracer: &'t Tracer) -> Self {
        let id = tracer.call_id(COST);
        Self { inner, tracer, id }
    }
}

impl<S: ServiceOracle> ServiceOracle for Oracle<'_, S> {
    fn spec(&self) -> &ClusterSpec {
        self.inner.spec()
    }

    fn step_profile_on(&self, work: &WorkModel, nodes: &NodeSet) -> StepProfile {
        self.tracer
            .call(self.id, || self.inner.step_profile_on(work, nodes))
    }
}
