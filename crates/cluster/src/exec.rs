//! The deterministic rank executor: how simulated SPMD ranks map onto
//! host OS threads.
//!
//! Every rank always runs on its own scoped thread (a blocked `recv` must
//! be able to suspend mid-closure), but *how many ranks make host
//! progress at once* is an [`ExecPolicy`]. One engine serves every
//! policy: the event-driven [`crate::event::EventCore`] (heap-ordered
//! ready queue, per-rank lookahead, per-rank wakeups).
//!
//! * [`ExecPolicy::Parallel`] — at most `workers` ranks hold an
//!   *execution slot* at any instant. This bounds host CPU/memory
//!   pressure for big sweeps without changing any simulated result;
//!   `workers == 1` (label `seq`) runs one rank at a time.
//! * [`ExecPolicy::Unbounded`] — every rank is admissible at all times:
//!   the `workers == nranks` special case. The default.
//!
//! **Determinism does not depend on the admission order.** The
//! communicator's receives name their source rank and are FIFO per
//! (source, tag), so a rank's virtual clock is a pure function of its own
//! event sequence and its senders' timestamps. The executor therefore
//! only decides *wall-clock* behaviour; `SpmdOutcome`s are bit-identical
//! under every policy (test-enforced at 1/4/8/24/256 ranks, and pinned
//! end-to-end against golden fingerprints by `tests/determinism.rs`).
//! The core's lookahead horizon exists only to bound virtual-clock skew
//! between ranks, and with it the pending-message buffers — see
//! [`crate::event`].
//!
//! A rank releases its slot whenever it would block the host thread
//! waiting for a message, and re-applies for one (at its current virtual
//! clock) once the message has arrived, so bounded policies stay
//! work-conserving: a free slot is never left idle while any rank is
//! runnable.

/// How simulated ranks are mapped onto host worker threads. See the
/// [module docs](self) for the determinism argument.
///
/// The default comes from the `MB_PARALLEL` environment variable:
/// unset/empty → `Unbounded`, `0`/`1`/`seq`/`sequential` →
/// `Parallel { workers: 1 }`, `N` → `Parallel { workers: N }`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecPolicy {
    /// At most `workers` ranks make progress at once (`workers ≥ 1`).
    Parallel {
        /// Concurrent execution slots.
        workers: usize,
    },
    /// Every rank is runnable at all times (one OS thread each).
    #[default]
    Unbounded,
}

impl ExecPolicy {
    /// The policy selected by `MB_PARALLEL` (see type docs), defaulting
    /// to [`ExecPolicy::Unbounded`] when unset or unparsable.
    pub fn from_env() -> Self {
        match std::env::var("MB_PARALLEL") {
            Ok(v) => Self::parse(&v).unwrap_or(ExecPolicy::Unbounded),
            Err(_) => ExecPolicy::Unbounded,
        }
    }

    /// Parse an `MB_PARALLEL`-style value.
    pub fn parse(v: &str) -> Option<Self> {
        match v.trim() {
            "" => Some(ExecPolicy::Unbounded),
            "seq" | "sequential" => Some(ExecPolicy::Parallel { workers: 1 }),
            n => n
                .parse::<usize>()
                .ok()
                .map(|w| ExecPolicy::Parallel { workers: w.max(1) }),
        }
    }

    /// Concurrent execution slots, `None` when unbounded.
    pub fn workers(&self) -> Option<usize> {
        match *self {
            ExecPolicy::Parallel { workers } => Some(workers.max(1)),
            ExecPolicy::Unbounded => None,
        }
    }

    /// Human-readable label ("seq", "w4", "unbounded") for bench output.
    pub fn label(&self) -> String {
        match self.workers() {
            Some(1) => "seq".into(),
            Some(w) => format!("w{w}"),
            None => "unbounded".into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_parses_env_values() {
        let seq = Some(ExecPolicy::Parallel { workers: 1 });
        assert_eq!(ExecPolicy::parse(""), Some(ExecPolicy::Unbounded));
        for v in ["seq", "sequential", "0", "1"] {
            assert_eq!(ExecPolicy::parse(v), seq, "{v:?} is width 1");
        }
        assert_eq!(
            ExecPolicy::parse(" 8 "),
            Some(ExecPolicy::Parallel { workers: 8 })
        );
        assert_eq!(ExecPolicy::parse("gibberish"), None);
    }

    #[test]
    fn policy_reports_workers_and_labels() {
        let seq = ExecPolicy::Parallel { workers: 1 };
        assert_eq!(seq.workers(), Some(1));
        assert_eq!(ExecPolicy::Parallel { workers: 4 }.workers(), Some(4));
        assert_eq!(ExecPolicy::Unbounded.workers(), None);
        assert_eq!(seq.label(), "seq");
        assert_eq!(ExecPolicy::Parallel { workers: 4 }.label(), "w4");
        assert_eq!(ExecPolicy::Unbounded.label(), "unbounded");
    }
}
