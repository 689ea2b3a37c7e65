//! One hosted incremental-program instance: an [`Engine`], its input
//! list, its output modifiable, and the request history that makes the
//! session rebuildable from bytes.
//!
//! # Snapshot / restore (DESIGN.md §15)
//!
//! A session snapshot is **inputs + history**, not trace bits: the spec
//! that opened the session (workload, `n`, seed, policy) followed by
//! every edit batch and observation applied since, framed by the
//! versioned [`ceal_runtime::snapshot`] container. Restoring re-runs
//! the program from scratch and replays the history through the same
//! code paths the live session used — so the restored engine's trace,
//! deterministic [`OpCounters`] and event-stream digest are *identical*
//! to a never-evicted session's, which the round-trip tests assert via
//! the digest oracle. Replay cost is bounded in practice by the LRU
//! eviction policy (cold sessions have short tails of recent history)
//! and is the v1 trade the paper's model makes natural: a from-scratch
//! run is always a correct fallback, and propagation makes the replay
//! of each subsequent batch cheap (§2).

use std::sync::Arc;

use ceal_runtime::prelude::*;
use ceal_runtime::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use ceal_suite::input::{random_ints, EditList};
use ceal_suite::sac::reduce::build_reduce;

use crate::wire::{CounterDelta, EditOp, PolicyArg, Workload};

/// Body-format version tag for session snapshots (bumped independently
/// of the container version).
const SESSION_SNAPSHOT_TAG: u8 = 1;

/// The parameters that opened a session; everything needed to re-run it
/// from scratch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SessionSpec {
    /// Hosted program.
    pub workload: Workload,
    /// Input-list length.
    pub n: u32,
    /// Input-data seed.
    pub seed: u64,
    /// Propagation policy.
    pub policy: PolicyArg,
}

/// One replayable request in a session's history.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SessionOp {
    /// An edit batch (the requested ops, pre-elision).
    Edit(Vec<EditOp>),
    /// An observation (significant under the demand policy: it places
    /// the demand-clean passes).
    Observe,
}

/// Per-shard cache of built programs: sessions hosting the same
/// workload on one shard share the immutable [`Program`] through an
/// `Arc` (programs are engine-independent; `FuncId`s are deterministic
/// per builder, so shared and per-session builds are interchangeable).
#[derive(Debug, Default)]
pub struct ProgramCache {
    built: std::collections::HashMap<Workload, (Arc<Program>, FuncId)>,
}

impl ProgramCache {
    /// Returns (building on first use) the program for `w`.
    pub fn get(&mut self, w: Workload) -> (Arc<Program>, FuncId) {
        self.built
            .entry(w)
            .or_insert_with(|| {
                let mut b = ProgramBuilder::new();
                let fns = match w {
                    Workload::Sum => {
                        build_reduce(&mut b, "sum", |_e, a, c, _p| Value::Int(a.int() + c.int()))
                    }
                    Workload::Min => build_reduce(&mut b, "minimum", |_e, a, c, _p| {
                        Value::Int(a.int().min(c.int()))
                    }),
                };
                (b.build(), fns.entry)
            })
            .clone()
    }
}

fn engine_policy(p: PolicyArg) -> PropagationPolicy {
    match p {
        PolicyArg::Eager => PropagationPolicy::Eager,
        PolicyArg::Demand => PropagationPolicy::Demand,
    }
}

/// A live hosted session. `Session` owns an [`Engine`] and is therefore
/// deliberately **not** `Send`: it is created, driven and dropped on
/// its owning shard thread (see the crate-level Send audit).
#[derive(Debug)]
pub struct Session {
    spec: SessionSpec,
    engine: Engine,
    list: EditList,
    out: ModRef,
    history: Vec<SessionOp>,
    /// LRU stamp, maintained by the shard.
    pub(crate) last_used: u64,
    /// Per-site work tally for slow-request attribution, installed by
    /// [`Session::enable_tracing`] (shared with the engine's event-hook
    /// slot through the forwarding `Arc<Mutex<_>>` impl).
    tally: Option<Arc<std::sync::Mutex<ceal_runtime::SiteTally>>>,
}

impl Session {
    /// Opens a session: builds the input list and runs the program from
    /// scratch.
    pub fn open(spec: SessionSpec, programs: &mut ProgramCache) -> Session {
        let (prog, entry) = programs.get(spec.workload);
        let config = EngineConfig::new().policy(engine_policy(spec.policy));
        let mut engine =
            Engine::with_config(prog, config).expect("session engine config is always valid");
        let data: Vec<Value> = random_ints(spec.n as usize, spec.seed)
            .into_iter()
            .map(Value::Int)
            .collect();
        let list = EditList::build(&mut engine, &data);
        let out = engine.meta_modref();
        engine.run_core(entry, &[Value::ModRef(list.head), Value::ModRef(out)]);
        Session {
            spec,
            engine,
            list,
            out,
            history: Vec::new(),
            last_used: 0,
            tally: None,
        }
    }

    /// Turns on per-request tracing for this session: engine phase
    /// profiling (drained per request with [`Session::drain_phases`])
    /// and a [`ceal_runtime::SiteTally`] hook for top-k site attribution.
    ///
    /// Called by the shard right after open/restore when the telemetry
    /// config asks for site attribution (`top_sites > 0`); note the
    /// initial from-scratch run is *not* covered — the phases that
    /// matter for slow requests are the per-request propagation ones.
    pub fn enable_tracing(&mut self) {
        self.engine.enable_profiling();
        // Discard phases recorded before tracing was requested (none
        // today — enable_tracing runs before the first traced request —
        // but drain defensively so the first request's report is clean).
        let _ = self.engine.drain_phases();
        let tally = Arc::new(std::sync::Mutex::new(ceal_runtime::SiteTally::new()));
        self.engine.set_event_hook(Box::new(Arc::clone(&tally)));
        self.tally = Some(tally);
    }

    /// Drains the engine phases recorded since the last drain,
    /// aggregated per phase kind. Empty unless
    /// [`Session::enable_tracing`] ran.
    pub fn drain_phases(&mut self) -> Vec<ceal_runtime::PhaseCost> {
        let phases = self.engine.drain_phases();
        ceal_runtime::PhaseCost::aggregate(&phases)
    }

    /// Drains the top-`k` sites by attributed work since the last
    /// drain. Empty without tracing.
    pub fn drain_top_sites(&mut self, k: usize) -> Vec<(String, u64)> {
        match &self.tally {
            Some(tally) => {
                let mut t = tally.lock().expect("site tally poisoned");
                t.drain(self.engine.sites(), k)
            }
            None => Vec::new(),
        }
    }

    /// The spec this session was opened with.
    pub fn spec(&self) -> &SessionSpec {
        &self.spec
    }

    /// Requests applied since open.
    pub fn history_len(&self) -> usize {
        self.history.len()
    }

    /// The engine's current output value *without* cleaning (eager
    /// sessions are always clean between requests; demand sessions may
    /// return a stale value — use [`Session::observe`] on the request
    /// path).
    pub fn peek(&self) -> Value {
        self.engine.deref(self.out)
    }

    /// Validates edit indices against the list length.
    pub fn check_ops(&self, ops: &[EditOp]) -> Result<(), u32> {
        let n = self.list.len() as u32;
        for op in ops {
            let (EditOp::Delete(i) | EditOp::Restore(i)) = *op;
            if i >= n {
                return Err(i);
            }
        }
        Ok(())
    }

    /// Applies one edit batch as a transaction ([`Engine::batch`] +
    /// commit: one coalesced propagation pass under the eager policy,
    /// deferred dirty marks under demand). Returns `(applied, elided,
    /// cost)`.
    ///
    /// Callers must have validated indices with [`Session::check_ops`];
    /// the history records the *requested* ops so elision decisions
    /// replay identically.
    pub fn apply_edits(&mut self, ops: &[EditOp]) -> (u32, u32, CounterDelta) {
        let before = OpCounters::from_stats(self.engine.stats());
        let mut applied = 0u32;
        let mut elided = 0u32;
        {
            let mut batch = self.engine.batch();
            for op in ops {
                let changed = match *op {
                    EditOp::Delete(i) => self.list.delete(&mut batch, i as usize),
                    EditOp::Restore(i) => self.list.restore(&mut batch, i as usize),
                };
                if changed {
                    applied += 1;
                } else {
                    elided += 1;
                }
            }
            batch.commit();
        }
        self.history.push(SessionOp::Edit(ops.to_vec()));
        let after = OpCounters::from_stats(self.engine.stats());
        (
            applied,
            elided,
            CounterDelta::from_counters(&after.delta(&before)),
        )
    }

    /// Observes the output: under the demand policy this runs the
    /// coalesced demand-clean pass first; under eager it is a plain
    /// deref.
    pub fn observe(&mut self) -> (Value, CounterDelta) {
        let before = OpCounters::from_stats(self.engine.stats());
        let v = self.engine.observe(self.out);
        self.history.push(SessionOp::Observe);
        let after = OpCounters::from_stats(self.engine.stats());
        (v, CounterDelta::from_counters(&after.delta(&before)))
    }

    /// Estimated resident cost of the session, used by the shard's
    /// memory-budget eviction. `live_bytes` is the engine's own
    /// deterministic estimate of trace + heap residency; the constant
    /// covers mutator-side structures (list shadows, history, map
    /// entries).
    pub fn mem_bytes(&self) -> usize {
        const SESSION_OVERHEAD: usize = 4096;
        self.engine.stats().live_bytes
            + self.list.len() * 24
            + self.history.len() * 16
            + SESSION_OVERHEAD
    }

    /// Cumulative deterministic engine counters for this session.
    pub fn counters(&self) -> OpCounters {
        OpCounters::from_stats(self.engine.stats())
    }

    /// Installs an event hook on the underlying engine (tests use this
    /// to attach a `TraceRecorder` for the digest oracle).
    pub fn set_event_hook(&mut self, hook: Box<dyn EventHook>) {
        self.engine.set_event_hook(hook);
    }

    /// Serializes the session to the compact versioned byte format.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.u8(SESSION_SNAPSHOT_TAG);
        w.u8(self.spec.workload.tag());
        w.varint(u64::from(self.spec.n));
        w.u64(self.spec.seed);
        w.u8(match self.spec.policy {
            PolicyArg::Eager => 0,
            PolicyArg::Demand => 1,
        });
        w.varint(self.history.len() as u64);
        for op in &self.history {
            match op {
                SessionOp::Observe => w.u8(0),
                SessionOp::Edit(ops) => {
                    w.u8(1);
                    w.varint(ops.len() as u64);
                    for e in ops {
                        match *e {
                            EditOp::Delete(i) => {
                                w.u8(0);
                                w.varint(u64::from(i));
                            }
                            EditOp::Restore(i) => {
                                w.u8(1);
                                w.varint(u64::from(i));
                            }
                        }
                    }
                }
            }
        }
        w.finish()
    }

    /// Rebuilds a session from snapshot bytes: re-runs from inputs and
    /// replays the recorded history through the live request paths, so
    /// the restored engine state is deterministic-identical to the
    /// evicted one. Returns the session and the number of history ops
    /// replayed.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`] from the codec, plus `Corrupt` for
    /// structurally valid frames whose payload lies (unknown workload
    /// or op tags, out-of-range indices).
    pub fn restore(
        bytes: &[u8],
        programs: &mut ProgramCache,
    ) -> Result<(Session, u64), SnapshotError> {
        let mut r = SnapshotReader::new(bytes)?;
        let tag = r.u8()?;
        if tag != SESSION_SNAPSHOT_TAG {
            return Err(SnapshotError::Corrupt(format!(
                "unknown session snapshot tag {tag}"
            )));
        }
        let workload = Workload::from_tag(r.u8()?)
            .ok_or_else(|| SnapshotError::Corrupt("unknown workload tag".into()))?;
        let n64 = r.varint()?;
        let n = u32::try_from(n64)
            .map_err(|_| SnapshotError::Corrupt(format!("list length {n64} exceeds u32")))?;
        let seed = r.u64()?;
        let policy = match r.u8()? {
            0 => PolicyArg::Eager,
            1 => PolicyArg::Demand,
            p => return Err(SnapshotError::Corrupt(format!("unknown policy tag {p}"))),
        };
        let spec = SessionSpec {
            workload,
            n,
            seed,
            policy,
        };

        let history_len = r.varint()?;
        let mut history = Vec::new();
        for _ in 0..history_len {
            match r.u8()? {
                0 => history.push(SessionOp::Observe),
                1 => {
                    let k = r.varint()?;
                    let mut ops = Vec::new();
                    for _ in 0..k {
                        let kind = r.u8()?;
                        let idx64 = r.varint()?;
                        let idx =
                            u32::try_from(idx64)
                                .ok()
                                .filter(|&i| i < n)
                                .ok_or_else(|| {
                                    SnapshotError::Corrupt(format!(
                                        "edit index {idx64} out of range"
                                    ))
                                })?;
                        ops.push(match kind {
                            0 => EditOp::Delete(idx),
                            1 => EditOp::Restore(idx),
                            t => {
                                return Err(SnapshotError::Corrupt(format!(
                                    "unknown edit-op tag {t}"
                                )))
                            }
                        });
                    }
                    history.push(SessionOp::Edit(ops));
                }
                t => return Err(SnapshotError::Corrupt(format!("unknown history tag {t}"))),
            }
        }
        r.expect_end()?;

        let mut s = Session::open(spec, programs);
        let mut replayed = 0u64;
        for op in history {
            match op {
                SessionOp::Edit(ops) => {
                    replayed += ops.len() as u64;
                    s.apply_edits(&ops);
                }
                SessionOp::Observe => {
                    replayed += 1;
                    s.observe();
                }
            }
        }
        Ok((s, replayed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_matches_plain_sum() {
        let mut cache = ProgramCache::default();
        let spec = SessionSpec {
            workload: Workload::Sum,
            n: 32,
            seed: 7,
            policy: PolicyArg::Eager,
        };
        let s = Session::open(spec, &mut cache);
        let expect: i64 = random_ints(32, 7).iter().sum();
        assert_eq!(s.peek(), Value::Int(expect));
    }

    #[test]
    fn edits_track_live_data_oracle() {
        let mut cache = ProgramCache::default();
        let spec = SessionSpec {
            workload: Workload::Min,
            n: 16,
            seed: 3,
            policy: PolicyArg::Eager,
        };
        let mut s = Session::open(spec, &mut cache);
        let data = random_ints(16, 3);
        let (applied, elided, _) =
            s.apply_edits(&[EditOp::Delete(2), EditOp::Delete(2), EditOp::Delete(5)]);
        assert_eq!((applied, elided), (2, 1));
        let (v, _) = s.observe();
        let expect = data
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 2 && *i != 5)
            .map(|(_, &x)| x)
            .min()
            .unwrap();
        assert_eq!(v, Value::Int(expect));
    }

    #[test]
    fn snapshot_restores_state_and_history() {
        let mut cache = ProgramCache::default();
        let spec = SessionSpec {
            workload: Workload::Sum,
            n: 24,
            seed: 11,
            policy: PolicyArg::Demand,
        };
        let mut s = Session::open(spec, &mut cache);
        s.apply_edits(&[EditOp::Delete(1), EditOp::Delete(9)]);
        s.observe();
        s.apply_edits(&[EditOp::Restore(1)]);
        let bytes = s.snapshot();
        let (mut restored, replayed) = Session::restore(&bytes, &mut cache).unwrap();
        assert_eq!(replayed, 4);
        assert_eq!(restored.spec(), s.spec());
        assert_eq!(restored.history_len(), s.history_len());
        assert_eq!(restored.observe().0, s.observe().0);
        assert_eq!(restored.counters(), s.counters());
    }
}
