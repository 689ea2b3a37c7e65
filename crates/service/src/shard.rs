//! A shard: the exclusive owner of a set of sessions.
//!
//! The engine is intentionally single-threaded (`Engine` is neither
//! `Send` nor `Sync` — it is built on `Rc` and interior queues), so the
//! service never wraps it in a lock. Instead each shard *owns* its
//! sessions outright: requests are routed to the owning shard (by a
//! stable hash of the session key) and processed one at a time on that
//! shard's thread. `Shard::handle` itself is plain synchronous code —
//! the same function runs under the threaded [`crate::Service`], under
//! the deterministic lockstep driver in `service-bench`, and in unit
//! tests, which is what makes the service-tier counters gateable.
//!
//! Under a memory budget the shard evicts least-recently-used sessions
//! to snapshot bytes ([`crate::session`]); the next request against an
//! evicted key transparently restores it (counted, and flagged on the
//! wire so tenants can attribute tail latency).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use ceal_runtime::telemetry::SlowRequestRecord;

use crate::metrics::{ReqKind, ReqMeta, ShardTelemetry, TelemetryConfig};
use crate::session::{ProgramCache, Session, SessionSpec};
use crate::wire::{ErrKind, Reply, Request, ServiceCounters, ShardStat};

/// Per-shard configuration.
#[derive(Clone, Copy, Debug)]
pub struct ShardConfig {
    /// Resident-memory budget for live sessions, in bytes (estimated
    /// via [`Session::mem_bytes`]). The most recently used session is
    /// never evicted, so one oversized session cannot thrash.
    pub mem_budget_bytes: usize,
    /// Hard cap on sessions (live + evicted) hosted by this shard.
    pub max_sessions: usize,
    /// Telemetry switches (DESIGN.md §17).
    pub telemetry: TelemetryConfig,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            mem_budget_bytes: 64 << 20,
            max_sessions: 100_000,
            telemetry: TelemetryConfig::default(),
        }
    }
}

/// A hosted session slot: live, or parked as snapshot bytes.
enum Slot {
    Live(Box<Session>),
    Evicted(Vec<u8>),
}

/// Per-request scratch segments filled by the dispatch arms while the
/// request runs, consumed by the slow-request check afterwards.
#[derive(Clone, Copy, Debug, Default)]
struct ReqScratch {
    restore_us: u64,
    engine_us: u64,
    restored: bool,
}

/// The exclusive owner of a shard's sessions. See the module docs.
pub struct Shard {
    cfg: ShardConfig,
    sessions: HashMap<String, Slot>,
    programs: ProgramCache,
    counters: ServiceCounters,
    /// Monotonic request clock for LRU stamps.
    now: u64,
    /// Cached sum of live sessions' `mem_bytes` estimates; refreshed
    /// for the touched session on every request.
    live_bytes: usize,
    mem_cache: HashMap<String, usize>,
    tel: Arc<ShardTelemetry>,
    scratch: ReqScratch,
}

impl Shard {
    /// Creates an empty shard with its own telemetry registry (shard
    /// label 0). The threaded service uses [`Shard::with_telemetry`] to
    /// pass per-shard-labeled registries in.
    pub fn new(cfg: ShardConfig) -> Shard {
        let tel = Arc::new(ShardTelemetry::new(0, cfg.telemetry));
        Shard::with_telemetry(cfg, tel)
    }

    /// Creates an empty shard recording into `tel`.
    pub fn with_telemetry(cfg: ShardConfig, tel: Arc<ShardTelemetry>) -> Shard {
        Shard {
            cfg,
            sessions: HashMap::new(),
            programs: ProgramCache::default(),
            counters: ServiceCounters::default(),
            now: 0,
            live_bytes: 0,
            mem_cache: HashMap::new(),
            tel,
            scratch: ReqScratch::default(),
        }
    }

    /// This shard's telemetry handles.
    pub fn telemetry(&self) -> &Arc<ShardTelemetry> {
        &self.tel
    }

    /// This shard's live gauges, as reported in the `stats` reply.
    pub fn stat(&self) -> ShardStat {
        let live = self.live_count();
        ShardStat {
            shard: self.tel.shard_index() as u32,
            queue_depth: self.tel.queue_depth.get(),
            live_sessions: live as u64,
            evicted_sessions: (self.session_count() - live) as u64,
            live_bytes: self.live_bytes as u64,
        }
    }

    /// Deterministic service counters accumulated by this shard.
    pub fn counters(&self) -> &ServiceCounters {
        &self.counters
    }

    /// Number of hosted sessions (live + evicted).
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Number of currently live (un-evicted) sessions.
    pub fn live_count(&self) -> usize {
        self.sessions
            .values()
            .filter(|s| matches!(s, Slot::Live(_)))
            .count()
    }

    /// Current estimate of resident session bytes.
    pub fn live_bytes(&self) -> usize {
        self.live_bytes
    }

    fn note_mem(&mut self, sid: &str, bytes: usize) {
        let old = self.mem_cache.insert(sid.to_string(), bytes).unwrap_or(0);
        self.live_bytes = self.live_bytes - old + bytes;
    }

    fn drop_mem(&mut self, sid: &str) {
        if let Some(old) = self.mem_cache.remove(sid) {
            self.live_bytes -= old;
        }
    }

    /// Ensures `sid` is live, restoring from snapshot bytes if needed.
    /// Returns whether a restore happened.
    #[allow(clippy::result_large_err)]
    fn ensure_live(&mut self, sid: &str) -> Result<bool, Reply> {
        match self.sessions.get(sid) {
            None => Err(Reply::err(ErrKind::UnknownSession, sid)),
            Some(Slot::Live(_)) => Ok(false),
            Some(Slot::Evicted(bytes)) => {
                let t = self.tel.on().then(Instant::now);
                let (mut session, replayed) = Session::restore(bytes, &mut self.programs)
                    .map_err(|e| Reply::err(ErrKind::Snapshot, e.to_string()))?;
                session.last_used = self.now;
                self.counters.restored += 1;
                self.counters.replayed_ops += replayed;
                // Restores replay history through the normal request
                // paths; fold the replay's engine work into the
                // service-tier aggregate so restore cost is visible.
                let c = session.counters();
                self.counters.engine_reexec += c.reads_reexecuted;
                self.counters.engine_props += c.propagations;
                self.counters.engine_memo_hits += c.memo_hits;
                self.counters.engine_dirty_marks += c.dirty_marks;
                self.counters.engine_demand_cleans += c.demand_cleans;
                if self.tel.on() && self.tel.config().top_sites > 0 {
                    session.enable_tracing();
                }
                let bytes_est = session.mem_bytes();
                self.sessions
                    .insert(sid.to_string(), Slot::Live(Box::new(session)));
                self.note_mem(sid, bytes_est);
                if let Some(t) = t {
                    let us = t.elapsed().as_micros() as u64;
                    self.scratch.restore_us = us;
                    self.scratch.restored = true;
                    self.tel.restore_us.record(us);
                    self.tel.restored.inc();
                    self.tel.replayed_ops.add(replayed);
                    self.tel.live_sessions.inc();
                    self.tel.evicted_sessions.dec();
                }
                Ok(true)
            }
        }
    }

    /// Evicts least-recently-used live sessions until the live estimate
    /// fits the budget. The most recent session (`keep`) survives.
    fn enforce_budget(&mut self, keep: &str) {
        while self.live_bytes > self.cfg.mem_budget_bytes {
            let victim = self
                .sessions
                .iter()
                .filter_map(|(k, s)| match s {
                    Slot::Live(sess) if k != keep => Some((sess.last_used, k.clone())),
                    _ => None,
                })
                .min();
            let Some((_, victim)) = victim else { break };
            let Some(Slot::Live(sess)) = self.sessions.get(&victim) else {
                unreachable!()
            };
            let bytes = sess.snapshot();
            self.counters.evicted += 1;
            self.counters.snapshot_bytes += bytes.len() as u64;
            self.sessions.insert(victim.clone(), Slot::Evicted(bytes));
            self.drop_mem(&victim);
            if self.tel.on() {
                self.tel.evicted.inc();
                self.tel.live_sessions.dec();
                self.tel.evicted_sessions.inc();
            }
        }
    }

    fn live_mut(&mut self, sid: &str) -> &mut Session {
        match self.sessions.get_mut(sid) {
            Some(Slot::Live(s)) => s,
            _ => unreachable!("ensure_live holds"),
        }
    }

    /// Processes one request to completion. Admission (queueing, shed)
    /// happens upstream; by the time a request reaches `handle` it has
    /// been admitted.
    pub fn handle(&mut self, req: &Request) -> Reply {
        self.handle_traced(req, ReqMeta::default())
    }

    /// [`Shard::handle`] with request-tracing metadata attached by the
    /// admission layer: the frontend-stamped request id and how long the
    /// job waited in the shard queue. Routed kinds (open/edit/observe/
    /// close/ping) are counted, timed into the per-kind histograms, and
    /// checked against the slow-request threshold; service-level probes
    /// (`stats`, `metrics`) pass through untimed so scrape traffic never
    /// pollutes the request-latency series.
    pub fn handle_traced(&mut self, req: &Request, meta: ReqMeta) -> Reply {
        self.now += 1;
        self.counters.admitted += 1;
        self.scratch = ReqScratch::default();
        let kind = ReqKind::of(req);
        let start = (self.tel.on() && kind.is_some()).then(Instant::now);
        let reply = self.dispatch(req);
        if let (Some(start), Some(kind)) = (start, kind) {
            let handle_us = start.elapsed().as_micros() as u64;
            let total_us = meta.queue_us.saturating_add(handle_us);
            self.tel.requests(kind).inc();
            self.tel.handle_us.record(handle_us);
            self.tel.request_hist(kind).record(total_us);
            if matches!(kind, ReqKind::Open | ReqKind::Edit | ReqKind::Observe) {
                self.tel.engine_us.record(self.scratch.engine_us);
            }
            if !reply.is_ok() {
                self.tel.errors.inc();
            }
            self.tel.live_bytes.set(self.live_bytes as u64);
            let slow = total_us >= self.tel.config().slow_threshold_us;
            let k = self.tel.config().top_sites;
            // Tracing sessions accumulate phase slices and site tallies
            // until drained; drain after every request (with k=0 as a
            // cheap reset when the request wasn't slow) so a slow
            // request reports only its own engine work.
            let (phases, top_sites) = if k > 0 {
                let live = req.sid().and_then(|sid| match self.sessions.get_mut(sid) {
                    Some(Slot::Live(s)) => Some(s),
                    _ => None,
                });
                match live {
                    Some(s) => {
                        let phases = s.drain_phases();
                        let sites = s.drain_top_sites(if slow { k } else { 0 });
                        (phases, sites)
                    }
                    None => (Vec::new(), Vec::new()),
                }
            } else {
                (Vec::new(), Vec::new())
            };
            if slow {
                self.tel.note_slow(SlowRequestRecord {
                    id: meta.id,
                    sid: req.sid().unwrap_or("").to_string(),
                    kind: kind.name(),
                    total_us,
                    queue_us: meta.queue_us,
                    handle_us,
                    restore_us: self.scratch.restore_us,
                    reply_us: 0,
                    restored: self.scratch.restored,
                    phases,
                    top_sites,
                });
            }
        }
        reply
    }

    fn dispatch(&mut self, req: &Request) -> Reply {
        match req {
            Request::Ping => Reply::Pong,
            Request::Stats => Reply::Stats {
                counters: self.counters,
                shards: vec![self.stat()],
            },
            Request::Metrics => Reply::Metrics(self.tel.snapshot().to_json(true)),
            Request::Open {
                sid,
                workload,
                n,
                seed,
                policy,
            } => {
                if self.sessions.contains_key(sid) {
                    return Reply::err(ErrKind::SessionExists, sid);
                }
                if self.sessions.len() >= self.cfg.max_sessions {
                    return Reply::err(
                        ErrKind::Capacity,
                        format!("shard at max_sessions={}", self.cfg.max_sessions),
                    );
                }
                let spec = SessionSpec {
                    workload: *workload,
                    n: *n,
                    seed: *seed,
                    policy: *policy,
                };
                let t = self.tel.on().then(Instant::now);
                let mut session = Session::open(spec, &mut self.programs);
                session.last_used = self.now;
                self.counters.opened += 1;
                let c = session.counters();
                self.counters.engine_props += c.propagations;
                self.counters.engine_memo_hits += c.memo_hits;
                if let Some(t) = t {
                    self.scratch.engine_us += t.elapsed().as_micros() as u64;
                    self.tel.live_sessions.inc();
                    if self.tel.config().top_sites > 0 {
                        session.enable_tracing();
                    }
                }
                let value = session.peek();
                let bytes = session.mem_bytes();
                self.sessions
                    .insert(sid.clone(), Slot::Live(Box::new(session)));
                self.note_mem(sid, bytes);
                self.enforce_budget(sid);
                Reply::Opened { value }
            }
            Request::Edit { sid, ops } => {
                if let Err(reply) = self.ensure_live(sid) {
                    return reply;
                }
                let now = self.now;
                let t = self.tel.on().then(Instant::now);
                let session = self.live_mut(sid);
                session.last_used = now;
                if let Err(bad) = session.check_ops(ops) {
                    return Reply::err(
                        ErrKind::BadIndex,
                        format!("index {bad} out of range (n={})", session.spec().n),
                    );
                }
                let (applied, elided, counters) = session.apply_edits(ops);
                let bytes = session.mem_bytes();
                if let Some(t) = t {
                    self.scratch.engine_us += t.elapsed().as_micros() as u64;
                }
                self.counters.edit_batches += 1;
                self.counters.edit_ops += u64::from(applied);
                self.counters.elided_ops += u64::from(elided);
                self.counters.engine_reexec += counters.reads_reexecuted;
                self.counters.engine_props += counters.propagations;
                self.counters.engine_memo_hits += counters.memo_hits;
                self.counters.engine_dirty_marks += counters.dirty_marks;
                self.counters.engine_demand_cleans += counters.demand_cleans;
                self.note_mem(sid, bytes);
                self.enforce_budget(sid);
                Reply::Edited {
                    applied,
                    elided,
                    counters,
                }
            }
            Request::Observe { sid } => {
                let restored = match self.ensure_live(sid) {
                    Err(reply) => return reply,
                    Ok(r) => r,
                };
                let now = self.now;
                let t = self.tel.on().then(Instant::now);
                let session = self.live_mut(sid);
                session.last_used = now;
                let (value, counters) = session.observe();
                let bytes = session.mem_bytes();
                if let Some(t) = t {
                    self.scratch.engine_us += t.elapsed().as_micros() as u64;
                }
                self.counters.observes += 1;
                self.counters.engine_reexec += counters.reads_reexecuted;
                self.counters.engine_props += counters.propagations;
                self.counters.engine_memo_hits += counters.memo_hits;
                self.counters.engine_dirty_marks += counters.dirty_marks;
                self.counters.engine_demand_cleans += counters.demand_cleans;
                self.note_mem(sid, bytes);
                self.enforce_budget(sid);
                Reply::Observed {
                    value,
                    counters,
                    restored,
                }
            }
            Request::Close { sid } => {
                let Some(slot) = self.sessions.remove(sid) else {
                    return Reply::err(ErrKind::UnknownSession, sid);
                };
                if self.tel.on() {
                    match slot {
                        Slot::Live(_) => self.tel.live_sessions.dec(),
                        Slot::Evicted(_) => self.tel.evicted_sessions.dec(),
                    }
                }
                self.drop_mem(sid);
                self.counters.closed += 1;
                Reply::Closed
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{EditOp, PolicyArg, Workload};
    use ceal_runtime::Value;
    use ceal_suite::input::random_ints;

    fn open(sid: &str, n: u32, seed: u64) -> Request {
        Request::Open {
            sid: sid.into(),
            workload: Workload::Sum,
            n,
            seed,
            policy: PolicyArg::Eager,
        }
    }

    #[test]
    fn eviction_is_transparent_to_clients() {
        // A budget small enough for roughly one live session forces
        // every session switch through an evict/restore cycle.
        let mut shard = Shard::new(ShardConfig {
            mem_budget_bytes: 40_000,
            max_sessions: 64,
            ..Default::default()
        });
        assert!(shard.handle(&open("a", 64, 1)).is_ok());
        assert!(shard.handle(&open("b", 64, 2)).is_ok());
        assert!(shard.handle(&open("c", 64, 3)).is_ok());

        // Alternate edits across sessions; values must always match the
        // from-scratch oracle regardless of how many round trips through
        // snapshot bytes happened in between.
        let mut oracle: Vec<Vec<i64>> = [1u64, 2, 3].iter().map(|&s| random_ints(64, s)).collect();
        for round in 0..6u32 {
            for (si, sid) in ["a", "b", "c"].iter().enumerate() {
                let idx = (round as usize * 7 + si * 3) % 64;
                let r = shard.handle(&Request::Edit {
                    sid: sid.to_string(),
                    ops: vec![EditOp::Delete(idx as u32)],
                });
                assert!(r.is_ok(), "{r}");
                oracle[si][idx] = 0; // deleting contributes 0 to the sum oracle below
                let Reply::Observed { value, .. } = shard.handle(&Request::Observe {
                    sid: sid.to_string(),
                }) else {
                    panic!("observe failed");
                };
                let expect: i64 = oracle[si].iter().sum();
                assert_eq!(value, Value::Int(expect), "session {sid} round {round}");
            }
        }
        assert!(
            shard.counters().evicted >= 1,
            "budget never forced an eviction"
        );
        assert_eq!(
            shard.counters().evicted,
            shard.counters().restored + deficit(&shard)
        );
    }

    /// Evictions minus restores = sessions currently parked.
    fn deficit(shard: &Shard) -> u64 {
        (shard.session_count() - shard.live_count()) as u64
    }

    #[test]
    fn typed_errors_for_bad_requests() {
        let mut shard = Shard::new(ShardConfig::default());
        let r = shard.handle(&Request::Observe {
            sid: "ghost".into(),
        });
        assert_eq!(r, Reply::err(ErrKind::UnknownSession, "ghost"));
        assert!(shard.handle(&open("a", 8, 1)).is_ok());
        let r = shard.handle(&open("a", 8, 1));
        assert!(matches!(r, Reply::Err(ErrKind::SessionExists, _)));
        let r = shard.handle(&Request::Edit {
            sid: "a".into(),
            ops: vec![EditOp::Delete(8)],
        });
        assert!(matches!(r, Reply::Err(ErrKind::BadIndex, _)));
        let r = shard.handle(&Request::Close { sid: "a".into() });
        assert_eq!(r, Reply::Closed);
        let r = shard.handle(&Request::Close { sid: "a".into() });
        assert!(matches!(r, Reply::Err(ErrKind::UnknownSession, _)));
    }

    #[test]
    fn telemetry_counts_requests_and_reports_slow_records() {
        let mut shard = Shard::new(ShardConfig {
            telemetry: TelemetryConfig {
                enabled: true,
                slow_threshold_us: 0, // everything is "slow": exercise the record path
                slow_log: false,
                top_sites: 4,
            },
            ..Default::default()
        });
        let meta = ReqMeta {
            id: 7,
            queue_us: 11,
        };
        assert!(shard.handle_traced(&open("a", 32, 1), meta).is_ok());
        let r = shard.handle_traced(
            &Request::Edit {
                sid: "a".into(),
                ops: vec![EditOp::Delete(1)],
            },
            ReqMeta { id: 8, queue_us: 0 },
        );
        assert!(r.is_ok(), "{r}");

        let tel = shard.telemetry().clone();
        assert_eq!(tel.requests(crate::metrics::ReqKind::Open).get(), 1);
        assert_eq!(tel.requests(crate::metrics::ReqKind::Edit).get(), 1);
        assert_eq!(tel.slow_requests.get(), 2);
        assert_eq!(tel.live_sessions.get(), 1);

        let slow = tel.slow_records();
        assert_eq!(slow.len(), 2);
        let edit = &slow[1];
        assert_eq!(edit.id, 8);
        assert_eq!(edit.kind, "edit");
        assert_eq!(edit.sid, "a");
        assert_eq!(edit.total_us, edit.queue_us + edit.handle_us);
        assert!(!edit.restored);
        assert!(!edit.phases.is_empty(), "traced edit must report phases");
        assert!(
            !edit.top_sites.is_empty(),
            "traced edit must attribute work to sites"
        );
        let line = edit.render_line();
        assert!(line.starts_with("slow-request id=8"), "{line}");

        // The open's queue wait flows through into its record.
        assert_eq!(slow[0].id, 7);
        assert_eq!(slow[0].queue_us, 11);

        // Per-shard stat row and the shard-local metrics arm.
        let stat = shard.stat();
        assert_eq!(stat.live_sessions, 1);
        assert_eq!(stat.evicted_sessions, 0);
        assert!(stat.live_bytes > 0);
        let r = shard.handle(&Request::Metrics);
        let Reply::Metrics(json) = r else {
            panic!("metrics arm must answer on a shard: {r}")
        };
        assert!(json.contains("ceal_requests_total"), "{json}");
    }

    #[test]
    fn max_sessions_is_enforced() {
        let mut shard = Shard::new(ShardConfig {
            max_sessions: 2,
            ..Default::default()
        });
        assert!(shard.handle(&open("a", 4, 1)).is_ok());
        assert!(shard.handle(&open("b", 4, 2)).is_ok());
        let r = shard.handle(&open("c", 4, 3));
        assert!(matches!(r, Reply::Err(ErrKind::Capacity, _)));
    }
}
