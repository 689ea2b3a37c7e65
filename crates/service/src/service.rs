//! The threaded service: shard worker threads behind bounded admission
//! queues, with key-hash routing and load-shed backpressure.
//!
//! Architecture (DESIGN.md §15): requests enter through any number of
//! frontend threads (TCP connections, the load generator, `cealc
//! --serve`), are routed by a stable hash of the session key to the
//! owning shard's *bounded* queue, and are processed by that shard's
//! single worker thread, which exclusively owns every engine it hosts.
//! `try_send` admission means a full queue immediately returns a typed
//! [`ErrKind::Shed`] reply instead of blocking the frontend — the
//! backpressure surface is explicit and clients are expected to retry.
//!
//! The handle is `Clone`; clones share the same shards, and
//! [`Service::shutdown`] disconnects every clone at once. This mirrors
//! how a tokio frontend would hold the service (one handle per
//! connection task) — the async runtime is not vendored in this
//! dependency-free workspace, so the shipped frontends are thread-based
//! (see `frontend.rs`), but the admission surface is exactly the
//! non-blocking `try_call` an async reactor needs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::metrics::{merge_shards, ReqMeta, ShardTelemetry, TelemetryConfig};
use crate::shard::{Shard, ShardConfig};
use crate::telemetry::MetricsSnapshot;
use crate::wire::{ErrKind, Reply, Request, ServiceCounters, ShardStat};

/// Service-level configuration.
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Number of shards (worker threads). Session keys are partitioned
    /// across shards by stable hash; each shard owns its partition.
    pub shards: usize,
    /// Bounded depth of each shard's admission queue; requests that
    /// find it full are shed.
    pub queue_cap: usize,
    /// Per-shard memory budget driving LRU eviction.
    pub mem_budget_bytes: usize,
    /// Per-shard session cap.
    pub max_sessions: usize,
    /// Telemetry switches, shared by every shard (DESIGN.md §17).
    pub telemetry: TelemetryConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            shards: 4,
            queue_cap: 128,
            mem_budget_bytes: 64 << 20,
            max_sessions: 100_000,
            telemetry: TelemetryConfig::default(),
        }
    }
}

/// Stable routing hash (splitmix64-style over the key bytes): must not
/// vary across platforms or runs, because the deterministic bench
/// golden depends on the shard partition.
pub fn route_key(key: &str, shards: usize) -> usize {
    let mut h: u64 = 0x51_7C_C1_B7_27_22_0A_95;
    for &b in key.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 29;
    }
    (h % shards.max(1) as u64) as usize
}

struct Job {
    req: Request,
    reply: SyncSender<Reply>,
    /// Monotonic request id stamped at admission (tracing only).
    id: u64,
    /// Admission timestamp; the worker derives queue wait from it.
    enqueued: Instant,
}

#[derive(Clone)]
struct ShardHandle {
    tx: SyncSender<Job>,
}

struct Inner {
    /// `None` after shutdown; taking it drops every queue sender, which
    /// is what tells the workers to drain and exit.
    handles: RwLock<Option<Vec<ShardHandle>>>,
    joins: Mutex<Vec<JoinHandle<()>>>,
    shards: usize,
    /// Per-shard metric registries: the only store of every count and
    /// gauge, read by `stats` and `metrics` without entering a queue.
    tels: Vec<Arc<ShardTelemetry>>,
    /// Monotonic request id source (all frontends share it).
    next_id: AtomicU64,
}

/// A handle to the running service. Cloning is cheap; all clones share
/// the shard workers.
#[derive(Clone)]
pub struct Service {
    inner: Arc<Inner>,
}

fn shard_worker(rx: Receiver<Job>, cfg: ShardConfig, tel: Arc<ShardTelemetry>) {
    let mut shard = Shard::with_telemetry(cfg, tel.clone());
    // Every job is a routed request: `stats` and `metrics` are answered
    // in `Service::try_call` and never enter a queue.
    while let Ok(job) = rx.recv() {
        tel.queue_depth.dec();
        let on = tel.on();
        let queue_us = if on {
            let us = job.enqueued.elapsed().as_micros() as u64;
            tel.queue_wait_us.record(us);
            us
        } else {
            0
        };
        let meta = ReqMeta {
            id: job.id,
            queue_us,
        };
        let reply = shard.handle_traced(&job.req, meta);
        let t = on.then(Instant::now);
        // A dropped reply receiver (client gone) is fine; the shard's
        // state change stands either way.
        let _ = job.reply.send(reply);
        if let Some(t) = t {
            tel.reply_us.record(t.elapsed().as_micros() as u64);
        }
    }
}

impl Service {
    /// Starts the shard workers.
    pub fn start(cfg: ServiceConfig) -> Service {
        let shard_cfg = ShardConfig {
            mem_budget_bytes: cfg.mem_budget_bytes,
            max_sessions: cfg.max_sessions,
            telemetry: cfg.telemetry,
        };
        let shards = cfg.shards.max(1);
        let mut handles = Vec::with_capacity(shards);
        let mut joins = Vec::new();
        let mut tels = Vec::with_capacity(shards);
        for i in 0..shards {
            let tel = Arc::new(ShardTelemetry::new(i, cfg.telemetry));
            let (tx, rx) = sync_channel::<Job>(cfg.queue_cap.max(1));
            let worker_tel = tel.clone();
            let join = std::thread::Builder::new()
                .name(format!("ceal-shard-{i}"))
                .spawn(move || shard_worker(rx, shard_cfg, worker_tel))
                .expect("spawn shard worker");
            handles.push(ShardHandle { tx });
            tels.push(tel);
            joins.push(join);
        }
        Service {
            inner: Arc::new(Inner {
                handles: RwLock::new(Some(handles)),
                joins: Mutex::new(joins),
                shards,
                tels,
                next_id: AtomicU64::new(0),
            }),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.inner.shards
    }

    fn shard_of(&self, req: &Request) -> usize {
        match req.sid() {
            Some(sid) => route_key(sid, self.inner.shards),
            // Keyless requests (ping) go to shard 0; `stats` and
            // `metrics` never reach this (see `try_call`).
            None => 0,
        }
    }

    /// Non-blocking admission: routes `req` to its owning shard and
    /// returns a receiver for the reply, or an immediate
    /// [`ErrKind::Shed`] reply if the shard's queue is full.
    ///
    /// This is the whole backpressure contract: admission either
    /// succeeds (the request *will* be processed, in arrival order for
    /// its key) or fails now; it never blocks the caller.
    #[allow(clippy::result_large_err)]
    pub fn try_call(&self, req: Request) -> Result<Receiver<Reply>, Reply> {
        // `stats` and `metrics` are not shard requests: they read every
        // shard's registry without entering a queue.
        if matches!(req, Request::Stats | Request::Metrics) {
            {
                let guard = self.inner.handles.read().unwrap();
                if guard.is_none() {
                    return Err(Reply::err(ErrKind::Shutdown, "service stopped"));
                }
            }
            let (tx, rx) = sync_channel(1);
            let reply = if matches!(req, Request::Stats) {
                let (counters, shards) = self.stats_detailed();
                Reply::Stats { counters, shards }
            } else {
                Reply::Metrics(self.metrics_snapshot().to_json(true))
            };
            let _ = tx.send(reply);
            return Ok(rx);
        }
        let shard = self.shard_of(&req);
        let guard = self.inner.handles.read().unwrap();
        let Some(handles) = guard.as_ref() else {
            return Err(Reply::err(ErrKind::Shutdown, "service stopped"));
        };
        let (reply_tx, reply_rx) = sync_channel(1);
        let job = Job {
            req,
            reply: reply_tx,
            id: self.inner.next_id.fetch_add(1, Ordering::Relaxed) + 1,
            enqueued: Instant::now(),
        };
        let tel = &self.inner.tels[shard];
        // Inc the depth gauge *before* the send: the worker's dec on
        // dequeue must never race ahead of it (Gauge::dec saturates,
        // so the race would otherwise strand a phantom +1).
        tel.queue_depth.inc();
        match handles[shard].tx.try_send(job) {
            Ok(()) => Ok(reply_rx),
            Err(TrySendError::Full(_)) => {
                tel.queue_depth.dec();
                tel.shed.inc();
                Err(Reply::err(
                    ErrKind::Shed,
                    format!("shard {shard} queue full"),
                ))
            }
            Err(TrySendError::Disconnected(_)) => {
                tel.queue_depth.dec();
                Err(Reply::err(ErrKind::Shutdown, "service stopped"))
            }
        }
    }

    /// Blocking convenience wrapper: admit (shedding if full) and wait
    /// for the reply.
    pub fn call(&self, req: Request) -> Reply {
        match self.try_call(req) {
            Ok(rx) => rx
                .recv()
                .unwrap_or_else(|_| Reply::err(ErrKind::Shutdown, "service stopped")),
            Err(shed) => shed,
        }
    }

    /// Aggregated deterministic counters across all shards, read from
    /// their registries (shed counts included: admission writes them
    /// into the target shard's registry).
    pub fn stats(&self) -> ServiceCounters {
        self.stats_detailed().0
    }

    /// [`Service::stats`] plus the per-shard gauge breakdown reported
    /// in the `stats` wire reply (queue depth, live/evicted sessions,
    /// resident bytes), ordered by shard index.
    ///
    /// Lock-free like [`Service::metrics_snapshot`]: it enters no shard
    /// queue and waits for no request, so it does not count itself. A
    /// request still in flight may be partly counted; once traffic has
    /// stopped the read is exact.
    pub fn stats_detailed(&self) -> (ServiceCounters, Vec<ShardStat>) {
        let mut total = ServiceCounters::default();
        for tel in &self.inner.tels {
            total.add(&tel.counters());
        }
        (total, self.inner.tels.iter().map(|t| t.stat()).collect())
    }

    /// Merged metrics snapshot across every shard registry. Lock-free
    /// with respect to the request hot path: only the (cold) per-shard
    /// registration mutexes are taken, and recorded values are read
    /// with relaxed atomic loads.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        merge_shards(&self.inner.tels)
    }

    /// Stops admission for every clone, drains the queues, and joins
    /// the shard workers.
    pub fn shutdown(&self) {
        // Take the senders: new calls (on any clone) see Shutdown, and
        // the workers exit once their queues drain.
        *self.inner.handles.write().unwrap() = None;
        let joins = std::mem::take(&mut *self.inner.joins.lock().unwrap());
        for j in joins {
            let _ = j.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{EditOp, PolicyArg, Workload};
    use ceal_runtime::Value;
    use ceal_suite::input::random_ints;

    #[test]
    fn routed_sessions_process_in_order() {
        let svc = Service::start(ServiceConfig {
            shards: 3,
            ..Default::default()
        });
        for sid in 0..30 {
            let r = svc.call(Request::Open {
                sid: format!("s{sid}"),
                workload: Workload::Sum,
                n: 16,
                seed: sid,
                policy: PolicyArg::Eager,
            });
            let expect: i64 = random_ints(16, sid).iter().sum();
            assert_eq!(
                r,
                Reply::Opened {
                    value: Value::Int(expect)
                }
            );
        }
        for sid in 0..30u64 {
            let r = svc.call(Request::Edit {
                sid: format!("s{sid}"),
                ops: vec![EditOp::Delete(3)],
            });
            assert!(r.is_ok(), "{r}");
        }
        for sid in 0..30u64 {
            let Reply::Observed { value, .. } = svc.call(Request::Observe {
                sid: format!("s{sid}"),
            }) else {
                panic!("observe failed")
            };
            let data = random_ints(16, sid);
            let expect: i64 = data
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != 3)
                .map(|(_, &x)| x)
                .sum();
            assert_eq!(value, Value::Int(expect), "session {sid}");
        }
        let stats = svc.stats();
        assert_eq!(stats.opened, 30);
        assert_eq!(stats.edit_batches, 30);
        assert_eq!(stats.observes, 30);
        assert_eq!(stats.admitted, 90);
        // `stats` reads the registries; it does not count itself.
        assert_eq!(svc.stats_detailed(), svc.stats_detailed());
        svc.shutdown();
    }

    #[test]
    fn routing_is_stable_and_total() {
        for shards in [1usize, 2, 4, 7] {
            for key in ["a", "tenant-123", "zz.9"] {
                let s = route_key(key, shards);
                assert!(s < shards);
                assert_eq!(s, route_key(key, shards), "routing must be deterministic");
            }
        }
    }

    #[test]
    fn shutdown_disconnects_every_clone() {
        let svc = Service::start(ServiceConfig {
            shards: 1,
            ..Default::default()
        });
        let clone = svc.clone();
        assert_eq!(clone.call(Request::Ping), Reply::Pong);
        svc.shutdown();
        let r = clone.call(Request::Ping);
        assert!(matches!(r, Reply::Err(ErrKind::Shutdown, _)));
    }
}
