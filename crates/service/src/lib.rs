//! # ceal-service — the sharded incremental-session service
//!
//! CEAL's value proposition is that change propagation amortizes work
//! across a *stream* of edits (§2, Fig. 13). This crate serves that
//! stream: a long-running server hosting many independent engine
//! sessions — one incremental program instance per session key — so the
//! repo's single-engine harnesses scale out to the "thousands of
//! tenants" regime (ROADMAP item: incremental-service frontend).
//!
//! ## Shard-ownership model (no `Mutex<Engine>`)
//!
//! [`ceal_runtime::Engine`] is single-threaded by design: since the
//! core/region split (runtime DESIGN.md §16) its state would be
//! structurally `Send`, so the facade pins a `PhantomData<Rc<()>>`
//! marker to keep the mutator surface single-threaded on purpose. The
//! `Send` seam is the leased `ceal_runtime::RegionCx`, not the engine.
//! Rather than wrap it in a lock, the service partitions session keys
//! across **shards** (stable hash), and each shard's worker thread
//! exclusively owns every engine it hosts. Requests are routed to the
//! owning shard over a *bounded* queue; a full queue answers a typed shed
//! error instead of blocking (backpressure is explicit). Sessions never
//! migrate while live — only their snapshot *bytes* (plain `Vec<u8>`,
//! freely `Send`) cross threads.
//!
//! ## Send audit
//!
//! The compiler enforces the model: everything that crosses a thread
//! boundary is `Send` (checked below), and the engine itself is not —
//! if a future refactor ever made `Engine` implement `Send`, the
//! `compile_fail` doctest here fails, prompting a deliberate re-audit
//! of the ownership story rather than a silent weakening of it.
//!
//! ```compile_fail
//! fn assert_send<T: Send>() {}
//! // Engine is !Send by deliberate PhantomData<Rc<()>> marker
//! // (crates/runtime/src/engine/facade.rs), not by accident of its
//! // fields: removing the marker makes this compile and the audit fire.
//! assert_send::<ceal_runtime::Engine>();
//! ```
//!
//! ```
//! fn assert_send<T: Send>() {}
//! // The types that do cross shard boundaries are Send:
//! assert_send::<ceal_service::wire::Request>();
//! assert_send::<ceal_service::wire::Reply>();
//! assert_send::<ceal_service::wire::ServiceCounters>();
//! assert_send::<Vec<u8>>(); // snapshot bytes
//! fn assert_share<T: Send + Sync + Clone>() {}
//! assert_share::<ceal_service::Service>();
//! ```
//!
//! ## Quick start
//!
//! ```
//! use ceal_service::service::{Service, ServiceConfig};
//! use ceal_service::wire::{parse_request, Reply};
//!
//! let svc = Service::start(ServiceConfig { shards: 2, ..Default::default() });
//! let open = parse_request("open t1 sum 32 7").unwrap();
//! assert!(svc.call(open).is_ok());
//! let observe = parse_request("observe t1").unwrap();
//! assert!(matches!(svc.call(observe), Reply::Observed { .. }));
//! svc.shutdown();
//! ```
//!
//! Sessions evict to a compact, versioned snapshot format under a
//! memory budget and restore transparently on the next request; see
//! [`session`], [`snapshot`] and DESIGN.md §15. The deterministic load
//! generator and its CI gate live in [`mod@bench`] (`service-bench`
//! binary, `BENCH_service.json`).

#![warn(missing_docs)]

pub mod bench;
pub mod frontend;
pub mod metrics;
pub mod metrics_http;
pub mod service;
pub mod session;
pub mod shard;
pub mod snapshot;
pub mod telemetry;
pub mod wire;

pub use frontend::{FrontendConfig, TcpFrontend};
pub use metrics::{merge_shards, ReqKind, ReqMeta, ShardTelemetry, TelemetryConfig};
pub use metrics_http::MetricsServer;
pub use service::{route_key, Service, ServiceConfig};
pub use session::{ProgramCache, Session, SessionSpec};
pub use shard::{Shard, ShardConfig};
pub use wire::{
    CounterDelta, EditOp, ErrKind, PolicyArg, Reply, Request, ServiceCounters, ShardStat, Workload,
};
