//! # ceal-runtime — the self-adjusting computation run-time system
//!
//! This crate reproduces the run-time system (RTS) of *CEAL: A C-Based
//! Language for Self-Adjusting Computation* (Hammer, Acar, Chen,
//! PLDI 2009), §6.1 and §7: modifiable references, the execution trace
//! (a dynamic dependence graph ordered by order-maintenance
//! timestamps), change propagation with memoization, and keyed
//! allocation with automatic collection of core allocations.
//!
//! Programs interact with the engine the way compiled CEAL code
//! interacts with the paper's RTS (Fig. 11/12): core functions are
//! straight-line bodies that end by returning a [`program::Tail`] —
//! `Done`, a tail call, or a read paired with the closure consuming the
//! value — to the engine's trampoline.
//!
//! ## Quick start
//!
//! ```
//! use ceal_runtime::prelude::*;
//!
//! // Core program: out := in + 1, self-adjusting.
//! let mut b = ProgramBuilder::new();
//! let body = b.native("incr_body", |e, args| {
//!     let out = args[1].modref();
//!     e.write(out, Value::Int(args[0].int() + 1));
//!     Tail::Done
//! });
//! let incr = b.native("incr", move |_e, args| {
//!     Tail::read(args[0].modref(), body, &args[1..])
//! });
//!
//! let mut e = Engine::new(b.build());
//! let (inp, out) = (e.meta_modref(), e.meta_modref());
//! e.modify(inp, Value::Int(1));
//! e.run_core(incr, &[Value::ModRef(inp), Value::ModRef(out)]);
//! assert_eq!(e.deref(out), Value::Int(2));
//!
//! // The mutator modifies the input; change propagation updates the
//! // output without re-running from scratch.
//! e.modify(inp, Value::Int(10));
//! e.propagate();
//! assert_eq!(e.deref(out), Value::Int(11));
//! ```

#![warn(missing_docs)]

pub mod api;
pub mod batch;
pub mod engine;
pub mod error;
pub mod heap;
pub mod obs;
pub mod order;
pub mod prng;
pub mod program;
pub mod snapshot;
pub mod stats;
pub mod telemetry;
pub mod value;

pub use batch::{EditBatch, Mutator};
pub use engine::{
    Engine, EngineConfig, EngineCore, PropagationPolicy, ReadView, RegionCx, RegionState, SmlSim,
};
pub use error::CealError;
pub use obs::{Attribution, SiteRow, TraceRecorder};
pub use obs::{Event, EventHook, PhaseCost, PhaseKind, Profile, SiteTally, TraceKind};
pub use program::{NativeFn, OpaqueFn, Program, ProgramBuilder, Site, SiteKind, SiteTable, Tail};
pub use snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
pub use stats::{OpCounters, Stats};
pub use telemetry::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot, Registry, SlowRequestRecord,
};
pub use value::{FuncId, Interner, Loc, ModRef, SiteId, StrId, Value};

/// Convenient glob-import of the commonly used types.
pub mod prelude {
    pub use crate::batch::{EditBatch, Mutator};
    pub use crate::engine::{
        Engine, EngineConfig, EngineCore, PropagationPolicy, ReadView, RegionCx, SmlSim,
    };
    pub use crate::error::CealError;
    pub use crate::obs::TraceRecorder;
    pub use crate::obs::{Event, EventHook, PhaseKind, Profile, TraceKind};
    pub use crate::program::{Program, ProgramBuilder, SiteKind, SiteTable, Tail};
    pub use crate::stats::{OpCounters, Stats};
    pub use crate::value::{FuncId, Loc, ModRef, SiteId, Value};
}
