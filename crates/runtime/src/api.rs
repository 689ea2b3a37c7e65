//! The blessed public surface of `ceal-runtime`, in one place.
//!
//! Downstream crates should import from here (or from
//! [`crate::prelude`] for glob convenience) rather than from the
//! individual implementation modules: the deep module paths
//! (`ceal_runtime::engine::facade::Engine`, …) are an artifact of the
//! core/region split and may move again; this module and the crate
//! root are the stability boundary that the `api_surface.txt` golden
//! file pins in CI.
//!
//! Migration from pre-split deep paths (see the README table):
//!
//! | old import | new import |
//! |---|---|
//! | `ceal_runtime::engine::Engine` | `ceal_runtime::api::Engine` |
//! | `ceal_runtime::engine::EngineConfig` | `ceal_runtime::api::EngineConfig` |
//! | `ceal_runtime::program::{...}` | `ceal_runtime::api::{...}` |
//! | `&mut Engine` in `NativeFn` bodies | `&mut RegionCx<'_>` |
//! | `TraceRecorder::shared()` → `Rc<RefCell<_>>` | now `Arc<Mutex<_>>` |

pub use crate::batch::{EditBatch, Mutator};
pub use crate::engine::{
    Engine, EngineConfig, EngineCore, PropagationPolicy, ReadView, RegionCx, RegionState, SmlSim,
};
pub use crate::error::CealError;
pub use crate::obs::{Attribution, SiteRow, TraceRecorder};
pub use crate::obs::{CountingHook, Event, EventHook, Phase, PhaseKind, Profile, TraceKind};
pub use crate::program::{
    NativeFn, OpaqueFn, Program, ProgramBuilder, Site, SiteKind, SiteTable, Tail,
};
pub use crate::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
pub use crate::stats::{OpCounters, Stats};
pub use crate::value::{FuncId, Interner, Loc, ModRef, SiteId, StrId, Value};
