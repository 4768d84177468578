//! # yat-mediator — the YAT mediator: composition, optimization, execution
//!
//! The `yat-mediator` program of Fig. 2: connects wrappers, imports their
//! structural metadata and query capabilities, loads YATL integration
//! programs, and evaluates user queries with the optimizations of
//! Section 5:
//!
//! * [`compose`] — query–view composition (Source nodes naming views are
//!   replaced by the view's algebraic plan — the "naive evaluation
//!   strategy in which the view is materialized" that optimization then
//!   dismantles);
//! * [`rules`] — the algebraic equivalences: Bind splitting (Fig. 7),
//!   Bind–Tree elimination (Section 5.2), typed filter simplification and
//!   projection pushdown (Section 5.1), capability-based rewriting and
//!   information passing (Section 5.3);
//! * [`optimizer`] — the paper's "simple linear search strategy
//!   consisting of the three rewriting rounds" (Section 6);
//! * [`transport`] — byte-counted XML channels to wrappers, replacing the
//!   paper's TCP links so transfer volumes are measurable;
//! * [`executor`] — plan evaluation: fetches documents for mediator-side
//!   operators, ships `Push` fragments to wrappers (with DJoin
//!   information passing via constant substitution), and compensates
//!   source predicates locally when they could not be pushed; under
//!   [`ExecMode::Parallel`] independent fragments and the prefetch
//!   scatter across `std::thread::scope` worker lanes;
//! * [`policy`] — the executor's two policy values ([`ExecMode`],
//!   [`StreamPolicy`]): plain data with documented defaults, set
//!   through `Mediator::set_*` — nothing in the library reads the
//!   environment;
//! * [`explain`] — `EXPLAIN ANALYZE`: execution with a span collector
//!   attached, returning the annotated operator tree with per-operator
//!   cardinalities, wall times and wire traffic;
//! * [`Mediator`] — the façade tying it all together
//!   (`connect` / `load_program` / `plan` / `optimize` / `execute` /
//!   `explain`).

pub mod compose;
pub mod executor;
pub mod explain;
pub mod mediator;
pub mod optimizer;
pub mod policy;
pub mod rules;
pub mod session;
pub mod transport;

pub use executor::ExecError;
pub use explain::{CacheLine, Explain, FederationLine, LaneJob, ProgramLine, StorageLine};
#[doc(hidden)]
pub use mediator::bench_compat::*;
pub use mediator::{Mediator, MediatorError};
pub use optimizer::{optimize, optimize_with_registry, OptimizerOptions, RuleFiring, Trace};
pub use policy::{ExecMode, StreamPolicy};
pub use session::Session;
pub use transport::{Connection, Latency, Meter, MeterSnapshot};
pub use yat_cache::{AnswerCache, CachePolicy, CacheStats, CachedAnswer, Signature, SourceStats};
pub use yat_federate::{
    CostRecord, CostSnapshot, Dead, FetchOnly, GroupKind, Member, MemberRole, SourceRegistry,
};

#[cfg(test)]
mod tests;
