//! yat-federate: the N-source federation registry.
//!
//! The paper's mediator architecture (Fig. 2) is built for many
//! heterogeneous sources; this crate holds the machinery that scales the
//! two-source repro to a real federation:
//!
//! * [`SourceRegistry`] — members grouped into *replica groups* (each
//!   member holds the full data) and *partition groups* (each member
//!   holds a disjoint shard keyed by a partition field), with per-member
//!   capability flags and a health/cost record;
//! * [`CostRecord`] — EWMA latency/bytes plus trip, error and cache
//!   counters, fed from the transport and cache layers and consulted by
//!   the scheduler and the optimizer;
//! * [`constraints_of`] — conjunctive constraint extraction from a plan
//!   fragment, the input to partition pruning: a shard whose declared
//!   partition values cannot match the fragment's constants is never
//!   contacted.

#![deny(missing_docs)]

pub mod adapters;
pub mod cost;
pub mod prune;
pub mod registry;

pub use adapters::{Dead, FetchOnly};
pub use cost::{CostRecord, CostSnapshot};
pub use prune::{constraints_of, Constraints};
pub use registry::{GroupKind, Member, MemberRole, SourceRegistry};
