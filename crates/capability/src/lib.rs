//! # yat-capability — wrapping query capabilities (Section 4)
//!
//! The paper's central wrapping claim is that a source's **query
//! language** — not just a set of canned queries, as in TSIMMIS — can be
//! described generically by combining the operational model with type
//! information. This crate implements that description language:
//!
//! * [`FPattern`]s — XML-serializable *filter patterns* annotated with
//!   `bind` and `inst` flags (Fig. 6): which positions of a filter a
//!   source lets you bind variables at, and which labels must be ground.
//!   An [`Fmodel`] is a named set of them.
//! * [`Interface`] — everything a wrapper exports: its structural models,
//!   exported documents, Fmodels, operation declarations
//!   (`bind`/`select`/... with `kind` ∈ {algebra, boolean, external}) and
//!   declared [`Equivalence`]s (the Wais `eq ⇒ contains` connection of
//!   Section 4.2).
//! * [`matcher`] — decides whether a candidate plan fragment can be
//!   evaluated by a source, giving a reason when it cannot (used by the
//!   optimizer's capability-based rewriting, Section 5.3).
//! * [`xml`] — the interface wire format, round-tripping the document of
//!   Fig. 6, and the structural patterns a pushed `<bind>` carries.
//! * [`plan_xml`] — the wire form of algebra plans, predicates, operands
//!   and templates: how the mediator ships pushed plans to wrappers
//!   ("wrappers and mediators communicate data, structures and
//!   operations in XML", Section 2).
//! * [`protocol`] — the mediator↔wrapper verbs (`get-interface`,
//!   `get-document`, `execute`, `execute-batch`) and the client↔server
//!   verbs (`query`, `explain`, `stats`, `shutdown`) the serving layer
//!   speaks.
//! * [`codec`] — the one serialization of every message: `encode` onto
//!   a `yat_xml::Out`, `decode` over the `yat_xml::Reader` tokenizer,
//!   with no DOM on either side. [`tab_xml`] keeps the DOM form of
//!   result tables as the reference the codec's tests compare against.
//! * [`framing`] — length-prefixed frames carrying those messages over a
//!   byte stream, with typed [`xml::WireError`]s for every way hostile
//!   bytes can fail to decode.
//! * [`slot`] — the per-thread slot a wrapper files its index and storage
//!   reports in until the transport takes them.

pub mod codec;
pub mod flags;
pub mod fpattern;
pub mod framing;
pub mod index;
pub mod interface;
pub mod matcher;
pub mod plan_xml;
pub mod protocol;
pub mod slot;
pub mod store;
pub mod tab_xml;
pub mod xml;

pub use flags::{BindFlag, InstFlag};
pub use fpattern::{FEdge, FLabel, FOcc, FPattern, Fmodel};
pub use index::{IndexPolicy, IndexReport};
pub use interface::{Equivalence, ExportDecl, Interface, OpKind, OperationDecl, SigItem};
pub use matcher::{accepts_filter, pushable, Rejection};
pub use slot::ReportSlot;
pub use store::{StorageReport, StorePolicy};

#[cfg(test)]
mod tests;
