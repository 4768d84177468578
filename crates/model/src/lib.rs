//! # yat-model — the YAT data model and type system
//!
//! Implements the data model and type system of the YAT integration system
//! (*"On Wrapping Query Languages and Efficient XML Integration"*, SIGMOD
//! 2000, Section 2; type system introduced in Cluet et al., SIGMOD 1998):
//!
//! * **Data**: ordered, labeled trees ([`Tree`]) whose nodes carry a
//!   [`Label`] — a symbol (element tag), an atomic value ([`Atom`]), an
//!   identifier ([`Oid`]) or a reference to an identifier. A [`Forest`]
//!   holds a set of named trees with an identity map, modelling a source's
//!   exported documents/extents.
//!
//! * **Types**: [`Pattern`]s — trees with atomic-type leaves, `*` (multiple
//!   occurrence) and `∨` (alternative/union) nodes, and references to named
//!   patterns. A [`Model`] is a set of named pattern definitions: the paper's
//!   structural metadata (Fig. 3) at any level of genericity (YAT metamodel,
//!   ODMG model, `art` schema, `Artworks` structure).
//!
//! * **Instantiation**: the mechanism relating levels —
//!   `Artifact <: ODMG <: YAT` in Fig. 3. [`instantiate::is_instance`]
//!   checks data ⊑ pattern; [`instantiate::subsumes`] checks
//!   pattern <: pattern. Both are polynomial for the unambiguous patterns
//!   the paper restricts itself to (citing Beeri–Milo, ICDT 1999).
//!
//! * **Filters**: patterns with distinct variables ([`Filter`]). Matching a
//!   filter against a tree ([`matching::match_filter`]) produces variable
//!   bindings — the heart of the `Bind` algebraic operator. Variables can
//!   bind whole subtrees (`$t`), labels (tag variables) or collections of
//!   subtrees (star-edge variables like `$fields` in Fig. 4).
//!
//! * **XML conversion**: [`xml_convert`] maps between `yat_xml::Element`
//!   documents and YAT trees, since wrappers and mediators exchange
//!   everything as XML (Section 2).

pub mod atom;
pub mod codec;
pub mod forest;
pub mod hash;
pub mod instantiate;
pub mod matching;
pub mod oid;
pub mod pattern;
pub mod postings;
pub mod symbol;
pub mod tree;
pub mod xml_convert;

pub use atom::{Atom, AtomType};
pub use codec::{decode_tree, encode_tree};
pub use forest::Forest;
pub use matching::{match_filter, Binder, Binding, BindingRow, MatchOptions, SlotRows};
pub use oid::{Oid, OidGen};
pub use pattern::{Edge, Filter, Model, Occ, PLabel, Pattern, PatternDef, StarBind};
pub use symbol::Symbol;
pub use tree::{Label, Node, Tree};
