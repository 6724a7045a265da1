//! `analyzer` — Casper's program analyzer module (§3.2, §6.1–6.2).
//!
//! Given a type-checked `seqlang` program, the analyzer:
//!
//! 1. **identifies candidate code fragments** — loops that iterate one or
//!    more data structures ([`identify`]);
//! 2. runs **live-variable / dataflow analysis** to find each fragment's
//!    input and output variables ([`dataflow`]);
//! 3. extracts the **operators, constants, and library methods** the
//!    fragment uses — the seed for search-space grammar generation
//!    ([`fragment::GrammarSeed`]);
//! 4. prepares **verification conditions** in the prefix-invariant form
//!    of Figure 4 ([`vc`]), checked by executing the fragment on every
//!    prefix of a state ([`basis::walk_prefixes`]), plus a program-state
//!    generator for bounded model checking ([`stategen`]);
//! 5. precomputes per-fragment **evaluation bases** ([`basis`]): the
//!    fragment's expected outputs over a state domain, built once and
//!    shared by reference across every candidate both screening phases
//!    test.

pub mod basis;
pub mod dataflow;
pub mod fragment;
pub mod identify;
pub mod stategen;
pub mod vc;

pub use basis::{observe_fragment, walk_prefixes, VcEntry, VerificationBasis};
pub use fragment::{DataVarInfo, Fragment, FragmentFeatures, GrammarSeed};
pub use identify::identify_fragments;
pub use stategen::{StateGen, StateGenConfig};
