//! `synthesis` — Casper's summary generator (§3.2, §3.4, §4).
//!
//! Given a code fragment (from `analyzer`), this crate:
//!
//! 1. builds a **search-space grammar** specialised to the fragment — its
//!    operators, constants, methods, and expression atoms harvested from
//!    the loop body ([`grammar`]);
//! 2. partitions that grammar into the **incremental hierarchy of grammar
//!    classes** of §4.2, keyed on the number of MapReduce operators, emit
//!    counts, key/value type complexity, and expression length;
//! 3. **enumerates candidate summaries** from a grammar class in cost
//!    order ([`enumerate`]);
//! 4. runs the **CEGIS loop** of Figure 5 — candidate generation against
//!    the concrete-state set Φ, bounded model checking over the bounded
//!    domain, counter-example refinement ([`cegis`]);
//! 5. implements **findSummary** (Figure 5, lines 10–24), including the
//!    candidate-blocking set Ω that makes search complete in the face of
//!    theorem-prover rejections (§4.1).
//!
//! The role Sketch plays in the original system — solving the bounded
//! synthesis problem — is filled by deterministic, type-directed
//! enumeration plus the same CEGIS outer loop; the interface (grammar in,
//! bounded-verified candidate out) is identical.
//!
//! Candidates are produced by a **cost-ordered generator**
//! ([`CandidateStream`]) that expands a class on first pull, stores each
//! distinct candidate once, and streams only the candidates no lower
//! class produced. Its ordering key is the cost crate's static model
//! ([`enumerate::enumeration_cost`]) — the same model that ranks
//! verified summaries, so "cheapest first" means one thing end to end. Screening runs on a **compiled evaluator**
//! (`casper_ir::compile`) over a precomputed observation basis, with
//! **observational-equivalence dedup** absorbing candidates whose output
//! vectors over Φ match an already-rejected equivalence class.
//!
//! The search is one serial loop, as the paper's `findSummary` is: each
//! candidate is screened right before the search decides on it (see
//! [`cegis`]).

pub mod cegis;
pub mod enumerate;
pub mod grammar;

pub use cegis::{
    find_summary, FindConfig, FindOutcome, SearchReport, SynthConfig, VerifierVerdict,
};
pub use enumerate::{enumeration_cost, CandidateStream, Chunk};
pub use grammar::{generate_classes, Grammar, GrammarClass};
