//! `verifier` — full verification of candidate program summaries.
//!
//! In the original system this is Dafny: Casper translates the candidate
//! summary, the loop invariants, and the verification conditions into a
//! Dafny proof script and asks for a deductive proof over the unbounded
//! domain (§3.4). No theorem prover exists in this environment, so the
//! substitution (documented in DESIGN.md) is a *validation* engine that
//! attacks candidates with everything short of deduction:
//!
//! * the same executable prefix-VCs as bounded checking, but over the
//!   **full domain**: long datasets, wide value ranges
//!   ([`fullverify`]) — this is what rejects bounded-domain artefacts
//!   like `v` vs `min(4, v)` (§4.1's motivating example);
//! * **permutation trials**: MapReduce evaluates over multisets, so the
//!   summary must agree with the fragment on reordered data whenever the
//!   fragment itself is order-insensitive;
//! * **algebraic analysis** of reduce transformers ([`algebra`]):
//!   commutativity and associativity are established structurally for
//!   known combinator shapes and falsified by randomised testing
//!   otherwise. Codegen consumes this to choose `reduceByKey` vs
//!   `groupByKey` (§6.3), and the cost model for its ε penalty (§5.1).
//!
//! Every verification produces a human-readable proof transcript
//! ([`proof`]) mirroring the paper's generated Dafny scripts.
//!
//! Verification runs compiled, parallel, and cache-backed: the
//! per-fragment [`Verifier`] precomputes the fragment's behaviour over
//! the full domain once (the [`analyzer::basis::VerificationBasis`]),
//! evaluates candidates through the shared slot-resolved lowering
//! (`casper_ir::compile`), checks obligations on the persistent executor
//! with deterministic adjudication, and memoizes verdicts per candidate
//! fingerprint and domain generation. The tree-walking reference
//! ([`Verifier::verify_interpreted`]) remains as the golden differential
//! oracle.

pub mod algebra;
pub mod fullverify;
pub mod proof;

pub use algebra::{ca_properties, CaProperties};
pub use fullverify::{
    default_verify_parallelism, full_verify, Verification, Verifier, VerifyConfig, VerifyResult,
};
