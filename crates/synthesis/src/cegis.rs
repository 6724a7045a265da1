//! The CEGIS loop (§3.4.1) and Casper's search algorithm `findSummary`
//! (Figure 5), including candidate blocking on theorem-prover failures
//! (§4.1) and incremental grammar-class traversal (§4.2–4.3).
//!
//! ## Screening architecture
//!
//! Screening a candidate means checking it against the counter-example
//! set Φ and the bounded domain. Both are drawn from a finite
//! **observation basis** built once per search: the initial random Φ
//! states plus every prefix of every bounded state (the prefix walk is
//! how the executable VCs of §3.3 check initiation, continuation and
//! termination on one state; it is `analyzer::basis::walk_prefixes`, the
//! walk the full verifier's basis is built with). The fragment's
//! expected outputs per basis state are precomputed, so screening one
//! candidate costs one [`CompiledSummary`] evaluation per state instead
//! of re-running the sequential fragment interpreter for every
//! (candidate, state, prefix) triple — the compiled evaluator plus the
//! precomputed basis is what makes the bounded-model-checking phase
//! cheap. The basis grows only by the full verifier's counter-examples
//! (below).
//!
//! ## One pass over each class
//!
//! Figure 5 restarts the synthesizer after every theorem-prover call.
//! Here each class's candidate stream is read once: one cursor per class
//! lives for the whole search, and after a candidate goes to the full
//! verifier, screening resumes one past it. Every candidate before the
//! cursor was one of three things, and none of them can pass screening
//! again:
//!
//! - blocked: it reached the full verifier and is in Ω ∪ ∆;
//! - φ-rejected: Φ only grows, so it still fails the same state;
//! - bounded-rejected: its failing bounded state joined Φ, so it is now
//!   φ-rejected.
//!
//! A restart would re-screen them only to reject them again and would
//! return the same next candidate; resuming returns it without the
//! re-screens.
//!
//! ## Each class streams only what is new
//!
//! The same argument carries across classes. The search moves to class
//! k only once every class below k is exhausted with ∆ empty, so each
//! candidate those classes produced was blocked (in Ω), φ-rejected, or
//! bounded-rejected with its failing state added to Φ. In class k it
//! would be skipped as blocked or fail Φ again, which only grows; it
//! could never pass screening, reach the verifier or add a state to Φ.
//! So class k's stream is built with [`CandidateStream::after`] on the
//! exhausted class's stream, and drops every earlier candidate when it is
//! generated, before it is costed or screened. The survivors keep their
//! `(cost, generation)` order, so the candidates that pass screening come
//! in the same order, and the verifier calls, Φ and ∆ are unchanged.
//! What falls is the number of stream positions
//! ([`SearchReport::candidates_generated`]) and of duplicates retired by
//! the dedup below. Only the observational dedup's dead set can tell the
//! difference: it no longer holds the dropped candidates' signatures, so
//! a later candidate could be charged to `candidates_checked` instead of
//! being retired as their duplicate. Across the 93 registry programs no
//! `candidates_checked` count moved.
//!
//! ## Verifier counter-examples
//!
//! The full verifier refutes a candidate on a concrete state
//! ([`VerifierVerdict::counter_example`]). The search appends that state
//! to the basis — the fragment side computed by the same
//! `observe_fragment` the verifier's own basis is built with — and adds
//! it to Φ. A later candidate that fails the state would fail the
//! verifier's identical obligation (same pre-loop state, same expected
//! outputs, same [`REL_TOL`]), so screening rejects it instead of the
//! verifier; a candidate the verifier accepts passes every one of its
//! obligations, so no member of ∆ is lost. ∆ and its order are
//! therefore unchanged, and only the number of candidates sent to the
//! verifier falls. Dafny, the paper's prover, reports no such state; the
//! test-based verifier does, and keeping it is the classic CEGIS step
//! (Solar-Lezama et al., ASPLOS 2006).
//!
//! ## Observational-equivalence dedup
//!
//! The φ fast-screen evaluates a candidate on Φ in order and
//! short-circuits at the first failing state; that failing prefix of
//! output fingerprints is the candidate's *signature*. Signatures of
//! φ-rejected candidates join a *dead set*; a later candidate whose
//! signature matches is retired as a duplicate
//! ([`SearchReport::candidates_deduped`]) instead of being charged as a
//! fresh rejection — the screening ledger (`candidates_checked`, the
//! BMC-workload column of Tables 2/3) counts each observational
//! equivalence class once per Φ generation, not once per member. A
//! matching signature means identical outputs up to and including a
//! shared failing Φ state (signature length is part of the hash, so
//! growing Φ retires old entries automatically), so a retired candidate
//! provably fails a state the un-deduped serial search would also have
//! checked — dedup can only remove candidates the search was going to
//! reject anyway, never a summary it would have found. Candidates that
//! *pass* Φ are never deduplicated: distinct φ-clean candidates may
//! still diverge on the bounded domain or under the full verifier, and
//! the multiplicity of ∆ (the runtime monitor's variant pool) depends
//! on keeping all of them.
//!
//! ## Determinism
//!
//! With `parallelism > 1` chunks of candidates are *observed*
//! concurrently (the expensive, Φ-independent part) and then adjudicated
//! sequentially in enumeration order against the live Φ and dead set —
//! the same decision sequence the serial loop produces, bit for bit.
//! Counter-examples enter Φ as basis indices, so replaying a verdict
//! against states discovered mid-chunk is a table lookup, not a re-run.
//! A candidate that passes mid-chunk leaves the class cursor one past its
//! own stream position, so the next round starts at the same candidate
//! at any worker count.

use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, RwLock};
use std::time::{Duration, Instant};

use analyzer::basis::{observe_fragment, walk_prefixes};
use analyzer::fragment::Fragment;
use analyzer::stategen::{StateGen, StateGenConfig};
use analyzer::vc::{outputs_match, REL_TOL};
use casper_ir::compile::CompiledSummary;
use casper_ir::mr::ProgramSummary;
use casper_runtime::{run_indexed, Priority};
use seqlang::env::Env;

use crate::enumerate::{CandidateStream, Chunk};
use crate::grammar::{generate_classes, Grammar, GrammarClass};

/// Candidates handed to the worker pool per screening round. Bounds the
/// work discarded when an early candidate is accepted mid-chunk.
const CHUNK_SIZE: usize = 64;

/// Worker-pool size used when a parallelism knob is left at its default:
/// every core the host exposes.
pub fn default_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Configuration for one CEGIS run (the inner loop of Figure 5).
#[derive(Debug, Clone)]
pub struct SynthConfig {
    /// Number of bounded-domain states used by the bounded model checker.
    pub bounded_states: usize,
    /// Initial random states seeding Φ.
    pub initial_states: usize,
    /// Generator config for the bounded domain.
    pub domain: StateGenConfig,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig {
            bounded_states: 24,
            initial_states: 4,
            domain: StateGenConfig::bounded(),
        }
    }
}

/// Configuration for `find_summary` (the outer search).
#[derive(Debug, Clone)]
pub struct FindConfig {
    pub synth: SynthConfig,
    /// Wall-clock budget; the paper kills searches at 90 minutes.
    pub timeout: Duration,
    /// How many cost-ordered verified candidates the search hands to the
    /// optimizer; the search stops once this many verify in the
    /// succeeding class (the paper keeps searching the class
    /// exhaustively; the cap keeps our enumerator's long tail in check).
    /// Candidates stream cheapest-first (the enumerator orders by
    /// symbolic upper-bound cost), so the first `top_k` verified ARE the
    /// top-k cost-ordered summaries. `1` = take the first verified
    /// candidate, bit-identical to a single-solution search — the
    /// optimizer's escape hatch.
    pub top_k: usize,
    /// Disable the grammar hierarchy (Table 3's ablation): search only
    /// the last class of [`generate_classes`], G4. The classes are not
    /// nested (see [`GrammarClass`]), so `incremental: false` searches a
    /// different space, not a superset of the incremental one.
    pub incremental: bool,
    /// Worker threads for the bounded-model-checking phase. `1` runs the
    /// exact sequential Figure 5 loop (the paper's configuration);
    /// larger values observe candidate chunks concurrently while
    /// producing **identical** search outcomes (see the module docs).
    /// Defaults to the host's core count.
    pub parallelism: usize,
    /// Observational-equivalence deduplication (see the module docs).
    /// `false` screens every candidate — the ablation baseline the
    /// dedup-soundness property test compares against.
    pub dedup: bool,
    /// Hard cap on candidates streamed into screening across the whole
    /// search (all classes). `None` is unbounded. Each position of a
    /// class's stream is screened at most once, and a class's stream
    /// holds only the candidates no lower class produced, so the budget
    /// counts new positions: neither re-screens of earlier positions
    /// after a verifier call nor a lower class's candidates met again in
    /// a higher one. Exceeding the budget ends the search exactly like a
    /// timeout, but deterministically — the knob CI smoke runs use to
    /// bound wall time without making the outcome depend on machine
    /// speed.
    pub max_candidates: Option<u64>,
}

impl Default for FindConfig {
    fn default() -> Self {
        FindConfig {
            synth: SynthConfig::default(),
            timeout: Duration::from_secs(60),
            top_k: 3,
            incremental: true,
            parallelism: default_parallelism(),
            dedup: true,
            max_candidates: None,
        }
    }
}

/// What the full verifier reports back to the search for one candidate.
/// Verifiers that find no counter-examples (tests) build it with
/// [`VerifierVerdict::simple`].
#[derive(Debug, Clone, Default)]
pub struct VerifierVerdict {
    /// Did the candidate pass full verification (into ∆)?
    pub verified: bool,
    /// A concrete state that refutes the candidate, when rejected on one.
    /// The search adds it to Φ (see the module docs).
    pub counter_example: Option<Env>,
}

impl VerifierVerdict {
    /// A bare verdict with no counter-example.
    pub fn simple(verified: bool) -> VerifierVerdict {
        VerifierVerdict {
            verified,
            ..VerifierVerdict::default()
        }
    }
}

/// Statistics of one `find_summary` run — the raw material for Tables 2
/// and 3.
#[derive(Debug, Clone, Default)]
pub struct SearchReport {
    /// Candidates the enumerator streamed into the screening layer
    /// (after blocked-set filtering, before dedup).
    pub candidates_generated: u64,
    /// Candidates retired by observational-equivalence dedup: their
    /// failing Φ output prefix matched an already-rejected candidate, so
    /// they are not charged to the screening ledger again.
    pub candidates_deduped: u64,
    /// Candidates actually screened against the bounded checker
    /// (`generated − deduped` over the same stream).
    pub candidates_checked: u64,
    /// Candidates that passed bounded checking and went to full
    /// verification.
    pub sent_to_verifier: u64,
    /// Candidates the full verifier rejected (Table 2's "TP failures").
    pub verifier_rejections: u64,
    /// States added to Φ: the bounded domain's counter-examples from
    /// screening plus the full verifier's.
    pub counter_examples: u64,
    /// Grammar classes explored.
    pub classes_explored: usize,
    /// Whether the search hit its timeout.
    pub timed_out: bool,
}

impl SearchReport {
    /// Fraction of streamed candidates the dedup layer absorbed.
    pub fn dedup_ratio(&self) -> f64 {
        if self.candidates_generated == 0 {
            return 0.0;
        }
        self.candidates_deduped as f64 / self.candidates_generated as f64
    }
}

/// Result of the search.
#[derive(Debug, Clone, PartialEq)]
pub enum FindOutcome {
    /// Verified summaries (∆), cheapest first.
    Found(Vec<ProgramSummary>),
    /// Search space exhausted with no verified summary.
    Exhausted,
    /// Budget exceeded before a summary was verified.
    TimedOut,
}

/// Fingerprint marker for a candidate evaluation that faulted.
const FAULT_FINGERPRINT: u64 = 0x6661756c74; // "fault"

/// What a candidate did on one basis state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StateObs {
    /// The fragment itself faults on this state — skipped for every
    /// candidate.
    Invalid,
    /// Candidate outputs agree with the fragment's; carries the output
    /// fingerprint for the OE signature.
    Agree(u64),
    /// Candidate outputs differ (or its evaluation faulted).
    Differ(u64),
}

impl StateObs {
    fn is_differ(&self) -> bool {
        matches!(self, StateObs::Differ(_))
    }
}

/// One precomputed screening state.
struct BasisEntry {
    /// Pre-loop state candidates are evaluated on; `None` when the
    /// fragment faults on this state (it is then skipped).
    pre: Option<Env>,
    /// Expected outputs (present iff `pre` is).
    expected: Option<Env>,
}

/// The observation basis of one search: every state either phase of
/// screening can test, with the fragment's behaviour precomputed.
struct Basis {
    entries: Vec<BasisEntry>,
    /// Basis indices of the initial Φ states.
    init_phi: Vec<usize>,
    /// Per bounded state: the contiguous range of its prefix states in
    /// prefix order `0..=n` (the executable-VC walk of §3.3), ending
    /// before the first prefix the fragment faults on.
    bounded: Vec<Range<usize>>,
}

impl Basis {
    fn build(fragment: &Fragment, init: &[Env], bounded: &[Env]) -> Basis {
        let mut basis = Basis {
            entries: Vec::new(),
            init_phi: Vec::new(),
            bounded: Vec::new(),
        };
        basis.init_phi = init.iter().map(|st| basis.add(fragment, st)).collect();
        for st in bounded {
            let start = basis.entries.len();
            walk_prefixes(fragment, st, |_, pre, expected| {
                basis.entries.push(BasisEntry {
                    pre: Some(pre),
                    expected: Some(expected),
                })
            });
            basis.bounded.push(start..basis.entries.len());
        }
        basis
    }

    /// Append `state` and return its index. The fragment side is computed
    /// by the shared basis machinery (`analyzer::basis`) — the same helper
    /// the full verifier's domain build runs, so a verifier
    /// counter-example appended here is the verifier's own obligation.
    fn add(&mut self, fragment: &Fragment, state: &Env) -> usize {
        let (pre, expected) = observe_fragment(fragment, state).unzip();
        self.entries.push(BasisEntry { pre, expected });
        self.entries.len() - 1
    }

    /// Evaluate one candidate on one basis state.
    fn observe(&self, compiled: &CompiledSummary, idx: usize) -> StateObs {
        let entry = &self.entries[idx];
        let (Some(pre), Some(expected)) = (&entry.pre, &entry.expected) else {
            return StateObs::Invalid;
        };
        match compiled.eval(pre) {
            // A candidate that faults on a valid state is wrong on it.
            Err(_) => StateObs::Differ(FAULT_FINGERPRINT),
            Ok(got) => {
                let fp = fingerprint_env(&got);
                if outputs_match(expected, &got, REL_TOL) {
                    StateObs::Agree(fp)
                } else {
                    StateObs::Differ(fp)
                }
            }
        }
    }
}

/// Deterministic fingerprint of an output environment. `Env` iterates in
/// sorted key order (`BTreeMap`), so equal contents hash equally across
/// instances and threads.
fn fingerprint_env(env: &Env) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for (name, value) in env.iter() {
        name.hash(&mut h);
        value.hash(&mut h);
    }
    h.finish()
}

/// The OE signature of a rejected candidate: its output vector over the
/// failing Φ prefix (observation is truncated at the first failing
/// state, so the last entry is always the `Differ` that killed it). Two
/// equal signatures mean identical outputs up to and including a shared
/// failing state, which is the whole soundness argument for skipping the
/// duplicate. The vector length is hashed in, so signatures taken at
/// different Φ generations or failure depths can never match — the dead
/// set self-invalidates as Φ grows.
fn signature(phi_obs: &[StateObs]) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    phi_obs.len().hash(&mut h);
    for obs in phi_obs {
        match obs {
            StateObs::Invalid => 0u8.hash(&mut h),
            StateObs::Agree(fp) => {
                1u8.hash(&mut h);
                fp.hash(&mut h);
            }
            StateObs::Differ(fp) => {
                2u8.hash(&mut h);
                fp.hash(&mut h);
            }
        }
    }
    h.finish()
}

/// Verdict of the bounded-domain walk, Φ-independent.
#[derive(Debug, Clone, Copy)]
enum BoundedVerdict {
    /// First failing prefix state, as a basis index (the counter-example
    /// the serial loop would add to Φ).
    Reject(usize),
    Pass,
}

/// Everything a screening worker computes about one candidate. The φ
/// observation is taken against the Φ snapshot current when the chunk was
/// formed, in Φ order, truncated at the first failing state (the φ
/// fast-screen's short-circuit — the Φ tail is never evaluated for a
/// failing candidate); the adjudication loop extends it if Φ grew
/// mid-chunk and the snapshot was clean.
struct Observation {
    compiled: CompiledSummary,
    phi_obs: Vec<StateObs>,
    /// `None` when the snapshot φ-screen already failed — the serial loop
    /// never reaches the bounded walk for such candidates, so neither do
    /// we.
    bounded: Option<BoundedVerdict>,
}

/// Did the (truncated) φ observation end in a failure?
fn phi_failed(phi_obs: &[StateObs]) -> bool {
    phi_obs.last().is_some_and(StateObs::is_differ)
}

/// Evaluate `compiled` on the Φ suffix `phi`, appending to `out` in
/// order and stopping at the first failing state.
fn observe_phi(compiled: &CompiledSummary, basis: &Basis, phi: &[usize], out: &mut Vec<StateObs>) {
    for &idx in phi {
        let obs = basis.observe(compiled, idx);
        let failed = obs.is_differ();
        out.push(obs);
        if failed {
            return;
        }
    }
}

/// Screen one candidate exactly as the serial CEGIS body does: the φ
/// fast-screen first (over the snapshot, short-circuiting), then the
/// bounded prefix walk for φ-clean candidates only.
fn observe_candidate(cand: &ProgramSummary, basis: &Basis, phi: &[usize]) -> Observation {
    let compiled = CompiledSummary::compile(cand);
    let mut phi_obs: Vec<StateObs> = Vec::with_capacity(phi.len());
    observe_phi(&compiled, basis, phi, &mut phi_obs);
    let bounded = if phi_failed(&phi_obs) {
        None
    } else {
        Some(bounded_walk(&compiled, basis))
    };
    Observation {
        compiled,
        phi_obs,
        bounded,
    }
}

/// Walk the bounded domain in state order, each state's prefixes in
/// prefix order, stopping at the first failure. A state's range already
/// ends before the first prefix the fragment faults on, so the rest of
/// that state is skipped, as in the full verifier's walk.
fn bounded_walk(compiled: &CompiledSummary, basis: &Basis) -> BoundedVerdict {
    let prefixes = basis.bounded.iter().flat_map(Range::clone);
    for idx in prefixes {
        if basis.observe(compiled, idx).is_differ() {
            return BoundedVerdict::Reject(idx);
        }
    }
    BoundedVerdict::Pass
}

/// Sequential adjudication of one observed candidate against the live Φ
/// and dead set — the single decision procedure both the serial loop and
/// the parallel replay run, in enumeration order.
enum Adjudication {
    Deduped,
    PhiReject,
    BoundedReject(usize),
    Pass,
}

fn adjudicate(
    obs: &Observation,
    phi: &[usize],
    basis: &Basis,
    dead: &mut HashSet<u64>,
    dedup: bool,
) -> Adjudication {
    // Extend a clean snapshot observation with counter-examples admitted
    // after the chunk was formed (table lookups on the basis, no
    // fragment re-runs); a snapshot that already failed fails at the
    // same state against any longer Φ.
    let mut phi_obs = obs.phi_obs.clone();
    if !phi_failed(&phi_obs) {
        observe_phi(&obs.compiled, basis, &phi[phi_obs.len()..], &mut phi_obs);
    }
    if phi_failed(&phi_obs) {
        // The candidate is rejected either way; the dead set only
        // decides whether it is charged as a fresh rejection or retired
        // as a duplicate of one. Checking the failure bit before the
        // hash means a signature collision can at worst relabel a
        // rejection — never swallow a φ-clean candidate.
        if !dedup {
            return Adjudication::PhiReject;
        }
        let sig = signature(&phi_obs);
        if dead.contains(&sig) {
            return Adjudication::Deduped;
        }
        dead.insert(sig);
        return Adjudication::PhiReject;
    }
    // φ-clean over the extended set implies φ-clean over the snapshot,
    // so the worker computed the bounded verdict.
    match obs
        .bounded
        .expect("φ-clean candidates carry a bounded verdict")
    {
        BoundedVerdict::Reject(idx) => Adjudication::BoundedReject(idx),
        BoundedVerdict::Pass => Adjudication::Pass,
    }
}

/// Observe a candidate chunk on the persistent executor. Work is
/// dealt by an atomic cursor (owned by the runtime); results land in
/// per-candidate slots so the caller sees them in enumeration order
/// regardless of completion order. Participants cooperatively cancel
/// once the deadline passes; `None` slots mean the deadline hit first.
fn observe_chunk_parallel(
    chunk: &[(usize, &ProgramSummary)],
    basis: &Basis,
    phi: &[usize],
    workers: usize,
    deadline: Instant,
) -> Vec<Option<Observation>> {
    let n = chunk.len();
    let mut out: Vec<Option<Observation>> = (0..n).map(|_| None).collect();
    let cancel = AtomicBool::new(false);
    let slots: Vec<Mutex<&mut Option<Observation>>> = out.iter_mut().map(Mutex::new).collect();
    run_indexed(workers, Priority::Normal, n, &|i| {
        if cancel.load(Ordering::Relaxed) {
            return;
        }
        if Instant::now() >= deadline {
            cancel.store(true, Ordering::Relaxed);
            return;
        }
        let obs = observe_candidate(chunk[i].1, basis, phi);
        **slots[i].lock().expect("slot lock") = Some(obs);
    });
    out
}

/// The inner CEGIS loop of Figure 5 (lines 1–8) over a lazy candidate
/// stream, from `*cursor` on: maintain Φ; skip observationally dead
/// candidates; screen the rest against Φ and the bounded domain; grow Φ
/// with counter-examples; return the first survivor and leave `*cursor`
/// one past its stream position, where the next call resumes. With
/// `workers > 1` chunks are observed concurrently and replayed
/// sequentially — outcomes, and the cursor, are identical (see the
/// module docs).
#[allow(clippy::too_many_arguments)]
fn synthesize_stream(
    stream: &mut CandidateStream<'_>,
    cursor: &mut usize,
    blocked: &RwLock<HashSet<ProgramSummary>>,
    basis: &Basis,
    phi: &mut Vec<usize>,
    dead: &mut HashSet<u64>,
    report: &mut SearchReport,
    deadline: Instant,
    workers: usize,
    dedup: bool,
    max_candidates: Option<u64>,
) -> Option<ProgramSummary> {
    loop {
        if Instant::now() >= deadline {
            report.timed_out = true;
            return None;
        }
        // The candidate budget is checked at chunk granularity, so the
        // cut point depends only on the deterministic enumeration order.
        if max_candidates.is_some_and(|cap| report.candidates_generated >= cap) {
            report.timed_out = true;
            return None;
        }
        let chunk = {
            let guard = blocked.read().expect("blocked set");
            stream.next_chunk(cursor, CHUNK_SIZE, &guard)
        };
        let chunk = match chunk {
            Chunk::Exhausted => return None, // class exhausted
            Chunk::AllBlocked => continue,   // window swallowed; keep scanning
            Chunk::Batch(cands) => cands,
        };

        let observations: Vec<Option<Observation>> = if workers <= 1 {
            chunk
                .iter()
                .map(|&(_, cand)| {
                    if Instant::now() >= deadline {
                        None
                    } else {
                        Some(observe_candidate(cand, basis, phi))
                    }
                })
                .collect()
        } else {
            observe_chunk_parallel(&chunk, basis, phi, workers, deadline)
        };

        // Deterministic replay in enumeration order.
        for ((pos, cand), obs) in chunk.into_iter().zip(observations) {
            let Some(obs) = obs else {
                report.timed_out = true;
                return None;
            };
            report.candidates_generated += 1;
            match adjudicate(&obs, phi, basis, dead, dedup) {
                Adjudication::Deduped => report.candidates_deduped += 1,
                Adjudication::PhiReject => report.candidates_checked += 1,
                Adjudication::BoundedReject(idx) => {
                    report.candidates_checked += 1;
                    report.counter_examples += 1;
                    phi.push(idx);
                }
                Adjudication::Pass => {
                    report.candidates_checked += 1;
                    // The rest of the chunk was observed but not
                    // adjudicated: the next call starts there.
                    *cursor = pos + 1;
                    return Some(cand.clone());
                }
            }
        }
    }
}

/// `findSummary` (Figure 5, lines 10–24): walk the grammar-class
/// hierarchy; within each class run CEGIS repeatedly, blocking every
/// candidate that reaches the full verifier (whether it passes into ∆ or
/// fails into Ω) so the synthesizer always makes forward progress.
///
/// Three deviations from Figure 5, none of which changes ∆ or its order
/// (the soundness arguments are in the module docs):
///
/// 1. CEGIS resumes the class's stream one past the candidate it last
///    returned instead of restarting it after each verifier call.
/// 2. A verifier rejection's counter-example joins Φ.
/// 3. Each class streams only the candidates that no lower class
///    produced: the exhausted classes' candidates are dropped when the
///    next class is generated.
///
/// They cut re-screened candidates and verifier calls only.
///
/// With `config.parallelism > 1` the bounded-model-checking phase runs
/// on a worker pool over lazily-streamed candidate chunks (the dominant
/// cost of compilation); outcomes are identical to the sequential
/// search. The blocked set Ω ∪ ∆ lives behind an `RwLock` shared by the
/// chunk producer and the adjudication loop. The search early-cancels
/// as soon as `top_k` summaries verify or the deadline passes —
/// in-flight screening workers observe the cancellation flag and stop.
///
/// ```
/// use analyzer::identify_fragments;
/// use std::sync::Arc;
/// use synthesis::{find_summary, FindConfig, FindOutcome};
///
/// let program = Arc::new(seqlang::compile(
///     "fn sum(xs: list<int>) -> int {
///          let s: int = 0;
///          for (x in xs) { s = s + x; }
///          return s;
///      }",
/// ).unwrap());
/// let fragment = identify_fragments(&program).remove(0);
/// // Accept every bounded-verified candidate (stand-in for the full
/// // verifier, which `casper::Casper` wires in for real runs).
/// use synthesis::VerifierVerdict;
/// let accept = |_: &casper_ir::mr::ProgramSummary| VerifierVerdict::simple(true);
/// let (outcome, report) = find_summary(&fragment, &accept, &FindConfig::default());
/// assert!(matches!(outcome, FindOutcome::Found(_)));
/// assert!(report.candidates_checked > 0);
/// ```
pub fn find_summary(
    fragment: &Fragment,
    full_verify: &dyn Fn(&ProgramSummary) -> VerifierVerdict,
    config: &FindConfig,
) -> (FindOutcome, SearchReport) {
    let deadline = Instant::now() + config.timeout;
    let mut report = SearchReport::default();
    let workers = config.parallelism.max(1);

    if !fragment.ir_expressible() {
        return (FindOutcome::Exhausted, report);
    }

    let grammar = Grammar::for_fragment(fragment);
    let all_classes = generate_classes();
    let classes: Vec<GrammarClass> = if config.incremental {
        all_classes
    } else {
        // Ablation: only the top (largest) class.
        vec![*all_classes.last().expect("non-empty hierarchy")]
    };

    let mut gen = StateGen::new(fragment, config.synth.domain.clone());
    let init_states: Vec<Env> = gen.states(config.synth.initial_states);
    let bounded_states: Vec<Env> = gen.states(config.synth.bounded_states);
    let mut basis = Basis::build(fragment, &init_states, &bounded_states);

    // Φ as basis indices; the OE dead set; Ω ∪ ∆ as a blocked set
    // (candidates already adjudicated by the full verifier), behind a
    // lock so the streaming chunk producer and the screening pool can
    // share it.
    let mut phi: Vec<usize> = basis.init_phi.clone();
    let mut dead: HashSet<u64> = HashSet::new();
    let blocked: RwLock<HashSet<ProgramSummary>> = RwLock::new(HashSet::new());
    let mut delta: Vec<ProgramSummary> = Vec::new();

    // The stream of the last exhausted class: its pool holds every
    // candidate of the classes so far, which the next class's stream
    // drops (see "Each class streams only what is new").
    let mut exhausted: Option<CandidateStream<'_>> = None;
    for class in &classes {
        report.classes_explored += 1;
        let mut stream = match exhausted.take() {
            None => CandidateStream::new(&grammar, class),
            Some(previous) => CandidateStream::after(previous, class),
        };
        let mut cursor = 0usize;
        loop {
            let out_of_budget = config
                .max_candidates
                .is_some_and(|cap| report.candidates_generated >= cap);
            if Instant::now() >= deadline || out_of_budget {
                report.timed_out = true;
                return if delta.is_empty() {
                    (FindOutcome::TimedOut, report)
                } else {
                    (FindOutcome::Found(delta), report)
                };
            }
            let found = synthesize_stream(
                &mut stream,
                &mut cursor,
                &blocked,
                &basis,
                &mut phi,
                &mut dead,
                &mut report,
                deadline,
                workers,
                config.dedup,
                config.max_candidates,
            );
            match found {
                None => break, // class exhausted (or timed out; loop re-checks)
                Some(cand) => {
                    report.sent_to_verifier += 1;
                    blocked.write().expect("blocked set").insert(cand.clone());
                    let verdict = full_verify(&cand);
                    if verdict.verified {
                        delta.push(cand);
                        if delta.len() >= config.top_k.max(1) {
                            return (FindOutcome::Found(delta), report);
                        }
                    } else {
                        // Theorem-prover rejection: candidate goes to Ω
                        // (already in `blocked`), search continues (§4.1);
                        // its refuting state joins Φ.
                        report.verifier_rejections += 1;
                        if let Some(state) = &verdict.counter_example {
                            phi.push(basis.add(fragment, state));
                            report.counter_examples += 1;
                        }
                    }
                }
            }
        }
        if !delta.is_empty() {
            break; // search complete: verified summaries in this class
        }
        exhausted = Some(stream);
    }

    if delta.is_empty() {
        (FindOutcome::Exhausted, report)
    } else {
        (FindOutcome::Found(delta), report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use analyzer::basis::VerificationBasis;
    use analyzer::identify_fragments;
    use casper_ir::eval::eval_summary;
    use casper_ir::pretty::pretty_summary;
    use seqlang::compile;
    use std::sync::Arc;

    /// A cheap stand-in for the full verifier: the prefix walks of 24
    /// full-domain states, without permutation trials.
    fn testing_verifier(fragment: &Fragment) -> impl Fn(&ProgramSummary) -> VerifierVerdict {
        let basis = VerificationBasis::build(fragment, &StateGenConfig::full(), 24, 0, REL_TOL);
        move |summary: &ProgramSummary| {
            let eval = |pre: &Env| eval_summary(summary, pre);
            VerifierVerdict::simple(basis.first_failure(&eval).is_none())
        }
    }

    fn find(src: &str) -> (FindOutcome, SearchReport, Fragment) {
        let p = Arc::new(compile(src).unwrap());
        let frag = identify_fragments(&p).remove(0);
        let verifier = testing_verifier(&frag);
        let (outcome, report) = find_summary(&frag, &verifier, &FindConfig::default());
        drop(verifier);
        let frag2 = identify_fragments(&p).remove(0);
        (outcome, report, frag2)
    }

    #[test]
    fn synthesizes_sum() {
        let (outcome, report, _) = find(
            "fn sum(xs: list<int>) -> int {
                let s: int = 0;
                for (x in xs) { s = s + x; }
                return s;
            }",
        );
        let FindOutcome::Found(sols) = outcome else {
            panic!("sum not synthesized: {report:?}")
        };
        let text = pretty_summary(&sols[0]);
        assert!(text.contains("reduce(map(xs"), "{text}");
        assert!(report.candidates_checked > 0);
        assert_eq!(
            report.candidates_generated,
            report.candidates_checked + report.candidates_deduped,
            "counter algebra must hold"
        );
    }

    #[test]
    fn synthesizes_max() {
        let (outcome, ..) = find(
            "fn mx(xs: list<int>) -> int {
                let m: int = 0;
                for (x in xs) { if (x > m) { m = x; } }
                return m;
            }",
        );
        let FindOutcome::Found(sols) = outcome else {
            panic!("max not found")
        };
        let text = pretty_summary(&sols[0]);
        assert!(text.contains("max") || text.contains('>'), "{text}");
    }

    #[test]
    fn synthesizes_conditional_count() {
        let (outcome, ..) = find(
            "fn cc(xs: list<int>, t: int) -> int {
                let n: int = 0;
                for (x in xs) { if (x > t) { n = n + 1; } }
                return n;
            }",
        );
        let FindOutcome::Found(sols) = outcome else {
            panic!("conditional count not found")
        };
        let text = pretty_summary(&sols[0]);
        assert!(text.contains("if"), "needs a guarded emit: {text}");
    }

    #[test]
    fn inexpressible_fragment_reports_exhausted() {
        let (outcome, report, _) = find(
            "fn wc(lines: list<string>) -> int {
                let n: int = 0;
                for (line in lines) {
                    for (w in line.split()) { n = n + 1; }
                }
                return n;
            }",
        );
        assert!(matches!(outcome, FindOutcome::Exhausted), "{report:?}");
    }

    #[test]
    fn nonincremental_explores_one_class() {
        let src = "fn sum(xs: list<int>) -> int {
            let s: int = 0;
            for (x in xs) { s = s + x; }
            return s;
        }";
        let p = Arc::new(compile(src).unwrap());
        let frag = identify_fragments(&p).remove(0);
        let verifier = testing_verifier(&frag);
        let config = FindConfig {
            incremental: false,
            ..FindConfig::default()
        };
        let (outcome, report) = find_summary(&frag, &verifier, &config);
        assert!(matches!(outcome, FindOutcome::Found(_)));
        assert_eq!(report.classes_explored, 1);
    }

    #[test]
    fn parallel_search_matches_serial_outcomes() {
        for src in [
            "fn sum(xs: list<int>) -> int {
                let s: int = 0;
                for (x in xs) { s = s + x; }
                return s;
            }",
            "fn cc(xs: list<int>, t: int) -> int {
                let n: int = 0;
                for (x in xs) { if (x > t) { n = n + 1; } }
                return n;
            }",
        ] {
            let p = Arc::new(compile(src).unwrap());
            let frag = identify_fragments(&p).remove(0);
            let verifier = testing_verifier(&frag);
            let serial_cfg = FindConfig {
                parallelism: 1,
                ..FindConfig::default()
            };
            let parallel_cfg = FindConfig {
                parallelism: 4,
                ..FindConfig::default()
            };
            let (serial, r1) = find_summary(&frag, &verifier, &serial_cfg);
            let (parallel, r4) = find_summary(&frag, &verifier, &parallel_cfg);
            let (FindOutcome::Found(a), FindOutcome::Found(b)) = (serial, parallel) else {
                panic!("both searches must succeed");
            };
            assert_eq!(a, b, "summary sets diverge");
            assert_eq!(r1.candidates_generated, r4.candidates_generated);
            assert_eq!(r1.candidates_deduped, r4.candidates_deduped);
            assert_eq!(r1.candidates_checked, r4.candidates_checked);
            assert_eq!(r1.counter_examples, r4.counter_examples);
            assert_eq!(r1.sent_to_verifier, r4.sent_to_verifier);
        }
    }

    #[test]
    fn candidate_budget_bounds_search_deterministically() {
        // A search that runs out of candidate budget reports a timeout
        // (never a false Exhausted), and the cut point is a function of
        // the enumeration order alone: two runs with the same cap stream
        // the same number of candidates. The reject-all verifier keeps
        // the stream running until the budget is the thing that stops it.
        let src = "fn sum(xs: list<int>) -> int {
            let s: int = 0;
            for (x in xs) { s = s + x; }
            return s;
        }";
        let p = Arc::new(compile(src).unwrap());
        let frag = identify_fragments(&p).remove(0);
        let verifier = |_: &ProgramSummary| VerifierVerdict::simple(false);
        let capped = FindConfig {
            max_candidates: Some(40),
            ..FindConfig::default()
        };
        let (o1, r1) = find_summary(&frag, &verifier, &capped);
        let (o2, r2) = find_summary(&frag, &verifier, &capped);
        assert!(matches!(o1, FindOutcome::TimedOut), "{r1:?}");
        assert!(matches!(o2, FindOutcome::TimedOut), "{r2:?}");
        assert!(r1.timed_out && r2.timed_out);
        assert_eq!(r1.candidates_generated, r2.candidates_generated);
        // Chunk granularity: the overshoot is bounded by one chunk.
        assert!(r1.candidates_generated >= 40);
        assert!(r1.candidates_generated < 40 + CHUNK_SIZE as u64);
    }

    #[test]
    fn resumed_stream_screens_each_position_once() {
        // A verifier that refutes its first few candidates without a
        // state drives several findSummary rounds through the same
        // classes. Resuming each class's stream screens every position at
        // most once, and each class streams only what the classes before
        // it did not, so the search can stream no more candidates than
        // the explored classes hold distinct ones. A verifier that
        // refutes everything makes the search exhaust every class, so it
        // screens each distinct candidate exactly once. Restarting the
        // stream after each verifier call would re-screen the prefix it
        // already rejected.
        let src = "fn sum(xs: list<int>) -> int {
            let s: int = 0;
            for (x in xs) { s = s + x; }
            return s;
        }";
        let p = Arc::new(compile(src).unwrap());
        let frag = identify_fragments(&p).remove(0);
        let grammar = Grammar::for_fragment(&frag);
        for refuted in [8, u32::MAX] {
            for parallelism in [1, 4] {
                let calls = std::cell::Cell::new(0u32);
                let verifier = |_: &ProgramSummary| {
                    calls.set(calls.get() + 1);
                    VerifierVerdict::simple(calls.get() > refuted)
                };
                let config = FindConfig {
                    parallelism,
                    ..FindConfig::default()
                };
                let (outcome, report) = find_summary(&frag, &verifier, &config);
                let streamed = generate_classes()[..report.classes_explored]
                    .iter()
                    .flat_map(|class| crate::enumerate::candidates(&grammar, class))
                    .collect::<HashSet<ProgramSummary>>()
                    .len() as u64;
                if refuted == u32::MAX {
                    assert_eq!(outcome, FindOutcome::Exhausted, "{report:?}");
                    assert_eq!(report.classes_explored, generate_classes().len());
                    assert_eq!(
                        report.candidates_generated, streamed,
                        "each distinct candidate is screened exactly once"
                    );
                } else {
                    assert!(matches!(outcome, FindOutcome::Found(_)), "{report:?}");
                    assert_eq!(report.verifier_rejections, refuted as u64);
                    assert!(
                        report.candidates_generated <= streamed,
                        "{} candidates screened from {} stream positions",
                        report.candidates_generated,
                        streamed
                    );
                }
            }
        }
    }

    #[test]
    fn dedup_preserves_outcomes_and_shrinks_screening() {
        // The OE-dedup soundness contract, checked exactly: the deduped
        // search finds the same summaries, accumulates the same
        // counter-examples, and its screening ledger is exactly the
        // un-deduped ledger minus the retired duplicates.
        let src = "fn sum(xs: list<int>) -> int {
            let s: int = 0;
            for (x in xs) { s = s + x; }
            return s;
        }";
        let p = Arc::new(compile(src).unwrap());
        let frag = identify_fragments(&p).remove(0);
        let verifier = testing_verifier(&frag);
        let on = FindConfig::default();
        let off = FindConfig {
            dedup: false,
            ..FindConfig::default()
        };
        let (with, r_on) = find_summary(&frag, &verifier, &on);
        let (without, r_off) = find_summary(&frag, &verifier, &off);
        let (FindOutcome::Found(a), FindOutcome::Found(b)) = (with, without) else {
            panic!("both searches must succeed");
        };
        assert_eq!(a, b, "dedup changed the verified summaries");
        assert_eq!(r_on.counter_examples, r_off.counter_examples);
        assert_eq!(r_on.sent_to_verifier, r_off.sent_to_verifier);
        assert_eq!(r_off.candidates_deduped, 0);
        assert_eq!(
            r_on.candidates_checked + r_on.candidates_deduped,
            r_off.candidates_checked,
            "dedup must retire ledger entries one-for-one"
        );
        assert!(
            r_on.candidates_deduped > 0,
            "the sum grammar contains observational duplicates"
        );
    }
}
