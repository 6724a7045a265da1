//! Precomputed evaluation bases: run the fragment once per state, verify
//! many candidates against the stored expectations.
//!
//! Both screening phases check the same thing — "does the candidate's
//! output on state σ match the fragment's?" — and the fragment side of
//! that question is candidate-independent. PR 3 exploited this for the
//! bounded domain (the synthesizer's *observation basis*); this module
//! generalises the machinery and adds the full verifier's
//! [`VerificationBasis`]: every state the verifier will ever test — the
//! prefix-VC walk of §3.3 over the full domain plus the precomputed
//! permutation trials — with the fragment's behaviour (pre-loop state and
//! expected outputs) baked in at build time. Verifying one candidate then
//! costs one candidate evaluation per entry and **zero** fragment runs,
//! state clones, or RNG draws.
//!
//! A basis is built once per fragment and shared by reference across every
//! candidate, grammar class, and `findSummary` round; its [`generation`]
//! stamp (a digest of the fragment and the domain configuration) keys the
//! verifier's verdict cache so cached verdicts can never outlive the
//! domain they were established on.
//!
//! [`generation`]: VerificationBasis::generation

use std::hash::{Hash, Hasher};
use std::ops::Range;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use seqlang::env::Env;
use seqlang::value::Value;

use crate::fragment::Fragment;
use crate::stategen::{StateGen, StateGenConfig};

/// The candidate-independent facts about one concrete state: the pre-loop
/// state candidates are evaluated against and the outputs the fragment
/// computes. `None` when the fragment itself faults on the state (such
/// states are skipped for every candidate — `CheckOutcome::StateInvalid`).
pub fn observe_fragment(fragment: &Fragment, state: &Env) -> Option<(Env, Env)> {
    let post = fragment.run(state).ok()?;
    let pre = fragment.pre_loop_state(state).ok()?;
    Some((pre, fragment.project_outputs(&post)))
}

/// One precomputed verification obligation: evaluate the candidate on
/// [`pre`], compare with [`expected`]. The (truncated or shuffled)
/// concrete state is retained for counter-example reporting.
///
/// [`pre`]: VcEntry::pre
/// [`expected`]: VcEntry::expected
#[derive(Debug, Clone)]
pub struct VcEntry {
    /// Index of the originating domain state — verdict adjudication
    /// reports `states_checked` in terms of domain states, and the
    /// lowest-indexed failing entry decides the counter-example.
    pub state_index: usize,
    /// The concrete state this obligation checks (truncated prefix or
    /// shuffled permutation) — the counter-example if the check fails.
    pub state: Env,
    /// Pre-loop state the candidate is evaluated on.
    pub pre: Env,
    /// Outputs the fragment computes on [`state`](VcEntry::state).
    pub expected: Env,
}

/// The full verifier's precomputed state domain: every obligation in
/// check order, the fragment side fully evaluated. See the
/// [module docs](self).
#[derive(Debug, Clone)]
pub struct VerificationBasis {
    /// All obligations, in deterministic check order: for each domain
    /// state, its prefix walk (`0..=n`), then its permutation trials.
    /// States the fragment faults on contribute no entries (the
    /// `StateInvalid` skip, resolved at build time).
    pub entries: Vec<VcEntry>,
    /// Per domain state: the contiguous entry range it contributed.
    pub per_state: Vec<Range<usize>>,
    /// Number of domain states drawn (including skipped-invalid ones).
    pub domain_states: usize,
    /// Relative float tolerance for output comparison.
    pub rel_tol: f64,
    /// Domain-generation stamp: a digest of the fragment identity and the
    /// generation parameters. Verdict-cache keys include it, so verdicts
    /// established on one domain can never answer for another.
    pub generation: u64,
}

impl VerificationBasis {
    /// Build the basis: draw `states` domain states, walk every prefix of
    /// each (the executable VCs of §3.3), append `permutations` shuffled
    /// trials per valid state (the multiset-semantics check), and
    /// precompute the fragment's behaviour on all of them.
    ///
    /// All randomness is consumed here, in a fixed order — verification
    /// itself is RNG-free, which is what lets the parallel checker be
    /// bit-deterministic at any worker count.
    pub fn build(
        fragment: &Fragment,
        domain: &StateGenConfig,
        states: usize,
        permutations: usize,
        rel_tol: f64,
    ) -> VerificationBasis {
        let mut gen = StateGen::new(fragment, domain.clone());
        let mut shuffle_rng = StdRng::seed_from_u64(domain.seed ^ 0xF00D);
        let mut entries: Vec<VcEntry> = Vec::new();
        let mut per_state: Vec<Range<usize>> = Vec::with_capacity(states);

        for state_index in 0..states {
            let state = gen.next_state();
            let start = entries.len();
            let n = fragment.data_len(&state);
            let mut valid = true;
            for p in 0..=n {
                let truncated = fragment.truncate_state(&state, p);
                match observe_fragment(fragment, &truncated) {
                    Some((pre, expected)) => entries.push(VcEntry {
                        state_index,
                        state: truncated,
                        pre,
                        expected,
                    }),
                    None => {
                        // The fragment faults on this prefix: the rest of
                        // the state (and its permutation trials) is
                        // skipped, exactly like the sequential checker —
                        // which checked the earlier prefixes before
                        // hitting the fault, so those entries stay.
                        valid = false;
                        break;
                    }
                }
            }
            if valid {
                for _ in 0..permutations {
                    let shuffled = shuffle_data(fragment, &state, &mut shuffle_rng);
                    // Shuffles the fragment faults on are skipped (the
                    // fragment's precondition, not the candidate's fault).
                    if let Some((pre, expected)) = observe_fragment(fragment, &shuffled) {
                        entries.push(VcEntry {
                            state_index,
                            state: shuffled,
                            pre,
                            expected,
                        });
                    }
                }
            }
            per_state.push(start..entries.len());
        }

        let generation = {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            fragment.id.hash(&mut h);
            domain.max_data_len.hash(&mut h);
            domain.int_bound.hash(&mut h);
            domain.double_bound.to_bits().hash(&mut h);
            domain.string_pool.hash(&mut h);
            domain.seed.hash(&mut h);
            states.hash(&mut h);
            permutations.hash(&mut h);
            rel_tol.to_bits().hash(&mut h);
            h.finish()
        };

        VerificationBasis {
            entries,
            per_state,
            domain_states: states,
            rel_tol,
            generation,
        }
    }

    /// Number of domain states with at least one obligation (states the
    /// fragment faults on are skipped entirely).
    pub fn valid_states(&self) -> usize {
        self.per_state.iter().filter(|r| !r.is_empty()).count()
    }
}

/// Shuffle the outer order of every flat-list data variable — the one
/// clone the permutation trial genuinely needs. Arrays iterated by index
/// have order-significant slots and are left alone.
fn shuffle_data(fragment: &Fragment, state: &Env, rng: &mut StdRng) -> Env {
    let mut out = state.clone();
    for dv in &fragment.data_vars {
        if let Some(Value::List(elems)) = out.get_mut(&dv.name) {
            elems.shuffle(rng);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::identify_fragments;
    use seqlang::compile;
    use std::sync::Arc;

    fn frag(src: &str) -> Fragment {
        let p = Arc::new(compile(src).unwrap());
        identify_fragments(&p).remove(0)
    }

    fn sum_frag() -> Fragment {
        frag(
            "fn sum(xs: list<int>) -> int {
                let s: int = 0;
                for (x in xs) { s = s + x; }
                return s;
            }",
        )
    }

    #[test]
    fn basis_precomputes_prefixes_and_shuffles() {
        let f = sum_frag();
        let b = VerificationBasis::build(&f, &StateGenConfig::full(), 8, 2, 1e-6);
        assert_eq!(b.per_state.len(), 8);
        assert_eq!(b.domain_states, 8);
        // Every entry's expected outputs must match a fresh fragment run.
        for e in &b.entries {
            let post = f.run(&e.state).expect("entry states are fragment-valid");
            assert_eq!(f.project_outputs(&post), e.expected);
        }
        // Prefix walk contributes n+1 entries per state (the sum
        // fragment never faults), plus `permutations` shuffle trials,
        // starting with the empty prefix.
        for r in &b.per_state {
            assert!(!r.is_empty());
            let first = &b.entries[r.start];
            assert_eq!(f.data_len(&first.state), 0, "ranges start at prefix 0");
            let full_len = f.data_len(&b.entries[r.end - 1].state);
            assert_eq!(r.len(), full_len + 1 + 2, "n+1 prefixes + 2 shuffles");
        }
    }

    #[test]
    fn basis_is_deterministic() {
        let f = sum_frag();
        let a = VerificationBasis::build(&f, &StateGenConfig::full(), 6, 2, 1e-6);
        let b = VerificationBasis::build(&f, &StateGenConfig::full(), 6, 2, 1e-6);
        assert_eq!(a.entries.len(), b.entries.len());
        for (x, y) in a.entries.iter().zip(&b.entries) {
            assert_eq!(x.state, y.state);
            assert_eq!(x.pre, y.pre);
            assert_eq!(x.expected, y.expected);
            assert_eq!(x.state_index, y.state_index);
        }
        assert_eq!(a.generation, b.generation);
    }

    #[test]
    fn generation_tracks_domain_config() {
        let f = sum_frag();
        let full = VerificationBasis::build(&f, &StateGenConfig::full(), 6, 2, 1e-6);
        let bounded = VerificationBasis::build(&f, &StateGenConfig::bounded(), 6, 2, 1e-6);
        let fewer = VerificationBasis::build(&f, &StateGenConfig::full(), 5, 2, 1e-6);
        let looser = VerificationBasis::build(&f, &StateGenConfig::full(), 6, 2, 1e-3);
        assert_ne!(full.generation, bounded.generation);
        assert_ne!(full.generation, fewer.generation);
        assert_ne!(full.generation, looser.generation);
    }

    #[test]
    fn empty_domain_produces_empty_basis() {
        let f = sum_frag();
        let b = VerificationBasis::build(&f, &StateGenConfig::full(), 0, 2, 1e-6);
        assert!(b.entries.is_empty());
        assert_eq!(b.valid_states(), 0);
    }

    #[test]
    fn faulting_fragment_states_are_skipped_at_build_time() {
        // Division by an input scalar: states drawing d = 0 make the
        // fragment fault and must contribute no entries.
        let f = frag(
            "fn div(xs: list<int>, d: int) -> int {
                let s: int = 0;
                for (x in xs) { s = s + x / d; }
                return s;
            }",
        );
        let b = VerificationBasis::build(&f, &StateGenConfig::full(), 24, 1, 1e-6);
        // All retained entries are fragment-valid by construction.
        for e in &b.entries {
            assert!(f.run(&e.state).is_ok());
        }
        // With the full domain some state skips are expected but not
        // guaranteed; the structural invariant is ranges partition entries.
        let total: usize = b.per_state.iter().map(|r| r.len()).sum();
        assert_eq!(total, b.entries.len());
    }
}
