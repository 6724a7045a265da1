//! The precomputed evaluation basis: run the fragment once per state,
//! check many candidates against the stored expectations.
//!
//! Screening and full verification ask one question of a state σ: does
//! the candidate's output on σ match the fragment's? The fragment side of
//! that question is candidate-independent, so [`VerificationBasis`]
//! evaluates it once per state and keeps the pre-loop state and expected
//! outputs beside σ as a [`VcEntry`]. Checking a candidate then costs one
//! candidate evaluation per entry and **zero** fragment runs, state
//! clones, or RNG draws.
//!
//! There is one builder and one walk for both phases. The synthesizer's
//! basis (`synthesis::cegis`) holds Φ's initial states, each observed
//! whole, and the bounded domain's prefix walks; the full verifier's holds
//! the full domain's prefix walks and permutation trials. Both check a
//! candidate with [`VerificationBasis::first_failure`] over a range of
//! entries, and a verifier counter-example is an entry the search appends
//! to its own basis as it is. The §3.3 prefix walk is written once, in
//! [`walk_prefixes`]. A basis is built once per fragment and shared by
//! reference across every candidate, grammar class, and `findSummary`
//! round.

use std::ops::Range;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use seqlang::env::Env;
use seqlang::error::Result;
use seqlang::value::Value;

use crate::fragment::Fragment;
use crate::stategen::{StateGen, StateGenConfig};
use crate::vc::{outputs_match, REL_TOL};

/// The candidate-independent facts about one concrete state: the pre-loop
/// state candidates are evaluated against and the outputs the fragment
/// computes. `None` when the fragment itself faults on the state (such
/// states are skipped for every candidate).
pub fn observe_fragment(fragment: &Fragment, state: &Env) -> Option<(Env, Env)> {
    let post = fragment.run(state).ok()?;
    let pre = fragment.pre_loop_state(state).ok()?;
    Some((pre, fragment.project_outputs(&post)))
}

/// The executable VCs of §3.3 on one state: observe its prefixes `0..=n`
/// in order (`n` is [`Fragment::data_len`]) and hand each to `visit` as
/// `(prefix state, pre-loop state, expected outputs)`. Checking a
/// candidate on every prefix checks initiation (`0`), each continuation
/// step and termination (`n`) on the state.
///
/// The walk stops at the first prefix the fragment faults on and returns
/// `false`; the prefixes before it have been visited, and the rest of the
/// state is skipped for every candidate. It returns `true` when every
/// prefix was observed.
pub fn walk_prefixes(
    fragment: &Fragment,
    state: &Env,
    mut visit: impl FnMut(Env, Env, Env),
) -> bool {
    for p in 0..=fragment.data_len(state) {
        let prefix = fragment.truncate_state(state, p);
        let Some((pre, expected)) = observe_fragment(fragment, &prefix) else {
            return false;
        };
        visit(prefix, pre, expected);
    }
    true
}

/// One precomputed obligation: evaluate the candidate on [`pre`], compare
/// with [`expected`]. The (whole, truncated or shuffled) concrete state is
/// kept as the counter-example if the check fails.
///
/// [`pre`]: VcEntry::pre
/// [`expected`]: VcEntry::expected
#[derive(Debug, Clone, PartialEq)]
pub struct VcEntry {
    /// Index of the originating domain state — verdict adjudication
    /// reports `states_checked` in terms of domain states, and the
    /// lowest-indexed failing entry decides the counter-example.
    pub state_index: usize,
    /// The concrete state this obligation checks — the counter-example if
    /// the check fails.
    pub state: Env,
    /// Pre-loop state the candidate is evaluated on.
    pub pre: Env,
    /// Outputs the fragment computes on [`state`](VcEntry::state).
    pub expected: Env,
}

impl VcEntry {
    /// Does the candidate fail this obligation? An evaluation error on an
    /// in-domain state is a failure (the candidate is wrong on it),
    /// exactly like a mismatching output.
    pub fn fails(&self, candidate: &dyn Fn(&Env) -> Result<Env>) -> bool {
        match candidate(&self.pre) {
            Err(_) => true,
            Ok(got) => !outputs_match(&self.expected, &got, REL_TOL),
        }
    }
}

/// A fragment's precomputed state domain: every obligation in check
/// order, the fragment side fully evaluated. See the
/// [module docs](self).
#[derive(Debug, Clone)]
pub struct VerificationBasis {
    /// All obligations, in deterministic check order: first one entry per
    /// whole state, then for each walked state its prefix walk (`0..=n`)
    /// followed by its permutation trials. A state contributes no entries
    /// from the first prefix the fragment faults on (resolved at build
    /// time, see [`walk_prefixes`]).
    pub entries: Vec<VcEntry>,
    /// Per drawn state: the contiguous entry range it contributed.
    pub per_state: Vec<Range<usize>>,
    /// Number of states drawn (including skipped-invalid ones).
    pub domain_states: usize,
}

impl VerificationBasis {
    /// Build the basis from one stream of `domain` states: `whole` states
    /// observed once each (a state the fragment faults on has no entry),
    /// then `walked` states whose every prefix is observed (the executable
    /// VCs of §3.3), each followed by `permutations` shuffled trials when
    /// the walk completed (the multiset-semantics check).
    ///
    /// All randomness is consumed here, in a fixed order, so checking a
    /// candidate is RNG-free and deterministic.
    pub fn build(
        fragment: &Fragment,
        domain: &StateGenConfig,
        whole: usize,
        walked: usize,
        permutations: usize,
    ) -> VerificationBasis {
        let mut gen = StateGen::new(fragment, domain.clone());
        let mut shuffle_rng = StdRng::seed_from_u64(domain.seed ^ 0xF00D);
        let states = whole + walked;
        let mut entries: Vec<VcEntry> = Vec::new();
        let mut per_state: Vec<Range<usize>> = Vec::with_capacity(states);
        let push = |entries: &mut Vec<VcEntry>, state_index, state, (pre, expected): (Env, Env)| {
            entries.push(VcEntry {
                state_index,
                state,
                pre,
                expected,
            })
        };

        for state_index in 0..states {
            let state = gen.next_state();
            let start = entries.len();
            if state_index < whole {
                if let Some(observed) = observe_fragment(fragment, &state) {
                    push(&mut entries, state_index, state, observed);
                }
                per_state.push(start..entries.len());
                continue;
            }
            // A prefix the fragment faults on ends the state's walk: the
            // prefixes before it stay, and its permutation trials are
            // skipped.
            let valid = walk_prefixes(fragment, &state, |prefix, pre, expected| {
                push(&mut entries, state_index, prefix, (pre, expected))
            });
            if valid {
                for _ in 0..permutations {
                    let shuffled = shuffle_data(fragment, &state, &mut shuffle_rng);
                    // Shuffles the fragment faults on are skipped (the
                    // fragment's precondition, not the candidate's fault).
                    if let Some(observed) = observe_fragment(fragment, &shuffled) {
                        push(&mut entries, state_index, shuffled, observed);
                    }
                }
            }
            per_state.push(start..entries.len());
        }

        VerificationBasis {
            entries,
            per_state,
            domain_states: states,
        }
    }

    /// The entries the drawn states `states` contributed, as one range.
    pub fn entries_of(&self, states: Range<usize>) -> Range<usize> {
        match &self.per_state[states] {
            [] => 0..0,
            ranges => ranges[0].start..ranges[ranges.len() - 1].end,
        }
    }

    /// The lowest-indexed obligation in `range` that `candidate` fails, in
    /// check order — the one serial walk both screening and full
    /// verification adjudicate from.
    pub fn first_failure(
        &self,
        range: Range<usize>,
        candidate: &dyn Fn(&Env) -> Result<Env>,
    ) -> Option<usize> {
        range
            .into_iter()
            .find(|&i| self.entries[i].fails(candidate))
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
        let b = VerificationBasis::build(&f, &StateGenConfig::full(), 0, 8, 2);
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
    fn whole_states_come_first_from_the_same_stream() {
        let f = sum_frag();
        let domain = StateGenConfig::bounded();
        let b = VerificationBasis::build(&f, &domain, 4, 6, 0);
        let states = StateGen::new(&f, domain).states(10);
        assert_eq!(b.domain_states, 10);
        // Each whole state is one entry, observed as drawn.
        let whole = b.entries_of(0..4);
        assert_eq!(whole, 0..4);
        for (entry, state) in b.entries[whole.clone()].iter().zip(&states) {
            assert_eq!(&entry.state, state);
            let (pre, expected) = observe_fragment(&f, state).unwrap();
            assert_eq!((&entry.pre, &entry.expected), (&pre, &expected));
        }
        // The walked states that follow are the stream's next six.
        let walked = b.entries_of(4..10);
        assert_eq!(walked, whole.end..b.entries.len());
        let mut prefixes = Vec::new();
        for state in &states[4..] {
            walk_prefixes(&f, state, |prefix, _, _| prefixes.push(prefix));
        }
        let got: Vec<&Env> = b.entries[walked].iter().map(|e| &e.state).collect();
        assert_eq!(got, prefixes.iter().collect::<Vec<_>>());
    }

    #[test]
    fn basis_is_deterministic() {
        let f = sum_frag();
        let a = VerificationBasis::build(&f, &StateGenConfig::full(), 0, 6, 2);
        let b = VerificationBasis::build(&f, &StateGenConfig::full(), 0, 6, 2);
        assert_eq!(a.entries.len(), b.entries.len());
        for (x, y) in a.entries.iter().zip(&b.entries) {
            assert_eq!(x.state, y.state);
            assert_eq!(x.pre, y.pre);
            assert_eq!(x.expected, y.expected);
            assert_eq!(x.state_index, y.state_index);
        }
    }

    #[test]
    fn empty_domain_produces_empty_basis() {
        let f = sum_frag();
        let b = VerificationBasis::build(&f, &StateGenConfig::full(), 0, 0, 2);
        assert!(b.entries.is_empty());
        assert_eq!(b.valid_states(), 0);
    }

    #[test]
    fn prefix_walk_stops_at_the_first_faulting_prefix() {
        let f = frag(
            "fn inv(xs: list<int>) -> int {
                let s: int = 0;
                for (x in xs) { s = s + 10 / x; }
                return s;
            }",
        );
        let mut state = Env::new();
        let xs = [1, 2, 0, 5].map(Value::Int).to_vec();
        state.set("xs", Value::List(xs));
        let mut seen = Vec::new();
        let whole = walk_prefixes(&f, &state, |prefix, _, expected| {
            seen.push((f.data_len(&prefix), expected.get("s").cloned()));
        });
        assert!(!whole, "prefix 3 divides by zero");
        let sums = [0, 10, 15].map(|s| Some(Value::Int(s)));
        let expected: Vec<_> = (0..3).zip(sums).collect();
        assert_eq!(seen, expected, "prefixes 0..=2 are visited in order");
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
        let b = VerificationBasis::build(&f, &StateGenConfig::full(), 0, 24, 1);
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
