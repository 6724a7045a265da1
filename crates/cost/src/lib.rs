//! `cost` — Casper's static data-centric cost model (§5.1).
//!
//! The model prices a summary by the bytes it generates and shuffles, not
//! by compute:
//!
//! ```text
//! costm(λm, N, Wm) = Wm · N · Σᵢ sizeOf(emitᵢ) · pᵢ          (Eqn 2)
//! costr(λr, N, Wr) = Wr · N · sizeOf(λr) · ε(λr)             (Eqn 3)
//! costj(N₁, N₂, Wj) = Wj · N₁ · N₂ · sizeOf(emitj) · pj      (Eqn 4)
//! ```
//!
//! with weights `Wm = 1`, `Wr = 2`, `Wj = 2` and non-CA penalty
//! `Wcsg = 50` (the paper's empirical values). Costs of pipelines compose
//! by threading the record count produced by each stage into the next.
//!
//! [`static_cost`] keeps conditional-emit probabilities as unknowns
//! `p₁, p₂, …` ([`SymCost`]). That enables the compile-time dominance
//! pruning of §5.2 ([`model::prune_dominated`]): solution (a) of
//! Figure 8 is dominated for *all* probability assignments and is dropped
//! statically, and the enumerator orders candidates by the all-ones
//! assignment. The runtime half of §5.2 — estimating the unknowns on a
//! first-k sample and plugging them into the same formulas — is the
//! monitor in `codegen::monitor`, which prices on the engine's own stage
//! statistics.

pub mod model;
pub mod sym;

pub use model::static_cost;
pub use sym::SymCost;

/// The paper's cost-model weights (§5.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostWeights {
    pub wm: f64,
    pub wr: f64,
    pub wj: f64,
    pub wcsg: f64,
}

impl Default for CostWeights {
    fn default() -> Self {
        CostWeights {
            wm: 1.0,
            wr: 2.0,
            wj: 2.0,
            wcsg: 50.0,
        }
    }
}
