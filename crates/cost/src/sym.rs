//! Symbolic per-record costs: linear functions over unknown emit
//! probabilities.

use std::collections::BTreeMap;

/// A cost of the form `N · (base + Σ coefᵢ · pᵢ)` where each `pᵢ ∈ [0,1]`
/// is the unknown probability of a conditional emit (or join selectivity).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SymCost {
    /// Probability-independent bytes per input record.
    pub base: f64,
    /// Coefficients of the unknowns, keyed by probability name.
    pub terms: BTreeMap<String, f64>,
}

impl SymCost {
    pub fn constant(base: f64) -> SymCost {
        SymCost {
            base,
            terms: BTreeMap::new(),
        }
    }

    pub fn add_term(&mut self, name: impl Into<String>, coef: f64) {
        *self.terms.entry(name.into()).or_insert(0.0) += coef;
    }

    pub fn add(&mut self, other: &SymCost) {
        self.base += other.base;
        for (k, v) in &other.terms {
            *self.terms.entry(k.clone()).or_insert(0.0) += v;
        }
    }

    pub fn scale(&self, factor: f64) -> SymCost {
        SymCost {
            base: self.base * factor,
            terms: self
                .terms
                .iter()
                .map(|(k, v)| (k.clone(), v * factor))
                .collect(),
        }
    }

    /// Evaluate with concrete probability assignments; missing unknowns
    /// default to `default_p`.
    pub fn eval(&self, probs: &BTreeMap<String, f64>, default_p: f64) -> f64 {
        self.base
            + self
                .terms
                .iter()
                .map(|(k, c)| c * probs.get(k).copied().unwrap_or(default_p))
                .sum::<f64>()
    }

    /// Collapse to a scalar at the all-ones probability assignment: every
    /// conditional emit fires, every join matches. This is the worst-case
    /// byte volume of the summary and the ordering key the enumerator's
    /// cheapest-first candidate stream uses (the single cost model shared
    /// with final ranking — see `model::static_cost`).
    pub fn upper_bound(&self) -> f64 {
        self.base + self.terms.values().sum::<f64>()
    }

    /// Does `self` cost at least as much as `other` for *every* assignment
    /// of the unknowns in `[0,1]`? Both costs are linear in each `pᵢ`, so
    /// checking all corner assignments of the union of unknowns is exact.
    pub fn dominates(&self, other: &SymCost) -> bool {
        let mut names: Vec<&String> = self.terms.keys().collect();
        for k in other.terms.keys() {
            if !names.contains(&k) {
                names.push(k);
            }
        }
        let k = names.len();
        if k > 16 {
            // Too many unknowns for corner enumeration; be conservative.
            return false;
        }
        for mask in 0..(1u32 << k) {
            let assignment: BTreeMap<String, f64> = names
                .iter()
                .enumerate()
                .map(|(i, n)| ((*n).clone(), if mask & (1 << i) != 0 { 1.0 } else { 0.0 }))
                .collect();
            if self.eval(&assignment, 0.0) < other.eval(&assignment, 0.0) - 1e-9 {
                return false;
            }
        }
        true
    }

    /// Render like the paper's Figure 8(d) "Total" column, e.g.
    /// `150(p1 + p2)` or `84`.
    pub fn display(&self) -> String {
        let mut parts = Vec::new();
        if self.base != 0.0 || self.terms.is_empty() {
            parts.push(
                format!("{:.6}", self.base)
                    .trim_end_matches('0')
                    .trim_end_matches('.')
                    .to_string(),
            );
        }
        // Group terms with the same coefficient.
        let mut by_coef: BTreeMap<String, Vec<&String>> = BTreeMap::new();
        for (name, coef) in &self.terms {
            by_coef
                .entry(
                    format!("{:.6}", coef)
                        .trim_end_matches('0')
                        .trim_end_matches('.')
                        .to_string(),
                )
                .or_default()
                .push(name);
        }
        for (coef, names) in by_coef {
            let inner: Vec<String> = names.iter().map(|n| n.to_string()).collect();
            parts.push(format!("{coef}({})", inner.join(" + ")));
        }
        format!("{}·N", parts.join(" + "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dominance_without_unknowns() {
        let a = SymCost::constant(300.0);
        let b = SymCost::constant(84.0);
        assert!(a.dominates(&b));
        assert!(!b.dominates(&a));
    }

    #[test]
    fn figure8_a_dominates_b_for_all_probabilities() {
        // (a): 300·N flat; (b): 84·N flat → (a) always worse.
        let a = SymCost::constant(300.0);
        let b = SymCost::constant(84.0);
        assert!(a.dominates(&b));
    }

    #[test]
    fn figure8_b_and_c_are_incomparable() {
        // (b): 84·N; (c): 150(p1+p2)·N — cheaper when p1+p2 < 0.56,
        // more expensive when both ≈ 1.
        let b = SymCost::constant(84.0);
        let mut c = SymCost::constant(0.0);
        c.add_term("p1", 150.0);
        c.add_term("p2", 150.0);
        assert!(!b.dominates(&c));
        assert!(!c.dominates(&b));
    }

    #[test]
    fn upper_bound_is_all_ones_assignment() {
        let mut c = SymCost::constant(84.0);
        c.add_term("p1", 150.0);
        c.add_term("p2", 16.0);
        assert!((c.upper_bound() - 250.0).abs() < 1e-9);
        let ones: BTreeMap<String, f64> = [("p1".to_string(), 1.0), ("p2".to_string(), 1.0)].into();
        assert!((c.upper_bound() - c.eval(&ones, 1.0)).abs() < 1e-9);
    }

    #[test]
    fn eval_with_probabilities() {
        let mut c = SymCost::constant(0.0);
        c.add_term("p1", 150.0);
        c.add_term("p2", 150.0);
        let probs: BTreeMap<String, f64> =
            [("p1".to_string(), 0.25), ("p2".to_string(), 0.25)].into();
        assert!((c.eval(&probs, 0.0) - 75.0).abs() < 1e-9);
    }

    #[test]
    fn display_groups_terms() {
        let mut c = SymCost::constant(0.0);
        c.add_term("p1", 150.0);
        c.add_term("p2", 150.0);
        assert_eq!(c.display(), "150(p1 + p2)·N");
        assert_eq!(SymCost::constant(84.0).display(), "84·N");
    }

    #[test]
    fn add_and_scale_compose() {
        let mut a = SymCost::constant(10.0);
        a.add_term("p1", 5.0);
        let b = a.scale(2.0);
        assert_eq!(b.base, 20.0);
        assert_eq!(b.terms["p1"], 10.0);
        let mut c = SymCost::constant(1.0);
        c.add(&b);
        assert_eq!(c.base, 21.0);
    }
}
