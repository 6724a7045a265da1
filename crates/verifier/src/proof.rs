//! Proof transcripts — the analogue of Casper's generated Dafny scripts.
//!
//! The original tool emits a Dafny program encoding the VCs of Figure 4
//! plus the candidate invariant and postcondition, and archives the
//! prover's verdict. We emit a structured transcript with the same
//! content: the Hoare obligations, the domains exercised, and the
//! verdict, so a reader can audit exactly what was established.

use analyzer::fragment::Fragment;
use casper_ir::mr::ProgramSummary;
use casper_ir::pretty::pretty_summary;
use seqlang::env::Env;

use crate::algebra::CaProperties;

/// A human-readable verification transcript.
#[derive(Debug, Clone)]
pub struct ProofScript {
    lines: Vec<String>,
}

impl ProofScript {
    pub fn new(fragment: &Fragment, summary: &ProgramSummary) -> ProofScript {
        let mut lines = Vec::new();
        lines.push(format!(
            "// Verification transcript for fragment {}",
            fragment.id
        ));
        lines.push("// Obligations (Hoare logic, Figure 4):".to_string());
        lines.push("//   Initiation:   (i = 0)            -> Inv(out, 0)".to_string());
        lines.push("//   Continuation: Inv(out, i) ∧ i < n  -> Inv(out', i+1)".to_string());
        lines.push("//   Termination:  Inv(out, n)         -> PS(out)".to_string());
        lines.push(
            "// Invariant shape: out = MR(data[0..i]) with MR from the candidate below".to_string(),
        );
        lines.push(String::new());
        lines.push("// Candidate program summary:".to_string());
        for l in pretty_summary(summary).lines() {
            lines.push(format!("//   {l}"));
        }
        lines.push(String::new());
        ProofScript { lines }
    }

    pub fn record_refutation(&mut self, cex: &Env) {
        self.lines
            .push("REFUTED: counter-example state".to_string());
        for (name, value) in cex.iter() {
            self.lines.push(format!("  {name} = {value}"));
        }
    }

    pub fn record_success(&mut self, states: usize, properties: &[CaProperties]) {
        self.lines.push(format!(
            "VERIFIED over {states} full-domain states (all prefix obligations + permutation trials)"
        ));
        for (i, p) in properties.iter().enumerate() {
            self.lines.push(format!(
                "  reduce λr{}: commutative={}, associative={}",
                i + 1,
                p.commutative,
                p.associative
            ));
        }
        self.lines.push(
            "NOTE: validation-based verdict (testing over sampled domains), \
             not a deductive proof — see DESIGN.md for the Dafny substitution."
                .to_string(),
        );
    }

    pub fn text(&self) -> String {
        self.lines.join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use analyzer::identify_fragments;
    use casper_ir::expr::IrExpr;
    use casper_ir::lambda::{Emit, MapLambda, ReduceLambda};
    use casper_ir::mr::{DataSource, MrExpr, OutputKind};
    use seqlang::ast::BinOp;
    use seqlang::compile;
    use seqlang::ty::Type;
    use std::sync::Arc;

    #[test]
    fn transcript_contains_obligations_and_summary() {
        let p = Arc::new(
            compile(
                "fn sum(xs: list<int>) -> int {
                    let s: int = 0;
                    for (x in xs) { s = s + x; }
                    return s;
                }",
            )
            .unwrap(),
        );
        let frag = identify_fragments(&p).remove(0);
        let m = MapLambda::new(
            vec!["x"],
            vec![Emit::unconditional(IrExpr::int(0), IrExpr::var("x"))],
        );
        let expr = MrExpr::Data(DataSource::flat("xs", Type::Int))
            .map(m)
            .reduce(ReduceLambda::binop(BinOp::Add));
        let summary = ProgramSummary::single("s", expr, OutputKind::Scalar);
        let script = ProofScript::new(&frag, &summary);
        let text = script.text();
        assert!(text.contains("Initiation"));
        assert!(text.contains("Continuation"));
        assert!(text.contains("Termination"));
        assert!(text.contains("reduce(map(xs"));
    }
}
