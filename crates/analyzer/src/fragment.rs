//! Code fragments and the analysis facts attached to them.

use std::sync::Arc;

use casper_ir::mr::DataShape;
use seqlang::ast::{BinOp, Program, Stmt};
use seqlang::env::Env;
use seqlang::error::Result;
use seqlang::interp::Interp;
use seqlang::ty::Type;
use seqlang::value::Value;

/// An iterated data structure, with the access shape the loop nest uses
/// and the scalar variables bound to its dimensions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataVarInfo {
    pub name: String,
    pub ty: Type,
    pub shape: DataShape,
    /// Element type presented to the first map stage.
    pub elem_ty: Type,
    /// Input variables holding the collection's dimensions, outermost
    /// first (e.g. `["rows", "cols"]` for the row-wise mean matrix).
    /// Empty when the loop uses `.size()` / for-each directly.
    pub len_vars: Vec<String>,
    /// Source-level induction variables indexing this collection,
    /// outermost first (e.g. `["i", "j"]`) — used to rename harvested
    /// expressions into λ-parameter space. Empty for for-each iteration.
    pub index_vars: Vec<String>,
}

/// Syntactic features of a fragment — the Appendix E.1 taxonomy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FragmentFeatures {
    pub conditionals: bool,
    pub user_defined_types: bool,
    pub nested_loops: bool,
    pub multiple_datasets: bool,
    pub multidimensional_data: bool,
    /// A nested loop iterates a *different* collection per element —
    /// requires loops inside transformer functions, which the IR cannot
    /// express (§7.1's Phoenix/matrix-multiply failures).
    pub inner_data_loop: bool,
    /// Calls a method with no IR model (the Fiji failure mode).
    pub unmodeled_method: bool,
}

/// The raw material for search-space grammar generation (§3.2): what the
/// program analyzer extracted from the fragment.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GrammarSeed {
    /// Binary operators appearing in the fragment.
    pub operators: Vec<BinOp>,
    /// Literal constants appearing in the fragment.
    pub constants: Vec<Value>,
    /// Library methods / free functions invoked.
    pub methods: Vec<String>,
}

/// A translatable code fragment: a data loop plus the statements that
/// initialise its outputs, with all analysis facts attached.
#[derive(Debug, Clone)]
pub struct Fragment {
    /// Identifier, e.g. `"rwm:loop@8"`.
    pub id: String,
    /// Enclosing program (for struct layouts and helper functions).
    pub program: Arc<Program>,
    /// Name of the enclosing function.
    pub func: String,
    /// Output-initialisation statements preceding the loop.
    pub init_stmts: Vec<Stmt>,
    /// The loop statement itself.
    pub loop_stmt: Stmt,
    /// Variables read by the fragment but defined outside it.
    pub inputs: Vec<(String, Type)>,
    /// Variables modified by the loop that are visible after it.
    pub outputs: Vec<(String, Type)>,
    /// The iterated collections.
    pub data_vars: Vec<DataVarInfo>,
    pub seed: GrammarSeed,
    pub features: FragmentFeatures,
    /// Source lines spanned (Table 2's LOC column).
    pub loc: usize,
}

impl Fragment {
    /// Input variables that are *not* iterated collections or dimension
    /// bindings — the free scalars available to transformer functions
    /// (e.g. `cols`, `key1`, `dt1`).
    pub fn free_scalars(&self) -> Vec<(String, Type)> {
        self.inputs
            .iter()
            .filter(|(name, _)| !self.data_vars.iter().any(|d| &d.name == name))
            .cloned()
            .collect()
    }

    /// Execute the fragment (init statements + loop) on a pre-state,
    /// returning the full post-state.
    pub fn run(&self, state: &Env) -> Result<Env> {
        let mut env = state.clone();
        let mut interp = Interp::new(&self.program).with_fuel(50_000_000);
        for s in &self.init_stmts {
            interp.run_stmt(s, &mut env)?;
        }
        interp.run_stmt(&self.loop_stmt, &mut env)?;
        Ok(env)
    }

    /// Execute the fragment and report the abstract sequential work done
    /// (loop iterations) — the sequential-baseline input for the cluster
    /// simulator.
    pub fn run_with_work(&self, state: &Env) -> Result<(Env, u64)> {
        let mut env = state.clone();
        let mut interp = Interp::new(&self.program).with_fuel(50_000_000);
        for s in &self.init_stmts {
            interp.run_stmt(s, &mut env)?;
        }
        interp.run_stmt(&self.loop_stmt, &mut env)?;
        Ok((env, interp.stats.iterations))
    }

    /// The state a candidate summary is evaluated against: the pre-state
    /// after output initialisation but before the loop.
    pub fn pre_loop_state(&self, state: &Env) -> Result<Env> {
        let mut env = state.clone();
        let mut interp = Interp::new(&self.program).with_fuel(50_000_000);
        for s in &self.init_stmts {
            interp.run_stmt(s, &mut env)?;
        }
        Ok(env)
    }

    /// Project an environment onto the fragment's outputs.
    pub fn project_outputs(&self, env: &Env) -> Env {
        let names: Vec<String> = self.outputs.iter().map(|(n, _)| n.clone()).collect();
        env.project(&names)
    }

    /// Truncate every iterated collection in `state` to its first
    /// `prefix` outer elements, updating bound dimension variables. This
    /// realises the loop-invariant check of Figure 4: the invariant
    /// asserts the summary over `data[0..i]`, so checking the summary on
    /// every prefix of a concrete state checks initiation, continuation
    /// and termination together.
    pub fn truncate_state(&self, state: &Env, prefix: usize) -> Env {
        let mut out = state.clone();
        for dv in &self.data_vars {
            if let Some(v) = out.get(&dv.name).cloned() {
                let truncated = match v {
                    Value::Array(mut elems) => {
                        elems.truncate(prefix);
                        Value::Array(elems)
                    }
                    Value::List(mut elems) => {
                        elems.truncate(prefix);
                        Value::List(elems)
                    }
                    other => other,
                };
                out.set(dv.name.clone(), truncated);
            }
            if let Some(len_var) = dv.len_vars.first() {
                if let Some(Value::Int(n)) = out.get(len_var) {
                    let clamped = (*n).min(prefix as i64);
                    out.set(len_var.clone(), Value::Int(clamped));
                }
            }
        }
        out
    }

    /// The number of outer elements of the (first) iterated collection —
    /// the prefix range the invariant check walks.
    pub fn data_len(&self, state: &Env) -> usize {
        self.data_vars
            .first()
            .and_then(|dv| state.get(&dv.name))
            .and_then(|v| v.elements().map(<[Value]>::len))
            .unwrap_or(0)
    }

    /// Whether the fragment is expressible in the summary IR at all —
    /// fragments with data-dependent inner loops or unmodeled library
    /// calls are reported as translation failures (§7.1).
    pub fn ir_expressible(&self) -> bool {
        !self.features.inner_data_loop && !self.features.unmodeled_method
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::identify_fragments;
    use seqlang::compile;

    fn sum_fragment() -> Fragment {
        let src = r#"
            fn sum(xs: list<int>) -> int {
                let s: int = 0;
                for (x in xs) { s = s + x; }
                return s;
            }
        "#;
        let program = Arc::new(compile(src).unwrap());
        identify_fragments(&program).remove(0)
    }

    #[test]
    fn fragment_runs_and_projects_outputs() {
        let frag = sum_fragment();
        let mut state = Env::new();
        state.set("xs", Value::List(vec![Value::Int(4), Value::Int(5)]));
        let post = frag.run(&state).unwrap();
        let outs = frag.project_outputs(&post);
        assert_eq!(outs.get("s"), Some(&Value::Int(9)));
    }

    #[test]
    fn truncation_shrinks_data() {
        let frag = sum_fragment();
        let mut state = Env::new();
        state.set("xs", Value::List((0..10).map(Value::Int).collect()));
        let t = frag.truncate_state(&state, 3);
        assert_eq!(frag.data_len(&t), 3);
        assert_eq!(frag.data_len(&state), 10);
    }

    #[test]
    fn pre_loop_state_applies_inits() {
        let frag = sum_fragment();
        let mut state = Env::new();
        state.set("xs", Value::List(vec![]));
        let pre = frag.pre_loop_state(&state).unwrap();
        assert_eq!(pre.get("s"), Some(&Value::Int(0)));
    }

    #[test]
    fn free_scalars_exclude_data() {
        let src = r#"
            fn scale(xs: list<int>, factor: int) -> int {
                let s: int = 0;
                for (x in xs) { s = s + x * factor; }
                return s;
            }
        "#;
        let program = Arc::new(compile(src).unwrap());
        let frag = identify_fragments(&program).remove(0);
        let scalars = frag.free_scalars();
        assert!(scalars.iter().any(|(n, _)| n == "factor"));
        assert!(!scalars.iter().any(|(n, _)| n == "xs"));
    }
}
