//! Concrete program-state generation for bounded model checking and full
//! verification.
//!
//! The CEGIS loop needs random concrete states σ to seed Φ (Figure 5), and
//! the bounded model checker verifies candidates over a *bounded domain*:
//! small datasets and small value ranges (§3.4). The full verifier reuses
//! the same generator with much larger bounds (§4.1's two-phase scheme).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

use casper_ir::mr::DataShape;
use seqlang::env::Env;
use seqlang::ty::Type;
use seqlang::value::{StructLayout, Value};

use crate::fragment::Fragment;

/// Bounds for state generation.
#[derive(Debug, Clone)]
pub struct StateGenConfig {
    /// Maximum outer length of generated collections.
    pub max_data_len: usize,
    /// Integer values drawn from `[-int_bound, int_bound]`.
    pub int_bound: i64,
    /// Doubles drawn from `[-double_bound, double_bound]`.
    pub double_bound: f64,
    /// Words drawn from a pool of this many distinct strings — keyword
    /// inputs draw from the same pool, so equality tests are non-trivial.
    pub string_pool: usize,
    pub seed: u64,
}

impl StateGenConfig {
    /// The synthesizer's bounded domain (§3.4: e.g. ints bounded by 4,
    /// datasets of at most 3–4 elements).
    pub fn bounded() -> StateGenConfig {
        StateGenConfig {
            max_data_len: 3,
            int_bound: 4,
            double_bound: 4.0,
            string_pool: 3,
            seed: 7,
        }
    }

    /// The full verifier's domain: wide ranges and longer datasets, large
    /// enough to separate e.g. `v` from `min(4, v)`.
    pub fn full() -> StateGenConfig {
        StateGenConfig {
            max_data_len: 12,
            int_bound: 1_000_000,
            double_bound: 1.0e6,
            string_pool: 12,
            seed: 104_729,
        }
    }
}

/// Deterministic random state generator for a fragment.
pub struct StateGen<'f> {
    fragment: &'f Fragment,
    config: StateGenConfig,
    rng: StdRng,
    /// Strings are drawn from here: the synthetic words `w0, w1, …` plus
    /// the fragment's string constants.
    word_pool: Vec<Value>,
    /// Interesting numeric values mined from the fragment's constants
    /// (each constant and its neighbours). Guards like
    /// `l_discount >= 0.05 && l_discount <= 0.07` are never exercised by
    /// uniform sampling over wide ranges; drawing a fraction of values
    /// from this pool makes both branches of every guard reachable —
    /// the role Sketch's constraint solving plays in the original system.
    int_pool: Vec<i64>,
    double_pool: Vec<f64>,
}

impl<'f> StateGen<'f> {
    pub fn new(fragment: &'f Fragment, config: StateGenConfig) -> StateGen<'f> {
        let rng = StdRng::seed_from_u64(config.seed);
        let mut word_pool: Vec<Value> = (0..config.string_pool.max(1))
            .map(|i| Value::str(format!("w{i}")))
            .collect();
        let mut int_pool = Vec::new();
        let mut double_pool = Vec::new();
        for c in &fragment.seed.constants {
            match c {
                // A guard comparing with a string literal is true only
                // on a state that draws that literal.
                Value::Str(_) => word_pool.push(c.clone()),
                Value::Int(n) => int_pool.extend([*n - 1, *n, *n + 1]),
                Value::Double(x) => {
                    double_pool.extend([*x - 0.01, *x, *x + 0.01]);
                    int_pool.extend([(*x as i64) - 1, *x as i64, (*x as i64) + 1]);
                }
                _ => {}
            }
        }
        StateGen {
            fragment,
            config,
            rng,
            word_pool,
            int_pool,
            double_pool,
        }
    }

    /// Generate the next random program state.
    pub fn next_state(&mut self) -> Env {
        let mut env = Env::new();
        // Choose outer data length once; aligned datasets (multi-input
        // zip patterns) share it so index joins line up.
        let outer_len = self.rng.gen_range(0..=self.config.max_data_len);
        let inner_len = self.rng.gen_range(1..=self.config.max_data_len.max(1));

        // Dimension variables claimed by data vars.
        let mut dims: HashMap<String, i64> = HashMap::new();
        for dv in &self.fragment.data_vars {
            match dv.shape {
                DataShape::Indexed2D => {
                    if let Some(r) = dv.len_vars.first() {
                        dims.insert(r.clone(), outer_len as i64);
                    }
                    if let Some(c) = dv.len_vars.get(1) {
                        dims.insert(c.clone(), inner_len as i64);
                    }
                }
                _ => {
                    if let Some(l) = dv.len_vars.first() {
                        dims.insert(l.clone(), outer_len as i64);
                    }
                }
            }
        }

        // Generate the iterated collections.
        for dv in &self.fragment.data_vars.clone() {
            let value = match dv.shape {
                DataShape::Indexed2D => {
                    let rows: Vec<Value> = (0..outer_len)
                        .map(|_| {
                            Value::Array(
                                (0..inner_len)
                                    .map(|_| self.gen_value(&dv.elem_ty))
                                    .collect(),
                            )
                        })
                        .collect();
                    Value::Array(rows)
                }
                _ => {
                    let elems: Vec<Value> = (0..outer_len)
                        .map(|_| self.gen_value(&dv.elem_ty))
                        .collect();
                    match dv.ty {
                        Type::List(_) => Value::List(elems),
                        _ => Value::Array(elems),
                    }
                }
            };
            env.set(dv.name.clone(), value);
        }

        // Remaining inputs.
        for (name, ty) in self.fragment.inputs.clone() {
            if env.contains(&name) {
                continue;
            }
            if let Some(d) = dims.get(&name) {
                env.set(name, Value::Int(*d));
                continue;
            }
            let v = self.gen_value(&ty);
            env.set(name, v);
        }

        // Outputs not initialised by the fragment's own `let`s get
        // type-default pre-values.
        for (name, ty) in self.fragment.outputs.clone() {
            if env.contains(&name)
                || self
                    .fragment
                    .init_stmts
                    .iter()
                    .any(|s| matches!(s, seqlang::ast::Stmt::Let { name: n, .. } if n == &name))
            {
                continue;
            }
            env.set(name, self.default_for(&ty, outer_len));
        }
        env
    }

    /// A batch of `n` states.
    pub fn states(&mut self, n: usize) -> Vec<Env> {
        (0..n).map(|_| self.next_state()).collect()
    }

    fn gen_value(&mut self, ty: &Type) -> Value {
        match ty {
            Type::Int => {
                if !self.int_pool.is_empty() && self.rng.gen_bool(0.4) {
                    let i = self.rng.gen_range(0..self.int_pool.len());
                    return Value::Int(self.int_pool[i]);
                }
                Value::Int(
                    self.rng
                        .gen_range(-self.config.int_bound..=self.config.int_bound),
                )
            }
            Type::Double => {
                if !self.double_pool.is_empty() && self.rng.gen_bool(0.4) {
                    let i = self.rng.gen_range(0..self.double_pool.len());
                    return Value::Double(self.double_pool[i]);
                }
                let b = self.config.double_bound;
                // Mix small integers and fractional values for numeric
                // stability in division-heavy fragments.
                if self.rng.gen_bool(0.5) {
                    Value::Double(self.rng.gen_range(-4i64..=4) as f64)
                } else {
                    Value::Double(self.rng.gen_range(-b..=b))
                }
            }
            Type::Bool => Value::Bool(self.rng.gen_bool(0.5)),
            Type::Str => {
                let i = self.rng.gen_range(0..self.word_pool.len());
                self.word_pool[i].clone()
            }
            Type::Array(elem) => {
                let n = self.rng.gen_range(0..=self.config.max_data_len);
                Value::Array((0..n).map(|_| self.gen_value(elem)).collect())
            }
            Type::List(elem) => {
                let n = self.rng.gen_range(0..=self.config.max_data_len);
                Value::List((0..n).map(|_| self.gen_value(elem)).collect())
            }
            Type::Map(..) => Value::Map(Vec::new()),
            Type::Struct(name) => {
                let def = self.fragment.program.struct_def(name);
                match def {
                    Some(sd) => {
                        let fields: Vec<Value> = sd
                            .fields
                            .clone()
                            .iter()
                            .map(|(_, t)| self.gen_value(t))
                            .collect();
                        let layout = StructLayout::new(
                            sd.name.clone(),
                            sd.fields.iter().map(|(n, _)| n.clone()).collect(),
                        );
                        Value::Struct(layout, fields)
                    }
                    None => Value::Unit,
                }
            }
            Type::Tuple(ts) => Value::Tuple(ts.clone().iter().map(|t| self.gen_value(t)).collect()),
            Type::Void => Value::Unit,
        }
    }

    fn default_for(&mut self, ty: &Type, outer_len: usize) -> Value {
        match ty {
            Type::Array(elem) => {
                // Output arrays default to the data's outer length (the
                // usual `new array<T>(rows)` pattern).
                let e = default_scalar(elem);
                Value::Array(vec![e; outer_len])
            }
            Type::List(_) => Value::List(Vec::new()),
            Type::Map(..) => Value::Map(Vec::new()),
            t => default_scalar(t),
        }
    }
}

fn default_scalar(ty: &Type) -> Value {
    match ty {
        Type::Int => Value::Int(0),
        Type::Double => Value::Double(0.0),
        Type::Bool => Value::Bool(false),
        Type::Str => Value::str(""),
        _ => Value::Unit,
    }
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

    #[test]
    fn generates_runnable_states() {
        let f = frag(
            "fn sum(xs: list<int>) -> int {
                let s: int = 0;
                for (x in xs) { s = s + x; }
                return s;
            }",
        );
        let mut gen = StateGen::new(&f, StateGenConfig::bounded());
        for st in gen.states(20) {
            let post = f.run(&st).expect("fragment must run on generated states");
            assert!(post.get("s").is_some());
        }
    }

    #[test]
    fn dimension_vars_match_data() {
        let f = frag(
            "fn rwm(mat: array<array<int>>, rows: int, cols: int) -> array<int> {
                let m: array<int> = new array<int>(rows);
                for (let i: int = 0; i < rows; i = i + 1) {
                    let sum: int = 0;
                    for (let j: int = 0; j < cols; j = j + 1) {
                        sum = sum + mat[i][j];
                    }
                    m[i] = sum / cols;
                }
                return m;
            }",
        );
        let mut gen = StateGen::new(&f, StateGenConfig::bounded());
        for st in gen.states(20) {
            let rows = st.get("rows").unwrap().as_int().unwrap() as usize;
            let cols = st.get("cols").unwrap().as_int().unwrap() as usize;
            let mat = st.get("mat").unwrap();
            assert_eq!(mat.elements().unwrap().len(), rows);
            for row in mat.elements().unwrap() {
                assert_eq!(row.elements().unwrap().len(), cols);
            }
            assert!(cols >= 1, "cols ≥ 1 so the fragment's division is safe");
            f.run(&st).expect("rwm runs");
        }
    }

    #[test]
    fn bounded_domain_is_small() {
        let f = frag(
            "fn sum(xs: list<int>) -> int {
                let s: int = 0;
                for (x in xs) { s = s + x; }
                return s;
            }",
        );
        let mut gen = StateGen::new(&f, StateGenConfig::bounded());
        for st in gen.states(50) {
            let xs = st.get("xs").unwrap().elements().unwrap().to_vec();
            assert!(xs.len() <= 3);
            for x in xs {
                let n = x.as_int().unwrap();
                assert!((-4..=4).contains(&n));
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let f = frag(
            "fn sum(xs: list<int>) -> int {
                let s: int = 0;
                for (x in xs) { s = s + x; }
                return s;
            }",
        );
        let a = StateGen::new(&f, StateGenConfig::bounded()).states(5);
        let b = StateGen::new(&f, StateGenConfig::bounded()).states(5);
        assert_eq!(a, b);
    }

    #[test]
    fn string_inputs_share_the_word_pool() {
        let f = frag(
            "fn sm(text: list<string>, key1: string) -> bool {
                let found: bool = false;
                for (w in text) { if (w == key1) { found = true; } }
                return found;
            }",
        );
        let mut gen = StateGen::new(&f, StateGenConfig::bounded());
        // Over many states, at least one must actually contain the key —
        // otherwise CEGIS would accept always-false candidates.
        let mut any_hit = false;
        for st in gen.states(40) {
            let key = st.get("key1").unwrap().clone();
            let text = st.get("text").unwrap().elements().unwrap();
            if text.contains(&key) {
                any_hit = true;
            }
        }
        assert!(any_hit);
    }

    #[test]
    fn string_constants_join_the_word_pool() {
        // Without the literal in the pool the guard is false on every
        // state, and a candidate that emits nothing looks correct.
        let f = frag(
            "fn sel(xs: list<string>) -> int {
                let n: int = 0;
                for (x in xs) { if (x == \"Brand#23\") { n = n + 1; } }
                return n;
            }",
        );
        let literal = Value::str("Brand#23");
        for config in [StateGenConfig::bounded(), StateGenConfig::full()] {
            let states = StateGen::new(&f, config).states(20);
            let draws = |st: &Env| st.get("xs").unwrap().elements().unwrap().contains(&literal);
            assert!(states.iter().any(draws));
        }
    }
}
