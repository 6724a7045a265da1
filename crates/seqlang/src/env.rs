//! Variable environments (program states σ in the paper's notation).

use std::collections::BTreeMap;

use crate::value::Value;

/// A flat, cloneable program state mapping variable names to values.
///
/// The synthesizer's CEGIS loop stores and replays these as the concrete
/// program states Φ (Figure 5), so the representation is deterministic
/// (`BTreeMap`) and cheap to clone for small states. Equality is
/// structural over the variables.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Env {
    vars: BTreeMap<String, Value>,
}

impl Env {
    pub fn new() -> Self {
        Env::default()
    }

    pub fn set(&mut self, name: impl Into<String>, value: Value) {
        self.vars.insert(name.into(), value);
    }

    pub fn get(&self, name: &str) -> Option<&Value> {
        self.vars.get(name)
    }

    pub fn get_mut(&mut self, name: &str) -> Option<&mut Value> {
        self.vars.get_mut(name)
    }

    pub fn contains(&self, name: &str) -> bool {
        self.vars.contains_key(name)
    }

    pub fn remove(&mut self, name: &str) -> Option<Value> {
        self.vars.remove(name)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&String, &Value)> {
        self.vars.iter()
    }

    pub fn len(&self) -> usize {
        self.vars.len()
    }

    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }

    /// Restrict to the given variable names (used to project a state onto
    /// a fragment's inputs or outputs).
    pub fn project(&self, names: &[String]) -> Env {
        let mut out = Env::new();
        for n in names {
            if let Some(v) = self.vars.get(n) {
                out.set(n.clone(), v.clone());
            }
        }
        out
    }
}

impl FromIterator<(String, Value)> for Env {
    fn from_iter<T: IntoIterator<Item = (String, Value)>>(iter: T) -> Self {
        let mut env = Env::new();
        for (k, v) in iter {
            env.set(k, v);
        }
        env
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip() {
        let mut env = Env::new();
        env.set("x", Value::Int(42));
        assert_eq!(env.get("x"), Some(&Value::Int(42)));
        assert!(env.get("y").is_none());
    }

    #[test]
    fn project_keeps_only_named() {
        let mut env = Env::new();
        env.set("a", Value::Int(1));
        env.set("b", Value::Int(2));
        let p = env.project(&["a".to_string()]);
        assert_eq!(p.len(), 1);
        assert!(p.contains("a"));
    }

    #[test]
    fn envs_compare_structurally() {
        let mut a = Env::new();
        a.set("x", Value::Int(1));
        let mut b = Env::new();
        b.set("x", Value::Int(1));
        assert_eq!(a, b);
        b.set("x", Value::Int(2));
        assert_ne!(a, b);
    }
}
