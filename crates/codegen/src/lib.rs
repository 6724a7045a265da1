//! `codegen` — Casper's code generator (§6.3, Appendix C).
//!
//! Takes verified program summaries and produces:
//!
//! * an **executable plan** over the `mapreduce` engine ([`plan`]):
//!   map stages become `flatMapToPair`, reduces become `reduceByKey` when
//!   the transformer is commutative and associative or a safe
//!   `groupByKey` + ordered fold otherwise, joins become `join`;
//! * **target-API source text** in three dialects — Spark, Hadoop, Flink
//!   ([`emit`]) — following the translation rules of Appendix C (the LOC
//!   and operator counts of Table 2 are measured on this output);
//! * the **runtime monitor** (§5.2, [`monitor`]): when several verified
//!   variants survive static pruning, the generated program samples the
//!   first k input values at run time, estimates the cost-model unknowns,
//!   and executes the cheapest variant.
//!
//! §3.2's alias guard has no counterpart here: a plan reads its inputs
//! from an owned [`seqlang::env::Env`], whose collections cannot alias.

pub mod emit;
pub mod monitor;
pub mod plan;

pub use emit::{generated_code, Dialect};
pub use monitor::{
    GeneratedProgram, PlanChoice, ProgramCache, TuningDecision, TuningState, Variant,
};
pub use plan::{CompiledPlan, PlanCache};
