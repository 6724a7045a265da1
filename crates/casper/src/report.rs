//! Translation reports: everything the evaluation tables read off.

use std::time::Duration;

use analyzer::fragment::FragmentFeatures;
use casper_ir::mr::ProgramSummary;
use codegen::{Dialect, GeneratedProgram};
use synthesis::SearchReport;

/// A cache's hit ratio `hits / (hits + misses)`, `0.0` when no lookups
/// ran (the daemon's translation cache reports it).
pub fn hit_ratio(hits: u64, misses: u64) -> f64 {
    let total = hits + misses;
    if total == 0 {
        return 0.0;
    }
    hits as f64 / total as f64
}

/// Why a fragment failed to translate (§7.1's failure taxonomy).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureReason {
    /// Loops inside transformer functions / derived inner iteration.
    InnerDataLoop,
    /// Library methods without IR models.
    UnmodeledMethod,
    /// Search space exhausted without a verified summary.
    SearchExhausted,
    /// Synthesis hit the time budget (the paper's 90-minute timeouts).
    Timeout,
}

impl FailureReason {
    pub fn describe(&self) -> &'static str {
        match self {
            FailureReason::InnerDataLoop => {
                "requires loops inside transformer functions (inexpressible in IR)"
            }
            FailureReason::UnmodeledMethod => "uses library methods with no IR model",
            FailureReason::SearchExhausted => "no verified summary in the search space",
            FailureReason::Timeout => "synthesis timed out",
        }
    }
}

/// The result of translating one fragment.
pub enum FragmentOutcome {
    Translated {
        /// All verified summaries, cheapest first (post static pruning).
        summaries: Vec<ProgramSummary>,
        /// The runnable program: variants + runtime monitor.
        program: GeneratedProgram,
        /// Generated target code for the configured dialect.
        code: String,
        dialect: Dialect,
    },
    Failed(FailureReason),
}

impl FragmentOutcome {
    pub fn is_translated(&self) -> bool {
        matches!(self, FragmentOutcome::Translated { .. })
    }
}

/// Per-fragment report.
pub struct FragmentReport {
    pub id: String,
    pub func: String,
    /// Fragment LOC (Table 2).
    pub loc: usize,
    pub features: FragmentFeatures,
    pub outcome: FragmentOutcome,
    /// Search counts (candidates, TP failures — Tables 2/3).
    pub search: SearchReport,
    /// Wall-clock compile time for this fragment.
    pub compile_time: Duration,
    /// Time spent lowering verified summaries into fused, slot-resolved
    /// execution plans (`CompiledPlan::new` across all variants) — the
    /// plan-compile share of [`compile_time`], paid once so that every
    /// subsequent execution runs slot-resolved bytecode per record.
    ///
    /// [`compile_time`]: FragmentReport::compile_time
    pub plan_compile_time: Duration,
    /// Wall-clock time this fragment spent in full verification of the
    /// candidates the search sent over.
    pub verify_wall: Duration,
    /// CPU time of full verification: serial wall plus the summed busy
    /// time of the verifier's state-checking workers. Equals
    /// [`verify_wall`] at `verify.parallelism = 1`.
    ///
    /// [`verify_wall`]: FragmentReport::verify_wall
    pub verify_cpu: Duration,
    /// Always 0: the verifier keeps no verdict cache. Kept only until
    /// ROADMAP item 17's re-baseline removes its reader in
    /// `benchmark/src/stepped.rs`.
    pub verdict_cache_hits: u64,
    /// Full verifications performed ([`verifier::Verifier::cache_misses`]).
    /// Kept under this name only until ROADMAP item 17's re-baseline
    /// removes its reader in `benchmark/src/stepped.rs`.
    pub verdict_cache_misses: u64,
}

impl FragmentReport {
    /// Assemble a report; the verifier's totals and the plan-compile time
    /// start at zero for the caller to fill in.
    pub fn new(
        fragment: &analyzer::fragment::Fragment,
        outcome: FragmentOutcome,
        search: SearchReport,
        compile_time: Duration,
    ) -> FragmentReport {
        FragmentReport {
            id: fragment.id.clone(),
            func: fragment.func.clone(),
            loc: fragment.loc,
            features: fragment.features,
            outcome,
            search,
            compile_time,
            plan_compile_time: Duration::ZERO,
            verify_wall: Duration::ZERO,
            verify_cpu: Duration::ZERO,
            verdict_cache_hits: 0,
            verdict_cache_misses: 0,
        }
    }

    /// MapReduce operator count of the best summary (Table 2's "# Op").
    pub fn op_count(&self) -> usize {
        match &self.outcome {
            FragmentOutcome::Translated { summaries, .. } => {
                summaries.first().map(|s| s.op_count()).unwrap_or(0)
            }
            _ => 0,
        }
    }

    /// Generated-code LOC (Table 2's LOC for the translation).
    pub fn generated_loc(&self) -> usize {
        match &self.outcome {
            FragmentOutcome::Translated { code, .. } => codegen::emit::code_loc(code),
            _ => 0,
        }
    }
}

/// Whole-program translation report.
pub struct TranslationReport {
    pub fragments: Vec<FragmentReport>,
    /// End-to-end wall clock for the whole translation, including
    /// parsing and fragment identification. With fragment-level
    /// parallelism this is less than [`total_compile_time`], which sums
    /// per-fragment wall clocks.
    ///
    /// [`total_compile_time`]: TranslationReport::total_compile_time
    pub wall_time: Duration,
    /// Label of the pool the translation's parallel phases ran on
    /// (`CasperConfig::runtime`'s name).
    pub runtime_mode: &'static str,
    /// Persistent-executor counter deltas across the whole translation.
    /// Its `worker_busy_ns` is the one count of parallel work. Zero under
    /// the serial path.
    pub runtime_stats: casper_runtime::ExecutorStats,
}

impl TranslationReport {
    pub fn identified_count(&self) -> usize {
        self.fragments.len()
    }

    pub fn translated_count(&self) -> usize {
        self.fragments
            .iter()
            .filter(|f| f.outcome.is_translated())
            .count()
    }

    pub fn total_tp_failures(&self) -> u64 {
        self.fragments
            .iter()
            .map(|f| f.search.verifier_rejections)
            .sum()
    }

    /// Candidates the enumerator streamed into screening across all
    /// fragments (post blocked-set filtering, pre dedup).
    pub fn total_generated(&self) -> u64 {
        self.fragments
            .iter()
            .map(|f| f.search.candidates_generated)
            .sum()
    }

    /// Candidates absorbed by observational-equivalence dedup across all
    /// fragments.
    pub fn total_deduped(&self) -> u64 {
        self.fragments
            .iter()
            .map(|f| f.search.candidates_deduped)
            .sum()
    }

    /// Candidates actually screened against the bounded checker across
    /// all fragments (`generated − deduped`).
    pub fn total_screened(&self) -> u64 {
        self.fragments
            .iter()
            .map(|f| f.search.candidates_checked)
            .sum()
    }

    /// Whole-translation dedup ratio: the fraction of streamed candidates
    /// the OE layer retired as duplicates of already-rejected candidates
    /// instead of charging to the screening ledger.
    pub fn dedup_ratio(&self) -> f64 {
        let generated = self.total_generated();
        if generated == 0 {
            return 0.0;
        }
        self.total_deduped() as f64 / generated as f64
    }

    pub fn total_compile_time(&self) -> Duration {
        self.fragments.iter().map(|f| f.compile_time).sum()
    }

    /// Summed plan-lowering time across fragments — compare with
    /// per-execution times (`benchmark/`'s `codegen.execute_ms`) to see
    /// what the compile-once/run-many trade buys.
    pub fn total_plan_compile_time(&self) -> Duration {
        self.fragments.iter().map(|f| f.plan_compile_time).sum()
    }

    /// The translated fragment for a function name, if any.
    pub fn for_function(&self, func: &str) -> Option<&FragmentReport> {
        self.fragments.iter().find(|f| f.func == func)
    }
}
