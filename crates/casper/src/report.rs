//! Translation reports: everything the evaluation tables read off.

use std::time::Duration;

use analyzer::fragment::FragmentFeatures;
use casper_ir::mr::ProgramSummary;
use codegen::{Dialect, GeneratedProgram};
use synthesis::SearchReport;

/// The verdict-cache hit ratio `hits / (hits + misses)`, `0.0` when no
/// verifications ran — the single formula every report level and the
/// bench harness share.
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
    /// Search statistics (candidates, TP failures, time — Tables 2/3).
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
    /// Wall-clock time this fragment spent in full verification — every
    /// candidate the search sent over plus the property-harvesting
    /// re-verifications (verdict-cache lookups).
    pub verify_wall: Duration,
    /// CPU time of full verification: serial wall plus the summed busy
    /// time of the verifier's state-checking workers. Equals
    /// [`verify_wall`] at `verify.parallelism = 1`.
    ///
    /// [`verify_wall`]: FragmentReport::verify_wall
    pub verify_cpu: Duration,
    /// Verifications served from the per-fragment verdict cache.
    pub verdict_cache_hits: u64,
    /// Verifications that ran in full (cache misses).
    pub verdict_cache_misses: u64,
    /// Aggregate CPU time for this fragment: the wall-clock of its
    /// sequential phases plus the summed busy time of the search's
    /// screening workers. At `parallelism = 1` this equals
    /// `compile_time`; the gap between the two is what the parallel
    /// driver bought.
    pub cpu_time: Duration,
    /// Wall-clock the search spent screening candidates on the compiled
    /// evaluator — the search's elapsed time minus the share it spent
    /// waiting on full verification. Together with [`verify_wall`] this
    /// splits the hot evaluation time by consumer.
    ///
    /// [`verify_wall`]: FragmentReport::verify_wall
    pub screen_wall: Duration,
    /// Persistent-executor counter deltas observed while this fragment
    /// translated: helper tasks submitted, steals, queue-depth
    /// high-water mark, pool-worker busy time. Zero under the serial
    /// path (it never touches the executor). When fragments translate
    /// concurrently the deltas
    /// overlap — they attribute *pool* activity to the fragment's time
    /// window, not exclusively to its own tasks.
    pub runtime_stats: casper_runtime::ExecutorStats,
}

impl FragmentReport {
    /// Assemble a report, deriving [`cpu_time`] from the search's CPU
    /// accounting plus the sequential (non-search) share of the wall
    /// clock.
    ///
    /// [`cpu_time`]: FragmentReport::cpu_time
    pub fn new(
        fragment: &analyzer::fragment::Fragment,
        outcome: FragmentOutcome,
        search: SearchReport,
        compile_time: Duration,
    ) -> FragmentReport {
        let cpu_time = search.cpu_time + compile_time.saturating_sub(search.elapsed);
        let screen_wall = search.elapsed.saturating_sub(search.verify_wall);
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
            cpu_time,
            screen_wall,
            runtime_stats: casper_runtime::ExecutorStats::default(),
        }
    }

    /// Fraction of this fragment's verifications the verdict cache
    /// absorbed.
    pub fn verdict_cache_hit_ratio(&self) -> f64 {
        hit_ratio(self.verdict_cache_hits, self.verdict_cache_misses)
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
    /// Persistent-executor counter deltas across the whole translation —
    /// the per-suite runtime ledger `table1` prints. Zero under the
    /// serial path.
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

    /// Summed full-verification wall clock across fragments.
    pub fn total_verify_wall(&self) -> Duration {
        self.fragments.iter().map(|f| f.verify_wall).sum()
    }

    /// Summed full-verification CPU time across fragments.
    pub fn total_verify_cpu(&self) -> Duration {
        self.fragments.iter().map(|f| f.verify_cpu).sum()
    }

    /// Verdict-cache hits across all fragments.
    pub fn total_verdict_cache_hits(&self) -> u64 {
        self.fragments.iter().map(|f| f.verdict_cache_hits).sum()
    }

    /// Verdict-cache misses (full verifications) across all fragments.
    pub fn total_verdict_cache_misses(&self) -> u64 {
        self.fragments.iter().map(|f| f.verdict_cache_misses).sum()
    }

    /// Whole-translation verdict-cache hit ratio.
    pub fn verdict_cache_hit_ratio(&self) -> f64 {
        hit_ratio(
            self.total_verdict_cache_hits(),
            self.total_verdict_cache_misses(),
        )
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
