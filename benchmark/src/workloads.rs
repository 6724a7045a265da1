//! The four workloads. Each is a closed loop on one driver thread: a pass runs
//! a fixed list of operations in a fixed order, times every one, and checks
//! every output. An operation that errors or fails its check is a failed
//! operation, named in the pass record.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use analyzer::fragment::Fragment;
use casper::{Casper, CasperConfig, FragmentOutcome, TranslationReport};
use casperd::{Client, TranslationService};
use codegen::{GeneratedProgram, PlanCache, ProgramCache, TuningState};
use mapreduce::{Context, JobStats};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use seqlang::env::Env;
use seqlang::value::Value;
use suites::Benchmark;

use crate::meter::Meter;
use crate::programs;
use crate::trace::Tracer;

/// Hot batches per `serve_corpus` pass and requests per batch.
pub const HOT_BATCHES: usize = 5;
pub const HOT_BATCH: usize = 1_000;
/// Partitions of every execution context; the worker count is the workload's.
pub const PARTITIONS: usize = 8;
/// Longest the sequential interpreter may take for one reference output.
const REFERENCE_BUDGET_S: f64 = 5.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    TranslateSearch,
    ServeCorpus,
    ExecuteScale,
    ExecuteSmall,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::TranslateSearch,
        Kind::ServeCorpus,
        Kind::ExecuteScale,
        Kind::ExecuteSmall,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::TranslateSearch => "translate_search",
            Kind::ServeCorpus => "serve_corpus",
            Kind::ExecuteScale => "execute_scale",
            Kind::ExecuteSmall => "execute_small",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    pub fn executes(self) -> bool {
        matches!(self, Kind::ExecuteScale | Kind::ExecuteSmall)
    }

    /// The programs whose sources the workload translates: in its passes
    /// (translate workloads) or in its set-up (execute workloads). The sources
    /// are the registry's. For the translate workloads the seed decides the
    /// order; for the execute workloads it decides every input record, and
    /// the order stays fixed so that peak memory does not depend on which
    /// inputs happen to be alive together.
    pub fn programs(self, seed: u64) -> Vec<Benchmark> {
        let mut programs = match self {
            Kind::TranslateSearch => programs::named(programs::TRANSLATE_SEARCH),
            Kind::ServeCorpus => programs::serve_corpus(),
            Kind::ExecuteScale => programs::named(programs::EXECUTE_SCALE),
            Kind::ExecuteSmall => {
                let mut small = programs::execute_small();
                small.extend(programs::named(&[programs::CACHED_LOOP]));
                small
            }
        };
        if !self.executes() {
            programs.shuffle(&mut StdRng::seed_from_u64(seed));
        }
        programs
    }
}

/// Every end-to-end run translates with one worker: at two workers on a
/// 2-vCPU VM single runs spread by 25 %.
pub fn config(workers: usize) -> CasperConfig {
    CasperConfig::default().with_parallelism(workers)
}

pub trait Workload {
    fn op_names(&self) -> &[String];
    /// Run one pass, timing each operation with `meter`.
    fn pass(&mut self, meter: &mut Meter);
    /// Worker count of the following passes (1 unless the traced run asks).
    fn set_workers(&mut self, workers: usize);
}

/// Did the primary fragment translate?
pub fn verdict(report: &TranslationReport, func: &str) -> bool {
    report
        .for_function(func)
        .is_some_and(|f| f.outcome.is_translated())
}

/// The same verdict read off a rendered payload.
fn payload_verdict(payload: &str, func: &str) -> bool {
    let needle = format!(" func={func} ");
    payload.lines().any(|l| {
        l.starts_with("fragment ") && l.contains(&needle) && l.contains("outcome=translated")
    })
}

/// Compare against the payload the first pass rendered, keeping it if this is
/// the first pass.
fn same_payload<T: PartialEq>(reference: &mut Option<T>, payload: T) -> bool {
    match reference {
        Some(first) => *first == payload,
        None => {
            *reference = Some(payload);
            true
        }
    }
}

// ---------------------------------------------------------------------------

/// `translate_search`: in-process `Casper::translate_source` on the programs
/// bound by enumeration and screening.
pub struct TranslateSearch {
    programs: Vec<Benchmark>,
    names: Vec<String>,
    casper: Casper,
    payloads: Vec<Option<String>>,
    /// The reports of the latest pass.
    pub reports: Vec<Option<Arc<TranslationReport>>>,
}

impl TranslateSearch {
    pub fn set_up(programs: Vec<Benchmark>) -> TranslateSearch {
        TranslateSearch {
            names: programs.iter().map(|b| b.name.to_string()).collect(),
            payloads: vec![None; programs.len()],
            reports: programs.iter().map(|_| None).collect(),
            programs,
            casper: Casper::new(config(1)),
        }
    }
}

impl TranslateSearch {
    /// The payload the first pass rendered for program `i`.
    pub fn payload(&self, i: usize) -> Option<&[u8]> {
        self.payloads[i].as_deref().map(str::as_bytes)
    }
}

impl Workload for TranslateSearch {
    fn op_names(&self) -> &[String] {
        &self.names
    }

    fn set_workers(&mut self, workers: usize) {
        self.casper = Casper::new(config(workers));
    }

    fn pass(&mut self, meter: &mut Meter) {
        for (i, b) in self.programs.iter().enumerate() {
            match meter.op(|| self.casper.translate_source(b.source)) {
                Err(e) => meter.fail(format!("{}: translate_source: {e}", b.name)),
                Ok(report) => {
                    if verdict(&report, b.func) != b.expect_translate {
                        meter.fail(format!("{}: verdict differs from expect_translate", b.name));
                    }
                    if !same_payload(&mut self.payloads[i], casperd::render_report(&report)) {
                        meter.fail(format!("{}: payload differs from the first pass", b.name));
                    }
                    self.reports[i] = Some(Arc::new(report));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------

/// The process's connection to its in-process `casperd`.
pub type Daemon = Rc<RefCell<Client>>;

/// `serve_corpus`: one client over loopback TCP to an in-process `casperd`.
///
/// The operations of a pass are the `CONFIG` write and the cold requests. The
/// hot requests after them are sent, checked and timed, but their time is in
/// no bounded metric: a loopback round trip is two thread wake-ups, and on
/// this VM their cost has two modes (median 15 us or 47 us for the same
/// binary, minutes apart) that the calibration kernel, which never sleeps,
/// cannot see. The hot latencies are in the result file and in the per-layer
/// `casperd.hot_*` metrics.
pub struct ServeCorpus {
    programs: Vec<Benchmark>,
    names: Vec<String>,
    client: Rc<RefCell<Client>>,
    workers: usize,
    payloads: Vec<Option<Vec<u8>>>,
}

fn stat(line: &str, key: &str) -> Option<u64> {
    line.split(' ')
        .find_map(|part| part.strip_prefix(key)?.strip_prefix('='))
        .and_then(|v| v.parse().ok())
}

impl ServeCorpus {
    /// Set up against the process's daemon, starting it the first time. A run
    /// sets up several times, and `spawn_server` detaches its threads; one
    /// daemon and one connection for the whole process keep the translating
    /// thread, and with it the allocator arena it fills, the same one, so
    /// that peak memory repeats (a server per set-up made it swing between 24
    /// and 44 MB, depending on when the previous connection's thread exited).
    pub fn set_up(
        programs: Vec<Benchmark>,
        daemon: &mut Option<Daemon>,
    ) -> Result<ServeCorpus, String> {
        let client = match daemon {
            Some(client) => Rc::clone(client),
            None => {
                let service = Arc::new(TranslationService::new(config(1), 1024, 64 << 20));
                let addr =
                    casperd::spawn_server(service).map_err(|e| format!("spawn_server: {e}"))?;
                let client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
                Rc::clone(daemon.insert(Rc::new(RefCell::new(client))))
            }
        };
        let mut names = vec!["CONFIG".to_string()];
        names.extend(programs.iter().map(|b| b.name.to_string()));
        Ok(ServeCorpus {
            payloads: vec![None; programs.len()],
            programs,
            names,
            client,
            workers: 1,
        })
    }

    /// The payload the first pass received for program `i`.
    pub fn payload(&self, i: usize) -> Option<&[u8]> {
        self.payloads[i].as_deref()
    }

    fn counters(&self) -> Option<(u64, u64)> {
        let line = self.client.borrow_mut().stats().ok()?;
        Some((stat(&line, "hits")?, stat(&line, "misses")?))
    }
}

impl Workload for ServeCorpus {
    fn op_names(&self) -> &[String] {
        &self.names
    }

    fn set_workers(&mut self, workers: usize) {
        self.workers = workers;
    }

    fn pass(&mut self, meter: &mut Meter) {
        let before = self.counters();

        // A config write empties the cache, so every request below is cold.
        let workers = self.workers;
        let mut client = self.client.borrow_mut();
        match meter.op(|| client.set_workers(workers)) {
            Ok(reply) if reply.starts_with("OK reconfigured gen=") => {}
            Ok(reply) => meter.fail(format!("CONFIG: unexpected reply {reply}")),
            Err(e) => meter.fail(format!("CONFIG: {e}")),
        }

        for (i, b) in self.programs.iter().enumerate() {
            match meter.op(|| client.translate(b.source)) {
                Err(e) => meter.fail(format!("{}: cold TRANSLATE: {e}", b.name)),
                Ok(reply) => {
                    if reply.served != "cold" {
                        meter.fail(format!(
                            "{}: served={} on a cold request",
                            b.name, reply.served
                        ));
                    }
                    let text = String::from_utf8_lossy(&reply.payload);
                    if payload_verdict(&text, b.func) != b.expect_translate {
                        meter.fail(format!("{}: verdict differs from expect_translate", b.name));
                    }
                    if !same_payload(&mut self.payloads[i], reply.payload) {
                        meter.fail(format!(
                            "{}: cold payload differs from the first pass",
                            b.name
                        ));
                    }
                }
            }
        }

        let mut hot_failed = 0u64;
        for batch in 0..HOT_BATCHES {
            meter.between_batches();
            for j in 0..HOT_BATCH {
                let i = (batch * HOT_BATCH + j) % self.programs.len();
                let reply = meter.hot(|| client.translate(self.programs[i].source));
                let ok = reply.is_ok_and(|r| {
                    r.served == "hit" && self.payloads[i].as_ref() == Some(&r.payload)
                });
                hot_failed += u64::from(!ok);
            }
        }
        let hot_sent = (HOT_BATCHES * HOT_BATCH) as u64;
        meter.record.hot_attempted = hot_sent;
        for _ in 0..hot_failed {
            meter.fail("hot TRANSLATE: not a hit, or payload differs from cold".to_string());
        }

        drop(client);
        match (before, self.counters()) {
            (Some((h0, m0)), Some((h1, m1))) => {
                if (h1 - h0, m1 - m0) != (hot_sent, self.programs.len() as u64) {
                    meter.fail(format!(
                        "STATS: hits +{} misses +{}, sent {hot_sent} hot and {} cold",
                        h1 - h0,
                        m1 - m0,
                        self.programs.len()
                    ));
                }
            }
            _ => meter.fail("STATS: no reply".to_string()),
        }
    }
}

// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecKind {
    /// One `GeneratedProgram::run`.
    Run,
    /// `run_cached` per iteration with fresh `ranks`, one `ProgramCache`.
    CachedLoop,
    /// `run_tuned` per iteration with a fresh `key2`, one cache and tuner.
    TunedLoop,
}

/// One operation of an execute workload.
pub struct ExecOp {
    pub name: String,
    pub kind: ExecKind,
    /// Index into [`Execute::translated`].
    pub program: usize,
    /// Input state of each iteration (one for [`ExecKind::Run`]).
    pub states: Vec<Env>,
    /// The interpreter's outputs for each state.
    pub expected: Vec<Env>,
    /// Primary records of one state.
    pub records: usize,
}

/// A translated program an execute workload runs.
pub struct Translated {
    pub bench: Benchmark,
    pub report: Arc<TranslationReport>,
}

impl Translated {
    pub fn program(&self) -> Result<&GeneratedProgram, String> {
        match self
            .report
            .for_function(self.bench.func)
            .map(|f| &f.outcome)
        {
            Some(FragmentOutcome::Translated { program, .. }) => Ok(program),
            _ => Err(format!("{}: did not translate", self.bench.name)),
        }
    }
}

/// `execute_scale` and `execute_small`: `GeneratedProgram::run` on translated
/// programs, outputs checked against the sequential interpreter.
pub struct Execute {
    pub translated: Vec<Translated>,
    pub ops: Vec<ExecOp>,
    names: Vec<String>,
    ctx: Arc<Context>,
    /// Plan-cache hits and re-tunes the loops of the latest pass saw.
    pub plan_cache_hits: u64,
    pub retunes: u64,
    /// Stage statistics summed over the latest pass.
    pub totals: StageTotals,
}

/// The program's primary fragment, from the analyzer.
pub fn primary_fragment(b: &Benchmark) -> Result<Fragment, String> {
    let program = Arc::new(seqlang::compile(b.source).map_err(|e| format!("{}: {e}", b.name))?);
    analyzer::identify_fragments(&program)
        .into_iter()
        .find(|f| f.func == b.func)
        .ok_or_else(|| format!("{}: no fragment in {}", b.name, b.func))
}

/// The interpreter's outputs for `state`: the reference every execution is
/// checked against, independent of the compiler under test.
pub fn reference(b: &Benchmark, fragment: &Fragment, state: &Env) -> Result<(Env, f64), String> {
    let started = Instant::now();
    let (post, _) = fragment
        .run_with_work(state)
        .map_err(|e| format!("{}: interpreter: {e}", b.name))?;
    let seconds = started.elapsed().as_secs_f64();
    if seconds > REFERENCE_BUDGET_S {
        return Err(format!(
            "{}: reference took {seconds:.1} s, over the {REFERENCE_BUDGET_S} s budget",
            b.name
        ));
    }
    Ok((fragment.project_outputs(&post), seconds))
}

fn outputs_match(expected: &Env, got: &Env) -> Result<(), String> {
    for (name, want) in expected.iter() {
        match got.get(name) {
            Some(have) if bench::outputs_equal(want, have) => {}
            Some(_) => return Err(format!("output {name} differs from the interpreter's")),
            None => return Err(format!("output {name} missing")),
        }
    }
    Ok(())
}

/// The input of iteration `it` of a loop: what an iterative driver changes
/// between iterations, on top of the generated state.
fn loop_state(kind: ExecKind, base: &Env, it: usize) -> Env {
    let mut state = base.clone();
    match kind {
        ExecKind::Run => {}
        ExecKind::CachedLoop => {
            let nodes = base
                .get("ranks")
                .and_then(Value::elements)
                .map_or(0, <[Value]>::len);
            let ranks = (0..nodes)
                .map(|i| Value::Double(1.0 + (it * i % 7) as f64 * 0.1))
                .collect();
            state.set("ranks", Value::Array(ranks));
        }
        ExecKind::TunedLoop => state.set("key2", Value::str(format!("haystack{it}"))),
    }
    state
}

/// The interpreter's reference outputs, kept for the life of the process. A
/// run sets up three times from one seed, so the inputs and therefore the
/// references are the same each time; the oracle is the benchmark's own cost,
/// not the system's, and its time is kept out of `setup_s`.
#[derive(Default)]
pub struct Oracle {
    /// Operation name to the expected outputs of each of its iterations.
    expected: HashMap<String, Vec<Env>>,
    /// Seconds spent inside the interpreter, and records it processed.
    pub interp_s: f64,
    pub interp_records: u64,
    /// Seconds per operation, for `codegen.speedup_vs_interp`.
    pub op_s: HashMap<String, f64>,
    /// Seconds spent computing references, interpreter set-up included.
    pub spent_s: f64,
}

/// One operation with its inputs and reference outputs.
fn build_op(
    kind: Kind,
    seed: u64,
    at: usize,
    t: &Translated,
    exec: ExecKind,
    oracle: &mut Oracle,
) -> Result<ExecOp, String> {
    let b = &t.bench;
    t.program()?;
    let (n, vocab) = match kind {
        Kind::ExecuteScale => (programs::SCALE_N, Some(programs::SCALE_WORD_VOCAB)),
        _ => (programs::small_n(b.name, exec != ExecKind::Run), None),
    };
    // The registry's generators give the function's arguments only. A
    // generated program runs from the loop's entry, so its input is the state
    // after the fragment's output initialisation; without it `run` fails
    // whenever an output's pre-value is needed (always for some programs, and
    // for a scalar count whenever no record matches).
    let fragment = primary_fragment(b)?;
    let base = fragment
        .pre_loop_state(&programs::input_state(b, seed, n, vocab))
        .map_err(|e| format!("{}: pre-loop state: {e}", b.name))?;
    let iterations = if exec == ExecKind::Run {
        1
    } else {
        programs::LOOP_ITERATIONS
    };
    let name = match exec {
        ExecKind::Run => b.name.to_string(),
        ExecKind::CachedLoop => format!("{} x{iterations} run_cached", b.name),
        ExecKind::TunedLoop => format!("{} x{iterations} run_tuned", b.name),
    };
    let states: Vec<Env> = (0..iterations)
        .map(|it| loop_state(exec, &base, it))
        .collect();
    if !oracle.expected.contains_key(&name) {
        let started = Instant::now();
        let mut expected = Vec::new();
        let mut op_s = 0.0;
        for state in &states {
            let (outputs, seconds) = reference(b, &fragment, state)?;
            op_s += seconds;
            expected.push(outputs);
        }
        oracle.interp_s += op_s;
        oracle.interp_records += (n * iterations) as u64;
        oracle.op_s.insert(name.clone(), op_s);
        oracle.expected.insert(name.clone(), expected);
        oracle.spent_s += started.elapsed().as_secs_f64();
    }
    let expected = oracle.expected[&name].clone();
    Ok(ExecOp {
        name,
        kind: exec,
        program: at,
        states,
        expected,
        records: n,
    })
}

impl Execute {
    /// Build inputs from the seed and the interpreter's reference outputs for
    /// programs that are already translated. `ExecuteScale` runs them at
    /// scale; every other kind at the small size, and `ExecuteSmall` adds the
    /// two iterative loops.
    pub fn set_up(
        kind: Kind,
        seed: u64,
        translated: Vec<Translated>,
        oracle: &mut Oracle,
    ) -> Result<Execute, String> {
        let loops = if kind == Kind::ExecuteSmall {
            vec![
                (programs::CACHED_LOOP, ExecKind::CachedLoop),
                (programs::TUNED_LOOP, ExecKind::TunedLoop),
            ]
        } else {
            Vec::new()
        };
        let mut plan: Vec<(usize, ExecKind)> = (0..translated.len())
            // The cached-loop program is translated for its loop only.
            .filter(|&at| {
                kind != Kind::ExecuteSmall || translated[at].bench.name != programs::CACHED_LOOP
            })
            .map(|at| (at, ExecKind::Run))
            .collect();
        for (name, exec) in loops {
            let at = translated
                .iter()
                .position(|t| t.bench.name == name)
                .ok_or_else(|| format!("{name}: not among the translated programs"))?;
            plan.push((at, exec));
        }
        let ops = plan
            .into_iter()
            .map(|(at, exec)| build_op(kind, seed, at, &translated[at], exec, oracle))
            .collect::<Result<Vec<ExecOp>, String>>()?;
        Ok(Execute {
            names: ops.iter().map(|op| op.name.clone()).collect(),
            translated,
            ops,
            ctx: Context::with_parallelism(1, PARTITIONS),
            plan_cache_hits: 0,
            retunes: 0,
            totals: StageTotals::default(),
        })
    }

    /// Primary records one pass processes.
    pub fn records(&self) -> u64 {
        self.ops
            .iter()
            .map(|op| (op.records * op.states.len()) as u64)
            .sum()
    }

    /// Translate the workload's programs with `translate_source`.
    pub fn translate(programs: Vec<Benchmark>) -> Result<Vec<Translated>, String> {
        let casper = Casper::new(config(1));
        programs
            .into_iter()
            .map(|bench| {
                let report = casper
                    .translate_source(bench.source)
                    .map_err(|e| format!("{}: {e}", bench.name))?;
                Ok(Translated {
                    bench,
                    report: Arc::new(report),
                })
            })
            .collect()
    }
}

impl Workload for Execute {
    fn op_names(&self) -> &[String] {
        &self.names
    }

    fn set_workers(&mut self, workers: usize) {
        self.ctx = Context::with_parallelism(workers, PARTITIONS);
    }

    fn pass(&mut self, meter: &mut Meter) {
        self.run_pass(meter, None);
    }
}

/// What the engine's stage statistics add up to over one pass.
#[derive(Debug, Default, Clone, Copy)]
pub struct StageTotals {
    pub records_in: u64,
    pub bytes_shuffled: u64,
    pub bytes_moved: u64,
    pub value_allocs: u64,
    pub stages: u64,
    pub shuffles: u64,
    pub arena_hwm_bytes: u64,
}

impl StageTotals {
    fn add(&mut self, job: &JobStats) {
        self.records_in += job.total_records_in();
        self.bytes_shuffled += job.total_shuffled_bytes();
        self.bytes_moved += job.total_bytes_moved();
        self.value_allocs += job.total_value_allocs();
        self.stages += job.stage_count() as u64;
        self.shuffles += job.shuffle_count() as u64;
        self.arena_hwm_bytes = self.arena_hwm_bytes.max(job.max_arena_hwm_bytes());
    }
}

impl Execute {
    /// One pass. With a tracer (and the pass's index for its spans), `run` is
    /// driven step by step, `choose` then `execute` on the chosen variant,
    /// which is all `GeneratedProgram::run` does.
    pub fn run_pass(&mut self, meter: &mut Meter, tracer: Option<(&Tracer, usize)>) {
        let (mut hits, mut retunes) = (0, 0);
        self.totals = StageTotals::default();
        for (index, op) in self.ops.iter().enumerate() {
            let program = self.translated[op.program]
                .program()
                .expect("checked in set-up");
            // Stage statistics pile up in the context; start each operation
            // with none so that memory does not grow with the run.
            self.ctx.reset_stats();
            let ctx = &self.ctx;
            let outputs: Result<Vec<Env>, seqlang::error::Error> = match (op.kind, tracer) {
                (ExecKind::Run, None) => {
                    meter.op(|| program.run(ctx, &op.states[0]).map(|(out, _)| vec![out]))
                }
                (ExecKind::Run, Some((t, pass))) => {
                    t.set_op(pass, index);
                    meter.op(|| {
                        t.span("casper.run", || {
                            let choice = t.span("codegen.choose", || program.choose(&op.states[0]));
                            let plan = &program.variants[choice.chosen].plan;
                            t.span("codegen.execute", || plan.execute(ctx, &op.states[0]))
                                .map(|out| vec![out])
                        })
                    })
                }
                (ExecKind::CachedLoop, None) => meter.op(|| {
                    let mut cache = ProgramCache::new();
                    let outs = op
                        .states
                        .iter()
                        .map(|s| program.run_cached(ctx, s, &mut cache).map(|(out, _)| out))
                        .collect();
                    hits += cache.hits();
                    outs
                }),
                (ExecKind::CachedLoop, Some((t, pass))) => {
                    t.set_op(pass, index);
                    meter.op(|| {
                        t.span("casper.run", || {
                            let mut caches: HashMap<usize, PlanCache> = HashMap::new();
                            let outs = op
                                .states
                                .iter()
                                .map(|s| {
                                    let choice = t.span("codegen.choose", || program.choose(s));
                                    let plan = &program.variants[choice.chosen].plan;
                                    let cache = caches.entry(choice.chosen).or_default();
                                    t.span("codegen.execute", || plan.execute_cached(ctx, s, cache))
                                })
                                .collect();
                            hits += caches.values().map(PlanCache::hits).sum::<u64>();
                            outs
                        })
                    })
                }
                (ExecKind::TunedLoop, _) => {
                    let run = || {
                        let (mut cache, mut tuning) = (ProgramCache::new(), TuningState::new());
                        let outs = op
                            .states
                            .iter()
                            .map(|s| {
                                program
                                    .run_tuned(ctx, s, &mut cache, &mut tuning)
                                    .map(|(out, _)| out)
                            })
                            .collect();
                        hits += cache.hits();
                        retunes += tuning.retune_count() as u64;
                        outs
                    };
                    match tracer {
                        None => meter.op(run),
                        // The tuner's observe, compare and switch steps are
                        // not public: the loop is one span.
                        Some((t, pass)) => {
                            t.set_op(pass, index);
                            meter.op(|| t.span("casper.run", run))
                        }
                    }
                }
            };
            self.totals.add(&self.ctx.stats());
            match outputs {
                Err(e) => meter.fail(format!("{}: {e}", op.name)),
                Ok(outs) => {
                    for (it, (want, got)) in op.expected.iter().zip(&outs).enumerate() {
                        if let Err(why) = outputs_match(want, got) {
                            meter.fail(format!("{} (iteration {it}): {why}", op.name));
                            break;
                        }
                    }
                }
            }
        }
        self.plan_cache_hits = hits;
        self.retunes = retunes;
    }
}

/// Set a workload up from the seed: inputs, translation (execute workloads)
/// and, the first time in a process, reference outputs. Warm-up passes are the
/// caller's.
pub fn set_up(kind: Kind, seed: u64, shared: &mut Shared) -> Result<Box<dyn Workload>, String> {
    let programs = kind.programs(seed);
    Ok(match kind {
        Kind::TranslateSearch => Box::new(TranslateSearch::set_up(programs)),
        Kind::ServeCorpus => Box::new(ServeCorpus::set_up(programs, &mut shared.daemon)?),
        Kind::ExecuteScale | Kind::ExecuteSmall => Box::new(Execute::set_up(
            kind,
            seed,
            Execute::translate(programs)?,
            &mut shared.oracle,
        )?),
    })
}

/// What the set-ups of one process share.
#[derive(Default)]
pub struct Shared {
    pub oracle: Oracle,
    pub daemon: Option<Daemon>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_verdict_reads_the_fragment_line() {
        let payload = "fragments 1 translated 1\nfragment sum:loop@3 func=sum outcome=translated dialect=Spark variants=1\n";
        assert!(payload_verdict(payload, "sum"));
        assert!(!payload_verdict(payload, "su"));
        assert!(!payload_verdict(
            "fragment f:loop@1 func=f outcome=failed reason=x\n",
            "f"
        ));
    }

    #[test]
    fn stats_line_fields() {
        let line = "STATS hits=12 misses=3 coalesced=0 evictions=0 entries=3";
        assert_eq!(stat(line, "hits"), Some(12));
        assert_eq!(stat(line, "misses"), Some(3));
        assert_eq!(stat(line, "absent"), None);
    }
}
