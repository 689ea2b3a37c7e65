//! The `sac-native` and `sac-compiled` workloads: Table 1 programs on
//! the runtime, hand-written (`ceal_suite::sac`) or compiled by `cealc`
//! (`frontend` → `pipeline::compile` → `vm::load`), each repetition a
//! from-scratch run followed by seeded one-edit `EditBatch` updates.
//!
//! Programs run round-robin inside every repetition so a slow phase of
//! the machine spreads over all of them. Every repetition rebuilds the
//! engine and its input from the same seed, so repetitions measure the
//! same work; only the edit positions change between repetitions.

use std::time::Instant;

use ceal_compiler::pipeline::compile;
use ceal_lang::benchmarks;
use ceal_runtime::prelude::*;
use ceal_runtime::prng::Prng;
use ceal_suite::conv;
use ceal_suite::input::{self, InputList};
use ceal_suite::sac;
use ceal_suite::sac::exptrees::{ExpTree, KIND_LEAF, ND_KIND, ND_LEFT, ND_PAYLOAD, ND_RIGHT};
use ceal_suite::sac::tcon::{InputTree, TN_LEFT, TN_RIGHT};
use ceal_vm::{load, LoadedProgram, VmOptions};

use crate::metrics::Outcome;
use crate::stats::{geomean, mean, median, nnls, percentile, residual_share, sorted};
use crate::trace::{Ledger, Span, Tracer};
use crate::{peak_rss_mb, Config};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Prog {
    Minimum,
    Sum,
    Map,
    Quicksort,
    Exptrees,
    Tcon,
}

const NATIVE: [Prog; 6] = [
    Prog::Minimum,
    Prog::Sum,
    Prog::Map,
    Prog::Quicksort,
    Prog::Exptrees,
    Prog::Tcon,
];

/// The Table 1 programs `cealc` compiles from `crates/lang/benchmarks`.
const COMPILED: [Prog; 4] = [Prog::Map, Prog::Quicksort, Prog::Exptrees, Prog::Tcon];

impl Prog {
    fn name(self) -> &'static str {
        match self {
            Prog::Minimum => "minimum",
            Prog::Sum => "sum",
            Prog::Map => "map",
            Prog::Quicksort => "quicksort",
            Prog::Exptrees => "exptrees",
            Prog::Tcon => "tcon",
        }
    }

    /// Input size: list length, leaves, or tree nodes.
    fn size(self, smoke: bool) -> usize {
        match (self, smoke) {
            (Prog::Minimum | Prog::Sum | Prog::Map, false) => 100_000,
            (Prog::Quicksort, false) => 20_000,
            (Prog::Exptrees, false) => 65_536,
            (Prog::Tcon, false) => 40_000,
            (Prog::Exptrees, true) => 256,
            (_, true) => 300,
        }
    }

    /// CEAL source and entry point of the compiled version.
    fn source(self) -> (&'static str, &'static str) {
        match self {
            Prog::Map => (benchmarks::LIST, "map"),
            Prog::Quicksort => (benchmarks::QUICKSORT, "quicksort"),
            Prog::Exptrees => (benchmarks::EXPTREES, "eval"),
            Prog::Tcon => (benchmarks::TCON, "tcon"),
            Prog::Minimum | Prog::Sum => unreachable!("no CEAL source for {}", self.name()),
        }
    }

    fn native(self) -> (std::sync::Arc<Program>, FuncId) {
        match self {
            Prog::Minimum => sac::reduce::minimum_program(),
            Prog::Sum => sac::reduce::sum_program(),
            Prog::Map => sac::listops::map_program(),
            Prog::Quicksort => sac::sort::quicksort_program(),
            Prog::Exptrees => sac::exptrees::exptrees_program(),
            Prog::Tcon => sac::tcon::tcon_program(),
        }
    }

    /// Input seed: one per program, derived from the workload seed.
    fn seed(self, seed: u64) -> u64 {
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (self as u64 + 1)
    }
}

/// A program's input, with the handles the test mutator edits.
enum Input {
    List(InputList, Vec<i64>),
    Exp(ExpTree),
    Tree(InputTree),
}

impl Input {
    fn build(p: Prog, e: &mut Engine, n: usize, seed: u64) -> Input {
        match p {
            Prog::Exptrees => Input::Exp(sac::exptrees::build_exptree(e, n, seed)),
            Prog::Tcon => Input::Tree(sac::tcon::build_tree(e, n, seed)),
            _ => {
                let data = input::random_ints(n, seed);
                let vals: Vec<Value> = data.iter().map(|&x| Value::Int(x)).collect();
                Input::List(input::build_list(e, &vals), data)
            }
        }
    }

    fn root(&self) -> ModRef {
        match self {
            Input::List(l, _) => l.head,
            Input::Exp(t) => t.root,
            Input::Tree(t) => t.root,
        }
    }

    /// Number of editable positions (elements, leaves, edges).
    fn positions(&self) -> usize {
        match self {
            Input::List(l, _) => l.len(),
            Input::Exp(t) => t.leaves.len(),
            Input::Tree(t) => t.edges.len(),
        }
    }

    /// Stages the first (`undo = false`) or second half of the test
    /// mutator's round trip at position `i`: delete then re-insert an
    /// element or edge, swap a leaf out then back.
    fn stage(&self, b: &mut EditBatch<'_>, i: usize, undo: bool) {
        match (self, undo) {
            (Input::List(l, _), false) => {
                l.delete(b, i);
            }
            (Input::List(l, _), true) => l.insert(b, i),
            (Input::Exp(t), false) => b.modify(t.leaves[i].0, t.leaves[i].3),
            (Input::Exp(t), true) => b.modify(t.leaves[i].0, t.leaves[i].2),
            (Input::Tree(t), false) => {
                t.delete_edge(b, i);
            }
            (Input::Tree(t), true) => t.insert_edge(b, i),
        }
    }
}

/// A program's observable output.
#[derive(Clone, Debug, PartialEq)]
enum Output {
    Ints(Vec<i64>),
    Int(i64),
    Float(f64),
    Nil,
}

impl Output {
    fn read(p: Prog, e: &Engine, res: ModRef) -> Output {
        match p {
            Prog::Map | Prog::Quicksort => Output::Ints(
                input::collect_list(e, res)
                    .into_iter()
                    .map(|v| match v {
                        Value::Int(i) => i,
                        _ => i64::MIN,
                    })
                    .collect(),
            ),
            _ => match e.deref(res) {
                Value::Int(i) => Output::Int(i),
                Value::Float(x) => Output::Float(x),
                _ => Output::Nil,
            },
        }
    }

    /// Agreement with the conventional oracle; floats within the
    /// harness's relative tolerance (the conventional evaluator may
    /// associate differently).
    fn matches_oracle(&self, oracle: &Output) -> bool {
        match (self, oracle) {
            (Output::Float(a), Output::Float(b)) => (a - b).abs() <= 1e-6 * (1.0 + b.abs()),
            _ => self == oracle,
        }
    }
}

fn exp_mirror(e: &Engine, v: Value) -> conv::ExpMirror {
    let t = v.ptr();
    if e.load(t, ND_KIND).int() == KIND_LEAF {
        conv::ExpMirror::Leaf(e.load(t, ND_PAYLOAD).float())
    } else {
        let l = exp_mirror(e, e.deref(e.load(t, ND_LEFT).modref()));
        let r = exp_mirror(e, e.deref(e.load(t, ND_RIGHT).modref()));
        conv::ExpMirror::Node(e.load(t, ND_PAYLOAD).int(), Box::new(l), Box::new(r))
    }
}

fn tree_mirror(e: &Engine, root: ModRef) -> conv::TreeMirror {
    fn go(e: &Engine, v: Value, out: &mut Vec<(u32, u32)>) -> u32 {
        match v {
            Value::Ptr(t) => {
                let me = out.len() as u32;
                out.push((u32::MAX, u32::MAX));
                let l = go(e, e.deref(e.load(t, TN_LEFT).modref()), out);
                let r = go(e, e.deref(e.load(t, TN_RIGHT).modref()), out);
                out[me as usize] = (l, r);
                me
            }
            _ => u32::MAX,
        }
    }
    let mut children = Vec::new();
    go(e, e.deref(root), &mut children);
    conv::TreeMirror { children }
}

/// The conventional version of a program over the same input: computes
/// the oracle output, and is what `baseline.conv_ms` times.
enum Conv {
    List(Prog, Vec<i64>),
    Exp(conv::ExpMirror),
    Tree(conv::TreeMirror),
}

impl Conv {
    fn of(p: Prog, e: &Engine, inp: &Input) -> Conv {
        match inp {
            Input::List(_, data) => Conv::List(p, data.clone()),
            Input::Exp(t) => Conv::Exp(exp_mirror(e, e.deref(t.root))),
            Input::Tree(t) => Conv::Tree(tree_mirror(e, t.root)),
        }
    }

    fn run(&self) -> Output {
        let opt = |x: Option<i64>| x.map_or(Output::Nil, Output::Int);
        match self {
            Conv::List(p, d) => {
                let l = conv::List::from_slice(d);
                match p {
                    Prog::Minimum => opt(conv::minimum_list(&l)),
                    Prog::Sum => opt(conv::sum_list(&l)),
                    Prog::Map => {
                        Output::Ints(conv::map_list(&l, sac::listops::paper_map_fn).to_vec())
                    }
                    _ => Output::Ints(conv::quicksort_list(&l, |a, b| a <= b).to_vec()),
                }
            }
            Conv::Exp(m) => Output::Float(conv::eval_exp(m)),
            Conv::Tree(m) => Output::Int(conv::contract_tree(m)),
        }
    }
}

/// One program's measurements in one repetition.
struct RepStats {
    traced: bool,
    scratch_ms: f64,
    p50_us: f64,
    p99_us: f64,
    mean_us: f64,
    rss_mb: f64,
}

/// Everything measured for one program over the repetitions.
#[derive(Default)]
struct ProgAcc {
    reps: Vec<RepStats>,
    /// Traced repetitions only, from here on.
    conv_ms: Vec<f64>,
    stage_ns: f64,
    commit_ns: f64,
    updates: u64,
    delta: OpCounters,
    scratch_ops: u64,
    steps_update: u64,
    steps_scratch: u64,
    max_live: usize,
    /// The from-scratch output of the first repetition; every later
    /// repetition, and for `sac-compiled` the native program, must match.
    first_output: Option<Output>,
}

impl ProgAcc {
    /// Median over the repetitions (`Some(traced)`: only those) of one
    /// per-repetition statistic.
    fn median(&self, traced: Option<bool>, f: fn(&RepStats) -> f64) -> f64 {
        let v: Vec<f64> = self
            .reps
            .iter()
            .filter(|r| traced.map_or(true, |t| r.traced == t))
            .map(f)
            .collect();
        median(&v)
    }
}

/// Cost-model features, one column per counter group; column 0 is the
/// per-commit constant.
const COST_FEATURES: [&str; 13] = [
    "commit",
    "reads_reexecuted",
    "reads_created",
    "writes_created",
    "allocs_created",
    "allocs_stolen",
    "memo_hits",
    "memo_misses",
    "nodes_purged",
    "queue_ops",
    "interval_splits",
    "order_ops",
    "vm_steps",
];

fn order_ops(d: &OpCounters) -> u64 {
    d.order_group_relabels + d.order_local_renumbers + d.order_group_splits + d.order_group_merges
}

fn cost_row(d: &OpCounters, steps: u64) -> [f64; 13] {
    [
        1.0,
        d.reads_reexecuted as f64,
        d.reads_created as f64,
        d.writes_created as f64,
        d.allocs_created as f64,
        d.allocs_stolen as f64,
        d.memo_hits as f64,
        d.memo_misses as f64,
        d.nodes_purged as f64,
        (d.queue_pushes + d.queue_pops) as f64,
        d.interval_splits as f64,
        order_ops(d) as f64,
        steps as f64,
    ]
}

struct Run<'a> {
    cfg: &'a Config,
    compiled: bool,
    tracer: Tracer,
    out: Outcome,
    cost: Vec<([f64; 13], f64)>,
    seq: u64,
    load_ms: Vec<f64>,
}

impl Run<'_> {
    /// One program in one repetition. Returns the set-up seconds and the
    /// part of them spent building the input.
    fn program(&mut self, p: Prog, rep: u64, acc: &mut ProgAcc) -> (f64, f64) {
        let traced = self.tracer.is_on();
        let n = p.size(self.cfg.smoke);
        reset_peak_rss();
        let t0 = Instant::now();
        let (program, entry, loaded) = if self.compiled {
            let (src, entry) = p.source();
            let cl = match ceal_lang::frontend(src) {
                Ok((cl, _)) => cl,
                Err(e) => {
                    self.out.fail(format!("{}: frontend: {e}", p.name()));
                    return (0.0, 0.0);
                }
            };
            let t1 = Instant::now();
            let target = match compile(&cl) {
                Ok(o) => o.target,
                Err(e) => {
                    self.out.fail(format!("{}: compile: {e}", p.name()));
                    return (0.0, 0.0);
                }
            };
            let t2 = Instant::now();
            self.tracer.leaf("lang.frontend", 0, t0, t1);
            self.tracer.leaf("compiler.pipeline", 0, t1, t2);
            let mut b = ProgramBuilder::new();
            let opts = VmOptions {
                count_steps: traced,
                ..VmOptions::default()
            };
            let loaded = match load(&target, &mut b, opts) {
                Ok(l) => l,
                Err(e) => {
                    self.out.fail(format!("{}: vm::load: {e}", p.name()));
                    return (0.0, 0.0);
                }
            };
            let Some(f) = loaded.entry(&target, entry) else {
                self.out.fail(format!("{}: no entry `{entry}`", p.name()));
                return (0.0, 0.0);
            };
            let t3 = Instant::now();
            self.tracer.leaf("vm.load", 0, t2, t3);
            self.load_ms.push((t3 - t2).as_secs_f64() * 1e3);
            (b.build(), f, Some(loaded))
        } else {
            let (prog, f) = p.native();
            (prog, f, None)
        };
        let steps = |l: &Option<LoadedProgram>| l.as_ref().map_or(0, LoadedProgram::steps);
        let t_in = Instant::now();
        let mut e = Engine::new(program);
        let inp = Input::build(p, &mut e, n, p.seed(self.cfg.seed));
        let res = e.meta_modref();
        let t_built = Instant::now();
        self.tracer.leaf("suite.build_input", 0, t_in, t_built);
        let (setup_s, input_s) = ((t_built - t0).as_secs_f64(), (t_built - t_in).as_secs_f64());

        // From scratch.
        let before = e.stats().op_counters();
        let s0 = steps(&loaded);
        let t_run = Instant::now();
        e.run_core(entry, &[Value::ModRef(inp.root()), Value::ModRef(res)]);
        let t_ran = Instant::now();
        self.tracer.leaf("runtime.run_core", 0, t_run, t_ran);
        let run_ms = (t_ran - t_run).as_secs_f64() * 1e3;
        self.out.attempted += 1;
        if traced {
            let d = e.stats().op_counters().delta(&before);
            acc.scratch_ops += d.reads_created + d.writes_created + d.allocs_created;
            acc.steps_scratch += steps(&loaded) - s0;
        }

        // Check against the conventional oracle (first repetition: the
        // oracle is computed once; inputs repeat exactly).
        let t_chk = Instant::now();
        let got = Output::read(p, &e, res);
        match &acc.first_output {
            None => {
                if !self.compiled {
                    let oracle = Conv::of(p, &e, &inp).run();
                    if !got.matches_oracle(&oracle) {
                        self.out.fail(format!(
                            "{}: from-scratch output differs from conv",
                            p.name()
                        ));
                    }
                }
                acc.first_output = Some(got);
            }
            Some(first) if *first != got => {
                self.out.fail(format!(
                    "{}: rep {rep}: from-scratch output changed",
                    p.name()
                ));
            }
            Some(_) => {}
        }
        self.tracer.leaf("check.output", 0, t_chk, Instant::now());

        if traced {
            let conv = Conv::of(p, &e, &inp);
            let tc = Instant::now();
            let secs = ceal_suite::harness::time_avg(|| {
                std::hint::black_box(conv.run());
            });
            self.tracer.leaf("baseline.conv", 0, tc, Instant::now());
            acc.conv_ms.push(secs * 1e3);
        }

        // Updates: the test mutator over a seeded systematic sample of
        // positions (a random offset, then every stride-th one, applied
        // in shuffled order). Quicksort's and tcon's update cost falls
        // steeply with position, so a plain random sample would swing a
        // repetition's mean on whether it drew one of the first few.
        let len = inp.positions();
        let count = len.min(if self.cfg.smoke { 20 } else { 1000 });
        let stride = len / count.max(1);
        let mut rng = Prng::seed_from_u64(p.seed(self.cfg.seed) ^ ((rep + 1) << 20));
        let offset = rng.gen_range(0..stride.max(1));
        let mut order: Vec<usize> = (0..count).map(|k| offset + k * stride).collect();
        rng.shuffle(&mut order);
        let mut lat = Vec::with_capacity(order.len() * 2);
        for &i in &order {
            for undo in [false, true] {
                self.seq += 1;
                let before = traced.then(|| (e.stats().op_counters(), steps(&loaded)));
                let t0 = Instant::now();
                let mut b = e.batch();
                inp.stage(&mut b, i, undo);
                let t1 = Instant::now();
                b.commit();
                let t2 = Instant::now();
                lat.push((t2 - t0).as_secs_f64() * 1e6);
                if let Some((c0, s0)) = before {
                    self.tracer.open("update", self.seq, t0);
                    self.tracer.leaf("runtime.stage", self.seq, t0, t1);
                    self.tracer.leaf("runtime.commit", self.seq, t1, t2);
                    self.tracer.close(t2);
                    let d = e.stats().op_counters().delta(&c0);
                    let ds = steps(&loaded) - s0;
                    let commit_ns = (t2 - t1).as_secs_f64() * 1e9;
                    acc.stage_ns += (t1 - t0).as_secs_f64() * 1e9;
                    acc.commit_ns += commit_ns;
                    acc.updates += 1;
                    acc.delta.add(&d);
                    acc.steps_update += ds;
                    self.cost.push((cost_row(&d, ds), commit_ns));
                }
            }
        }
        self.out.attempted += lat.len() as u64;
        let sorted_lat = sorted(&lat);

        // Every round trip restored the input: the output must be the
        // from-scratch one again.
        let t_chk = Instant::now();
        if Some(&Output::read(p, &e, res)) != acc.first_output.as_ref() {
            self.out.fail(format!(
                "{}: rep {rep}: output wrong after updates",
                p.name()
            ));
        }
        self.tracer.leaf("check.output", 0, t_chk, Instant::now());
        acc.max_live = acc.max_live.max(e.stats().max_live_bytes);
        acc.reps.push(RepStats {
            traced,
            scratch_ms: run_ms,
            p50_us: percentile(&sorted_lat, 50.0),
            p99_us: percentile(&sorted_lat, 99.0),
            mean_us: mean(&lat),
            rss_mb: peak_rss_mb(None),
        });
        let t_drop = Instant::now();
        drop(e);
        release_freed_memory();
        self.tracer
            .leaf("runtime.teardown", 0, t_drop, Instant::now());
        (setup_s, input_s)
    }

    /// Compiles every Table 3 source `rounds` times, timing each public
    /// pass separately (traced `sac-compiled` only).
    fn compile_pass(&mut self, rounds: u64) {
        let names = [
            "lang.frontend_ms",
            "compiler.normalize_ms",
            "compiler.inline_ms",
            "compiler.translate_ms",
            "compiler.emit_c_ms",
        ];
        let mut per_round: Vec<[f64; 5]> = Vec::new();
        let (mut words, mut c_bytes) = (0usize, 0usize);
        for round in 1..=rounds {
            let mut ms = [0.0f64; 5];
            let r0 = Instant::now();
            self.tracer.open("compile_pass", round, r0);
            for (_, src) in benchmarks::all() {
                let t0 = Instant::now();
                let Ok((cl, _)) = ceal_lang::frontend(src) else {
                    self.out.fail("compile pass: frontend failed");
                    continue;
                };
                let t1 = Instant::now();
                let Ok((norm, _)) = ceal_compiler::normalize(&cl) else {
                    self.out.fail("compile pass: normalize failed");
                    continue;
                };
                let t2 = Instant::now();
                let (norm, _) = ceal_compiler::inline_trivial_returns(&norm);
                let t3 = Instant::now();
                let Ok(target) = ceal_compiler::translate(&norm) else {
                    self.out.fail("compile pass: translate failed");
                    continue;
                };
                let t4 = Instant::now();
                let c = ceal_compiler::emit_c::emit_c(&norm);
                let t5 = Instant::now();
                self.out.attempted += 1;
                let t = [t0, t1, t2, t3, t4, t5];
                let span = [
                    "lang.frontend",
                    "compiler.normalize",
                    "compiler.inline",
                    "compiler.translate",
                    "compiler.emit_c",
                ];
                for k in 0..5 {
                    self.tracer.leaf(span[k], round, t[k], t[k + 1]);
                    ms[k] += (t[k + 1] - t[k]).as_secs_f64() * 1e3;
                }
                if round == 1 {
                    words += target.repr_words();
                    c_bytes += c.len();
                }
                std::hint::black_box((target, c));
            }
            self.tracer.close(Instant::now());
            per_round.push(ms);
        }
        for (k, name) in names.iter().enumerate() {
            let v: Vec<f64> = per_round.iter().map(|r| r[k]).collect();
            self.out.set(name, median(&v));
        }
        let totals: Vec<f64> = per_round.iter().map(|r| r.iter().sum()).collect();
        self.out.set("compiler.compile_ms", median(&totals));
        self.out.set("compiler.target_words", words as f64);
        self.out.set("compiler.c_bytes", c_bytes as f64);
    }
}

/// Returns the memory of the engine just dropped to the system, so each
/// program starts from a trimmed heap and its peak RSS measures that
/// program, not how the allocator fragmented under the ones before it.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_freed_memory() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's `malloc_trim` takes no pointers, only releases
    // free heap pages, and may be called at any time from any thread.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_freed_memory() {}

/// Resets this process's `VmHWM` to its current resident set (Linux
/// `clear_refs` code 5), so the next reading covers one program. Where
/// that is unavailable the reading stays cumulative.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Runs `sac-native` (`compiled = false`) or `sac-compiled`.
pub fn run(compiled: bool, cfg: &Config) -> (Outcome, Vec<Span>, Ledger) {
    let progs: &[Prog] = if compiled { &COMPILED } else { &NATIVE };
    let start = Instant::now();
    let mut run = Run {
        cfg,
        compiled,
        tracer: Tracer::new(false, start, 1),
        out: Outcome::default(),
        cost: Vec::new(),
        seq: 0,
        load_ms: Vec::new(),
    };
    let mut accs: Vec<ProgAcc> = progs.iter().map(|_| ProgAcc::default()).collect();
    let (mut setup_s, mut input_ms) = (Vec::new(), Vec::new());
    let min_reps = if cfg.smoke { 2 } else { 5 };
    let mut rep = 0u64;
    while rep < min_reps || start.elapsed().as_secs_f64() < cfg.seconds {
        // In the traced run, odd repetitions record spans and counters
        // and even ones do not: the pairs give the tracing overhead.
        let traced = cfg.trace && rep % 2 == 1;
        run.tracer.set_on(traced);
        run.tracer.open("rep", 0, Instant::now());
        let (mut s, mut built) = (0.0, 0.0);
        for (p, acc) in progs.iter().zip(accs.iter_mut()) {
            let (setup, input) = run.program(*p, rep, acc);
            s += setup;
            built += input;
        }
        run.tracer.close(Instant::now());
        if traced {
            input_ms.push(built * 1e3);
        }
        setup_s.push(s);
        rep += 1;
    }
    let out = &mut run.out;
    out.set("setup_s", median(&setup_s));

    if compiled {
        // The compiled outputs must equal the hand-written programs' on
        // the same inputs.
        for (p, acc) in progs.iter().zip(&accs) {
            let (prog, f) = p.native();
            let mut e = Engine::new(prog);
            let inp = Input::build(*p, &mut e, p.size(cfg.smoke), p.seed(cfg.seed));
            let res = e.meta_modref();
            e.run_core(f, &[Value::ModRef(inp.root()), Value::ModRef(res)]);
            out.attempted += 1;
            if acc.first_output.as_ref() != Some(&Output::read(*p, &e, res)) {
                out.fail(format!("{}: compiled output differs from native", p.name()));
            }
        }
    }

    // Each program's median over repetitions, then the geometric mean
    // over programs: one slow repetition or one program cannot carry a
    // metric.
    let over_programs = |f: fn(&RepStats) -> f64| {
        geomean(&accs.iter().map(|a| a.median(None, f)).collect::<Vec<_>>())
    };
    out.set("peak_rss_mb", over_programs(|r| r.rss_mb));
    out.set("from_scratch_ms", over_programs(|r| r.scratch_ms));
    out.set("latency_p50_us", over_programs(|r| r.p50_us));
    out.set("latency_p99_us", over_programs(|r| r.p99_us));
    out.set("throughput_per_s", over_programs(|r| 1e6 / r.mean_us));

    if !cfg.trace {
        return (run.out, Vec::new(), Ledger::default());
    }
    run.set_traced(progs, &accs);
    run.out.set("suite.input_build_ms", mean(&input_ms));
    if compiled {
        run.tracer.set_on(true);
        run.compile_pass(if cfg.smoke { 2 } else { 200 });
    }
    let spans = run.tracer.into_spans();
    let ledger = Ledger::from_tree(&spans);
    (run.out, spans, ledger)
}

impl Run<'_> {
    /// Per-layer metrics from the traced repetitions.
    fn set_traced(&mut self, progs: &[Prog], accs: &[ProgAcc]) {
        let mut tot = OpCounters::default();
        let (mut upd, mut commit_ns, mut scratch_ns, mut scratch_ops) = (0u64, 0.0, 0.0, 0u64);
        let (mut steps_u, mut steps_s, mut runs) = (0u64, 0u64, 0u64);
        for a in accs {
            tot.add(&a.delta);
            upd += a.updates;
            commit_ns += a.commit_ns;
            for r in a.reps.iter().filter(|r| r.traced) {
                scratch_ns += r.scratch_ms * 1e6;
                runs += 1;
            }
            scratch_ops += a.scratch_ops;
            steps_u += a.steps_update;
            steps_s += a.steps_scratch;
        }
        let per_upd = |x: u64| x as f64 / upd.max(1) as f64;
        let ratio = |a: u64, b: u64| {
            if a + b == 0 {
                0.0
            } else {
                a as f64 / (a + b) as f64
            }
        };
        let pm = |f: &dyn Fn(&ProgAcc) -> f64| -> Vec<f64> { accs.iter().map(f).collect() };
        self.out.set(
            "runtime.stage_us",
            geomean(&pm(&|a| a.stage_ns / a.updates.max(1) as f64 / 1e3)),
        );
        self.out.set(
            "runtime.commit_us",
            geomean(&pm(&|a| a.commit_ns / a.updates.max(1) as f64 / 1e3)),
        );
        self.out.set(
            "runtime.commit_ns_per_reexec",
            commit_ns / tot.reads_reexecuted.max(1) as f64,
        );
        self.out
            .set("runtime.reexec_per_update", per_upd(tot.reads_reexecuted));
        self.out.set(
            "runtime.memo_hit_ratio",
            ratio(tot.memo_hits, tot.memo_misses),
        );
        self.out.set(
            "runtime.alloc_reuse_ratio",
            ratio(tot.allocs_stolen, tot.allocs_created),
        );
        self.out.set(
            "runtime.queue_ops_per_update",
            per_upd(tot.queue_pushes + tot.queue_pops),
        );
        self.out
            .set("runtime.order_ops_per_update", per_upd(order_ops(&tot)));
        self.out
            .set("runtime.purged_per_update", per_upd(tot.nodes_purged));
        self.out.set(
            "runtime.interval_splits_per_update",
            per_upd(tot.interval_splits),
        );
        self.out.set(
            "runtime.scratch_ns_per_op",
            scratch_ns / scratch_ops.max(1) as f64,
        );
        let max_live = accs.iter().map(|a| a.max_live).max().unwrap_or(0);
        self.out
            .set("runtime.max_live_mb", max_live as f64 / (1 << 20) as f64);

        let coef = nnls(&self.cost, 300);
        for (name, c) in COST_FEATURES.iter().zip(coef) {
            self.out.set(&format!("runtime.cost_ns.{name}"), c);
        }
        self.out.set(
            "runtime.model_residual_share",
            residual_share(&self.cost, &coef),
        );

        let conv = pm(&|a| median(&a.conv_ms));
        let scratch = pm(&|a| a.median(Some(true), |r| r.scratch_ms));
        let update = pm(&|a| a.median(Some(true), |r| r.mean_us));
        self.out.set("baseline.conv_ms", geomean(&conv));
        let overhead: Vec<f64> = scratch.iter().zip(&conv).map(|(s, c)| s / c).collect();
        let speedup: Vec<f64> = conv.iter().zip(&update).map(|(c, u)| c * 1e3 / u).collect();
        self.out.set("baseline.overhead_x", geomean(&overhead));
        self.out.set("baseline.speedup_x", geomean(&speedup));
        for (i, p) in progs.iter().enumerate() {
            self.out
                .set(&format!("{}.from_scratch_ms", p.name()), scratch[i]);
            self.out.set(&format!("{}.update_us", p.name()), update[i]);
            self.out
                .set(&format!("{}.overhead_x", p.name()), overhead[i]);
        }

        if self.compiled {
            self.out.set("vm.load_ms", mean(&self.load_ms));
            self.out.set("vm.steps_per_update", per_upd(steps_u));
            self.out
                .set("vm.steps_scratch", steps_s as f64 / runs.max(1) as f64);
            self.out.set(
                "vm.ns_per_step",
                (commit_ns + scratch_ns) / (steps_u + steps_s).max(1) as f64,
            );
        }

        // Tracing overhead on the main metric (median update latency):
        // traced repetitions against the untraced ones between them.
        let traced = geomean(&pm(&|a| a.median(Some(true), |r| r.p50_us)));
        let untraced = geomean(&pm(&|a| a.median(Some(false), |r| r.p50_us)));
        if traced > 0.0 && untraced > 0.0 {
            self.out
                .set("trace.overhead_pct", (traced / untraced - 1.0) * 100.0);
        }
    }
}
