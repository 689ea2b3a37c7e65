//! # ceal-vm — executing translated CEAL programs
//!
//! The paper compiles translated C with gcc and links it against the
//! run-time system. This crate is the corresponding execution layer of
//! the reproduction (DESIGN.md §2): it registers the target code
//! produced by `ceal-compiler` as functions of the `ceal-runtime`
//! engine and interprets it. Each target function runs straight-line
//! code and ends by handing the engine a `Tail` — exactly the
//! trampolined discipline of §6.2.
//!
//! The §6.3 *read-trampolining* refinement is an execution option:
//! with it enabled (the default, as in `cealc`), tail calls that do not
//! follow a read dispatch directly inside the interpreter; without it,
//! every tail call bounces through the engine trampoline with a fresh
//! closure, like the basic translation.
//!
//! ```
//! use ceal_ir::build::{FuncBuilder, ProgramBuilder as ClBuilder};
//! use ceal_ir::cl::*;
//! use ceal_compiler::pipeline::compile;
//! use ceal_runtime::prelude::*;
//! use ceal_vm::{load, VmOptions};
//!
//! // CL: copy(m, d) { x := read m; write d x; done } — not normal;
//! // cealc normalizes, translates, and the VM runs it self-adjustingly.
//! let mut pb = ClBuilder::new();
//! let fr = pb.declare("copy");
//! let mut fb = FuncBuilder::new("copy", true);
//! let m = fb.param(Ty::ModRef);
//! let d = fb.param(Ty::ModRef);
//! let x = fb.local(Ty::Int);
//! let l0 = fb.reserve();
//! let l1 = fb.reserve();
//! let l2 = fb.reserve_done();
//! fb.define(l0, Block::Cmd(Cmd::Read(x, m), Jump::Goto(l1)));
//! fb.define(l1, Block::Cmd(Cmd::Write(d, Atom::Var(x)), Jump::Goto(l2)));
//! pb.define(fr, fb.finish());
//!
//! let out = compile(&pb.finish()).unwrap();
//! let mut b = ProgramBuilder::new();
//! let loaded = load(&out.target, &mut b, VmOptions::default()).unwrap();
//! let mut e = Engine::new(b.build());
//! let (inp, outp) = (e.meta_modref(), e.meta_modref());
//! e.modify(inp, Value::Int(5));
//! let copy = loaded.entry(&out.target, "copy").unwrap();
//! e.run_core(copy, &[Value::ModRef(inp), Value::ModRef(outp)]);
//! assert_eq!(e.deref(outp), Value::Int(5));
//! e.modify(inp, Value::Int(9));
//! e.propagate();
//! assert_eq!(e.deref(outp), Value::Int(9));
//! ```

#![warn(missing_docs)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ceal_compiler::target::{TFunc, TInstr, TOperand, TProgram};
use ceal_ir::cl::Prim;
use ceal_runtime::error::CealError;
use ceal_runtime::program::{OpaqueFn, ProgramBuilder, Tail};
use ceal_runtime::value::{FuncId, Value};
use ceal_runtime::{Engine, EngineConfig, RegionCx};

/// Execution options (§6.3 refinements).
#[derive(Clone, Copy, Debug)]
pub struct VmOptions {
    /// Read trampolining: tail calls not following a read dispatch
    /// directly instead of bouncing through the engine's trampoline.
    pub read_trampoline: bool,
    /// Count executed VM instructions; read the total back with
    /// [`LoadedProgram::steps`]. The count is deterministic for a fixed
    /// program and input, so `crates/diffcheck` and profiling harnesses
    /// use it as an executor-level work measure alongside the engine's
    /// [`ceal_runtime::Stats`] counters.
    pub count_steps: bool,
}

impl Default for VmOptions {
    fn default() -> Self {
        VmOptions {
            read_trampoline: true,
            count_steps: false,
        }
    }
}

struct Shared {
    funcs: Vec<TFunc>,
    engine_ids: Vec<FuncId>,
    opts: VmOptions,
    steps: AtomicU64,
}

/// Handle returned by [`load`]: maps target functions to engine ids.
#[derive(Clone)]
pub struct LoadedProgram {
    shared: Arc<Shared>,
}

impl LoadedProgram {
    /// The engine [`FuncId`] of target function index `i`.
    pub fn engine_id(&self, i: u32) -> FuncId {
        self.shared.engine_ids[i as usize]
    }

    /// Looks up a function by name in `t` and returns its engine id.
    pub fn entry(&self, t: &TProgram, name: &str) -> Option<FuncId> {
        t.find(name).map(|i| self.engine_id(i))
    }

    /// Like [`LoadedProgram::entry`], but reports a missing name as a
    /// [`CealError::UnknownEntry`] instead of `None` — the right shape
    /// for embedders surfacing user-chosen entry points (`cealc
    /// --run`).
    ///
    /// # Errors
    ///
    /// Returns [`CealError::UnknownEntry`] when `t` defines no function
    /// called `name`.
    pub fn require_entry(&self, t: &TProgram, name: &str) -> Result<FuncId, CealError> {
        self.entry(t, name)
            .ok_or_else(|| CealError::UnknownEntry(name.to_string()))
    }

    /// VM instructions executed so far across every function of this
    /// program. Always zero unless [`VmOptions::count_steps`] is set.
    pub fn steps(&self) -> u64 {
        self.shared.steps.load(Ordering::Relaxed)
    }

    /// Resets the instruction counter to zero (for per-phase measures).
    pub fn reset_steps(&self) {
        self.shared.steps.store(0, Ordering::Relaxed);
    }
}

/// Validates a target program before execution: every register index
/// is within its function's register file, every jump and branch
/// target is within its function's code, and every function reference
/// resolves. The interpreter indexes without bounds recovery, so this
/// is the boundary where a malformed program (a buggy hand-written
/// target, a corrupted serialization) is reported as an error instead
/// of a panic. `ceal-compiler` output is well-formed by construction;
/// [`load`] validates anyway, since the check is one linear scan.
///
/// # Errors
///
/// Returns [`CealError::MalformedProgram`] naming the function,
/// instruction index and fault of the first violation.
pub fn validate_target(t: &TProgram) -> Result<(), CealError> {
    let nfuncs = t.funcs.len();
    for f in &t.funcs {
        let err = |pc: usize, what: String| {
            Err(CealError::MalformedProgram(format!(
                "function `{}`, instruction {pc}: {what}",
                f.name
            )))
        };
        let check_reg = |pc: usize, r: u16, role: &str| {
            if r >= f.nregs {
                err(
                    pc,
                    format!("{role} register r{r} out of range (nregs {})", f.nregs),
                )
            } else {
                Ok(())
            }
        };
        let check_fun = |pc: usize, g: u32, role: &str| {
            if g as usize >= nfuncs {
                err(
                    pc,
                    format!("{role} function index {g} out of range ({nfuncs} functions)"),
                )
            } else {
                Ok(())
            }
        };
        let check_pc = |pc: usize, target: u32, role: &str| {
            if target as usize >= f.code.len() {
                err(
                    pc,
                    format!(
                        "{role} target {target} out of range ({} instructions)",
                        f.code.len()
                    ),
                )
            } else {
                Ok(())
            }
        };
        let check_op = |pc: usize, o: &TOperand, role: &str| match o {
            TOperand::Reg(r) => check_reg(pc, *r, role),
            TOperand::Fun(g) => check_fun(pc, *g, role),
            TOperand::Imm(_) => Ok(()),
        };
        let check_ops = |pc: usize, os: &[TOperand], role: &str| {
            os.iter().try_for_each(|o| check_op(pc, o, role))
        };
        for (i, &r) in f.params.iter().enumerate() {
            check_reg(usize::MAX, r, "param").map_err(|_| {
                CealError::MalformedProgram(format!(
                    "function `{}`: param {i} register r{r} out of range (nregs {})",
                    f.name, f.nregs
                ))
            })?;
        }
        if f.code.is_empty() {
            return Err(CealError::MalformedProgram(format!(
                "function `{}` has no instructions (execution starts at index 0)",
                f.name
            )));
        }
        for (pc, instr) in f.code.iter().enumerate() {
            match instr {
                TInstr::Move { dst, src } => {
                    check_reg(pc, *dst, "destination")?;
                    check_op(pc, src, "source")?;
                }
                TInstr::Prim { dst, a, b, .. } => {
                    check_reg(pc, *dst, "destination")?;
                    check_op(pc, a, "operand")?;
                    if let Some(b) = b {
                        check_op(pc, b, "operand")?;
                    }
                }
                TInstr::Load { dst, ptr, off } => {
                    check_reg(pc, *dst, "destination")?;
                    check_reg(pc, *ptr, "pointer")?;
                    check_op(pc, off, "offset")?;
                }
                TInstr::Store { ptr, off, val } => {
                    check_reg(pc, *ptr, "pointer")?;
                    check_op(pc, off, "offset")?;
                    check_op(pc, val, "value")?;
                }
                TInstr::Modref { dst, key, .. } => {
                    check_reg(pc, *dst, "destination")?;
                    check_ops(pc, key, "key")?;
                }
                TInstr::ModrefInit { ptr, off } => {
                    check_reg(pc, *ptr, "pointer")?;
                    check_op(pc, off, "offset")?;
                }
                TInstr::Write { m, val } => {
                    check_reg(pc, *m, "modifiable")?;
                    check_op(pc, val, "value")?;
                }
                TInstr::Alloc {
                    dst,
                    words,
                    init,
                    args,
                    ..
                } => {
                    check_reg(pc, *dst, "destination")?;
                    check_op(pc, words, "size")?;
                    check_fun(pc, *init, "initializer")?;
                    check_ops(pc, args, "argument")?;
                }
                TInstr::Call { f: g, args } => {
                    check_fun(pc, *g, "callee")?;
                    check_ops(pc, args, "argument")?;
                }
                TInstr::Jump(target) => check_pc(pc, *target, "jump")?,
                TInstr::Branch { c, t, f: fe } => {
                    check_op(pc, c, "condition")?;
                    check_pc(pc, *t, "branch")?;
                    check_pc(pc, *fe, "branch")?;
                }
                TInstr::Tail { f: g, args } => {
                    check_fun(pc, *g, "callee")?;
                    check_ops(pc, args, "argument")?;
                }
                TInstr::ReadTail { m, f: g, args, .. } => {
                    check_reg(pc, *m, "modifiable")?;
                    check_fun(pc, *g, "continuation")?;
                    check_ops(pc, args, "argument")?;
                }
                TInstr::Done => {}
            }
        }
    }
    Ok(())
}

/// Registers every function of `t` with the engine program builder.
///
/// # Errors
///
/// Returns [`CealError::MalformedProgram`] when `t` fails
/// [`validate_target`]; nothing is registered with `b` in that case.
pub fn load(
    t: &TProgram,
    b: &mut ProgramBuilder,
    opts: VmOptions,
) -> Result<LoadedProgram, CealError> {
    validate_target(t)?;
    b.set_site_table(t.sites.clone());
    // Declare every function first so the id table is complete (and
    // plain, shareable data) before any `VmFn` captures the table.
    let engine_ids: Vec<FuncId> = t.funcs.iter().map(|f| b.declare(&f.name)).collect();
    let shared = Arc::new(Shared {
        funcs: t.funcs.clone(),
        engine_ids,
        opts,
        steps: AtomicU64::new(0),
    });
    for (i, &id) in shared.engine_ids.iter().enumerate() {
        b.define_opaque(
            id,
            Box::new(VmFn {
                shared: Arc::clone(&shared),
                idx: i,
            }),
        );
    }
    Ok(LoadedProgram { shared })
}

/// One-call embedding: validates and loads `t`, builds an [`Engine`]
/// with `config`, lets `setup` construct the mutator inputs (its
/// return value becomes the entry function's arguments), runs `entry`
/// from scratch, and returns the engine ready for
/// `modify`/`batch`/`propagate` rounds.
///
/// The propagation policy rides along in `config`: pass
/// `EngineConfig::default().policy(PropagationPolicy::Demand)` and the
/// returned engine defers edits, cleaning on `Engine::observe` instead
/// of on every commit (DESIGN.md §14). The VM itself is
/// policy-agnostic — nothing here inspects the policy.
///
/// # Errors
///
/// Returns [`CealError::MalformedProgram`] when `t` fails
/// [`validate_target`], [`CealError::UnknownEntry`] when `entry` is
/// not defined, and [`CealError::InvalidConfig`] when `config` fails
/// validation. All three are checked before any core code runs.
pub fn run(
    t: &TProgram,
    entry: &str,
    opts: VmOptions,
    config: EngineConfig,
    setup: impl FnOnce(&mut Engine) -> Vec<Value>,
) -> Result<Engine, CealError> {
    let mut b = ProgramBuilder::new();
    let loaded = load(t, &mut b, opts)?;
    let f = loaded.require_entry(t, entry)?;
    let mut e = Engine::with_config(b.build(), config)?;
    let args = setup(&mut e);
    e.run_core(f, &args);
    Ok(e)
}

struct VmFn {
    shared: Arc<Shared>,
    idx: usize,
}

#[inline]
fn truthy(v: Value) -> bool {
    v.is_true()
}

fn prim_eval(op: Prim, a: Value, b: Option<Value>) -> Value {
    use Value::{Float, Int};
    let bi = |x: bool| Int(x as i64);
    match (op, a, b) {
        (Prim::Not, v, None) => bi(!truthy(v)),
        (Prim::Neg, Int(x), None) => Int(-x),
        (Prim::Neg, Float(x), None) => Float(-x),
        (Prim::Add, Int(x), Some(Int(y))) => Int(x.wrapping_add(y)),
        (Prim::Sub, Int(x), Some(Int(y))) => Int(x.wrapping_sub(y)),
        (Prim::Mul, Int(x), Some(Int(y))) => Int(x.wrapping_mul(y)),
        (Prim::Div, Int(x), Some(Int(y))) if y != 0 => Int(x.wrapping_div(y)),
        (Prim::Mod, Int(x), Some(Int(y))) if y != 0 => Int(x.wrapping_rem(y)),
        (Prim::Add, Float(x), Some(Float(y))) => Float(x + y),
        (Prim::Sub, Float(x), Some(Float(y))) => Float(x - y),
        (Prim::Mul, Float(x), Some(Float(y))) => Float(x * y),
        (Prim::Div, Float(x), Some(Float(y))) => Float(x / y),
        (Prim::Eq, x, Some(y)) => bi(x == y),
        (Prim::Ne, x, Some(y)) => bi(x != y),
        (Prim::Lt, Int(x), Some(Int(y))) => bi(x < y),
        (Prim::Le, Int(x), Some(Int(y))) => bi(x <= y),
        (Prim::Gt, Int(x), Some(Int(y))) => bi(x > y),
        (Prim::Ge, Int(x), Some(Int(y))) => bi(x >= y),
        (Prim::Lt, Float(x), Some(Float(y))) => bi(x < y),
        (Prim::Le, Float(x), Some(Float(y))) => bi(x <= y),
        (Prim::Gt, Float(x), Some(Float(y))) => bi(x > y),
        (Prim::Ge, Float(x), Some(Float(y))) => bi(x >= y),
        (op, a, b) => panic!("vm: bad primitive {op:?} on {a:?}, {b:?} (type-incorrect core)"),
    }
}

impl VmFn {
    #[inline]
    fn op(&self, regs: &[Value], o: &TOperand) -> Value {
        match o {
            TOperand::Reg(r) => regs[*r as usize],
            TOperand::Imm(v) => *v,
            TOperand::Fun(f) => Value::Func(self.shared.engine_ids[*f as usize]),
        }
    }

    fn ops(&self, regs: &[Value], os: &[TOperand]) -> Vec<Value> {
        os.iter().map(|o| self.op(regs, o)).collect()
    }

    /// Folds the instructions executed by one `invoke` into the shared
    /// counter. A local tally flushed at each exit keeps the per
    /// instruction cost at one register increment.
    #[inline]
    fn flush_steps(&self, n: u64) {
        if self.shared.opts.count_steps {
            self.shared.steps.fetch_add(n, Ordering::Relaxed);
        }
    }
}

impl OpaqueFn for VmFn {
    fn name(&self) -> &str {
        &self.shared.funcs[self.idx].name
    }

    fn invoke(&self, e: &mut RegionCx<'_>, args: &[Value]) -> Tail {
        let mut fidx = self.idx;
        let mut argbuf: Vec<Value> = args.to_vec();
        let mut steps = 0u64;
        'function: loop {
            let f = &self.shared.funcs[fidx];
            let mut regs = vec![Value::Nil; f.nregs as usize];
            for (i, &r) in f.params.iter().enumerate() {
                regs[r as usize] = argbuf.get(i).copied().unwrap_or(Value::Nil);
            }
            let mut pc = 0usize;
            loop {
                steps += 1;
                match &f.code[pc] {
                    TInstr::Move { dst, src } => {
                        regs[*dst as usize] = self.op(&regs, src);
                        pc += 1;
                    }
                    TInstr::Prim { dst, op, a, b } => {
                        let av = self.op(&regs, a);
                        let bv = b.as_ref().map(|x| self.op(&regs, x));
                        regs[*dst as usize] = prim_eval(*op, av, bv);
                        pc += 1;
                    }
                    TInstr::Load { dst, ptr, off } => {
                        let p = regs[*ptr as usize].ptr();
                        let o = self.op(&regs, off).int();
                        regs[*dst as usize] = e.load(p, o as usize);
                        pc += 1;
                    }
                    TInstr::Store { ptr, off, val } => {
                        let p = regs[*ptr as usize].ptr();
                        let o = self.op(&regs, off).int();
                        let v = self.op(&regs, val);
                        e.store(p, o as usize, v);
                        pc += 1;
                    }
                    TInstr::Modref { dst, key, site } => {
                        let k = self.ops(&regs, key);
                        regs[*dst as usize] = Value::ModRef(e.modref_keyed_at(*site, &k));
                        pc += 1;
                    }
                    TInstr::ModrefInit { ptr, off } => {
                        let pv = regs[*ptr as usize].ptr();
                        let o = self.op(&regs, off).int();
                        e.modref_init(pv, o as usize);
                        pc += 1;
                    }
                    TInstr::Write { m, val } => {
                        let v = self.op(&regs, val);
                        e.write(regs[*m as usize].modref(), v);
                        pc += 1;
                    }
                    TInstr::Alloc {
                        dst,
                        words,
                        init,
                        args,
                        site,
                    } => {
                        let w = self.op(&regs, words).int();
                        let a = self.ops(&regs, args);
                        let init_id = self.shared.engine_ids[*init as usize];
                        let loc = e.alloc_at(*site, w as usize, init_id, &a);
                        regs[*dst as usize] = Value::Ptr(loc);
                        pc += 1;
                    }
                    TInstr::Call { f: g, args } => {
                        let a = self.ops(&regs, args);
                        let gid = self.shared.engine_ids[*g as usize];
                        e.call(gid, &a);
                        pc += 1;
                    }
                    TInstr::Jump(t) => pc = *t as usize,
                    TInstr::Branch { c, t, f: fe } => {
                        pc = if truthy(self.op(&regs, c)) {
                            *t as usize
                        } else {
                            *fe as usize
                        };
                    }
                    TInstr::Tail { f: g, args } => {
                        let a = self.ops(&regs, args);
                        if self.shared.opts.read_trampoline {
                            // §6.3: a direct transfer, no engine bounce.
                            fidx = *g as usize;
                            argbuf = a;
                            continue 'function;
                        }
                        let gid = self.shared.engine_ids[*g as usize];
                        self.flush_steps(steps);
                        return Tail::Call(gid, a.into());
                    }
                    TInstr::ReadTail {
                        m,
                        f: g,
                        args,
                        site,
                    } => {
                        let a = self.ops(&regs, args);
                        let gid = self.shared.engine_ids[*g as usize];
                        self.flush_steps(steps);
                        return Tail::Read(regs[*m as usize].modref(), gid, a.into(), *site);
                    }
                    TInstr::Done => {
                        self.flush_steps(steps);
                        return Tail::Done;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceal_compiler::pipeline::compile;
    use ceal_ir::build::{FuncBuilder, ProgramBuilder as ClBuilder};
    use ceal_ir::cl::*;

    /// Build, compile and load the "add two modifiables" program:
    /// add(a, b, d): x := read a; y := read b; write d (x+y).
    fn compile_add(read_trampoline: bool) -> (Engine, FuncId, LoadedProgram) {
        let mut pb = ClBuilder::new();
        let fr = pb.declare("add");
        let mut fb = FuncBuilder::new("add", true);
        let a = fb.param(Ty::ModRef);
        let b = fb.param(Ty::ModRef);
        let d = fb.param(Ty::ModRef);
        let x = fb.local(Ty::Int);
        let y = fb.local(Ty::Int);
        let z = fb.local(Ty::Int);
        let l0 = fb.reserve();
        let l1 = fb.reserve();
        let l2 = fb.reserve();
        let l3 = fb.reserve();
        let l4 = fb.reserve_done();
        fb.define(l0, Block::Cmd(Cmd::Read(x, a), Jump::Goto(l1)));
        fb.define(l1, Block::Cmd(Cmd::Read(y, b), Jump::Goto(l2)));
        fb.define(
            l2,
            Block::Cmd(
                Cmd::Assign(z, Expr::Prim(Prim::Add, vec![Atom::Var(x), Atom::Var(y)])),
                Jump::Goto(l3),
            ),
        );
        fb.define(l3, Block::Cmd(Cmd::Write(d, Atom::Var(z)), Jump::Goto(l4)));
        pb.define(fr, fb.finish());
        let out = compile(&pb.finish()).unwrap();
        let mut b = ceal_runtime::ProgramBuilder::new();
        let loaded = load(
            &out.target,
            &mut b,
            VmOptions {
                read_trampoline,
                count_steps: true,
            },
        )
        .expect("compiler output is well-formed");
        let entry = loaded.entry(&out.target, "add").unwrap();
        (Engine::new(b.build()), entry, loaded)
    }

    fn run_add_session(read_trampoline: bool) {
        let (mut e, add, loaded) = compile_add(read_trampoline);
        let a = e.meta_modref();
        let b = e.meta_modref();
        let d = e.meta_modref();
        e.modify(a, Value::Int(3));
        e.modify(b, Value::Int(4));
        e.run_core(add, &[Value::ModRef(a), Value::ModRef(b), Value::ModRef(d)]);
        assert_eq!(e.deref(d), Value::Int(7));
        // Change each input, propagate, check.
        e.modify(a, Value::Int(10));
        e.propagate();
        assert_eq!(e.deref(d), Value::Int(14));
        e.modify(b, Value::Int(-4));
        e.propagate();
        assert_eq!(e.deref(d), Value::Int(6));
        e.check_invariants();
        assert!(
            loaded.steps() > 0,
            "count_steps on but no instructions counted"
        );
    }

    #[test]
    fn add_with_read_trampolining() {
        run_add_session(true);
    }

    #[test]
    fn add_with_basic_trampolining() {
        run_add_session(false);
    }

    #[test]
    fn changing_second_input_reexecutes_less() {
        let (mut e, add, _loaded) = compile_add(true);
        let a = e.meta_modref();
        let b = e.meta_modref();
        let d = e.meta_modref();
        e.modify(a, Value::Int(1));
        e.modify(b, Value::Int(2));
        e.run_core(add, &[Value::ModRef(a), Value::ModRef(b), Value::ModRef(d)]);
        let base = e.stats().ops.reads_reexecuted;
        e.modify(b, Value::Int(5));
        e.propagate();
        assert_eq!(e.deref(d), Value::Int(6));
        // Only the read of b re-executes — the paper's point about
        // normalization approximating precise dependencies.
        assert_eq!(e.stats().ops.reads_reexecuted - base, 1);
    }

    /// The instruction counter is deterministic: two identical sessions
    /// execute the same number of VM instructions, and resetting zeroes
    /// the count.
    #[test]
    fn step_counts_are_deterministic() {
        let run = || {
            let (mut e, add, loaded) = compile_add(true);
            let a = e.meta_modref();
            let b = e.meta_modref();
            let d = e.meta_modref();
            e.modify(a, Value::Int(3));
            e.modify(b, Value::Int(4));
            e.run_core(add, &[Value::ModRef(a), Value::ModRef(b), Value::ModRef(d)]);
            e.modify(a, Value::Int(9));
            e.propagate();
            assert_eq!(e.deref(d), Value::Int(13));
            loaded.steps()
        };
        let (s1, s2) = (run(), run());
        assert!(s1 > 0);
        assert_eq!(s1, s2, "instruction counts diverged across identical runs");

        let (mut e, add, loaded) = compile_add(true);
        let a = e.meta_modref();
        let b = e.meta_modref();
        let d = e.meta_modref();
        e.modify(a, Value::Int(1));
        e.modify(b, Value::Int(1));
        e.run_core(add, &[Value::ModRef(a), Value::ModRef(b), Value::ModRef(d)]);
        assert!(loaded.steps() > 0);
        loaded.reset_steps();
        assert_eq!(loaded.steps(), 0);
    }

    fn compile_copy() -> ceal_compiler::pipeline::CompileOutput {
        let mut pb = ClBuilder::new();
        let fr = pb.declare("copy");
        let mut fb = FuncBuilder::new("copy", true);
        let m = fb.param(Ty::ModRef);
        let d = fb.param(Ty::ModRef);
        let x = fb.local(Ty::Int);
        let l0 = fb.reserve();
        let l1 = fb.reserve();
        let l2 = fb.reserve_done();
        fb.define(l0, Block::Cmd(Cmd::Read(x, m), Jump::Goto(l1)));
        fb.define(l1, Block::Cmd(Cmd::Write(d, Atom::Var(x)), Jump::Goto(l2)));
        pb.define(fr, fb.finish());
        compile(&pb.finish()).unwrap()
    }

    #[test]
    fn load_rejects_malformed_programs() {
        use ceal_compiler::target::TInstr;
        use ceal_runtime::CealError;

        let out = compile_copy();

        // Out-of-range register.
        let mut bad = out.target.clone();
        bad.funcs[0].code[0] = TInstr::Move {
            dst: bad.funcs[0].nregs, // one past the register file
            src: ceal_compiler::target::TOperand::Imm(Value::Int(0)),
        };
        let mut b = ceal_runtime::ProgramBuilder::new();
        match load(&bad, &mut b, VmOptions::default()) {
            Err(CealError::MalformedProgram(d)) => assert!(d.contains("register")),
            Ok(_) => panic!("expected MalformedProgram, got Ok"),
            Err(other) => panic!("expected MalformedProgram, got {other}"),
        }

        // Out-of-range jump target.
        let mut bad = out.target.clone();
        let end = bad.funcs[0].code.len() as u32;
        bad.funcs[0].code[0] = TInstr::Jump(end);
        let mut b = ceal_runtime::ProgramBuilder::new();
        match load(&bad, &mut b, VmOptions::default()) {
            Err(CealError::MalformedProgram(d)) => assert!(d.contains("jump")),
            Ok(_) => panic!("expected MalformedProgram, got Ok"),
            Err(other) => panic!("expected MalformedProgram, got {other}"),
        }

        // Out-of-range function reference.
        let mut bad = out.target.clone();
        let nf = bad.funcs.len() as u32;
        bad.funcs[0].code[0] = TInstr::Tail {
            f: nf,
            args: vec![],
        };
        let mut b = ceal_runtime::ProgramBuilder::new();
        match load(&bad, &mut b, VmOptions::default()) {
            Err(CealError::MalformedProgram(d)) => assert!(d.contains("function index")),
            Ok(_) => panic!("expected MalformedProgram, got Ok"),
            Err(other) => panic!("expected MalformedProgram, got {other}"),
        }
    }

    #[test]
    fn run_reports_unknown_entry_and_runs_known_ones() {
        use ceal_runtime::CealError;
        use ceal_runtime::EngineConfig;

        let out = compile_copy();
        let err = run(
            &out.target,
            "no_such_entry",
            VmOptions::default(),
            EngineConfig::default(),
            |_| vec![],
        );
        assert_eq!(
            err.err(),
            Some(CealError::UnknownEntry("no_such_entry".into()))
        );

        let mut handles = None;
        let mut e = run(
            &out.target,
            "copy",
            VmOptions::default(),
            EngineConfig::default(),
            |e| {
                let (inp, outp) = (e.meta_modref(), e.meta_modref());
                e.modify(inp, Value::Int(5));
                handles = Some((inp, outp));
                vec![Value::ModRef(inp), Value::ModRef(outp)]
            },
        )
        .unwrap();
        let (inp, outp) = handles.unwrap();
        assert_eq!(e.deref(outp), Value::Int(5));
        e.modify(inp, Value::Int(9));
        e.propagate();
        assert_eq!(e.deref(outp), Value::Int(9));
    }
}
