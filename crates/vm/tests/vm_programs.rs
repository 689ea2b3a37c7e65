//! VM coverage: loops, branches, allocation with initializers and
//! modifiable fields, and the read-trampolining modes agreeing.

use ceal_compiler::pipeline::compile;
use ceal_ir::build::{FuncBuilder, ProgramBuilder as ClBuilder};
use ceal_ir::cl::Program;
use ceal_ir::cl::*;
use ceal_runtime::prelude::*;
use ceal_vm::{load, VmOptions};

/// sum_to(n_m, out): i := read n; acc := 0; while (i) { acc += i; i-- };
/// write out acc.
fn sum_to_program() -> Program {
    let mut pb = ClBuilder::new();
    let fr = pb.declare("sum_to");
    let mut fb = FuncBuilder::new("sum_to", true);
    let n = fb.param(Ty::ModRef);
    let out = fb.param(Ty::ModRef);
    let i = fb.local(Ty::Int);
    let acc = fb.local(Ty::Int);
    fb.emit_cmd(Cmd::Read(i, n));
    fb.emit_cmd(Cmd::Assign(acc, Expr::Atom(Atom::Int(0))));
    let head = fb.reserve();
    let body = fb.reserve();
    let exit = fb.reserve();
    fb.close_goto(head);
    fb.open(head);
    fb.close_cond(Atom::Var(i), body, exit);
    fb.open(body);
    fb.emit_cmd(Cmd::Assign(
        acc,
        Expr::Prim(Prim::Add, vec![Atom::Var(acc), Atom::Var(i)]),
    ));
    fb.emit_cmd(Cmd::Assign(
        i,
        Expr::Prim(Prim::Sub, vec![Atom::Var(i), Atom::Int(1)]),
    ));
    fb.close_goto(head);
    fb.open(exit);
    fb.emit_cmd(Cmd::Write(out, Atom::Var(acc)));
    fb.close_done();
    pb.define(fr, fb.finish());
    pb.finish()
}

fn run_sum(read_trampoline: bool, n: i64) -> (Value, u64) {
    let out = compile(&sum_to_program()).unwrap();
    let mut b = ProgramBuilder::new();
    let loaded = load(
        &out.target,
        &mut b,
        VmOptions {
            read_trampoline,
            ..VmOptions::default()
        },
    )
    .expect("target validates");
    let f = loaded.entry(&out.target, "sum_to").unwrap();
    let mut e = Engine::new(b.build());
    let (nm, om) = (e.meta_modref(), e.meta_modref());
    e.modify(nm, Value::Int(n));
    e.run_core(f, &[Value::ModRef(nm), Value::ModRef(om)]);
    // Update once, too.
    e.modify(nm, Value::Int(n + 1));
    e.propagate();
    (e.deref(om), e.stats().ops.reads_created)
}

#[test]
fn loops_compute_and_both_modes_agree() {
    let (v1, _) = run_sum(true, 10);
    let (v2, _) = run_sum(false, 10);
    // sum 1..=11 after the update.
    assert_eq!(v1, Value::Int(66));
    assert_eq!(v1, v2, "read-trampolining must not change results");
}

/// Allocation with a modifiable field written by a later read chain.
#[test]
fn vm_alloc_and_modref_init() {
    let mut pb = ClBuilder::new();
    let init = pb.declare("init_pair");
    let cont = pb.declare("cont");
    let main = pb.declare("main");
    {
        // init_pair(loc, a): [a, modref]
        let mut fb = FuncBuilder::new("init_pair", true);
        let loc = fb.param(Ty::Ptr);
        let a = fb.param(Ty::Int);
        fb.emit_cmd(Cmd::Store(loc, Atom::Int(0), Atom::Var(a)));
        fb.emit_cmd(Cmd::ModrefInit(loc, Atom::Int(1)));
        fb.close_done();
        pb.define(init, fb.finish());
    }
    {
        // cont(v, out): write out (v * 2)
        let mut fb = FuncBuilder::new("cont", true);
        let v = fb.param(Ty::Int);
        let out = fb.param(Ty::ModRef);
        let t = fb.local(Ty::Int);
        fb.emit_cmd(Cmd::Assign(
            t,
            Expr::Prim(Prim::Mul, vec![Atom::Var(v), Atom::Int(2)]),
        ));
        fb.emit_cmd(Cmd::Write(out, Atom::Var(t)));
        fb.close_done();
        pb.define(cont, fb.finish());
    }
    {
        // main(in, out): p := alloc 2 init_pair(9); m := p[1];
        // write m (read in); x := read m; tail cont(x, out)
        let mut fb = FuncBuilder::new("main", true);
        let inp = fb.param(Ty::ModRef);
        let out = fb.param(Ty::ModRef);
        let p = fb.local(Ty::Ptr);
        let m = fb.local(Ty::ModRef);
        let x = fb.local(Ty::Int);
        let y = fb.local(Ty::Int);
        fb.emit_cmd(Cmd::Alloc {
            dst: p,
            words: Atom::Int(2),
            init,
            args: vec![Atom::Int(9)],
        });
        fb.emit_cmd(Cmd::Assign(m, Expr::Index(p, Atom::Int(1))));
        fb.emit_cmd(Cmd::Read(x, inp));
        fb.emit_cmd(Cmd::Write(m, Atom::Var(x)));
        fb.emit_cmd(Cmd::Read(y, m));
        fb.close_tail(cont, vec![Atom::Var(y), Atom::Var(out)]);
        pb.define(main, fb.finish());
    }
    let p = pb.finish();
    ceal_ir::validate::validate(&p).unwrap();
    let out = compile(&p).unwrap();
    let mut b = ProgramBuilder::new();
    let loaded = load(&out.target, &mut b, VmOptions::default()).expect("target validates");
    let f = loaded.entry(&out.target, "main").unwrap();
    let mut e = Engine::new(b.build());
    let (im, om) = (e.meta_modref(), e.meta_modref());
    e.modify(im, Value::Int(21));
    e.run_core(f, &[Value::ModRef(im), Value::ModRef(om)]);
    assert_eq!(e.deref(om), Value::Int(42));
    e.modify(im, Value::Int(50));
    e.propagate();
    assert_eq!(e.deref(om), Value::Int(100));
}

/// The translation rejects a read whose result is not the first
/// argument of the following tail jump (the §6.2 convention).
#[test]
fn translation_rejects_misplaced_read_result() {
    let mut pb = ClBuilder::new();
    let g = pb.declare("g");
    let f = pb.declare("f");
    {
        let mut fb = FuncBuilder::new("g", true);
        let _a = fb.param(Ty::Int);
        let _b = fb.param(Ty::Int);
        fb.close_done();
        pb.define(g, fb.finish());
    }
    {
        let mut fb = FuncBuilder::new("f", true);
        let m = fb.param(Ty::ModRef);
        let x = fb.local(Ty::Int);
        let l0 = fb.reserve();
        fb.define(
            l0,
            Block::Cmd(
                Cmd::Read(x, m),
                Jump::Tail(g, vec![Atom::Int(1), Atom::Var(x)]),
            ),
        );
        pb.define(f, fb.finish());
    }
    let p = pb.finish();
    assert!(ceal_compiler::translate(&p).is_err());
}
