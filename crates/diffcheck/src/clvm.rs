//! Direct execution of *normalized CL* on the self-adjusting engine.
//!
//! This is the third executor of the oracle, sitting between the
//! conventional CL interpreter (`ceal_ir::interp`) and the target-code
//! VM (`ceal_vm`): it runs the normalized CL program on the engine
//! *without* going through target-code translation. A disagreement
//! between this executor and the VM isolates a bug in `translate`; a
//! disagreement with the CL interpreter isolates one in `normalize`
//! (or the runtime itself).
//!
//! The implementation mirrors `ceal_vm::VmFn` command for command,
//! including the §6.3 read-trampolining refinement (tail calls that do
//! not follow a read transfer directly inside the interpreter loop).

use std::sync::Arc;

use ceal_ir::cl::{Atom, Block, Cmd, Expr, Func, FuncRef, Jump, Prim, Program, Var};
use ceal_ir::sites::{SiteAssignment, SiteKind as IrSiteKind};
use ceal_runtime::program::{OpaqueFn, ProgramBuilder, SiteKind, SiteTable, Tail};
use ceal_runtime::value::{FuncId, SiteId, Value};
use ceal_runtime::RegionCx;

struct Shared {
    funcs: Vec<Func>,
    engine_ids: Vec<FuncId>,
    /// Program points over the same normalized CL the VM compiles, so
    /// both executors attribute events to identical site ids.
    sites: SiteAssignment,
}

/// Handle mapping CL functions to engine ids.
#[derive(Clone)]
pub struct ClLoaded {
    shared: Arc<Shared>,
}

impl ClLoaded {
    /// The engine [`FuncId`] of CL function `f`.
    pub fn engine_id(&self, f: FuncRef) -> FuncId {
        self.shared.engine_ids[f.0 as usize]
    }

    /// Looks up a function by name.
    pub fn entry(&self, name: &str) -> Option<FuncId> {
        self.shared
            .funcs
            .iter()
            .position(|f| f.name == name)
            .map(|i| self.shared.engine_ids[i])
    }
}

/// Registers every function of the (normalized) CL program `p` with the
/// engine program builder.
pub fn load_cl(p: &Program, b: &mut ProgramBuilder) -> ClLoaded {
    let assign = SiteAssignment::assign(p);
    let mut table = SiteTable::new();
    for s in &assign.sites {
        let kind = match s.kind {
            IrSiteKind::Read => SiteKind::Read,
            IrSiteKind::Alloc => SiteKind::Alloc,
            IrSiteKind::Modref => SiteKind::Modref,
        };
        table.push(s.name.clone(), kind);
    }
    b.set_site_table(table);
    // Declare first so the id table is plain shareable data before any
    // `ClFn` captures it.
    let engine_ids: Vec<FuncId> = p.funcs.iter().map(|f| b.declare(&f.name)).collect();
    let shared = Arc::new(Shared {
        funcs: p.funcs.clone(),
        engine_ids,
        sites: assign,
    });
    for (i, &id) in shared.engine_ids.iter().enumerate() {
        b.define_opaque(
            id,
            Box::new(ClFn {
                shared: Arc::clone(&shared),
                idx: i,
            }),
        );
    }
    ClLoaded { shared }
}

struct ClFn {
    shared: Arc<Shared>,
    idx: usize,
}

fn prim_eval(op: Prim, vals: &[Value]) -> Value {
    use Value::{Float, Int};
    let bi = |x: bool| Int(x as i64);
    match (op, vals) {
        (Prim::Not, [v]) => bi(!v.is_true()),
        (Prim::Neg, [Int(x)]) => Int(-x),
        (Prim::Neg, [Float(x)]) => Float(-x),
        (Prim::Add, [Int(x), Int(y)]) => Int(x.wrapping_add(*y)),
        (Prim::Sub, [Int(x), Int(y)]) => Int(x.wrapping_sub(*y)),
        (Prim::Mul, [Int(x), Int(y)]) => Int(x.wrapping_mul(*y)),
        (Prim::Div, [Int(x), Int(y)]) if *y != 0 => Int(x.wrapping_div(*y)),
        (Prim::Mod, [Int(x), Int(y)]) if *y != 0 => Int(x.wrapping_rem(*y)),
        (Prim::Add, [Float(x), Float(y)]) => Float(x + y),
        (Prim::Sub, [Float(x), Float(y)]) => Float(x - y),
        (Prim::Mul, [Float(x), Float(y)]) => Float(x * y),
        (Prim::Div, [Float(x), Float(y)]) => Float(x / y),
        (Prim::Eq, [x, y]) => bi(x == y),
        (Prim::Ne, [x, y]) => bi(x != y),
        (Prim::Lt, [Int(x), Int(y)]) => bi(x < y),
        (Prim::Le, [Int(x), Int(y)]) => bi(x <= y),
        (Prim::Gt, [Int(x), Int(y)]) => bi(x > y),
        (Prim::Ge, [Int(x), Int(y)]) => bi(x >= y),
        (Prim::Lt, [Float(x), Float(y)]) => bi(x < y),
        (Prim::Le, [Float(x), Float(y)]) => bi(x <= y),
        (Prim::Gt, [Float(x), Float(y)]) => bi(x > y),
        (Prim::Ge, [Float(x), Float(y)]) => bi(x >= y),
        (op, vals) => panic!("clvm: bad primitive {op:?} on {vals:?} (type-incorrect core)"),
    }
}

impl ClFn {
    fn fid(&self, f: FuncRef) -> FuncId {
        self.shared.engine_ids[f.0 as usize]
    }

    fn atom(&self, env: &[Value], a: &Atom) -> Value {
        match a {
            Atom::Var(Var(v)) => env[*v as usize],
            Atom::Int(i) => Value::Int(*i),
            Atom::Float(f) => Value::Float(*f),
            Atom::Nil => Value::Nil,
            Atom::Func(f) => Value::Func(self.fid(*f)),
        }
    }

    fn atoms(&self, env: &[Value], atoms: &[Atom]) -> Vec<Value> {
        atoms.iter().map(|a| self.atom(env, a)).collect()
    }

    fn site_at(&self, fidx: usize, label: u32) -> SiteId {
        self.shared
            .sites
            .site_at(fidx as u32, label)
            .map_or(SiteId::NONE, SiteId)
    }

    fn exec(&self, e: &mut RegionCx<'_>, env: &mut [Value], c: &Cmd, site: SiteId) {
        match c {
            Cmd::Nop => {}
            Cmd::Assign(d, expr) => {
                env[d.0 as usize] = match expr {
                    Expr::Atom(a) => self.atom(env, a),
                    Expr::Index(x, i) => {
                        let p = env[x.0 as usize].ptr();
                        let idx = self.atom(env, i).int();
                        e.load(p, idx as usize)
                    }
                    Expr::Prim(op, xs) => prim_eval(*op, &self.atoms(env, xs)),
                };
            }
            Cmd::Store(x, i, v) => {
                let p = env[x.0 as usize].ptr();
                let idx = self.atom(env, i).int();
                let val = self.atom(env, v);
                e.store(p, idx as usize, val);
            }
            Cmd::Modref(d) => {
                env[d.0 as usize] = Value::ModRef(e.modref_keyed_at(site, &[]));
            }
            Cmd::ModrefKeyed(d, key) => {
                let k = self.atoms(env, key);
                env[d.0 as usize] = Value::ModRef(e.modref_keyed_at(site, &k));
            }
            Cmd::ModrefInit(x, i) => {
                let p = env[x.0 as usize].ptr();
                let idx = self.atom(env, i).int();
                e.modref_init(p, idx as usize);
            }
            Cmd::Read(..) => {
                panic!("clvm: Read outside normal-form position (program not normalized?)")
            }
            Cmd::Write(m, a) => {
                let v = self.atom(env, a);
                e.write(env[m.0 as usize].modref(), v);
            }
            Cmd::Alloc {
                dst,
                words,
                init,
                args,
            } => {
                let w = self.atom(env, words).int();
                let a = self.atoms(env, args);
                let loc = e.alloc_at(site, w as usize, self.fid(*init), &a);
                env[dst.0 as usize] = Value::Ptr(loc);
            }
            Cmd::Call(f, args) => {
                let a = self.atoms(env, args);
                e.call(self.fid(*f), &a);
            }
        }
    }
}

impl OpaqueFn for ClFn {
    fn name(&self) -> &str {
        &self.shared.funcs[self.idx].name
    }

    fn invoke(&self, e: &mut RegionCx<'_>, args: &[Value]) -> Tail {
        let mut fidx = self.idx;
        let mut argbuf: Vec<Value> = args.to_vec();
        'function: loop {
            let f = &self.shared.funcs[fidx];
            let mut env = vec![Value::Nil; f.var_count()];
            for ((_, v), a) in f.params.iter().zip(&argbuf) {
                env[v.0 as usize] = *a;
            }
            let mut l = f.entry;
            loop {
                let jump = match f.block(l) {
                    Block::Done => return Tail::Done,
                    Block::Cond(a, j1, j2) => {
                        if self.atom(&env, a).is_true() {
                            j1
                        } else {
                            j2
                        }
                    }
                    Block::Cmd(Cmd::Read(x, m), Jump::Tail(g, targs)) => {
                        // Normal form (§5): the read variable is the
                        // first argument of the continuation.
                        assert_eq!(
                            targs.first(),
                            Some(&Atom::Var(*x)),
                            "clvm: read continuation must take the read value first"
                        );
                        let rest = self.atoms(&env, &targs[1..]);
                        return Tail::Read(
                            env[m.0 as usize].modref(),
                            self.fid(*g),
                            rest.into(),
                            self.site_at(fidx, l.0),
                        );
                    }
                    Block::Cmd(c, j) => {
                        self.exec(e, &mut env, c, self.site_at(fidx, l.0));
                        j
                    }
                };
                match jump {
                    Jump::Goto(l2) => l = *l2,
                    Jump::Tail(g, targs) => {
                        // §6.3 read trampolining: transfer directly.
                        let vals = self.atoms(&env, targs);
                        fidx = g.0 as usize;
                        argbuf = vals;
                        continue 'function;
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
    use ceal_lang::frontend;
    use ceal_runtime::{Engine, ModRef};

    fn session(src: &str) -> (Engine, FuncId, Vec<ModRef>) {
        let (cl, _) = frontend(src).expect("frontend");
        let out = compile(&cl).expect("compile");
        let mut b = ProgramBuilder::new();
        let loaded = load_cl(&out.normalized, &mut b);
        let entry = loaded.entry("main").expect("main");
        let e = Engine::new(b.build());
        (e, entry, vec![])
    }

    #[test]
    fn runs_and_propagates_simple_program() {
        let src = "
            ceal main(modref_t* a, modref_t* b, modref_t* out) {
                int x = (int) read(a);
                int y = (int) read(b);
                write(out, x * 10 + y);
            }
        ";
        let (mut e, entry, _) = session(src);
        let a = e.meta_modref();
        let b = e.meta_modref();
        let out = e.meta_modref();
        e.modify(a, Value::Int(4));
        e.modify(b, Value::Int(2));
        e.run_core(
            entry,
            &[Value::ModRef(a), Value::ModRef(b), Value::ModRef(out)],
        );
        assert_eq!(e.deref(out), Value::Int(42));
        e.modify(b, Value::Int(7));
        e.propagate();
        assert_eq!(e.deref(out), Value::Int(47));
        e.check_invariants();
    }
}
