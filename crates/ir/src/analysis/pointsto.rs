//! Flow-insensitive, field-insensitive Andersen-style points-to
//! analysis.
//!
//! The paper's Algorithm 1 deliberately skips pointer analysis and
//! leans on runtime call stacks instead (§6.1). That blind spot makes
//! any attack whose corrupted value is stored to memory and reloaded
//! elsewhere invisible to the static vulnerability analyzer. This
//! module closes the gap with the cheapest analysis that is still
//! sound for the IR's memory model:
//!
//! * **Abstract locations** ([`AbsLoc`]) name every allocation site
//!   statically: one per global, one per `alloca` instruction, one per
//!   `malloc` instruction, and one per function (for function-pointer
//!   constants). The VM never reuses concrete addresses across
//!   allocation sites (globals are laid out once, heap and stack
//!   cursors only grow), so two accesses with equal concrete addresses
//!   always share an abstract location — the over-approximation
//!   property the soundness tests check.
//! * **Field-insensitive**: a location is a single cell; `gep` is a
//!   copy of its base pointer. Distinct fields of one object therefore
//!   alias, which is conservative.
//! * **Flow-insensitive**: one points-to set per SSA value for the
//!   whole program. SSA already gives def-use precision within a
//!   function; the imprecision is confined to memory cells, which is
//!   what the vulnerability analyzer treats conservatively anyway.
//!
//! Constraints are solved with a standard worklist: base constraints
//! seed the sets, copy edges propagate them, and `load`/`store`/
//! indirect-call constraints add edges on the fly as the sets of their
//! pointer operands grow. Indirect calls are resolved on the fly from
//! the `Func` locations flowing into the callee operand, which is also
//! what [`super::CallGraph`] consumes to refine its arity-based
//! fallback.

use crate::ids::{FuncId, GlobalId, InstId, InstRef};
use crate::inst::{Callee, Inst, Operand};
use crate::module::Module;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// An abstract memory location: one per static allocation site.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum AbsLoc {
    /// A global variable.
    Global(GlobalId),
    /// The stack object allocated by an `alloca` instruction (all
    /// dynamic instances collapse into one location).
    Alloca(InstRef),
    /// The heap object allocated by a `malloc` instruction (all
    /// dynamic instances collapse into one location).
    Heap(InstRef),
    /// A function, as the target of a function-pointer constant.
    Func(FuncId),
}

impl std::fmt::Display for AbsLoc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AbsLoc::Global(g) => write!(f, "{g}"),
            AbsLoc::Alloca(r) => write!(f, "alloca:{r}"),
            AbsLoc::Heap(r) => write!(f, "heap:{r}"),
            AbsLoc::Func(id) => write!(f, "fn:{id}"),
        }
    }
}

/// A pointer variable in the constraint system.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum Node {
    /// The SSA result of an instruction.
    Inst(InstRef),
    /// The `n`-th parameter of a function.
    Param(FuncId, u32),
    /// The return value of a function.
    Ret(FuncId),
    /// The (single, field-insensitive) cell of an abstract location.
    Cell(AbsLoc),
}

/// Solver statistics, exposed so the pipeline can report the cost of
/// memory-awareness next to its detection gain.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PointsToStats {
    /// Pointer variables in the constraint graph.
    pub nodes: usize,
    /// Base + copy + complex constraints generated from the IR.
    pub constraints: usize,
    /// Worklist items processed until the fixpoint.
    pub iterations: u64,
}

/// A deferred `load`/`store`/call constraint attached to a pointer
/// node; instantiated each time that node's points-to set grows.
#[derive(Clone, Debug)]
enum Deferred {
    /// `dst ⊇ *p`: the node is loaded through.
    LoadInto(usize),
    /// `*p ⊇ src`: the node is stored through.
    StoreFrom(usize),
    /// The node is the callee operand of an indirect call.
    Call {
        /// The call site.
        site: InstRef,
        /// Argument nodes, in position order (`None` for constants).
        args: Vec<Option<usize>>,
    },
}

/// The solved points-to relation over one module.
#[derive(Debug)]
pub struct PointsTo {
    index: HashMap<Node, usize>,
    sets: Vec<BTreeSet<AbsLoc>>,
    /// Resolved targets per indirect call site (arity-checked,
    /// deterministic order).
    indirect: BTreeMap<InstRef, Vec<FuncId>>,
    stats: PointsToStats,
    empty: BTreeSet<AbsLoc>,
}

/// Constraint-graph state used only while solving.
struct Solver {
    index: HashMap<Node, usize>,
    nodes: Vec<Node>,
    sets: Vec<BTreeSet<AbsLoc>>,
    /// Copy edges: successors per node (`dst ⊇ src`).
    succs: Vec<BTreeSet<usize>>,
    deferred: Vec<Vec<Deferred>>,
    indirect: BTreeMap<InstRef, Vec<FuncId>>,
    /// Indirect-call targets already wired, to keep re-instantiation
    /// idempotent.
    wired_calls: BTreeSet<(InstRef, FuncId)>,
    constraints: usize,
}

impl Solver {
    fn new() -> Self {
        Solver {
            index: HashMap::new(),
            nodes: Vec::new(),
            sets: Vec::new(),
            succs: Vec::new(),
            deferred: Vec::new(),
            indirect: BTreeMap::new(),
            wired_calls: BTreeSet::new(),
            constraints: 0,
        }
    }

    fn node(&mut self, n: Node) -> usize {
        if let Some(&i) = self.index.get(&n) {
            return i;
        }
        let i = self.nodes.len();
        self.index.insert(n, i);
        self.nodes.push(n);
        self.sets.push(BTreeSet::new());
        self.succs.push(BTreeSet::new());
        self.deferred.push(Vec::new());
        i
    }

    /// The node for an operand of function `f`, if it can carry a
    /// pointer (constants cannot).
    fn operand_node(&mut self, f: FuncId, op: Operand) -> Option<usize> {
        match op {
            Operand::Value(v) => Some(self.node(Node::Inst(InstRef::new(f, v)))),
            Operand::Param(p) => Some(self.node(Node::Param(f, p))),
            Operand::Const(_) => None,
        }
    }

    fn base(&mut self, n: usize, loc: AbsLoc, work: &mut Vec<usize>) {
        self.constraints += 1;
        if self.sets[n].insert(loc) {
            work.push(n);
        }
    }

    fn copy(&mut self, src: usize, dst: usize, work: &mut Vec<usize>) {
        self.constraints += 1;
        if src != dst && self.succs[src].insert(dst) && !self.sets[src].is_empty() {
            work.push(src);
        }
    }

    /// Wires parameter/return edges for a resolved indirect call.
    fn wire_call(
        &mut self,
        site: InstRef,
        args: &[Option<usize>],
        target: FuncId,
        m: &Module,
        work: &mut Vec<usize>,
    ) {
        if !self.wired_calls.insert((site, target)) {
            return;
        }
        let callee = m.func(target);
        if !callee.is_internal || callee.num_params as usize != args.len() {
            return;
        }
        for (k, arg) in args.iter().enumerate() {
            if let Some(a) = arg {
                let p = self.node(Node::Param(target, k as u32));
                self.copy(*a, p, work);
            }
        }
        let ret = self.node(Node::Ret(target));
        let res = self.node(Node::Inst(site));
        self.copy(ret, res, work);
    }
}

impl PointsTo {
    /// Builds and solves the points-to constraints of `m`.
    pub fn new(m: &Module) -> Self {
        let mut s = Solver::new();
        let mut work: Vec<usize> = Vec::new();

        // Constraint generation over every internal function.
        for (fi, func) in m.funcs.iter().enumerate() {
            if !func.is_internal {
                continue;
            }
            let fid = FuncId::from_index(fi);
            for (i, inst) in func.insts.iter().enumerate() {
                let iref = InstRef::new(fid, InstId::from_index(i));
                match inst {
                    Inst::GlobalAddr(g) => {
                        let n = s.node(Node::Inst(iref));
                        s.base(n, AbsLoc::Global(*g), &mut work);
                    }
                    Inst::FuncAddr(f) => {
                        let n = s.node(Node::Inst(iref));
                        s.base(n, AbsLoc::Func(*f), &mut work);
                    }
                    Inst::Alloca { .. } => {
                        let n = s.node(Node::Inst(iref));
                        s.base(n, AbsLoc::Alloca(iref), &mut work);
                    }
                    Inst::Malloc { .. } => {
                        let n = s.node(Node::Inst(iref));
                        s.base(n, AbsLoc::Heap(iref), &mut work);
                    }
                    Inst::Gep { base, .. } => {
                        // Field-insensitive: interior pointers alias
                        // their base object.
                        if let Some(b) = s.operand_node(fid, *base) {
                            let n = s.node(Node::Inst(iref));
                            s.copy(b, n, &mut work);
                        }
                    }
                    Inst::Phi { incoming } => {
                        for (_, v) in incoming {
                            if let Some(src) = s.operand_node(fid, *v) {
                                let n = s.node(Node::Inst(iref));
                                s.copy(src, n, &mut work);
                            }
                        }
                    }
                    Inst::Load { addr, .. } | Inst::AtomicLoad { addr } => {
                        if let Some(a) = s.operand_node(fid, *addr) {
                            let n = s.node(Node::Inst(iref));
                            s.constraints += 1;
                            s.deferred[a].push(Deferred::LoadInto(n));
                            if !s.sets[a].is_empty() {
                                work.push(a);
                            }
                        }
                    }
                    Inst::Store { addr, val } | Inst::AtomicStore { addr, val } => {
                        if let (Some(a), Some(v)) =
                            (s.operand_node(fid, *addr), s.operand_node(fid, *val))
                        {
                            s.constraints += 1;
                            s.deferred[a].push(Deferred::StoreFrom(v));
                            if !s.sets[a].is_empty() {
                                work.push(a);
                            }
                        }
                    }
                    Inst::MemCopy { dst, src, .. } => {
                        // Word-level copy through memory: model as a
                        // load from `src`'s cells into a synthetic
                        // value (the memcopy inst itself) stored into
                        // `dst`'s cells.
                        let tmp = s.node(Node::Inst(iref));
                        if let Some(sn) = s.operand_node(fid, *src) {
                            s.constraints += 1;
                            s.deferred[sn].push(Deferred::LoadInto(tmp));
                            if !s.sets[sn].is_empty() {
                                work.push(sn);
                            }
                        }
                        if let Some(dn) = s.operand_node(fid, *dst) {
                            s.constraints += 1;
                            s.deferred[dn].push(Deferred::StoreFrom(tmp));
                            if !s.sets[dn].is_empty() {
                                work.push(dn);
                            }
                        }
                    }
                    Inst::Call { callee, args } => match callee {
                        Callee::Direct(t) => {
                            if m.func(*t).is_internal
                                && m.func(*t).num_params as usize == args.len()
                            {
                                for (k, arg) in args.iter().enumerate() {
                                    if let Some(a) = s.operand_node(fid, *arg) {
                                        let p = s.node(Node::Param(*t, k as u32));
                                        s.copy(a, p, &mut work);
                                    }
                                }
                                let ret = s.node(Node::Ret(*t));
                                let res = s.node(Node::Inst(iref));
                                s.copy(ret, res, &mut work);
                            }
                        }
                        Callee::Indirect(p) => {
                            let arg_nodes: Vec<Option<usize>> =
                                args.iter().map(|a| s.operand_node(fid, *a)).collect();
                            s.indirect.entry(iref).or_default();
                            if let Some(c) = s.operand_node(fid, *p) {
                                s.constraints += 1;
                                s.deferred[c].push(Deferred::Call {
                                    site: iref,
                                    args: arg_nodes,
                                });
                                if !s.sets[c].is_empty() {
                                    work.push(c);
                                }
                            }
                        }
                    },
                    Inst::ThreadCreate { func, arg } if m.func(*func).is_internal => {
                        if let Some(a) = s.operand_node(fid, *arg) {
                            let p = s.node(Node::Param(*func, 0));
                            s.copy(a, p, &mut work);
                        }
                    }
                    Inst::Ret(Some(v)) => {
                        if let Some(src) = s.operand_node(fid, *v) {
                            let r = s.node(Node::Ret(fid));
                            s.copy(src, r, &mut work);
                        }
                    }
                    _ => {}
                }
            }
        }

        // Worklist solve. Processing a node re-propagates its full set
        // along copy edges and re-instantiates its deferred
        // constraints; newly created edges enqueue their sources, so
        // the loop reaches a fixpoint.
        let mut iterations = 0u64;
        while let Some(n) = work.pop() {
            iterations += 1;
            // Copy propagation: succ ⊇ n.
            let succs: Vec<usize> = s.succs[n].iter().copied().collect();
            for d in succs {
                let add: Vec<AbsLoc> = s.sets[n]
                    .iter()
                    .filter(|l| !s.sets[d].contains(*l))
                    .copied()
                    .collect();
                if !add.is_empty() {
                    s.sets[d].extend(add);
                    work.push(d);
                }
            }
            // Deferred constraints keyed on n's set.
            let deferred = s.deferred[n].clone();
            let locs: Vec<AbsLoc> = s.sets[n].iter().copied().collect();
            for c in deferred {
                match c {
                    Deferred::LoadInto(dst) => {
                        for l in &locs {
                            let cell = s.node(Node::Cell(*l));
                            s.copy(cell, dst, &mut work);
                        }
                    }
                    Deferred::StoreFrom(src) => {
                        for l in &locs {
                            let cell = s.node(Node::Cell(*l));
                            s.copy(src, cell, &mut work);
                        }
                    }
                    Deferred::Call { site, args } => {
                        for l in &locs {
                            if let AbsLoc::Func(t) = l {
                                let targets = s.indirect.entry(site).or_default();
                                let callee = m.func(*t);
                                if callee.is_internal
                                    && callee.num_params as usize == args.len()
                                    && !targets.contains(t)
                                {
                                    targets.push(*t);
                                    targets.sort();
                                }
                                s.wire_call(site, &args, *t, m, &mut work);
                            }
                        }
                    }
                }
            }
        }

        let stats = PointsToStats {
            nodes: s.nodes.len(),
            constraints: s.constraints,
            iterations,
        };
        PointsTo {
            index: s.index,
            sets: s.sets,
            indirect: s.indirect,
            stats,
            empty: BTreeSet::new(),
        }
    }

    fn set_of(&self, n: Node) -> &BTreeSet<AbsLoc> {
        self.index
            .get(&n)
            .map(|&i| &self.sets[i])
            .unwrap_or(&self.empty)
    }

    /// Points-to set of an instruction's SSA result (empty when the
    /// result is not a pointer the analysis tracked).
    pub fn pts_inst(&self, r: InstRef) -> &BTreeSet<AbsLoc> {
        self.set_of(Node::Inst(r))
    }

    /// Points-to set of an operand evaluated in function `f`.
    pub fn pts_operand(&self, f: FuncId, op: Operand) -> &BTreeSet<AbsLoc> {
        match op {
            Operand::Value(v) => self.set_of(Node::Inst(InstRef::new(f, v))),
            Operand::Param(p) => self.set_of(Node::Param(f, p)),
            Operand::Const(_) => &self.empty,
        }
    }

    /// What the (single) cell of an abstract location may hold.
    pub fn cell(&self, l: AbsLoc) -> &BTreeSet<AbsLoc> {
        self.set_of(Node::Cell(l))
    }

    /// May the two pointer operands refer to the same object?
    ///
    /// Conservative: returns `true` when either set is empty, because
    /// an empty set means the analysis could not track the value (it
    /// was synthesized from input or arithmetic), not that it points
    /// nowhere.
    pub fn may_alias(&self, fa: FuncId, a: Operand, fb: FuncId, b: Operand) -> bool {
        let sa = self.pts_operand(fa, a);
        let sb = self.pts_operand(fb, b);
        if sa.is_empty() || sb.is_empty() {
            return true;
        }
        sa.iter().any(|l| sb.contains(l))
    }

    /// Resolved targets of an indirect call site: internal functions of
    /// matching arity whose address flows into the callee operand.
    /// `None` when `site` is not an indirect call; an empty slice when
    /// nothing flowed in (callers should fall back to an arity match).
    pub fn resolve_targets(&self, site: InstRef) -> Option<&[FuncId]> {
        self.indirect.get(&site).map(|v| v.as_slice())
    }

    /// All indirect call sites seen, with their resolved targets.
    pub fn indirect_sites(&self) -> impl Iterator<Item = (InstRef, &[FuncId])> + '_ {
        self.indirect.iter().map(|(r, v)| (*r, v.as_slice()))
    }

    /// Solver statistics.
    pub fn stats(&self) -> PointsToStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::types::Type;

    #[test]
    fn globals_and_geps_alias_their_base() {
        let mut mb = ModuleBuilder::new("t");
        let g = mb.global("g", 4, Type::I64);
        let h = mb.global("h", 4, Type::I64);
        let f = mb.declare_func("f", 0);
        let (ga, gp, ha);
        {
            let mut b = mb.build_func(f);
            ga = b.global_addr(g);
            gp = b.gep(ga, 2);
            ha = b.global_addr(h);
            b.ret(None);
        }
        let m = mb.finish();
        let pts = PointsTo::new(&m);
        let gref = InstRef::new(f, ga);
        let gpref = InstRef::new(f, gp);
        assert_eq!(
            pts.pts_inst(gref).iter().collect::<Vec<_>>(),
            vec![&AbsLoc::Global(g)]
        );
        // Field-insensitive: the gep aliases its base.
        assert!(pts.may_alias(f, ga.into(), f, gp.into()));
        assert_eq!(pts.pts_inst(gpref), pts.pts_inst(gref));
        // Distinct globals do not alias.
        assert!(!pts.may_alias(f, ga.into(), f, ha.into()));
    }

    #[test]
    fn store_load_through_global_cell() {
        // p = malloc; store gcell, p; q = load gcell  =>  q aliases p.
        let mut mb = ModuleBuilder::new("t");
        let cell = mb.global("cell", 1, Type::Ptr);
        let f = mb.declare_func("f", 0);
        let (p, q);
        {
            let mut b = mb.build_func(f);
            p = b.malloc(4);
            let ca = b.global_addr(cell);
            b.store(ca, p);
            q = b.load(ca, Type::Ptr);
            b.ret(None);
        }
        let m = mb.finish();
        let pts = PointsTo::new(&m);
        let heap = AbsLoc::Heap(InstRef::new(f, p));
        assert!(pts.pts_inst(InstRef::new(f, q)).contains(&heap));
        assert!(pts.may_alias(f, p.into(), f, q.into()));
        assert!(pts.cell(AbsLoc::Global(cell)).contains(&heap));
    }

    #[test]
    fn phi_cycles_terminate_and_merge() {
        // A loop whose phi merges an alloca with a gep over itself:
        // the classic copy cycle the worklist must terminate on.
        let mut mb = ModuleBuilder::new("t");
        let f = mb.declare_func("f", 0);
        let (a, phi);
        {
            let mut b = mb.build_func(f);
            a = b.alloca(8);
            let head = b.block();
            let body = b.block();
            let exit = b.block();
            b.jmp(head);
            b.switch_to(head);
            phi = b.phi(vec![]);
            let go = b.load(a, Type::I64);
            b.br(go, body, exit);
            b.switch_to(body);
            let step = b.gep(phi, 1);
            b.jmp(head);
            b.switch_to(exit);
            b.ret(None);
            b.set_phi(
                phi,
                vec![
                    (crate::BlockId(0), a.into()),
                    (crate::BlockId(2), step.into()),
                ],
            );
        }
        let m = mb.finish();
        let pts = PointsTo::new(&m);
        let obj = AbsLoc::Alloca(InstRef::new(f, a));
        assert!(pts.pts_inst(InstRef::new(f, phi)).contains(&obj));
        assert!(pts.stats().iterations > 0);
    }

    #[test]
    fn address_taken_functions_resolve_indirect_calls() {
        let mut mb = ModuleBuilder::new("t");
        let cb = mb.declare_func("cb", 1);
        let other = mb.declare_func("other", 1);
        let main = mb.declare_func("main", 0);
        {
            let mut b = mb.build_func(cb);
            b.ret(Some(Operand::Param(0)));
        }
        {
            let mut b = mb.build_func(other);
            b.ret(Some(Operand::Param(0)));
        }
        let site;
        {
            let mut b = mb.build_func(main);
            let fp = b.func_addr(cb);
            // `other` is address-taken too, but its address never
            // flows into this call.
            let _unused = b.func_addr(other);
            site = b.call_indirect(fp, vec![Operand::Const(1)]);
            b.ret(None);
        }
        let m = mb.finish();
        let pts = PointsTo::new(&m);
        let sref = InstRef::new(main, site);
        // Points-to narrows the arity fallback {cb, other} to {cb}.
        assert_eq!(pts.resolve_targets(sref), Some(&[cb][..]));
    }

    #[test]
    fn function_pointer_through_memory_resolves() {
        // store table, &cb; fp = load table; fp() — the relay shape.
        let mut mb = ModuleBuilder::new("t");
        let table = mb.global("table", 1, Type::FuncPtr);
        let cb = mb.declare_func("cb", 0);
        let main = mb.declare_func("main", 0);
        {
            let mut b = mb.build_func(cb);
            b.ret(None);
        }
        let site;
        {
            let mut b = mb.build_func(main);
            let fa = b.func_addr(cb);
            let ta = b.global_addr(table);
            b.store(ta, fa);
            let fp = b.load(ta, Type::FuncPtr);
            site = b.call_indirect(fp, vec![]);
            b.ret(None);
        }
        let m = mb.finish();
        let pts = PointsTo::new(&m);
        assert_eq!(
            pts.resolve_targets(InstRef::new(main, site)),
            Some(&[cb][..])
        );
    }

    #[test]
    fn global_initializers_do_not_invent_pointers() {
        // Integer initializers are data, not addresses: the cell of an
        // initialized global starts empty, and a pointer loaded from it
        // has an empty (conservatively aliasing) set.
        let mut mb = ModuleBuilder::new("t");
        let g = mb.global_init("g", 2, vec![0x1000, 0x2000], Type::I64);
        let h = mb.global("h", 1, Type::I64);
        let f = mb.declare_func("f", 0);
        let (ld, ha);
        {
            let mut b = mb.build_func(f);
            let ga = b.global_addr(g);
            ld = b.load(ga, Type::I64);
            ha = b.global_addr(h);
            b.ret(None);
        }
        let m = mb.finish();
        let pts = PointsTo::new(&m);
        assert!(pts.cell(AbsLoc::Global(g)).is_empty());
        assert!(pts.pts_inst(InstRef::new(f, ld)).is_empty());
        // Empty sets alias everything (conservative).
        assert!(pts.may_alias(f, ld.into(), f, ha.into()));
    }

    #[test]
    fn params_and_returns_flow_interprocedurally() {
        // id(p) { return p; } main: a = alloca; r = id(a)
        let mut mb = ModuleBuilder::new("t");
        let id = mb.declare_func("id", 1);
        let main = mb.declare_func("main", 0);
        {
            let mut b = mb.build_func(id);
            b.ret(Some(Operand::Param(0)));
        }
        let (a, r);
        {
            let mut b = mb.build_func(main);
            a = b.alloca(1);
            r = b.call(id, vec![a.into()]);
            b.ret(None);
        }
        let m = mb.finish();
        let pts = PointsTo::new(&m);
        let obj = AbsLoc::Alloca(InstRef::new(main, a));
        assert!(pts.pts_inst(InstRef::new(main, r)).contains(&obj));
        assert!(pts.pts_operand(id, Operand::Param(0)).contains(&obj));
    }

    #[test]
    fn thread_entry_argument_flows() {
        let mut mb = ModuleBuilder::new("t");
        let worker = mb.declare_func("worker", 1);
        let main = mb.declare_func("main", 0);
        {
            let mut b = mb.build_func(worker);
            b.ret(None);
        }
        let buf;
        {
            let mut b = mb.build_func(main);
            buf = b.malloc(16);
            let t = b.thread_create(worker, buf);
            b.thread_join(t);
            b.ret(None);
        }
        let m = mb.finish();
        let pts = PointsTo::new(&m);
        assert!(pts
            .pts_operand(worker, Operand::Param(0))
            .contains(&AbsLoc::Heap(InstRef::new(main, buf))));
    }
}
