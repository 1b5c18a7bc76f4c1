//! Reach-set property: for random racy programs and seeds, with and
//! without a fault plan that drops breakpoint hits, a run that arms
//! breakpoints only at sites its plain run never reached is that plain
//! run — same outcome, same trace, and the controller is never
//! consulted — while arming a reached site always reaches the
//! controller (or records the dropped hit). This is the soundness
//! contract behind the race verifier's reach pruning.

use owl_ir::{BinOp, FuncId, InstId, InstRef, Module, ModuleBuilder, Operand, Pred, Type};
use owl_vm::{
    BreakDecision, BreakWorld, Breakpoint, Controller, FaultKind, FaultPlan, ProgramInput,
    RandomScheduler, RunConfig, Suspension, ThreadId, VecSink, Vm,
};
use proptest::prelude::*;

/// `workers` threads read-modify-write a shared global (optionally
/// under a mutex) behind a value gate, after a per-thread `IoDelay`;
/// `main` calls `cold` only when input word 0 is 1. With the empty
/// input, `cold` and — depending on the schedule — the gated store are
/// never reached.
fn build_gated(workers: u32, use_lock: bool, delay: i64, gate: i64) -> (Module, FuncId) {
    let mut mb = ModuleBuilder::new("reach-prop");
    let g = mb.global("g", 1, Type::I64);
    let l = mb.global("l", 1, Type::I64);
    let cold = mb.declare_func("cold", 1);
    let w = mb.declare_func("w", 1);
    let main = mb.declare_func("main", 0);
    {
        let mut b = mb.build_func(cold);
        let ga = b.global_addr(g);
        b.store(ga, Operand::Param(0));
        b.ret(None);
    }
    {
        let mut b = mb.build_func(w);
        let ga = b.global_addr(g);
        let la = b.global_addr(l);
        b.io_delay(Operand::Param(0));
        if use_lock {
            b.lock(la);
        }
        let v = b.load(ga, Type::I64);
        let over = b.cmp(Pred::Gt, v, gate);
        let (hot, done) = (b.block(), b.block());
        b.br(over, hot, done);
        b.switch_to(hot);
        let v2 = b.bin(BinOp::Mul, v, 3);
        b.store(ga, v2);
        b.jmp(done);
        b.switch_to(done);
        if use_lock {
            b.unlock(la);
        }
        b.ret(None);
    }
    {
        let mut b = mb.build_func(main);
        let ga = b.global_addr(g);
        b.store(ga, 7);
        let x = b.input(0);
        let wake = b.cmp(Pred::Eq, x, 1);
        let (call_cold, spawn) = (b.block(), b.block());
        b.br(wake, call_cold, spawn);
        b.switch_to(call_cold);
        b.call(cold, vec![Operand::from(x)]);
        b.jmp(spawn);
        b.switch_to(spawn);
        let mut joins = Vec::new();
        for i in 0..workers {
            joins.push(b.thread_create(w, i64::from(i) + delay));
        }
        for t in joins {
            b.thread_join(t);
        }
        let v = b.load(ga, Type::I64);
        b.output(0, v);
        b.ret(None);
    }
    let m = mb.finish();
    let main_id = m.func_by_name("main").unwrap();
    (m, main_id)
}

/// Every instruction site of `m`.
fn all_sites(m: &Module) -> Vec<InstRef> {
    m.funcs
        .iter()
        .enumerate()
        .flat_map(|(f, func)| {
            (0..func.insts.len()).map(move |i| InstRef::new(FuncId(f as u32), InstId(i as u32)))
        })
        .collect()
}

/// Suspends every hit and counts every callback.
#[derive(Default)]
struct AlwaysSuspend {
    calls: usize,
}

impl Controller for AlwaysSuspend {
    fn on_break(&mut self, _world: &mut BreakWorld<'_>, _hit: &Suspension) -> BreakDecision {
        self.calls += 1;
        BreakDecision::Suspend
    }

    fn on_stall(&mut self, _world: &mut BreakWorld<'_>) -> Option<ThreadId> {
        self.calls += 1;
        None
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn unreached_breakpoints_never_change_a_run(
        seed in 0u64..500,
        workers in 1u32..4,
        use_lock in any::<bool>(),
        delay in 0i64..40,
        gate in 0i64..40,
        chaos in any::<bool>(),
        pick in 0usize..1000,
    ) {
        let (m, main) = build_gated(workers, use_lock, delay, gate);
        let mut cfg = RunConfig::default();
        if chaos {
            // Dropped hits, delays, spurious wakeups, memory faults and
            // step exhaustion all draw from the one fault RNG.
            cfg.fault = FaultPlan::uniform(seed ^ 0x5eed, 0.05);
            prop_assert!(cfg.fault.drop_breakpoint_rate > 0.0);
        }
        let vm = || Vm::new(&m, main, ProgramInput::empty(), cfg.clone());

        // The plain run, recording reach; recording changes nothing.
        let mut plain_trace = VecSink::default();
        let (plain, reach) =
            vm().run_recording_reach(&mut RandomScheduler::new(seed), &mut plain_trace);
        let mut unrecorded_trace = VecSink::default();
        let unrecorded = vm().run(&mut RandomScheduler::new(seed), &mut unrecorded_trace);
        prop_assert_eq!(&plain, &unrecorded);
        prop_assert_eq!(&plain_trace.events, &unrecorded_trace.events);

        let sites = all_sites(&m);
        let (reached, unreached): (Vec<InstRef>, Vec<InstRef>) =
            sites.iter().partition(|&&s| reach.contains(s));
        prop_assert_eq!(reach.len(), reached.len());
        prop_assert!(!unreached.is_empty(), "`cold` is never called");

        // Every unreached site armed at once: the run is the plain run.
        let mut armed = vm();
        for &s in &unreached {
            armed.add_breakpoint(Breakpoint::at(s));
        }
        let mut ctl = AlwaysSuspend::default();
        let mut armed_trace = VecSink::default();
        let out = armed.run_controlled(&mut RandomScheduler::new(seed), &mut armed_trace, &mut ctl);
        prop_assert_eq!(ctl.calls, 0);
        prop_assert_eq!(&out, &plain);
        prop_assert_eq!(&armed_trace.events, &plain_trace.events);

        // One reached site armed: its first arrival either reaches the
        // controller or is recorded as a dropped hit.
        let site = reached[pick % reached.len()];
        let mut armed = vm();
        armed.add_breakpoint(Breakpoint::at(site));
        let mut ctl = AlwaysSuspend::default();
        let out = armed.run_controlled(&mut RandomScheduler::new(seed), &mut VecSink::default(), &mut ctl);
        let dropped = out
            .injected_faults
            .iter()
            .filter(|f| f.kind == FaultKind::DroppedBreakpoint && f.site == Some(site))
            .count();
        if chaos {
            prop_assert!(ctl.calls + dropped > 0, "reached site {:?} never trapped", site);
        } else {
            prop_assert!(ctl.calls > 0, "reached site {:?} never trapped", site);
        }
    }
}
