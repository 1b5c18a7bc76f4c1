//! Seeded generator of detection-heavy programs.
//!
//! Each program is a startup prefix (a single-threaded table fill, the
//! shape fork mode snapshots past) followed by 2–4 worker threads that
//! mostly touch their own private global, take a shared lock every
//! `lock_period` accesses, and touch a few planted racy globals outside
//! any lock. A planted global is written and read by every worker with
//! no ordering between the workers, so happens-before detection reports
//! it on every schedule and the race verifier can confirm it. In the
//! first worker the value read indexes the `sink` table, a store
//! through a racy-derived address that the vulnerability analyzer
//! reports as a null-deref hint and the vulnerability verifier then
//! reaches; the other workers' reads lead nowhere, so verification
//! stays a small share of the work.

use crate::stats::Rng;
use owl::owl_ir::{FuncId, Module, ModuleBuilder, Type};

/// Lock periods the generator picks from.
const LOCK_PERIODS: [u64; 4] = [32, 64, 128, 256];

/// Accesses per worker are drawn from equal-width strata of this range.
const PER_THREAD: (usize, usize) = (512, 2048);
/// Startup stores are drawn from equal-width strata of `0..STARTUP`.
const STARTUP: usize = 1024;

/// The four properties the generator varies, plus the planted races.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Shape {
    /// Worker threads (2–4).
    pub threads: usize,
    /// Private accesses per worker (512–2048).
    pub per_thread: usize,
    /// A locked shared access every this many accesses.
    pub lock_period: usize,
    /// Single-threaded startup stores before the first thread starts.
    pub startup: usize,
    /// Planted racy globals (1–2); `true` places the racy accesses
    /// before a worker's loop, `false` after it.
    pub racy_at_head: Vec<bool>,
}

impl Shape {
    /// The shapes of a `count`-program sweep for `seed`.
    ///
    /// The sweep is stratified so its total work hardly depends on the
    /// seed: program `i` has `2 + i % 3` workers, lock period
    /// `LOCK_PERIODS[i % 4]`, `1 + i / 3 % 2` planted races (the first
    /// at the workers' head for `i < count / 2`, at their tail after,
    /// the second on the other side), and accesses per worker from the
    /// `i`-th of `count` equal strata of 512–2048. The seed picks the
    /// exact value inside each stratum and deals the startup-length
    /// strata out over the programs. Dealing lock periods and race
    /// placements by seed as well made a run's median sweep 15% slower
    /// at one run seed than at another.
    pub fn sweep(seed: u64, count: usize) -> Vec<Shape> {
        let mut rng = Rng::new(seed, 0x6e6e);
        let mut startup_strata: Vec<usize> = (0..count).collect();
        rng.shuffle(&mut startup_strata);
        let width = (PER_THREAD.1 - PER_THREAD.0) / count;
        let startup_width = STARTUP / count;
        (0..count)
            .map(|i| {
                let jitter = |rng: &mut Rng, w: usize| rng.range(0, w.max(1) as u64 - 1) as usize;
                let racy = 1 + i / 3 % 2;
                Shape {
                    threads: 2 + i % 3,
                    per_thread: PER_THREAD.0 + i * width + jitter(&mut rng, width),
                    lock_period: LOCK_PERIODS[i % LOCK_PERIODS.len()] as usize,
                    startup: startup_strata[i] * startup_width + jitter(&mut rng, startup_width),
                    racy_at_head: (0..racy).map(|j| (i < count / 2) == (j == 0)).collect(),
                }
            })
            .collect()
    }
}

/// One generated program.
#[derive(Debug)]
pub struct Program {
    /// Unique name (also the module name).
    pub name: String,
    /// The shape it was built from.
    pub shape: Shape,
    /// The module.
    pub module: Module,
    /// Its zero-parameter entry.
    pub entry: FuncId,
    /// Names of the planted racy globals.
    pub planted: Vec<String>,
}

/// Builds the program for `shape`.
pub fn build(name: &str, shape: &Shape) -> Program {
    let mut mb = ModuleBuilder::new(name);
    let table = mb.global("table", shape.startup.max(1) as u32, Type::I64);
    let private: Vec<_> = (0..shape.threads)
        .map(|t| mb.global(format!("local{t}"), 1, Type::I64))
        .collect();
    let shared: Vec<_> = (0..4)
        .map(|i| mb.global(format!("shared{i}"), 1, Type::I64))
        .collect();
    let planted: Vec<String> = (0..shape.racy_at_head.len())
        .map(|j| format!("racy{j}"))
        .collect();
    let racy: Vec<_> = planted
        .iter()
        .map(|n| mb.global(n.clone(), 1, Type::I64))
        .collect();
    let sink = mb.global("sink", shape.threads as u32, Type::I64);
    let mutex = mb.global("m", 1, Type::I64);
    let workers: Vec<FuncId> = (0..shape.threads)
        .map(|t| mb.declare_func(format!("worker{t}"), 1))
        .collect();
    for (t, &f) in workers.iter().enumerate() {
        let mut b = mb.build_func(f);
        let racy_accesses = |b: &mut owl::owl_ir::FunctionBuilder<'_>, head: bool| {
            for (&g, &at_head) in racy.iter().zip(&shape.racy_at_head) {
                if at_head == head {
                    let a = b.global_addr(g);
                    b.store(a, t as i64);
                    let v = b.load(a, Type::I64);
                    if t == 0 {
                        let s = b.global_addr(sink);
                        let slot = b.gep(s, v);
                        b.store(slot, 1);
                    }
                }
            }
        };
        racy_accesses(&mut b, true);
        for k in 0..shape.per_thread {
            if k % shape.lock_period == 0 {
                let la = b.global_addr(mutex);
                let sa = b.global_addr(shared[(t + k / shape.lock_period) % shared.len()]);
                b.lock(la);
                b.load(sa, Type::I64);
                b.store(sa, k as i64);
                b.unlock(la);
            } else {
                let pa = b.global_addr(private[t]);
                if k % 2 == 0 {
                    b.load(pa, Type::I64);
                } else {
                    b.store(pa, k as i64);
                }
            }
        }
        racy_accesses(&mut b, false);
        b.ret(None);
    }
    let main = mb.declare_func("main", 0);
    {
        let mut b = mb.build_func(main);
        let ta = b.global_addr(table);
        for k in 0..shape.startup as i64 {
            let slot = b.gep(ta, k);
            b.store(slot, k);
        }
        let tids: Vec<_> = workers.iter().map(|&f| b.thread_create(f, 0)).collect();
        for tid in tids {
            b.thread_join(tid);
        }
        b.ret(None);
    }
    Program {
        name: name.to_string(),
        shape: shape.clone(),
        module: mb.finish(),
        entry: main,
        planted,
    }
}

/// The `count` programs of the sweep for `seed`.
pub fn sweep(seed: u64, count: usize) -> Vec<Program> {
    Shape::sweep(seed, count)
        .iter()
        .enumerate()
        .map(|(i, shape)| build(&format!("gen-{seed}-{i}"), shape))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use owl::owl_ir::{module_to_string, verify_module};

    #[test]
    fn same_seed_gives_ir_identical_programs() {
        let a = sweep(7, 4);
        let b = sweep(7, 4);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(module_to_string(&x.module), module_to_string(&y.module));
            assert_eq!(x.planted, y.planted);
        }
        let c = sweep(8, 4);
        assert!(a
            .iter()
            .zip(&c)
            .any(|(x, y)| module_to_string(&x.module) != module_to_string(&y.module)));
    }

    #[test]
    fn shapes_stay_in_range_and_modules_verify() {
        for seed in 1..6 {
            for p in sweep(seed, 6) {
                let s = &p.shape;
                assert!((2..=4).contains(&s.threads));
                assert!((PER_THREAD.0..PER_THREAD.1).contains(&s.per_thread));
                assert!(LOCK_PERIODS.contains(&(s.lock_period as u64)));
                assert!(s.startup < STARTUP);
                assert!((1..=2).contains(&s.racy_at_head.len()));
                assert!(verify_module(&p.module).is_ok(), "{} verifies", p.name);
            }
        }
    }
}
