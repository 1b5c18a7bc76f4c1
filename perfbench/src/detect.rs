//! `detect-heavy`: seeded generated programs through `Owl::run` at the
//! default configuration with the inline trace hand-off.
//!
//! Detection dominates here and verification stays near idle, so this
//! is where explorer, VM, check-elision and fork changes show end to
//! end — and where a stage-3 change should show nothing.

use crate::gen::{self, Program};
use crate::stats::{self, median, percentile, Tally};
use crate::{Args, Outcome};
use owl::owl_vm::ProgramInput;
use owl::{Owl, OwlConfig, PipelineResult};
use std::time::Instant;

/// Generated programs per sweep: two cycles of the generator's
/// thread-count × planted-race strata.
pub const PROGRAMS: usize = 12;

/// Sweeps a run makes at least, so `sweep_s` is a median of enough
/// samples.
const MIN_SWEEPS: u64 = 9;

/// Generator seeds a run cycles through, at least as many as the
/// sweeps it makes, so its medians do not rest on a few sweeps'
/// shapes; runs with different seeds use disjoint sets.
const SEEDS_PER_RUN: u64 = 64;

/// The generator seed of sweep `k` for run seed `seed`.
pub fn sweep_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(SEEDS_PER_RUN) + k % SEEDS_PER_RUN
}

/// The workload's configuration: `OwlConfig::default()` with the
/// detection sweeps' VM running inline on the detector's thread
/// (`channel_capacity` 0) instead of on a producer thread feeding a
/// bounded channel. The channel hand-off made the same seed's sweeps
/// take 2.2–3.2 s from run to run on a 2-vCPU host, against 1.4–1.5 s
/// inline, because it measures how the host schedules two threads
/// handing events to each other.
pub fn config() -> OwlConfig {
    let mut cfg = OwlConfig::default();
    cfg.detect.stream.channel_capacity = 0;
    cfg
}

/// Runs one generated program through the whole pipeline.
pub fn run_program(p: &Program, cfg: &OwlConfig) -> PipelineResult {
    Owl::new(&p.module, p.entry, cfg.clone()).run(&p.name, &[ProgramInput::empty()], &[])
}

/// Whether every planted race was reported and confirmed, and its
/// vulnerability hint reached: a finding on each planted global with a
/// reached hint. One operation per program.
pub fn check_program(tally: &mut Tally, errors: &mut Vec<String>, p: &Program, r: &PipelineResult) {
    let missing: Vec<&String> = p
        .planted
        .iter()
        .filter(|g| {
            !r.findings.iter().any(|f| {
                f.race.global_name.as_ref() == Some(*g)
                    && f.vuln_verifications.iter().any(|v| v.reached)
            })
        })
        .collect();
    let ok = r.error.is_none() && r.quarantined.is_empty() && missing.is_empty();
    if !ok {
        errors.push(format!(
            "{}: planted races not confirmed with a reached hint: {missing:?} (error {:?}, {} quarantined)",
            p.name,
            r.error,
            r.quarantined.len()
        ));
    }
    tally.check(ok);
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let cfg = config();
    let mut setup_s = Vec::new();
    let mut sweep_s = Vec::new();
    let mut run_ms = Vec::new();
    let mut executions = 0;
    let mut shapes: Vec<gen::Shape> = Vec::new();
    let need = stats::samples_needed(90);
    let start = Instant::now();
    for k in 0u64.. {
        let t = Instant::now();
        let programs = gen::sweep(sweep_seed(args.seed, k), PROGRAMS);
        setup_s.push(t.elapsed().as_secs_f64());

        let t0 = Instant::now();
        let mut sweep_executions = 0;
        for p in &programs {
            let t = Instant::now();
            let r = run_program(p, &cfg);
            run_ms.push(t.elapsed().as_secs_f64() * 1e3);
            sweep_executions += r.health.detect.attempts;
            check_program(&mut out.tally, &mut out.errors, p, &r);
        }
        sweep_s.push(t0.elapsed().as_secs_f64());
        if k == 0 {
            executions = sweep_executions;
            shapes = programs.iter().map(|p| p.shape.clone()).collect();
        }
        if !out.errors.is_empty()
            || (start.elapsed() >= args.seconds && run_ms.len() >= need && k + 1 >= MIN_SWEEPS)
        {
            break;
        }
    }
    out.metric("setup_s", median(&setup_s), "s");
    out.metric("peak_rss_mb", stats::peak_rss_mb(), "MB");
    out.metric("pass_s", median(&sweep_s), "s");
    out.metric("unit_ms.p50", median(&run_ms), "ms");
    out.metric("unit_ms.p90", percentile(&run_ms, 90.0), "ms");
    out.info(format!(
        "detect-heavy: sweep_s = pass_s, run_ms.* = unit_ms.*; {} sweeps of {PROGRAMS} programs from generator seed {}, {} run samples (p90 needs {need})",
        sweep_s.len(),
        sweep_seed(args.seed, 0),
        run_ms.len()
    ));
    out.info(format!(
        "first sweep's programs (threads, accesses/thread, lock period, startup stores, planted races): {}",
        shapes
            .iter()
            .map(|s| format!(
                "({}, {}, {}, {}, {})",
                s.threads,
                s.per_thread,
                s.lock_period,
                s.startup,
                s.racy_at_head.len()
            ))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    out.info(format!(
        "work: {executions} detection executions in the first sweep; error_rate {:.6} ({} of {} operations failed)",
        out.tally.error_rate(),
        out.tally.failed,
        out.tally.attempted
    ));
    out
}
