//! `corpus-campaign`: `run_campaign` over the seven corpus programs at
//! the default configuration, one fresh durable journal per pass.
//!
//! Stage-3 race verification dominates this workload (Linux alone is
//! most of a pass), so it is where verifier work shows end to end.

use crate::stats::{self, median, percentile, Tally};
use crate::{Args, Outcome};
use owl::owl_corpus::{self, CorpusProgram};
use owl::{run_campaign, CampaignConfig, Journal, OwlConfig, ProgramOutcome, ProgramSummary};
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;
use std::time::{Duration, Instant};

/// Detection base seeds one run cycles through, pass by pass. Campaign
/// cost depends on the base seed by up to ±20%; cycling through several
/// keeps one run's median from resting on a single seed.
pub const BASE_SEEDS: u64 = 16;

/// Base seeds `run.py --campaign-table` writes into the table.
pub const TABLE_SEEDS: u64 = 256;

/// What a pass at each detection base seed must report, one line per
/// base seed `1..=N`: `base_seed attacks_detected vulnerable_findings
/// summary_digest`. Written by `run.py --campaign-table`.
const TABLE: &str = include_str!("../campaign_table.txt");

/// One line of [`TABLE`]: what a pass at one base seed reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Expected {
    /// Attacks detected, out of the corpus's 10.
    pub attacks: usize,
    /// Vulnerable findings over all programs.
    pub vulnerable: usize,
    /// FNV-1a 64 of the rendered campaign summary.
    pub digest: u64,
}

/// The parsed table, indexed by base seed − 1.
pub fn table() -> Vec<Expected> {
    fn parse(i: usize, line: &str) -> Option<Expected> {
        let f: Vec<&str> = line.split_whitespace().collect();
        (f.len() == 4 && f[0].parse::<usize>().ok()? == i + 1).then_some(())?;
        Some(Expected {
            attacks: f[1].parse().ok()?,
            vulnerable: f[2].parse().ok()?,
            digest: u64::from_str_radix(f[3], 16).ok()?,
        })
    }
    TABLE
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .enumerate()
        .map(|(i, l)| {
            parse(i, l).unwrap_or_else(|| panic!("campaign_table.txt: bad entry {}: `{l}`", i + 1))
        })
        .collect()
}

/// The detection base seed of `pass` for run seed `seed`, in
/// `1..=table_len`: runs with seeds `s` and `s + 1` use the next block
/// of [`BASE_SEEDS`] base seeds, round the table.
pub fn base_seed(seed: u64, pass: u64, table_len: u64) -> u64 {
    (seed.wrapping_mul(BASE_SEEDS) % table_len + pass % BASE_SEEDS) % table_len + 1
}

/// FNV-1a 64.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// What `outcome` reports, in the table's terms.
pub fn observed(programs: &[CorpusProgram], outcome: &owl::CampaignOutcome) -> Expected {
    let attacks = programs
        .iter()
        .zip(&outcome.summary.programs)
        .map(|(p, s)| match &s.outcome {
            ProgramOutcome::Finished(s) => attacks_detected(p, s).iter().filter(|&&d| d).count(),
            _ => 0,
        })
        .sum();
    Expected {
        attacks,
        vulnerable: outcome.summary.total_vulnerable(),
        digest: fnv1a(outcome.summary.render().as_bytes()),
    }
}

/// Prints [`TABLE`] afresh for base seeds `1..=count`, one campaign pass
/// each.
pub fn print_table(work: &Path, count: u64) -> Result<(), String> {
    let programs = owl_corpus::all_programs();
    println!("# base_seed attacks_detected vulnerable_findings summary_digest");
    for base in 1..=count {
        let path = work.join(format!("table{base}.jsonl"));
        let outcome =
            run_campaign(&path, &programs, &config(base), false).map_err(|e| e.to_string())?;
        let _ = std::fs::remove_file(&path);
        let e = observed(&programs, &outcome);
        println!("{base} {} {} {:016x}", e.attacks, e.vulnerable, e.digest);
    }
    Ok(())
}

/// The pass's campaign configuration: default pipeline, `base_seed`
/// as the detection base seed, one worker, no metrics recorder.
pub fn config(base_seed: u64) -> CampaignConfig {
    let mut owl = OwlConfig::default();
    owl.detect.base_seed = base_seed;
    let mut cfg = CampaignConfig::new(owl);
    cfg.workers = 1;
    cfg
}

/// Which attacks of `program` `summary` detects: a vulnerable finding on
/// the attack's racy global whose hint of the expected class was
/// verified reachable.
pub fn attacks_detected(program: &CorpusProgram, summary: &ProgramSummary) -> Vec<bool> {
    program
        .attacks
        .iter()
        .map(|a| {
            summary.findings.iter().any(|f| {
                f.global == a.race_global
                    && f.hints
                        .iter()
                        .any(|h| h.class == a.expected_class && h.reached)
            })
        })
        .collect()
}

/// Runs one campaign pass over `programs` into the fresh journal at
/// `path`, returning the outcome and the instant each program's
/// `ProgramFinished` record reached the journal. The journal is polled
/// from this thread while the campaign runs on its own single worker.
pub fn timed_pass(
    path: &Path,
    programs: &[CorpusProgram],
    cfg: &CampaignConfig,
) -> (Result<owl::CampaignOutcome, String>, Vec<Instant>) {
    std::thread::scope(|s| {
        let handle =
            s.spawn(|| run_campaign(path, programs, cfg, false).map_err(|e| e.to_string()));
        let mut finished = Vec::new();
        let mut offset = 0u64;
        let mut partial = Vec::new();
        loop {
            let done = handle.is_finished();
            let len = std::fs::metadata(path).map_or(0, |m| m.len());
            if len > offset {
                let mut chunk = Vec::new();
                if let Ok(mut f) = std::fs::File::open(path) {
                    let _ = f.seek(SeekFrom::Start(offset));
                    let _ = f.read_to_end(&mut chunk);
                }
                offset += chunk.len() as u64;
                let now = Instant::now();
                partial.extend_from_slice(&chunk);
                while let Some(nl) = partial.iter().position(|&b| b == b'\n') {
                    let line: Vec<u8> = partial.drain(..=nl).collect();
                    if line.windows(18).any(|w| w == b"\"program-finished\"") {
                        finished.push(now);
                    }
                }
            }
            if done {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let outcome = handle
            .join()
            .unwrap_or_else(|_| Err("campaign panicked".to_string()));
        (outcome, finished)
    })
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let table = table();
    let mut setup_s = Vec::new();
    let mut pass_s = Vec::new();
    let mut program_ms = Vec::new();
    let mut short_passes = Vec::new();
    let mut journal_records = 0usize;
    let need = stats::samples_needed(90);
    let start = Instant::now();
    for pass in 0u64.. {
        let base = base_seed(args.seed, pass, table.len() as u64);
        let cfg = config(base);
        let dir = args.work.join(format!("pass{pass}"));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("journal.jsonl");

        let t = Instant::now();
        let programs = owl_corpus::all_programs();
        let opened = Journal::open(&path).map(drop);
        setup_s.push(t.elapsed().as_secs_f64());
        if let Err(e) = opened {
            out.error(format!("pass {pass}: journal open: {e}"));
            break;
        }

        let t0 = Instant::now();
        let (result, finished) = timed_pass(&path, &programs, &cfg);
        pass_s.push(t0.elapsed().as_secs_f64());
        let outcome = match result {
            Ok(o) => o,
            Err(e) => {
                out.tally.record(stats::Op::Failed);
                out.error(format!("pass {pass}: campaign failed: {e}"));
                break;
            }
        };
        let mut prev = t0;
        for t in &finished {
            program_ms.push((*t - prev).as_secs_f64() * 1e3);
            prev = *t;
        }
        if finished.len() != programs.len() {
            out.error(format!(
                "pass {pass}: saw {} of {} program completions",
                finished.len(),
                programs.len()
            ));
        }
        let expected = table[base as usize - 1];
        check_pass(&mut out.tally, &mut out.errors, pass, &programs, &outcome);
        let got = observed(&programs, &outcome);
        out.tally.check(got == expected);
        if got != expected {
            out.error(format!(
                "pass {pass}, base seed {base}: (attacks, vulnerable, digest) {:?} but campaign_table.txt has {:?}",
                (got.attacks, got.vulnerable, format!("{:016x}", got.digest)),
                (expected.attacks, expected.vulnerable, format!("{:016x}", expected.digest)),
            ));
        }
        if got.attacks < 10 || got.vulnerable != 18 {
            short_passes.push(format!(
                "base seed {base}: {}/10 attacks, {} vulnerable",
                got.attacks, got.vulnerable
            ));
        }
        journal_records = outcome.summary.records as usize;
        let _ = std::fs::remove_dir_all(&dir);

        if !out.errors.is_empty()
            || (start.elapsed() >= args.seconds
                && program_ms.len() >= need
                && pass + 1 >= BASE_SEEDS)
        {
            break;
        }
    }

    out.metric("setup_s", median(&setup_s), "s");
    out.metric("peak_rss_mb", stats::peak_rss_mb(), "MB");
    out.metric("pass_s", median(&pass_s), "s");
    out.metric("unit_ms.p50", median(&program_ms), "ms");
    out.metric("unit_ms.p90", percentile(&program_ms, 90.0), "ms");
    out.info(format!(
        "corpus-campaign: campaign_s = pass_s, program_ms.* = unit_ms.*; {} passes from base seed {}, {} program samples (p90 needs {need})",
        pass_s.len(),
        base_seed(args.seed, 0, table.len() as u64),
        program_ms.len()
    ));
    out.info(format!(
        "passes short of 10/10 attacks and 18 vulnerable findings (as campaign_table.txt expects): {short_passes:?}"
    ));
    out.info(format!(
        "work: {journal_records} journal records per pass; error_rate {:.6} ({} of {} operations failed)",
        out.tally.error_rate(),
        out.tally.failed,
        out.tally.attempted
    ));
    out
}

/// Checks that every program of one pass finished with a
/// self-consistent summary: verified + eliminated = annotated reports,
/// one vulnerable finding per counted vulnerable race, nothing
/// quarantined. One operation per program.
fn check_pass(
    tally: &mut Tally,
    errors: &mut Vec<String>,
    pass: u64,
    programs: &[CorpusProgram],
    outcome: &owl::CampaignOutcome,
) {
    for (i, p) in programs.iter().enumerate() {
        let ok = match outcome.summary.programs.get(i).map(|s| &s.outcome) {
            Some(ProgramOutcome::Finished(s)) => {
                s.quarantined == 0
                    && s.remaining + s.verifier_eliminated == s.post_annotation_reports
                    && s.findings.len() == s.vulnerable
                    && s.vulnerable <= s.remaining
            }
            _ => false,
        };
        if !ok {
            errors.push(format!(
                "pass {pass}: {} did not finish consistently",
                p.name
            ));
        }
        tally.check(ok);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_covers_contiguous_base_seeds() {
        let t = table();
        assert!(t.len() as u64 >= BASE_SEEDS);
        assert!(t.iter().all(|e| e.attacks <= 10));
    }

    #[test]
    fn a_run_visits_distinct_base_seeds_inside_the_table() {
        for n in [16u64, 256] {
            for seed in [0, 1, 15, 16, 17, 1 << 40, u64::MAX] {
                let mut seen: Vec<u64> = (0..BASE_SEEDS).map(|p| base_seed(seed, p, n)).collect();
                assert!(seen.iter().all(|b| (1..=n).contains(b)));
                seen.sort();
                seen.dedup();
                assert_eq!(seen.len() as u64, BASE_SEEDS);
                assert_eq!(base_seed(seed, BASE_SEEDS, n), base_seed(seed, 0, n));
            }
        }
    }
}
