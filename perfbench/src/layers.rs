//! The traced run (`--trace 1`): the workload's programs replayed stage
//! by stage through each layer's public functions, with every call
//! timed from here, beside an untraced `Owl::run` of the same program.
//!
//! The replay must reproduce `Owl::run` exactly — raw and annotated
//! report counts, every verifier verdict, every finding — or the run
//! fails. Its cost over the untraced run is reported as
//! `trace.overhead_ratio`. Besides the pipeline stages it probes the
//! VM (construction, snapshot/resume, a plain run), the explorer's
//! inline no-fork path, the journal (one pass's records appended to a
//! fresh journal) and the serve layer (program resolution, corpus
//! build, a `serve-mixed` daemon pass and the open of its store).

use crate::stats::{self, median, percentile};
use crate::{campaign, detect, gen, serve, Args, Outcome};
use owl::journal::{unit_key, RecordedVuln};
use owl::owl_corpus::{self, CorpusProgram};
use owl::owl_ir::analysis::{CallGraph, PointsTo};
use owl::owl_ir::{FuncId, Module};
use owl::owl_race::{explore, ExploreResult, ExplorerConfig, RaceReport};
use owl::owl_static::{AdhocSyncDetector, ElisionPrepass, SummaryCache, VulnAnalyzer, VulnReport};
use owl::owl_verify::{RaceVerifier, VerifyOutcome, VulnVerifier};
use owl::owl_vm::{NullSink, ProgramInput, RandomScheduler, Vm};
use owl::serve::{resolve_program, ResultStore};
use owl::{
    campaign_fingerprint, Finding, Journal, JournalRecord, Owl, OwlConfig, PipelineResult,
    PipelineStats, ProgramSummary,
};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Repetitions of each micro-probe (VM construction, resume, store
/// open, program resolution); the median is kept.
const PROBE_REPS: usize = 15;

/// One program at one configuration.
struct Target<'a> {
    name: &'a str,
    module: &'a Module,
    entry: FuncId,
    workloads: &'a [ProgramInput],
    extra: &'a [ProgramInput],
    cfg: OwlConfig,
}

impl<'a> Target<'a> {
    fn corpus(p: &'a CorpusProgram, cfg: OwlConfig) -> Self {
        Target {
            name: p.name,
            module: &p.module,
            entry: p.entry,
            workloads: &p.workloads,
            extra: &p.exploit_inputs,
            cfg,
        }
    }

    fn primary(&self) -> ProgramInput {
        self.workloads
            .first()
            .cloned()
            .unwrap_or_else(ProgramInput::empty)
    }
}

const NO_INPUTS: [ProgramInput; 0] = [];

/// Deterministic work counted in one pass; must repeat exactly.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct Work {
    explore_runs: u64,
    explore_steps: u64,
    units_forked: u64,
    schedules_deduped: u64,
    reports: u64,
    confirmed: u64,
    rv_attempts: u64,
    vv_schedules: u64,
    vv_hints: u64,
    vv_reached: u64,
    sites_elided: u64,
    vm_steps: u64,
}

/// Layer timings and samples, summed over passes.
#[derive(Default)]
struct Layers {
    work: Work,
    race_verify: Duration,
    report_us: Vec<f64>,
    construct_x_attempts_us: f64,
    vm_construct_us: Vec<f64>,
    vm_resume_us: Vec<f64>,
    vm_run: Duration,
    explore: Duration,
    explore_inline: Duration,
    elide: Duration,
    adhoc: Duration,
    vuln_analyze: Duration,
    vuln_verify: Duration,
    staged: Duration,
    untraced: Duration,
}

/// What the staged replay of one target produced.
struct Staged {
    result: PipelineResult,
    verdicts: Vec<(RaceReport, owl::owl_verify::RaceVerification)>,
    raw: ExploreResult,
    reduced: ExploreResult,
    detect_cfg: ExplorerConfig,
}

fn add_sweep(w: &mut Work, r: &ExploreResult) {
    w.explore_runs += r.runs;
    w.explore_steps += r.outcomes.iter().map(|o| o.steps).sum::<u64>();
    w.units_forked += r.units_forked;
    w.schedules_deduped += r.schedules_deduped;
}

/// Stages 0–5 of `Owl::run`, one public call at a time.
fn staged(t: &Target<'_>, l: &mut Layers) -> Staged {
    let cfg = &t.cfg;
    let (m, entry) = (t.module, t.entry);
    let default_inputs = [ProgramInput::empty()];
    let workloads = if t.workloads.is_empty() {
        &default_inputs[..]
    } else {
        t.workloads
    };

    let mut detect_cfg = cfg.detect.clone();
    detect_cfg.stream.tag_prefix = t.name.to_string();
    if cfg.elide {
        let t0 = Instant::now();
        let pre = ElisionPrepass::run(m, entry);
        l.elide += t0.elapsed();
        l.work.sites_elided += pre.stats().sites_elided as u64;
        detect_cfg.elided_sites = Some(pre.elided_sites());
    }

    let t0 = Instant::now();
    let raw = explore(m, entry, workloads, &detect_cfg);
    l.explore += t0.elapsed();
    add_sweep(&mut l.work, &raw);

    let t0 = Instant::now();
    let annotations: Vec<_> = AdhocSyncDetector::new(m)
        .detect(&raw.reports)
        .into_iter()
        .map(|(_, a)| a)
        .collect();
    l.adhoc += t0.elapsed();
    let annotated = ExplorerConfig {
        annotations: annotations.clone(),
        ..detect_cfg.clone()
    };
    let t0 = Instant::now();
    let reduced = explore(m, entry, workloads, &annotated);
    l.explore += t0.elapsed();
    add_sweep(&mut l.work, &reduced);

    let mut stats = PipelineStats {
        raw_reports: raw.reports.len(),
        adhoc_syncs: annotations.len(),
        post_annotation_reports: reduced.reports.len(),
        ..PipelineStats::default()
    };
    let primary = workloads[0].clone();
    let verifier = RaceVerifier::new(m, cfg.race_verify.clone());
    let mut verdicts = Vec::new();
    for report in &reduced.reports {
        let t0 = Instant::now();
        let v = verifier.verify(entry, &primary, report);
        let dt = t0.elapsed();
        l.race_verify += dt;
        l.report_us.push(dt.as_secs_f64() * 1e6);
        l.work.reports += 1;
        l.work.rv_attempts += v.attempts;
        if v.verdict == VerifyOutcome::Confirmed {
            l.work.confirmed += 1;
        } else {
            stats.verifier_eliminated += 1;
        }
        verdicts.push((report.clone(), v));
    }

    // Stage 4 split over workers the way `Owl::run` splits it, so the
    // time is the stage's wall time.
    let t0 = Instant::now();
    let points_to = cfg.vuln.points_to.then(|| Arc::new(PointsTo::new(m)));
    let callgraph = cfg.vuln.summaries.then(|| {
        Arc::new(match &points_to {
            Some(p) => CallGraph::with_points_to(m, p),
            None => CallGraph::new(m),
        })
    });
    let cache = cfg.vuln.summaries.then(|| Arc::new(SummaryCache::new()));
    let make_analyzer = || {
        VulnAnalyzer::with_shared(
            m,
            cfg.vuln.clone(),
            points_to.clone(),
            callgraph.clone(),
            cache.clone(),
        )
    };
    let analyze = |analyzer: &mut VulnAnalyzer<'_>, race: &RaceReport| {
        race.read_access()
            .map(|r| analyzer.analyze(r.site, &r.stack).0)
            .unwrap_or_default()
    };
    let confirmed: Vec<_> = verdicts
        .iter()
        .filter(|(_, v)| v.verdict == VerifyOutcome::Confirmed)
        .collect();
    let n = confirmed.len();
    let vulns: Vec<Vec<VulnReport>> = if cfg.stage_deadline.is_none() && n >= 2 {
        let workers = std::thread::available_parallelism()
            .map_or(1, |p| p.get())
            .min(n);
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Vec<VulnReport>>> = (0..n).map(|_| Mutex::default()).collect();
        std::thread::scope(|sc| {
            for _ in 0..workers {
                sc.spawn(|| {
                    let mut analyzer = make_analyzer();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let v = analyze(&mut analyzer, &confirmed[i].0);
                        *slots[i].lock().expect("stage-4 worker panicked") = v;
                    }
                });
            }
        });
        slots
            .into_iter()
            .map(|s| s.into_inner().expect("stage-4 worker panicked"))
            .collect()
    } else {
        let mut analyzer = make_analyzer();
        confirmed
            .iter()
            .map(|(race, _)| analyze(&mut analyzer, race))
            .collect()
    };
    let mut findings: Vec<Finding> = confirmed
        .iter()
        .zip(vulns)
        .map(|((race, v), vulns)| Finding {
            race: race.clone(),
            verification: v.clone(),
            vulns,
            vuln_verifications: Vec::new(),
        })
        .collect();
    l.vuln_analyze += t0.elapsed();

    let t0 = Instant::now();
    let vuln_verifier = VulnVerifier::new(m, cfg.vuln_verify.clone());
    let mut candidates = workloads.to_vec();
    candidates.extend_from_slice(t.extra);
    for f in &mut findings {
        for vr in &f.vulns {
            let v = vuln_verifier.verify(entry, &candidates, vr);
            l.work.vv_hints += 1;
            l.work.vv_schedules += v.attempts;
            l.work.vv_reached += u64::from(v.reached);
            f.vuln_verifications.push(v);
        }
    }
    l.vuln_verify += t0.elapsed();

    stats.remaining = findings.len();
    stats.vulnerable = findings.iter().filter(|f| !f.vulns.is_empty()).count();
    Staged {
        result: PipelineResult {
            program: t.name.to_string(),
            stats,
            annotations,
            findings,
            quarantined: Vec::new(),
            health: Default::default(),
            error: None,
        },
        verdicts,
        raw,
        reduced,
        detect_cfg,
    }
}

/// Differences between `Owl::run`'s result and the staged replay's.
fn compare(name: &str, run: &PipelineResult, s: &Staged) -> Vec<String> {
    let mut diffs = Vec::new();
    if let Some(e) = &run.error {
        diffs.push(format!("{name}: Owl::run failed: {e}"));
    }
    if !run.quarantined.is_empty() {
        diffs.push(format!(
            "{name}: Owl::run quarantined {}",
            run.quarantined.len()
        ));
    }
    let (a, b) = (&run.stats, &s.result.stats);
    let counts = |x: &PipelineStats| {
        (
            x.raw_reports,
            x.adhoc_syncs,
            x.post_annotation_reports,
            x.verifier_eliminated,
            x.remaining,
            x.vulnerable,
        )
    };
    if counts(a) != counts(b) {
        diffs.push(format!(
            "{name}: counts (raw, adhoc, annotated, eliminated, remaining, vulnerable) {:?} vs replay {:?}",
            counts(a),
            counts(b)
        ));
    }
    if ProgramSummary::from_result(run) != ProgramSummary::from_result(&s.result) {
        diffs.push(format!("{name}: program summaries differ"));
    }
    let same_findings = run.findings.len() == s.result.findings.len()
        && run.findings.iter().zip(&s.result.findings).all(|(x, y)| {
            x.race == y.race
                && x.verification.verdict == y.verification.verdict
                && x.verification.attempts == y.verification.attempts
                && x.vulns == y.vulns
                && x.vuln_verifications.len() == y.vuln_verifications.len()
                && x.vuln_verifications
                    .iter()
                    .zip(&y.vuln_verifications)
                    .all(|(p, q)| {
                        (p.reached, p.verdict, p.attempts) == (q.reached, q.verdict, q.attempts)
                    })
        });
    if !same_findings {
        diffs.push(format!("{name}: findings or verifier verdicts differ"));
    }
    diffs
}

/// The journal records a campaign writes for this program.
fn records(t: &Target<'_>, s: &Staged) -> Vec<JournalRecord> {
    let mut recs: Vec<JournalRecord> = s
        .verdicts
        .iter()
        .map(|(report, v)| JournalRecord::ReportVerified {
            program: t.name.to_string(),
            key: unit_key(report),
            global: report.global_name.clone(),
            confirmed: v.verdict == VerifyOutcome::Confirmed,
            attempts: v.attempts,
            injected_faults: v.injected_faults,
        })
        .collect();
    for f in &s.result.findings {
        recs.push(JournalRecord::FindingAnalyzed {
            program: t.name.to_string(),
            key: unit_key(&f.race),
            global: f.race.global_name.clone(),
            vulns: f
                .vulns
                .iter()
                .zip(&f.vuln_verifications)
                .map(|(report, v)| RecordedVuln {
                    report: report.clone(),
                    reached: v.reached,
                    verdict: v.verdict,
                    attempts: v.attempts,
                    injected_faults: v.injected_faults,
                })
                .collect(),
        });
    }
    recs.push(JournalRecord::ProgramFinished {
        program: t.name.to_string(),
        attempts: 1,
        summary: ProgramSummary::from_result(&s.result),
    });
    recs
}

/// VM probes on the primary input: construction, snapshot + resume at
/// the first concurrent point, and a plain run with a null sink.
fn probe_vm(t: &Target<'_>, attempts: u64, l: &mut Layers) {
    let rc = &t.cfg.race_verify.run_config;
    let construct: Vec<f64> = (0..PROBE_REPS)
        .map(|_| {
            let t0 = Instant::now();
            let vm = Vm::new(t.module, t.entry, t.primary(), rc.clone());
            let dt = t0.elapsed();
            drop(vm);
            dt.as_secs_f64() * 1e6
        })
        .collect();
    let c = median(&construct);
    l.vm_construct_us.push(c);
    l.construct_x_attempts_us += c * attempts as f64;

    let mut vm = Vm::new(t.module, t.entry, t.primary(), rc.clone());
    if vm
        .run_until_concurrent(&mut RandomScheduler::new(1), &mut NullSink)
        .is_none()
    {
        let resume: Vec<f64> = (0..PROBE_REPS)
            .map(|_| {
                let t0 = Instant::now();
                let copy = Vm::resume(t.module, vm.snapshot());
                let dt = t0.elapsed();
                drop(copy);
                dt.as_secs_f64() * 1e6
            })
            .collect();
        l.vm_resume_us.push(median(&resume));
    }

    let t0 = Instant::now();
    let out = Vm::new(t.module, t.entry, t.primary(), rc.clone())
        .run(&mut RandomScheduler::new(1), &mut NullSink);
    l.vm_run += t0.elapsed();
    l.work.vm_steps += out.steps;
}

/// Both detection sweeps again on the inline, no-fork path; their
/// reports must equal the default path's.
fn probe_inline(t: &Target<'_>, s: &Staged, l: &mut Layers) -> Option<String> {
    let default_inputs = [ProgramInput::empty()];
    let workloads = if t.workloads.is_empty() {
        &default_inputs[..]
    } else {
        t.workloads
    };
    let mut cfg = s.detect_cfg.clone();
    cfg.stream.channel_capacity = 0;
    cfg.fork = false;
    let t0 = Instant::now();
    let raw = explore(t.module, t.entry, workloads, &cfg);
    cfg.annotations = s.result.annotations.clone();
    let reduced = explore(t.module, t.entry, workloads, &cfg);
    l.explore_inline += t0.elapsed();
    (raw.reports != s.raw.reports || reduced.reports != s.reduced.reports)
        .then(|| format!("{}: inline no-fork sweep reports differ", t.name))
}

/// Appends `recs` to fresh journals under `dir` until at least
/// `min_appends` appends were timed; returns the bytes of one copy.
fn replay_journal(
    dir: &Path,
    recs: &[JournalRecord],
    min_appends: usize,
    samples: &mut Vec<f64>,
) -> Result<u64, String> {
    let mut bytes = 0;
    let mut copy = 0;
    while copy == 0 || (samples.len() < min_appends && !recs.is_empty()) {
        let path = dir.join(format!("replay{copy}.jsonl"));
        let mut j = Journal::open(&path).map_err(|e| e.to_string())?;
        for r in recs {
            let t0 = Instant::now();
            j.append(r.clone()).map_err(|e| e.to_string())?;
            samples.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        drop(j);
        bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
        let _ = std::fs::remove_file(&path);
        copy += 1;
    }
    Ok(bytes)
}

/// Medians of `PROBE_REPS` timings of `f`, in the unit `scale` gives.
fn probe(scale: f64, mut f: impl FnMut()) -> f64 {
    let v: Vec<f64> = (0..PROBE_REPS)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * scale
        })
        .collect();
    median(&v)
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let corpus = owl_corpus::all_programs();
    let generated = gen::sweep(detect::sweep_seed(args.seed, 0), detect::PROGRAMS);
    let base = campaign::base_seed(args.seed, 0, campaign::table().len() as u64);
    let targets: Vec<Target<'_>> = match args.workload.as_str() {
        "corpus-campaign" => {
            let cfg = campaign::config(base).owl;
            corpus
                .iter()
                .map(|p| Target::corpus(p, cfg.clone()))
                .collect()
        }
        "detect-heavy" => generated
            .iter()
            .map(|p| Target {
                name: &p.name,
                module: &p.module,
                entry: p.entry,
                workloads: &NO_INPUTS,
                extra: &NO_INPUTS,
                cfg: detect::config(),
            })
            .collect(),
        _ => corpus
            .iter()
            .flat_map(|p| {
                [
                    Target::corpus(p, OwlConfig::default()),
                    Target::corpus(p, OwlConfig::quick()),
                ]
            })
            .collect(),
    };

    let mut l = Layers::default();
    let mut first_work: Option<Work> = None;
    let mut pass_records: Vec<JournalRecord> = Vec::new();
    let mut passes = 0u32;
    let start = Instant::now();
    while passes == 0 || start.elapsed() < args.seconds {
        l.work = Work::default();
        pass_records.clear();
        for t in &targets {
            // Alternate which side runs first, so warm-up favours
            // neither.
            let untraced = |l: &mut Layers| {
                let t0 = Instant::now();
                let run =
                    Owl::new(t.module, t.entry, t.cfg.clone()).run(t.name, t.workloads, t.extra);
                l.untraced += t0.elapsed();
                run
            };
            let attempts_before = l.work.rv_attempts;
            let run = (passes % 2 == 1).then(|| untraced(&mut l));
            let t0 = Instant::now();
            let s = staged(t, &mut l);
            l.staged += t0.elapsed();
            let run = run.unwrap_or_else(|| untraced(&mut l));
            let diffs = compare(t.name, &run, &s);
            out.tally.check(diffs.is_empty());
            out.errors.extend(diffs);
            probe_vm(t, l.work.rv_attempts - attempts_before, &mut l);
            if let Some(e) = probe_inline(t, &s, &mut l) {
                out.error(e);
            }
            pass_records.extend(records(t, &s));
        }
        let w = l.work.clone();
        match &first_work {
            Some(f) if *f != w => out.error(format!(
                "pass {passes}: work counters changed: {w:?} vs {f:?}"
            )),
            _ => {}
        }
        first_work.get_or_insert(w);
        passes += 1;
        if !out.errors.is_empty() {
            break;
        }
    }
    let work = first_work.unwrap_or_default();

    // The journal layer: one pass's records appended to a fresh
    // journal. On corpus-campaign they are a real campaign pass's
    // records, which must equal the replay's.
    let names: Vec<String> = targets.iter().map(|t| t.name.to_string()).collect();
    let mut recs = vec![JournalRecord::CampaignStarted {
        fingerprint: campaign_fingerprint(&targets[0].cfg, &names),
        programs: names,
    }];
    recs.extend(pass_records);
    let jdir = args.work.join("journal");
    let _ = std::fs::create_dir_all(&jdir);
    if args.workload == "corpus-campaign" {
        let path = jdir.join("campaign.jsonl");
        let cfg = campaign::config(base);
        match campaign::timed_pass(&path, &corpus, &cfg).0 {
            Ok(_) => match Journal::open(&path) {
                Ok(j) if j.records() == recs.as_slice() => {}
                Ok(j) => out.error(format!(
                    "campaign journal ({} records) differs from the replay's ({} records)",
                    j.records().len(),
                    recs.len()
                )),
                Err(e) => out.error(format!("campaign journal: {e}")),
            },
            Err(e) => out.error(format!("campaign pass: {e}")),
        }
        let _ = std::fs::remove_file(&path);
    }
    let mut append_us = Vec::new();
    let journal_bytes =
        match replay_journal(&jdir, &recs, stats::samples_needed(99), &mut append_us) {
            Ok(b) => b,
            Err(e) => {
                out.error(format!("journal replay: {e}"));
                0
            }
        };

    // The serve layer.
    let corpus_build_ms = probe(1e3, || drop(owl_corpus::all_programs()));
    let resolve: Vec<f64> = corpus
        .iter()
        .map(|p| probe(1e6, || drop(resolve_program(p.name))))
        .collect();
    // One daemon pass (the serve-mixed session) on every workload, so
    // the serve layer's figures come from real requests.
    let sdir = args.work.join("serve");
    let session = serve::session(&sdir, args.seed, 0);
    for e in &session.errors {
        out.error(format!("serve pass: {e}"));
    }
    let executions: u64 = session.reports.iter().map(|r| r.executed).sum();
    let hits: u64 = session.reports.iter().map(|r| r.cache_hits).sum();
    let st = session
        .reports
        .first()
        .map(|r| r.store_stats)
        .unwrap_or_default();
    let hit_ratio = hits as f64 / (hits + executions) as f64;
    let records_per_fsync = st.batched_records as f64 / st.batches as f64;
    let store_path = sdir.join("store.jsonl");
    let store_open_ms = probe(1e3, || drop(ResultStore::open(&store_path)));

    let n = f64::from(passes);
    let ms = |d: Duration| d.as_secs_f64() * 1e3 / n;
    let rv_busy_ms = ms(l.race_verify);
    out.metric("race_verify.busy_ms", rv_busy_ms, "ms");
    out.metric("race_verify.report_us.p50", median(&l.report_us), "us");
    out.metric(
        "race_verify.report_us.p90",
        percentile(&l.report_us, 90.0),
        "us",
    );
    out.metric("race_verify.attempts", work.rv_attempts as f64, "count");
    out.metric(
        "race_verify.attempts_per_report",
        work.rv_attempts as f64 / work.reports as f64,
        "ratio",
    );
    out.metric(
        "race_verify.confirmed_ratio",
        work.confirmed as f64 / work.reports as f64,
        "ratio",
    );
    out.metric(
        "race_verify.vm_construct_share",
        l.construct_x_attempts_us / n / 1e3 / rv_busy_ms,
        "ratio",
    );
    out.metric("vm.construct_us", median(&l.vm_construct_us), "us");
    out.metric("vm.resume_us", median(&l.vm_resume_us), "us");
    out.metric(
        "vm.steps_per_s",
        work.vm_steps as f64 * n / l.vm_run.as_secs_f64(),
        "1/s",
    );
    out.metric("vm.steps", work.vm_steps as f64, "count");
    let explore_ms = ms(l.explore);
    out.metric("explore.busy_ms", explore_ms, "ms");
    out.metric("explore.runs", work.explore_runs as f64, "count");
    out.metric("explore.steps", work.explore_steps as f64, "count");
    out.metric(
        "explore.steps_per_s",
        work.explore_steps as f64 / (explore_ms / 1e3),
        "1/s",
    );
    out.metric("explore.units_forked", work.units_forked as f64, "count");
    out.metric(
        "explore.schedules_deduped",
        work.schedules_deduped as f64,
        "count",
    );
    out.metric("explore.inline_busy_ms", ms(l.explore_inline), "ms");
    out.metric("elide.solve_ms", ms(l.elide), "ms");
    out.metric("elide.sites_elided", work.sites_elided as f64, "count");
    out.metric("adhoc.busy_ms", ms(l.adhoc), "ms");
    out.metric("vuln_analyze.busy_ms", ms(l.vuln_analyze), "ms");
    out.metric("vuln_verify.busy_ms", ms(l.vuln_verify), "ms");
    out.metric("vuln_verify.schedules", work.vv_schedules as f64, "count");
    out.metric(
        "vuln_verify.reached_ratio",
        work.vv_reached as f64 / work.vv_hints as f64,
        "ratio",
    );
    out.metric("journal.append_us.p50", median(&append_us), "us");
    out.metric("journal.append_us.p99", percentile(&append_us, 99.0), "us");
    out.metric("journal.appends", recs.len() as f64, "count");
    out.metric("journal.bytes", journal_bytes as f64, "bytes");
    out.metric("serve.resolve_us", median(&resolve), "us");
    out.metric("corpus.build_ms", corpus_build_ms, "ms");
    out.metric("serve.store_open_ms", store_open_ms, "ms");
    out.metric("serve.records_per_fsync", records_per_fsync, "ratio");
    out.metric("serve.hit_ratio", hit_ratio, "ratio");
    out.metric("serve.executions", executions as f64, "count");
    out.metric("serve.hits", hits as f64, "count");
    out.metric(
        "trace.overhead_ratio",
        l.staged.as_secs_f64() / l.untraced.as_secs_f64() - 1.0,
        "ratio",
    );

    out.info(format!(
        "{passes} traced passes over {} programs; staged replay {:.1} ms vs Owl::run {:.1} ms per pass",
        targets.len(),
        ms(l.staged),
        ms(l.untraced)
    ));
    out.info(format!(
        "samples: {} race-verify reports (p90 needs {}), {} journal appends (p99 needs {})",
        l.report_us.len(),
        stats::samples_needed(90),
        append_us.len(),
        stats::samples_needed(99)
    ));
    out.info(format!("work per pass: {work:?}"));
    out
}
