//! The CTrigger/AVIO integration (paper §8.3's future work): a
//! lock-protected check-then-act bug that is invisible to the
//! happens-before front-end is caught by the atomicity-violation
//! front-end, and the rest of the OWL pipeline (verification,
//! Algorithm 1, vulnerability verification) carries it to a confirmed
//! attack.

use owl::{Owl, OwlConfig, PipelineError, Stage};
use owl_corpus::extensions::bank_atomicity;
use owl_corpus::CorpusProgram;
use owl_ir::VulnClass;
use owl_race::{AtomicityDetector, AtomicityReport};
use owl_vm::{FaultPlan, RandomScheduler, Vm};
use std::time::Duration;

#[test]
fn hb_front_end_misses_the_bank_attack() {
    let p = bank_atomicity();
    let owl = Owl::new(&p.module, p.entry, OwlConfig::quick());
    let result = owl.run("Bank", &p.workloads, &p.exploit_inputs);
    assert!(
        result
            .findings
            .iter()
            .all(|f| f.race.global_name.as_deref() != Some("balance")),
        "every balance access is locked; HB must stay silent: {:?}",
        result
            .findings
            .iter()
            .map(|f| f.race.global_name.clone())
            .collect::<Vec<_>>()
    );
}

#[test]
fn atomicity_front_end_detects_the_bank_attack() {
    let p = bank_atomicity();
    let owl = Owl::new(&p.module, p.entry, OwlConfig::quick());
    let result = owl.run_atomicity("Bank", &p.workloads, &p.exploit_inputs);
    assert!(
        result.stats.raw_reports > 0,
        "the atomicity detector must flag the check-then-act window"
    );
    let finding = result
        .finding_on("balance")
        .unwrap_or_else(|| panic!("balance finding expected: {:?}", result.findings));
    assert!(
        finding.verification.confirmed,
        "the unserializable access pair verifies in the racing moment"
    );
    let dispense = finding
        .vulns
        .iter()
        .zip(&finding.vuln_verifications)
        .find(|(v, _)| v.class == VulnClass::FileOp)
        .unwrap_or_else(|| panic!("cash-dispense hint expected: {:?}", finding.vulns));
    assert!(
        dispense.1.reached,
        "the dispense site is dynamically reachable: {:?}",
        dispense.1
    );
}

#[test]
fn atomicity_reports_convert_faithfully() {
    use owl_race::{AtomicityDetector, AtomicityPattern};
    use owl_vm::{ProgramInput, RandomScheduler, RunConfig, Vm};
    let p = bank_atomicity();
    let mut det = AtomicityDetector::new();
    for seed in 0..20u64 {
        let mut sched = RandomScheduler::new(seed);
        let vm = Vm::new(
            &p.module,
            p.entry,
            ProgramInput::new(vec![80, 80, 20, 20]),
            RunConfig::default(),
        );
        let _ = vm.run(&mut sched, &mut det);
    }
    let reports = det.finish(&p.module);
    let balance_report = reports
        .iter()
        .find(|r| r.global_name.as_deref() == Some("balance"))
        .expect("balance violation");
    assert_eq!(balance_report.pattern, AtomicityPattern::RwR);
    let rr = balance_report.as_race_report();
    assert_eq!(rr.global_name.as_deref(), Some("balance"));
    assert!(rr.read_access().is_some());
}

/// The atomicity reports `run_atomicity` verifies, in its order.
fn atomicity_reports(p: &CorpusProgram, cfg: &OwlConfig) -> Vec<AtomicityReport> {
    let mut det = AtomicityDetector::new();
    for input in &p.workloads {
        for k in 0..cfg.detect.runs_per_input {
            let mut sched = RandomScheduler::new(cfg.detect.base_seed + k);
            let vm = Vm::new(
                &p.module,
                p.entry,
                input.clone(),
                cfg.detect.run_config.clone(),
            );
            let _ = vm.run(&mut sched, &mut det);
        }
    }
    det.finish(&p.module)
}

/// Stage 3 of the atomicity front-end, one report at a time with no
/// sharing between reports: attempt `k` re-executes seed
/// `base_seed + k` on the primary input. Returns `(confirmed,
/// attempts, injected_faults)` per report.
fn per_report_reference(
    p: &CorpusProgram,
    cfg: &OwlConfig,
    reports: &[AtomicityReport],
) -> Vec<(bool, u64, u64)> {
    let rv = &cfg.race_verify;
    reports
        .iter()
        .map(|report| {
            let mut faults = 0;
            for k in 0..rv.max_schedules {
                let mut re = AtomicityDetector::new();
                let mut sched = RandomScheduler::new(rv.base_seed + k);
                let vm = Vm::new(
                    &p.module,
                    p.entry,
                    p.workloads[0].clone(),
                    rv.run_config.clone(),
                );
                faults += vm.run(&mut sched, &mut re).injected_faults.len() as u64;
                if re.reports().iter().any(|r| r.key() == report.key()) {
                    return (true, k + 1, faults);
                }
            }
            (false, rv.max_schedules, faults)
        })
        .collect()
}

#[test]
fn seed_shared_verification_matches_per_report_reference() {
    let p = bank_atomicity();
    let cfg = OwlConfig::quick().with_fault_plan(FaultPlan::uniform(7, 0.02));
    let reports = atomicity_reports(&p, &cfg);
    let reference = per_report_reference(&p, &cfg, &reports);
    let result = Owl::new(&p.module, p.entry, cfg).run_atomicity("Bank", &p.workloads, &[]);

    assert_eq!(result.stats.raw_reports, reports.len());
    let confirmed: Vec<_> = reports
        .iter()
        .zip(&reference)
        .filter(|(_, (ok, _, _))| *ok)
        .map(|(r, &(_, attempts, faults))| (r.global_name.clone(), attempts, faults))
        .collect();
    let found: Vec<_> = result
        .findings
        .iter()
        .map(|f| {
            let v = &f.verification;
            (f.race.global_name.clone(), v.attempts, v.injected_faults)
        })
        .collect();
    assert_eq!(found, confirmed);
    assert!(!confirmed.is_empty() && confirmed.len() < reports.len());
    let eliminated = reference.iter().filter(|(ok, _, _)| !ok).count();
    assert_eq!(result.stats.verifier_eliminated, eliminated);
    let rv = &result.health.race_verify;
    assert_eq!(rv.attempts, reference.iter().map(|r| r.1).sum::<u64>());
    assert_eq!(
        rv.retries,
        reference.iter().map(|r| r.1.saturating_sub(1)).sum::<u64>()
    );
    assert_eq!(
        rv.injected_faults,
        reference.iter().map(|r| r.2).sum::<u64>()
    );
    assert!(rv.injected_faults > 0, "the fault plan must fire");
}

#[test]
fn stage_deadline_fires_after_an_eliminated_first_report() {
    let p = bank_atomicity();
    let mut cfg = OwlConfig::quick();
    // Verification seeds 40..44 do not re-manifest the first report.
    cfg.race_verify.base_seed = 40;
    let reports = atomicity_reports(&p, &cfg);
    let reference = per_report_reference(&p, &cfg, &reports);
    assert!(reports.len() >= 2);
    assert!(
        !reference[0].0,
        "the first atomicity report must be unconfirmed"
    );

    let owl = Owl::new(&p.module, p.entry, cfg.with_stage_deadline(Duration::ZERO));
    let result = owl.run_atomicity("Bank", &p.workloads, &[]);
    // The first report is processed (and eliminated); the expired
    // deadline then quarantines every later one.
    assert_eq!(result.stats.verifier_eliminated, 1);
    assert!(result.findings.is_empty());
    assert_eq!(result.quarantined.len(), reports.len() - 1);
    for q in &result.quarantined {
        assert_eq!(
            q.error,
            PipelineError::StageDeadline {
                stage: Stage::RaceVerify
            }
        );
    }
    assert_eq!(result.health.race_verify.deadline_hits, 1);
}
