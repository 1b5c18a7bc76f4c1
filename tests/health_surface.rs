//! Exhaustiveness guard for the health-counter surfaces.
//!
//! `PipelineHealth` counters cross four serialization boundaries: the
//! run journal's `encode_health`, `owl-cli run --json`, `owl-cli
//! campaign --json` (plus its `BENCH_campaign.json` metrics), and the
//! daemon's `status` response. Each surface is hand-written, so a new
//! counter added to the struct can silently miss one of them. This
//! suite makes that a test failure:
//!
//! * the struct is destructured with no `..` — adding a field breaks
//!   compilation here until the expected-key table below is updated;
//! * every counter key must appear, with its exact value, in
//!   `encode_health` output;
//! * every counter key must appear in the real CLI's `run --json` and
//!   `campaign --json` output;
//! * the daemon's `StatusReport` must survive an encode/parse
//!   round-trip with every field set to a distinct value, and a live
//!   daemon run must carry the predict counters end to end.

#![cfg(unix)]

use owl::journal::encode_health;
use owl::serve::{
    encode_request, encode_response, parse_response, serve, Request, Response, ServeConfig,
    StatusReport,
};
use owl::{OwlConfig, PipelineHealth, StageHealth};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

/// A `PipelineHealth` with every counter set to a distinct value, and
/// the exact key/value pairs each JSON surface must carry for it.
/// Destructuring with no `..` is the exhaustiveness guard: a new
/// field fails compilation here until it is added to the table (or
/// consciously exempted like `points_to_solve`, which is a duration,
/// not a counter).
fn distinct_health() -> (PipelineHealth, Vec<(&'static str, u64)>) {
    let stage = |base: u64| StageHealth {
        attempts: base,
        retries: base + 1,
        injected_faults: base + 2,
        deadline_hits: base + 3,
        panics: base + 4,
        quarantined: base + 5,
    };
    let h = PipelineHealth {
        detect: stage(100),
        race_verify: stage(200),
        vuln_analyze: stage(300),
        vuln_verify: stage(400),
        summary_cache_hits: 501,
        summary_cache_misses: 502,
        points_to_solve: Duration::from_millis(503),
        journal_discarded_bytes: 504,
        journal_discarded_records: 505,
        detector_suppressed: 506,
        detector_reports_dropped: 507,
        elision_sites_thread_local: 508,
        elision_sites_lock_dominated: 509,
        elision_sites_read_only: 510,
        elision_events_elided: 511,
        shadow_cells_gced: 515,
        units_aborted_mem_budget: 516,
        predict_candidates: 517,
        predict_witnessed: 518,
        predict_witness_rejected: 519,
        predict_reversal_races: 520,
        units_forked: 521,
        prefix_steps_saved: 522,
        schedules_deduped: 523,
        snapshot_bytes: 524,
    };
    // Re-bind by exhaustive destructuring so a new field cannot be
    // added without revisiting this function.
    let PipelineHealth {
        detect: _,
        race_verify: _,
        vuln_analyze: _,
        vuln_verify: _,
        summary_cache_hits,
        summary_cache_misses,
        points_to_solve: _,
        journal_discarded_bytes,
        journal_discarded_records,
        detector_suppressed,
        detector_reports_dropped,
        elision_sites_thread_local,
        elision_sites_lock_dominated,
        elision_sites_read_only,
        elision_events_elided,
        shadow_cells_gced,
        units_aborted_mem_budget,
        predict_candidates,
        predict_witnessed,
        predict_witness_rejected,
        predict_reversal_races,
        units_forked,
        prefix_steps_saved,
        schedules_deduped,
        snapshot_bytes,
    } = h.clone();
    let keys = vec![
        ("summary_cache_hits", summary_cache_hits),
        ("summary_cache_misses", summary_cache_misses),
        ("journal_discarded_bytes", journal_discarded_bytes),
        ("journal_discarded_records", journal_discarded_records),
        ("detector_suppressed", detector_suppressed),
        ("detector_reports_dropped", detector_reports_dropped),
        ("elision_sites_thread_local", elision_sites_thread_local),
        ("elision_sites_lock_dominated", elision_sites_lock_dominated),
        ("elision_sites_read_only", elision_sites_read_only),
        ("elision_events_elided", elision_events_elided),
        ("shadow_cells_gced", shadow_cells_gced),
        ("units_aborted_mem_budget", units_aborted_mem_budget),
        ("predict_candidates", predict_candidates),
        ("predict_witnessed", predict_witnessed),
        ("predict_witness_rejected", predict_witness_rejected),
        ("predict_reversal_races", predict_reversal_races),
        ("units_forked", units_forked),
        ("prefix_steps_saved", prefix_steps_saved),
        ("schedules_deduped", schedules_deduped),
        ("snapshot_bytes", snapshot_bytes),
    ];
    (h, keys)
}

#[test]
fn encode_health_carries_every_counter() {
    let (h, keys) = distinct_health();
    let json = encode_health(&h).to_json_string();
    for (key, value) in keys {
        assert!(
            json.contains(&format!("\"{key}\":{value}")),
            "encode_health dropped `{key}` (expected {value}):\n{json}"
        );
    }
}

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_owl_cli"))
}

fn run_ok(args: &[&str]) -> String {
    let out = cli().args(args).output().expect("spawn owl_cli");
    assert!(
        out.status.success(),
        "owl_cli {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 output")
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("owl-health-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn run_json_carries_every_health_counter() {
    let (_, keys) = distinct_health();
    let out = run_ok(&["run", "SSDB", "--quick", "--json", "--hb-backend", "syncp"]);
    for (key, _) in keys {
        assert!(
            out.contains(&format!("\"{key}\":")),
            "run --json dropped `{key}`:\n{out}"
        );
    }
}

#[test]
fn campaign_json_and_metrics_carry_every_health_counter() {
    let (_, keys) = distinct_health();
    let dir = scratch_dir("campaign");
    let metrics = scratch_dir("campaign-metrics");
    let out = run_ok(&[
        "campaign",
        dir.to_str().unwrap(),
        "--quick",
        "--json",
        "--hb-backend",
        "syncp",
        "--metrics",
        metrics.to_str().unwrap(),
    ]);
    for (key, _) in &keys {
        assert!(
            out.contains(&format!("\"{key}\":")),
            "campaign --json dropped `{key}`:\n{out}"
        );
    }
    let bench = std::fs::read_to_string(metrics.join("BENCH_campaign.json"))
        .expect("campaign metrics artifact");
    for key in [
        "predict_candidates",
        "predict_witnessed",
        "predict_witness_rejected",
        "predict_reversal_races",
        "units_forked",
        "prefix_steps_saved",
        "schedules_deduped",
        "snapshot_bytes",
    ] {
        assert!(
            bench.contains(key),
            "BENCH_campaign.json dropped `{key}`:\n{bench}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&metrics);
}

/// Every `StatusReport` field — constructed exhaustively, so a new
/// field breaks this test until the wire format handles it — must
/// survive the daemon protocol's encode/parse round-trip.
#[test]
fn status_report_round_trips_every_field() {
    let report = StatusReport {
        queue_depth: 1,
        active: 2,
        inflight_bytes: 3,
        draining: true,
        executed: 4,
        cache_hits: 5,
        shed_queue_full: 6,
        shed_too_large: 7,
        shed_draining: 8,
        stored: 9,
        recovery_discarded_bytes: 10,
        recovery_discarded_records: 11,
        elision_sites_thread_local: 12,
        elision_sites_lock_dominated: 13,
        elision_sites_read_only: 14,
        elision_events_elided: 15,
        elision_solve_us: 16,
        shadow_cells_gced: 20,
        units_aborted_mem_budget: 21,
        predict_candidates: 22,
        predict_witnessed: 23,
        predict_witness_rejected: 24,
        predict_reversal_races: 25,
        units_forked: 26,
        prefix_steps_saved: 27,
        schedules_deduped: 28,
        snapshot_bytes: 29,
    };
    let line = encode_response(&Response::Status(Box::new(report.clone())));
    match parse_response(&line).expect("parseable status") {
        Response::Status(parsed) => assert_eq!(*parsed, report),
        other => panic!("expected status, got {other:?}"),
    }
}

/// A live daemon configured with a predictive backend must surface the
/// predict counters through `status`, matching a direct library run of
/// the same program under the same configuration.
#[test]
fn serve_status_carries_predict_counters_end_to_end() {
    let mut quick = OwlConfig::quick();
    quick.detect.hb_backend = owl::owl_race::HbBackend::SyncPreserving;

    // Ground truth: the same program through the library pipeline.
    let p = owl::owl_corpus::program("SSDB").expect("corpus program");
    let local = owl::Owl::new(&p.module, p.entry, quick.clone());
    let expected = local.run(p.name, &p.workloads, &p.exploit_inputs).health;

    let dir = scratch_dir("serve");
    let mut cfg = ServeConfig::new(&dir);
    cfg.owl = quick;
    let socket = cfg.socket.clone();
    let handle = std::thread::spawn(move || serve(cfg));
    let deadline = Instant::now() + Duration::from_secs(10);
    while !socket.exists() {
        assert!(Instant::now() < deadline, "daemon never bound {socket:?}");
        std::thread::sleep(Duration::from_millis(10));
    }

    let request = |req: &Request| -> Response {
        let stream = UnixStream::connect(&socket).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut stream = stream;
        let mut line = encode_request(req);
        line.push('\n');
        stream.write_all(line.as_bytes()).expect("write");
        loop {
            let mut resp = String::new();
            assert!(
                reader.read_line(&mut resp).expect("read") > 0,
                "daemon died"
            );
            match parse_response(&resp).expect("parseable") {
                Response::Accepted { .. } => continue,
                terminal => return terminal,
            }
        }
    };

    // quick=false routes the submit through `cfg.owl` — the predictive
    // quick config installed above.
    match request(&Request::Submit {
        program: "SSDB".to_string(),
        quick: false,
        deadline_ms: None,
        sleep_ms: 0,
        inject_panic: false,
    }) {
        Response::Result { .. } => {}
        other => panic!("expected a result, got {other:?}"),
    }
    let status = match request(&Request::Status) {
        Response::Status(s) => s,
        other => panic!("expected status, got {other:?}"),
    };
    assert_eq!(status.predict_candidates, expected.predict_candidates);
    assert_eq!(status.predict_witnessed, expected.predict_witnessed);
    assert_eq!(
        status.predict_witness_rejected,
        expected.predict_witness_rejected
    );
    assert_eq!(
        status.predict_reversal_races,
        expected.predict_reversal_races
    );
    assert!(
        status.predict_candidates > 0,
        "SSDB under syncp produced no prediction candidates — the \
         end-to-end check is inert"
    );

    match request(&Request::Shutdown) {
        Response::Bye => {}
        other => panic!("expected bye, got {other:?}"),
    }
    handle.join().expect("daemon thread").expect("clean exit");
    let _ = std::fs::remove_dir_all(&dir);
}
