//! Probe: fork-mode vs scratch explorer wall time per corpus program,
//! with the fork counters. Faster to iterate on than the full bench.
//!
//! `cargo run --release -p owl-bench --example fork_timing [reps]`

use std::time::Instant;

fn main() {
    let reps: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(5);
    let mut tot_f = 0u128;
    let mut tot_s = 0u128;
    for p in owl_corpus::all_programs() {
        let forked_cfg = owl_race::ExplorerConfig {
            runs_per_input: 32,
            ..owl_race::ExplorerConfig::default()
        };
        let scratch_cfg = owl_race::ExplorerConfig {
            fork: false,
            ..forked_cfg.clone()
        };
        // Warm-up + correctness guard.
        let rf = owl_race::explore(&p.module, p.entry, &p.workloads, &forked_cfg);
        let rs = owl_race::explore(&p.module, p.entry, &p.workloads, &scratch_cfg);
        assert_eq!(rf.reports, rs.reports);
        let mut best_f = u128::MAX;
        let mut best_s = u128::MAX;
        for _ in 0..reps {
            let t = Instant::now();
            let _ = owl_race::explore(&p.module, p.entry, &p.workloads, &forked_cfg);
            best_f = best_f.min(t.elapsed().as_micros());
            let t = Instant::now();
            let _ = owl_race::explore(&p.module, p.entry, &p.workloads, &scratch_cfg);
            best_s = best_s.min(t.elapsed().as_micros());
        }
        tot_f += best_f;
        tot_s += best_s;
        println!(
            "{:12} forked {:7}us scratch {:7}us ratio {:.3} deduped {:3} saved {:6}",
            p.name,
            best_f,
            best_s,
            best_s as f64 / best_f as f64,
            rf.schedules_deduped,
            rf.prefix_steps_saved,
        );
    }
    println!(
        "{:12} forked {:7}us scratch {:7}us ratio {:.3}",
        "TOTAL",
        tot_f,
        tot_s,
        tot_s as f64 / tot_f as f64
    );
}
