//! `analytic_smoke` — the CI gate for the static analytic model: runs
//! the `noc-analytic` vs `noc-sim` cross-validation study on the
//! default certified case set and fails (exit 1) when the model's
//! saturation predictions drift from the simulator — low correlation or
//! a per-case relative error beyond the model's accuracy contract.
//!
//! Usage: `cargo run --release -p noc-bench --bin analytic_smoke -- [quick|paper]`

/// The model's accuracy contract on certified DOR configurations.
const MAX_REL_ERR: f64 = 0.15;
/// Predicted and measured saturations must rank the cases identically
/// for grid pruning to be trustworthy; anything below this correlation
/// means a regime constant has drifted.
const MIN_R: f64 = 0.95;

fn main() {
    let (mut effort, _) = noc_bench::parse_args(&[]);
    // The 15% contract was calibrated with these measurement windows;
    // `quick`'s shorter windows systematically inflate the measured
    // saturation of permutation patterns, so enforce them as a floor.
    effort.warmup = effort.warmup.max(3_000);
    effort.measure = effort.measure.max(8_000);
    effort.drain = effort.drain.max(50_000);
    let cases = noc_eval::default_cases();
    let study = noc_eval::analytic_study(&cases, &effort, 300.0)
        .expect("default analytic cases are valid configurations");
    print!("{}", study.render());

    let mut failed = false;
    for p in study.points.iter().filter(|p| p.certified && p.rel_err > MAX_REL_ERR) {
        eprintln!(
            "FAIL: {} predicted {:.4} vs measured [{:.4}, {:.4}] — rel err {:.1}% > {:.0}%",
            p.label,
            p.predicted,
            p.measured_lo,
            p.measured_hi,
            100.0 * p.rel_err,
            100.0 * MAX_REL_ERR
        );
        failed = true;
    }
    match study.r {
        Some(r) if r >= MIN_R => {}
        Some(r) => {
            eprintln!("FAIL: predicted-vs-measured correlation r = {r:.4} < {MIN_R}");
            failed = true;
        }
        None => {
            eprintln!("FAIL: correlation undefined (degenerate study)");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!(
        "analytic smoke OK: {} cases, max rel err {:.1}%, r = {}",
        study.points.len(),
        100.0 * study.max_rel_err,
        study.r.map(|r| format!("{r:.4}")).unwrap_or_else(|| "n/a".into()),
    );
}
