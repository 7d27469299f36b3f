//! Emits the solver-trace record for the reference search transient.
//!
//! Runs the same 16×16 3T2N single-bit-mismatch search as `perf_baseline`
//! and prints the transient's [`SolverTrace`] as a single JSON line:
//!
//! ```json
//! {"trace":"solver","steps_accepted":...,"reject_newton":...,
//!  "gmin_events":...,"source_step_events":...,"integrator_fallbacks":...,
//!  "min_dt_used":...,"max_dt_used":...,"worst_unknown":null,
//!  "factor_nnz":...}
//! ```
//!
//! `factor_nnz` is the L+U entry count of the run's last sparse
//! factorization ([`tcam_spice::mna::SolveStats::factor_nnz`]), so a
//! fill-in regression in the shared LU shows up in the record.
//!
//! Appended to a `BENCH_*.json` history this tracks solver *health* over
//! time the way `perf_baseline` tracks speed: a ladder rung firing on the
//! reference array (which converges plainly today) is a regression signal
//! even if the run still succeeds.
//!
//! With `--check`, the binary re-parses its own output and asserts the
//! record is valid flat JSON describing a healthy run; it exits nonzero
//! otherwise. The tier-1 gate uses this instead of piping into python3.

use tcam_core::designs::{ArraySpec, Nem3t2n, TcamDesign};
use tcam_core::experiments::{mismatch_key, pattern_word};
use tcam_core::ops::run_search;
use tcam_spice::prelude::SolverTrace;

fn main() {
    let spec = ArraySpec {
        rows: 16,
        cols: 16,
        vdd: 1.0,
    };
    let design = Nem3t2n::default();
    let stored = pattern_word(spec.cols);
    let key = mismatch_key(spec.cols);
    let exp = design.build_search(&spec, &stored, &key).expect("builds");
    let search = run_search(exp).expect("search transient converges");
    assert!(search.functional_ok, "mismatch must be detected");

    let trace: &SolverTrace = search
        .waveform
        .solver_trace()
        .expect("transient records a solver trace");
    let stats = search
        .waveform
        .stats()
        .expect("transient records solve stats");
    let mut line = trace.to_json_line();
    line.pop(); // reopen the object to append the fill count
    line.push_str(&format!(",\"factor_nnz\":{}}}", stats.factor_nnz));
    println!("{line}");

    if tcam_bench::has_flag("check") {
        check_record(&line);
        eprintln!(
            "solver_trace_bench --check: record ok ({} steps accepted)",
            trace.steps_accepted
        );
    }
}

/// Asserts the emitted line is a valid flat-JSON solver trace for a run
/// that actually integrated something. Exits nonzero on violation.
fn check_record(line: &str) {
    use tcam_bench::jsonline::{num, parse_flat_object, str_of};

    let bail = |msg: String| -> ! {
        eprintln!("solver_trace_bench --check FAILED: {msg}");
        eprintln!("record: {line}");
        std::process::exit(1);
    };
    let obj = match parse_flat_object(line) {
        Ok(obj) => obj,
        Err(e) => bail(format!("trace line is not valid flat JSON: {e}")),
    };
    if str_of(&obj, "trace") != Some("solver") {
        bail("\"trace\" field missing or not \"solver\"".into());
    }
    let field = |key: &str| num(&obj, key).unwrap_or_else(|| bail(format!("missing counter {key:?}")));
    if field("steps_accepted") <= 0.0 {
        bail("no transient steps were accepted".into());
    }
    if field("nr_iterations") < field("steps_accepted") {
        bail("fewer Newton iterations than accepted steps".into());
    }
    let (dt_min, dt_max) = (field("min_dt_used"), field("max_dt_used"));
    if !(dt_min > 0.0 && dt_max >= dt_min) {
        bail(format!("dt extrema implausible: min={dt_min}, max={dt_max}"));
    }
    if !obj.iter().any(|(k, _)| k == "worst_unknown") {
        bail("\"worst_unknown\" field missing".into());
    }
    if field("factor_nnz") <= 0.0 {
        bail("no factorization fill recorded".into());
    }
}
