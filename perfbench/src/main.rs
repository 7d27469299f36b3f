//! The stack benchmark: one process runs one workload and prints one
//! result line.
//!
//! ```text
//! perfbench --workload <paper_repro|mc_sweep|net_mixed> --seed N --seconds S --trace <0|1>
//! perfbench --write-reference <paper_repro|mc_sweep>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with the program's
//! defaults; `--trace 1` is the separate traced run that reports the
//! per-layer metrics. The last line of standard output is the result
//! object (`correct`, `attempted`, `failed`, `metrics`); the line before
//! it is the run record (host facts, seed, sample counts). See
//! `perfbench/README.md` for the workloads, metrics and predictions.

mod layers;
mod net;
mod paper;
mod reference;
mod report;
mod sweep;

use std::time::Instant;

use report::{host_json, Outcome};

/// The end-to-end metrics (`--trace 0`), with their units. Every workload
/// reports every one of them.
const END_TO_END: &[(&str, &str)] = &[("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

/// The per-layer metrics (`--trace 1`), with their units. A layer the
/// workload does not run reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("numeric.lu_refactorize_s", "s"),
    ("numeric.lu_factorize_s", "s"),
    ("numeric.back_solve_s", "s"),
    ("numeric.refactorizations", "count"),
    ("devices.device_eval_s", "s"),
    ("spice.mna_stamp_s", "s"),
    ("spice.nr_update_s", "s"),
    ("spice.step_control_s", "s"),
    ("spice.commit_record_s", "s"),
    ("spice.steps_accepted", "count"),
    ("spice.steps_rejected", "count"),
    ("spice.nr_iterations", "count"),
    ("spice.step_accept_ratio", "ratio"),
    ("spice.quarantined_lanes", "count"),
    ("spice.per_trial_ref_s", "s"),
    ("core.write.3t2n_s", "s"),
    ("core.write.sram16t_s", "s"),
    ("core.write.rram2t2r_s", "s"),
    ("core.write.fefet2f_s", "s"),
    ("core.search.3t2n_s", "s"),
    ("core.search.sram16t_s", "s"),
    ("core.search.rram2t2r_s", "s"),
    ("core.search.fefet2f_s", "s"),
    ("core.osr_s", "s"),
    ("core.retention_s", "s"),
    ("core.table1_s", "s"),
    ("arch.refresh_policies_s", "s"),
    ("core.build_s", "s"),
    ("core.sample_s", "s"),
    // Service latencies of `net_mixed`: workload-specific, so they cannot
    // be end-to-end metrics (README.md); the traced run reports them.
    ("lookup_p50_ms", "ms"),
    ("lookup_p99_ms", "ms"),
    ("update_p50_ms", "ms"),
    ("update_p99_ms", "ms"),
    ("net.decode_ms", "ms"),
    ("net.admission_ms", "ms"),
    ("serve.queue_ms", "ms"),
    ("serve.match_ms", "ms"),
    ("net.gather_ms", "ms"),
    ("net.write_ms", "ms"),
    ("serve.busy_frac", "ratio"),
    ("serve.keys_per_batch", "count"),
    ("serve.queue_wait_p99_ms", "ms"),
    ("serve.swap_stall_ms", "ms"),
    ("serve.publish_p50_ms", "ms"),
    ("net.apply_ms", "ms"),
    ("net.admin_overhead_ms", "ms"),
    ("net.wal_bytes", "bytes"),
    ("net.shed_requests", "count"),
    ("gen.lateness_p99_ms", "ms"),
    ("trace.cover_pct", "%"),
    ("trace.wall_s", "s"),
    ("obs.trace_overhead_pct", "%"),
    ("failed_frac", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <paper_repro|mc_sweep|net_mixed> --seed N --seconds S --trace <0|1>\n       perfbench --write-reference <paper_repro|mc_sweep>"
    );
    std::process::exit(2);
}

fn parse_args(argv: &[String]) -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => args.workload = value().clone(),
            "--seed" => {
                args.seed = value()
                    .parse()
                    .unwrap_or_else(|_| usage("--seed takes an integer"))
            }
            "--seconds" => {
                args.seconds = value()
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .unwrap_or_else(|| usage("--seconds takes a positive number"));
            }
            "--trace" => {
                args.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                };
            }
            other => usage(&format!("unknown argument {other}")),
        }
    }
    args
}

fn write_reference(workload: &str) {
    let values = match workload {
        "paper_repro" => paper::reference_values(),
        "mc_sweep" => sweep::reference_values(),
        other => usage(&format!("no reference for workload {other:?}")),
    };
    let values = values.unwrap_or_else(|e| {
        eprintln!("perfbench: reference run failed: {e}");
        std::process::exit(1);
    });
    let path = format!("{}/reference/{workload}.json", env!("CARGO_MANIFEST_DIR"));
    std::fs::write(&path, values.to_json()).unwrap_or_else(|e| {
        eprintln!("perfbench: cannot write {path}: {e}");
        std::process::exit(1);
    });
    eprintln!("perfbench: wrote {} values to {path}", values.0.len());
}

/// Keeps exactly the metrics of the run's mode, in declaration order, and
/// moves every other metric the workload produced to `unlisted` (printed
/// in the run record). Every end-to-end metric must have been produced; a
/// per-layer metric of a layer the workload does not run reads 0.
fn select(outcome: &mut Outcome, trace: bool) {
    let declared = if trace { PER_LAYER } else { END_TO_END };
    let mut kept = Vec::new();
    for (name, unit) in declared {
        match outcome.metrics.iter().position(|m| m.name == *name) {
            Some(i) => {
                let m = outcome.metrics.remove(i);
                assert_eq!(m.unit, *unit, "unit of {name}");
                kept.push(m);
            }
            None => {
                assert!(trace, "the workload did not report {name}");
                kept.push(report::Metric {
                    name: (*name).to_string(),
                    value: 0.0,
                    unit,
                });
            }
        }
    }
    outcome.unlisted = std::mem::replace(&mut outcome.metrics, kept);
}

fn main() {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--write-reference") {
        write_reference(argv.get(1).map_or("", String::as_str));
        return;
    }
    let args = parse_args(&argv);
    let mut outcome = match args.workload.as_str() {
        "paper_repro" => paper::run(args.seed, args.seconds, args.trace),
        "mc_sweep" => sweep::run(args.seed, args.seconds, args.trace),
        "net_mixed" => net::run(args.seed, args.seconds, args.trace),
        "" => usage("--workload is required"),
        other => usage(&format!("unknown workload {other:?}")),
    };
    select(&mut outcome, args.trace);
    for p in &outcome.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    let samples: Vec<String> = outcome
        .samples
        .iter()
        .map(|(name, n)| format!("\"{name}\": {n}"))
        .collect();
    let unlisted: Vec<String> = outcome
        .unlisted
        .iter()
        .map(|m| format!("\"{}\": {}", m.name, report::json_number(m.value)))
        .collect();
    println!(
        "{{\"record\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host\": {}, \"samples\": {{{}}}, \"unlisted\": {{{}}}, \"job_walls_s\": [{}], \"run_s\": {}}}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host_json(),
        samples.join(", "),
        unlisted.join(", "),
        outcome.job_walls.iter().map(|w| report::json_number(*w)).collect::<Vec<_>>().join(", "),
        started.elapsed().as_secs_f64(),
    );
    println!("{}", outcome.result_line());
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcam_net::json::Json;

    /// A traced run lists every per-layer metric (0 for a layer the
    /// workload does not run) and keeps the rest out of the result line.
    #[test]
    fn select_lists_every_metric_of_the_mode() {
        let mut out = Outcome::default();
        out.metric("wall_s", 2.0, "s");
        out.metric("trace.cover_pct", 98.0, "%");
        select(&mut out, true);
        let names: Vec<&str> = out.metrics.iter().map(|m| m.name.as_str()).collect();
        let declared: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, declared);
        let value = |name: &str| out.metrics.iter().find(|m| m.name == name).unwrap().value;
        assert_eq!(value("trace.cover_pct"), 98.0);
        assert_eq!(value("numeric.lu_refactorize_s"), 0.0);
        assert_eq!(out.unlisted.len(), 1);
        assert_eq!(out.unlisted[0].name, "wall_s");
    }

    #[test]
    #[should_panic(expected = "did not report setup_s")]
    fn untraced_run_must_report_every_end_to_end_metric() {
        let mut out = Outcome::default();
        out.metric("wall_s", 2.0, "s");
        select(&mut out, false);
    }

    /// `BENCHMARK.json` and the metric lists above name the same metrics
    /// with the same units.
    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (key, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared: Vec<(String, String)> = doc
                .get(key)
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = list
                .iter()
                .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
                .collect();
            assert_eq!(declared, ours, "{key}");
        }
    }
}
