//! `mc_sweep`: the Monte-Carlo search-margin study on a 16×16 array with
//! the batched lockstep engine — mostly 3T2N trials at σ = 5 %, plus a
//! smaller 2T2R set whose ≈0.58 V margins are sensitive to the numerics.
//! No fault injection.
//!
//! The untraced run times `variation::search_margin_study`. The traced
//! run makes the same study one shard at a time on one thread
//! (`sample_varied_designs`, the designs' `build_search`, then
//! `run_search_batched` per kind), so sampling, netlist builds and each
//! batched call's phase table are attributed; it also times the
//! per-trial reference engine on the same trials.

use std::collections::BTreeMap;
use std::time::Instant;

use tcam_core::designs::{ArraySpec, Nem3t2n, Rram2t2r, SearchExperiment, TcamDesign};
use tcam_core::experiments::{mismatch_key, pattern_word};
use tcam_core::ops::run_search_batched;
use tcam_core::variation::{
    sample_varied_designs, search_margin_study, search_margin_study_per_trial, MarginStudy,
    VariationSpec, VariedDesign, TRIALS_PER_SHARD,
};
use tcam_numeric::stats::Running;

use crate::layers::Layers;
use crate::reference::{Reference, MC_SWEEP};
use crate::report::{
    median, median_setup, obs_overhead_pct, peak_rss_mb, secs, JobLoop, Outcome, SETUPS,
};

pub const SPEC: ArraySpec = ArraySpec {
    rows: 16,
    cols: 16,
    vdd: 1.0,
};

/// The trial sets of one study: (name, design, σ, trials).
const SETS: [(&str, VariedDesign, f64, usize); 2] = [
    ("nem3t2n", VariedDesign::Nem3t2n, 0.05, 256),
    ("rram2t2r", VariedDesign::Rram2t2r, 0.05, 32),
];

/// Monte-Carlo seeds with pinned references. The workload seed picks one
/// (`seed % REFERENCE_SEEDS`), so every workload seed has a reference to
/// check against.
pub const REFERENCE_SEEDS: u64 = 32;

/// Relative tolerance on the margin mean and minimum. Two valid step
/// schedules of the same trials — the batched lockstep engine and the
/// per-trial engine — differ by up to 3.4e-4 relative on the 2T2R
/// margins, so a change that only moves the schedule (a new LU ordering
/// changes round-off) stays inside this; a modelling change does not.
const MARGIN_TOL: f64 = 1e-3;

/// What the checks compare of one trial set.
#[derive(Debug, Clone, Copy)]
struct SetSummary {
    mean: f64,
    min: f64,
    failures: usize,
    trials: usize,
}

impl SetSummary {
    fn of(s: &MarginStudy, cfg: &VariationSpec) -> Self {
        Self {
            mean: s.mean,
            min: s.min,
            failures: s.failures,
            trials: cfg.trials,
        }
    }
}

fn configs(seed: u64) -> Vec<(&'static str, VariationSpec)> {
    let s = seed % REFERENCE_SEEDS;
    SETS.iter()
        .enumerate()
        .map(|(i, &(name, design, sigma, trials))| {
            (
                name,
                VariationSpec {
                    design,
                    sigma,
                    trials,
                    seed: s * SETS.len() as u64 + i as u64 + 1,
                    sabotage_every: 0,
                },
            )
        })
        .collect()
}

/// One study through the program's batched engine.
fn job(seed: u64) -> Result<Vec<(&'static str, SetSummary)>, String> {
    configs(seed)
        .into_iter()
        .map(|(name, cfg)| {
            search_margin_study(&SPEC, &cfg)
                .map(|s| (name, SetSummary::of(&s, &cfg)))
                .map_err(|e| format!("{name}: {e}"))
        })
        .collect()
}

/// One study through the per-trial reference engine.
fn per_trial_job(seed: u64) -> Result<Vec<(&'static str, SetSummary)>, String> {
    configs(seed)
        .into_iter()
        .map(|(name, cfg)| {
            search_margin_study_per_trial(&SPEC, &cfg)
                .map(|s| (name, SetSummary::of(&s, &cfg)))
                .map_err(|e| format!("{name}: {e}"))
        })
        .collect()
}

/// The batched study of one trial set, one shard at a time on this
/// thread, with every part timed into `layers`.
fn traced_set(cfg: &VariationSpec, layers: &mut Layers) -> SetSummary {
    let stored = pattern_word(SPEC.cols);
    let key_miss = mismatch_key(SPEC.cols);
    let t = Instant::now();
    let sampled = sample_varied_designs(cfg);
    layers.part("core.sample", secs(t));
    let infeasible = sampled.iter().filter(|d| d.is_none()).count();
    let feasible: Vec<Box<dyn TcamDesign>> = sampled.into_iter().flatten().collect();

    let mut failures = infeasible;
    let mut stats = Running::new();
    let mut completed = 0usize;
    for shard in feasible.chunks(TRIALS_PER_SHARD) {
        let t = Instant::now();
        let mut miss_exps: Vec<SearchExperiment> = Vec::new();
        let mut hit_exps: Vec<SearchExperiment> = Vec::new();
        for design in shard {
            match (
                design.build_search(&SPEC, &stored, &key_miss),
                design.build_search(&SPEC, &stored, &stored),
            ) {
                (Ok(miss), Ok(hit)) => {
                    miss_exps.push(miss);
                    hit_exps.push(hit);
                }
                _ => failures += 1,
            }
        }
        layers.part("core.build", secs(t));
        let mut kinds = Vec::new();
        for exps in [miss_exps, hit_exps] {
            match run_search_batched(exps) {
                Ok(lanes) => {
                    // One phase table per call, cloned into every lane.
                    if let Some(first) = lanes.iter().find_map(|l| l.as_ref().ok()) {
                        layers.phases_of(&first.waveform);
                    }
                    for lane in lanes.iter().flatten() {
                        layers.counters_of(&lane.waveform);
                    }
                    layers.quarantined_lanes += lanes.iter().filter(|l| l.is_err()).count() as u64;
                    kinds.push(lanes);
                }
                Err(_) => kinds.push(Vec::new()),
            }
        }
        let (miss, hit) = (&kinds[0], &kinds[1]);
        let built = miss.len().max(hit.len());
        for lane in 0..built {
            match (miss.get(lane), hit.get(lane)) {
                (Some(Ok(m)), Some(Ok(h))) => {
                    stats.push(h.ml_at_sense - m.ml_at_sense);
                    completed += 1;
                    if !(m.functional_ok && h.functional_ok) {
                        failures += 1;
                    }
                }
                _ => failures += 1,
            }
        }
    }
    SetSummary {
        mean: stats.mean(),
        min: if completed == 0 { 0.0 } else { stats.min() },
        failures,
        trials: cfg.trials,
    }
}

fn measured(seed: u64, sets: &[(&'static str, SetSummary)]) -> BTreeMap<String, f64> {
    let s = seed % REFERENCE_SEEDS;
    let mut m = BTreeMap::new();
    for (name, sum) in sets {
        m.insert(format!("s{s}.{name}.mean"), sum.mean);
        m.insert(format!("s{s}.{name}.min"), sum.min);
        m.insert(format!("s{s}.{name}.failures"), sum.failures as f64);
    }
    m
}

/// Checks one study against the reference of its seed: margin mean and
/// minimum within [`MARGIN_TOL`], failure count exact. Returns
/// `(transients attempted, transients failed)`; a failed trial charges
/// both of its transients.
fn check(
    seed: u64,
    sets: &[(&'static str, SetSummary)],
    reference: &Reference,
    out: &mut Outcome,
) -> (u64, u64) {
    let s = seed % REFERENCE_SEEDS;
    let got = measured(seed, sets);
    for (name, _) in sets {
        for field in ["mean", "min"] {
            reference.check(&format!("s{s}.{name}.{field}"), &got, MARGIN_TOL, out);
        }
        reference.check(&format!("s{s}.{name}.failures"), &got, 0.0, out);
    }
    let attempted = sets.iter().map(|(_, x)| 2 * x.trials as u64).sum();
    let failed = sets.iter().map(|(_, x)| 2 * x.failures as u64).sum();
    (attempted, failed)
}

fn record(
    out: &mut Outcome,
    result: Result<Vec<(&'static str, SetSummary)>, String>,
    seed: u64,
    reference: &Reference,
) {
    match result {
        Ok(sets) => {
            let (attempted, failed) = check(seed, &sets, reference, out);
            out.attempted += attempted;
            out.failed += failed;
            if failed > 0 {
                out.problem(format!("{failed} transients failed"));
            }
        }
        Err(e) => {
            let trials: usize = SETS.iter().map(|s| s.3).sum();
            out.attempted += 2 * trials as u64;
            out.failed += 2 * trials as u64;
            out.problem(e);
        }
    }
}

/// Set-up: parse the reference and warm one netlist build per design
/// (relay calibration is memoized on first use).
fn setup() -> Reference {
    let reference = Reference::parse(MC_SWEEP).expect("mc_sweep reference parses");
    let stored = pattern_word(SPEC.cols);
    let _ = Nem3t2n::default().build_search(&SPEC, &stored, &stored);
    let _ = Rram2t2r::default().build_search(&SPEC, &stored, &stored);
    reference
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let (setup_s, reference) = median_setup(SETUPS, setup);
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    if trace {
        let mut layers = Layers::default();
        let t = Instant::now();
        let sets: Vec<_> = configs(seed)
            .into_iter()
            .map(|(name, cfg)| (name, traced_set(&cfg, &mut layers)))
            .collect();
        let wall = secs(t);
        record(&mut out, Ok(sets), seed, &reference);
        let leaves =
            layers.all_phases_s() + layers.part_s("core.sample") + layers.part_s("core.build");
        let t = Instant::now();
        let reference_run = per_trial_job(seed);
        layers.part("spice.per_trial_ref", secs(t));
        record(&mut out, reference_run, seed, &reference);
        layers.report(&mut out);
        out.metric("trace.cover_pct", leaves / wall * 100.0, "%");
        out.metric("trace.wall_s", wall, "s");
        let (_, cfg) = configs(seed)[0];
        let designs: Vec<_> = sample_varied_designs(&VariationSpec {
            trials: TRIALS_PER_SHARD,
            ..cfg
        })
        .into_iter()
        .flatten()
        .collect();
        let stored = pattern_word(SPEC.cols);
        let key_miss = mismatch_key(SPEC.cols);
        out.metric(
            "obs.trace_overhead_pct",
            obs_overhead_pct(3, || {
                let exps = designs
                    .iter()
                    .map(|d| {
                        d.build_search(&SPEC, &stored, &key_miss)
                            .expect("search builds")
                    })
                    .collect();
                let _ = run_search_batched(exps);
            }),
            "%",
        );
    } else {
        let mut jobs = JobLoop::new(seconds);
        while jobs.another() {
            let result = jobs.time(|| job(seed));
            record(&mut out, result, seed, &reference);
        }
        out.percentile("wall_s", median(&jobs.walls), "s", jobs.walls.len());
        out.job_walls = jobs.walls;
    }
    out.metric("setup_s", setup_s, "s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    out.metric(
        "failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
        "ratio",
    );
    out
}

/// Runs the study for every reference seed and returns the pinned values.
pub fn reference_values() -> Result<Reference, String> {
    let mut all = BTreeMap::new();
    for s in 0..REFERENCE_SEEDS {
        all.extend(measured(s, &job(s)?));
    }
    Ok(Reference(all))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_reference_seed_is_pinned() {
        let reference = Reference::parse(MC_SWEEP).unwrap();
        for s in 0..REFERENCE_SEEDS {
            for (name, ..) in SETS {
                for field in ["mean", "min", "failures"] {
                    assert!(reference.0.contains_key(&format!("s{s}.{name}.{field}")));
                }
            }
        }
    }

    #[test]
    fn perturbed_reference_is_caught() {
        let reference = Reference::parse(MC_SWEEP).unwrap();
        let pinned = |name: &str| reference.0[&format!("s3.{name}")];
        let sets = |mean_scale: f64, extra_failures: usize| {
            SETS.iter()
                .map(|&(name, ..)| {
                    (
                        name,
                        SetSummary {
                            mean: pinned(&format!("{name}.mean")) * mean_scale,
                            min: pinned(&format!("{name}.min")),
                            failures: pinned(&format!("{name}.failures")) as usize + extra_failures,
                            trials: 8,
                        },
                    )
                })
                .collect::<Vec<_>>()
        };
        let fresh = || Outcome {
            correct: true,
            ..Outcome::default()
        };
        let mut out = fresh();
        check(3, &sets(1.0, 0), &reference, &mut out);
        assert!(out.correct, "{:?}", out.problems);
        let mut out = fresh();
        check(3, &sets(1.0 + 10.0 * MARGIN_TOL, 0), &reference, &mut out);
        assert!(!out.correct, "a shifted margin mean went unnoticed");
        let mut out = fresh();
        check(3, &sets(1.0, 1), &reference, &mut out);
        assert!(!out.correct, "an extra failure went unnoticed");
    }
}
