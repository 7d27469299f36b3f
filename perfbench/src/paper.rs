//! `paper_repro`: what `summary` runs — Table I, Fig. 6 write, Fig. 7
//! search (miss and hit) for all four designs, one-shot refresh,
//! retention, refresh power and the A1 refresh-interference study — on a
//! 32×32 array.
//!
//! The untraced run times the program's own experiment entry points
//! (`fig6_write` and `fig7_search` fan the designs out over
//! `parallel_map`). The traced run makes the same calls one at a time
//! through `ops::run_write`/`ops::run_search`, `run_osr` and
//! `run_retention`, so every part has its own wall time and its own phase
//! table.

use std::collections::BTreeMap;
use std::time::Instant;

use tcam_arch::refresh_sched::{compare_policies, RefreshSimReport};
use tcam_core::designs::{ArraySpec, Nem3t2n};
use tcam_core::experiments::{
    all_designs, fig6_write, fig7_search, mismatch_key, pattern_word, refresh_study,
    table1_measurements, SearchRow, Table1Row, WriteRow,
};
use tcam_core::metrics::{search_edp_ratios, search_latency_ratios, write_energy_ratios};
use tcam_core::ops::{run_search, run_write};
use tcam_core::osr::{osr_default_pattern, run_osr, V_REFRESH};
use tcam_core::retention::run_retention;

use crate::layers::Layers;
use crate::reference::{Reference, PAPER_REPRO, REL_TOL};
use crate::report::{
    median, median_setup, obs_overhead_pct, peak_rss_mb, rel_diff, secs, JobLoop, Outcome, SETUPS,
};

/// The array every experiment runs on.
pub const SPEC: ArraySpec = ArraySpec {
    rows: 32,
    cols: 32,
    vdd: 1.0,
};

/// Transients one job runs: 4 writes, 4 miss + 4 hit searches, OSR and
/// retention.
const TRANSIENTS_PER_JOB: u64 = 14;

/// The paper's values the reproduction is compared with (EXPERIMENTS.md):
/// Table I, the Fig. 6 and Fig. 7 ratios of each design over 3T2N, OSR
/// energy, retention and refresh power.
const TABLE1_PAPER: [(&str, f64); 6] = [
    ("v_pi", 0.53),
    ("v_po", 0.13),
    ("c_on", 20e-18),
    ("c_off", 15e-18),
    ("r_on", 1e3),
    ("tau_mech", 2e-9),
];
/// (design, write-energy ratio, search speedup, search EDP ratio) over 3T2N.
const RATIOS_PAPER: [(&str, f64, f64, f64); 3] = [
    ("16T SRAM", 2.31, 5.50, 12.7),
    ("2T2R RRAM", 131.0, 1.47, 1.30),
    ("2FeFET", 13.5, 3.36, 2.83),
];
const OSR_ENERGY_PAPER: f64 = 520e-15;
const RETENTION_PAPER: f64 = 26.5e-6;
const REFRESH_POWER_PAPER: f64 = 19.6e-9;

/// What one reproduction job produced.
struct PaperResult {
    table1: Table1Row,
    writes: Vec<WriteRow>,
    searches: Vec<SearchRow>,
    osr_energy: f64,
    states_preserved: bool,
    retention: Option<f64>,
    refresh_power: Option<f64>,
    policies: (RefreshSimReport, RefreshSimReport),
}

/// Short metric key of a design.
fn design_key(name: &str) -> &'static str {
    match name {
        "3T2N" => "3t2n",
        "16T SRAM" => "sram16t",
        "2T2R RRAM" => "rram2t2r",
        "2FeFET" => "fefet2f",
        _ => "unknown",
    }
}

/// The A1 study exactly as `summary` runs it, with the workload seed.
fn policies(seed: u64) -> (RefreshSimReport, RefreshSimReport) {
    compare_policies(
        SPEC.rows, 26.5e-6, 10e-9, 0.7e-12, 10e-9, 520e-15, 50e6, 5e-9, 1e-3, seed,
    )
}

/// One job through the program's experiment entry points.
fn job(seed: u64) -> Result<PaperResult, String> {
    let table1 = table1_measurements().map_err(|e| format!("table1: {e}"))?;
    let writes = fig6_write(&SPEC).map_err(|e| format!("fig6_write: {e}"))?;
    let searches = fig7_search(&SPEC).map_err(|e| format!("fig7_search: {e}"))?;
    let refresh = refresh_study(&SPEC, V_REFRESH).map_err(|e| format!("refresh_study: {e}"))?;
    Ok(PaperResult {
        table1,
        writes,
        searches,
        osr_energy: refresh.osr.energy_array,
        states_preserved: refresh.osr.states_preserved,
        retention: refresh.retention.retention,
        refresh_power: refresh.refresh_power,
        policies: policies(seed),
    })
}

/// The same job one call at a time, every call timed into `layers`.
fn traced_job(seed: u64, layers: &mut Layers) -> Result<PaperResult, String> {
    let err = |what: &str| {
        let what = what.to_string();
        move |e: tcam_spice::SpiceError| format!("{what}: {e}")
    };
    let t = Instant::now();
    let table1 = table1_measurements().map_err(err("table1"))?;
    layers.part("core.table1", secs(t));

    let data = pattern_word(SPEC.cols);
    let key_miss = mismatch_key(SPEC.cols);
    let mut writes = Vec::new();
    for design in all_designs() {
        let key = design_key(design.name());
        let t = Instant::now();
        let exp = design
            .build_write(&SPEC, &data)
            .map_err(err("build_write"))?;
        layers.part("core.build", secs(t));
        let t = Instant::now();
        let res = run_write(exp).map_err(err("run_write"))?;
        layers.part(&format!("core.write.{key}"), secs(t));
        layers.call(&res.waveform);
        writes.push(WriteRow {
            design: design.name().to_string(),
            latency: res.latency,
            energy: res.energy,
            valid: res.all_valid,
        });
    }
    let mut searches = Vec::new();
    for design in all_designs() {
        let key = design_key(design.name());
        let mut outcomes = Vec::new();
        for search_key in [&key_miss, &data] {
            let t = Instant::now();
            let exp = design
                .build_search(&SPEC, &data, search_key)
                .map_err(err("build_search"))?;
            layers.part("core.build", secs(t));
            let t = Instant::now();
            let res = run_search(exp).map_err(err("run_search"))?;
            layers.part(&format!("core.search.{key}"), secs(t));
            layers.call(&res.waveform);
            outcomes.push(res);
        }
        let (miss, hit) = (&outcomes[0], &outcomes[1]);
        let latency = miss.latency.unwrap_or(f64::NAN);
        searches.push(SearchRow {
            design: design.name().to_string(),
            latency,
            energy: miss.energy,
            edp: latency * miss.energy,
            mismatch_ok: miss.functional_ok,
            match_ok: hit.functional_ok,
        });
    }

    let nem = Nem3t2n::default();
    let t = Instant::now();
    let osr = run_osr(&nem, &SPEC, V_REFRESH, osr_default_pattern).map_err(err("run_osr"))?;
    layers.part("core.osr", secs(t));
    layers.call(&osr.waveform);
    let t = Instant::now();
    let retention = run_retention(&nem, &SPEC, V_REFRESH, 100e-6).map_err(err("run_retention"))?;
    layers.part("core.retention", secs(t));
    layers.call(&retention.waveform);

    let t = Instant::now();
    let policies = policies(seed);
    layers.part("arch.refresh_policies", secs(t));

    Ok(PaperResult {
        table1,
        refresh_power: retention.refresh_power(osr.energy_array),
        writes,
        searches,
        osr_energy: osr.energy_array,
        states_preserved: osr.states_preserved,
        retention: retention.retention,
        policies,
    })
}

/// The values the reference pins, by name.
fn measured(r: &PaperResult) -> BTreeMap<String, f64> {
    let t = &r.table1;
    let mut m: BTreeMap<String, f64> = [
        ("table1.v_pi", t.v_pi),
        ("table1.v_po", t.v_po),
        ("table1.c_on", t.c_on),
        ("table1.c_off", t.c_off),
        ("table1.tau_mech", t.tau_mech),
        ("osr.energy", r.osr_energy),
        ("retention.time", r.retention.unwrap_or(f64::NAN)),
        ("refresh.power", r.refresh_power.unwrap_or(f64::NAN)),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();
    for w in &r.writes {
        let d = design_key(&w.design);
        m.insert(format!("write.{d}.latency"), w.latency);
        m.insert(format!("write.{d}.energy"), w.energy);
    }
    for s in &r.searches {
        let d = design_key(&s.design);
        m.insert(format!("search.{d}.latency"), s.latency);
        m.insert(format!("search.{d}.energy"), s.energy);
    }
    m
}

/// Checks one job: every functional flag must hold, every pinned value
/// must match the reference within [`REL_TOL`], and the A1 study must
/// show one-shot refresh cheaper than row-by-row. Returns the number of
/// failed operations (false flags, missing results).
fn check(r: &PaperResult, reference: &Reference, out: &mut Outcome) -> u64 {
    let mut failed = 0;
    let mut flag = |ok: bool, what: String, out: &mut Outcome| {
        if !ok {
            failed += 1;
            out.problem(what);
        }
    };
    for w in &r.writes {
        flag(
            w.valid,
            format!("{} write: not all cells valid", w.design),
            out,
        );
    }
    for s in &r.searches {
        flag(
            s.mismatch_ok,
            format!("{} search: mismatch undetected", s.design),
            out,
        );
        flag(
            s.match_ok,
            format!("{} search: match corrupted", s.design),
            out,
        );
    }
    flag(r.states_preserved, "OSR: states not preserved".into(), out);
    flag(
        r.retention.is_some(),
        "retention beyond the simulated window".into(),
        out,
    );
    let (rbr, osr) = &r.policies;
    flag(
        rbr.searches > 0
            && osr.refresh_ops < rbr.refresh_ops
            && osr.refresh_energy < rbr.refresh_energy,
        format!(
            "A1: one-shot refresh ({} ops, {} J) not cheaper than row-by-row ({} ops, {} J)",
            osr.refresh_ops, osr.refresh_energy, rbr.refresh_ops, rbr.refresh_energy
        ),
        out,
    );
    if r.writes.len() != 4 || r.searches.len() != 4 {
        flag(false, "fewer than four designs reported".into(), out);
    }
    reference.check("", &measured(r), REL_TOL, out);
    failed
}

/// Median |measured/paper − 1| over the paper values, percent.
fn paper_err_pct(r: &PaperResult) -> f64 {
    let t = &r.table1;
    let table1 = [t.v_pi, t.v_po, t.c_on, t.c_off, t.r_on, t.tau_mech];
    let mut errs: Vec<f64> = TABLE1_PAPER
        .iter()
        .zip(table1)
        .map(|((_, paper), got)| rel_diff(got, *paper))
        .collect();
    let write = write_energy_ratios(&r.writes, "3T2N");
    let speed = search_latency_ratios(&r.searches, "3T2N");
    let edp = search_edp_ratios(&r.searches, "3T2N");
    for (design, w_paper, s_paper, e_paper) in RATIOS_PAPER {
        for (ratios, paper) in [(&write, w_paper), (&speed, s_paper), (&edp, e_paper)] {
            let got = ratios
                .iter()
                .find(|(d, _)| d == design)
                .map_or(f64::NAN, |(_, v)| *v);
            errs.push(rel_diff(got, paper));
        }
    }
    errs.push(rel_diff(r.osr_energy, OSR_ENERGY_PAPER));
    errs.push(rel_diff(r.retention.unwrap_or(f64::NAN), RETENTION_PAPER));
    errs.push(rel_diff(
        r.refresh_power.unwrap_or(f64::NAN),
        REFRESH_POWER_PAPER,
    ));
    median(&errs) * 100.0
}

/// Set-up: parse the reference and warm every design's netlist builders
/// (relay calibration is memoized on first use).
fn setup() -> Reference {
    let reference = Reference::parse(PAPER_REPRO).expect("paper_repro reference parses");
    let data = pattern_word(SPEC.cols);
    let key_miss = mismatch_key(SPEC.cols);
    for design in all_designs() {
        let _ = design.build_write(&SPEC, &data);
        let _ = design.build_search(&SPEC, &data, &key_miss);
    }
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
        let result = traced_job(seed, &mut layers);
        let wall = secs(t);
        out.attempted = TRANSIENTS_PER_JOB;
        match result {
            Ok(r) => out.failed = check(&r, &reference, &mut out),
            Err(e) => {
                out.failed = TRANSIENTS_PER_JOB;
                out.problem(e);
            }
        }
        let leaves = layers.all_phases_s()
            + layers.part_s("core.table1")
            + layers.part_s("core.build")
            + layers.part_s("arch.refresh_policies");
        layers.report(&mut out);
        out.metric("trace.cover_pct", leaves / wall * 100.0, "%");
        out.metric("trace.wall_s", wall, "s");
        let data = pattern_word(SPEC.cols);
        let key_miss = mismatch_key(SPEC.cols);
        let nem = Nem3t2n::default();
        out.metric(
            "obs.trace_overhead_pct",
            obs_overhead_pct(3, || {
                use tcam_core::designs::TcamDesign;
                let exp = nem
                    .build_search(&SPEC, &data, &key_miss)
                    .expect("3T2N search builds");
                let _ = run_search(exp);
            }),
            "%",
        );
    } else {
        let mut jobs = JobLoop::new(seconds);
        let mut err_pct = Vec::new();
        while jobs.another() {
            let result = jobs.time(|| job(seed));
            out.attempted += TRANSIENTS_PER_JOB;
            match result {
                Ok(r) => {
                    out.failed += check(&r, &reference, &mut out);
                    err_pct.push(paper_err_pct(&r));
                }
                Err(e) => {
                    out.failed += TRANSIENTS_PER_JOB;
                    out.problem(e);
                }
            }
        }
        out.percentile("wall_s", median(&jobs.walls), "s", jobs.walls.len());
        out.job_walls = jobs.walls;
        out.metric("paper_err_pct", median(&err_pct), "%");
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

/// Runs one job and returns the values the reference pins.
pub fn reference_values() -> Result<Reference, String> {
    job(1).map(|r| Reference(measured(&r)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perturbed_reference_is_caught() {
        let reference = Reference::parse(PAPER_REPRO).unwrap();
        let mut ok = Outcome {
            correct: true,
            ..Outcome::default()
        };
        reference.check("", &reference.0, REL_TOL, &mut ok);
        assert!(ok.correct, "{:?}", ok.problems);

        for name in [
            "write.sram16t.latency",
            "search.3t2n.energy",
            "retention.time",
        ] {
            let mut perturbed = reference.0.clone();
            *perturbed.get_mut(name).expect("pinned") *= 1.0 + 5.0 * REL_TOL;
            let mut out = Outcome {
                correct: true,
                ..Outcome::default()
            };
            reference.check("", &perturbed, REL_TOL, &mut out);
            assert!(!out.correct, "a 5% change of {name} went unnoticed");
            assert_eq!(out.problems.len(), 1);
        }
    }
}
