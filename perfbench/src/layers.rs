//! Per-layer accounting of the circuit workloads, read from what the
//! program returns: the phase table on each call's
//! `Waveform::solver_trace()` and the trace's exact step counters.
//!
//! Phases are taken per call, never from the global `tcam_obs` snapshot:
//! pool workers in `parallel_map` keep their thread-local buffers
//! unflushed, so the global phase list misses their work. A
//! `run_search_batched` call attaches its one phase table to every lane's
//! trace; it is counted once per call.

use std::collections::BTreeMap;
use tcam_spice::waveform::Waveform;

use crate::report::Outcome;

/// Solver phases (self times, nanoseconds) and step counters summed over
/// the calls of one traced run, plus the timed parts of the run.
#[derive(Debug, Default)]
pub struct Layers {
    phase_ns: BTreeMap<String, f64>,
    phase_count: BTreeMap<String, f64>,
    steps_accepted: u64,
    steps_rejected: u64,
    nr_iterations: u64,
    pub quarantined_lanes: u64,
    /// Named wall-time parts of the traced run, seconds (summed per name).
    parts: BTreeMap<String, f64>,
}

impl Layers {
    /// Absorbs one call's phase table.
    pub fn phases_of(&mut self, wave: &Waveform) {
        let Some(trace) = wave.solver_trace() else {
            return;
        };
        for (key, value) in trace.phases() {
            let Some(rest) = key.strip_prefix("phase_") else {
                continue;
            };
            if let Some(name) = rest.strip_suffix("_ns") {
                *self.phase_ns.entry(name.to_string()).or_default() += value;
            } else if let Some(name) = rest.strip_suffix("_count") {
                *self.phase_count.entry(name.to_string()).or_default() += value;
            }
        }
    }

    /// Absorbs one lane's (or one scalar call's) step counters.
    pub fn counters_of(&mut self, wave: &Waveform) {
        if let Some(trace) = wave.solver_trace() {
            self.steps_accepted += trace.steps_accepted;
            self.steps_rejected += trace.steps_rejected;
            self.nr_iterations += trace.nr_iterations;
        }
    }

    /// A scalar call: its phases and its counters.
    pub fn call(&mut self, wave: &Waveform) {
        self.phases_of(wave);
        self.counters_of(wave);
    }

    /// Adds `seconds` to the named part of the run.
    pub fn part(&mut self, name: &str, seconds: f64) {
        *self.parts.entry(name.to_string()).or_default() += seconds;
    }

    pub fn part_s(&self, name: &str) -> f64 {
        self.parts.get(name).copied().unwrap_or(0.0)
    }

    fn phase_s(&self, name: &str) -> f64 {
        self.phase_ns.get(name).copied().unwrap_or(0.0) * 1e-9
    }

    /// Seconds of every solver phase together.
    pub fn all_phases_s(&self) -> f64 {
        self.phase_ns.values().sum::<f64>() * 1e-9
    }

    /// Reports the solver-layer metrics (`numeric.*`, `devices.*`,
    /// `spice.*`) and every named part as `<part>_s`.
    pub fn report(&self, out: &mut Outcome) {
        out.metric(
            "numeric.lu_refactorize_s",
            self.phase_s("lu_refactorize"),
            "s",
        );
        out.metric("numeric.lu_factorize_s", self.phase_s("lu_factorize"), "s");
        out.metric("numeric.back_solve_s", self.phase_s("back_solve"), "s");
        out.metric(
            "numeric.refactorizations",
            self.phase_count
                .get("lu_refactorize")
                .copied()
                .unwrap_or(0.0),
            "count",
        );
        out.metric("devices.device_eval_s", self.phase_s("device_eval"), "s");
        out.metric("spice.mna_stamp_s", self.phase_s("mna_stamp"), "s");
        out.metric("spice.nr_update_s", self.phase_s("nr_update"), "s");
        out.metric(
            "spice.step_control_s",
            self.phase_s("step_control") + self.phase_s("lte_estimate"),
            "s",
        );
        out.metric("spice.commit_record_s", self.phase_s("commit_record"), "s");
        out.metric("spice.steps_accepted", self.steps_accepted as f64, "count");
        out.metric("spice.steps_rejected", self.steps_rejected as f64, "count");
        out.metric("spice.nr_iterations", self.nr_iterations as f64, "count");
        let steps = self.steps_accepted + self.steps_rejected;
        out.metric(
            "spice.step_accept_ratio",
            if steps == 0 {
                0.0
            } else {
                self.steps_accepted as f64 / steps as f64
            },
            "ratio",
        );
        out.metric(
            "spice.quarantined_lanes",
            self.quarantined_lanes as f64,
            "count",
        );
        for (name, s) in &self.parts {
            out.metric(format!("{name}_s"), *s, "s");
        }
    }
}
