//! The 4-terminal NEM relay as a circuit [`Device`].
//!
//! Electrically the relay presents:
//!
//! * a drain–source contact: `R_on` when the beam is in contact, an
//!   air-gap leakage (`R_OFF_LEAK`) otherwise — no threshold drop, which is
//!   the property the 3T2N cell exploits;
//! * a state-dependent gate–body capacitance `C_gb(x)` (the storage
//!   capacitor of the dynamic TCAM cell).
//!
//! The mechanical state advances by operator splitting: during a transient
//! step the electrical solve sees frozen mechanics; on commit the beam ODE
//! is integrated across the accepted step (RK4 substeps) using the solved
//! gate–body voltage ramp. In OP/DC-sweep analyses the beam follows its
//! quasi-static equilibrium with pull-in/pull-out hysteresis.
//!
//! The mechanical work follows the beam's motion. A released beam is *in
//! flight* while it moves faster than `10⁻³·g_contact/τ_mech`, or has
//! travelled beyond `10⁻³·g_contact` and sits more than that away from the
//! equilibrium of its gate voltage (there is none at or above V_PI).
//! Otherwise it is *quasi-static*: at rest, or following a gate that
//! changes slowly next to the mechanics. In-flight steps are capped at
//! `τ_mech/50`, quasi-static ones at `5·τ_mech`. A commit integrates with
//! `τ_mech/200` substeps (DESIGN.md §4.2) unless the beam is quasi-static
//! at both ends of the step's gate ramp, where `τ_mech/20` suffices. A
//! contacted beam is integrated at the fine resolution only in a step
//! whose gate ramp can release it, so its release instant keeps the
//! `τ_mech/200` grid.

use crate::companion::CompanionCap;
use crate::nem::calibrate::{calibrate_cached, CalibrateNemError};
use crate::nem::mechanics::{advance, BeamParams, BeamState};
use crate::params::NemTargets;
use tcam_spice::device::{AnalysisKind, CommitCtx, Device, EvalCtx, Stamps};
use tcam_spice::node::NodeId;

/// Drain–source leakage resistance of the open air gap, ohms.
///
/// The paper describes the OFF state as "nearly zero leakage"; 10¹⁵ Ω keeps
/// that property while staying finite for the solver.
pub const R_OFF_LEAK: f64 = 1e15;

/// Mechanical substeps per `τ_mech` while the beam is in flight: the
/// converged resolution of the DESIGN.md §4.2 ablation.
const FLIGHT_SUBSTEPS: f64 = 200.0;

/// Mechanical substeps per `τ_mech` while the beam is quasi-static
/// (`h·ω₀ ≈ 0.08`; even `τ_mech/50` is within 5 % on a full pull-in).
const QUASI_STATIC_SUBSTEPS: f64 = 20.0;

/// A 4-terminal NEM relay (drain, source, gate, body).
#[derive(Debug, Clone)]
pub struct NemRelay {
    name: String,
    d: NodeId,
    s: NodeId,
    g: NodeId,
    b: NodeId,
    beam: BeamParams,
    r_on: f64,
    tau_mech: f64,
    state: BeamState,
    cgb: CompanionCap,
    /// Gate–body voltage of the last commit.
    vgb: f64,
}

impl NemRelay {
    /// Creates a relay calibrated to `targets` (use
    /// [`NemTargets::paper`] for Table I). Calibration is memoized
    /// process-wide, so building an array of relays from the same targets
    /// pays the millisecond-scale inverse problem once.
    ///
    /// # Errors
    ///
    /// Returns [`CalibrateNemError`] for physically inconsistent targets.
    pub fn new(
        name: impl Into<String>,
        d: NodeId,
        s: NodeId,
        g: NodeId,
        b: NodeId,
        targets: &NemTargets,
    ) -> Result<Self, CalibrateNemError> {
        let beam = calibrate_cached(targets)?;
        Ok(Self::from_beam(
            name,
            d,
            s,
            g,
            b,
            beam,
            targets.r_on,
            targets.tau_mech,
        ))
    }

    /// Creates a relay from explicit beam parameters (for parameter studies).
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn from_beam(
        name: impl Into<String>,
        d: NodeId,
        s: NodeId,
        g: NodeId,
        b: NodeId,
        beam: BeamParams,
        r_on: f64,
        tau_mech: f64,
    ) -> Self {
        let cgb = CompanionCap::new(beam.c_gb(0.0));
        Self {
            name: name.into(),
            d,
            s,
            g,
            b,
            beam,
            r_on,
            tau_mech,
            state: BeamState::released(),
            cgb,
            vgb: 0.0,
        }
    }

    /// Sets the initial mechanical state (contacted = stored ON).
    #[must_use]
    pub fn with_contact(mut self, contacted: bool) -> Self {
        self.state = if contacted {
            BeamState::contacted(&self.beam)
        } else {
            BeamState::released()
        };
        self.cgb.farads = self.beam.c_gb(self.state.x);
        self
    }

    /// Whether the drain–source contact is closed.
    #[must_use]
    pub fn is_on(&self) -> bool {
        self.state.contacted
    }

    /// The calibrated beam parameters.
    #[must_use]
    pub fn beam(&self) -> &BeamParams {
        &self.beam
    }

    /// Present gate–body capacitance.
    #[must_use]
    pub fn c_gb(&self) -> f64 {
        self.beam.c_gb(self.state.x)
    }

    /// Travel band within which a beam counts as resting at an equilibrium,
    /// metres; the matching speed band is `band / τ_mech`.
    fn band(&self) -> f64 {
        1e-3 * self.beam.g_contact
    }

    /// Whether the beam is in flight at the last committed gate voltage —
    /// the state [`Device::dt_hint`] sizes steps for. Only travel beyond
    /// the band counts as away from rest, so the in-flight set is a subset
    /// of the plain "moving or displaced" rule.
    fn in_flight(&self) -> bool {
        let band = self.band();
        let (x, v) = (self.state.x, self.state.v);
        !self.state.contacted
            && (v.abs() > band / self.tau_mech
                || (x > band && !self.beam.near_equilibrium(self.vgb, x, band)))
    }

    /// RK4 substep for a commit whose gate–body voltage ramps from
    /// `v_start` to `v_end`: the in-flight resolution unless the beam is
    /// quasi-static at both ends of the ramp. Here any distance from
    /// equilibrium counts, so a beam about to be pulled off rest is
    /// resolved finely from its first step. A contacted beam needs the
    /// fine grid only when the ramp's weakest field can release it; a beam
    /// that stays held never reaches the RK4 stage.
    fn substep(&self, v_start: f64, v_end: f64) -> f64 {
        let band = self.band();
        let fine = if self.state.contacted {
            let v_min = if v_start * v_end <= 0.0 {
                0.0
            } else {
                v_start.abs().min(v_end.abs())
            };
            !self.beam.holds_contact(v_min)
        } else {
            self.state.v.abs() > band / self.tau_mech
                || [v_start, v_end]
                    .iter()
                    .any(|&vgb| !self.beam.near_equilibrium(vgb, self.state.x, band))
        };
        let per_tau = if fine {
            FLIGHT_SUBSTEPS
        } else {
            QUASI_STATIC_SUBSTEPS
        };
        self.tau_mech / per_tau
    }
}

impl Device for NemRelay {
    fn name(&self) -> &str {
        &self.name
    }

    fn nodes(&self) -> Vec<NodeId> {
        vec![self.d, self.s, self.g, self.b]
    }

    fn load(&self, ctx: &EvalCtx<'_>, stamps: &mut Stamps<'_>) {
        let g_ds = if self.state.contacted {
            1.0 / self.r_on
        } else {
            1.0 / R_OFF_LEAK
        };
        stamps.conductance(self.d, self.s, g_ds);
        self.cgb.load(ctx, stamps, self.g, self.b);
    }

    fn commit(&mut self, ctx: &CommitCtx<'_>) {
        self.cgb.commit(ctx, self.g, self.b);
        let vgb_now = ctx.v(self.g) - ctx.v(self.b);
        match ctx.analysis {
            AnalysisKind::Op | AnalysisKind::DcSweep => {
                let v = vgb_now.abs();
                if self.state.contacted {
                    if v < self.beam.v_pull_out() {
                        self.state.contacted = false;
                        self.state.x = self.beam.equilibrium(v).unwrap_or(0.0);
                        self.state.v = 0.0;
                    }
                } else {
                    match self.beam.equilibrium(v) {
                        Some(x) => {
                            self.state.x = x;
                            self.state.v = 0.0;
                        }
                        None => {
                            self.state = BeamState::contacted(&self.beam);
                        }
                    }
                }
            }
            AnalysisKind::Transient => {
                if ctx.dt > 0.0 {
                    let vgb_prev = ctx.v_prev(self.g) - ctx.v_prev(self.b);
                    let dt_sub = self.substep(vgb_prev, vgb_now);
                    advance(
                        &self.beam,
                        &mut self.state,
                        vgb_prev,
                        vgb_now,
                        ctx.dt,
                        dt_sub,
                    );
                }
            }
        }
        self.vgb = vgb_now;
        self.cgb.farads = self.beam.c_gb(self.state.x);
    }

    /// `τ_mech/50` while the beam is in flight (see the module doc), else
    /// `5·τ_mech`: a contacted beam, or a released one resting at or
    /// following the equilibrium of a slowly changing gate voltage.
    fn dt_hint(&self, _t: f64) -> f64 {
        if self.in_flight() {
            self.tau_mech / 50.0
        } else {
            // Bounded even at rest so release/pull-in onset is never
            // jumped over by a huge step.
            self.tau_mech * 5.0
        }
    }

    fn probe_names(&self) -> Vec<&'static str> {
        vec!["pos", "contact", "cgb"]
    }

    fn probe(&self, name: &str) -> Option<f64> {
        match name {
            "pos" => Some(self.state.x / self.beam.g_contact),
            "contact" => Some(f64::from(u8::from(self.state.contacted))),
            "cgb" => Some(self.beam.c_gb(self.state.x)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcam_spice::prelude::*;

    fn relay_fixture(ckt: &mut Circuit, contacted: bool) -> (NodeId, NodeId, NodeId) {
        let d = ckt.node("d");
        let s = ckt.node("s");
        let g = ckt.node("g");
        let relay = NemRelay::new("n1", d, s, g, ckt.gnd(), &NemTargets::paper())
            .unwrap()
            .with_contact(contacted);
        ckt.add(relay).unwrap();
        (d, s, g)
    }

    #[test]
    fn off_relay_blocks_on_relay_conducts() {
        // Divider: Vdd — R(10k) — d, relay d→s, s — R(10k) — gnd.
        for (contacted, expect_mid) in [(false, false), (true, true)] {
            let mut ckt = Circuit::new();
            let (d, s, g) = relay_fixture(&mut ckt, contacted);
            let vdd = ckt.node("vdd");
            let gnd = ckt.gnd();
            ckt.add(VoltageSource::dc("vdd", vdd, gnd, 1.0)).unwrap();
            // Hold the gate where the state is retained either way
            // (V_PO < 0.3 < V_PI).
            ckt.add(VoltageSource::dc("vg", g, gnd, 0.3)).unwrap();
            ckt.add(Resistor::new("r1", vdd, d, 10e3).unwrap()).unwrap();
            ckt.add(Resistor::new("r2", s, gnd, 10e3).unwrap()).unwrap();
            let op = operating_point(&mut ckt, &SimOptions::default()).unwrap();
            let v_s = op.voltage(&ckt, "s").unwrap();
            if expect_mid {
                // 1 kΩ contact between two 10 kΩ: v(s) ≈ 10/(21) ≈ 0.476.
                assert!((v_s - 10.0 / 21.0).abs() < 0.01, "v(s) = {v_s}");
            } else {
                assert!(v_s < 1e-3, "open relay must isolate, v(s) = {v_s}");
            }
        }
    }

    #[test]
    fn transient_pull_in_near_tau_mech() {
        // Step the gate to 1 V and watch the contact close.
        let mut ckt = Circuit::new();
        let (d, s, g) = relay_fixture(&mut ckt, false);
        let vdd = ckt.node("vdd");
        let gnd = ckt.gnd();
        ckt.add(VoltageSource::dc("vdd", vdd, gnd, 1.0)).unwrap();
        ckt.add(VoltageSource::new(
            "vg",
            g,
            gnd,
            Waveshape::step(0.0, 1.0, 1e-9, 50e-12),
        ))
        .unwrap();
        ckt.add(Resistor::new("r1", vdd, d, 10e3).unwrap()).unwrap();
        ckt.add(Resistor::new("r2", s, gnd, 10e3).unwrap()).unwrap();
        let wave = transient(&mut ckt, TransientSpec::to(8e-9), &SimOptions::default()).unwrap();
        let t_close = cross_time(&wave, "n1.contact", 0.5, Edge::Rising, 0.0).unwrap();
        let delay = t_close - 1e-9;
        assert!(
            (delay - 2e-9).abs() < 0.4e-9,
            "pull-in delay = {delay:.3e}s, expected ≈ 2 ns"
        );
        // Output node follows once contacted.
        assert!(wave.last("v(s)").unwrap() > 0.4);
    }

    #[test]
    fn dc_sweep_traces_hysteresis() {
        let mut ckt = Circuit::new();
        let (d, s, g) = relay_fixture(&mut ckt, false);
        let gnd = ckt.gnd();
        ckt.add(VoltageSource::dc("vg", g, gnd, 0.0)).unwrap();
        // Small read bias on the contact.
        ckt.add(VoltageSource::dc("vd", d, gnd, 0.05)).unwrap();
        ckt.add(Resistor::new("rs", s, gnd, 1e3).unwrap()).unwrap();
        let spec = DcSweepSpec::triangle("vg", 0.0, 1.0, 101);
        let wave = dc_sweep(&mut ckt, &spec, &SimOptions::default()).unwrap();
        let contact = wave.trace("n1.contact").unwrap();
        let axis = wave.axis();
        let n = axis.len();
        // Upward leg: find switch-on voltage.
        let on_idx = contact.iter().position(|&c| c > 0.5).unwrap();
        let v_on = axis[on_idx];
        assert!((v_on - 0.53).abs() < 0.02, "V_PI traced = {v_on}");
        // Downward leg: find release voltage.
        let off_idx = (0..n)
            .rev()
            .find(|&i| i > on_idx && contact[i] < 0.5)
            .expect("relay releases on the down-sweep");
        // Find actual release: last index where contact transitions 1→0.
        let mut v_off = None;
        for i in (on_idx + 1)..n {
            if contact[i - 1] > 0.5 && contact[i] < 0.5 {
                v_off = Some(axis[i]);
            }
        }
        let v_off = v_off.expect("relay must release on the down-sweep");
        assert!(v_off < 0.2, "V_PO traced = {v_off}");
        assert!(v_off < v_on, "hysteresis window must be open");
        let _ = off_idx;
    }

    #[test]
    fn holds_state_at_refresh_voltage() {
        // V_R = 0.5 V inside the window: both states must be preserved —
        // the enabling property of one-shot refresh (paper Fig. 4).
        for contacted in [false, true] {
            let mut ckt = Circuit::new();
            let (_d, s, g) = relay_fixture(&mut ckt, contacted);
            let gnd = ckt.gnd();
            ckt.add(VoltageSource::new(
                "vg",
                g,
                gnd,
                Waveshape::step(if contacted { 1.0 } else { 0.0 }, 0.5, 1e-9, 0.2e-9),
            ))
            .unwrap();
            ckt.add(Resistor::new("rs", s, gnd, 1e6).unwrap()).unwrap();
            let d = ckt.node("d");
            ckt.add(Resistor::new("rd", d, gnd, 1e6).unwrap()).unwrap();
            let wave =
                transient(&mut ckt, TransientSpec::to(20e-9), &SimOptions::default()).unwrap();
            let end_state = wave.last("n1.contact").unwrap();
            assert_eq!(
                end_state > 0.5,
                contacted,
                "state flipped at V_R = 0.5 (started contacted = {contacted})"
            );
        }
    }

    /// A free-standing paper relay with its beam set to `(x, v)` after a
    /// commit at gate–body voltage `vgb`.
    fn relay_in(x: f64, v: f64, vgb: f64) -> NemRelay {
        let mut ckt = Circuit::new();
        let (d, s, g) = (ckt.node("d"), ckt.node("s"), ckt.node("g"));
        let mut relay = NemRelay::new("n1", d, s, g, ckt.gnd(), &NemTargets::paper()).unwrap();
        relay.state = BeamState {
            x,
            v,
            contacted: false,
        };
        relay.vgb = vgb;
        relay
    }

    /// The in-flight rule before the quasi-static split: any motion or any
    /// travel beyond `10⁻³·g_contact`.
    fn old_in_flight(r: &NemRelay) -> bool {
        !r.state.contacted
            && (r.state.v.abs() > 1e-3 * r.beam.g_contact / r.tau_mech
                || r.state.x > 1e-3 * r.beam.g_contact)
    }

    #[test]
    fn beam_just_released_from_contact_is_in_flight() {
        // Still at the dimple with zero speed, but the gate fell to 50 mV.
        let g_contact = relay_in(0.0, 0.0, 0.0).beam.g_contact;
        let r = relay_in(g_contact, 0.0, 0.05);
        assert!(r.in_flight());
        assert_eq!(r.dt_hint(0.0), r.tau_mech / 50.0);
    }

    #[test]
    fn gate_at_or_above_pull_in_is_in_flight() {
        let r = relay_in(0.0, 0.0, 0.0);
        let v_pi = r.beam.v_pull_in();
        // At rest where 0.45 V holds it: only a gate at or above V_PI,
        // which has no equilibrium, makes it in flight.
        let x = r.beam.equilibrium(0.45).unwrap();
        assert!(!relay_in(x, 0.0, 0.45).in_flight());
        for vgb in [v_pi, 1.05 * v_pi, -v_pi, 1.0] {
            assert!(relay_in(x, 0.0, vgb).in_flight(), "vgb = {vgb}");
        }
    }

    #[test]
    fn beam_following_a_microsecond_decay_is_quasi_static() {
        // Gate decays 0.4 → 0.2 V over 2 µs: the beam tracks its
        // equilibrium far from the 1e-3·g_contact band around rest.
        let mut ckt = Circuit::new();
        let (_d, _s, g) = relay_fixture(&mut ckt, false);
        let gnd = ckt.gnd();
        ckt.add(VoltageSource::new(
            "vg",
            g,
            gnd,
            Waveshape::step(0.4, 0.2, 10e-9, 2e-6),
        ))
        .unwrap();
        let wave = transient(&mut ckt, TransientSpec::to(1e-6), &SimOptions::default()).unwrap();
        let r = ckt.device_as::<NemRelay>("n1").unwrap();
        assert!(old_in_flight(r), "the old rule counted this beam in flight");
        assert!(!r.in_flight());
        assert_eq!(r.dt_hint(1e-6), 5.0 * r.tau_mech);
        // 1 µs at the old τ/50 cap would take 25 000 steps.
        let steps = wave.stats().unwrap().steps_accepted;
        assert!(steps < 1_000, "{steps} accepted steps");
        let x_eq = r.beam.equilibrium(r.vgb).unwrap();
        assert!((r.state.x - x_eq).abs() < 1e-3 * r.beam.g_contact);
    }

    #[test]
    fn in_flight_set_is_a_subset_of_the_old_rule() {
        let base = relay_in(0.0, 0.0, 0.0);
        let (g_contact, tau) = (base.beam.g_contact, base.tau_mech);
        let (tol, v_tol) = (1e-3 * g_contact, 1e-3 * g_contact / tau);
        let mut xs: Vec<f64> = (0..=40).map(|i| f64::from(i) * g_contact / 40.0).collect();
        xs.extend([0.5 * tol, tol, 1.5 * tol, 2.0 * tol]);
        let vs = [
            0.0,
            0.5 * v_tol,
            -0.5 * v_tol,
            2.0 * v_tol,
            -2.0 * v_tol,
            1.0,
        ];
        let vgbs: Vec<f64> = (0..=24)
            .map(|i| f64::from(i) * 0.05)
            .chain([base.beam.v_pull_in(), base.beam.v_pull_out()])
            .collect();
        let mut narrowed = 0;
        for &x in &xs {
            for &v in &vs {
                for &vgb in &vgbs {
                    let r = relay_in(x, v, vgb);
                    if r.in_flight() {
                        assert!(old_in_flight(&r), "x {x:e} v {v:e} vgb {vgb}");
                    } else if old_in_flight(&r) {
                        narrowed += 1;
                    }
                }
            }
        }
        assert!(narrowed > 0, "the quasi-static rule must drop some states");
    }

    #[test]
    fn cgb_probe_tracks_state() {
        let mut ckt = Circuit::new();
        let (_d, _s, _g) = relay_fixture(&mut ckt, true);
        let r = ckt.device_as::<NemRelay>("n1").unwrap();
        assert!((r.c_gb() - 20e-18).abs() < 1e-21);
        assert_eq!(r.probe("contact"), Some(1.0));
        assert_eq!(r.probe("pos"), Some(1.0));
        assert!(r.probe("bogus").is_none());
    }
}
