//! Ablation (DESIGN.md §4.2): the relay's mechanical ODE is integrated by
//! operator splitting with RK4 substeps inside each accepted electrical
//! step. These tests show the in-flight resolution (τ_mech/200) sits in the
//! converged regime: refining further changes the pull-in trajectory by
//! well under a percent, while a much coarser split visibly distorts it.
//! They also show the quasi-static resolution (τ_mech/20), used while the
//! beam rests or follows a slowly changing gate, tracks the fine path to
//! within 10⁻³·g_contact, and that the rest early return is exact.

use tcam_devices::nem::calibrate;
use tcam_devices::nem::mechanics::{advance, BeamParams, BeamState};
use tcam_devices::params::NemTargets;

/// The electrical step the relay asks for while quasi-static (5·τ_mech).
const QUIET_STEP: f64 = 10e-9;

/// Gate voltage of a linear ramp from `v0` to `v1` over `t_ramp` at `t`.
fn ramp(v0: f64, v1: f64, t_ramp: f64, t: f64) -> f64 {
    v0 + (v1 - v0) * (t / t_ramp).min(1.0)
}

/// Integrates `state` along the ramp in electrical steps of `dt` with
/// substep `dt_sub`, calling `each(t, state)` after every step.
fn follow_ramp(
    beam: &BeamParams,
    state: &mut BeamState,
    (v0, v1, t_ramp): (f64, f64, f64),
    t_end: f64,
    (dt, dt_sub): (f64, f64),
    mut each: impl FnMut(f64, &BeamState),
) {
    let mut t = 0.0;
    while t < t_end {
        let (a, b) = (ramp(v0, v1, t_ramp, t), ramp(v0, v1, t_ramp, t + dt));
        advance(beam, state, a, b, dt, dt_sub);
        t += dt;
        each(t, state);
    }
}

/// Integrates a full 1 V pull-in with the given substep and returns the
/// time of contact (linearly interpolated between substeps via bisection
/// on the step count).
fn pull_in_time(dt_sub: f64) -> f64 {
    let beam = calibrate(&NemTargets::paper()).expect("calibrates");
    let mut state = BeamState::released();
    let mut t = 0.0;
    let window = 10e-9;
    while t < window {
        advance(&beam, &mut state, 1.0, 1.0, dt_sub, dt_sub);
        t += dt_sub;
        if state.contacted {
            return t;
        }
    }
    panic!("no pull-in within {window} s at dt_sub = {dt_sub}");
}

#[test]
fn default_substep_is_converged() {
    let tau = NemTargets::paper().tau_mech;
    let coarse = pull_in_time(tau / 50.0);
    let default = pull_in_time(tau / 200.0);
    let fine = pull_in_time(tau / 1000.0);
    // Default vs 5× finer: < 1 % shift (discretisation of the landing
    // instant dominates, bounded by one substep).
    let err_default = (default - fine).abs() / fine;
    assert!(err_default < 0.01, "default error = {err_default:.4}");
    // Even the coarse split is within a few percent — the scheme is robust,
    // the default adds margin.
    let err_coarse = (coarse - fine).abs() / fine;
    assert!(err_coarse < 0.05, "coarse error = {err_coarse:.4}");
}

#[test]
fn trajectory_is_insensitive_to_electrical_step_partitioning() {
    // Integrating 2 ns as one advance() call with τ/200 substeps must agree
    // with forty 50 ps advance() calls — the operator-split contract the
    // transient engine relies on (it calls advance() once per accepted
    // electrical step, whatever that step is).
    let beam = calibrate(&NemTargets::paper()).expect("calibrates");
    let dt_sub = NemTargets::paper().tau_mech / 200.0;

    let mut one_shot = BeamState::released();
    advance(&beam, &mut one_shot, 1.0, 1.0, 1.5e-9, dt_sub);

    let mut chunked = BeamState::released();
    for _ in 0..30 {
        advance(&beam, &mut chunked, 1.0, 1.0, 50e-12, dt_sub);
    }

    assert_eq!(one_shot.contacted, chunked.contacted);
    let scale = beam.g_contact;
    assert!(
        ((one_shot.x - chunked.x) / scale).abs() < 1e-6,
        "x: {} vs {}",
        one_shot.x,
        chunked.x
    );
}

#[test]
fn release_dynamics_also_converge() {
    let beam = calibrate(&NemTargets::paper()).expect("calibrates");
    let tau = NemTargets::paper().tau_mech;
    // From contact, drop the gate to 0 V and time the spring-back to
    // half-travel for two substep resolutions.
    let half_time = |dt_sub: f64| -> f64 {
        let mut s = BeamState::contacted(&beam);
        let mut t = 0.0;
        while t < 20e-9 {
            advance(&beam, &mut s, 0.0, 0.0, dt_sub, dt_sub);
            t += dt_sub;
            if !s.contacted && s.x < beam.g_contact / 2.0 {
                return t;
            }
        }
        panic!("no release observed");
    };
    let a = half_time(tau / 200.0);
    let b = half_time(tau / 1000.0);
    assert!((a - b).abs() / b < 0.02, "{a:.3e} vs {b:.3e}");
}

#[test]
fn quasi_static_resolution_tracks_a_slow_ramp() {
    // A free beam at its 0.45 V equilibrium follows the gate down to 0 V
    // over 2 µs and then rests; τ/20 and τ/200 agree to 10⁻³·g_contact at
    // every electrical step.
    let beam = calibrate(&NemTargets::paper()).expect("calibrates");
    let tau = NemTargets::paper().tau_mech;
    let x0 = beam.equilibrium(0.45).expect("below V_PI");
    let trajectory = |dt_sub: f64| {
        let mut s = BeamState {
            x: x0,
            v: 0.0,
            contacted: false,
        };
        let mut xs = Vec::new();
        follow_ramp(
            &beam,
            &mut s,
            (0.45, 0.0, 2e-6),
            3e-6,
            (QUIET_STEP, dt_sub),
            |_, s| {
                xs.push(s.x);
            },
        );
        xs
    };
    let (coarse, fine) = (trajectory(tau / 20.0), trajectory(tau / 200.0));
    let worst = coarse
        .iter()
        .zip(&fine)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    assert!(
        worst < 1e-3 * beam.g_contact,
        "max |Δx| = {:.2e}·g_contact",
        worst / beam.g_contact
    );
}

#[test]
fn contacted_beam_releases_at_the_same_instant() {
    // Gate decays from the refresh level over 10 µs: the hold fails near
    // V_PO. The quasi-static grid sees the release within one of its own
    // substeps of the τ/200 grid.
    let beam = calibrate(&NemTargets::paper()).expect("calibrates");
    let tau = NemTargets::paper().tau_mech;
    let release = |dt_sub: f64| {
        let mut s = BeamState::contacted(&beam);
        let mut t_release = None;
        follow_ramp(
            &beam,
            &mut s,
            (0.5, 0.0, 10e-6),
            10e-6,
            (dt_sub, dt_sub),
            |t, s| {
                if !s.contacted && t_release.is_none() {
                    t_release = Some(t);
                }
            },
        );
        t_release.expect("the beam releases as the gate decays")
    };
    let (coarse, fine) = (release(tau / 20.0), release(tau / 200.0));
    assert!(
        (coarse - fine).abs() <= tau / 20.0,
        "release at {coarse:.4e} vs {fine:.4e} s"
    );
}

#[test]
fn rest_early_return_is_bit_identical() {
    // Released, at x = 0 with v = 0 under 0 V: every RK4 stage is exactly
    // zero, so the state leaves `advance` with the same bits it had.
    let beam = calibrate(&NemTargets::paper()).expect("calibrates");
    let tau = NemTargets::paper().tau_mech;
    assert_eq!(beam.f_electrostatic(0.0, 0.0).to_bits(), 0);
    for dt_sub in [tau / 20.0, tau / 200.0] {
        let mut s = BeamState::released();
        advance(&beam, &mut s, 0.0, 0.0, QUIET_STEP, dt_sub);
        assert_eq!(s.x.to_bits(), 0.0_f64.to_bits());
        assert_eq!(s.v.to_bits(), 0.0_f64.to_bits());
        assert!(!s.contacted);
    }
    // Any gate voltage at all takes the RK4 path and moves the beam.
    let mut s = BeamState::released();
    advance(&beam, &mut s, 0.0, 0.1, QUIET_STEP, tau / 20.0);
    assert!(s.x > 0.0);
}
