//! Lumped electromechanical model of the 4-terminal NEM relay beam.
//!
//! The beam is a spring–mass–damper driven by the parallel-plate
//! electrostatic force of the gate–body voltage:
//!
//! ```text
//! m·ẍ + b·ẋ + k·x = F_e(V, x) = ε0·A·V² / (2·(g0 − x)²)
//! ```
//!
//! `x` is the travel toward the gate, contact closes at `x = g_contact`
//! (> g0/3, i.e. past the pull-in instability, giving snap-through), and a
//! surface adhesion force holds the contact until the spring overcomes
//! electrostatics + adhesion — together these produce the published
//! V_PI/V_PO hysteresis. The gate–body capacitance is
//! `C_gb(x) = C_fixed + ε0·A/(g0 − x)`.

use crate::params::EPSILON_0;

/// Physical (lumped) parameters of the beam. Produced by
/// [`crate::nem::calibrate::calibrate`] from electrical targets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BeamParams {
    /// Actuation gap at rest, metres.
    pub g0: f64,
    /// Travel at which the dimple contacts (must exceed `g0/3` for
    /// snap-through hysteresis), metres.
    pub g_contact: f64,
    /// Effective actuation plate area, m².
    pub area: f64,
    /// Fixed (travel-independent) part of the gate–body capacitance, F.
    pub c_fixed: f64,
    /// Spring constant, N/m.
    pub k: f64,
    /// Effective mass, kg.
    pub mass: f64,
    /// Damping coefficient, N·s/m.
    pub damping: f64,
    /// Contact adhesion force, N.
    pub f_adhesion: f64,
}

impl BeamParams {
    /// Electrostatic gate force at travel `x` under gate–body voltage `v`.
    #[must_use]
    pub fn f_electrostatic(&self, v: f64, x: f64) -> f64 {
        let gap = (self.g0 - x).max(1e-12);
        EPSILON_0 * self.area * v * v / (2.0 * gap * gap)
    }

    /// Gate–body capacitance at travel `x`.
    #[must_use]
    pub fn c_gb(&self, x: f64) -> f64 {
        let gap = (self.g0 - x).max(1e-12);
        self.c_fixed + EPSILON_0 * self.area / gap
    }

    /// Quasi-static pull-in voltage `√(8·k·g0³ / (27·ε0·A))`.
    #[must_use]
    pub fn v_pull_in(&self) -> f64 {
        (8.0 * self.k * self.g0.powi(3) / (27.0 * EPSILON_0 * self.area)).sqrt()
    }

    /// Quasi-static pull-out voltage: the gate voltage below which the
    /// spring force at contact exceeds electrostatics + adhesion.
    #[must_use]
    pub fn v_pull_out(&self) -> f64 {
        let f_release = self.k * self.g_contact - self.f_adhesion;
        if f_release <= 0.0 {
            return 0.0; // permanently stuck — calibration rejects this
        }
        let gap = self.g0 - self.g_contact;
        (f_release * 2.0 * gap * gap / (EPSILON_0 * self.area)).sqrt()
    }

    /// Whether a beam held at contact stays there under gate voltage `v`:
    /// electrostatics plus adhesion at least match the spring.
    #[must_use]
    pub(crate) fn holds_contact(&self, v: f64) -> bool {
        self.k * self.g_contact <= self.f_electrostatic(v, self.g_contact) + self.f_adhesion
    }

    /// Whether travel `x` lies within `tol` of the stable equilibrium for
    /// gate voltage `v` — the distance [`Self::equilibrium`] would give,
    /// from two force evaluations instead of a bisection. On the stable
    /// branch the net force `F_e − k·x` is positive below the equilibrium
    /// and negative above it, so `x` is near iff the force changes sign
    /// across `[x − tol, x + tol]`. `false` when `v ≥ V_PI`: the net force
    /// then never turns negative, as no stable free position exists.
    #[must_use]
    pub(crate) fn near_equilibrium(&self, v: f64, x: f64, tol: f64) -> bool {
        let net = |x: f64| self.f_electrostatic(v, x) - self.k * x;
        net(x - tol) >= 0.0 && net(x + tol) <= 0.0
    }

    /// Undamped natural angular frequency `√(k/m)`.
    #[must_use]
    pub fn omega0(&self) -> f64 {
        (self.k / self.mass).sqrt()
    }

    /// Stable quasi-static equilibrium travel for gate voltage `v`
    /// (`None` when `v ≥ V_PI`, i.e. no stable free position exists).
    #[must_use]
    pub fn equilibrium(&self, v: f64) -> Option<f64> {
        let v = v.abs();
        if v >= self.v_pull_in() {
            return None;
        }
        if v == 0.0 {
            return Some(0.0);
        }
        // The stable branch lies in [0, g0/3]; bisect the force balance.
        let x_max = self.g0 / 3.0;
        let f = |x: f64| self.f_electrostatic(v, x) - self.k * x;
        let (mut lo, mut hi) = (0.0_f64, x_max);
        // f(0) > 0 and f(g0/3) < 0 for v < V_PI.
        if f(hi) > 0.0 {
            // Numerical corner right at the instability: treat as pulled in.
            return None;
        }
        for _ in 0..80 {
            let mid = 0.5 * (lo + hi);
            if f(mid) > 0.0 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Some(0.5 * (lo + hi))
    }
}

/// Mechanical state of one beam.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BeamState {
    /// Travel toward the gate, metres (0 = rest, `g_contact` = contacted).
    pub x: f64,
    /// Velocity, m/s.
    pub v: f64,
    /// Whether the dimple is in contact (D–S closed).
    pub contacted: bool,
}

impl BeamState {
    /// The released rest state.
    #[must_use]
    pub fn released() -> Self {
        Self {
            x: 0.0,
            v: 0.0,
            contacted: false,
        }
    }

    /// The contacted (ON) state.
    #[must_use]
    pub fn contacted(params: &BeamParams) -> Self {
        Self {
            x: params.g_contact,
            v: 0.0,
            contacted: true,
        }
    }
}

/// Integrates the beam dynamics over `dt` with gate–body voltage ramping
/// linearly from `v_start` to `v_end`, using RK4 substeps of at most
/// `dt_sub`. Handles contact capture and adhesive release.
pub fn advance(
    params: &BeamParams,
    state: &mut BeamState,
    v_start: f64,
    v_end: f64,
    dt: f64,
    dt_sub: f64,
) {
    debug_assert!(dt > 0.0 && dt_sub > 0.0);
    // A released beam at rest under 0 V stays put: every RK4 stage below
    // is exactly zero, so skipping them leaves the state bit-identical.
    if !state.contacted && state.x == 0.0 && state.v == 0.0 && v_start == 0.0 && v_end == 0.0 {
        return;
    }
    let n_sub = ((dt / dt_sub).ceil() as usize).clamp(1, 100_000);
    let h = dt / n_sub as f64;

    for i in 0..n_sub {
        let t_frac0 = i as f64 / n_sub as f64;
        let t_frac1 = (i + 1) as f64 / n_sub as f64;
        let v0 = v_start + (v_end - v_start) * t_frac0;
        let v1 = v_start + (v_end - v_start) * t_frac1;
        let vm = 0.5 * (v0 + v1);

        if state.contacted {
            // Held at contact: check adhesive release.
            if !params.holds_contact(v1) {
                state.contacted = false;
                state.x = params.g_contact;
                state.v = 0.0;
            } else {
                state.x = params.g_contact;
                state.v = 0.0;
                continue;
            }
        }

        // One RK4 step of the free-flight dynamics with v(t) sampled at the
        // classic 0, h/2, h/2, h points (voltage varies linearly).
        let accel = |x: f64, vel: f64, vg: f64| -> f64 {
            (params.f_electrostatic(vg, x.min(params.g_contact))
                - params.k * x
                - params.damping * vel)
                / params.mass
        };
        let (x0, u0) = (state.x, state.v);
        let k1x = u0;
        let k1u = accel(x0, u0, v0);
        let k2x = u0 + 0.5 * h * k1u;
        let k2u = accel(x0 + 0.5 * h * k1x, u0 + 0.5 * h * k1u, vm);
        let k3x = u0 + 0.5 * h * k2u;
        let k3u = accel(x0 + 0.5 * h * k2x, u0 + 0.5 * h * k2u, vm);
        let k4x = u0 + h * k3u;
        let k4u = accel(x0 + h * k3x, u0 + h * k3u, v1);
        let mut x_new = x0 + h / 6.0 * (k1x + 2.0 * k2x + 2.0 * k3x + k4x);
        let mut v_new = u0 + h / 6.0 * (k1u + 2.0 * k2u + 2.0 * k3u + k4u);

        // Contact capture (inelastic landing on the dimple).
        if x_new >= params.g_contact {
            x_new = params.g_contact;
            v_new = 0.0;
            state.contacted = true;
        }
        // Travel cannot go negative (beam anchored at rest position).
        if x_new < 0.0 {
            x_new = 0.0;
            if v_new < 0.0 {
                v_new = 0.0;
            }
        }
        state.x = x_new;
        state.v = v_new;
    }
}

/// Time for a released beam to reach contact under a constant gate voltage,
/// or `None` if it never contacts within `t_max`. Used by calibration.
#[must_use]
pub fn time_to_contact(params: &BeamParams, v: f64, t_max: f64) -> Option<f64> {
    let mut state = BeamState::released();
    let dt = t_max / 40_000.0;
    let mut t = 0.0;
    while t < t_max {
        advance(params, &mut state, v, v, dt, dt);
        t += dt;
        if state.contacted {
            return Some(t);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nem::calibrate::calibrate;
    use crate::params::NemTargets;

    fn params() -> BeamParams {
        calibrate(&NemTargets::paper()).expect("paper targets calibrate")
    }

    #[test]
    fn equilibrium_below_pull_in_is_stable_branch() {
        let p = params();
        let x = p.equilibrium(0.4).unwrap();
        assert!(x > 0.0 && x < p.g0 / 3.0);
        // Force balance holds.
        let f = p.f_electrostatic(0.4, x) - p.k * x;
        assert!(f.abs() < p.k * p.g0 * 1e-6);
    }

    #[test]
    fn equilibrium_above_pull_in_is_none() {
        let p = params();
        assert!(p.equilibrium(0.6).is_none());
        assert!(
            p.equilibrium(-0.6).is_none(),
            "force is polarity-independent"
        );
    }

    #[test]
    fn equilibrium_at_zero_volts_is_rest() {
        let p = params();
        assert_eq!(p.equilibrium(0.0), Some(0.0));
    }

    #[test]
    fn near_equilibrium_matches_the_bisected_distance() {
        let p = params();
        let tol = 1e-3 * p.g_contact;
        for i in 0..=20 {
            let v = f64::from(i) * 0.025; // 0 … 0.5 V, below V_PI
            let x_eq = p.equilibrium(v).unwrap();
            for j in -30_i32..=30 {
                let x = x_eq + f64::from(j) * 0.1 * tol;
                if x < 0.0 || j.abs() == 10 {
                    continue; // travel is never negative; skip the band edge
                }
                let near = (x - x_eq).abs() <= tol;
                assert_eq!(p.near_equilibrium(v, x, tol), near, "v {v} x {x:e}");
            }
        }
        // No stable position at or above V_PI: never near.
        let v_pi = p.v_pull_in();
        assert!((0..=10).all(|i| !p.near_equilibrium(v_pi, f64::from(i) * p.g0 / 30.0, tol)));
    }

    #[test]
    fn holds_contact_switches_at_pull_out() {
        let p = params();
        assert!(p.holds_contact(1.01 * p.v_pull_out()));
        assert!(!p.holds_contact(0.99 * p.v_pull_out()));
        assert!(!p.holds_contact(0.0));
    }

    #[test]
    fn advance_pulls_in_above_vpi() {
        let p = params();
        let mut s = BeamState::released();
        advance(&p, &mut s, 1.0, 1.0, 10e-9, 1e-12);
        assert!(s.contacted, "beam must contact at 1 V within 10 ns");
    }

    #[test]
    fn advance_does_not_pull_in_below_vpi() {
        let p = params();
        let mut s = BeamState::released();
        advance(&p, &mut s, 0.45, 0.45, 50e-9, 1e-12);
        assert!(!s.contacted, "0.45 V < V_PI must not switch");
        assert!(s.x < p.g0 / 3.0);
    }

    #[test]
    fn contact_holds_above_vpo_releases_below() {
        let p = params();
        let mut s = BeamState::contacted(&p);
        advance(&p, &mut s, 0.3, 0.3, 20e-9, 1e-12);
        assert!(s.contacted, "0.3 V > V_PO must hold");
        advance(&p, &mut s, 0.05, 0.05, 50e-9, 1e-12);
        assert!(!s.contacted, "0.05 V < V_PO must release");
        // Beam springs back toward rest.
        assert!(s.x < p.g_contact);
    }

    #[test]
    fn time_to_contact_monotone_in_voltage() {
        let p = params();
        let t1 = time_to_contact(&p, 0.8, 50e-9).unwrap();
        let t2 = time_to_contact(&p, 1.2, 50e-9).unwrap();
        assert!(t2 < t1, "stronger drive switches faster");
        assert!(time_to_contact(&p, 0.4, 50e-9).is_none());
    }

    #[test]
    fn travel_never_negative() {
        let p = params();
        let mut s = BeamState {
            x: 0.02 * p.g0,
            v: -1.0,
            contacted: false,
        };
        advance(&p, &mut s, 0.0, 0.0, 20e-9, 1e-12);
        assert!(s.x >= 0.0);
    }
}
