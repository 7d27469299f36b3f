//! Lockstep batched transient analysis for same-topology circuit sweeps.
//!
//! Monte-Carlo variation studies run N circuits that differ only in device
//! *values* — the MNA sparsity pattern, unknown layout, and (for the studies
//! in this repo) the source timing are identical across trials. This module
//! exploits that: one pattern pass and one symbolic LU analysis are shared
//! across all lanes, numeric values live in SoA planes (`[entry * n_lanes +
//! lane]`), and the time loop advances every lane with a single shared step
//! schedule (breakpoints, dt control, LTE accept/reject).
//!
//! Per-lane state stays per-lane: Newton iterates, convergence tests,
//! damping, device commits, waveforms, [`SolverTrace`]s, and — critically —
//! failure. A lane whose step cannot be rescued by the recovery ladder and
//! whose retry would drive the shared step below [`SimOptions::dt_min`] is
//! *quarantined*: it leaves the batch carrying its error and trace, and the
//! surviving lanes keep stepping. A 1000-trial study therefore never aborts
//! because one sample drew a pathological device.
//!
//! With a single lane the engine reduces exactly to the scalar
//! [`super::transient`] control flow on the sparse solver path — the batched
//! LU replays the scalar factorization op-for-op — so N=1 results are
//! bit-identical to `transient` with [`crate::options::SolverKind::Sparse`].
//! With several lanes the shared step schedule is the *union* of what each
//! lane would have chosen alone (smallest dt wins), so per-lane results
//! match dedicated runs within integration tolerance rather than bitwise.

use crate::analysis::op::operating_point_traced;
use crate::analysis::transient::TransientSpec;
use crate::device::{AnalysisKind, CommitCtx, EvalCtx, Stamps, UnknownIndex};
use crate::error::{Result, SpiceError};
use crate::mna::{PatternSink, SolveStats, ValueSink};
use crate::netlist::Circuit;
use crate::newton::numeric_worst_unknown;
use crate::options::{Integrator, SimOptions};
use crate::trace::{RejectReason, Rung, SolverTrace};
use crate::waveform::Waveform;
use std::mem;
use tcam_numeric::sparse::{CscMatrix, StampMap, TripletMatrix};
use tcam_numeric::sparse_lu::{BatchedLu, SparseLu, SweepBackend};
use tcam_numeric::NumericError;

/// Hard cap on shared step attempts, mirroring the scalar engine.
const MAX_STEP_ATTEMPTS: usize = 50_000_000;

/// A lane that left the batch before reaching `t_stop`.
#[derive(Debug)]
pub struct QuarantinedLane {
    /// Lane index in the input slice.
    pub lane: usize,
    /// Simulation time at which the lane was quarantined.
    pub time: f64,
    /// The failure that ejected it (OP failure, timestep underflow, …).
    pub error: SpiceError,
    /// Everything the solver tried on this lane before giving up.
    pub trace: SolverTrace,
}

/// Per-lane result of a [`batched_transient`] run.
#[derive(Debug)]
pub enum LaneOutcome {
    /// The lane reached `t_stop`; the waveform carries its stats and trace.
    Completed(Box<Waveform>),
    /// The lane was ejected mid-run; the batch continued without it.
    Quarantined(Box<QuarantinedLane>),
}

impl LaneOutcome {
    /// The completed waveform, if the lane finished.
    #[must_use]
    pub fn waveform(&self) -> Option<&Waveform> {
        match self {
            Self::Completed(w) => Some(w),
            Self::Quarantined(_) => None,
        }
    }

    /// The quarantine record, if the lane was ejected.
    #[must_use]
    pub fn quarantined(&self) -> Option<&QuarantinedLane> {
        match self {
            Self::Completed(_) => None,
            Self::Quarantined(q) => Some(q),
        }
    }

    /// Converts to a plain `Result`, discarding the quarantine trace.
    ///
    /// # Errors
    ///
    /// Returns the quarantined lane's error.
    pub fn into_result(self) -> Result<Waveform> {
        match self {
            Self::Completed(w) => Ok(*w),
            Self::Quarantined(q) => Err(q.error),
        }
    }
}

/// Result of a [`batched_transient`] run: one outcome per input lane, in
/// input order.
#[derive(Debug)]
pub struct BatchedRun {
    lanes: Vec<LaneOutcome>,
}

impl BatchedRun {
    /// Per-lane outcomes, in input order.
    #[must_use]
    pub fn lanes(&self) -> &[LaneOutcome] {
        &self.lanes
    }

    /// Consumes the run, yielding the per-lane outcomes.
    #[must_use]
    pub fn into_lanes(self) -> Vec<LaneOutcome> {
        self.lanes
    }

    /// Number of lanes that reached `t_stop`.
    #[must_use]
    pub fn n_completed(&self) -> usize {
        self.lanes
            .iter()
            .filter(|l| matches!(l, LaneOutcome::Completed(_)))
            .count()
    }

    /// Number of lanes ejected before `t_stop`.
    #[must_use]
    pub fn n_quarantined(&self) -> usize {
        self.lanes.len() - self.n_completed()
    }
}

fn any(mask: &[bool]) -> bool {
    mask.iter().any(|&b| b)
}

/// Shared-pattern MNA assembly for N same-topology lanes.
///
/// One pattern pass (verified identical across lanes) produces the shared
/// compressed structure; each lane's refill scatters its values into an SoA
/// plane consumed by the batched LU. A lane whose reused pivot order
/// degrades falls back to a private [`SparseLu`] re-pivoted over the shared
/// column order — it leaves the shared fast path but stays in lockstep.
struct BatchedMna {
    index: UnknownIndex,
    n_lanes: usize,
    /// Shared structure; `values` doubles as a one-lane scratch target for
    /// scatter/gather at the plane boundary.
    csc: CscMatrix,
    map: StampMap,
    stamp_vals: Vec<f64>,
    gmin_first_stamp: usize,
    /// Matrix values, SoA: `[csc_entry * n_lanes + lane]`.
    values_plane: Vec<f64>,
    /// RHS in, solution out, SoA: `[row * n_lanes + lane]`.
    rhs_plane: Vec<f64>,
    /// Lane-major staging for refilled matrix values:
    /// `[lane * nnz + csc_entry]`. Refill writes each lane contiguously
    /// here; [`BatchedMna::stage_to_planes`] transposes the refilled lanes
    /// into the SoA planes in cache-sized tiles (a direct strided write per
    /// lane walks the whole `nnz × n_lanes` plane once per lane, which
    /// measurably dominates the stamp phase at wide batches).
    lane_vals: Vec<f64>,
    /// Lane-major staging for refilled RHS values: `[lane * n + row]`.
    /// Doubles as the contiguous RHS source for override-lane solves.
    lane_rhs: Vec<f64>,
    backend: Option<BatchedLu>,
    /// Scratch reused by `BatchedLu::refactorize_lanes`.
    status: Vec<Option<NumericError>>,
    /// Per-lane private factorizations after pivot degradation.
    overrides: Vec<Option<SparseLu>>,
    /// Per-lane solver counters, attached to each lane's waveform.
    stats: Vec<SolveStats>,
}

impl BatchedMna {
    /// Runs the pattern pass on every lane, asserts the stamp patterns are
    /// identical, and sets up the shared structure.
    fn build(circuits: &[Circuit], analysis: AnalysisKind, opts: &SimOptions) -> Result<Self> {
        let n_lanes = circuits.len();
        let index = circuits[0].unknown_index();
        let n = index.n_unknowns();
        if n == 0 {
            return Err(SpiceError::InvalidCircuit(
                "circuit has no unknowns (only ground?)".into(),
            ));
        }
        let mut shared: Option<(CscMatrix, StampMap, usize)> = None;
        for (lane, ckt) in circuits.iter().enumerate() {
            let idx = ckt.unknown_index();
            if idx.n_unknowns() != n || idx.n_node_unknowns() != index.n_node_unknowns() {
                return Err(SpiceError::InvalidCircuit(format!(
                    "batched lane {lane} has a different unknown layout than lane 0"
                )));
            }
            let mut sink = PatternSink {
                triplets: TripletMatrix::new(n, n),
                rhs_len: n,
            };
            let zeros = vec![0.0; n];
            let ctx = EvalCtx {
                analysis,
                time: 0.0,
                dt: 1e-12,
                integrator: opts.integrator,
                x: &zeros,
                x_prev: &zeros,
                index: idx,
                source_scale: 1.0,
            };
            for dev in ckt.devices() {
                let mut stamps = Stamps::new(&mut sink, idx);
                dev.load(&ctx, &mut stamps);
            }
            let gmin_first = sink.triplets.len();
            for i in 0..idx.n_node_unknowns() {
                sink.triplets.add(i, i, opts.gmin);
            }
            for b in 0..idx.n_unknowns() - idx.n_node_unknowns() {
                let k = idx.n_node_unknowns() + b;
                sink.triplets.add(k, k, 0.0);
            }
            let n_stamps = sink.triplets.len();
            let (csc, map) = sink.triplets.to_csc()?;
            match &shared {
                None => {
                    debug_assert_eq!(map.len(), n_stamps);
                    shared = Some((csc, map, gmin_first));
                }
                Some((csc0, map0, gmin0)) => {
                    let same = csc.col_ptr() == csc0.col_ptr()
                        && csc.row_idx() == csc0.row_idx()
                        && gmin_first == *gmin0
                        && map.len() == map0.len()
                        && (0..map.len()).all(|i| map.slot(i) == map0.slot(i));
                    if !same {
                        return Err(SpiceError::InvalidCircuit(format!(
                            "batched lane {lane} stamps a different pattern than \
                             lane 0 — lanes must share topology"
                        )));
                    }
                }
            }
        }
        let (csc, map, gmin_first_stamp) =
            shared.expect("at least one lane by caller's non-empty check");
        let nnz = csc.nnz();
        let n_stamps = map.len();
        Ok(Self {
            index,
            n_lanes,
            csc,
            map,
            stamp_vals: vec![0.0; n_stamps],
            gmin_first_stamp,
            values_plane: vec![0.0; nnz * n_lanes],
            rhs_plane: vec![0.0; n * n_lanes],
            lane_vals: vec![0.0; nnz * n_lanes],
            lane_rhs: vec![0.0; n * n_lanes],
            backend: None,
            status: vec![None; n_lanes],
            overrides: (0..n_lanes).map(|_| None).collect(),
            stats: vec![SolveStats::default(); n_lanes],
        })
    }

    /// Refills one lane's matrix values and RHS at iterate `x` into the
    /// lane-major staging buffers (contiguous writes; the plane transpose
    /// happens once per solve in [`BatchedMna::stage_to_planes`]). Same
    /// stamp protocol (and assertions) as [`crate::mna::MnaSystem::refill`].
    #[allow(clippy::too_many_arguments)]
    fn refill_lane(
        &mut self,
        circuit: &Circuit,
        lane: usize,
        time: f64,
        dt: f64,
        integrator: Integrator,
        x: &[f64],
        x_prev: &[f64],
        gmin: f64,
    ) {
        let n = self.index.n_unknowns();
        let nnz = self.csc.nnz();
        let lane_rhs = &mut self.lane_rhs[lane * n..(lane + 1) * n];
        lane_rhs.fill(0.0);
        let ctx = EvalCtx {
            analysis: AnalysisKind::Transient,
            time,
            dt,
            integrator,
            x,
            x_prev,
            index: self.index,
            source_scale: 1.0,
        };
        let mut sink = ValueSink {
            vals: &mut self.stamp_vals,
            cursor: 0,
            rhs: lane_rhs,
        };
        {
            let _obs = tcam_obs::span!("device_eval");
            for dev in circuit.devices() {
                let mut stamps = Stamps::new(&mut sink, self.index);
                dev.load(&ctx, &mut stamps);
            }
        }
        assert_eq!(
            sink.cursor, self.gmin_first_stamp,
            "a device emitted a different stamp count than its pattern pass"
        );
        let _obs = tcam_obs::span!("mna_stamp");
        for i in 0..self.index.n_node_unknowns() {
            self.stamp_vals[self.gmin_first_stamp + i] = gmin;
        }
        for s in self.gmin_first_stamp + self.index.n_node_unknowns()..self.stamp_vals.len() {
            self.stamp_vals[s] = 0.0;
        }
        self.map
            .scatter(
                &self.stamp_vals,
                &mut self.lane_vals[lane * nnz..(lane + 1) * nnz],
            )
            .expect("stamp count fixed at build time");
    }

    /// Transposes the staged lane-major values and RHS of the `active`
    /// lanes into the SoA planes, in tiles small enough that the strided
    /// plane writes stay cache-resident across lanes.
    fn stage_to_planes(&mut self, active: &[bool]) {
        let _obs = tcam_obs::span!("mna_stamp");
        const TILE: usize = 32;
        let nl = self.n_lanes;
        let nnz = self.csc.nnz();
        let n = self.index.n_unknowns();
        for t0 in (0..nnz).step_by(TILE) {
            let t1 = (t0 + TILE).min(nnz);
            for (lane, &is_active) in active.iter().enumerate() {
                if !is_active {
                    continue;
                }
                for e in t0..t1 {
                    self.values_plane[e * nl + lane] = self.lane_vals[lane * nnz + e];
                }
            }
        }
        for t0 in (0..n).step_by(TILE) {
            let t1 = (t0 + TILE).min(n);
            for (lane, &is_active) in active.iter().enumerate() {
                if !is_active {
                    continue;
                }
                for r in t0..t1 {
                    self.rhs_plane[r * nl + lane] = self.lane_rhs[lane * n + r];
                }
            }
        }
    }

    /// Copies one lane's staged matrix values into the scratch CSC, for
    /// scalar (seed / override) factorizations.
    fn gather_values_into_csc(&mut self, lane: usize) {
        let nnz = self.csc.nnz();
        self.csc
            .values_mut()
            .copy_from_slice(&self.lane_vals[lane * nnz..(lane + 1) * nnz]);
    }

    /// Gives `lane` (whose values are in `csc`) a private factorization,
    /// re-pivoted over the shared column order, after its reused pivot
    /// order degraded.
    fn repivot_privately(&mut self, lane: usize) -> std::result::Result<(), NumericError> {
        let _obs = tcam_obs::span!("lu_factorize");
        let q = self
            .backend
            .as_ref()
            .expect("seeded before any refactorize")
            .column_order();
        let lu = SparseLu::factorize_with_order(&self.csc, q)?;
        self.stats[lane].fresh_factorizations += 1;
        self.stats[lane].factor_nnz = lu.factor_nnz();
        self.overrides[lane] = Some(lu);
        Ok(())
    }

    /// Factorizes and solves every `active` lane against its refilled
    /// matrix/RHS, writing each solution into `out[lane]` (resized to fit).
    /// Returns a per-lane error slot: `None` means `out[lane]` is valid.
    ///
    /// The first call seeds the shared symbolic structure with a fresh
    /// full-pivoting factorization of the first active lane — exactly the
    /// scalar path's first solve. Later calls refactorize all batched lanes
    /// in one SoA pass; a lane whose reused pivot degrades drops to a
    /// private full-pivoting factorization (`overrides`) from then on,
    /// mirroring the scalar PivotDegraded fallback.
    fn solve_lanes(&mut self, active: &[bool], out: &mut [Vec<f64>]) -> Vec<Option<NumericError>> {
        let nl = self.n_lanes;
        let n = self.index.n_unknowns();
        self.stage_to_planes(active);
        let mut errs: Vec<Option<NumericError>> = (0..nl).map(|_| None).collect();
        let mut just_seeded: Option<usize> = None;

        if self.backend.is_none() {
            let _obs = tcam_obs::span!("lu_factorize");
            for lane in 0..nl {
                if !active[lane] {
                    continue;
                }
                self.gather_values_into_csc(lane);
                match SparseLu::factorize(&self.csc) {
                    Ok(seed) => {
                        self.stats[lane].fresh_factorizations += 1;
                        // Every lane shares the seed's fill until it
                        // re-pivots privately.
                        for s in &mut self.stats {
                            s.factor_nnz = seed.factor_nnz();
                        }
                        self.backend = Some(BatchedLu::from_seed(&seed, nl, lane));
                        just_seeded = Some(lane);
                        break;
                    }
                    // A singular seed candidate errors like its scalar
                    // counterpart; the next active lane gets to seed.
                    Err(e) => errs[lane] = Some(e),
                }
            }
            if self.backend.is_none() {
                return errs; // every active lane was singular
            }
        }

        // Batched refactorize over the shared symbolic structure.
        let mut batch_mask: Vec<bool> = (0..nl)
            .map(|l| {
                active[l]
                    && errs[l].is_none()
                    && self.overrides[l].is_none()
                    && just_seeded != Some(l)
            })
            .collect();
        if any(&batch_mask) {
            let _obs = tcam_obs::span!("lu_refactorize");
            let backend = self.backend.as_mut().expect("seeded above");
            backend.refactorize_lanes(&self.csc, &self.values_plane, &batch_mask, &mut self.status);
            for lane in 0..nl {
                if !batch_mask[lane] {
                    continue;
                }
                match self.status[lane].take() {
                    None => self.stats[lane].refactorizations += 1,
                    Some(NumericError::PivotDegraded { .. }) => {
                        // The shared pivot order went bad for this lane's
                        // values: give it a private fresh factorization over
                        // the shared column order.
                        batch_mask[lane] = false;
                        self.gather_values_into_csc(lane);
                        errs[lane] = self.repivot_privately(lane).err();
                    }
                    Some(e) => {
                        batch_mask[lane] = false;
                        errs[lane] = Some(e);
                    }
                }
            }
        }
        if let Some(lane) = just_seeded {
            batch_mask[lane] = true; // its factors were installed by from_seed
        }

        // Private-path refactorizes (lanes that degraded on an earlier call).
        for lane in 0..nl {
            if !active[lane] || errs[lane].is_some() || self.overrides[lane].is_none() {
                continue;
            }
            self.gather_values_into_csc(lane);
            let refac = {
                let _obs = tcam_obs::span!("lu_refactorize");
                self.overrides[lane]
                    .as_mut()
                    .expect("checked above")
                    .refactorize(&self.csc)
            };
            match refac {
                Ok(()) => self.stats[lane].refactorizations += 1,
                Err(NumericError::PivotDegraded { .. }) => {
                    errs[lane] = self.repivot_privately(lane).err();
                }
                Err(e) => errs[lane] = Some(e),
            }
        }

        // Solve: one SoA pass for the batched lanes, scalar for overrides.
        let _obs = tcam_obs::span!("back_solve");
        if any(&batch_mask) {
            let backend = self.backend.as_mut().expect("seeded above");
            backend.solve_lanes(&mut self.rhs_plane, &batch_mask);
            for lane in 0..nl {
                if batch_mask[lane] {
                    out[lane].resize(n, 0.0);
                    backend.gather_lane(&self.rhs_plane, lane, &mut out[lane]);
                }
            }
        }
        for lane in 0..nl {
            if !active[lane] || errs[lane].is_some() || batch_mask[lane] {
                continue;
            }
            let Some(lu) = self.overrides[lane].as_mut() else {
                continue; // seed-candidate failure already recorded
            };
            out[lane].resize(n, 0.0);
            out[lane].copy_from_slice(&self.lane_rhs[lane * n..(lane + 1) * n]);
            if let Err(e) = lu.solve_in_place(&mut out[lane]) {
                errs[lane] = Some(e);
            }
        }
        errs
    }
}

/// Lockstep damped Newton over the masked lanes at one `(time, dt)` point,
/// mirroring [`crate::newton::solve_point_in_place`] per lane: shared
/// iteration count budget, per-lane refill/solve/damping/convergence. On
/// return `outcomes[lane]` is `Some(Ok(iterations))` or
/// `Some(Err(NonConvergence))` for every masked lane.
#[allow(clippy::too_many_arguments)]
fn newton_lanes(
    circuits: &[Circuit],
    mna: &mut BatchedMna,
    time: f64,
    dt: f64,
    integrator: Integrator,
    x_prevs: &[Vec<f64>],
    xs: &mut [Vec<f64>],
    x_news: &mut [Vec<f64>],
    mask: &[bool],
    opts: &SimOptions,
    gmin: f64,
    outcomes: &mut [Option<Result<usize>>],
) {
    let nl = circuits.len();
    let n_nodes = mna.index.n_node_unknowns();
    let mut needs: Vec<bool> = mask.to_vec();
    let mut max_deltas = vec![f64::INFINITY; nl];
    let mut worst_idxs: Vec<Option<usize>> = vec![None; nl];
    for (lane, o) in outcomes.iter_mut().enumerate() {
        if mask[lane] {
            *o = None;
        }
    }

    for iter in 1..=opts.max_nr_iters {
        if !any(&needs) {
            break;
        }
        for lane in 0..nl {
            if !needs[lane] {
                continue;
            }
            mna.refill_lane(
                &circuits[lane],
                lane,
                time,
                dt,
                integrator,
                &xs[lane],
                &x_prevs[lane],
                gmin,
            );
            mna.stats[lane].nr_iterations += 1;
        }
        let errs = mna.solve_lanes(&needs, x_news);
        let _obs = tcam_obs::span!("nr_update");
        for lane in 0..nl {
            if !needs[lane] {
                continue;
            }
            if let Some(ne) = &errs[lane] {
                outcomes[lane] = Some(Err(SpiceError::NonConvergence {
                    time,
                    iterations: iter,
                    max_delta: f64::INFINITY,
                    worst_unknown: numeric_worst_unknown(&circuits[lane], ne),
                    cause: Some(ne.clone()),
                }));
                needs[lane] = false;
                continue;
            }
            let x_new = &mut x_news[lane];
            let x = &mut xs[lane];
            if let Some(bad) = x_new.iter().position(|v| !v.is_finite()) {
                outcomes[lane] = Some(Err(SpiceError::NonConvergence {
                    time,
                    iterations: iter,
                    max_delta: f64::INFINITY,
                    worst_unknown: circuits[lane].unknown_name(bad),
                    cause: None,
                }));
                needs[lane] = false;
                continue;
            }

            let max_delta = x_new
                .iter()
                .zip(x.iter())
                .fold(0.0_f64, |m, (n, o)| m.max((n - o).abs()));
            max_deltas[lane] = max_delta;
            let scale = if max_delta > opts.nr_damping_limit {
                opts.nr_damping_limit / max_delta
            } else {
                1.0
            };

            let mut converged = scale == 1.0;
            let mut worst_ratio = 0.0_f64;
            worst_idxs[lane] = None;
            for (i, (xn, xo)) in x_new.iter().zip(x.iter()).enumerate() {
                let atol = if i < n_nodes { opts.vntol } else { opts.abstol };
                let tol = atol + opts.reltol * xn.abs().max(xo.abs());
                let ratio = (xn - xo).abs() / tol;
                if ratio > 1.0 {
                    converged = false;
                }
                if ratio > worst_ratio {
                    worst_ratio = ratio;
                    worst_idxs[lane] = Some(i);
                }
            }

            if scale == 1.0 {
                mem::swap(x, x_new);
            } else {
                for (xi, xn) in x.iter_mut().zip(x_new.iter()) {
                    *xi += scale * (xn - *xi);
                }
            }

            if converged {
                outcomes[lane] = Some(Ok(iter));
                needs[lane] = false;
            }
        }
    }
    for lane in 0..nl {
        if needs[lane] {
            outcomes[lane] = Some(Err(SpiceError::NonConvergence {
                time,
                iterations: opts.max_nr_iters,
                max_delta: max_deltas[lane],
                worst_unknown: worst_idxs[lane].and_then(|i| circuits[lane].unknown_name(i)),
                cause: None,
            }));
        }
    }
}

/// Batched gmin ramp over the masked lanes, mirroring the scalar
/// `gmin_ramp`: every lane restarts from its previous accepted state, the
/// ramp walks `gmin_step_start` down a decade at a time, and a lane that
/// fails any stage abandons the ramp (its `xs` is then garbage; the caller
/// resets it). Returns the final-solve iteration count per rescued lane.
#[allow(clippy::too_many_arguments)]
fn gmin_ramp_lanes(
    circuits: &[Circuit],
    mna: &mut BatchedMna,
    t_new: f64,
    step: f64,
    integrator: Integrator,
    x_prevs: &[Vec<f64>],
    xs: &mut [Vec<f64>],
    x_news: &mut [Vec<f64>],
    mask: &[bool],
    opts: &SimOptions,
    traces: &mut [SolverTrace],
    outcomes: &mut [Option<Result<usize>>],
) -> Vec<Option<usize>> {
    let nl = circuits.len();
    for lane in 0..nl {
        if mask[lane] {
            xs[lane].clear();
            xs[lane].extend_from_slice(&x_prevs[lane]);
        }
    }
    let mut ramp: Vec<bool> = mask.to_vec();
    let mut gmin = opts.gmin_step_start;
    let mut stages = 0usize;
    while gmin > opts.gmin && stages <= opts.gmin_step_decades && any(&ramp) {
        for lane in 0..nl {
            if ramp[lane] {
                traces[lane].gmin_stage();
            }
        }
        newton_lanes(
            circuits, mna, t_new, step, integrator, x_prevs, xs, x_news, &ramp, opts, gmin,
            outcomes,
        );
        for (lane, r) in ramp.iter_mut().enumerate() {
            if *r && matches!(outcomes[lane], Some(Err(_))) {
                *r = false;
            }
        }
        gmin *= 0.1;
        stages += 1;
    }
    let mut rescued: Vec<Option<usize>> = (0..nl).map(|_| None).collect();
    if any(&ramp) {
        for lane in 0..nl {
            if ramp[lane] {
                traces[lane].gmin_stage();
            }
        }
        newton_lanes(
            circuits, mna, t_new, step, integrator, x_prevs, xs, x_news, &ramp, opts, opts.gmin,
            outcomes,
        );
        for lane in 0..nl {
            if ramp[lane] {
                if let Some(Ok(iters)) = outcomes[lane].take() {
                    rescued[lane] = Some(iters);
                }
            }
        }
    }
    rescued
}

/// Batched recovery ladder over the failing lanes at a fixed `(t_new,
/// step)`, mirroring the scalar `recover_step` rung order per lane: gmin
/// ramp at the step integrator, then TR→BE (plus a BE gmin ramp) when
/// trapezoidal. Returns the rescued iteration count + integrator per lane.
#[allow(clippy::too_many_arguments)]
fn recover_lanes(
    circuits: &[Circuit],
    mna: &mut BatchedMna,
    t_new: f64,
    step: f64,
    x_prevs: &[Vec<f64>],
    xs: &mut [Vec<f64>],
    x_news: &mut [Vec<f64>],
    failing: &[bool],
    opts: &SimOptions,
    traces: &mut [SolverTrace],
    rungs: &mut [Vec<Rung>],
    outcomes: &mut [Option<Result<usize>>],
) -> Vec<Option<(usize, Integrator)>> {
    let nl = circuits.len();
    let mut rescued: Vec<Option<(usize, Integrator)>> = (0..nl).map(|_| None).collect();

    for lane in 0..nl {
        if failing[lane] {
            rungs[lane].push(Rung::GminRamp);
            traces[lane].rung_engaged(Rung::GminRamp);
        }
    }
    {
        let _obs = tcam_obs::span!("rung_gmin_ramp");
        let ramp = gmin_ramp_lanes(
            circuits,
            mna,
            t_new,
            step,
            opts.integrator,
            x_prevs,
            xs,
            x_news,
            failing,
            opts,
            traces,
            outcomes,
        );
        for lane in 0..nl {
            if let Some(iters) = ramp[lane] {
                rescued[lane] = Some((iters, opts.integrator));
            }
        }
    }

    if opts.integrator == Integrator::Trapezoidal {
        let mut still: Vec<bool> = (0..nl)
            .map(|l| failing[l] && rescued[l].is_none())
            .collect();
        if any(&still) {
            for lane in 0..nl {
                if still[lane] {
                    rungs[lane].push(Rung::IntegratorFallback);
                    traces[lane].rung_engaged(Rung::IntegratorFallback);
                    xs[lane].clear();
                    xs[lane].extend_from_slice(&x_prevs[lane]);
                }
            }
            let _obs = tcam_obs::span!("rung_integrator_fallback");
            newton_lanes(
                circuits,
                mna,
                t_new,
                step,
                Integrator::BackwardEuler,
                x_prevs,
                xs,
                x_news,
                &still,
                opts,
                opts.gmin,
                outcomes,
            );
            for (lane, s) in still.iter_mut().enumerate() {
                if *s {
                    if let Some(Ok(iters)) = outcomes[lane].take() {
                        rescued[lane] = Some((iters, Integrator::BackwardEuler));
                        *s = false;
                    }
                }
            }
            if any(&still) {
                let ramp = gmin_ramp_lanes(
                    circuits,
                    mna,
                    t_new,
                    step,
                    Integrator::BackwardEuler,
                    x_prevs,
                    xs,
                    x_news,
                    &still,
                    opts,
                    traces,
                    outcomes,
                );
                for lane in 0..nl {
                    if let Some(iters) = ramp[lane] {
                        rescued[lane] = Some((iters, Integrator::BackwardEuler));
                    }
                }
            }
        }
    }
    rescued
}

/// Runs N same-topology circuits through one lockstep adaptive transient.
///
/// Each lane gets its own operating point, Newton state, device commits,
/// waveform, and [`SolverTrace`]; the pattern pass, symbolic LU analysis,
/// breakpoint schedule, and step-size control are shared. A lane that
/// cannot be advanced — operating-point failure, or an unrescuable Newton
/// failure that would drive the shared step below [`SimOptions::dt_min`] —
/// is quarantined with its error and trace while the rest of the batch
/// keeps going; per-lane failure never aborts the batch.
///
/// With one lane the result is bit-identical to [`super::transient`] run
/// with [`crate::options::SolverKind::Sparse`].
///
/// # Errors
///
/// Returns an error only for batch-level problems: an empty batch, an
/// invalid `t_stop`, a circuit with no unknowns, or lanes whose stamp
/// patterns differ (not same-topology). Per-lane failures are reported in
/// the returned [`BatchedRun`], never as a top-level error.
#[allow(clippy::too_many_lines)]
pub fn batched_transient(
    circuits: &mut [Circuit],
    spec: TransientSpec,
    opts: &SimOptions,
) -> Result<BatchedRun> {
    if circuits.is_empty() {
        return Err(SpiceError::InvalidCircuit(
            "batched transient needs at least one lane".into(),
        ));
    }
    if !(spec.t_stop.is_finite() && spec.t_stop > 0.0) {
        return Err(SpiceError::InvalidCircuit(format!(
            "transient t_stop must be finite and positive, got {}",
            spec.t_stop
        )));
    }
    let nl = circuits.len();
    let obs_mark = tcam_obs::phase_mark();

    let mut traces: Vec<SolverTrace> = (0..nl).map(|_| SolverTrace::new(opts.trace_events)).collect();
    let mut quarantines: Vec<Option<(f64, SpiceError)>> = (0..nl).map(|_| None).collect();
    let mut live = vec![true; nl];

    // 1. Per-lane operating point (commits device initial states). A lane
    //    whose OP fails is quarantined at t = 0; the batch carries on.
    let mut op_xs: Vec<Vec<f64>> = Vec::with_capacity(nl);
    for (lane, ckt) in circuits.iter_mut().enumerate() {
        match operating_point_traced(ckt, opts, &mut traces[lane]) {
            Ok(op) => op_xs.push(op.x),
            Err(e) => {
                // `lane_quarantine` flight events carry (lane, cause):
                // 0 = OP failure, 1 = step-attempt budget exhausted,
                // 2 = structural mid-run error, 3 = timestep underflow.
                tcam_obs::flight_record("lane_quarantine", lane as u64, 0);
                quarantines[lane] = Some((0.0, e));
                live[lane] = false;
                op_xs.push(Vec::new());
            }
        }
    }
    if !any(&live) {
        let lanes = traces
            .into_iter()
            .zip(quarantines)
            .enumerate()
            .map(|(lane, (trace, q))| {
                let (time, error) = q.expect("every lane quarantined on this path");
                LaneOutcome::Quarantined(Box::new(QuarantinedLane {
                    lane,
                    time,
                    error,
                    trace,
                }))
            })
            .collect();
        return Ok(BatchedRun { lanes });
    }

    // 2. Signal list, from lane 0 (the MNA build below verifies the lanes
    //    share their layout).
    let mut names: Vec<String> = Vec::new();
    for (id, name) in circuits[0].nodes().iter() {
        if !id.is_ground() {
            names.push(format!("v({name})"));
        }
    }
    names.extend(circuits[0].branch_names().iter().cloned());
    let mut probe_list: Vec<(usize, &'static str)> = Vec::new();
    for (di, dev) in circuits[0].devices().iter().enumerate() {
        for p in dev.probe_names() {
            names.push(format!("{}.{p}", dev.name()));
            probe_list.push((di, p));
        }
    }
    let mut energy_list: Vec<usize> = Vec::new();
    for (di, dev) in circuits[0].devices().iter().enumerate() {
        if dev.delivered_energy().is_some() {
            names.push(format!("e({})", dev.name()));
            energy_list.push(di);
        }
    }
    // Row-major record staging, one pair per lane: each accepted step
    // appends a contiguous row here, and the column-major [`Waveform`]s
    // are rebuilt in one pass per lane after the run. Appending straight
    // into the waveforms would scatter ~signal-count tiny pushes across
    // every lane's column vectors at every step — measurably slower once
    // several lanes round-robin through the cache.
    let n_cols = names.len();
    let mut staged_axis: Vec<Vec<f64>> = (0..nl).map(|_| Vec::new()).collect();
    let mut staged_rows: Vec<Vec<f64>> = (0..nl).map(|_| Vec::new()).collect();

    // 3. Shared-pattern batched MNA.
    let mut mna = BatchedMna::build(circuits, AnalysisKind::Transient, opts)?;
    let index = mna.index;
    let n = index.n_unknowns();
    let n_nodes = index.n_node_unknowns();

    // 4. Shared breakpoint schedule: the union over all lanes' devices.
    let mut breakpoints: Vec<f64> = Vec::new();
    for ckt in circuits.iter() {
        for dev in ckt.devices() {
            breakpoints.extend(dev.breakpoints(spec.t_stop));
        }
    }
    breakpoints.push(spec.t_stop);
    breakpoints.retain(|&t| t > 0.0 && t <= spec.t_stop);
    breakpoints.sort_by(|a, b| a.partial_cmp(b).expect("finite breakpoints"));
    let bp_tol = (opts.bp_reltol * spec.t_stop).max(f64::MIN_POSITIVE);
    breakpoints.dedup_by(|a, b| (*a - *b).abs() < bp_tol);

    // Record t = 0 per live lane.
    let record = |axis: &mut Vec<f64>, rows: &mut Vec<f64>, t: f64, x: &[f64], circuit: &Circuit| {
        axis.push(t);
        rows.extend_from_slice(x);
        for &(di, p) in &probe_list {
            rows.push(circuit.devices()[di].probe(p).unwrap_or(f64::NAN));
        }
        for &di in &energy_list {
            let dev = &circuit.devices()[di];
            rows.push(
                dev.sourced_energy()
                    .or_else(|| dev.delivered_energy())
                    .unwrap_or(f64::NAN),
            );
        }
    };
    for lane in 0..nl {
        if live[lane] {
            record(
                &mut staged_axis[lane],
                &mut staged_rows[lane],
                0.0,
                &op_xs[lane],
                &circuits[lane],
            );
        }
    }

    // 5. Lockstep time loop.
    let dt0 = if opts.dt_initial > 0.0 {
        opts.dt_initial
    } else {
        spec.t_stop * opts.dt_initial_fraction
    };
    let mut t = 0.0_f64;
    let mut dt = dt0;
    let mut x_prevs: Vec<Vec<f64>> = op_xs
        .into_iter()
        .map(|x| if x.is_empty() { vec![0.0; n] } else { x })
        .collect();
    let mut x_prev2s: Vec<Vec<f64>> = vec![vec![0.0; n]; nl];
    let mut dt_prev = 0.0_f64;
    let mut hist_valid = false;
    let mut xs: Vec<Vec<f64>> = (0..nl).map(|_| Vec::with_capacity(n)).collect();
    let mut x_news: Vec<Vec<f64>> = (0..nl).map(|_| Vec::with_capacity(n)).collect();
    let mut step_integrators = vec![opts.integrator; nl];
    let mut rungs_by_lane: Vec<Vec<Rung>> = (0..nl).map(|_| Vec::new()).collect();
    let mut outcomes: Vec<Option<Result<usize>>> = (0..nl).map(|_| None).collect();
    let mut iterations = vec![0usize; nl];
    let mut bp_cursor = 0usize;
    let mut attempts = 0usize;

    while t < spec.t_stop * (1.0 - 1e-15) && any(&live) {
        attempts += 1;
        if attempts > MAX_STEP_ATTEMPTS {
            for lane in 0..nl {
                if live[lane] {
                    live[lane] = false;
                    tcam_obs::flight_record("lane_quarantine", lane as u64, 1);
                    quarantines[lane] =
                        Some((t, SpiceError::non_convergence(t, attempts, f64::NAN)));
                }
            }
            break;
        }

        // Shared step control: breakpoints, dt limits, device hints over
        // every live lane (the most conservative hint wins).
        let obs_step_control = tcam_obs::span!("step_control");
        while bp_cursor < breakpoints.len() && breakpoints[bp_cursor] <= t * (1.0 + 1e-15) {
            bp_cursor += 1;
        }
        let mut dt_lim = opts.dt_max.min(spec.t_stop - t);
        let mut hint_lim = f64::INFINITY;
        for (lane, ckt) in circuits.iter().enumerate() {
            if !live[lane] {
                continue;
            }
            for dev in ckt.devices() {
                hint_lim = hint_lim.min(dev.dt_hint(t));
            }
        }
        if hint_lim < dt.min(dt_lim) {
            for (lane, trace) in traces.iter_mut().enumerate() {
                if live[lane] {
                    trace.device_hint();
                }
            }
        }
        dt_lim = dt_lim.min(hint_lim);
        let mut step = dt.min(dt_lim).max(opts.dt_min);
        let mut hit_bp = false;
        if bp_cursor < breakpoints.len() {
            let bp = breakpoints[bp_cursor];
            if t + step >= bp - opts.dt_min {
                step = bp - t;
                hit_bp = true;
            }
        }
        let t_new = t + step;
        drop(obs_step_control);

        // Lockstep Newton from each lane's previous accepted state.
        for lane in 0..nl {
            if live[lane] {
                xs[lane].clear();
                xs[lane].extend_from_slice(&x_prevs[lane]);
                rungs_by_lane[lane].clear();
                step_integrators[lane] = opts.integrator;
            }
        }
        newton_lanes(
            circuits,
            &mut mna,
            t_new,
            step,
            opts.integrator,
            &x_prevs,
            &mut xs,
            &mut x_news,
            &live,
            opts,
            opts.gmin,
            &mut outcomes,
        );
        let mut failing = vec![false; nl];
        for lane in 0..nl {
            if !live[lane] {
                continue;
            }
            match outcomes[lane].take().expect("newton writes every live lane") {
                Ok(iters) => iterations[lane] = iters,
                Err(SpiceError::NonConvergence {
                    iterations: its,
                    worst_unknown,
                    ..
                }) => {
                    traces[lane].reject(t_new, step, its, RejectReason::Newton, worst_unknown);
                    mna.stats[lane].steps_rejected += 1;
                    failing[lane] = true;
                }
                // Structural per-lane failures (shouldn't happen mid-run):
                // quarantine immediately, like the scalar hard error.
                Err(e) => {
                    live[lane] = false;
                    tcam_obs::flight_record("lane_quarantine", lane as u64, 2);
                    quarantines[lane] = Some((t, e));
                }
            }
        }

        if any(&failing) {
            let rescued = if opts.recovery_ladder {
                recover_lanes(
                    circuits,
                    &mut mna,
                    t_new,
                    step,
                    &x_prevs,
                    &mut xs,
                    &mut x_news,
                    &failing,
                    opts,
                    &mut traces,
                    &mut rungs_by_lane,
                    &mut outcomes,
                )
            } else {
                (0..nl).map(|_| None).collect()
            };
            let mut unrescued = vec![false; nl];
            for lane in 0..nl {
                if !failing[lane] {
                    continue;
                }
                match rescued[lane] {
                    Some((iters, integrator)) => {
                        iterations[lane] = iters;
                        step_integrators[lane] = integrator;
                    }
                    None => unrescued[lane] = true,
                }
            }
            if any(&unrescued) {
                for (lane, trace) in traces.iter_mut().enumerate() {
                    if unrescued[lane] {
                        trace.rung_engaged(Rung::DtShrink);
                    }
                }
                let dt_next = step * opts.dt_shrink;
                if dt_next >= opts.dt_min {
                    // The whole batch retries the step smaller; lanes that
                    // converged discard this attempt (the price of
                    // lockstep — at N = 1 there are no such lanes).
                    dt = dt_next;
                    hist_valid = false;
                    continue;
                }
                // Timestep underflow: quarantine the unrescuable lanes and
                // let the survivors keep their converged solutions.
                for lane in 0..nl {
                    if unrescued[lane] {
                        live[lane] = false;
                        tcam_obs::flight_record("lane_quarantine", lane as u64, 3);
                        quarantines[lane] =
                            Some((t, SpiceError::TimestepUnderflow { time: t, dt: dt_next }));
                    }
                }
                if !any(&live) {
                    break;
                }
            }
        }

        // Shared LTE accept/reject: the worst per-lane curvature estimate
        // governs the whole batch, keeping lanes on one time axis.
        let obs_lte = tcam_obs::span!("lte_estimate");
        let mut lte_max = 0.0_f64;
        if hist_valid {
            for lane in 0..nl {
                if !live[lane] {
                    continue;
                }
                for i in 0..n_nodes {
                    let d1 = (xs[lane][i] - x_prevs[lane][i]) / step;
                    let d0 = (x_prevs[lane][i] - x_prev2s[lane][i]) / dt_prev;
                    let curvature = 2.0 * (d1 - d0) / (step + dt_prev);
                    lte_max = lte_max.max((curvature * step * step * 0.5).abs());
                }
            }
            if lte_max > 4.0 * opts.lte_tol && step > 4.0 * opts.dt_min && !hit_bp {
                for lane in 0..nl {
                    if live[lane] {
                        traces[lane].reject(t_new, step, iterations[lane], RejectReason::Lte, None);
                        mna.stats[lane].steps_rejected += 1;
                    }
                }
                dt = step * (0.9 * (opts.lte_tol / lte_max).sqrt()).clamp(0.1, 0.5);
                continue;
            }
        }
        drop(obs_lte);

        // Accept: per-lane commits and records.
        let obs_commit = tcam_obs::span!("commit_record");
        let mut recovered_any = false;
        let mut max_iterations = 0usize;
        for (lane, ckt) in circuits.iter_mut().enumerate() {
            if !live[lane] {
                continue;
            }
            let ctx = CommitCtx {
                analysis: AnalysisKind::Transient,
                time: t_new,
                dt: step,
                integrator: step_integrators[lane],
                x: &xs[lane],
                x_prev: &x_prevs[lane],
                index,
            };
            for dev in ckt.devices_mut() {
                dev.commit(&ctx);
            }
            record(
                &mut staged_axis[lane],
                &mut staged_rows[lane],
                t_new,
                &xs[lane],
                ckt,
            );
            mna.stats[lane].steps_accepted += 1;
            recovered_any |= !rungs_by_lane[lane].is_empty();
            traces[lane].accept(
                t_new,
                step,
                iterations[lane],
                mem::take(&mut rungs_by_lane[lane]),
            );
            max_iterations = max_iterations.max(iterations[lane]);
        }
        drop(obs_commit);

        // Shared next step size, from the batch-wide LTE and iteration
        // counts; never grow straight out of a rescued point.
        let mut grow = if lte_max > 0.0 {
            (0.9 * (opts.lte_tol / lte_max).sqrt()).clamp(0.3, opts.dt_grow)
        } else {
            opts.dt_grow
        };
        if recovered_any {
            grow = grow.min(1.0);
        }
        let iter_factor = if max_iterations > 20 { 0.5 } else { 1.0 };
        dt = (step * grow * iter_factor).max(opts.dt_min);

        if hit_bp {
            dt = dt0.min(dt);
            hist_valid = false;
        } else {
            for lane in 0..nl {
                if live[lane] {
                    mem::swap(&mut x_prev2s[lane], &mut x_prevs[lane]);
                }
            }
            dt_prev = step;
            hist_valid = true;
        }
        for lane in 0..nl {
            if live[lane] {
                mem::swap(&mut x_prevs[lane], &mut xs[lane]);
            }
        }
        t = t_new;
    }

    // Rebuild each surviving lane's column-major waveform from its staged
    // rows — one cache-friendly pass per lane instead of per-step
    // scattered appends during the lockstep loop.
    let mut waves: Vec<Option<Waveform>> = (0..nl).map(|_| None).collect();
    {
        let _obs = tcam_obs::span!("commit_record");
        for lane in 0..nl {
            if quarantines[lane].is_some() {
                continue;
            }
            let mut wave = Waveform::new("time", names.clone());
            for (ti, &tv) in staged_axis[lane].iter().enumerate() {
                wave.push(tv, &staged_rows[lane][ti * n_cols..(ti + 1) * n_cols]);
            }
            waves[lane] = Some(wave);
        }
    }

    // Attach the batch-wide phase breakdown to every lane's trace (wall
    // time is shared across lanes; per-lane attribution is not available).
    #[allow(clippy::cast_precision_loss)]
    let phases: Vec<(String, f64)> = tcam_obs::phases_since(&obs_mark)
        .into_iter()
        .flat_map(|(name, stat)| {
            [
                (format!("phase_{name}_ns"), stat.ns as f64),
                (format!("phase_{name}_count"), stat.count as f64),
            ]
        })
        .collect();

    let mut lanes = Vec::with_capacity(nl);
    for (lane, ((mut trace, quarantine), wave)) in traces
        .into_iter()
        .zip(quarantines)
        .zip(waves)
        .enumerate()
    {
        trace.set_phases(phases.clone());
        match quarantine {
            Some((time, error)) => lanes.push(LaneOutcome::Quarantined(Box::new(QuarantinedLane {
                lane,
                time,
                error,
                trace,
            }))),
            None => {
                let mut wave = wave.expect("surviving lane has a rebuilt waveform");
                wave.set_stats(mna.stats[lane]);
                wave.set_solver_trace(trace);
                lanes.push(LaneOutcome::Completed(Box::new(wave)));
            }
        }
    }
    Ok(BatchedRun { lanes })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::transient::transient;
    use crate::device::Device;
    use crate::element::{Capacitor, Resistor, VoltageSource};
    use crate::node::NodeId;
    use crate::options::SolverKind;
    use crate::source::Waveshape;

    fn rc_circuit(r: f64, c: f64) -> Circuit {
        let mut ckt = Circuit::new();
        let vin = ckt.node("vin");
        let out = ckt.node("out");
        let gnd = ckt.gnd();
        ckt.add(VoltageSource::new(
            "v1",
            vin,
            gnd,
            Waveshape::step(0.0, 1.0, 0.0, 1e-12),
        ))
        .unwrap();
        ckt.add(Resistor::new("r1", vin, out, r).unwrap()).unwrap();
        ckt.add(Capacitor::new("c1", out, gnd, c).unwrap()).unwrap();
        ckt
    }

    fn sparse_opts() -> SimOptions {
        SimOptions {
            solver: SolverKind::Sparse,
            ..SimOptions::default()
        }
    }

    #[test]
    fn n1_batch_is_bit_identical_to_scalar_sparse_transient() {
        let spec = TransientSpec::to(5e-6);
        let opts = sparse_opts();
        let mut scalar_ckt = rc_circuit(1e3, 1e-9);
        let scalar = transient(&mut scalar_ckt, spec, &opts).unwrap();

        let mut lanes = [rc_circuit(1e3, 1e-9)];
        let run = batched_transient(&mut lanes, spec, &opts).unwrap();
        assert_eq!(run.n_completed(), 1);
        assert_eq!(run.n_quarantined(), 0);
        let batched = run.into_lanes().remove(0).into_result().unwrap();

        assert_eq!(scalar.len(), batched.len());
        for (a, b) in scalar.axis().iter().zip(batched.axis()) {
            assert_eq!(a.to_bits(), b.to_bits(), "time axis diverged");
        }
        assert_eq!(scalar.signal_names(), batched.signal_names());
        for name in scalar.signal_names() {
            for (i, (a, b)) in scalar
                .trace(name)
                .unwrap()
                .iter()
                .zip(batched.trace(name).unwrap())
                .enumerate()
            {
                assert_eq!(a.to_bits(), b.to_bits(), "trace {name} sample {i}");
            }
        }
        // The lockstep engine walks the same solve sequence, so its counters
        // match the scalar path exactly at N = 1.
        assert_eq!(scalar.stats().unwrap(), batched.stats().unwrap());
    }

    #[test]
    fn multi_lane_batch_matches_serial_runs_within_tolerance() {
        let spec = TransientSpec::to(5e-6);
        let opts = sparse_opts();
        let params = [(0.8e3, 1.1e-9), (1.0e3, 1.0e-9), (1.3e3, 0.7e-9), (2.0e3, 0.5e-9)];

        let mut lanes: Vec<Circuit> = params.iter().map(|&(r, c)| rc_circuit(r, c)).collect();
        let run = batched_transient(&mut lanes, spec, &opts).unwrap();
        assert_eq!(run.n_completed(), params.len());

        for (outcome, &(r, c)) in run.lanes().iter().zip(&params) {
            let wave = outcome.waveform().expect("lane completed");
            let mut ckt = rc_circuit(r, c);
            let solo = transient(&mut ckt, spec, &opts).unwrap();
            // The shared step schedule differs from each lane's solo choice,
            // so agreement is within integration tolerance, not bitwise.
            for t in [0.5e-6, 1e-6, 2e-6, 4e-6] {
                let a = wave.sample("v(out)", t).unwrap();
                let b = solo.sample("v(out)", t).unwrap();
                assert!(
                    (a - b).abs() < 5e-3,
                    "R={r} C={c} t={t}: batched {a} vs solo {b}"
                );
            }
        }
    }

    /// A one-node device whose injected current flips sign with the iterate
    /// once `hostile` (per analysis kind), defeating Newton at any gmin and
    /// any integrator — the unrescuable trial a variation sweep can draw.
    /// Benign mode is a plain 1 mS conductance with the identical stamp
    /// structure, so hostile and benign lanes share one pattern.
    #[derive(Debug)]
    struct Diverger {
        name: String,
        a: NodeId,
        hostile_op: bool,
        hostile_tran: bool,
    }

    impl Device for Diverger {
        fn name(&self) -> &str {
            &self.name
        }
        fn nodes(&self) -> Vec<NodeId> {
            vec![self.a]
        }
        fn load(&self, ctx: &EvalCtx<'_>, stamps: &mut Stamps<'_>) {
            let v = ctx.v(self.a);
            let hostile = match ctx.analysis {
                AnalysisKind::Transient => self.hostile_tran,
                _ => self.hostile_op,
            };
            if hostile {
                let i0 = if v > 0.25 { 1e-3 } else { -1e-3 };
                stamps.nonlinear_current(self.a, NodeId::GROUND, i0, 1e-9, v);
            } else {
                stamps.nonlinear_current(self.a, NodeId::GROUND, 1e-3 * v, 1e-3, v);
            }
        }
    }

    fn diverger_circuit(hostile_op: bool, hostile_tran: bool) -> Circuit {
        let mut ckt = Circuit::new();
        let vin = ckt.node("vin");
        let a = ckt.node("a");
        let gnd = ckt.gnd();
        ckt.add(VoltageSource::dc("v1", vin, gnd, 1.0)).unwrap();
        ckt.add(Resistor::new("r1", vin, a, 1e3).unwrap()).unwrap();
        ckt.add(Diverger {
            name: "x1".into(),
            a,
            hostile_op,
            hostile_tran,
        })
        .unwrap();
        ckt
    }

    #[test]
    fn hostile_lane_is_quarantined_and_batch_survives() {
        let opts = SimOptions {
            solver: SolverKind::Sparse,
            max_nr_iters: 12,
            dt_min: 1e-15,
            dt_initial: 1e-10,
            recovery_ladder: true,
            ..SimOptions::default()
        };
        let mut lanes = [
            diverger_circuit(false, false),
            diverger_circuit(false, true),
            diverger_circuit(false, false),
        ];
        let run = batched_transient(&mut lanes, TransientSpec::to(1e-9), &opts).unwrap();
        assert_eq!(run.n_completed(), 2);
        assert_eq!(run.n_quarantined(), 1);

        let q = run.lanes()[1].quarantined().expect("hostile lane ejected");
        assert_eq!(q.lane, 1);
        assert!(
            matches!(q.error, SpiceError::TimestepUnderflow { .. }),
            "{:?}",
            q.error
        );
        // The quarantine record keeps the lane's full solver history.
        assert!(q.trace.reject_newton > 0, "{:?}", q.trace);
        assert!(q.trace.gmin_events > 0, "ladder tried before ejection");

        // Survivors reach t_stop with the benign divider solution intact.
        for lane in [0usize, 2] {
            let wave = run.lanes()[lane].waveform().expect("survivor completed");
            let va = wave.last("v(a)").unwrap();
            assert!((va - 0.5).abs() < 1e-3, "lane {lane}: v(a) = {va}");
        }
    }

    #[test]
    fn op_failure_quarantines_lane_at_time_zero() {
        let opts = sparse_opts();
        let mut lanes = [diverger_circuit(true, false), diverger_circuit(false, false)];
        let run = batched_transient(&mut lanes, TransientSpec::to(1e-9), &opts).unwrap();
        assert_eq!(run.n_completed(), 1);
        let q = run.lanes()[0].quarantined().expect("bad OP ejects the lane");
        assert_eq!(q.time, 0.0);
        assert!(matches!(q.error, SpiceError::NonConvergence { .. }));
        assert!(run.lanes()[1].waveform().is_some());
    }

    #[test]
    fn mismatched_topologies_are_rejected() {
        // Same unknown layout, different stamp pattern: the capacitor sits
        // across the resistor instead of to ground.
        let mut other = Circuit::new();
        let vin = other.node("vin");
        let out = other.node("out");
        let gnd = other.gnd();
        other
            .add(VoltageSource::new(
                "v1",
                vin,
                gnd,
                Waveshape::step(0.0, 1.0, 0.0, 1e-12),
            ))
            .unwrap();
        other
            .add(Resistor::new("r1", vin, out, 1e3).unwrap())
            .unwrap();
        other
            .add(Capacitor::new("c1", vin, out, 1e-9).unwrap())
            .unwrap();
        let mut lanes = vec![rc_circuit(1e3, 1e-9), other];
        let err = batched_transient(&mut lanes, TransientSpec::to(1e-6), &sparse_opts());
        assert!(matches!(err, Err(SpiceError::InvalidCircuit(_))));
    }

    #[test]
    fn rejects_empty_batch_and_bad_t_stop() {
        let mut none: [Circuit; 0] = [];
        assert!(batched_transient(&mut none, TransientSpec::to(1e-6), &sparse_opts()).is_err());
        let mut lanes = [rc_circuit(1e3, 1e-9)];
        assert!(batched_transient(&mut lanes, TransientSpec::to(0.0), &sparse_opts()).is_err());
        assert!(
            batched_transient(&mut lanes, TransientSpec::to(f64::NAN), &sparse_opts()).is_err()
        );
    }

    #[test]
    fn pivot_fallback_lane_keeps_solving() {
        // Lanes whose values drift far from the seed's pivot magnitudes
        // exercise the per-lane PivotDegraded override path; results must
        // still agree with solo runs.
        let spec = TransientSpec::to(2e-6);
        let opts = sparse_opts();
        let params = [(1.0e3, 1.0e-9), (1.0e9, 1.0e-15)];
        let mut lanes: Vec<Circuit> = params.iter().map(|&(r, c)| rc_circuit(r, c)).collect();
        let run = batched_transient(&mut lanes, spec, &opts).unwrap();
        assert_eq!(run.n_completed(), 2);
        let wave = run.lanes()[0].waveform().unwrap();
        let mut solo_ckt = rc_circuit(1.0e3, 1.0e-9);
        let solo = transient(&mut solo_ckt, spec, &opts).unwrap();
        let a = wave.sample("v(out)", 1e-6).unwrap();
        let b = solo.sample("v(out)", 1e-6).unwrap();
        assert!((a - b).abs() < 5e-3, "{a} vs {b}");
    }
}
