//! α–β (Hockney) machine model used to project the recorded communication
//! trace of a laptop-scale run onto the paper's machine configurations
//! (Cori Haswell, Summit CPU; Table 1) and rank counts (576–4096).
//!
//! The projection is deliberately simple and documented, because its job
//! is to reproduce the *shape* of Figs. 4–6 — parallel efficiency falling
//! with P as latency-bound phases stop scaling — not absolute numbers:
//!
//! ```text
//! T_phase(P) = compute_secs · (P_meas / P)            // perfect strong scaling
//!            + max(0, coll_calls · α · log2(P)        // latency term
//!                    + (total_bytes / P) / β          // bandwidth term
//!                    − overlap(P))                    // overlap credit
//! overlap(P) = min(wait_secs, compute_secs) · (P_meas / P)
//! ```
//!
//! `compute_secs` is measured wall time minus time blocked in
//! communication; `coll_calls` and `total_bytes` come straight from the
//! [`crate::profile`] trace. The latency term grows with P while the other
//! two shrink — exactly the behaviour the paper reports for the
//! `TrReduction` and `ExtractContig` phases ("the amount of work is
//! smaller ... and the algorithms are latency-bound", §6.1).
//!
//! The *overlap credit* refines the earlier model, which charged time
//! parked in non-blocking `wait`s fully as communication. A phase that
//! drives its transfers through requests (`ibcast`, `ialltoallv`) can
//! hide them behind local work; the hideable share demonstrated by the
//! trace is bounded both by the time actually spent blocked
//! (`wait_secs` — transfer that *was* exposed and is overlappable) and
//! by the compute available to hide it, hence
//! `min(wait_secs, compute_secs)`. The credit is scaled like the compute
//! term (hiding capacity strong-scales away with local work) and the
//! communication term is floored at zero so the credit can never project
//! negative transfer time.

/// Condensed per-phase measurements extracted from a [`crate::RunProfile`].
#[derive(Debug, Clone)]
pub struct PhaseObservation {
    pub phase: String,
    /// Max-over-ranks wall seconds at the measured rank count.
    pub wall_secs: f64,
    /// Wall seconds minus communication-blocked seconds.
    pub compute_secs: f64,
    /// Max-over-ranks seconds blocked in non-blocking request `wait`s —
    /// the exposed (non-overlapped) share of the phase's non-blocking
    /// communication, which the projection may credit as hideable.
    pub wait_secs: f64,
    /// Mean collective invocations per rank.
    pub coll_calls_per_rank: f64,
    /// Total bytes pushed by all ranks during the phase.
    pub total_bytes: f64,
}

/// Interconnect + node parameters for the projection.
///
/// Values are representative published figures for the two machines in the
/// paper's Table 1, not measurements of this repository.
#[derive(Debug, Clone)]
pub struct MachineModel {
    pub name: &'static str,
    /// Point-to-point latency in seconds.
    pub alpha: f64,
    /// Per-rank effective bandwidth in bytes/second.
    pub beta: f64,
    /// Relative single-core compute speed (Cori Haswell = 1.0). The paper
    /// observes Summit's per-core alignment throughput is lower because
    /// the x-drop kernel lacks POWER9 SIMD.
    pub compute_speed: f64,
    /// Ranks per node used in the paper's runs (32 on both machines).
    pub ranks_per_node: usize,
}

impl MachineModel {
    /// Cray XC40 Aries dragonfly: ~1.3 µs latency, ~10 GB/s injection per
    /// node shared by 32 ranks.
    pub fn cori_haswell() -> Self {
        MachineModel {
            name: "Cori Haswell",
            alpha: 1.3e-6,
            beta: 10e9 / 32.0,
            compute_speed: 1.0,
            ranks_per_node: 32,
        }
    }

    /// Summit fat-tree (EDR InfiniBand): ~1.5 µs latency, ~23 GB/s per node
    /// shared by 32 used ranks; slower per-core alignment (no AVX2).
    pub fn summit_cpu() -> Self {
        MachineModel {
            name: "Summit CPU",
            alpha: 1.5e-6,
            beta: 23e9 / 32.0,
            compute_speed: 0.55,
            ranks_per_node: 32,
        }
    }

    /// Projected wall seconds of one phase at `target_ranks`, given an
    /// observation made at `measured_ranks`.
    pub fn project_phase(
        &self,
        obs: &PhaseObservation,
        measured_ranks: usize,
        target_ranks: usize,
    ) -> f64 {
        assert!(measured_ranks > 0 && target_ranks > 0);
        let p = target_ranks as f64;
        let scale = measured_ranks as f64 / p;
        let compute = obs.compute_secs / self.compute_speed * scale;
        let latency = obs.coll_calls_per_rank * self.alpha * p.log2().max(1.0);
        let bandwidth = (obs.total_bytes / p) / self.beta;
        // Measured overlap credit: see the module docs. Scales with the
        // compute that hides it and can never drive communication below
        // zero.
        let overlap = obs.wait_secs.min(obs.compute_secs) / self.compute_speed * scale;
        compute + (latency + bandwidth - overlap).max(0.0)
    }

    /// Project a whole pipeline (sum over phases) at `target_ranks`.
    pub fn project_total(
        &self,
        observations: &[PhaseObservation],
        measured_ranks: usize,
        target_ranks: usize,
    ) -> f64 {
        observations
            .iter()
            .map(|obs| self.project_phase(obs, measured_ranks, target_ranks))
            .sum()
    }

    /// Parallel efficiency of a strong-scaling series relative to its first
    /// point: `e(Pᵢ) = T(P₀)·P₀ / (T(Pᵢ)·Pᵢ)`.
    pub fn parallel_efficiency(ranks: &[usize], times: &[f64]) -> Vec<f64> {
        assert_eq!(ranks.len(), times.len());
        if ranks.is_empty() {
            return Vec::new();
        }
        let base = times[0] * ranks[0] as f64;
        ranks
            .iter()
            .zip(times)
            .map(|(&p, &t)| base / (t * p as f64))
            .collect()
    }
}

/// A SUMMA schedule as seen by the predictor. Mirrors the sparse crate's
/// `SpGemmAlgorithm` without depending on it (comm sits below sparse in
/// the crate graph); the sparse side maps between the two.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulePlan {
    /// 2.5D-style: stages split into `c` contiguous slices, each slice's
    /// broadcasts posted as one batch, per-layer partials combined by one
    /// k-way merge at the end. `c = 1` is the pipelined schedule:
    /// one-stage broadcast lookahead, running CSR merge per stage.
    Layered { c: usize },
    /// Output-batched rounds sized to the memory budget, with a structure
    /// estimate pass when budgeted.
    ColumnBatched,
}

impl SchedulePlan {
    /// Short label used in logs and bench JSON.
    pub fn label(&self) -> String {
        match self {
            SchedulePlan::ColumnBatched => "column-batched".into(),
            SchedulePlan::Layered { c } => format!("layered:{c}"),
        }
    }
}

/// Structure estimates feeding [`CostConstants::predict_phase`] — derived
/// from the ColumnBatched estimate pass (per-column flop counts and
/// per-stage panel bytes), reduced max-over-ranks so every rank predicts
/// from the same numbers (the critical path) and reaches the same pick.
#[derive(Debug, Clone)]
pub struct SpGemmEstimate {
    /// Grid side; p = grid_q².
    pub grid_q: usize,
    /// Max-over-ranks A+B panel bytes broadcast in one SUMMA stage.
    pub stage_bytes: f64,
    /// Bytes broadcast per stage by the ColumnBatched structure pass
    /// (A column counts + B structure, no values).
    pub struct_bytes: f64,
    /// Max-over-ranks Gustavson multiply-adds (Σ over A entries of the
    /// matched B-row length) — also the intermediate-product count.
    pub flops: f64,
    /// Max-over-ranks upper estimate of nnz(C_local):
    /// Σ_j min(col_flops\[j\], nrows).
    pub result_entries: f64,
    /// Bytes per stored C entry (column index + value).
    pub entry_bytes: f64,
    /// Per-rank memory budget for the phase, if limited. Schedules whose
    /// modeled peak exceeds it predict infinite cost (feasibility veto).
    pub mem_budget: Option<u64>,
}

/// Calibration constants for *predicting* per-schedule SpGEMM cost, the
/// optimizing counterpart of [`MachineModel::project_phase`] (which
/// post-dicts a recorded trace). `alpha`/`beta` have their Hockney
/// meanings; `gamma` is seconds per local *entry touch* — one
/// multiply-add into the sparse accumulator, or one entry read/written
/// by a CSR merge — so compute and merge traffic share a unit.
#[derive(Debug, Clone)]
pub struct CostConstants {
    /// Broadcast latency in seconds (per tree, charged × log2 p).
    pub alpha: f64,
    /// Effective per-rank bandwidth in bytes/second.
    pub beta: f64,
    /// Seconds per entry touch (multiply-add or merge read/write).
    pub gamma: f64,
}

impl CostConstants {
    /// Defaults for the in-process transport, where a "transfer" is an
    /// `Arc` handoff through a condvar mailbox: latency is the wake, the
    /// bandwidth term is nearly free, and entry touches run at memory
    /// speed. Deliberately *fixed* rather than measured per run — the
    /// auto-tuner must be deterministic across ranks, and these only
    /// need to rank schedules, not time them.
    pub fn in_process() -> Self {
        CostConstants {
            alpha: 2.0e-6,
            beta: 1.0e10,
            gamma: 5.0e-9,
        }
    }

    /// Calibrate against a machine model, supplying the measured compute
    /// rate separately (used by the perf bench to score predictions with
    /// a γ derived from a real run).
    pub fn from_machine(machine: &MachineModel, gamma: f64) -> Self {
        CostConstants {
            alpha: machine.alpha,
            beta: machine.beta,
            gamma,
        }
    }

    /// Modeled peak resident bytes of one rank running `plan`, charged
    /// the same way the schedules charge the memory tracker.
    fn peak_bytes(&self, plan: SchedulePlan, est: &SpGemmEstimate) -> f64 {
        let q = est.grid_q as f64;
        let stage = est.stage_bytes;
        let result = est.result_entries * est.entry_bytes;
        match plan {
            SchedulePlan::Layered { c } => {
                let c = (c.max(1) as f64).min(q);
                if c <= 1.0 {
                    // Pipelined: accumulator + merged copy + current and
                    // prefetched stage.
                    return 2.0 * result + 2.0 * stage;
                }
                // c resident partials + combine output + the in-flight
                // slice batch (current + prefetched, ⌈q/c⌉ stages each).
                let slice = (q / c).ceil();
                (c + 1.0) * result + 2.0 * slice * stage
            }
            // Sized to the budget by construction.
            SchedulePlan::ColumnBatched => 0.0,
        }
    }

    /// Rounds the ColumnBatched packer needs to emit `result` bytes of
    /// output under the budget (mirrors its `4·stage ≤ budget`
    /// double-buffer rule coarsely); 1 when unlimited.
    fn column_batched_rounds(&self, est: &SpGemmEstimate) -> f64 {
        let Some(budget) = est.mem_budget else {
            return 1.0;
        };
        let b = budget as f64;
        let usable = (b - 2.0 * est.stage_bytes).max(b / 4.0);
        (est.result_entries * est.entry_bytes / usable)
            .ceil()
            .max(1.0)
    }

    /// Predicted wall seconds of one SpGEMM phase under `plan`.
    ///
    /// All schedules broadcast the same q stage panels (the wire-byte
    /// model pins them byte-identical); what differs is *exposed*
    /// latency, overlap, and merge traffic:
    ///
    /// ```text
    /// T = startup + max(comm − startup, compute)       // overlap
    /// comm_layered(1) = q·(L + W)       merge = 3γE·(q−1)   (binary, per stage)
    /// comm_layered(c) = c·L + q·W       merge = 3γE·(q−c) + 2γE
    /// comm_colbatch   = r·q·(L + W) + structure pass; merge as layered(1)
    /// L = α·log2 p,  W = stage_bytes/β,  E = result_entries
    /// ```
    ///
    /// A binary CSR merge touches ~3E entries (read both sides, write the
    /// union); the layered k-way combine touches Σ nnz(part) + E ≈ 2E
    /// once (stage outputs are near-disjoint slabs, so the partials sum
    /// to E), which is why layered's merge term shrinks as c approaches q
    /// while its memory peak grows — exactly the 2.5D memory-for-traffic
    /// trade.
    /// Returns `f64::INFINITY` when the modeled peak exceeds
    /// `est.mem_budget`.
    pub fn predict_phase(&self, plan: SchedulePlan, est: &SpGemmEstimate) -> f64 {
        if let Some(budget) = est.mem_budget {
            if self.peak_bytes(plan, est) > budget as f64 {
                return f64::INFINITY;
            }
        }
        let q = est.grid_q as f64;
        let p = q * q;
        let lat = self.alpha * p.log2().max(1.0);
        let wire = est.stage_bytes / self.beta;
        let mul = self.gamma * est.flops;
        let e = est.result_entries;
        match plan {
            SchedulePlan::Layered { c } => {
                let c = (c.max(1) as f64).min(q);
                if c <= 1.0 {
                    // Pipelined: one-stage lookahead, binary merge per
                    // stage.
                    let startup = lat + wire;
                    let comm = q * (lat + wire);
                    let compute = mul + 3.0 * self.gamma * e * (q - 1.0);
                    return startup + (comm - startup).max(compute);
                }
                let slice = (q / c).ceil();
                let startup = lat + slice * wire;
                let comm = c * lat + q * wire;
                // Intra-layer running merges touch 3·E per extra stage
                // (as pipelined does), but the final k-way combine is
                // Σ nnz(part) + nnz(out) ≈ 2·E: SUMMA stages emit
                // near-disjoint column slabs, so the partials sum to
                // the result, not c copies of it — and the merge's
                // single-contributor fast path keeps the per-entry cost
                // at bulk-copy rates.
                let compute = mul + 3.0 * self.gamma * e * (q - c) + 2.0 * self.gamma * e;
                startup + (comm - startup).max(compute)
            }
            SchedulePlan::ColumnBatched => {
                let rounds = self.column_batched_rounds(est);
                let structure = if est.mem_budget.is_some() {
                    q * (lat + est.struct_bytes / self.beta) + self.gamma * est.flops * 0.25
                } else {
                    0.0
                };
                let startup = lat + wire;
                let comm = rounds * q * (lat + wire);
                let compute = mul + 3.0 * self.gamma * e * (q - 1.0);
                structure + startup + (comm - startup).max(compute)
            }
        }
    }

    /// Cheapest feasible candidate, first-wins on ties (order the
    /// candidates by preference). A challenger must beat the incumbent
    /// by a 0.1% margin: formulas that are algebraically equal on
    /// degenerate grids (layered at c = q = 2 vs c = 1) can differ
    /// in the last float ulp, and the model's precision is nowhere near
    /// that — sub-margin differences are ties, resolved by candidate
    /// order. Falls back to the first candidate if every prediction is
    /// infinite (the caller should include ColumnBatched, which always
    /// fits).
    pub fn pick_schedule(
        &self,
        est: &SpGemmEstimate,
        candidates: &[SchedulePlan],
    ) -> (SchedulePlan, f64) {
        assert!(!candidates.is_empty());
        let mut best = (candidates[0], f64::INFINITY);
        for &plan in candidates {
            let t = self.predict_phase(plan, est);
            if t < best.1 * (1.0 - 1e-3) {
                best = (plan, t);
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(compute: f64, calls: f64, bytes: f64) -> PhaseObservation {
        PhaseObservation {
            phase: "x".into(),
            wall_secs: compute,
            compute_secs: compute,
            wait_secs: 0.0,
            coll_calls_per_rank: calls,
            total_bytes: bytes,
        }
    }

    #[test]
    fn compute_bound_phase_scales_nearly_linearly() {
        let m = MachineModel::cori_haswell();
        let o = obs(100.0, 10.0, 1e6);
        let t576 = m.project_phase(&o, 16, 576);
        let t1152 = m.project_phase(&o, 16, 1152);
        let ratio = t576 / t1152;
        assert!(ratio > 1.9 && ratio <= 2.0, "ratio={ratio}");
    }

    #[test]
    fn latency_bound_phase_stops_scaling() {
        let m = MachineModel::cori_haswell();
        // Tiny compute, many collective calls: time should *grow* with P.
        let o = obs(1e-4, 1e5, 1e3);
        let small = m.project_phase(&o, 16, 64);
        let large = m.project_phase(&o, 16, 4096);
        assert!(large > small, "latency term must dominate at scale");
    }

    #[test]
    fn summit_slower_compute() {
        let cori = MachineModel::cori_haswell();
        let summit = MachineModel::summit_cpu();
        let o = obs(50.0, 1.0, 1.0);
        assert!(
            summit.project_phase(&o, 16, 576) > cori.project_phase(&o, 16, 576),
            "paper: ELBA is faster on Cori than Summit"
        );
    }

    #[test]
    fn efficiency_baseline_is_one() {
        let eff = MachineModel::parallel_efficiency(&[18, 32, 128], &[10.0, 6.0, 2.0]);
        assert!((eff[0] - 1.0).abs() < 1e-12);
        assert!(eff[1] < 1.0 && eff[1] > 0.9);
    }

    #[test]
    fn overlap_credit_reduces_projection() {
        let m = MachineModel::cori_haswell();
        let blocking = obs(10.0, 100.0, 1e9);
        let overlapped = PhaseObservation {
            wait_secs: 0.02,
            ..blocking.clone()
        };
        let t_block = m.project_phase(&blocking, 16, 576);
        let t_over = m.project_phase(&overlapped, 16, 576);
        assert!(
            t_over < t_block,
            "measured overlap must credit the projection: {t_over} vs {t_block}"
        );
        // The credit is capped by min(wait, compute): more wait than
        // compute earns nothing extra.
        let capped = PhaseObservation {
            compute_secs: 0.01,
            wait_secs: 50.0,
            ..blocking.clone()
        };
        let uncapped_equiv = PhaseObservation {
            compute_secs: 0.01,
            wait_secs: 0.01,
            ..blocking
        };
        let a = m.project_phase(&capped, 16, 576);
        let b = m.project_phase(&uncapped_equiv, 16, 576);
        assert!((a - b).abs() < 1e-12, "credit must cap at compute_secs");
    }

    #[test]
    fn overlap_credit_never_projects_negative_comm() {
        let m = MachineModel::cori_haswell();
        // Huge wait + huge compute, tiny actual traffic: the credit
        // would wipe out the comm terms many times over; total must
        // floor at the compute term alone.
        let o = PhaseObservation {
            phase: "x".into(),
            wall_secs: 200.0,
            compute_secs: 100.0,
            wait_secs: 100.0,
            coll_calls_per_rank: 1.0,
            total_bytes: 8.0,
        };
        let t = m.project_phase(&o, 16, 64);
        let compute_term = 100.0 * 16.0 / 64.0;
        assert!((t - compute_term).abs() < 1e-9, "t={t}");
    }

    #[test]
    fn zero_wait_matches_unrefined_formula() {
        let m = MachineModel::summit_cpu();
        let o = obs(42.0, 7.0, 5e8);
        let p = 1152f64;
        let by_hand =
            42.0 / m.compute_speed * 16.0 / p + 7.0 * m.alpha * p.log2() + (5e8 / p) / m.beta;
        let t = m.project_phase(&o, 16, 1152);
        assert!((t - by_hand).abs() < 1e-12);
    }

    #[test]
    fn project_total_sums_phases() {
        let m = MachineModel::cori_haswell();
        let obs_list = vec![obs(10.0, 1.0, 1e3), obs(20.0, 1.0, 1e3)];
        let total = m.project_total(&obs_list, 16, 64);
        let by_hand: f64 = obs_list.iter().map(|o| m.project_phase(o, 16, 64)).sum();
        assert!((total - by_hand).abs() < 1e-12);
    }

    fn est(q: usize, flops: f64, entries: f64) -> SpGemmEstimate {
        SpGemmEstimate {
            grid_q: q,
            stage_bytes: 1e6,
            struct_bytes: 1e5,
            flops,
            result_entries: entries,
            entry_bytes: 8.0,
            mem_budget: None,
        }
    }

    #[test]
    fn layered_c1_predicts_the_pipelined_formula() {
        // c = 1 is the pipelined schedule: one-stage lookahead and a
        // binary merge per stage, evaluated in exactly this order so the
        // prediction (and hence every auto pick) keeps its bits.
        let k = CostConstants::in_process();
        let e = est(3, 1e7, 1e6);
        let q = 3.0f64;
        let lat = k.alpha * (q * q).log2().max(1.0);
        let wire = e.stage_bytes / k.beta;
        let startup = lat + wire;
        let comm = q * (lat + wire);
        let compute = k.gamma * e.flops + 3.0 * k.gamma * e.result_entries * (q - 1.0);
        let want = startup + (comm - startup).max(compute);
        assert_eq!(
            k.predict_phase(SchedulePlan::Layered { c: 1 }, &e)
                .to_bits(),
            want.to_bits()
        );
        // Through the clamp: c > q on a 1×1 grid is still c = 1.
        let e1 = est(1, 1e7, 1e6);
        assert_eq!(
            k.predict_phase(SchedulePlan::Layered { c: 1 }, &e1)
                .to_bits(),
            k.predict_phase(SchedulePlan::Layered { c: 3 }, &e1)
                .to_bits(),
        );
    }

    #[test]
    fn kway_combine_wins_on_merge_heavy_shapes() {
        let k = CostConstants::in_process();
        // flops ≈ result entries: almost no arithmetic reuse, so merge
        // traffic dominates local time — the shape where the one-pass
        // k-way combine (touching (c+1)·E) beats q−1 binary merges
        // (touching 3E each).
        let e = est(3, 2e6, 1e6);
        let pipe = k.predict_phase(SchedulePlan::Layered { c: 1 }, &e);
        let lay = k.predict_phase(SchedulePlan::Layered { c: 3 }, &e);
        assert!(lay < pipe, "layered:3 {lay} must beat layered:1 {pipe}");
    }

    #[test]
    fn budget_vetoes_memory_hungry_schedules() {
        let k = CostConstants::in_process();
        let mut e = est(3, 1e8, 1e7);
        e.mem_budget = Some(16 << 20); // far below (c+1)·E·entry_bytes
        assert!(k
            .predict_phase(SchedulePlan::Layered { c: 1 }, &e)
            .is_infinite());
        assert!(k
            .predict_phase(SchedulePlan::Layered { c: 3 }, &e)
            .is_infinite());
        let (pick, cost) = k.pick_schedule(
            &e,
            &[
                SchedulePlan::Layered { c: 1 },
                SchedulePlan::Layered { c: 3 },
                SchedulePlan::ColumnBatched,
            ],
        );
        assert_eq!(pick, SchedulePlan::ColumnBatched, "only feasible schedule");
        assert!(cost.is_finite());
    }

    #[test]
    fn tie_break_prefers_earlier_candidate() {
        let k = CostConstants::in_process();
        let e = est(1, 1e5, 1e4);
        // On a 1×1 grid every layer count degenerates to c = 1: equal
        // cost, first listed wins.
        let (pick, _) = k.pick_schedule(
            &e,
            &[
                SchedulePlan::Layered { c: 1 },
                SchedulePlan::Layered { c: 2 },
            ],
        );
        assert_eq!(pick, SchedulePlan::Layered { c: 1 });
    }

    #[test]
    fn schedule_plan_labels() {
        assert_eq!(SchedulePlan::Layered { c: 2 }.label(), "layered:2");
        assert_eq!(SchedulePlan::ColumnBatched.label(), "column-batched");
    }
}
