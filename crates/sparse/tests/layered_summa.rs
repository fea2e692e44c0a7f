//! Property pins for the layered (2.5D-style) SUMMA schedule:
//!
//! * output triples byte-identical to [`DistMat::spgemm_reference`]
//!   across 1×1 / 2×2 / 3×3 grids × c ∈ {1, 2, 3} × thread counts —
//!   including the uneven-slice case (q = 3, c = 2, where c ∤ q),
//! * per-rank profiled *wire bytes* identical to the reference on every
//!   grid: the layered schedule posts the same q stage broadcasts down
//!   the same trees, the combine is local (wire-byte model stays
//!   sacred); the column-batched schedule, budgeted or not, is held to
//!   the same triples,
//! * c > q clamps instead of deadlocking or dropping stages,
//! * `SpGemmAlgorithm::Auto` resolves to a concrete schedule, matches
//!   the reference output, and reports its pick.

use elba_comm::{Backend, Runner};
use elba_comm::{ProcGrid, RunProfile};
use elba_sparse::semiring::PlusTimes;
use elba_sparse::{last_auto_spgemm_pick, DistMat, SpGemmOptions};

/// Deterministic AAᵀ-shaped inputs (the overlap-detection shape): `n`
/// reads × `k` k-mer columns, a few shared k-mers per read.
fn fixture_triples(n: usize, k: usize) -> Vec<(u64, u64, f64)> {
    (0..n)
        .flat_map(|r| {
            (0..5usize).map(move |i| {
                (
                    r as u64,
                    ((r * 11 + i * 3) % k) as u64,
                    1.0 + ((r + i) % 4) as f64,
                )
            })
        })
        .collect()
}

/// Run `A · Aᵀ` on `p` ranks under `opts` (`None` runs the reference
/// multiply), profiled; returns the sorted gathered triples and the run
/// profile (wire bytes live in the "spgemm" phase).
fn run_profiled(
    p: usize,
    n: usize,
    k: usize,
    opts: Option<SpGemmOptions>,
) -> (Vec<(u64, u64, f64)>, RunProfile) {
    let (mut results, profile) =
        Runner::new(Backend::InProcess)
            .ranks(p)
            .run_profiled(move |comm| {
                let grid = ProcGrid::new(comm);
                let mine = if grid.world().rank() == 0 {
                    fixture_triples(n, k)
                } else {
                    Vec::new()
                };
                let a = DistMat::from_triples(&grid, n, k, mine, |acc, v| *acc += v);
                let at = a.transpose(&grid);
                let _guard = grid.world().phase("spgemm");
                match &opts {
                    Some(opts) => a.spgemm_with(&grid, &at, &PlusTimes, opts),
                    None => a.spgemm_reference(&grid, &at, &PlusTimes),
                }
                .gather_triples(&grid)
            });
    let mut triples = results.remove(0);
    triples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    (triples, profile)
}

/// Per-rank wire bytes of the "spgemm" phase (0 for ranks that have no
/// such phase entry — impossible here, but total() would hide a
/// per-rank asymmetry, which is exactly what this helper must expose).
fn spgemm_bytes_per_rank(profile: &RunProfile) -> Vec<u64> {
    profile
        .rank_profiles()
        .iter()
        .map(|rp| rp.phase("spgemm").map_or(0, |ph| ph.bytes_sent()))
        .collect()
}

#[test]
fn layered_matches_reference_triples_and_wire_bytes_on_every_grid() {
    for p in [1usize, 4, 9] {
        let (n, k) = (21, 17);
        let (ref_triples, ref_profile) = run_profiled(p, n, k, None);
        let ref_bytes = spgemm_bytes_per_rank(&ref_profile);
        assert!(
            ref_triples.iter().any(|&(_, _, v)| v != 0.0),
            "fixture must produce a non-trivial product"
        );
        // c=2 on the 3×3 grid is the uneven split (slices of 2 and 1
        // stages); c=3 on the 2×2 grid exercises the clamp.
        for c in [1usize, 2, 3] {
            for threads in [1usize, 4] {
                let opts = SpGemmOptions::layered(c).with_threads(threads);
                let (triples, profile) = run_profiled(p, n, k, Some(opts));
                assert_eq!(
                    triples, ref_triples,
                    "layered(c={c}, t={threads}) output != reference on p={p}"
                );
                assert_eq!(
                    spgemm_bytes_per_rank(&profile),
                    ref_bytes,
                    "layered(c={c}, t={threads}) wire bytes != reference on p={p}"
                );
            }
        }
        // Column batching adds grid-wide round agreement (allreduces)
        // and, under a budget, a structure pass and per-round
        // re-broadcasts, so only its triples are held to the reference.
        for budget in [None, Some(512)] {
            let opts = SpGemmOptions::column_batched(4, budget);
            let (batched, _) = run_profiled(p, n, k, Some(opts));
            assert_eq!(
                batched, ref_triples,
                "column_batched(budget={budget:?}) != reference on p={p}"
            );
        }
    }
}

#[test]
fn layered_clamps_oversized_layer_counts() {
    // c far beyond the stage count must clamp to one stage per layer
    // (warning on stderr) and still match the reference exactly.
    for p in [1usize, 4, 9] {
        let (ref_triples, _) = run_profiled(p, 15, 12, None);
        let (clamped, _) = run_profiled(p, 15, 12, Some(SpGemmOptions::layered(64)));
        assert_eq!(clamped, ref_triples, "layered(64) != reference on p={p}");
    }
}

#[test]
fn auto_resolves_matches_reference_and_reports_its_pick() {
    for p in [1usize, 4, 9] {
        let (ref_triples, _) = run_profiled(p, 21, 17, None);
        let (auto_triples, _) = run_profiled(p, 21, 17, Some(SpGemmOptions::auto()));
        assert_eq!(auto_triples, ref_triples, "auto != reference on p={p}");
        let pick = last_auto_spgemm_pick().expect("auto must record its pick");
        assert_ne!(
            pick,
            elba_sparse::SpGemmAlgorithm::Auto,
            "the recorded pick must be concrete"
        );
    }
}
