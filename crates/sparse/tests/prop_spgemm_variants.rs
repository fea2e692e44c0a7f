//! Property tests pinning the SUMMA schedule equivalence: the layered
//! (pipelined at c = 1), column-batched, and auto-picked SpGEMM paths
//! must produce results *identical* to [`DistMat::spgemm_reference`] —
//! same structure including explicit zeros, same values — on random
//! matrices across 1×1, 2×2, and 3×3 process grids. The schedules may only differ in overlap and
//! peak memory, never output; tiny byte budgets force the column-batched
//! schedule through many single-column rounds, the worst case for a
//! concatenation bug.

use elba_comm::ProcGrid;
use elba_comm::{Backend, Runner};
use elba_sparse::semiring::{MinPlus, PlusTimes};
use elba_sparse::{DistMat, SpGemmOptions};
use proptest::prelude::*;

/// Sparse triples from a proptest-generated entry list (dedup last-wins).
fn to_triples(nrows: usize, ncols: usize, entries: &[(usize, usize, i8)]) -> Vec<(u64, u64, f64)> {
    let mut map = std::collections::BTreeMap::new();
    for &(r, c, v) in entries {
        if v != 0 {
            map.insert((r % nrows, c % ncols), v as f64);
        }
    }
    map.into_iter()
        .map(|((r, c), v)| (r as u64, c as u64, v))
        .collect()
}

/// Run `A ⊗ B` on a p-rank grid under `opts` (`None` runs the reference
/// multiply), returning the gathered, sorted triple list (exact
/// structure, explicit zeros included).
fn run_schedule(
    p: usize,
    n: usize,
    k: usize,
    m: usize,
    a_triples: &[(u64, u64, f64)],
    b_triples: &[(u64, u64, f64)],
    opts: Option<SpGemmOptions>,
) -> Vec<(u64, u64, f64)> {
    let (at, bt) = (a_triples.to_vec(), b_triples.to_vec());
    let mut got = Runner::new(Backend::InProcess)
        .ranks(p)
        .run(move |comm| {
            let grid = ProcGrid::new(comm);
            let mine_a = if grid.world().rank() == 0 {
                at.clone()
            } else {
                Vec::new()
            };
            let mine_b = if grid.world().rank() == 0 {
                bt.clone()
            } else {
                Vec::new()
            };
            let a = DistMat::from_triples(&grid, n, k, mine_a, |_, _| unreachable!());
            let b = DistMat::from_triples(&grid, k, m, mine_b, |_, _| unreachable!());
            match &opts {
                Some(opts) => a.spgemm_with(&grid, &b, &PlusTimes, opts),
                None => a.spgemm_reference(&grid, &b, &PlusTimes),
            }
            .gather_triples(&grid)
        })
        .remove(0);
    got.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    got
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    #[test]
    fn schedules_equal_reference(
        p_idx in 0usize..3,
        n in 1usize..14,
        k in 1usize..14,
        m in 1usize..14,
        batch in 1usize..8,
        c in 1usize..5,
        budget_raw in 0u64..4000,
        a_entries in proptest::collection::vec((0usize..20, 0usize..20, -3i8..4), 0..70),
        b_entries in proptest::collection::vec((0usize..20, 0usize..20, -3i8..4), 0..70),
    ) {
        let p = [1usize, 4, 9][p_idx];
        let budget = (budget_raw > 0).then_some(budget_raw); // 0 = unbudgeted
        let a_triples = to_triples(n, k, &a_entries);
        let b_triples = to_triples(k, m, &b_entries);
        let run = |opts| run_schedule(p, n, k, m, &a_triples, &b_triples, opts);
        let reference = run(None);
        let column_batched = run(Some(SpGemmOptions::column_batched(batch, budget)));
        prop_assert_eq!(
            &column_batched, &reference,
            "column_batched(batch={}, budget={:?}) != reference (p={})", batch, budget, p
        );
        // c sweeps past q on every grid here, exercising the clamp; c=1
        // is the pipelined path.
        let layered = run(Some(SpGemmOptions::layered(c)));
        prop_assert_eq!(&layered, &reference, "layered(c={}) != reference (p={})", c, p);
        let auto = run(Some(SpGemmOptions::auto()));
        prop_assert_eq!(&auto, &reference, "auto != reference (p={})", p);
    }

    #[test]
    fn schedules_agree_on_aat(
        p_idx in 0usize..3,
        n in 1usize..12,
        k in 1usize..16,
        entries in proptest::collection::vec((0usize..16, 0usize..24, 1i8..3), 0..60),
    ) {
        // The overlap-detection shape: square output from A · Aᵀ.
        let p = [1usize, 4, 9][p_idx];
        let triples = to_triples(n, k, &entries);
        let run = |opts: Option<SpGemmOptions>| {
            let t = triples.clone();
            let mut got = Runner::new(Backend::InProcess).ranks(p).run(move |comm| {
                let grid = ProcGrid::new(comm);
                let mine = if grid.world().rank() == 0 { t.clone() } else { Vec::new() };
                let a = DistMat::from_triples(&grid, n, k, mine, |_, _| unreachable!());
                let at = a.transpose(&grid);
                match &opts {
                    Some(opts) => a.spgemm_with(&grid, &at, &PlusTimes, opts),
                    None => a.spgemm_reference(&grid, &at, &PlusTimes),
                }
                .gather_triples(&grid)
            })
            .remove(0);
            got.sort_by(|x, y| x.partial_cmp(y).expect("no NaN"));
            got
        };
        let reference = run(None);
        prop_assert_eq!(&run(Some(SpGemmOptions::layered(1))), &reference);
        prop_assert_eq!(&run(Some(SpGemmOptions::column_batched(2, Some(256)))), &reference);
        prop_assert_eq!(&run(Some(SpGemmOptions::column_batched(1024, None))), &reference);
        prop_assert_eq!(&run(Some(SpGemmOptions::layered(2))), &reference);
        prop_assert_eq!(&run(Some(SpGemmOptions::layered(3))), &reference);
        prop_assert_eq!(&run(Some(SpGemmOptions::auto())), &reference);
    }

    #[test]
    fn schedules_agree_under_min_plus(
        p_idx in 0usize..3,
        n in 1usize..10,
        entries in proptest::collection::vec((0usize..12, 0usize..12, 1i8..9), 0..50),
    ) {
        // A non-arithmetic semiring (shortest two-hop paths): schedule
        // equivalence must not depend on PlusTimes-specific behavior.
        let p = [1usize, 4, 9][p_idx];
        let triples: Vec<(u64, u64, u64)> = {
            let mut map = std::collections::BTreeMap::new();
            for &(r, c, v) in &entries {
                map.insert((r % n, c % n), v as u64);
            }
            map.into_iter().map(|((r, c), v)| (r as u64, c as u64, v)).collect()
        };
        let run = |opts: Option<SpGemmOptions>| {
            let t = triples.clone();
            let mut got = Runner::new(Backend::InProcess).ranks(p).run(move |comm| {
                let grid = ProcGrid::new(comm);
                let mine = if grid.world().rank() == 0 { t.clone() } else { Vec::new() };
                let a = DistMat::from_triples(&grid, n, n, mine, |_, _| unreachable!());
                match &opts {
                    Some(opts) => a.spgemm_with(&grid, &a, &MinPlus, opts),
                    None => a.spgemm_reference(&grid, &a, &MinPlus),
                }
                .gather_triples(&grid)
            })
            .remove(0);
            got.sort_unstable();
            got
        };
        let reference = run(None);
        prop_assert_eq!(&run(Some(SpGemmOptions::layered(1))), &reference);
        prop_assert_eq!(&run(Some(SpGemmOptions::column_batched(1, Some(1)))), &reference);
        prop_assert_eq!(&run(Some(SpGemmOptions::column_batched(5, Some(1000)))), &reference);
        prop_assert_eq!(&run(Some(SpGemmOptions::layered(2))), &reference);
        prop_assert_eq!(&run(Some(SpGemmOptions::layered(3))), &reference);
    }
}
