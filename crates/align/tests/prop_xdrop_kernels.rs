//! Property tests pinning the bit-parallel x-drop kernel to the scalar
//! oracle: for *every* input — random related or unrelated sequences up
//! to 4 Kbp, every scoring the pipeline uses, x-drop thresholds from 0
//! to 100, empty sequences, and non-ACGT byte codes — `BitParallel`
//! (and therefore `Auto`) must return the byte-identical [`Extension`]
//! the `Scalar` kernel returns. The kernel knob is a pure speed choice;
//! any divergence here is a correctness bug, not a tuning difference.

use elba_align::{xdrop_extend_with, Scoring, XdropKernel, XdropWorkspace};
use proptest::prelude::*;

/// The scorings the assembly pipeline actually runs with, plus skewed
/// ones that stress the mismatch/gap ordering in the recurrence.
const SCORINGS: [Scoring; 4] = [
    Scoring {
        match_score: 1,
        mismatch: -1,
        gap: -1,
    },
    Scoring {
        match_score: 2,
        mismatch: -3,
        gap: -2,
    },
    Scoring {
        match_score: 5,
        mismatch: -4,
        gap: -11,
    },
    Scoring {
        match_score: 3,
        mismatch: 0,
        gap: -1,
    },
];

/// Mutate `base` with substitutions/indels at roughly `rate`, driven by
/// a deterministic byte stream, so pairs look like long-read overlaps
/// (long extensions) rather than unrelated noise (instant x-drop).
fn mutate(base: &[u8], noise: &[u8], rate_pct: u8) -> Vec<u8> {
    let mut out = Vec::with_capacity(base.len() + 8);
    for (i, &c) in base.iter().enumerate() {
        let r = noise[i % noise.len().max(1)] as usize;
        if (r % 100) < rate_pct as usize {
            match r % 3 {
                0 => out.push(((c as usize + 1 + r / 3) % 4) as u8), // substitution
                1 => {}                                              // deletion
                _ => {
                    out.push((r / 3 % 4) as u8); // insertion
                    out.push(c);
                }
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// Assert every kernel agrees with the scalar oracle on `(a, b)`,
/// reusing workspaces across calls the way the pipeline does.
fn assert_kernels_agree(
    sws: &mut XdropWorkspace,
    bws: &mut XdropWorkspace,
    a: &[u8],
    b: &[u8],
    xdrop: i32,
    sc: Scoring,
) {
    let want = xdrop_extend_with(sws, a, b, xdrop, sc);
    let got = xdrop_extend_with(bws, a, b, xdrop, sc);
    assert_eq!(
        got,
        want,
        "BitParallel != Scalar (|a|={}, |b|={}, xdrop={xdrop}, sc={sc:?})",
        a.len(),
        b.len()
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]

    /// Related pairs: mutated copies of a shared template up to 4 Kbp,
    /// the workload the kernel exists for (deep bands, long survival).
    #[test]
    fn bitparallel_equals_scalar_on_related_pairs(
        template in proptest::collection::vec(0u8..4, 0..4000),
        noise in proptest::collection::vec(0u8..=255, 64..256),
        rate_pct in 0u8..25,
        xdrop_idx in 0usize..4,
        sc_idx in 0usize..4,
    ) {
        let xdrop = [0, 5, 30, 100][xdrop_idx];
        let sc = SCORINGS[sc_idx];
        let a = template;
        let b = mutate(&a, &noise, rate_pct);
        let mut sws = XdropWorkspace::with_kernel(XdropKernel::Scalar);
        let mut bws = XdropWorkspace::with_kernel(XdropKernel::BitParallel);
        assert_kernels_agree(&mut sws, &mut bws, &a, &b, xdrop, sc);
        // Same workspaces, swapped operands: reuse must not leak state.
        assert_kernels_agree(&mut sws, &mut bws, &b, &a, xdrop, sc);
    }

    /// Unrelated pairs (plus stray non-ACGT codes): the band dies fast
    /// and the edge/fallback paths dominate.
    #[test]
    fn bitparallel_equals_scalar_on_unrelated_pairs(
        a in proptest::collection::vec(0u8..5, 0..600),
        b in proptest::collection::vec(0u8..5, 0..600),
        xdrop in 0i32..101,
        sc_idx in 0usize..4,
    ) {
        let mut sws = XdropWorkspace::with_kernel(XdropKernel::Scalar);
        let mut bws = XdropWorkspace::with_kernel(XdropKernel::BitParallel);
        assert_kernels_agree(&mut sws, &mut bws, &a, &b, xdrop, SCORINGS[sc_idx]);
    }
}

/// The fixed edge cases proptest ranges can miss: both empty, one empty,
/// single bases.
#[test]
fn kernels_agree_on_edge_inputs() {
    let sc = Scoring::default();
    let cases: [(&[u8], &[u8]); 6] = [
        (&[], &[]),
        (&[], &[0, 1, 2, 3]),
        (&[2], &[]),
        (&[1], &[1]),
        (&[0], &[3]),
        (&[0, 0, 0, 0], &[0, 0, 0, 0]),
    ];
    let mut sws = XdropWorkspace::with_kernel(XdropKernel::Scalar);
    let mut bws = XdropWorkspace::with_kernel(XdropKernel::BitParallel);
    for (a, b) in cases {
        for xdrop in [0, 1, 100] {
            assert_kernels_agree(&mut sws, &mut bws, a, b, xdrop, sc);
        }
    }
}
