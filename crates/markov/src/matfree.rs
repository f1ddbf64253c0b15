//! Matrix-free absorption solves for the full flag chain.
//!
//! The full recovery-line chain (paper Figure 2) has 2ⁿ+1 states and
//! O(n²·2ⁿ) transitions; materialising it as CSR caps the workspace at
//! n ≈ 13. But the chain is not an arbitrary sparse matrix — every
//! transition is generated by the four rules R1–R4 acting on a bit
//! mask, so the generator's action on a vector can be computed directly
//! from `(μ, λ)` with **O(2ⁿ) memory** (a handful of state vectors) and
//! O(n²·2ⁿ) work per apply, the same as one CSR sweep but with no
//! stored matrix at all.
//!
//! [`FlagChainOp`] is that operator, with the two-level preconditioner
//! of its solves; [`FlagChainOp::solve`] runs the crate's BiCGSTAB
//! ([`crate::solver`]) on it. Together they answer the three absorption
//! quantities the experiments need — mean absorption time
//! E\[X\], per-state expected visits (occupancy times), and the
//! absorption-time distribution (CDF, survival function and density)
//! from one uniformized jump-chain propagation — scaling the Markov layer
//! to n ≥ 20 (2²⁰+1 ≈ 10⁶ states). It is the backend of every
//! [`AsyncParams`] query at every n: from n = 4 up it is faster than
//! dense elimination (about 60× on the symmetric n = 8 mean), and with
//! its refinement it is also the more accurate.
//!
//! **Kernels.** Each rule acts on masks that differ in one or two fixed
//! bits, so every operator here — the forward and transposed applies and
//! the uniformized jump step — is a few slice-to-slice updates per
//! process (R1) or pair (R2/R3) over contiguous runs of masks, with no
//! per-mask branching. On both sides, pull (the forward apply, in either
//! form) and push (the transposed apply and the jump step), the low bits,
//! whose runs are short, get kernels of their own: every R1 bit ≤ 64 and
//! every pair with bⱼ ≤ 64 runs an index loop with its bits known at
//! compile time over whole chunks of 2·bⱼ masks, through one chunk driver
//! for both sides, and the block loop's per-block kernels for bᵢ ≤ 4 are
//! index loops with bᵢ known at compile time. Each output mask still takes
//! one addition per rule, with the same operands in the same order, so the
//! results are bit-identical to the block loop's. A jump step at n = 10–14
//! is about 1.4–1.8× faster for it, and a forward apply on the benchmark
//! family about 1.2–1.4× (n = 12, one thread of a shared 2-core host:
//! 94 → 73 µs in standard form, 137 → 99 µs in difference form).
//!
//! **Uniformization rate.** exp(Qt) = Σₖ Pois(k; Λt)·Pᵏ with
//! P = I + Q/Λ holds for any Λ > 0. Every distribution query takes
//! Λ = max(largest mask exit rate, ⅔·exit(S_r)) rather than
//! exit(S_r), the largest exit rate of all. Only S_r can then exit faster
//! than Λ: its stay factor 1 − r, with r = exit(S_r)/Λ ∈ [1, 1.5], is
//! negative and kept unclamped, while every other state's is clamped at 0
//! against rounding as before. Nothing re-enters S_r, so its mass after k
//! steps is exactly (1 − r)ᵏ and the total |mass| it ever emits is
//! Σₖ r·|1 − r|ᵏ = r/(2 − r) ≤ 3: the Poisson truncation error stays
//! within 3·1e-12. While that signed mass is left the absorbed mass
//! oscillates, so the early stop and the tail switch also wait for
//! |1 − r|ᵏ ≤ 1e-12. On symmetric rates Λ = n against exit(S_r) = 1.5·n,
//! a third fewer steps. This is adaptive uniformization in the spirit of
//! van Moorsel and Sanders (1994), with a single rate.
//!
//! **Geometric tail.** Each jump step records the absorbed mass, the
//! transient mass (in four interleaved partial sums over the 2ⁿ states)
//! and the flux into S_{r+1}; F, S and f each mix one of them over the
//! Fox–Glynn window of Pois(Λt) (`AbsorptionSeq` and `poisson_mixture` in
//! [`crate::ctmc`]), so the propagation never runs past the right edge
//! R(Λt) ≈ Λt + 7.4·√(Λt) of the largest window. Past the chain's mixing
//! time S(t) ≈ C·e^{−θt}, so the propagation also stops once the per-step
//! decay ratio of the transient mass has settled and S_r's signed mass is
//! spent. Every column is then geometric: windows ending before step 2¹⁰
//! extend it with scalars, longer ones take one closed form for F, S and
//! f. The symmetric n = 12 batch of the benchmark stops after 177 jump
//! steps, and the 0.99-quantile at E\[X\] = 4·10⁵ (n = 12, ρ = 4), whose
//! window ends about 7·10⁷ steps out, after 102. Skewed chains queried
//! within their mixing time never settle and propagate to their window's
//! edge: 267 steps for the skewed n = 12 batch on (0, 6·E\[X\]].
//!
//! **Preconditioning.** Jacobi (the exit-rate diagonal) alone leaves
//! BiCGSTAB struggling when E\[X\] is large, so the preconditioner is
//! *two-level*, a V(0,1) cycle: a coarse-grid correction over the paper's
//! own popcount aggregates — exactly the lumped chain of Figure 3 built
//! from averaged rates — then one Gauss–Seidel sweep. The coarse level is
//! built once per operator, on its first solve, and every later solve
//! shares it and its one set of GTH factors: the mean, both solves of the
//! second moment and the transposed expected visits. For homogeneous
//! parameters the aggregation is exact (the lumpability theorem behind
//! Figure 3): the correction P·e already solves the mean's system, the
//! sweep keeps it, and BiCGSTAB converges in one iteration. For skewed
//! rates the sweep, which follows the chain's own direction (R1 up the
//! mask order, R2/R3 down), absorbs what the averaged coarse level
//! misses. It reads every R2/R3 neighbour at its old value, which is P·e
//! and so constant on each popcount class: that pass is a closed form in
//! O(2ⁿ) over the rates of the pairs inside each mask, and one
//! application costs an O(n) coarse solve and one R1 back-substitution,
//! with no operator apply (n = 12, skewed, on a shared 2-core host: 33
//! µs, against 216 µs for the smoother on both sides of the coarse level
//! it replaced). Being one
//! sweep weaker, it takes more iterations — 8, 10, 11, 12, 13, 13 on the
//! benchmark family at n = 6, 8, 10–13, against 6, 7, 8, 9, 9, 10 — and
//! less time.
//!
//! **Refinement.** In the domino regime E\[X\] approaches 1/ε, and the
//! standard form of a product, (−Q_TT·x)ᵢ = exitᵢ·xᵢ − Σⱼ qᵢⱼ·xⱼ,
//! subtracts two numbers of size exitᵢ·E\[X\]: its rounding, ε·Λ·E\[X\],
//! can exceed the whole residual. `FlagChainOp::apply_neg_qtt` forms
//! it in the *difference form* sᵢ·xᵢ + Σⱼ qᵢⱼ·(xᵢ − xⱼ) instead,
//! where sᵢ is the rate straight into S_{r+1} (Σμ at S_r, μᵢ at the mask
//! one flag i short of it, 0 elsewhere): the same kernels, one subtraction
//! per edge, no cancellation. BiCGSTAB measures its true residual
//! that way, and every outer round after the first is one step of
//! iterative refinement (Higham, *Accuracy and Stability of Numerical
//! Algorithms*, ch. 12) whose recurrence forms its products that way too.
//! The first round keeps the standard form, so a solve that converges in
//! it (the ρ = 1 symmetric models through n = 16, the skewed benchmark
//! family through n = 14) pays nothing for the refinement. The rounds
//! stop once the residual reaches its target, the correction
//! ‖Δx‖∞/‖x‖∞ reaches 1e-14, the correction stops contracting or the
//! budget runs out. Where the
//! residual cannot reach its target — its own rounding floors at about
//! ε·μ·E\[X\] on the rows into S_{r+1} — the last correction is an
//! a-posteriori error estimate ([`KrylovOutcome::error_estimate`]), and
//! the solve is accepted on it. The symmetric domino models the tests
//! pin (E\[X\] up to 4.5·10¹¹) then land within 1.8e-13 of GTH on the
//! lumped chain, and within 1e-14 wherever a refinement round ran, in at
//! most 27 iterations; skewed n ≤ 8 models up to ρ = 64 land within
//! about 1e-12 of GTH on the full chain (`tests/domino.rs`).
//!
//! **Threads.** The forward apply cuts its output masks into 2ᵗ
//! contiguous ranges on their top t bits, one scoped thread each (t =
//! ⌊log₂ `available_parallelism()`⌋, lowered until every range holds at
//! least `MIN_RANGE_MASKS`; smaller chains run on the caller's thread
//! alone). Each kernel writes every output mask at most once per call and
//! each range runs the rules in the serial order, so every mask takes the
//! same additions in the same order: the bits cannot depend on t, and no
//! option reaches it. The preconditioner runs serially: its closed-form
//! pass is O(2ⁿ), and its R1 back-substitution is a true Gauss–Seidel
//! dependency. The S_r row and every dot product and norm stay serial
//! too, because their order is part of the result. The push side (the
//! transposed apply, and the jump step behind the distribution queries)
//! also stays serial: no workload runs it above n = 12, where even two
//! ranges would fall below `MIN_RANGE_MASKS`, and a spawn (about 30 µs)
//! would cost over half of a 50 µs jump step.
//!
//! ```
//! use rbmarkov::matfree::FlagChainOp;
//! use rbmarkov::paper::AsyncParams;
//! use rbmarkov::SolverStrategy;
//!
//! let p = AsyncParams::symmetric(3, 1.0, 1.0);
//! let op = FlagChainOp::new(&p);
//! // Same answer as GTH elimination over the materialised chain.
//! let dense = p.mean_interval_with(SolverStrategy::Dense);
//! assert!((op.mean_absorption_time() - dense).abs() < 1e-12);
//! ```

use std::sync::{Arc, OnceLock};

use crate::ctmc::AbsorptionSeq;
use crate::paper::{AsyncParams, SymmetricChain};
use crate::solver::{
    bicgstab, KrylovOutcome, LinOp, Precond, TransientBlock, KRYLOV_MAX_ITER, KRYLOV_TOL,
};

/// Hard acceptance bound: a solve is returned only if its true relative
/// residual, or its verified error estimate
/// ([`KrylovOutcome::error_estimate`]), is at most this; otherwise it
/// panics rather than answer with no correct digits. The residual alone
/// cannot decide in the domino regime: there even the correctly rounded
/// answer has a difference-form residual of about ε·μ·E\[X\] (5.6e-6 at
/// n = 8, ρ = 32, for an answer within 5.1e-16 of GTH), so the refined
/// solve's estimate vouches for it instead.
const KRYLOV_ACCEPT: f64 = 1e-8;

/// One strictly-positive pairwise interaction, with its bit masks
/// precomputed.
#[derive(Clone, Copy, Debug)]
struct PairRate {
    /// `(1 << i) | (1 << j)`.
    bits: usize,
    /// `1 << i` (i < j).
    bit_i: usize,
    /// `1 << j`.
    bit_j: usize,
    /// λᵢⱼ > 0.
    rate: f64,
}

// Block-loop kernels over mask-indexed slices.
//
// Every R1–R3 transition moves between masks that differ in one or two
// fixed bits, so each rule is a handful of slice-to-slice updates over
// contiguous runs of masks rather than a branchy per-mask loop. The
// forward apply, the transposed apply and the jump propagation all go
// through the four kernels below, so the operators can never
// desynchronise.
//
// Slices are indexed by the mask itself and may stop short of the
// all-ones mask (in the transient block that mask is the absorbing
// state). Masks are walked in chunks of 2·bit: the first half has the
// bit clear, the second half set. Only the very last chunk can be one
// short: the R1 kernels zip its halves, so the missing mask drops out,
// and the pair kernels finish that chunk's quads separately.
//
// An R1 bit ≤ 64 or a pair with bⱼ ≤ 64, on either side, skips the block
// loop (module doc, **Kernels**): [`whole_chunks`] runs an index loop with
// the bits known at compile time over the slice's whole chunks of 2·bⱼ
// masks and leaves the short last chunk to the block loop. Each output
// mask takes the block loop's one addition per rule, with the same
// operands, so the bits are the block loop's.

/// One pulled transition into `y`: `y += c·src`, or in the difference
/// form (`D`) `y += c·(src − own)`, with `own` the operand at `y`'s own
/// mask. With c = −rate the difference form adds rate·(x_own − x_src)
/// (module doc, **Refinement**).
#[inline(always)]
fn pulled<const D: bool>(y: &mut f64, src: f64, own: f64, c: f64) {
    *y += c * if D { src - own } else { src };
}

/// Expands `$dispatch!` over the R1 bits that get fixed-index kernels.
macro_rules! fixed_bits {
    ($dispatch:ident) => {
        $dispatch!(1 2 4 8 16 32 64)
    };
}

/// Expands `$dispatch!` over the (bᵢ, bⱼ) pairs that get fixed-index
/// kernels: the 21 with bⱼ ≤ 64.
macro_rules! fixed_pairs {
    ($dispatch:ident) => {
        $dispatch! {
            (1, 2)
            (1, 4) (2, 4)
            (1, 8) (2, 8) (4, 8)
            (1, 16) (2, 16) (4, 16) (8, 16)
            (1, 32) (2, 32) (4, 32) (8, 32) (16, 32)
            (1, 64) (2, 64) (4, 64) (8, 64) (16, 64) (32, 64)
        }
    };
}

/// The one driver of the fixed-index kernels: `f` on every whole
/// `C`-mask chunk of `y` and of `x`, the short last chunks returned for
/// the block loop.
#[inline(always)]
fn whole_chunks<'y, 'x, const C: usize>(
    y: &'y mut [f64],
    x: &'x [f64],
    mut f: impl FnMut(&mut [f64; C], &[f64; C]),
) -> (&'y mut [f64], &'x [f64]) {
    debug_assert_eq!(x.len(), y.len());
    let (ys, y_tail) = y.as_chunks_mut::<C>();
    let (xs, x_tail) = x.as_chunks::<C>();
    for (y, x) in ys.iter_mut().zip(xs) {
        f(y, x);
    }
    (y_tail, x_tail)
}

/// `f(k)` for every quad base of a chunk of 2·`BJ` masks: the k < BJ
/// with bit `BI` clear, in BJ/(2·BI) runs of BI.
#[inline(always)]
fn quad_bases<const BI: usize, const BJ: usize>(mut f: impl FnMut(usize)) {
    for run in 0..BJ / (2 * BI) {
        for k in 2 * BI * run..2 * BI * run + BI {
            f(k);
        }
    }
}

/// R1, source-to-target orientation: `y[m] += c·x[m|bit]` for every
/// mask `m` with `bit` clear (with `D`, `c·(x[m|bit] − x[m])`).
fn r1_pull<const D: bool>(y: &mut [f64], x: &[f64], bit: usize, c: f64) {
    macro_rules! dispatch {
        ($($b:literal)*) => {
            match bit {
                $($b => {
                    let (y, x) = whole_chunks::<{ 2 * $b }>(y, x, |y, x| {
                        for k in 0..$b {
                            pulled::<D>(&mut y[k], x[$b + k], x[k], c);
                        }
                    });
                    r1_pull_runs::<D>(y, x, $b, c)
                })*
                _ => r1_pull_runs::<D>(y, x, bit, c),
            }
        };
    }
    fixed_bits!(dispatch)
}

/// [`r1_pull`] over runs of `bit` masks: chunks of 2·bit split on the
/// bit, the last chunk's halves zipped so a missing all-ones source drops
/// out.
fn r1_pull_runs<const D: bool>(y: &mut [f64], x: &[f64], bit: usize, c: f64) {
    for (yc, xc) in y.chunks_mut(2 * bit).zip(x.chunks(2 * bit)) {
        let (own, src) = xc.split_at(bit);
        for ((y, &x), &o) in yc[..bit].iter_mut().zip(src).zip(own) {
            pulled::<D>(y, x, o, c);
        }
    }
}

/// R1, target-to-source orientation: `y[m|bit] += c·x[m]` for every
/// mask `m` with `bit` clear.
fn r1_push(y: &mut [f64], x: &[f64], bit: usize, c: f64) {
    macro_rules! dispatch {
        ($($b:literal)*) => {
            match bit {
                $($b => {
                    let (y, x) = whole_chunks::<{ 2 * $b }>(y, x, |y, x| {
                        for k in 0..$b {
                            y[$b + k] += c * x[k];
                        }
                    });
                    r1_push_runs(y, x, $b, c)
                })*
                _ => r1_push_runs(y, x, bit, c),
            }
        };
    }
    fixed_bits!(dispatch)
}

/// [`r1_push`] over runs of `bit` masks: chunks of 2·bit split on the
/// bit, the last chunk's halves zipped so a missing all-ones mask drops
/// out.
fn r1_push_runs(y: &mut [f64], x: &[f64], bit: usize, c: f64) {
    for (yc, xc) in y.chunks_mut(2 * bit).zip(x.chunks(2 * bit)) {
        for (y, &x) in yc[bit..].iter_mut().zip(&xc[..bit]) {
            *y += c * x;
        }
    }
}

/// Masks per cache tile: 2¹¹ f64s (16 KB) per vector, so a tile of the
/// source and of the target stay in L1 together.
const TILE: usize = 1 << 11;

/// Runs `kernel(y, x, w, pr)` for every pair over window `w`. A pair
/// pass streams both vectors once, so from about 2¹² masks up the passes
/// are bound by cache bandwidth. A pair whose two bits both lie below
/// [`TILE`] keeps each of its quads inside one aligned tile, so those
/// pairs run tile by tile, all of them sweeping a tile while it is hot;
/// the rest stream the whole window. Every mask therefore takes the
/// tiled pairs first, then the streamed ones, each in list order, however
/// the slice is cut into windows.
fn for_each_pair_tiled(
    pairs: &[PairRate],
    y: &mut [f64],
    x: &[f64],
    w: Window,
    kernel: impl Fn(&mut [f64], &[f64], Window, &PairRate),
) {
    let tile = TILE.min(w.span);
    for (k, y) in y.chunks_mut(tile).enumerate() {
        let t = Window {
            off: w.off + k * tile,
            span: tile,
        };
        for pr in pairs.iter().filter(|pr| pr.bit_j < TILE) {
            kernel(y, x, t, pr);
        }
    }
    for pr in pairs.iter().filter(|pr| pr.bit_j >= TILE) {
        kernel(y, x, w, pr);
    }
}

/// [`pair_push`] with coefficient `c(pr)` for every pair over the whole
/// slice, on the caller's thread: the push side is not split into
/// thread ranges.
fn pair_push_all(pairs: &[PairRate], y: &mut [f64], x: &[f64], c: impl Fn(&PairRate) -> f64) {
    let whole = Window {
        off: 0,
        span: y.len().next_power_of_two(),
    };
    for_each_pair_tiled(pairs, y, x, whole, |y, x, t, pr| {
        pair_push(y, &x[t.off..t.off + y.len()], pr, c(pr))
    });
}

/// Calls `f(lo, hi)` for every block of pair `pr`: `lo` the masks with
/// bit j clear, `hi` the next ones, with bit j set (one short when the
/// slice ends before the all-ones mask). In both halves, chunks of
/// 2·bᵢ masks split the same way on bit i, so chunk k of `lo` holds a
/// run of quad bases followed by the `base|bᵢ` masks, and chunk k of
/// `hi` the `base|bⱼ` and `base|bᵢ|bⱼ` masks of the same quads: an
/// interaction of the pair drops all three to `base` (R2 clears both
/// flags, R3 the one set).
#[inline(always)]
fn pair_blocks(pr: &PairRate, n_masks: usize, mut f: impl FnMut(usize, usize)) {
    let mut lo = 0;
    while lo + pr.bit_j < n_masks {
        f(lo, lo + pr.bit_j);
        lo += 2 * pr.bit_j;
    }
}

/// R2/R3, source-to-target orientation: `y[s] += c·x[base]` for the
/// three masks `s` of every quad (with `D`, `c·(x[base] − x[s])`).
fn pair_pull<const D: bool>(y: &mut [f64], x: &[f64], pr: &PairRate, c: f64) {
    macro_rules! dispatch {
        ($(($bi:literal, $bj:literal))*) => {
            match (pr.bit_i, pr.bit_j) {
                $(($bi, $bj) => {
                    let (y, x) = whole_chunks::<{ 2 * $bj }>(y, x, |y, x| {
                        quad_bases::<$bi, $bj>(|k| {
                            for s in [k + $bi, k + $bj, k + $bi + $bj] {
                                pulled::<D>(&mut y[s], x[k], x[s], c);
                            }
                        })
                    });
                    pair_pull_blocks::<D>(y, x, pr, c)
                })*
                _ => pair_pull_blocks::<D>(y, x, pr, c),
            }
        };
    }
    fixed_pairs!(dispatch)
}

/// [`pair_pull`] block by block ([`pair_blocks`]).
fn pair_pull_blocks<const D: bool>(y: &mut [f64], x: &[f64], pr: &PairRate, c: f64) {
    /// One block's whole chunks: `lo`/`hi` its halves with bit j
    /// clear/set, `xlo`/`xhi` the operand's.
    #[inline(always)]
    fn kernel<const D: bool>(
        lo: &mut [f64],
        hi: &mut [f64],
        xlo: &[f64],
        xhi: &[f64],
        bi: usize,
        c: f64,
    ) {
        let chunks = lo.chunks_exact_mut(2 * bi).zip(hi.chunks_exact_mut(2 * bi));
        let operands = xlo.chunks_exact(2 * bi).zip(xhi.chunks_exact(2 * bi));
        for ((lo, hi), (xlo, xhi)) in chunks.zip(operands) {
            let (hi_j, hi_ij) = hi.split_at_mut(bi);
            let quads = lo[bi..].iter_mut().zip(hi_j).zip(hi_ij);
            let owns = xlo[bi..].iter().zip(&xhi[..bi]).zip(&xhi[bi..]);
            for ((((y_i, y_j), y_ij), &x), ((&o_i, &o_j), &o_ij)) in quads.zip(&xlo[..bi]).zip(owns)
            {
                pulled::<D>(y_i, x, o_i, c);
                pulled::<D>(y_j, x, o_j, c);
                pulled::<D>(y_ij, x, o_ij, c);
            }
        }
    }
    debug_assert_eq!(x.len(), y.len());
    let (bi, n_masks) = (pr.bit_i, y.len());
    pair_blocks(pr, n_masks, |lo, hi| {
        let end = (hi + pr.bit_j).min(n_masks);
        let (ylo, yhi) = y[lo..end].split_at_mut(pr.bit_j);
        let (xlo, xhi) = x[lo..end].split_at(pr.bit_j);
        let exact = yhi.len() - yhi.len() % (2 * bi);
        let (ylo, ylo_tail) = ylo.split_at_mut(exact);
        let (yhi, yhi_tail) = yhi.split_at_mut(exact);
        let ((xlo, xlo_tail), (xhi, xhi_tail)) = (xlo.split_at(exact), xhi.split_at(exact));
        match bi {
            1 => kernel::<D>(ylo, yhi, xlo, xhi, 1, c),
            2 => kernel::<D>(ylo, yhi, xlo, xhi, 2, c),
            4 => kernel::<D>(ylo, yhi, xlo, xhi, 4, c),
            _ => kernel::<D>(ylo, yhi, xlo, xhi, bi, c),
        }
        // The last block lacks the all-ones mask when the slice stops
        // before it: its final quad has no third member.
        if !ylo_tail.is_empty() {
            for (k, &x) in xlo_tail[..bi].iter().enumerate() {
                pulled::<D>(&mut ylo_tail[bi + k], x, xlo_tail[bi + k], c);
                pulled::<D>(&mut yhi_tail[k], x, xhi_tail[k], c);
                if let Some(y) = yhi_tail.get_mut(bi + k) {
                    pulled::<D>(y, x, xhi_tail[bi + k], c);
                }
            }
        }
    });
}

/// R2/R3, target-to-source orientation:
/// `y[base] += c·(x[base|bᵢ] + x[base|bⱼ] + x[base|bᵢ|bⱼ])`.
fn pair_push(y: &mut [f64], x: &[f64], pr: &PairRate, c: f64) {
    macro_rules! dispatch {
        ($(($bi:literal, $bj:literal))*) => {
            match (pr.bit_i, pr.bit_j) {
                $(($bi, $bj) => {
                    let (y, x) = whole_chunks::<{ 2 * $bj }>(y, x, |y, x| {
                        quad_bases::<$bi, $bj>(|k| {
                            y[k] += c * (x[k + $bi] + x[k + $bj] + x[k + $bi + $bj]);
                        })
                    });
                    pair_push_blocks(y, x, pr, c)
                })*
                _ => pair_push_blocks(y, x, pr, c),
            }
        };
    }
    fixed_pairs!(dispatch)
}

/// [`pair_push`] block by block ([`pair_blocks`]).
fn pair_push_blocks(y: &mut [f64], x: &[f64], pr: &PairRate, c: f64) {
    let (bi, n_masks) = (pr.bit_i, x.len());
    pair_blocks(pr, n_masks, |lo, hi| {
        let end = (hi + pr.bit_j).min(n_masks);
        let (xlo, xhi) = x[lo..end].split_at(pr.bit_j);
        let exact = xhi.len() - xhi.len() % (2 * bi);
        let (y, y_tail) = y[lo..hi].split_at_mut(exact);
        match bi {
            1 => pair_push_quads::<1, 2>(y, xlo, xhi, c),
            2 => pair_push_quads::<2, 4>(y, xlo, xhi, c),
            4 => pair_push_quads::<4, 8>(y, xlo, xhi, c),
            _ => pair_push_runs(y, xlo, xhi, bi, c),
        }
        // The last block lacks the all-ones mask when the slice stops
        // before it: its final quad has no third member.
        let (xlo, xhi) = (&xlo[exact..], &xhi[exact..]);
        for (k, y) in y_tail.iter_mut().take(bi).enumerate() {
            let d = xhi.get(bi + k).copied().unwrap_or(0.0);
            *y += c * (xlo[bi + k] + xhi[k] + d);
        }
    });
}

/// One [`pair_push_blocks`] block's whole chunks of 2·bᵢ masks: `y` the
/// quad bases' chunks, `lo`/`hi` the block's halves with bit j clear/set.
fn pair_push_runs(y: &mut [f64], lo: &[f64], hi: &[f64], bi: usize, c: f64) {
    let chunks = y.chunks_exact_mut(2 * bi).zip(lo.chunks_exact(2 * bi));
    for ((y, lo), hi) in chunks.zip(hi.chunks_exact(2 * bi)) {
        let (hi_j, hi_ij) = hi.split_at(bi);
        let quads = lo[bi..].iter().zip(hi_j).zip(hi_ij);
        for (y, ((&a, &b), &d)) in y[..bi].iter_mut().zip(quads) {
            *y += c * (a + b + d);
        }
    }
}

/// [`pair_push_runs`] for bᵢ = `BI` ≤ 4 known at compile time (`C` =
/// 2·BI): an index loop, so a run of one to four masks costs no
/// iterator set-up.
fn pair_push_quads<const BI: usize, const C: usize>(y: &mut [f64], lo: &[f64], hi: &[f64], c: f64) {
    let chunks = y
        .as_chunks_mut::<C>()
        .0
        .iter_mut()
        .zip(lo.as_chunks::<C>().0);
    for ((y, lo), hi) in chunks.zip(hi.as_chunks::<C>().0) {
        for k in 0..BI {
            y[k] += c * (lo[BI + k] + hi[k] + hi[BI + k]);
        }
    }
}

// Thread ranges (the module doc's **Threads** paragraph). A rule whose
// bits all lie below the window span runs the serial kernel on the
// window's sub-slices. A bit at or above the span is fixed across a
// window, so there the rule reduces to a shifted slice update reading
// another window of `x` (the `*_at` kernels below).

/// Smallest thread range worth a thread, in masks. One skewed-rate
/// `apply_neg_qtt` on a shared 2-core host (release, best of 5, two runs
/// each), one range against two: n = 11 66 → 81 µs, n = 12 110–141 →
/// 125–139 µs (even), n = 13 272–406 → 217–299 µs, n = 14 562–808 →
/// 359–626 µs, n = 18 23.7–27.7 → 12.5–14.4 ms. A thread spawn costs
/// about 30 µs, so ranges start at n = 13.
const MIN_RANGE_MASKS: usize = 1 << 12;

/// Masks per thread range for a 2ⁿ-mask slice: the slice cut on its top
/// t bits into 2ᵗ ≤ `available_parallelism()` ranges of at least
/// [`MIN_RANGE_MASKS`] each; 2ⁿ (one range, no thread) when even two
/// would fall below it.
fn range_span(n: usize) -> usize {
    static RANGES: OnceLock<usize> = OnceLock::new();
    let masks = 1usize << n;
    let ranges = *RANGES.get_or_init(|| {
        let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
        1 << cores.ilog2()
    });
    let mut span = masks / ranges.min(masks);
    while span < MIN_RANGE_MASKS && span < masks {
        span *= 2;
    }
    span
}

/// A thread's share of a mask pass: the output masks `off..off + len`
/// of a slice cut into aligned runs of `span` masks (a power of two).
/// The output slice holds only the window; the input holds every mask.
#[derive(Clone, Copy)]
struct Window {
    off: usize,
    span: usize,
}

/// Runs `f(window, w)` on each `span`-mask window of `y`, every window
/// but the last on its own scoped thread and the last on the caller's.
fn for_each_range(y: &mut [f64], span: usize, f: impl Fn(&mut [f64], Window) + Sync) {
    let mut windows = y.chunks_mut(span).enumerate().map(|(k, y)| {
        (
            y,
            Window {
                off: k * span,
                span,
            },
        )
    });
    let (y_last, last) = windows.next_back().expect("mask slices are non-empty");
    std::thread::scope(|s| {
        for (y, w) in windows {
            let f = &f;
            s.spawn(move || f(y, w));
        }
        f(y_last, last);
    });
}

/// `y[k] += c·x[k]` over the common length (with `D`,
/// `c·(x[k] − own[k])`).
fn add_scaled<const D: bool>(y: &mut [f64], x: &[f64], own: &[f64], c: f64) {
    for ((y, &x), &o) in y.iter_mut().zip(x).zip(own) {
        pulled::<D>(y, x, o, c);
    }
}

/// [`r1_pull`] onto window `w`.
fn r1_pull_at<const D: bool>(y: &mut [f64], x: &[f64], w: Window, bit: usize, c: f64) {
    let own = &x[w.off..w.off + y.len()];
    if bit < w.span {
        r1_pull::<D>(y, own, bit, c);
    } else if w.off & bit == 0 {
        add_scaled::<D>(y, &x[w.off + bit..], own, c);
    }
}

/// [`pair_pull`] onto window `w`: `y[m] += c·x[m & !(bᵢ|bⱼ)]` for every
/// mask `m` with bit i or j set.
fn pair_pull_at<const D: bool>(y: &mut [f64], x: &[f64], w: Window, pr: &PairRate, c: f64) {
    let (bi, bj) = (pr.bit_i, pr.bit_j);
    let own = &x[w.off..w.off + y.len()];
    if bj < w.span {
        pair_pull::<D>(y, own, pr, c);
    } else if bi >= w.span {
        let set = w.off & pr.bits;
        if set != 0 {
            add_scaled::<D>(y, &x[w.off - set..], own, c);
        }
    } else if w.off & bj == 0 {
        // Only the `base|bᵢ` masks gain: R1-shaped on bit i.
        if D {
            r1_lift_diff(y, own, bi, c);
        } else {
            r1_push(y, own, bi, c);
        }
    } else {
        pair_pull_hi::<D>(y, &x[w.off - bj..], own, bi, c);
    }
}

/// [`r1_push`] on a single slice in the difference form:
/// `y[m|bit] += c·(x[m] − x[m|bit])` for every mask `m` with `bit` clear.
fn r1_lift_diff(y: &mut [f64], x: &[f64], bit: usize, c: f64) {
    for (yc, xc) in y.chunks_mut(2 * bit).zip(x.chunks(2 * bit)) {
        let (src, own) = xc.split_at(bit);
        for ((y, &x), &o) in yc[bit..].iter_mut().zip(src).zip(own) {
            pulled::<true>(y, x, o, c);
        }
    }
}

/// `y[m] += c·x[m & !bᵢ]` for every mask `m` of `y`: the half of a
/// [`pair_pull`] block with bit j set, `x` starting at the block's
/// bit-j-clear half and `own` at `y`'s masks.
fn pair_pull_hi<const D: bool>(y: &mut [f64], x: &[f64], own: &[f64], bi: usize, c: f64) {
    #[inline(always)]
    fn kernel<const D: bool>(y: &mut [f64], x: &[f64], own: &[f64], bi: usize, c: f64) {
        let chunks = y.chunks_mut(2 * bi).zip(own.chunks(2 * bi));
        for ((yc, oc), xc) in chunks.zip(x.chunks(2 * bi)) {
            let (y_j, y_ij) = yc.split_at_mut(bi);
            let (o_j, o_ij) = oc.split_at(bi);
            add_scaled::<D>(y_j, &xc[..bi], o_j, c);
            add_scaled::<D>(y_ij, &xc[..bi], o_ij, c);
        }
    }
    match bi {
        1 => kernel::<D>(y, x, own, 1, c),
        2 => kernel::<D>(y, x, own, 2, c),
        4 => kernel::<D>(y, x, own, 4, c),
        _ => kernel::<D>(y, x, own, bi, c),
    }
}

/// The full flag chain of [`AsyncParams`] as a matrix-free operator.
///
/// State indexing matches [`crate::paper::FlagChain`]: transient index
/// `0` is the entry state S_r, transient index `m + 1` is the
/// intermediate flag vector `m` (for `m` in `0..2ⁿ−1`), and the
/// absorbing state S_{r+1} (index 2ⁿ) is excluded from the transient
/// block. Only O(2ⁿ) memory is held — the per-state exit rates, and
/// from the first solve on the O(n) coarse level — and every operator
/// apply regenerates the transitions from the R1–R4 rules on the fly.
#[derive(Clone, Debug)]
pub struct FlagChainOp {
    n: usize,
    mu: Vec<f64>,
    total_mu: f64,
    total_lambda: f64,
    pairs: Vec<PairRate>,
    /// Σ_{i<j∈m} λᵢⱼ for every mask m: the rates of the pairs inside m.
    pairs_in: Vec<f64>,
    /// Exit rate of every transient state (the −diagonal of Q_TT).
    exit: Vec<f64>,
    /// Masks per thread range of the block-loop passes ([`range_span`]).
    span: usize,
    /// The coarse level ([`FlagChainOp::coarse`]).
    coarse: OnceLock<Arc<Coarse>>,
}

impl FlagChainOp {
    /// Memory cap: 2²⁴ transient states ≈ 134 MB per f64 vector; the
    /// solver working set is ~10 vectors.
    pub const MAX_N: usize = 24;

    /// Builds the operator for `params`.
    ///
    /// # Panics
    /// Panics if `params.n() > Self::MAX_N`.
    pub fn new(params: &AsyncParams) -> FlagChainOp {
        let n = params.n();
        assert!(
            n <= Self::MAX_N,
            "matrix-free flag chain with n = {n} exceeds the 2^{} state cap",
            Self::MAX_N
        );
        let full: u32 = (1u32 << n) - 1;
        let nt = 1usize << n;
        let mu = params.mu().to_vec();
        let total_mu = params.total_mu();
        let total_lambda = params.total_lambda();
        let n_pairs = n * (n - 1) / 2;

        let mut pairs = Vec::with_capacity(n_pairs);
        for i in 0..n {
            for j in i + 1..n {
                let rate = params.lambda(i, j);
                if rate > 0.0 {
                    pairs.push(PairRate {
                        bits: (1 << i) | (1 << j),
                        bit_i: 1 << i,
                        bit_j: 1 << j,
                        rate,
                    });
                }
            }
        }

        // Exit rates by subset DP:
        //   exit[S_r]  = Σμ + Σλ            (R4 plus every pair via R2)
        //   exit[mask] = Σ_{i∉mask} μᵢ + (Σλ − Σ_{i<j∉mask} λᵢⱼ)
        // mu_set[m] = Σ_{i∈m} μᵢ and pairs_in[m] = Σ_{i<j∈m} λᵢⱼ both
        // extend by one lowest bit at a time, reading λ from an n × n
        // row table built once.
        let rows: Vec<f64> = (0..n * n).map(|k| params.lambda(k / n, k % n)).collect();
        let mut mu_set = vec![0.0f64; nt];
        let mut pairs_in = vec![0.0f64; nt];
        for m in 1..=full {
            let low = m.trailing_zeros() as usize;
            let rest = m & (m - 1);
            mu_set[m as usize] = mu_set[rest as usize] + mu[low];
            let row = &rows[low * n..(low + 1) * n];
            let mut s = pairs_in[rest as usize];
            let mut r = rest;
            while r != 0 {
                s += row[r.trailing_zeros() as usize];
                r &= r - 1;
            }
            pairs_in[m as usize] = s;
        }
        let mut exit = vec![0.0f64; nt];
        exit[0] = total_mu + total_lambda;
        for m in 0..full {
            exit[m as usize + 1] =
                (total_mu - mu_set[m as usize]) + (total_lambda - pairs_in[(full & !m) as usize]);
        }

        FlagChainOp {
            n,
            mu,
            total_mu,
            total_lambda,
            pairs,
            pairs_in,
            exit,
            span: range_span(n),
            coarse: OnceLock::new(),
        }
    }

    /// The same operator with its passes cut into `ranges` thread ranges
    /// (a power of two ≤ 2ⁿ): the seam the serial ≡ threaded tests use.
    #[cfg(test)]
    fn with_ranges(mut self, ranges: usize) -> FlagChainOp {
        self.span = self.n_transient() / ranges;
        self
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of transient states, 2ⁿ.
    pub fn n_transient(&self) -> usize {
        1 << self.n
    }

    /// Total number of chain states, 2ⁿ + 1.
    pub fn n_states(&self) -> usize {
        (1 << self.n) + 1
    }

    /// Exit rate of transient state `t` (0 = S_r, `m + 1` = mask `m`).
    pub fn exit_rate(&self, t: usize) -> f64 {
        self.exit[t]
    }

    /// The uniformization constant Λ = max exit rate, attained at S_r,
    /// where every process and every pair is active. The distribution
    /// queries uniformize at a lower rate (module doc, **Uniformization
    /// rate**).
    pub fn uniformization_constant(&self) -> f64 {
        self.exit[0]
    }

    /// The distribution queries' uniformization rate: the largest *mask*
    /// exit rate, floored at ⅔ of S_r's so that r = `exit[0]`/Λ ≤ 1.5
    /// (module doc, **Uniformization rate**).
    fn distribution_rate(&self) -> f64 {
        let masks = self.exit[1..].iter().fold(0.0f64, |m, &e| m.max(e));
        masks.max(self.exit[0] / 1.5)
    }

    /// The all-ones mask, 2ⁿ − 1: the absorbing state S_{r+1}.
    fn full(&self) -> usize {
        (1 << self.n) - 1
    }

    /// Transient index of the mask S_r's interaction `pr` drops to (R2
    /// from the all-ones vector).
    #[inline]
    fn entry_target(&self, pr: &PairRate) -> usize {
        (self.full() & !pr.bits) + 1
    }

    /// `y = (−Q_TT)·x` over the transient block, regenerated from the
    /// R1–R4 rules — no stored matrix — in standard form, exitᵢ·xᵢ −
    /// Σⱼ qᵢⱼ·xⱼ, or with `D` in difference form, sᵢ·xᵢ + Σⱼ qᵢⱼ·(xᵢ −
    /// xⱼ), where sᵢ is the rate straight into S_{r+1}: Σμ at S_r, μᵢ at
    /// the mask one flag i short of it, 0 elsewhere (module doc,
    /// **Refinement**). Both run the same kernels over the same windows
    /// and tiles; the difference form is free of the cancellation between
    /// exitᵢ·xᵢ and Σⱼ qᵢⱼ·xⱼ.
    fn apply_neg_qtt<const D: bool>(&self, x: &[f64], y: &mut [f64]) {
        debug_assert_eq!(x.len(), self.n_transient());
        debug_assert_eq!(y.len(), self.n_transient());

        // S_r: exit rate, then R2 interactions drop to two-cleared masks
        // (R4 exits the transient block entirely).
        let mut acc = 0.0;
        for pr in &self.pairs {
            let src = x[self.entry_target(pr)];
            acc += pr.rate * if D { src - x[0] } else { src };
        }
        y[0] = if D { self.total_mu } else { self.exit[0] } * x[0] - acc;
        // Masks: exit rates, R1 checkpoints (mask → mask|bit; the
        // line-completing transition leaves the transient block), then
        // R2/R3 interactions clearing the flags of the pair's flag-1
        // members.
        let xm = &x[1..];
        let full = self.full();
        for_each_range(&mut y[1..], self.span, |y, w| {
            if D {
                y.fill(0.0);
                for (i, &mi) in self.mu.iter().enumerate() {
                    let m = full & !(1 << i);
                    if let Some(y) = m.checked_sub(w.off).and_then(|k| y.get_mut(k)) {
                        *y = mi * xm[m];
                    }
                }
            } else {
                let diag = self.exit[1 + w.off..].iter().zip(&xm[w.off..]);
                for (y, (&e, &x)) in y.iter_mut().zip(diag) {
                    *y = e * x;
                }
            }
            for (i, &mi) in self.mu.iter().enumerate() {
                r1_pull_at::<D>(y, xm, w, 1 << i, -mi);
            }
            for_each_pair_tiled(&self.pairs, y, xm, w, |y, x, w, pr| {
                pair_pull_at::<D>(y, x, w, pr, -pr.rate)
            });
        });
    }

    /// `y = (−Q_TT)ᵀ·x` over the transient block.
    fn apply_neg_qtt_transpose(&self, x: &[f64], y: &mut [f64]) {
        debug_assert_eq!(x.len(), self.n_transient());
        debug_assert_eq!(y.len(), self.n_transient());

        for ((y, &e), &x) in y.iter_mut().zip(&self.exit).zip(x) {
            *y = e * x;
        }
        for pr in &self.pairs {
            y[self.entry_target(pr)] -= pr.rate * x[0];
        }
        let (ym, xm) = (&mut y[1..], &x[1..]);
        for (i, &mi) in self.mu.iter().enumerate() {
            r1_push(ym, xm, 1 << i, -mi);
        }
        pair_push_all(&self.pairs, ym, xm, |pr| -pr.rate);
    }

    /// One uniformized jump-chain propagation `out = π·P` with
    /// `P = I + Q/Λ`, over **all** 2ⁿ+1 states (absorbing last),
    /// overwriting `out`. This is the matrix-free counterpart of
    /// [`crate::Ctmc::uniformized`] + [`crate::sparse::Csr::vec_mul`],
    /// used by the sequence behind every distribution query.
    /// Λ may lie below S_r's exit rate (module doc, **Uniformization
    /// rate**), but never below a mask's.
    fn jump_propagate(&self, pi: &[f64], lambda: f64, out: &mut [f64]) {
        let full = self.full();
        let nt = self.n_transient();
        debug_assert_eq!(pi.len(), nt + 1);
        debug_assert_eq!(out.len(), nt + 1);
        let inv = 1.0 / lambda;

        // Diagonal stay-probabilities (clamped against rounding), then
        // S_r's negative stay factor unclamped when it exits faster
        // than Λ.
        for ((out, &e), &p) in out.iter_mut().zip(&self.exit).zip(pi) {
            *out = (1.0 - e * inv).max(0.0) * p;
        }
        if self.exit[0] > lambda {
            out[0] = (1.0 - self.exit[0] * inv) * pi[0];
        }
        out[nt] = pi[nt]; // absorbing self-loop

        // S_r departures: R4 absorbs, R2 drops two flags.
        let p0 = pi[0];
        out[nt] += p0 * self.total_mu * inv;
        for pr in &self.pairs {
            out[self.entry_target(pr)] += p0 * pr.rate * inv;
        }
        // Over all 2ⁿ+1 states the mask slice ends with the all-ones
        // mask, i.e. S_{r+1} itself, so line-completing R1 checkpoints
        // land there with no special case. Absorbed mass must not
        // interact, so R2/R3 run over the transient masks only.
        let (om, pm) = (&mut out[1..], &pi[1..]);
        for (i, &mi) in self.mu.iter().enumerate() {
            r1_push(om, pm, 1 << i, mi * inv);
        }
        pair_push_all(&self.pairs, &mut om[..full], &pm[..full], |pr| {
            pr.rate * inv
        });
    }

    /// Solves `(−Q_TT)·x = b` (or the transposed system) by two-level
    /// preconditioned BiCGSTAB and returns the solution together with
    /// the convergence report — the building block behind the
    /// absorption accessors, exposed for benches and scaling gates.
    pub fn solve(&self, b: &[f64], transpose: bool) -> (Vec<f64>, KrylovOutcome) {
        let mut x = vec![0.0; self.n_transient()];
        let a = NegQtt(self, transpose);
        let pre = TwoLevel {
            op: self,
            transpose,
        };
        let outcome = bicgstab(&a, &pre, b, &mut x, self.default_tol(), KRYLOV_MAX_ITER);
        (x, outcome)
    }

    /// The coarse level of [`TwoLevel`], built on the operator's first
    /// solve and shared by every later one, at the averaged rates
    /// μ̄ = Σμ/n and λ̄ = Σλ/C(n, 2). λ̄ sums the pairs in the order of
    /// [`AsyncParams::total_lambda`]; the idle pairs it skips add +0.
    fn coarse(&self) -> &Coarse {
        self.coarse.get_or_init(|| {
            let (n, pairs) = (self.n, (self.n * (self.n - 1) / 2) as f64);
            let lambda = self.pairs.iter().fold(0.0, |s, pr| s + pr.rate) / pairs;
            // Coarse transient states: S_r (0) and S̃_0 … S̃_{n−1} (1..=n).
            let block = SymmetricChain::build(n, self.total_mu / n as f64, lambda)
                .ctmc
                .transient_block(SymmetricChain::START);
            // Sizes 1 for S_r, then C(n, u) = C(n, u − 1)·(n − u + 1)/u,
            // exact in f64 for n ≤ 24.
            let mut sizes = vec![1.0, 1.0];
            for u in 1..n {
                sizes.push(sizes[u] * (n - u + 1) as f64 / u as f64);
            }
            Arc::new(Coarse { block, sizes })
        })
    }

    /// Default relative-residual target, loosened with the state count:
    /// each operator apply injects O(ε) rounding noise per transition
    /// row, so chasing 1e-13 at 2²⁰ states buys dozens of Krylov
    /// iterations that only polish noise. The bound stays ≥ 3 decades
    /// below every conformance tolerance that consumes these solves.
    fn default_tol(&self) -> f64 {
        KRYLOV_TOL * (self.n_transient() as f64).sqrt().max(1.0)
    }

    /// [`FlagChainOp::solve`] with the convergence contract enforced: the
    /// answer is accepted when its relative residual is at most
    /// [`KRYLOV_ACCEPT`], or when its verified error estimate
    /// ([`KrylovOutcome::error_estimate`]) is.
    ///
    /// # Panics
    /// Panics if neither holds.
    fn solve_transient(&self, b: &[f64], transpose: bool) -> Vec<f64> {
        let (x, outcome) = self.solve(b, transpose);
        assert!(
            outcome.relative_residual <= KRYLOV_ACCEPT
                || outcome.error_estimate.is_some_and(|e| e <= KRYLOV_ACCEPT),
            "matrix-free BiCGSTAB failed to converge on the n = {} flag chain \
             (transpose = {transpose}): {outcome:?}",
            self.n
        );
        x
    }

    /// Expected absorption time from every transient state: the
    /// solution of `(−Q_TT)·τ = 1`.
    fn absorption_times(&self) -> Vec<f64> {
        self.solve_transient(&vec![1.0; self.n_transient()], false)
    }

    /// Mean inter-recovery-line interval E\[X\] = τ(S_r).
    pub fn mean_absorption_time(&self) -> f64 {
        self.absorption_times()[0]
    }

    /// First two absorption-time moments (E\[X\], E\[X²\]) from S_r in
    /// **two** solves: τ once, then `(−Q_TT)·m₂ = 2τ` — callers needing
    /// both (variance, CV²) should use this rather than paying a third
    /// solve for the mean.
    pub fn absorption_time_moments(&self) -> (f64, f64) {
        let tau = self.absorption_times();
        let rhs: Vec<f64> = tau.iter().map(|&t| 2.0 * t).collect();
        let m2 = self.solve_transient(&rhs, false)[0];
        (tau[0], m2)
    }

    /// Second moment E\[X²\] from S_r: `(−Q_TT)·m₂ = 2τ`.
    pub fn absorption_time_second_moment(&self) -> f64 {
        self.absorption_time_moments().1
    }

    /// Expected time spent in each transient state before absorption,
    /// starting from S_r: the solution of `(−Q_TT)ᵀ·v = e_{S_r}`. The
    /// entries sum to the mean absorption time.
    pub fn expected_visits(&self) -> Vec<f64> {
        let mut e0 = vec![0.0; self.n_transient()];
        e0[0] = 1.0;
        self.solve_transient(&e0, true)
    }

    /// The absorption-time distribution from S_r as a lazily extended
    /// matrix-free uniformization at [`FlagChainOp::distribution_rate`],
    /// with S_r's signed mass (module doc, **Uniformization rate**): the
    /// sequence behind every distribution query of
    /// [`crate::paper::AsyncParams`]. Each jump step records the absorbed
    /// mass (for F), the transient mass summed over the transient states
    /// (for S, which keeps its relative precision deep in the tail, where
    /// 1 − F has no digits left) and the probability flux into S_{r+1}
    /// (for f). The propagation stops early once the absorbed mass
    /// converges or the transient mass decays geometrically (module doc,
    /// **Geometric tail**), so its length is bounded by the chain's mixing
    /// time: one O(n²·2ⁿ) pass per step, then O(√(Λ·tᵢ)) scalars per query
    /// point.
    pub(crate) fn absorption_seq(&self) -> AbsorptionSeq<'_> {
        let lambda = self.distribution_rate();
        let nt = self.n_transient();
        let mut v = vec![0.0; nt + 1];
        v[0] = 1.0;
        let mut next = vec![0.0; nt + 1];
        let step = move || {
            let inflow = self.absorption_flux(&v) / lambda;
            self.jump_propagate(&v, lambda, &mut next);
            std::mem::swap(&mut v, &mut next);
            (v[nt], interleaved_sum(&v[..nt]), inflow)
        };
        let entry_decay = (1.0 - self.exit[0] / lambda).abs();
        AbsorptionSeq::new(lambda, 0.0, 1.0, Box::new(step)).with_signed_entry(entry_decay)
    }

    /// The probability flux into S_{r+1} under the distribution `pi` over
    /// all 2ⁿ + 1 states (S_{r+1}'s own mass does not enter it).
    fn absorption_flux(&self, pi: &[f64]) -> f64 {
        let full = self.full();
        let mut f = pi[0] * self.total_mu;
        for (i, &mi) in self.mu.iter().enumerate() {
            f += pi[(full & !(1 << i)) + 1] * mi;
        }
        f
    }
}

/// Σ `xs` in four interleaved partial sums, which the compiler keeps in
/// independent registers: about 4× faster than a sequential sum over the
/// 2ⁿ transient masses of a jump step.
fn interleaved_sum(xs: &[f64]) -> f64 {
    let mut acc = [0.0; 4];
    let chunks = xs.chunks_exact(4);
    let rest: f64 = chunks.remainder().iter().sum();
    for c in chunks {
        for (a, x) in acc.iter_mut().zip(c) {
            *a += x;
        }
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + rest
}

/// `(−Q_TT)`, or `(−Q_TT)ᵀ` when the flag is set, of a [`FlagChainOp`]
/// as a [`LinOp`]. Products are in standard form; the forward residual
/// `b − (−Q_TT)·x` takes the difference form (module doc,
/// **Refinement**).
struct NegQtt<'a>(&'a FlagChainOp, bool);

impl LinOp for NegQtt<'_> {
    fn dim(&self) -> usize {
        self.0.n_transient()
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        if self.1 {
            self.0.apply_neg_qtt_transpose(x, y);
        } else {
            self.0.apply_neg_qtt::<false>(x, y);
        }
    }
    fn residual(&self, b: &[f64], x: &[f64], r: &mut [f64]) {
        if self.1 {
            self.apply(x, r);
        } else {
            self.0.apply_neg_qtt::<true>(x, r);
        }
        for (r, &b) in r.iter_mut().zip(b) {
            *r = b - *r;
        }
    }
}

/// Two-level preconditioner, a V(0,1) cycle: a coarse-grid correction
/// over the popcount aggregates (S_r, then masks grouped by number of set
/// flags), then one Gauss–Seidel sweep — iterative
/// aggregation–disaggregation (Koury–McAllister–Stewart) with the
/// aggregation the lumped chain of Figure 3 makes exact for homogeneous
/// rates.
///
/// The coarse operator is the lumped chain's `−Q̃_TT` built from the
/// *averaged* rates μ̄, λ̄: an (n+1)×(n+1) [`TransientBlock`], which the
/// generic rule factorises by GTH, so the correction keeps its digits in
/// the domino regime, where LU declares the lumped block singular. It is
/// built once per operator ([`FlagChainOp::coarse`]) and shared by every
/// solve in either orientation. The Galerkin-consistent coarse solve uses
/// aggregate means against the forward operator and size-weighted sums
/// against the transpose.
///
/// The sweep is what carries heterogeneous rates. R1 moves to a higher
/// mask and R2/R3 to a lower one, so a sweep in reverse mask order sees
/// every R1 neighbour already updated and every R2/R3 neighbour at its
/// old value; the transposed system sweeps in forward mask order for the
/// same reason. The old values are the coarse correction P·e, constant on
/// every popcount class, so the sweep's pass over them is a closed form
/// in O(2ⁿ) ([`TwoLevel::couple`]) and the sweep costs one R1
/// back-substitution: no operator apply and no R2/R3 pass. On homogeneous
/// rates P·e already solves the mean's system, so the sweep keeps it and
/// BiCGSTAB converges in one iteration.
struct TwoLevel<'a> {
    op: &'a FlagChainOp,
    transpose: bool,
}

/// Bits of mask spanned by one [`TwoLevel::r1_block`].
const R1_BLOCK_BITS: usize = 4;

/// The coarse level of a [`FlagChainOp`]'s [`TwoLevel`] preconditioner.
struct Coarse {
    /// The coarse `−Q̃_TT`; the transposed fine system solves with its
    /// transpose.
    block: TransientBlock,
    /// Aggregate sizes: 1 for S_r, C(n, u) for popcount class u.
    sizes: Vec<f64>,
}

impl std::fmt::Debug for Coarse {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Coarse")
            .field("sizes", &self.sizes)
            .finish_non_exhaustive()
    }
}

impl TwoLevel<'_> {
    /// The coarse correction for the residual `r`, one value per
    /// aggregate (index 0 for S_r, 1 + u for popcount class u).
    fn coarse_correction(&self, r: &[f64]) -> Vec<f64> {
        let coarse = self.op.coarse();
        let mut rc = vec![0.0; coarse.sizes.len()];
        for (t, &v) in r.iter().enumerate() {
            rc[Self::agg(t)] += v;
        }
        if self.transpose {
            // (R AᵀP)·e = R·r with R AᵀP = (Q̃ᵀ scaled): solve
            // A_cᵀ·w = Σ_agg r, then e = w ./ sizes.
            let mut w = coarse.block.solve_transpose(&rc);
            for (w, &s) in w.iter_mut().zip(&coarse.sizes) {
                *w /= s;
            }
            w
        } else {
            // (R A P)·e = R·r with R A P = S·A_c: solve A_c·e = mean_agg r.
            for (rc, &s) in rc.iter_mut().zip(&coarse.sizes) {
                *rc /= s;
            }
            coarse.block.solve(&rc)
        }
    }

    /// Adds to each mask's `c` what its R2/R3 neighbours at their old
    /// values P·`e` couple into the sweep — the pass over old values in
    /// closed form. With u = popcount(m), every pair with one member in
    /// m drops it to class u − 1 (aggregate u) and every pair inside m to
    /// class u − 2 (aggregate u − 1); transposed, every pair outside b
    /// reaches it from class u + 1 twice (`b|bᵢ`, `b|bⱼ`) and from class
    /// u + 2 once, absent where `b|bᵢ|bⱼ` is the all-ones mask.
    /// `pairs_in` gives every sum of rates.
    fn couple(&self, e: &[f64], c: &mut [f64]) {
        let op = self.op;
        let full = op.full();
        if self.transpose {
            let at = |k: usize| e.get(k).copied().unwrap_or(0.0);
            for (b, c) in c.iter_mut().enumerate() {
                let u = b.count_ones() as usize;
                *c += op.pairs_in[full & !b] * (2.0 * at(u + 2) + at(u + 3));
            }
        } else {
            for (m, c) in c.iter_mut().enumerate() {
                let u = m.count_ones() as usize;
                let inside = op.pairs_in[m];
                let one = op.total_lambda - inside - op.pairs_in[full & !m];
                // `inside` is 0 below two flags.
                *c = *c + one * e[u] + inside * e[u.saturating_sub(1)];
            }
        }
    }

    /// One Gauss–Seidel sweep on the (possibly transposed) fine system
    /// `A·z = r` from z = P·`e`, writing every entry of `z`.
    fn sweep(&self, r: &[f64], e: &[f64], z: &mut [f64]) {
        let op = self.op;
        let mut c = r.to_vec();
        self.couple(e, &mut c[1..]);
        if self.transpose {
            // Forward order on (−Q_TT)ᵀ: S_r first (nothing enters it),
            // then masks ascending, every R1 source (a lower mask)
            // already updated.
            z[0] = r[0] / op.exit[0];
            for pr in &op.pairs {
                c[op.entry_target(pr)] += pr.rate * z[0];
            }
            self.r1_substitute(&mut c[1..], &mut z[1..], 0, op.n, true);
        } else {
            // Reverse mask order on −Q_TT: masks descending, every R1
            // neighbour (a higher mask) already updated, and S_r, whose
            // neighbours are all masks, last.
            self.r1_substitute(&mut c[1..], &mut z[1..], 0, op.n, false);
            let mut acc = r[0];
            for pr in &op.pairs {
                acc += pr.rate * z[op.entry_target(pr)];
            }
            z[0] = acc / op.exit[0];
        }
    }

    /// Solves the R1 part of a sweep, `exit[m]·z[m] − Σ μᵢ·z[m′] = c[m]`
    /// (m′ = m with bit i set, or with bit i cleared when `transposed`),
    /// over the masks `lo..lo + 2ᵏ` of the mask-indexed slices, whose
    /// couplings through bits ≥ k are already folded into `c`. Splitting
    /// on bit k−1, the half every R1 neighbour lies in is solved first
    /// and then folded into the other half as one slice update — a
    /// Gauss–Seidel substitution in mask order, vectorised per bit. Full
    /// blocks of 2⁴ masks go to [`Self::r1_block`]; the absent all-ones
    /// mask (past the slice end) is skipped.
    fn r1_substitute(&self, c: &mut [f64], z: &mut [f64], lo: usize, k: usize, transposed: bool) {
        let len = z.len();
        if lo >= len {
            return;
        }
        if k == R1_BLOCK_BITS && lo + (1 << k) <= len {
            self.r1_block(c, z, lo, transposed);
            return;
        }
        if k == 0 {
            z[lo] = c[lo] / self.op.exit[lo + 1];
            return;
        }
        let half = 1 << (k - 1);
        let (first, second) = if transposed {
            (lo, lo + half)
        } else {
            (lo + half, lo)
        };
        self.r1_substitute(c, z, first, k - 1, transposed);
        let run = half.min(len.saturating_sub(lo + half));
        let mu = self.op.mu[k - 1];
        for (c, &z) in c[second..second + run]
            .iter_mut()
            .zip(&z[first..first + run])
        {
            *c += mu * z;
        }
        self.r1_substitute(c, z, second, k - 1, transposed);
    }

    /// [`Self::r1_substitute`] on the aligned, complete block of 2⁴ masks
    /// at `lo` without recursing: for each mask in substitution order
    /// (descending, or ascending when `transposed`), `c[m]` plus the
    /// couplings through its bits below 4, highest bit first, divided by
    /// the exit rate — the recursion's operations in the recursion's
    /// order, so every bit of `z` is the same.
    fn r1_block(&self, c: &[f64], z: &mut [f64], lo: usize, transposed: bool) {
        const B: usize = 1 << R1_BLOCK_BITS;
        let c: &[f64; B] = c[lo..lo + B].try_into().expect("a complete block");
        let z: &mut [f64; B] = (&mut z[lo..lo + B]).try_into().expect("a complete block");
        let exit: &[f64; B] = self.op.exit[lo + 1..lo + 1 + B]
            .try_into()
            .expect("one exit rate per mask");
        let mu: &[f64; R1_BLOCK_BITS] = self.op.mu[..R1_BLOCK_BITS]
            .try_into()
            .expect("a block's bits are rates of the chain");
        if transposed {
            for m in 0..B {
                let mut acc = c[m];
                for b in (0..R1_BLOCK_BITS).rev() {
                    if m & (1 << b) != 0 {
                        acc += mu[b] * z[m ^ (1 << b)];
                    }
                }
                z[m] = acc / exit[m];
            }
        } else {
            for m in (0..B).rev() {
                let mut acc = c[m];
                for b in (0..R1_BLOCK_BITS).rev() {
                    if m & (1 << b) == 0 {
                        acc += mu[b] * z[m | (1 << b)];
                    }
                }
                z[m] = acc / exit[m];
            }
        }
    }

    /// Aggregate id of transient state `t`: 0 for S_r, 1 + popcount for
    /// an intermediate mask.
    #[inline]
    fn agg(t: usize) -> usize {
        if t == 0 {
            0
        } else {
            1 + (t - 1).count_ones() as usize
        }
    }
}

impl Precond for TwoLevel<'_> {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        let e = self.coarse_correction(r);
        self.sweep(r, &e, z);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctmc::Column;
    use crate::linalg::Matrix;
    use crate::paper::FlagChain;
    use crate::solver::Jacobi;

    /// Deterministic mildly-skewed parameters for n processes.
    fn skewed_params(n: usize) -> AsyncParams {
        let mu: Vec<f64> = (0..n).map(|i| 0.6 + 0.25 * (i % 3) as f64).collect();
        let lambda: Vec<f64> = (0..n * (n - 1) / 2)
            .map(|k| 0.15 + 0.1 * (k % 4) as f64)
            .collect();
        AsyncParams::new(mu, lambda).unwrap()
    }

    /// Dense −Q_TT of the materialised chain, for reference.
    fn dense_neg_qtt(chain: &FlagChain) -> Matrix {
        let nt = chain.n_states() - 1; // transient block excludes S_{r+1}
        let mut a = Matrix::zeros(nt, nt);
        for r in 0..nt {
            for (c, v) in chain.ctmc.generator().row(r) {
                if c < nt {
                    a[(r, c)] = -v;
                }
            }
        }
        a
    }

    /// [`skewed_params`] with the middle pair's rate set to zero, so the
    /// operator's pair list has a gap the materialised chain skips too.
    fn skewed_params_with_idle_pair(n: usize) -> AsyncParams {
        let base = skewed_params(n);
        let mut lambda: Vec<f64> = (0..n)
            .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
            .map(|(i, j)| base.lambda(i, j))
            .collect();
        let mid = lambda.len() / 2;
        lambda[mid] = 0.0;
        AsyncParams::new(base.mu().to_vec(), lambda).unwrap()
    }

    /// One dense Gauss–Seidel sweep on `a·z = r`, rows in `order`.
    fn dense_sweep(a: &Matrix, r: &[f64], z: &mut [f64], order: impl Iterator<Item = usize>) {
        for k in order {
            let mut acc = r[k];
            for (j, &zj) in z.iter().enumerate() {
                if j != k {
                    acc -= a[(k, j)] * zj;
                }
            }
            z[k] = acc / a[(k, k)];
        }
    }

    fn assert_close(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (s, (g, w)) in got.iter().zip(want).enumerate() {
            assert!((g - w).abs() < 1e-12, "{what}, state {s}: {g} vs {w}");
        }
    }

    #[test]
    fn apply_matches_materialised_chain() {
        // Every block-loop kernel against the dense materialised chain:
        // forward and transposed applies, one uniformized jump step, and
        // one smoother sweep in each orientation.
        for n in [2usize, 3, 5, 7] {
            let params = skewed_params_with_idle_pair(n);
            let chain = params.build_full_chain();
            let op = FlagChainOp::new(&params);
            let a = dense_neg_qtt(&chain);
            let at = a.transpose();
            let nt = op.n_transient();
            let x: Vec<f64> = (0..nt).map(|k| ((k * 37 + 11) % 17) as f64 - 8.0).collect();

            let mut got = vec![0.0; nt];
            NegQtt(&op, false).apply(&x, &mut got);
            assert_close(&got, &a.mul_vec(&x), &format!("n={n} apply"));
            let b: Vec<f64> = (0..nt).map(|k| (k % 3) as f64).collect();
            NegQtt(&op, false).residual(&b, &x, &mut got);
            let want: Vec<f64> = b.iter().zip(a.mul_vec(&x)).map(|(b, y)| b - y).collect();
            assert_close(&got, &want, &format!("n={n} difference-form residual"));
            NegQtt(&op, true).apply(&x, &mut got);
            assert_close(&got, &at.mul_vec(&x), &format!("n={n} transpose"));

            // π·P with P = I + Q/Λ over all 2ⁿ+1 states.
            let lambda = op.uniformization_constant();
            let pi: Vec<f64> = (0..=nt)
                .map(|k| ((k * 13 + 5) % 11) as f64 / 11.0)
                .collect();
            let mut want = pi.clone();
            for (r, &p) in pi.iter().enumerate() {
                for (c, q) in chain.ctmc.generator().row(r) {
                    want[c] += p * q / lambda;
                }
            }
            let mut got = vec![0.0; nt + 1];
            op.jump_propagate(&pi, lambda, &mut got);
            assert_close(&got, &want, &format!("n={n} jump"));

            // Sweeps from a coarse correction P·e exercise both the
            // closed-form pass on old values and the R1 substitution.
            let r: Vec<f64> = (0..nt).map(|k| ((k * 7 + 3) % 5) as f64 - 1.0).collect();
            let e: Vec<f64> = (0..=n).map(|k| ((k * 5 + 2) % 7) as f64 - 3.0).collect();
            let orders: [(bool, &Matrix, Vec<usize>); 2] = [
                (false, &a, (1..nt).rev().chain([0]).collect()),
                (true, &at, (0..nt).collect()),
            ];
            for (transpose, dense, order) in orders {
                let mut got = vec![f64::NAN; nt];
                TwoLevel { op: &op, transpose }.sweep(&r, &e, &mut got);
                let mut want = prolong(&e, nt);
                dense_sweep(dense, &r, &mut want, order.into_iter());
                assert_close(&got, &want, &format!("n={n} sweep ({transpose})"));
            }
        }
        for n in [5usize, 7] {
            assert_ranges_bit_identical(&FlagChainOp::new(&skewed_params_with_idle_pair(n)));
        }
    }

    /// P·`e`: every transient state takes its aggregate's value.
    fn prolong(e: &[f64], nt: usize) -> Vec<f64> {
        (0..nt).map(|t| e[TwoLevel::agg(t)]).collect()
    }

    /// Every pass the thread ranges split, on fixed operands with no
    /// short binary expansions (so a reordered sum shows in the bits):
    /// the forward apply and the difference-form residual. The push side
    /// (transposed apply, jump step) and the smoother run on one thread.
    fn split_passes(op: &FlagChainOp) -> [(&'static str, Vec<f64>); 2] {
        let nt = op.n_transient();
        let operand = |salt: f64| -> Vec<f64> {
            (0..nt)
                .map(|k| (k as f64 * 0.618_033_988_7 + salt).fract() - 0.3)
                .collect()
        };
        let (x, r) = (operand(0.1), operand(0.7));
        let mut apply = vec![0.0; nt];
        NegQtt(op, false).apply(&x, &mut apply);
        let mut residual = vec![0.0; nt];
        NegQtt(op, false).residual(&r, &x, &mut residual);
        [("apply", apply), ("residual", residual)]
    }

    /// 2 and 4 thread ranges reproduce the single-range passes bit for
    /// bit.
    fn assert_ranges_bit_identical(op: &FlagChainOp) {
        let serial = split_passes(&op.clone().with_ranges(1));
        for ranges in [2, 4] {
            let split = split_passes(&op.clone().with_ranges(ranges));
            for ((pass, want), (_, got)) in serial.iter().zip(&split) {
                for (m, (g, w)) in got.iter().zip(want).enumerate() {
                    assert_eq!(
                        g.to_bits(),
                        w.to_bits(),
                        "n={} {pass}, {ranges} ranges, state {m}: {g} vs {w}",
                        op.n()
                    );
                }
            }
        }
    }

    #[test]
    fn difference_form_has_no_cancellation() {
        // On a constant vector every difference xᵢ − xⱼ vanishes, so the
        // difference form leaves sᵢ·c, the absorption rate times c,
        // exactly: Σμ at S_r, μᵢ at the mask one flag i short of S_{r+1},
        // and 0 at every other mask. The standard form subtracts two sums
        // of size exitᵢ·c there and keeps only their rounding.
        for n in [3usize, 6, 13] {
            let op = FlagChainOp::new(&skewed_params_with_idle_pair(n));
            let c = 1.0e12 / 3.0;
            let x = vec![c; op.n_transient()];
            let mut r = vec![0.0; op.n_transient()];
            NegQtt(&op, false).residual(&vec![0.0; op.n_transient()], &x, &mut r);
            let mut want = vec![0.0; op.n_transient()];
            want[0] = -(op.total_mu * c);
            for (i, &mi) in op.mu.iter().enumerate() {
                want[(op.full() & !(1 << i)) + 1] = -(mi * c);
            }
            for (t, (g, w)) in r.iter().zip(&want).enumerate() {
                assert_eq!(g.to_bits(), w.to_bits(), "n={n}, state {t}: {g} vs {w}");
            }
        }
    }

    #[test]
    fn tiled_pair_passes_match_untiled() {
        // n = 12 spans two tiles, the last one stopping short of the
        // all-ones mask like every transient slice; the dense checks
        // above fit in a single tile.
        let op = FlagChainOp::new(&skewed_params_with_idle_pair(12));
        let len = op.full();
        assert!(len > TILE);
        let x: Vec<f64> = (0..len)
            .map(|k| ((k * 37 + 11) % 17) as f64 - 8.0)
            .collect();
        let whole_slice = Window {
            off: 0,
            span: op.n_transient(),
        };
        for pass in ["push", "pull", "difference pull"] {
            let kernel = |y: &mut [f64], x: &[f64], w: Window, pr: &PairRate| match pass {
                "push" => pair_push(y, &x[w.off..w.off + y.len()], pr, pr.rate),
                "pull" => pair_pull_at::<false>(y, x, w, pr, pr.rate),
                _ => pair_pull_at::<true>(y, x, w, pr, pr.rate),
            };
            let mut tiled = vec![0.0; len];
            for_each_pair_tiled(&op.pairs, &mut tiled, &x, whole_slice, kernel);
            let mut whole = vec![0.0; len];
            for pr in &op.pairs {
                kernel(&mut whole, &x, whole_slice, pr);
            }
            for (m, (t, w)) in tiled.iter().zip(&whole).enumerate() {
                assert!(
                    (t - w).abs() < 1e-12 * w.abs().max(1.0),
                    "{pass}, mask {m}: {t} vs {w}"
                );
            }
        }
        // Four ranges of 2¹⁰ masks: the tiled pairs on bit 10 cross them.
        assert_ranges_bit_identical(&op);
    }

    #[test]
    fn small_bit_kernels_match_block_kernels() {
        // The compile-time-bit kernels against the run-length ones, by
        // bits: every pair with bⱼ ≤ 64 and every R1 bit ≤ 64, on slices
        // that stop one short of the all-ones mask (transient masks), on
        // whole 2ⁿ slices (R1 over all states) and on 2¹¹-mask tiles.
        let operand = |len: usize, salt: f64| -> Vec<f64> {
            (0..len)
                .map(|k| (k as f64 * 0.618_033_988_7 + salt).fract() - 0.3)
                .collect()
        };
        let assert_bits = |got: &[f64], want: &[f64], what: &str| {
            for (m, (g, w)) in got.iter().zip(want).enumerate() {
                assert_eq!(g.to_bits(), w.to_bits(), "{what}, mask {m}: {g} vs {w}");
            }
        };
        let c = -0.734_562_111;
        for n in 7..=12 {
            let lens = [(1 << n) - 1, 1 << n, TILE];
            for len in lens {
                let (x, y0) = (operand(len, 0.1), operand(len, 0.7));
                for i in 0..7 {
                    let bit = 1 << i;
                    let (mut got, mut want) = (y0.clone(), y0.clone());
                    r1_push(&mut got, &x, bit, c);
                    r1_push_runs(&mut want, &x, bit, c);
                    assert_bits(&got, &want, &format!("n={n} len={len} R1 bit {bit}"));
                    for j in i + 1..7 {
                        let pr = PairRate {
                            bits: bit | 1 << j,
                            bit_i: bit,
                            bit_j: 1 << j,
                            rate: 1.0,
                        };
                        let (mut got, mut want) = (y0.clone(), y0.clone());
                        pair_push(&mut got, &x, &pr, c);
                        pair_push_blocks(&mut want, &x, &pr, c);
                        assert_bits(&got, &want, &format!("n={n} len={len} pair ({i}, {j})"));
                    }
                }
            }
        }
    }

    #[test]
    fn small_bit_pull_kernels_match_block_kernels() {
        // The pull twin of `small_bit_kernels_match_block_kernels`: the
        // compile-time-bit pull kernels against the block loop, bit for
        // bit, in the standard and the difference form, for every pair
        // with bⱼ ≤ 64 and every R1 bit ≤ 64, on slices that stop one
        // short of the all-ones mask, on whole 2ⁿ slices and on tiles.
        fn check<const D: bool>(len: usize, x: &[f64], y0: &[f64], what: &str) {
            let c = -0.734_562_111;
            let assert_bits = |got: &[f64], want: &[f64], what: &str| {
                for (m, (g, w)) in got.iter().zip(want).enumerate() {
                    assert_eq!(g.to_bits(), w.to_bits(), "{what}, mask {m}: {g} vs {w}");
                }
            };
            for i in 0..7 {
                let bit = 1 << i;
                let (mut got, mut want) = (y0.to_vec(), y0.to_vec());
                r1_pull::<D>(&mut got, x, bit, c);
                r1_pull_runs::<D>(&mut want, x, bit, c);
                assert_bits(&got, &want, &format!("{what} len={len} R1 bit {bit}"));
                for j in i + 1..7 {
                    let pr = PairRate {
                        bits: bit | 1 << j,
                        bit_i: bit,
                        bit_j: 1 << j,
                        rate: 1.0,
                    };
                    let (mut got, mut want) = (y0.to_vec(), y0.to_vec());
                    pair_pull::<D>(&mut got, x, &pr, c);
                    pair_pull_blocks::<D>(&mut want, x, &pr, c);
                    assert_bits(&got, &want, &format!("{what} len={len} pair ({i}, {j})"));
                }
            }
        }
        let operand = |len: usize, salt: f64| -> Vec<f64> {
            (0..len)
                .map(|k| (k as f64 * 0.618_033_988_7 + salt).fract() - 0.3)
                .collect()
        };
        for n in 7..=12 {
            for len in [(1 << n) - 1, 1 << n, TILE] {
                let (x, y0) = (operand(len, 0.1), operand(len, 0.7));
                check::<false>(len, &x, &y0, &format!("n={n} standard"));
                check::<true>(len, &x, &y0, &format!("n={n} difference"));
            }
        }
    }

    #[test]
    fn closed_form_coupling_matches_the_pair_pass() {
        // The sweep's pass over old values P·e in closed form against the
        // R2/R3 pass it replaces, run on P·e: `pair_pull_at` forward,
        // `pair_push_all` transposed, with the sweep's coefficient +λ.
        for n in 3..=10 {
            let op = FlagChainOp::new(&skewed_params_with_idle_pair(n));
            let nt = op.n_transient();
            let e: Vec<f64> = (0..=n)
                .map(|k| (k as f64 * 0.618_033_988_7 + 0.2).fract() + 0.5 * k as f64)
                .collect();
            let z = prolong(&e, nt);
            let whole = Window { off: 0, span: nt };
            for transpose in [false, true] {
                let mut want = vec![0.0; nt - 1];
                if transpose {
                    pair_push_all(&op.pairs, &mut want, &z[1..], |pr| pr.rate);
                } else {
                    for pr in &op.pairs {
                        pair_pull_at::<false>(&mut want, &z[1..], whole, pr, pr.rate);
                    }
                }
                let mut got = vec![0.0; nt - 1];
                TwoLevel { op: &op, transpose }.couple(&e, &mut got);
                let scale = want.iter().fold(0.0f64, |s, w| s.max(w.abs()));
                for (m, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert!(
                        (g - w).abs() <= 1e-14 * scale,
                        "n={n} transpose={transpose}, mask {m}: {g} vs {w}"
                    );
                }
            }
        }
    }

    #[test]
    fn distribution_rate_leaves_only_s_r_unclamped() {
        // Λ covers every mask's exit rate, so only S_r can have a
        // negative stay factor, and r = exit[0]/Λ stays ≤ 1.5.
        let models = [
            AsyncParams::symmetric(6, 1.0, 0.2),
            AsyncParams::symmetric(5, 1.0, 4.0),
            skewed_params(6),
            skewed_params_with_idle_pair(5),
            AsyncParams::new(vec![1.0, 2.0, 3.0], vec![0.0; 3]).unwrap(),
        ];
        for params in &models {
            let op = FlagChainOp::new(params);
            let lambda = op.distribution_rate();
            let r = op.exit_rate(0) / lambda;
            assert!(r <= 1.5 * (1.0 + f64::EPSILON), "{params:?}: r = {r}");
            assert!(r >= 1.0, "{params:?}: Λ above S_r's exit rate");
            for t in 1..op.n_transient() {
                assert!(op.exit_rate(t) <= lambda, "{params:?}: state {t} unclamped");
            }
        }
        // The symmetric family hits the floor: Λ = n = ⅔·exit[0].
        let op = FlagChainOp::new(&AsyncParams::symmetric(6, 1.0, 0.2));
        assert!((op.distribution_rate() - 6.0).abs() < 1e-12);
        assert!(op.exit_rate(0) > op.distribution_rate());
    }

    #[test]
    fn signed_cdf_does_not_stop_after_the_first_step() {
        // Symmetric rates: Σμ/Λ = 1, so the absorbed mass reads exactly
        // 1.0 after one step while S_r still holds (1 − r) = −½ of the
        // mass. The early stop must wait for that mass, and the batch
        // must still match the dense chain.
        let params = AsyncParams::symmetric(6, 1.0, 0.2);
        let op = FlagChainOp::new(&params);
        let mut seq = op.absorption_seq();
        let ts = [0.05, 0.5, 2.0, 6.0];
        let got: Vec<f64> = ts.iter().map(|&t| seq.eval(Column::Absorbed, t)).collect();
        // |1 − r|ᵏ = 2⁻ᵏ ≤ 1e-12 needs k ≥ 40.
        assert!(seq.steps() >= 40, "stopped after {} steps", seq.steps());
        let chain = params.build_full_chain();
        let want = chain.ctmc.absorption_cdf_batch(FlagChain::START, &ts);
        for (&t, (g, w)) in ts.iter().zip(got.iter().zip(&want)) {
            assert!((g - w).abs() < 1e-10, "F({t}): {g} vs {w}");
        }
    }

    #[test]
    fn n10_solves_reproduce_pinned_bits() {
        // x[0] and the true relative residual of `solve`, as f64 bits,
        // recorded when the preconditioner became a coarse correction
        // followed by one sweep with its pass over old values in closed
        // form. Against the exact values the means lie within 8.9e-14
        // (symmetric, of the lumped chain) and 1.9e-13 (skewed, of GTH on
        // the full chain), and both visits to S_r within 2.1e-16 of
        // 1/exit(S_r). Every range count reproduces them.
        let ones = vec![1.0; 1 << 10];
        let mut e0 = vec![0.0; 1 << 10];
        e0[0] = 1.0;
        let symmetric = AsyncParams::symmetric(10, 1.0, 1.0 / 9.0);
        let cases = [
            (
                &symmetric,
                false,
                0x4031_38ff_2a3c_64a3,
                0x3d3d_96d1_234e_702a,
            ),
            (
                &symmetric,
                true,
                0x3fb1_1111_1111_1112,
                0x3ce5_a355_3327_a1a8,
            ),
            (
                &skewed_params(10),
                false,
                0x40c8_04a5_37be_af1d,
                0x3db1_c7d5_a2b2_2c1b,
            ),
            (
                &skewed_params(10),
                true,
                0x3fa7_b425_ed09_7b44,
                0x3d84_7ef8_0ea8_a3c8,
            ),
        ];
        for (params, transpose, x0, resid) in cases {
            let b = if transpose { &e0 } else { &ones };
            for ranges in [1, 2, 4] {
                let op = FlagChainOp::new(params).with_ranges(ranges);
                let (x, outcome) = op.solve(b, transpose);
                let what = format!("{params:?} transpose={transpose}, {ranges} ranges");
                assert_eq!(x[0].to_bits(), x0, "{what}: x[0] = {}", x[0]);
                assert_eq!(
                    outcome.relative_residual.to_bits(),
                    resid,
                    "{what}: residual {}",
                    outcome.relative_residual
                );
            }
        }
    }

    /// The matrix-free tail time: where S falls to `p`, searched from
    /// 1/Σμ as `AsyncParams::interval_tail_time` searches.
    fn tail_time(op: &FlagChainOp, p: f64) -> f64 {
        op.absorption_seq()
            .crossing(Column::Transient, p, 1.0 / op.total_mu)
    }

    /// Column `c` of `op`'s absorption sequence at each time in `ts`.
    fn column(op: &FlagChainOp, c: Column, ts: &[f64]) -> Vec<f64> {
        op.absorption_seq().eval_at(c, ts)
    }

    #[test]
    fn survival_reproduces_pinned_bits() {
        // S(0.3), S(3), S(30) and the tail time at each level, as f64
        // bits, recorded when the Poisson mixture moved to Fox–Glynn
        // windows, the tail-time search to Brent's method and the
        // transient mass to four partial sums. The n = 3/4 models and
        // levels are the deep-tail figure's; on the symmetric ones S lies
        // within 2.1e-13 and the tail times within 6.9e-14 of the 40-digit
        // reference that `stiff_tail.rs` checks them against.
        const DEEP: &[f64] = &[1e-6, 1e-9, 1e-12];
        // (model, levels, S bits, tail-time bits per level)
        type Pin = (AsyncParams, &'static [f64], [u64; 3], &'static [u64]);
        let cases: [Pin; 5] = [
            (
                AsyncParams::symmetric(3, 1.0, 1.0),
                DEEP,
                [
                    0x3fe2_5073_9e13_4ea9,
                    0x3fd1_84c5_2af2_d79a,
                    0x3f49_a936_78b0_3af3,
                ],
                &[
                    0x404e_5c02_a719_2532,
                    0x4057_2425_0330_34c9,
                    0x405f_1a48_b2d3_d6f7,
                ],
            ),
            (
                AsyncParams::new(vec![0.6, 0.85, 1.1], vec![0.15, 0.25, 0.35]).unwrap(),
                DEEP,
                [
                    0x3fe0_5d07_196f_de1b,
                    0x3fb5_b88d_34f7_4161,
                    0x3ec1_6f9b_17f2_97a3,
                ],
                &[
                    0x403f_dcd1_3813_53dc,
                    0x4048_b946_2125_8a36,
                    0x4050_c211_d320_b670,
                ],
            ),
            (
                AsyncParams::symmetric(4, 1.0, 0.0),
                DEEP,
                [
                    0x3fd3_46c4_167a_12de,
                    0x3ed9_c54c_3b43_bc8c,
                    0x351d_6068_47fc_72e0,
                ],
                &[
                    0x400b_a18a_998f_ffa0,
                    0x4014_b927_f32b_ffb8,
                    0x401b_a18a_998f_ffa1,
                ],
            ),
            (
                AsyncParams::symmetric(10, 1.0, 1.0 / 9.0),
                &[0.2],
                [
                    0x3fd5_55cd_9ad9_283b,
                    0x3fd3_16fc_a0fa_ad8b,
                    0x3fc7_41d3_6c39_77c1,
                ],
                &[0x4038_c566_a115_aa95],
            ),
            (
                AsyncParams::graded(10),
                &[0.2],
                [
                    0x3fc6_e6d8_cd05_99da,
                    0x3fba_e554_2cba_8728,
                    0x3f70_bd8d_e2ca_3c85,
                ],
                &[0x3fcd_e1e8_0862_2359],
            ),
        ];
        for (params, levels, s_bits, t_bits) in cases {
            let op = FlagChainOp::new(&params);
            let s = column(&op, Column::Transient, &[0.3, 3.0, 30.0]);
            for (s, want) in s.iter().zip(s_bits) {
                assert_eq!(s.to_bits(), want, "{params:?}: S = {s}");
            }
            for (&p, &want) in levels.iter().zip(t_bits) {
                let t = tail_time(&op, p);
                assert_eq!(t.to_bits(), want, "{params:?}: tail time at {p} = {t}");
            }
        }
    }

    #[test]
    fn exit_rates_match_materialised_chain() {
        let params = skewed_params(4);
        let chain = params.build_full_chain();
        let op = FlagChainOp::new(&params);
        for t in 0..op.n_transient() {
            assert!(
                (op.exit_rate(t) - chain.ctmc.exit_rate(t)).abs() < 1e-12,
                "state {t}"
            );
        }
        assert!(
            (op.uniformization_constant() - chain.ctmc.uniformization_constant()).abs() < 1e-12
        );
    }

    #[test]
    fn mean_absorption_matches_dense() {
        for n in [2usize, 3, 4, 6] {
            let params = skewed_params(n);
            let dense = params.build_full_chain().mean_interval();
            let matfree = FlagChainOp::new(&params).mean_absorption_time();
            assert!(
                (matfree - dense).abs() < 1e-9 * dense,
                "n={n}: {matfree} vs {dense}"
            );
        }
    }

    #[test]
    fn second_moment_matches_dense() {
        let params = skewed_params(4);
        let dense = params
            .build_full_chain()
            .ctmc
            .absorption_time_second_moment(FlagChain::START);
        let matfree = FlagChainOp::new(&params).absorption_time_second_moment();
        assert!(
            (matfree - dense).abs() < 1e-9 * dense,
            "{matfree} vs {dense}"
        );
    }

    #[test]
    fn expected_visits_match_dense_and_sum_to_mean() {
        let params = skewed_params(4);
        let chain = params.build_full_chain();
        let op = FlagChainOp::new(&params);
        let visits = op.expected_visits();
        // Dense reference: (−Q_TT)ᵀ·v = e_0.
        let a = dense_neg_qtt(&chain).transpose();
        let mut e0 = vec![0.0; op.n_transient()];
        e0[0] = 1.0;
        let want = crate::linalg::solve(a, &e0).unwrap();
        for (t, (g, w)) in visits.iter().zip(&want).enumerate() {
            assert!(
                (g - w).abs() < 1e-9 * w.abs().max(1.0),
                "state {t}: {g} vs {w}"
            );
        }
        let total: f64 = visits.iter().sum();
        let mean = op.mean_absorption_time();
        assert!((total - mean).abs() < 1e-9 * mean, "{total} vs {mean}");
    }

    #[test]
    fn cdf_and_density_match_uniformized_chain() {
        let params = skewed_params(3);
        let chain = params.build_full_chain();
        let op = FlagChainOp::new(&params);
        let ts = [0.0, 0.2, 0.7, 1.5, 4.0];
        let want_f = chain.interval_density(&ts);
        let got_f = column(&op, Column::Inflow, &ts);
        for (&t, (g, w)) in ts.iter().zip(got_f.iter().zip(&want_f)) {
            assert!((g - w).abs() < 1e-9, "f({t}): {g} vs {w}");
        }
        for &t in &ts {
            let want = chain.ctmc.absorption_cdf(FlagChain::START, t);
            let got = column(&op, Column::Absorbed, &[t])[0];
            assert!((got - want).abs() < 1e-9, "F({t}): {got} vs {want}");
        }
    }

    #[test]
    fn survival_complements_cdf_and_is_monotone() {
        let params = skewed_params(3);
        let op = FlagChainOp::new(&params);
        let ts = [-1.0, 0.0, 0.3, 1.0, 2.5, 6.0];
        let s = column(&op, Column::Transient, &ts);
        let f = column(&op, Column::Absorbed, &ts);
        for (&t, (&s, &f)) in ts.iter().zip(s.iter().zip(&f)) {
            let want = if t < 0.0 { 1.0 } else { 1.0 - f };
            assert!((s - want).abs() < 1e-10, "S({t}) = {s} vs 1−F = {want}");
        }
        for w in s.windows(2) {
            assert!(w[0] >= w[1] - 1e-12, "survival not monotone: {w:?}");
        }
    }

    #[test]
    fn deep_tail_survival_matches_exponential_closed_form() {
        // λ = 0: X ~ Exp(Σμ), so S(t) = e^{−Σμ·t} exactly — checkable
        // with full relative precision down to 1e-12 and beyond, where
        // 1 − F(t) has no correct digits left.
        let params = AsyncParams::new(vec![1.0, 2.0, 3.0], vec![0.0; 3]).unwrap();
        let op = FlagChainOp::new(&params);
        let ts: Vec<f64> = [1e-3, 1e-6, 1e-9, 1e-12, 1e-14]
            .iter()
            .map(|p: &f64| -p.ln() / 6.0)
            .collect();
        let s = column(&op, Column::Transient, &ts);
        for (&t, &got) in ts.iter().zip(&s) {
            let want = (-6.0 * t).exp();
            assert!(
                (got / want - 1.0).abs() < 1e-9,
                "S({t}) = {got} vs {want} (rel {})",
                got / want - 1.0
            );
        }
    }

    #[test]
    fn tail_time_round_trips_at_deep_levels() {
        for params in [skewed_params(3), AsyncParams::symmetric(4, 1.0, 0.6)] {
            let op = FlagChainOp::new(&params);
            for p in [1e-3, 1e-6, 1e-9, 1e-12] {
                let t = tail_time(&op, p);
                assert!(t > 0.0 && t.is_finite());
                let s = column(&op, Column::Transient, &[t])[0];
                assert!(
                    (s / p - 1.0).abs() < 1e-6,
                    "n={} p={p}: S({t}) = {s}",
                    op.n()
                );
            }
        }
        // Exact cross-check on the exponential corner: t* = −ln p / Σμ.
        let params = AsyncParams::new(vec![1.0, 2.0, 3.0], vec![0.0; 3]).unwrap();
        let op = FlagChainOp::new(&params);
        let t = tail_time(&op, 1e-9);
        let want = -(1e-9_f64).ln() / 6.0;
        assert!((t / want - 1.0).abs() < 1e-8, "{t} vs {want}");
    }

    #[test]
    fn no_interaction_is_an_rp_race() {
        // λ = 0: X ~ Exp(Σμ).
        let params = AsyncParams::new(vec![1.0, 2.0, 3.0], vec![0.0; 3]).unwrap();
        let op = FlagChainOp::new(&params);
        assert!((op.mean_absorption_time() - 1.0 / 6.0).abs() < 1e-12);
        let t = 0.4_f64;
        let want = 1.0 - (-6.0 * t).exp();
        assert!((column(&op, Column::Absorbed, &[t])[0] - want).abs() < 1e-9);
    }

    #[test]
    fn symmetric_case_converges_in_few_iterations() {
        // Homogeneous rates make the popcount aggregation exact, so the
        // two-level preconditioner is a near-inverse.
        let params = AsyncParams::symmetric(8, 1.0, 0.3);
        let op = FlagChainOp::new(&params);
        let b = vec![1.0; op.n_transient()];
        let mut x = vec![0.0; op.n_transient()];
        let transpose = false;
        let (a, pre) = (NegQtt(&op, transpose), TwoLevel { op: &op, transpose });
        // 1e-11 rather than machine-precision: `converged` is strict,
        // and the true residual floors at rounding noise well below
        // this while still proving the aggregation does the work.
        let out = bicgstab(&a, &pre, &b, &mut x, 1e-11, KRYLOV_MAX_ITER);
        assert!(out.converged, "residual {}", out.relative_residual);
        assert!(
            out.iterations <= 25,
            "aggregation preconditioner degraded: {} iterations",
            out.iterations
        );
        let lumped = crate::paper::mean_interval_symmetric(8, 1.0, 0.3);
        assert!(
            (x[0] - lumped).abs() < 1e-9 * lumped,
            "{} vs {lumped}",
            x[0]
        );
    }

    #[test]
    fn one_coarse_level_serves_every_solve_of_an_operator() {
        // The mean, both solves of the moments and the transposed visits
        // on one skewed operator share the coarse level its first solve
        // builds, and each answers bit for bit what a fresh operator does.
        let params = skewed_params(6);
        let op = FlagChainOp::new(&params);
        assert!(op.coarse.get().is_none(), "built before any solve");
        let mean = op.mean_absorption_time();
        let built: *const Coarse = &**op.coarse.get().expect("built by the first solve");
        let moments = op.absorption_time_moments();
        assert!(std::ptr::eq(op.coarse(), built), "moments rebuilt it");
        let visits = op.expected_visits();
        assert!(std::ptr::eq(op.coarse(), built), "visits rebuilt it");

        let fresh = || FlagChainOp::new(&params);
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(mean.to_bits(), fresh().mean_absorption_time().to_bits());
        let (m1, m2) = fresh().absorption_time_moments();
        assert_eq!(bits(&[moments.0, moments.1]), bits(&[m1, m2]));
        assert_eq!(bits(&visits), bits(&fresh().expected_visits()));
    }

    #[test]
    fn zero_rhs_short_circuits() {
        let params = AsyncParams::symmetric(3, 1.0, 1.0);
        let op = FlagChainOp::new(&params);
        let b = vec![0.0; op.n_transient()];
        let mut x = vec![1.0; op.n_transient()];
        let (a, pre) = (NegQtt(&op, false), Jacobi::new(&op.exit));
        let out = bicgstab(&a, &pre, &b, &mut x, 1e-13, 10);
        assert!(out.converged);
        assert!(x.iter().all(|&v| v == 0.0));
    }
}
