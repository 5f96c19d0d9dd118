//! Hand-unrolled arithmetic kernels with a bit-exactness contract.
//!
//! Every hot inner loop in the detection pipeline — the SGD completion
//! updates, the weighted-Pearson reductions, the Jacobi Gram/rotation
//! passes, and the per-domain pressure aggregation — bottoms out in one of
//! the primitives below. They are written as explicit 4-lane blocks over
//! `chunks_exact(4)` with a scalar tail: portable Rust, no nightly
//! `std::simd`, no dependencies, but shaped so the compiler can drop the
//! bounds checks and schedule the multiplies wide.
//!
//! # The determinism contract
//!
//! Floating-point addition does not associate, and most of these sums feed
//! outputs that are pinned byte-for-byte (the committed `bench_results`
//! CSVs) or couple into RNG-driven control flow (SGD early stopping,
//! detection verdicts). The default kernels therefore keep **one**
//! sequential accumulator per sum, added in exactly the order the scalar
//! reference code used — `fold(0.0, +)` left to right. Unrolling buys
//! bounds-check elimination and multiply ILP, never reassociation, so
//! `dot(a, b)` returns the *identical bits* the replaced loop produced.
//! Fusing independent sums into one pass (e.g. the six weighted-Pearson
//! reductions) is also bit-exact: each accumulator still sees its own adds
//! in the original order.
//!
//! [`KernelPolicy::Relaxed`] is the documented escape hatch: four
//! independent lane accumulators combined as `(l0 + l1) + (l2 + l3)`, which
//! breaks the add dependency chain and is substantially faster on long
//! inputs, but changes the rounding. It is only permissible on paths proven
//! not to feed determinism-pinned outputs; no production numeric path
//! currently qualifies (see DESIGN.md "Kernel determinism policy"), so
//! `Relaxed` is exercised by the benches and equivalence tests alone.
//!
//! Every kernel has a naive scalar twin in [`reference`](mod@reference), property-tested
//! to be bit-identical; the doc-hidden [`force_reference`] switch routes
//! all kernels through those twins so end-to-end tests can pin that the
//! unrolled forms are invisible to experiment output.

use std::sync::atomic::{AtomicBool, Ordering};

/// When set, every kernel delegates to its naive [`reference`] twin.
static FORCE_REFERENCE: AtomicBool = AtomicBool::new(false);

/// Routes every kernel through the naive reference implementations
/// (process-wide). Only the end-to-end invariance tests should flip this;
/// it exists to prove the unrolled forms are byte-invisible in experiment
/// output.
#[doc(hidden)]
pub fn force_reference(on: bool) {
    FORCE_REFERENCE.store(on, Ordering::Relaxed);
}

#[inline]
fn reference_mode() -> bool {
    FORCE_REFERENCE.load(Ordering::Relaxed)
}

/// Accumulation-order policy for the summing kernels.
///
/// See the module docs: `BitExact` is the default everywhere; `Relaxed`
/// may only be chosen for sums proven not to feed determinism-pinned
/// outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelPolicy {
    /// One sequential accumulator in scalar order — bit-identical to the
    /// replaced `fold(0.0, +)` loop. Safe for every caller.
    #[default]
    BitExact,
    /// Four independent lane accumulators combined `(l0 + l1) + (l2 + l3)`
    /// plus a sequential tail. Faster on long inputs; different rounding.
    Relaxed,
}

impl KernelPolicy {
    /// Dot product under this policy.
    pub fn dot(self, a: &[f64], b: &[f64]) -> f64 {
        match self {
            KernelPolicy::BitExact => dot(a, b),
            KernelPolicy::Relaxed => dot_relaxed(a, b),
        }
    }

    /// Sum of squares under this policy.
    pub fn sq_norm(self, a: &[f64]) -> f64 {
        match self {
            KernelPolicy::BitExact => sq_norm(a),
            KernelPolicy::Relaxed => sq_norm_relaxed(a),
        }
    }
}

/// Bit-exact dot product: `Σ aᵢ·bᵢ` with one sequential accumulator.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    if reference_mode() {
        return reference::dot(a, b);
    }
    let split = a.len() - (a.len() % 4);
    let (ah, at) = a.split_at(split);
    let (bh, bt) = b.split_at(split);
    // `Iterator::sum` for f64 folds from -0.0 (so an empty or all-negative-
    // zero sum keeps its sign); start there to stay bit-identical.
    let mut acc = -0.0;
    for (xa, xb) in ah.chunks_exact(4).zip(bh.chunks_exact(4)) {
        // Four independent multiplies, one sequential add chain: the sum
        // order is exactly the scalar loop's.
        acc += xa[0] * xb[0];
        acc += xa[1] * xb[1];
        acc += xa[2] * xb[2];
        acc += xa[3] * xb[3];
    }
    for (x, y) in at.iter().zip(bt) {
        acc += x * y;
    }
    acc
}

/// Relaxed dot product: four lane accumulators, combined
/// `(l0 + l1) + (l2 + l3)`, then a sequential tail.
pub fn dot_relaxed(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot_relaxed: length mismatch");
    if reference_mode() {
        return reference::dot_blocked(a, b);
    }
    let split = a.len() - (a.len() % 4);
    let (ah, at) = a.split_at(split);
    let (bh, bt) = b.split_at(split);
    let mut l = [0.0f64; 4];
    for (xa, xb) in ah.chunks_exact(4).zip(bh.chunks_exact(4)) {
        l[0] += xa[0] * xb[0];
        l[1] += xa[1] * xb[1];
        l[2] += xa[2] * xb[2];
        l[3] += xa[3] * xb[3];
    }
    let mut acc = (l[0] + l[1]) + (l[2] + l[3]);
    for (x, y) in at.iter().zip(bt) {
        acc += x * y;
    }
    acc
}

/// Bit-exact sum of squares: `Σ aᵢ²` in scalar order.
pub fn sq_norm(a: &[f64]) -> f64 {
    if reference_mode() {
        return reference::sq_norm(a);
    }
    let split = a.len() - (a.len() % 4);
    let (head, tail) = a.split_at(split);
    let mut acc = -0.0; // `sum()` fold identity
    for x in head.chunks_exact(4) {
        acc += x[0] * x[0];
        acc += x[1] * x[1];
        acc += x[2] * x[2];
        acc += x[3] * x[3];
    }
    for x in tail {
        acc += x * x;
    }
    acc
}

/// Relaxed sum of squares (same tree as [`dot_relaxed`]).
pub fn sq_norm_relaxed(a: &[f64]) -> f64 {
    if reference_mode() {
        return reference::sq_norm_blocked(a);
    }
    let split = a.len() - (a.len() % 4);
    let (head, tail) = a.split_at(split);
    let mut l = [0.0f64; 4];
    for x in head.chunks_exact(4) {
        l[0] += x[0] * x[0];
        l[1] += x[1] * x[1];
        l[2] += x[2] * x[2];
        l[3] += x[3] * x[3];
    }
    let mut acc = (l[0] + l[1]) + (l[2] + l[3]);
    for x in tail {
        acc += x * x;
    }
    acc
}

/// Fused dot + squared norms: `(Σ aᵢbᵢ, Σ aᵢ², Σ bᵢ²)` in one pass, each
/// accumulator in scalar order.
pub fn dot_sq_norms(a: &[f64], b: &[f64]) -> (f64, f64, f64) {
    assert_eq!(a.len(), b.len(), "dot_sq_norms: length mismatch");
    if reference_mode() {
        return reference::dot_sq_norms(a, b);
    }
    let mut ab = -0.0; // `sum()` fold identity, see `dot`
    let mut aa = -0.0;
    let mut bb = -0.0;
    for (x, y) in a.iter().zip(b) {
        ab += x * y;
        aa += x * x;
        bb += y * y;
    }
    (ab, aa, bb)
}

/// In-place `y += a · x`, elementwise (the matmul inner row update).
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn axpy(y: &mut [f64], a: f64, x: &[f64]) {
    assert_eq!(y.len(), x.len(), "axpy: length mismatch");
    if reference_mode() {
        return reference::axpy(y, a, x);
    }
    let split = y.len() - (y.len() % 4);
    let (yh, yt) = y.split_at_mut(split);
    let (xh, xt) = x.split_at(split);
    for (dy, dx) in yh.chunks_exact_mut(4).zip(xh.chunks_exact(4)) {
        dy[0] += a * dx[0];
        dy[1] += a * dx[1];
        dy[2] += a * dx[2];
        dy[3] += a * dx[3];
    }
    for (dy, dx) in yt.iter_mut().zip(xt) {
        *dy += a * dx;
    }
}

/// One SGD update over a `(p, q)` factor-row pair:
///
/// ```text
/// p[f] += lr · (err·q[f] − reg·p[f])
/// q[f] += lr · (err·p_old[f] − reg·q[f])
/// ```
///
/// where `p_old` is the value before this update (the classic simultaneous
/// PQ step). Elementwise, so trivially bit-exact.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn sgd_step(p: &mut [f64], q: &mut [f64], err: f64, lr: f64, reg: f64) {
    assert_eq!(p.len(), q.len(), "sgd_step: length mismatch");
    if reference_mode() {
        return reference::sgd_step(p, q, err, lr, reg);
    }
    for (pf, qf) in p.iter_mut().zip(q.iter_mut()) {
        let p0 = *pf;
        let q0 = *qf;
        *pf = p0 + lr * (err * q0 - reg * p0);
        *qf = q0 + lr * (err * p0 - reg * q0);
    }
}

/// One fold-in update against a frozen `q` row:
/// `p[f] += lr · (err·q[f] − reg·p[f])`.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn fold_step(p: &mut [f64], q: &[f64], err: f64, lr: f64, reg: f64) {
    assert_eq!(p.len(), q.len(), "fold_step: length mismatch");
    if reference_mode() {
        return reference::fold_step(p, q, err, lr, reg);
    }
    for (pf, qf) in p.iter_mut().zip(q) {
        *pf += lr * (err * qf - reg * *pf);
    }
}

/// Fused weight and weighted-value sums: `(Σ wᵢ, Σ xᵢ·wᵢ)` in one pass,
/// each accumulator in scalar order (bit-identical to computing them in
/// two separate passes).
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn weighted_sum(xs: &[f64], ws: &[f64]) -> (f64, f64) {
    assert_eq!(xs.len(), ws.len(), "weighted_sum: length mismatch");
    if reference_mode() {
        return reference::weighted_sum(xs, ws);
    }
    let mut wsum = -0.0; // `sum()` fold identity, see `dot`
    let mut sx = -0.0;
    for (x, w) in xs.iter().zip(ws) {
        wsum += w;
        sx += x * w;
    }
    (wsum, sx)
}

/// Fused reductions for two weighted series: `(Σ wᵢ, Σ xᵢ·wᵢ, Σ yᵢ·wᵢ)`.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn weighted_sums2(xs: &[f64], ys: &[f64], ws: &[f64]) -> (f64, f64, f64) {
    assert_eq!(xs.len(), ys.len(), "weighted_sums2: length mismatch");
    assert_eq!(xs.len(), ws.len(), "weighted_sums2: length mismatch");
    if reference_mode() {
        return reference::weighted_sums2(xs, ys, ws);
    }
    let mut wsum = -0.0; // `sum()` fold identity, see `dot`
    let mut sx = -0.0;
    let mut sy = -0.0;
    for ((x, y), w) in xs.iter().zip(ys).zip(ws) {
        wsum += w;
        sx += x * w;
        sy += y * w;
    }
    (wsum, sx, sy)
}

/// Weighted comoment `Σ wᵢ·(xᵢ−mx)·(yᵢ−my)` with the scalar term order
/// `(w·dx)·dy`.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn weighted_comoment(xs: &[f64], ys: &[f64], ws: &[f64], mx: f64, my: f64) -> f64 {
    assert_eq!(xs.len(), ys.len(), "weighted_comoment: length mismatch");
    assert_eq!(xs.len(), ws.len(), "weighted_comoment: length mismatch");
    if reference_mode() {
        return reference::weighted_comoment(xs, ys, ws, mx, my);
    }
    let mut acc = -0.0; // `sum()` fold identity, see `dot`
    for ((x, y), w) in xs.iter().zip(ys).zip(ws) {
        acc += w * (x - mx) * (y - my);
    }
    acc
}

/// Fused second moments for weighted Pearson: `(Σ w·dx·dy, Σ w·dx·dx,
/// Σ w·dy·dy)` with `dx = x − mx`, `dy = y − my`, in one pass. Each
/// accumulator's add order matches the three separate covariance loops the
/// scalar code ran, so the fusion is bit-exact.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn weighted_moments(xs: &[f64], ys: &[f64], ws: &[f64], mx: f64, my: f64) -> (f64, f64, f64) {
    assert_eq!(xs.len(), ys.len(), "weighted_moments: length mismatch");
    assert_eq!(xs.len(), ws.len(), "weighted_moments: length mismatch");
    if reference_mode() {
        return reference::weighted_moments(xs, ys, ws, mx, my);
    }
    let mut sxy = -0.0; // `sum()` fold identity, see `dot`
    let mut sxx = -0.0;
    let mut syy = -0.0;
    for ((x, y), w) in xs.iter().zip(ys).zip(ws) {
        let dx = x - mx;
        let dy = y - my;
        let wdx = w * dx;
        let wdy = w * dy;
        sxy += wdx * dy;
        sxx += wdx * dx;
        syy += wdy * dy;
    }
    (sxy, sxx, syy)
}

/// Batched saturating accumulate for pressure aggregation:
/// `total[i] = min(total[i] + p[i]·scale[i], cap)` per lane — one
/// neighbor's attenuated contribution folded into a running domain total.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn sat_accum(total: &mut [f64], p: &[f64], scale: &[f64], cap: f64) {
    assert_eq!(total.len(), p.len(), "sat_accum: length mismatch");
    assert_eq!(total.len(), scale.len(), "sat_accum: length mismatch");
    if reference_mode() {
        return reference::sat_accum(total, p, scale, cap);
    }
    for ((t, x), s) in total.iter_mut().zip(p).zip(scale) {
        *t = (*t + x * s).min(cap);
    }
}

/// Batched saturating scale: `total[i] = min(total[i]·factor, cap)` (the
/// server-degradation amplification).
pub fn sat_scale(total: &mut [f64], factor: f64, cap: f64) {
    if reference_mode() {
        return reference::sat_scale(total, factor, cap);
    }
    for t in total.iter_mut() {
        *t = (*t * factor).min(cap);
    }
}

/// Weighted triple dot `Σ (wᵢ·xᵢ)·yᵢ` (the pursuit-projection reduction).
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn wdot3(w: &[f64], x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(w.len(), x.len(), "wdot3: length mismatch");
    assert_eq!(w.len(), y.len(), "wdot3: length mismatch");
    if reference_mode() {
        return reference::wdot3(w, x, y);
    }
    let split = w.len() - (w.len() % 4);
    let (wh, wt) = w.split_at(split);
    let (xh, xt) = x.split_at(split);
    let (yh, yt) = y.split_at(split);
    let mut acc = -0.0; // `sum()` fold identity, see `dot`
    for ((cw, cx), cy) in wh
        .chunks_exact(4)
        .zip(xh.chunks_exact(4))
        .zip(yh.chunks_exact(4))
    {
        acc += cw[0] * cx[0] * cy[0];
        acc += cw[1] * cx[1] * cy[1];
        acc += cw[2] * cx[2] * cy[2];
        acc += cw[3] * cx[3] * cy[3];
    }
    for ((cw, cx), cy) in wt.iter().zip(xt).zip(yt) {
        acc += cw * cx * cy;
    }
    acc
}

/// [`wdot3`] skipping masked dimensions: `Σ_{!skip[i]} (wᵢ·xᵢ)·yᵢ`, adds
/// in ascending-index order exactly like the scalar
/// `filter(!censored).map(...).sum()` chain it replaces. Dispatches to the
/// unrolled unmasked form when nothing is masked (same adds, same bits).
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn wdot3_masked(w: &[f64], x: &[f64], y: &[f64], skip: &[bool]) -> f64 {
    assert_eq!(w.len(), skip.len(), "wdot3_masked: length mismatch");
    if reference_mode() {
        return reference::wdot3_masked(w, x, y, skip);
    }
    if !skip.iter().any(|&s| s) {
        return wdot3(w, x, y);
    }
    assert_eq!(w.len(), x.len(), "wdot3_masked: length mismatch");
    assert_eq!(w.len(), y.len(), "wdot3_masked: length mismatch");
    let mut acc = -0.0; // `sum()` fold identity, see `dot`
    for i in 0..w.len() {
        if skip[i] {
            continue;
        }
        acc += w[i] * x[i] * y[i];
    }
    acc
}

/// Fused Jacobi Gram entries for a strided column pair: over each
/// `stride`-long row of `data`, accumulates
/// `(Σ a[r][p]², Σ a[r][q]², Σ a[r][p]·a[r][q])` — the `(alpha, beta,
/// gamma)` triple of the one-sided Jacobi sweep, in scalar row order.
///
/// # Panics
///
/// Panics if `p` or `q` is not below `stride` or `stride` is zero.
pub fn gram_strided(data: &[f64], stride: usize, p: usize, q: usize) -> (f64, f64, f64) {
    assert!(
        stride > 0 && p < stride && q < stride,
        "gram_strided: bad columns"
    );
    if reference_mode() {
        return reference::gram_strided(data, stride, p, q);
    }
    let mut alpha = 0.0;
    let mut beta = 0.0;
    let mut gamma = 0.0;
    for row in data.chunks_exact(stride) {
        let ap = row[p];
        let aq = row[q];
        alpha += ap * ap;
        beta += aq * aq;
        gamma += ap * aq;
    }
    (alpha, beta, gamma)
}

/// Applies the Jacobi plane rotation `(c, s)` to the strided column pair
/// `(p, q)` in place: `a[r][p] = c·ap − s·aq`, `a[r][q] = s·ap + c·aq`.
///
/// # Panics
///
/// Panics if `p` or `q` is not below `stride` or `stride` is zero.
pub fn rotate_pair_strided(data: &mut [f64], stride: usize, p: usize, q: usize, c: f64, s: f64) {
    assert!(
        stride > 0 && p < stride && q < stride,
        "rotate_pair_strided: bad columns"
    );
    if reference_mode() {
        return reference::rotate_pair_strided(data, stride, p, q, c, s);
    }
    for row in data.chunks_exact_mut(stride) {
        let ap = row[p];
        let aq = row[q];
        row[p] = c * ap - s * aq;
        row[q] = s * ap + c * aq;
    }
}

/// Sum of squares of one strided column (the post-sweep singular-value
/// norms), in scalar row order.
///
/// # Panics
///
/// Panics if `c` is not below `stride` or `stride` is zero.
pub fn col_sq_norm_strided(data: &[f64], stride: usize, c: usize) -> f64 {
    assert!(stride > 0 && c < stride, "col_sq_norm_strided: bad column");
    if reference_mode() {
        return reference::col_sq_norm_strided(data, stride, c);
    }
    let mut acc = -0.0; // `sum()` fold identity, see `dot`
    for row in data.chunks_exact(stride) {
        let v = row[c];
        acc += v * v;
    }
    acc
}

/// Naive scalar twins of every kernel, written in the indexed style of the
/// code the kernels replaced. These are the ground truth the bit-exactness
/// proptests compare against, the baseline the benches measure against,
/// and the implementations [`force_reference`] reroutes to.
// The twins deliberately keep the original indexed-loop style so a reader
// can diff them against the code the kernels replaced.
#[allow(clippy::needless_range_loop)]
pub mod reference {
    /// Scalar dot: `fold(0.0, +)` left to right.
    pub fn dot(a: &[f64], b: &[f64]) -> f64 {
        assert_eq!(a.len(), b.len(), "dot: length mismatch");
        (0..a.len()).map(|i| a[i] * b[i]).sum()
    }

    /// Scalar replica of the relaxed 4-lane accumulation tree.
    pub fn dot_blocked(a: &[f64], b: &[f64]) -> f64 {
        assert_eq!(a.len(), b.len(), "dot_blocked: length mismatch");
        let split = a.len() - (a.len() % 4);
        let mut l = [0.0f64; 4];
        for i in (0..split).step_by(4) {
            for lane in 0..4 {
                l[lane] += a[i + lane] * b[i + lane];
            }
        }
        let mut acc = (l[0] + l[1]) + (l[2] + l[3]);
        for i in split..a.len() {
            acc += a[i] * b[i];
        }
        acc
    }

    /// Scalar sum of squares.
    pub fn sq_norm(a: &[f64]) -> f64 {
        a.iter().map(|x| x * x).sum()
    }

    /// Scalar replica of the relaxed sum-of-squares tree.
    pub fn sq_norm_blocked(a: &[f64]) -> f64 {
        let split = a.len() - (a.len() % 4);
        let mut l = [0.0f64; 4];
        for i in (0..split).step_by(4) {
            for lane in 0..4 {
                l[lane] += a[i + lane] * a[i + lane];
            }
        }
        let mut acc = (l[0] + l[1]) + (l[2] + l[3]);
        for i in split..a.len() {
            acc += a[i] * a[i];
        }
        acc
    }

    /// Scalar fused dot + squared norms.
    pub fn dot_sq_norms(a: &[f64], b: &[f64]) -> (f64, f64, f64) {
        assert_eq!(a.len(), b.len(), "dot_sq_norms: length mismatch");
        let mut ab = -0.0; // `sum()` fold identity, matching `dot`/`sq_norm`
        let mut aa = -0.0;
        let mut bb = -0.0;
        for i in 0..a.len() {
            ab += a[i] * b[i];
            aa += a[i] * a[i];
            bb += b[i] * b[i];
        }
        (ab, aa, bb)
    }

    /// Scalar axpy.
    pub fn axpy(y: &mut [f64], a: f64, x: &[f64]) {
        assert_eq!(y.len(), x.len(), "axpy: length mismatch");
        for i in 0..y.len() {
            y[i] += a * x[i];
        }
    }

    /// Scalar SGD factor-pair update.
    pub fn sgd_step(p: &mut [f64], q: &mut [f64], err: f64, lr: f64, reg: f64) {
        assert_eq!(p.len(), q.len(), "sgd_step: length mismatch");
        for f in 0..p.len() {
            let pf = p[f];
            let qf = q[f];
            p[f] += lr * (err * qf - reg * pf);
            q[f] += lr * (err * pf - reg * qf);
        }
    }

    /// Scalar fold-in update.
    pub fn fold_step(p: &mut [f64], q: &[f64], err: f64, lr: f64, reg: f64) {
        assert_eq!(p.len(), q.len(), "fold_step: length mismatch");
        for f in 0..p.len() {
            p[f] += lr * (err * q[f] - reg * p[f]);
        }
    }

    /// Scalar weight/weighted-value sums, two separate passes (the order
    /// the original `weighted_mean` used).
    pub fn weighted_sum(xs: &[f64], ws: &[f64]) -> (f64, f64) {
        assert_eq!(xs.len(), ws.len(), "weighted_sum: length mismatch");
        let wsum: f64 = ws.iter().sum();
        let sx: f64 = xs.iter().zip(ws).map(|(x, w)| x * w).sum();
        (wsum, sx)
    }

    /// Scalar three-sum reduction, separate passes.
    pub fn weighted_sums2(xs: &[f64], ys: &[f64], ws: &[f64]) -> (f64, f64, f64) {
        let (wsum, sx) = weighted_sum(xs, ws);
        let (_, sy) = weighted_sum(ys, ws);
        (wsum, sx, sy)
    }

    /// Scalar weighted comoment.
    pub fn weighted_comoment(xs: &[f64], ys: &[f64], ws: &[f64], mx: f64, my: f64) -> f64 {
        assert_eq!(xs.len(), ys.len(), "weighted_comoment: length mismatch");
        assert_eq!(xs.len(), ws.len(), "weighted_comoment: length mismatch");
        xs.iter()
            .zip(ys)
            .zip(ws)
            .map(|((x, y), w)| w * (x - mx) * (y - my))
            .sum()
    }

    /// Scalar second moments, three separate covariance-style passes.
    pub fn weighted_moments(
        xs: &[f64],
        ys: &[f64],
        ws: &[f64],
        mx: f64,
        my: f64,
    ) -> (f64, f64, f64) {
        (
            weighted_comoment(xs, ys, ws, mx, my),
            weighted_comoment(xs, xs, ws, mx, mx),
            weighted_comoment(ys, ys, ws, my, my),
        )
    }

    /// Scalar saturating accumulate.
    pub fn sat_accum(total: &mut [f64], p: &[f64], scale: &[f64], cap: f64) {
        assert_eq!(total.len(), p.len(), "sat_accum: length mismatch");
        assert_eq!(total.len(), scale.len(), "sat_accum: length mismatch");
        for i in 0..total.len() {
            total[i] = (total[i] + p[i] * scale[i]).min(cap);
        }
    }

    /// Scalar saturating scale.
    pub fn sat_scale(total: &mut [f64], factor: f64, cap: f64) {
        for t in total.iter_mut() {
            *t = (*t * factor).min(cap);
        }
    }

    /// Scalar weighted triple dot.
    pub fn wdot3(w: &[f64], x: &[f64], y: &[f64]) -> f64 {
        assert_eq!(w.len(), x.len(), "wdot3: length mismatch");
        assert_eq!(w.len(), y.len(), "wdot3: length mismatch");
        (0..w.len()).map(|i| w[i] * x[i] * y[i]).sum()
    }

    /// Scalar masked weighted triple dot (the `filter(!censored)` chain).
    pub fn wdot3_masked(w: &[f64], x: &[f64], y: &[f64], skip: &[bool]) -> f64 {
        assert_eq!(w.len(), x.len(), "wdot3_masked: length mismatch");
        assert_eq!(w.len(), y.len(), "wdot3_masked: length mismatch");
        assert_eq!(w.len(), skip.len(), "wdot3_masked: length mismatch");
        (0..w.len())
            .filter(|&i| !skip[i])
            .map(|i| w[i] * x[i] * y[i])
            .sum()
    }

    /// Scalar Jacobi Gram triple over `Matrix`-style indexing.
    pub fn gram_strided(data: &[f64], stride: usize, p: usize, q: usize) -> (f64, f64, f64) {
        assert!(
            stride > 0 && p < stride && q < stride,
            "gram_strided: bad columns"
        );
        let rows = data.len() / stride;
        let mut alpha = 0.0;
        let mut beta = 0.0;
        let mut gamma = 0.0;
        for r in 0..rows {
            let ap = data[r * stride + p];
            let aq = data[r * stride + q];
            alpha += ap * ap;
            beta += aq * aq;
            gamma += ap * aq;
        }
        (alpha, beta, gamma)
    }

    /// Scalar Jacobi plane rotation.
    pub fn rotate_pair_strided(
        data: &mut [f64],
        stride: usize,
        p: usize,
        q: usize,
        c: f64,
        s: f64,
    ) {
        assert!(
            stride > 0 && p < stride && q < stride,
            "rotate_pair_strided: bad columns"
        );
        let rows = data.len() / stride;
        for r in 0..rows {
            let ap = data[r * stride + p];
            let aq = data[r * stride + q];
            data[r * stride + p] = c * ap - s * aq;
            data[r * stride + q] = s * ap + c * aq;
        }
    }

    /// Scalar strided column sum of squares.
    pub fn col_sq_norm_strided(data: &[f64], stride: usize, c: usize) -> f64 {
        assert!(stride > 0 && c < stride, "col_sq_norm_strided: bad column");
        let rows = data.len() / stride;
        (0..rows)
            .map(|r| data[r * stride + c] * data[r * stride + c])
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(n: usize) -> Vec<f64> {
        // Deterministic, sign-mixed, magnitude-mixed values: enough to
        // surface any reassociation bug as a bit difference.
        (0..n)
            .map(|i| {
                let x = (i as f64 * 0.7391 + 0.13).sin() * 1e3;
                if i % 3 == 0 {
                    -x / 997.0
                } else {
                    x
                }
            })
            .collect()
    }

    #[test]
    fn dot_is_bit_exact_across_tail_lengths() {
        for n in [0, 1, 2, 3, 4, 5, 7, 8, 31, 64, 1000] {
            let a = series(n);
            let b: Vec<f64> = series(n).iter().map(|x| x * 1.3 - 0.2).collect();
            assert_eq!(
                dot(&a, &b).to_bits(),
                reference::dot(&a, &b).to_bits(),
                "n={n}"
            );
        }
    }

    #[test]
    fn relaxed_dot_matches_blocked_reference() {
        for n in [0, 3, 4, 9, 64, 1000] {
            let a = series(n);
            let b: Vec<f64> = series(n).iter().map(|x| x * 0.9 + 0.1).collect();
            assert_eq!(
                dot_relaxed(&a, &b).to_bits(),
                reference::dot_blocked(&a, &b).to_bits(),
                "n={n}"
            );
        }
    }

    #[test]
    fn policy_dispatch_selects_trees() {
        let a = series(37);
        let b = series(37);
        assert_eq!(KernelPolicy::BitExact.dot(&a, &b), dot(&a, &b));
        assert_eq!(KernelPolicy::Relaxed.dot(&a, &b), dot_relaxed(&a, &b));
        assert_eq!(KernelPolicy::BitExact.sq_norm(&a), sq_norm(&a));
        assert_eq!(KernelPolicy::Relaxed.sq_norm(&a), sq_norm_relaxed(&a));
    }

    #[test]
    fn force_reference_reroutes_kernels() {
        let a = series(11);
        let b = series(11);
        let before = dot(&a, &b);
        force_reference(true);
        let during = dot(&a, &b);
        force_reference(false);
        assert_eq!(before.to_bits(), during.to_bits());
    }

    #[test]
    fn sum_identity_sign_matches_iterator_sum() {
        // f64's `Iterator::sum` folds from -0.0, so an empty sum and a sum
        // of -0.0 terms keep the negative sign. The kernels must agree.
        let empty: [f64; 0] = [];
        assert_eq!(dot(&empty, &empty).to_bits(), (-0.0f64).to_bits());
        assert_eq!(sq_norm(&empty).to_bits(), (-0.0f64).to_bits());
        let a = [-0.0f64];
        let b = [1.0f64];
        // -0.0 (identity) + (-0.0 * 1.0) stays -0.0 under `sum()`.
        let via_sum: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert_eq!(dot(&a, &b).to_bits(), via_sum.to_bits());
        assert_eq!(via_sum.to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn sat_accum_caps_each_lane() {
        let mut total = [95.0, 10.0, 0.0];
        sat_accum(&mut total, &[10.0, 5.0, 0.0], &[1.0, 0.5, 1.0], 100.0);
        assert_eq!(total, [100.0, 12.5, 0.0]);
    }

    #[test]
    fn gram_and_rotation_match_matrix_indexing() {
        let data = series(12); // 4x3
        let (a1, b1, g1) = gram_strided(&data, 3, 0, 2);
        let (a2, b2, g2) = reference::gram_strided(&data, 3, 0, 2);
        assert_eq!(a1.to_bits(), a2.to_bits());
        assert_eq!(b1.to_bits(), b2.to_bits());
        assert_eq!(g1.to_bits(), g2.to_bits());

        let mut x = data.clone();
        let mut y = data;
        rotate_pair_strided(&mut x, 3, 0, 2, 0.8, 0.6);
        reference::rotate_pair_strided(&mut y, 3, 0, 2, 0.8, 0.6);
        assert_eq!(x, y);
    }
}
