//! Matmul and activation microkernels over flat row-major `f32` slices.
//!
//! Three product shapes cover every matmul call site in the training stack
//! (`Y = X·W`, `dW = Xᵀ·dY`, `dX = dY·Wᵀ`). All kernels **accumulate**
//! (`out += …`): callers that want overwrite semantics zero `out` first,
//! callers that want `+=` (gradient accumulation) skip the zeroing — that is
//! how `Matrix::*_into` and `Matrix::*_acc` share these loops.
//!
//! Every product has one arithmetic on every host. On x86-64 it runs as
//! AVX2+FMA register tiles, or as 16-lane AVX-512 ones that give every
//! output element the AVX2 arithmetic, bit for bit. Elsewhere (or without
//! AVX2+FMA) it runs as plain scalar loops that spell the same arithmetic
//! out per element: the same fused and unfused chains in the same order and
//! the same horizontal-sum tree (`kernels::tests` pins all three families
//! equal). Dispatch is a one-time runtime probe ([`kernel_width`]) cached in
//! an atomic. The [`tanh`] kernel replaces the per-element libm call
//! (~16 ns/element, the single hottest non-matmul instruction in a DDPG
//! step) with a branchless exp2-based polynomial that vectorizes.
//!
//! The parameter-sized passes of a DDPG update follow `tanh`'s pattern: a
//! portable body, recompiled under the AVX2 `#[target_feature]` wrapper and
//! dispatched by width. `adam` is the Adam update (`optim::Adam::step`),
//! `polyak` the target blend (`Matrix::polyak_from`) and `sum_sq` the f64
//! sum of squares behind the bound in `Mlp::clip_grad_norm`. All are
//! element-wise, with correctly rounded operations only, so every width
//! gives the same bits.
//!
//! The original unblocked loops are retained verbatim in [`naive`] (including
//! the `a == 0.0` sparsity shortcut the fast kernels deliberately drop —
//! it made ReLU-sparse backward passes take a data-dependent branch per
//! element, and the scalar-libm `tanh`). They are the reference for the
//! differential tests below and the denominator of the perf gate's speedup
//! checks (`bench::perf`); [`set_kernel_mode`] flips the whole crate between
//! the two families at runtime.

use std::sync::atomic::{AtomicU8, Ordering};

/// Which kernel family [`crate::Matrix`] dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelMode {
    /// The fast kernels: AVX2/AVX-512 register tiles where the host has
    /// them, their arithmetic as scalar loops elsewhere (the default).
    Blocked,
    /// The original unblocked reference loops (for differential testing and
    /// the perf harness's baseline leg).
    Naive,
}

static MODE: AtomicU8 = AtomicU8::new(0);

/// Selects the kernel family used by every subsequent `Matrix` product.
///
/// Process-global; intended for the perf harness and differential tests,
/// not for concurrent toggling mid-training.
pub fn set_kernel_mode(mode: KernelMode) {
    MODE.store(mode as u8, Ordering::Relaxed);
}

/// The currently selected kernel family.
pub fn kernel_mode() -> KernelMode {
    if MODE.load(Ordering::Relaxed) == KernelMode::Naive as u8 {
        KernelMode::Naive
    } else {
        KernelMode::Blocked
    }
}

/// The x86 kernel families, narrowest first. A host that has a width has
/// every width below it.
#[derive(Clone, Copy, PartialEq, Eq)]
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
enum Width {
    Portable,
    Avx2,
    Avx512,
}

/// Cached result of the feature probe: 0 = not probed, else `Width as u8 + 1`.
/// Probing once keeps the per-call cost at one relaxed load.
static WIDTH: AtomicU8 = AtomicU8::new(0);

/// The widest kernel family this host runs.
fn width() -> Width {
    match WIDTH.load(Ordering::Relaxed) {
        1 => Width::Portable,
        2 => Width::Avx2,
        3 => Width::Avx512,
        _ => {
            let w = probe();
            WIDTH.store(w as u8 + 1, Ordering::Relaxed);
            w
        }
    }
}

#[cfg(target_arch = "x86_64")]
fn probe() -> Width {
    use std::arch::is_x86_feature_detected as has;
    if !(has!("avx2") && has!("fma")) {
        Width::Portable
    } else if has!("avx512f") && has!("avx512dq") {
        Width::Avx512
    } else {
        Width::Avx2
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn probe() -> Width {
    Width::Portable
}

/// The widest kernel family products dispatch to on this host: `"portable"`,
/// `"avx2"` or `"avx512"`. Read-only; the 16-lane family runs only products
/// whose minibatch dimension is at least 8, and `tanh` and the optimizer
/// passes stay at AVX2.
pub fn kernel_width() -> &'static str {
    match width() {
        Width::Portable => "portable",
        Width::Avx2 => "avx2",
        Width::Avx512 => "avx512",
    }
}

/// Smallest minibatch dimension the 16-lane tiles take (`min(rows, depth)` of
/// `matmul`/`t_matmul`, `m` of `matmul_t`). Below it — online fine-tuning's
/// b = 3–5 batches, `act`'s single row — the AVX2 tiles are faster.
const WIDE_MIN: usize = 8;

/// `out += a · b` where `a` is `m x k`, `b` is `k x n`, `out` is `m x n`.
pub fn matmul(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    assert_eq!(a.len(), m * k, "matmul: a length");
    assert_eq!(b.len(), k * n, "matmul: b length");
    assert_eq!(out.len(), m * n, "matmul: out length");
    #[cfg(target_arch = "x86_64")]
    match width() {
        // SAFETY: `width` confirmed AVX-512F/DQ and AVX2+FMA; the asserts
        // above establish the slice-length contract of the pointer walks.
        Width::Avx512 if m.min(k) >= WIDE_MIN => {
            return unsafe { avx512::matmul(m, k, n, a, b, out) }
        }
        // SAFETY: as above, for AVX2+FMA.
        Width::Avx2 | Width::Avx512 => return unsafe { avx2::matmul(m, k, n, a, b, out) },
        Width::Portable => {}
    }
    gaxpy_body(m, k, n, a, k, 1, b, out)
}

/// `out += aᵀ · b` where `a` is `r x c`, `b` is `r x n`, `out` is `c x n`.
pub fn t_matmul(r: usize, c: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    assert_eq!(a.len(), r * c, "t_matmul: a length");
    assert_eq!(b.len(), r * n, "t_matmul: b length");
    assert_eq!(out.len(), c * n, "t_matmul: out length");
    #[cfg(target_arch = "x86_64")]
    match width() {
        // SAFETY: `width` confirmed AVX-512F/DQ and AVX2+FMA; the asserts
        // above establish the slice-length contract of the pointer walks.
        Width::Avx512 if r.min(c) >= WIDE_MIN => {
            return unsafe { avx512::t_matmul(r, c, n, a, b, out) }
        }
        // SAFETY: as above, for AVX2+FMA.
        Width::Avx2 | Width::Avx512 => return unsafe { avx2::t_matmul(r, c, n, a, b, out) },
        Width::Portable => {}
    }
    gaxpy_body(c, r, n, a, 1, c, b, out)
}

/// The portable `matmul` / `t_matmul`: `out[i][j] += Σ_t a(i, t) · b[t][j]`
/// with `a(i, t) = a[i·ra + t·sa]`, as in `avx2::gaxpy`, and with its
/// arithmetic. Each element is one chain in depth order starting from its
/// value in `out`: fused (`mul_add`) in the first `8⌊n/8⌋` columns, which
/// the vector tiles cover, and the unfused `+=` in the scalar tail.
#[allow(clippy::too_many_arguments)]
fn gaxpy_body(rows: usize, d: usize, n: usize, a: &[f32], ra: usize, sa: usize, b: &[f32], out: &mut [f32]) {
    let n8 = n / 8 * 8;
    for i in 0..rows {
        let (fused, tail) = out[i * n..(i + 1) * n].split_at_mut(n8);
        for t in 0..d {
            let x = a[i * ra + t * sa];
            let (b8, b_tail) = b[t * n..(t + 1) * n].split_at(n8);
            for (o, &y) in fused.iter_mut().zip(b8) {
                *o = x.mul_add(y, *o);
            }
            for (o, &y) in tail.iter_mut().zip(b_tail) {
                *o += x * y;
            }
        }
    }
}

/// `out += a · bᵀ` where `a` is `m x k`, `b` is `n x k`, `out` is `m x n`.
///
/// Each output is a dot product over 8-lane partial sums (a scalar `s += a*b`
/// dot product cannot be vectorized under strict FP semantics — the lane
/// split makes the reassociation explicit), summed horizontally once.
pub fn matmul_t(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    assert_eq!(a.len(), m * k, "matmul_t: a length");
    assert_eq!(b.len(), n * k, "matmul_t: b length");
    assert_eq!(out.len(), m * n, "matmul_t: out length");
    #[cfg(target_arch = "x86_64")]
    match width() {
        // SAFETY: `width` confirmed AVX-512F/DQ and AVX2+FMA; the asserts
        // above establish the slice-length contract of the pointer walks.
        Width::Avx512 if m >= WIDE_MIN => return unsafe { avx512::matmul_t(m, k, n, a, b, out) },
        // SAFETY: as above, for AVX2+FMA.
        Width::Avx2 | Width::Avx512 => return unsafe { avx2::matmul_t(m, k, n, a, b, out) },
        Width::Portable => {}
    }
    matmul_t_body(m, k, n, a, b, out)
}

/// The portable `matmul_t`, with `avx2::matmul_t`'s arithmetic. The first
/// `4⌊n/4⌋` columns take `avx2::dot_rx4`'s one 8-lane `mul_add` chain; the
/// rest take `avx2::dot1`'s two, 8-blocks alternating from chain 0 (a lone
/// last block joins chain 0), added lane-wise. Then `avx2::hsum`'s tree,
/// the unfused k-tail and `out += s`.
fn matmul_t_body(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    let (k8, n4) = (k / 8 * 8, n / 4 * 4);
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        for j in 0..n {
            let b_row = &b[j * k..(j + 1) * k];
            let mut c = [[0.0f32; 8]; 2];
            for kk in (0..k8).step_by(8) {
                let chain = &mut c[usize::from(j >= n4 && kk % 16 == 8)];
                for (l, v) in chain.iter_mut().enumerate() {
                    *v = a_row[kk + l].mul_add(b_row[kk + l], *v);
                }
            }
            // The one-chain columns add no `c[1]`: `-0.0 + 0.0` is `+0.0`.
            let v: [f32; 8] = if j < n4 { c[0] } else { std::array::from_fn(|l| c[0][l] + c[1][l]) };
            let mut s = ((v[0] + v[4]) + (v[2] + v[6])) + ((v[1] + v[5]) + (v[3] + v[7]));
            for kk in k8..k {
                s += a_row[kk] * b_row[kk];
            }
            out[i * n + j] += s;
        }
    }
}

/// Element-wise `out[i] = tanh(xs[i])`, branchless and vectorizable.
///
/// Uses the identity `tanh(|x|) = 1 − 2/(e^{2|x|} + 1)` with `e^{2|x|}`
/// computed as `2^y` (`y = 2|x|·log₂e`): the integer part of `y` becomes the
/// float exponent via bit assembly, the fractional part (in `[-0.5, 0.5]`,
/// split off with the `+1.5·2²³` round-to-nearest trick so no `round`/`floor`
/// libcall is emitted) feeds a degree-6 Taylor polynomial for `2^f`. `|x|` is
/// saturated at 12 where `tanh` is 1 to within f32 resolution. Absolute error
/// vs libm is ≤ 2e-6 (differential-tested below) — far below the noise the
/// stochastic DDPG minibatch already injects.
pub fn tanh(xs: &[f32], out: &mut [f32]) {
    assert_eq!(xs.len(), out.len(), "tanh: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if width() != Width::Portable {
        // SAFETY: `width` confirmed AVX2+FMA, the only precondition of the
        // wrapper (its body is safe code recompiled with wider codegen).
        unsafe { avx2::tanh(xs, out) };
        return;
    }
    tanh_body(xs, out)
}

#[inline(always)]
fn tanh_body(xs: &[f32], out: &mut [f32]) {
    debug_assert_eq!(xs.len(), out.len());
    // Taylor coefficients of 2^f around 0: (ln 2)^i / i!.
    const C1: f32 = std::f32::consts::LN_2;
    const C2: f32 = 0.240_226_5;
    const C3: f32 = 0.055_504_11;
    const C4: f32 = 0.009_618_129;
    const C5: f32 = 0.001_333_355_8;
    const C6: f32 = 0.000_154_035_3;
    // 1.5·2²³: adding then subtracting rounds an f32 in [0, 2²²) to the
    // nearest integer without a `round` libcall.
    const ROUND: f32 = 12_582_912.0;
    // tanh(12) is within a quarter-ulp of 1.0f32 even after the ~2e-6
    // polynomial error; saturating keeps the exponent bits in range.
    const SAT: f32 = 12.0;
    const SIGN: u32 = 0x8000_0000;
    let two_log2_e = 2.0 * std::f32::consts::LOG2_E;
    // Every step is a lane-wise bit operation, compare-and-select or
    // arithmetic op, so the loop vectorizes; `min`, `as i32` and `copysign`
    // did not. Bit for bit the same function as `|x|.min(12)`, `nf as i32`
    // and `copysign` (a NaN takes the saturated branch either way), pinned by
    // `fast_tanh_bits_match_the_scalar_formulation`.
    for (o, &x) in out.iter_mut().zip(xs) {
        let ax = f32::from_bits(x.to_bits() & !SIGN);
        let y = two_log2_e * if ax < SAT { ax } else { SAT }; // e^{2|x|} = 2^y, y ∈ [0, 35]
        let r = y + ROUND;
        let nf = r - ROUND;
        let f = y - nf; // ∈ [-0.5, 0.5]
        let p = 1.0 + f * (C1 + f * (C2 + f * (C3 + f * (C4 + f * (C5 + f * C6)))));
        // r = 1.5·2²³ + n with a unit ulp, so n sits in r's low mantissa bits
        // and ROUND's own bits vanish from `(bits + 127) << 23`.
        let e = p * f32::from_bits((r.to_bits() + 127) << 23);
        let t = 1.0 - 2.0 / (e + 1.0); // tanh(|x|) ≥ +0, sign bit clear
        *o = f32::from_bits(t.to_bits() | (x.to_bits() & SIGN));
    }
}

/// The scalars of one Adam update: learning rate, betas, epsilon and the
/// two bias corrections `1 − βᵗ`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct AdamStep {
    pub(crate) lr: f32,
    pub(crate) b1: f32,
    pub(crate) b2: f32,
    pub(crate) eps: f32,
    pub(crate) bc1: f32,
    pub(crate) bc2: f32,
}

/// Adam's per-element update of one parameter `w` with gradient `g` and
/// moments `m`, `v`:
/// `m = b1·m + (1 − b1)·g`, `v = b2·v + (1 − b2)·g·g`,
/// `w −= lr·(m / bc1) / (√(v / bc2) + eps)`.
///
/// When `bc1` is exactly 1.0 its division is skipped (`x / 1.0` is `x` bit
/// for bit, NaN and subnormals included). In f32, `1 − 0.9ᵗ` is 1.0 from
/// t = 165 on, so from there an update pays one division per element fewer.
pub(crate) fn adam(h: AdamStep, w: &mut [f32], g: &[f32], m: &mut [f32], v: &mut [f32]) {
    let n = w.len();
    assert!(g.len() == n && m.len() == n && v.len() == n, "adam: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if width() != Width::Portable {
        // SAFETY: `width` confirmed AVX2+FMA, the only precondition of the
        // wrapper (its body is safe code recompiled with wider codegen).
        unsafe { avx2::adam(h, w, g, m, v) };
        return;
    }
    adam_body(h, w, g, m, v)
}

/// [`adam`]'s loop, unswitched on whether `bc1` is exactly 1.0.
#[inline(always)]
fn adam_body(h: AdamStep, w: &mut [f32], g: &[f32], m: &mut [f32], v: &mut [f32]) {
    if h.bc1 == 1.0 {
        adam_loop::<true>(h, w, g, m, v)
    } else {
        adam_loop::<false>(h, w, g, m, v)
    }
}

/// One instance of [`adam`]'s loop: `ONE1` means `bc1` is exactly 1.0 and
/// its division is skipped.
#[inline(always)]
fn adam_loop<const ONE1: bool>(h: AdamStep, w: &mut [f32], g: &[f32], m: &mut [f32], v: &mut [f32]) {
    let AdamStep { lr, b1, b2, eps, bc1, bc2 } = h;
    for ((w, &g), (mi, vi)) in w.iter_mut().zip(g).zip(m.iter_mut().zip(v.iter_mut())) {
        *mi = b1 * *mi + (1.0 - b1) * g;
        *vi = b2 * *vi + (1.0 - b2) * g * g;
        let m_hat = if ONE1 { *mi } else { *mi / bc1 };
        let v_hat = *vi / bc2;
        *w -= lr * m_hat / (v_hat.sqrt() + eps);
    }
}

/// Polyak blend `dst = tau·src + (1 − tau)·dst`, element-wise.
pub(crate) fn polyak(dst: &mut [f32], src: &[f32], tau: f32) {
    assert_eq!(dst.len(), src.len(), "polyak: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if width() != Width::Portable {
        // SAFETY: as in `adam`.
        unsafe { avx2::polyak(dst, src, tau) };
        return;
    }
    polyak_body(dst, src, tau)
}

#[inline(always)]
fn polyak_body(dst: &mut [f32], src: &[f32], tau: f32) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = tau * s + (1.0 - tau) * *d;
    }
}

/// `Σ x²` in f64, in an unspecified order. Each square of an f32 is exact
/// in f64 and every term is non-negative, so the result is within a
/// relative `len·2⁻⁵³` of the exact sum whatever the order: the bound
/// `Mlp::clip_grad_norm` needs to skip its exact f32 sum.
pub(crate) fn sum_sq(xs: &[f32]) -> f64 {
    #[cfg(target_arch = "x86_64")]
    if width() != Width::Portable {
        // SAFETY: as in `adam`.
        return unsafe { avx2::sum_sq(xs) };
    }
    sum_sq_body(xs)
}

/// [`sum_sq`] over 16 independent lanes (four ymm chains at AVX2 width),
/// summed once at the end.
#[inline(always)]
fn sum_sq_body(xs: &[f32]) -> f64 {
    let mut acc = [0.0f64; 16];
    let (chunks, tail) = xs.as_chunks::<16>();
    for chunk in chunks {
        for (a, &x) in acc.iter_mut().zip(chunk) {
            *a += f64::from(x) * f64::from(x);
        }
    }
    tail.iter().fold(acc.iter().sum(), |s, &x| s + f64::from(x) * f64::from(x))
}

/// Defines `tile` and `sweep`, the register tiles of the x86 `gaxpy`
/// drivers, for one vector width (`$lanes` f32 lanes per register), so the
/// AVX2 and AVX-512 families run one loop body.
#[cfg(target_arch = "x86_64")]
macro_rules! gaxpy_tiles {
    ($feat:literal, $lanes:literal, $zero:ident, $load:ident, $store:ident, $set1:ident, $fma:ident) => {
        /// `o[r·n + 0..L·W] += Σ_t a[r·ra + t·sa] · b[t·n + 0..L·W]` for
        /// r < R, L lanes per register: an R-row × W-register tile walked
        /// down d depth steps. Each output element is one fused-multiply-add
        /// chain in depth order, starting from its value in `o`.
        #[target_feature(enable = $feat)]
        #[inline]
        // SAFETY: caller guarantees the features and in-bounds pointers — a
        // for R rows at stride ra of d reads at stride sa, b for d rows of
        // ≥ L·W floats at stride n, o for R rows of L·W floats at stride n.
        unsafe fn tile<const R: usize, const W: usize>(
            d: usize,
            n: usize,
            a: *const f32,
            ra: usize,
            sa: usize,
            b: *const f32,
            o: *mut f32,
        ) {
            let mut c = [[$zero(); W]; R];
            for (r, cr) in c.iter_mut().enumerate() {
                for (w, cv) in cr.iter_mut().enumerate() {
                    *cv = $load(o.add(r * n + $lanes * w));
                }
            }
            let (mut pa, mut pb) = (a, b);
            for _ in 0..d {
                let mut av = [$zero(); R];
                for (r, v) in av.iter_mut().enumerate() {
                    *v = $set1(*pa.add(r * ra));
                }
                for w in 0..W {
                    let bw = $load(pb.add($lanes * w));
                    for (cr, &ar) in c.iter_mut().zip(&av) {
                        cr[w] = $fma(ar, bw, cr[w]);
                    }
                }
                pa = pa.add(sa);
                pb = pb.add(n);
            }
            for (r, cr) in c.iter().enumerate() {
                for (w, cv) in cr.iter().enumerate() {
                    $store(o.add(r * n + $lanes * w), *cv);
                }
            }
        }

        /// [`tile`] down all `rows`: R rows at a time, then two, then one.
        #[target_feature(enable = $feat)]
        #[inline]
        #[allow(clippy::too_many_arguments)]
        // SAFETY: as [`tile`], for `rows` rows.
        unsafe fn sweep<const R: usize, const W: usize>(
            rows: usize,
            d: usize,
            n: usize,
            a: *const f32,
            ra: usize,
            sa: usize,
            b: *const f32,
            o: *mut f32,
        ) {
            let mut i = 0;
            while i + R <= rows {
                tile::<R, W>(d, n, a.add(i * ra), ra, sa, b, o.add(i * n));
                i += R;
            }
            while i + 2 <= rows {
                tile::<2, W>(d, n, a.add(i * ra), ra, sa, b, o.add(i * n));
                i += 2;
            }
            while i < rows {
                tile::<1, W>(d, n, a.add(i * ra), ra, sa, b, o.add(i * n));
                i += 1;
            }
        }
    };
}

/// Explicit AVX2+FMA microkernels (x86-64 only), dispatched once [`width`]
/// confirms the features at runtime.
///
/// Rustc's autovectorizer handles the streaming `out += α·b_row` update but
/// will not reassociate dot-product reductions under strict FP semantics and
/// spills multi-row accumulator tiles to the stack; writing the tiles with
/// intrinsics keeps eight independent fused-multiply-add chains resident in
/// ymm registers, which is what it takes to approach single-core FMA
/// throughput at DDPG layer shapes (64-row minibatches, 16–256-wide layers).
/// The portable bodies spell out the same arithmetic per element, so the two
/// agree bit for bit (`kernels::tests`).
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    gaxpy_tiles!(
        "avx2,fma",
        8,
        _mm256_setzero_ps,
        _mm256_loadu_ps,
        _mm256_storeu_ps,
        _mm256_set1_ps,
        _mm256_fmadd_ps
    );

    /// Shared driver for `matmul` / `t_matmul` over columns `j0..n`: both
    /// are `out[i][j] += Σ_t a(i, t) · b[t][j]` with `a(i, t) = a[i·ra + t·sa]`
    /// (row-major reads for `matmul`: ra = k, sa = 1; column reads for
    /// `t_matmul`: ra = 1, sa = c). Tiles 2 rows × 32 columns, then 8-column
    /// strips, then a scalar tail for the last `n mod 8` columns.
    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::too_many_arguments)]
    // SAFETY: caller guarantees AVX2+FMA; `a` must hold every index
    // `i·ra + t·sa` (i < rows, t < d), `b` d rows of n floats, `out` rows·n.
    pub(super) unsafe fn gaxpy(
        rows: usize,
        d: usize,
        n: usize,
        j0: usize,
        a: *const f32,
        ra: usize,
        sa: usize,
        b: *const f32,
        out: *mut f32,
    ) {
        let mut j = j0;
        while j + 32 <= n {
            sweep::<2, 4>(rows, d, n, a, ra, sa, b.add(j), out.add(j));
            j += 32;
        }
        while j + 8 <= n {
            sweep::<2, 1>(rows, d, n, a, ra, sa, b.add(j), out.add(j));
            j += 8;
        }
        for jj in j..n {
            let mut i = 0;
            while i + 4 <= rows {
                column::<4>(d, n, a.add(i * ra), ra, sa, b.add(jj), out.add(i * n + jj));
                i += 4;
            }
            while i < rows {
                column::<1>(d, n, a.add(i * ra), ra, sa, b.add(jj), out.add(i * n + jj));
                i += 1;
            }
        }
    }

    /// The scalar tail: `o[r·n] += Σ_t a[r·ra + t·sa] · b[t·n]` for r < R,
    /// one column. Each element is the unfused `+=` chain in depth order,
    /// its running sum held in a register across the walk.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    // SAFETY: caller guarantees AVX2+FMA and in-bounds pointers — a for R
    // rows at stride ra of d reads at stride sa, b for d reads at stride n,
    // o for R read-writes at stride n.
    unsafe fn column<const R: usize>(
        d: usize,
        n: usize,
        a: *const f32,
        ra: usize,
        sa: usize,
        b: *const f32,
        o: *mut f32,
    ) {
        let mut s = [0.0f32; R];
        for (r, v) in s.iter_mut().enumerate() {
            *v = *o.add(r * n);
        }
        for t in 0..d {
            let bv = *b.add(t * n);
            for (r, v) in s.iter_mut().enumerate() {
                *v += *a.add(r * ra + t * sa) * bv;
            }
        }
        for (r, v) in s.iter().enumerate() {
            *o.add(r * n) = *v;
        }
    }

    /// AVX2 `out += a · b` (see [`super::matmul`] for the shape contract).
    #[target_feature(enable = "avx2,fma")]
    // SAFETY: caller guarantees AVX2+FMA and asserts the slice lengths
    // (a: m·k, b: k·n, out: m·n), which bound every pointer in `gaxpy`.
    pub(super) unsafe fn matmul(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        gaxpy(m, k, n, 0, a.as_ptr(), k, 1, b.as_ptr(), out.as_mut_ptr())
    }

    /// AVX2 `out += aᵀ · b` (see [`super::t_matmul`] for the shape contract).
    #[target_feature(enable = "avx2,fma")]
    // SAFETY: caller guarantees AVX2+FMA and asserts the slice lengths
    // (a: r·c, b: r·n, out: c·n); `gaxpy` then reads `a[t·c + i]` (i < c,
    // t < r), all in bounds.
    pub(super) unsafe fn t_matmul(r: usize, c: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        gaxpy(c, r, n, 0, a.as_ptr(), 1, c, b.as_ptr(), out.as_mut_ptr())
    }

    /// Horizontal sum of one 8-lane vector.
    #[target_feature(enable = "avx2")]
    #[inline]
    // SAFETY: register-only ops; caller guarantees AVX2.
    pub(super) unsafe fn hsum(v: __m256) -> f32 {
        let q = _mm_add_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps(v, 1));
        let d = _mm_add_ps(q, _mm_movehl_ps(q, q));
        _mm_cvtss_f32(_mm_add_ss(d, _mm_shuffle_ps(d, d, 1)))
    }

    /// `R × 4` simultaneous k-length dot products: `R` `a` rows (at stride
    /// k) against four consecutive `b` rows (at stride k), accumulated into
    /// `o[r][0..4]` (row r at `o + r·ldo`). One 8-lane FMA chain per output,
    /// each `b` load serving all `R` rows; every output's arithmetic — its
    /// chain, `hsum`, scalar tail in k order, final `+=` — is the same for
    /// any `R`, so the 2-row tile and the 1-row form agree bit for bit.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    // SAFETY: caller guarantees AVX2+FMA; a valid for R rows of k reads at
    // stride k, b for 4 rows of k reads at stride k, o for 4 read-writes in
    // each of R rows at stride ldo.
    unsafe fn dot_rx4<const R: usize>(k: usize, a: *const f32, b: *const f32, o: *mut f32, ldo: usize) {
        // c[r][j] accumulates output (r, j), one chain each.
        let mut c = [[_mm256_setzero_ps(); 4]; R];
        let mut kk = 0;
        while kk + 8 <= k {
            let mut av = [_mm256_setzero_ps(); R];
            for (r, v) in av.iter_mut().enumerate() {
                *v = _mm256_loadu_ps(a.add(r * k + kk));
            }
            let mut bv = [_mm256_setzero_ps(); 4];
            for (j, v) in bv.iter_mut().enumerate() {
                *v = _mm256_loadu_ps(b.add(j * k + kk));
            }
            for (cr, &ar) in c.iter_mut().zip(&av) {
                for (cv, &bj) in cr.iter_mut().zip(&bv) {
                    *cv = _mm256_fmadd_ps(ar, bj, *cv);
                }
            }
            kk += 8;
        }
        let mut s = [[0.0f32; 4]; R];
        for (sr, cr) in s.iter_mut().zip(&c) {
            for (sv, cv) in sr.iter_mut().zip(cr) {
                *sv = hsum(*cv);
            }
        }
        dot_finish(k, kk, a, b, s, o, ldo);
    }

    /// The end every `R × 4` dot tile shares: the scalar tail from `kk` in k
    /// order on top of the chains' sums `s`, then `o[r][j] += s[r][j]`.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    // SAFETY: caller guarantees AVX2+FMA and the pointer contract of
    // [`dot_rx4`].
    pub(super) unsafe fn dot_finish<const R: usize>(
        k: usize,
        mut kk: usize,
        a: *const f32,
        b: *const f32,
        mut s: [[f32; 4]; R],
        o: *mut f32,
        ldo: usize,
    ) {
        while kk < k {
            for (r, sr) in s.iter_mut().enumerate() {
                let av = *a.add(r * k + kk);
                for (j, sv) in sr.iter_mut().enumerate() {
                    *sv += av * *b.add(j * k + kk);
                }
            }
            kk += 1;
        }
        for (r, sr) in s.iter().enumerate() {
            for (j, sv) in sr.iter().enumerate() {
                *o.add(r * ldo + j) += sv;
            }
        }
    }

    /// One k-length dot product (two interleaved chains), accumulated into
    /// `*o`; the tail form of [`dot_rx4`].
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    // SAFETY: caller guarantees AVX2+FMA; a and b valid for k reads, o for
    // one read-write.
    pub(super) unsafe fn dot1(k: usize, a: *const f32, b: *const f32, o: *mut f32) {
        let mut c0 = _mm256_setzero_ps();
        let mut c1 = _mm256_setzero_ps();
        let mut kk = 0;
        while kk + 16 <= k {
            c0 = _mm256_fmadd_ps(_mm256_loadu_ps(a.add(kk)), _mm256_loadu_ps(b.add(kk)), c0);
            c1 = _mm256_fmadd_ps(
                _mm256_loadu_ps(a.add(kk + 8)),
                _mm256_loadu_ps(b.add(kk + 8)),
                c1,
            );
            kk += 16;
        }
        if kk + 8 <= k {
            c0 = _mm256_fmadd_ps(_mm256_loadu_ps(a.add(kk)), _mm256_loadu_ps(b.add(kk)), c0);
            kk += 8;
        }
        let mut s = hsum(_mm256_add_ps(c0, c1));
        while kk < k {
            s += *a.add(kk) * *b.add(kk);
            kk += 1;
        }
        *o += s;
    }

    /// AVX2 `out += a · bᵀ` (see [`super::matmul_t`] for the shape
    /// contract): a 2-row × 4-column register tile — eight simultaneous dot
    /// products, each `b` load feeding both rows — then a 1-row pass for an
    /// odd last row, and [`dot1`] for the last `n mod 4` columns.
    #[target_feature(enable = "avx2,fma")]
    // SAFETY: caller guarantees AVX2+FMA and asserts the slice lengths
    // (a: m·k, b: n·k, out: m·n), which bound every dot-product pointer.
    pub(super) unsafe fn matmul_t(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        let (ap, bp, op) = (a.as_ptr(), b.as_ptr(), out.as_mut_ptr());
        let mut i = 0;
        while i < m {
            let (ar, or) = (ap.add(i * k), op.add(i * n));
            let rows = if i + 2 <= m { 2 } else { 1 };
            let mut j = 0;
            while j + 4 <= n {
                if rows == 2 {
                    dot_rx4::<2>(k, ar, bp.add(j * k), or.add(j), n);
                } else {
                    dot_rx4::<1>(k, ar, bp.add(j * k), or.add(j), n);
                }
                j += 4;
            }
            while j < n {
                for r in 0..rows {
                    dot1(k, ar.add(r * k), bp.add(j * k), or.add(r * n + j));
                }
                j += 1;
            }
            i += rows;
        }
    }

    /// AVX2 `tanh` — the portable polynomial body recompiled with AVX2+FMA
    /// codegen (it is branchless and lane-independent, so the
    /// autovectorizer handles it once wide FMA is available).
    #[target_feature(enable = "avx2,fma")]
    // SAFETY: no unsafe operations inside — the attribute only changes
    // codegen; callers must (and do, via `width`) verify AVX2+FMA.
    pub(super) unsafe fn tanh(xs: &[f32], out: &mut [f32]) {
        super::tanh_body(xs, out)
    }

    /// AVX2 `adam`: the portable body recompiled, as `tanh`. Square root
    /// and division are correctly rounded at every width, and rustc fuses
    /// no multiply-add it was not asked to, so the bits are the portable
    /// body's.
    #[target_feature(enable = "avx2,fma")]
    // SAFETY: as `tanh`.
    pub(super) unsafe fn adam(h: super::AdamStep, w: &mut [f32], g: &[f32], m: &mut [f32], v: &mut [f32]) {
        super::adam_body(h, w, g, m, v)
    }

    /// AVX2 `polyak`: the portable body recompiled, as `tanh`.
    #[target_feature(enable = "avx2,fma")]
    // SAFETY: as `tanh`.
    pub(super) unsafe fn polyak(dst: &mut [f32], src: &[f32], tau: f32) {
        super::polyak_body(dst, src, tau)
    }

    /// AVX2 `sum_sq`: the portable body recompiled, as `tanh`.
    #[target_feature(enable = "avx2,fma")]
    // SAFETY: as `tanh`.
    pub(super) unsafe fn sum_sq(xs: &[f32]) -> f64 {
        super::sum_sq_body(xs)
    }
}

/// AVX-512 (16-lane) microkernels for the three products, dispatched when
/// [`width`] confirms AVX-512F/DQ and the minibatch dimension reaches
/// [`WIDE_MIN`]. Every output element keeps the arithmetic [`avx2`] gives
/// it, so the two families agree bit for bit (`kernels::tests`): only the
/// columns a 16-lane register covers move, the rest run the AVX2 code.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::avx2;
    use std::arch::x86_64::*;

    gaxpy_tiles!(
        "avx512f,avx512dq,avx2,fma",
        16,
        _mm512_setzero_ps,
        _mm512_loadu_ps,
        _mm512_storeu_ps,
        _mm512_set1_ps,
        _mm512_fmadd_ps
    );

    /// [`avx2::gaxpy`]'s contract. Columns `0..16⌊n/16⌋` run 8-row ×
    /// 32-column tiles (sixteen chains, enough to cover the FMA latency on
    /// two ports) and a 16-column strip; the rest go to [`avx2::gaxpy`] (its
    /// 8-column strip and scalar tail).
    #[target_feature(enable = "avx512f,avx512dq,avx2,fma")]
    #[allow(clippy::too_many_arguments)]
    // SAFETY: caller guarantees AVX-512F/DQ and AVX2+FMA, and the pointer
    // contract of `avx2::gaxpy`.
    unsafe fn gaxpy(
        rows: usize,
        d: usize,
        n: usize,
        a: *const f32,
        ra: usize,
        sa: usize,
        b: *const f32,
        out: *mut f32,
    ) {
        let n16 = n / 16 * 16;
        let mut j = 0;
        while j + 32 <= n {
            sweep::<8, 2>(rows, d, n, a, ra, sa, b.add(j), out.add(j));
            j += 32;
        }
        if j < n16 {
            sweep::<8, 1>(rows, d, n, a, ra, sa, b.add(j), out.add(j));
        }
        avx2::gaxpy(rows, d, n, n16, a, ra, sa, b, out)
    }

    /// AVX-512 `out += a · b` (see [`super::matmul`]).
    #[target_feature(enable = "avx512f,avx512dq,avx2,fma")]
    // SAFETY: as `avx2::matmul`, plus AVX-512F/DQ.
    pub(super) unsafe fn matmul(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        gaxpy(m, k, n, a.as_ptr(), k, 1, b.as_ptr(), out.as_mut_ptr())
    }

    /// AVX-512 `out += aᵀ · b` (see [`super::t_matmul`]).
    #[target_feature(enable = "avx512f,avx512dq,avx2,fma")]
    // SAFETY: as `avx2::t_matmul`, plus AVX-512F/DQ.
    pub(super) unsafe fn t_matmul(r: usize, c: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        gaxpy(c, r, n, a.as_ptr(), 1, c, b.as_ptr(), out.as_mut_ptr())
    }

    /// `avx2::dot_rx4::<4>` with two rows per register, one per 8-lane
    /// half: each 8-float slice of a `b` row is broadcast to both halves, so
    /// every half runs the 8-lane chain AVX2 runs for its output. The sixteen
    /// chains then go through `avx2::hsum`'s tree side by side — the same
    /// additions in the same operand order — and the same scalar tail and
    /// final `+=`.
    #[target_feature(enable = "avx512f,avx512dq,avx2,fma")]
    #[inline]
    // SAFETY: caller guarantees the features and `avx2::dot_rx4`'s pointer
    // contract for R = 4.
    unsafe fn dot4x4(k: usize, a: *const f32, b: *const f32, o: *mut f32, ldo: usize) {
        // c[h][j] accumulates output (2h, j) in its low half, (2h + 1, j) in
        // its high half.
        let mut c = [[_mm512_setzero_ps(); 4]; 2];
        let mut kk = 0;
        while kk + 8 <= k {
            let mut bv = [_mm512_setzero_ps(); 4];
            for (j, v) in bv.iter_mut().enumerate() {
                *v = _mm512_broadcast_f32x8(_mm256_loadu_ps(b.add(j * k + kk)));
            }
            for (h, ch) in c.iter_mut().enumerate() {
                let lo = _mm512_castps256_ps512(_mm256_loadu_ps(a.add(2 * h * k + kk)));
                let ah = _mm512_insertf32x8::<1>(lo, _mm256_loadu_ps(a.add((2 * h + 1) * k + kk)));
                for (cv, &bj) in ch.iter_mut().zip(&bv) {
                    *cv = _mm512_fmadd_ps(ah, bj, *cv);
                }
            }
            kk += 8;
        }
        // `hsum` of chain v is ((v0 + v4) + (v2 + v6)) + ((v1 + v5) + (v3 + v7)).
        // First v[0..4] + v[4..8]: q[j] holds column j's, one row per
        // 128-bit quarter.
        let mut q = [_mm512_setzero_ps(); 4];
        for (j, qj) in q.iter_mut().enumerate() {
            let (x, y) = (c[0][j], c[1][j]);
            *qj = _mm512_add_ps(
                _mm512_shuffle_f32x4::<0b10_00_10_00>(x, y),
                _mm512_shuffle_f32x4::<0b11_01_11_01>(x, y),
            );
        }
        // Then q[0..2] + q[2..4], two columns per register: [d0, d1] of
        // column 2p, then of column 2p + 1, in each row's quarter.
        let mut d = [_mm512_setzero_ps(); 2];
        for (p, dp) in d.iter_mut().enumerate() {
            let (x, y) = (q[2 * p], q[2 * p + 1]);
            *dp = _mm512_add_ps(
                _mm512_shuffle_ps::<0b01_00_01_00>(x, y),
                _mm512_shuffle_ps::<0b11_10_11_10>(x, y),
            );
        }
        // Last d0 + d1: row r's four sums in quarter r.
        let sums = _mm512_add_ps(
            _mm512_shuffle_ps::<0b10_00_10_00>(d[0], d[1]),
            _mm512_shuffle_ps::<0b11_01_11_01>(d[0], d[1]),
        );
        let mut s = [[0.0f32; 4]; 4];
        _mm512_storeu_ps(s.as_mut_ptr().cast(), sums);
        avx2::dot_finish(k, kk, a, b, s, o, ldo);
    }

    /// AVX-512 `out += a · bᵀ` (see [`super::matmul_t`]): 4-row × 4-column
    /// tiles over blocks of 32 columns, `avx2::dot1` for the last `n mod 4`
    /// columns, and `avx2::matmul_t` for the last `m mod 4` rows.
    #[target_feature(enable = "avx512f,avx512dq,avx2,fma")]
    // SAFETY: as `avx2::matmul_t`, plus AVX-512F/DQ.
    pub(super) unsafe fn matmul_t(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        let (m4, n4) = (m / 4 * 4, n / 4 * 4);
        let (ap, bp, op) = (a.as_ptr(), b.as_ptr(), out.as_mut_ptr());
        for j0 in (0..n4).step_by(32) {
            for i in (0..m4).step_by(4) {
                for j in (j0..n4.min(j0 + 32)).step_by(4) {
                    dot4x4(k, ap.add(i * k), bp.add(j * k), op.add(i * n + j), n);
                }
            }
        }
        for i in 0..m4 {
            for j in n4..n {
                avx2::dot1(k, ap.add(i * k), bp.add(j * k), op.add(i * n + j));
            }
        }
        avx2::matmul_t(m - m4, k, n, &a[m4 * k..], b, &mut out[m4 * n..]);
    }
}

/// The pre-optimization reference loops, kept for differential testing and
/// as the baseline leg of the perf harness. Semantics (accumulate into
/// `out`) and argument order match the kernels above.
pub mod naive {
    /// `out += a · b` — the original i-k-j loop, including its data-dependent
    /// `a == 0.0` skip.
    pub fn matmul(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        debug_assert_eq!(a.len(), m * k);
        debug_assert_eq!(b.len(), k * n);
        debug_assert_eq!(out.len(), m * n);
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            let out_row = &mut out[i * n..(i + 1) * n];
            for (kk, &av) in a_row.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let b_row = &b[kk * n..(kk + 1) * n];
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o += av * bv;
                }
            }
        }
    }

    /// `out += aᵀ · b` — the original per-row scatter loop.
    pub fn t_matmul(r: usize, c: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        debug_assert_eq!(a.len(), r * c);
        debug_assert_eq!(b.len(), r * n);
        debug_assert_eq!(out.len(), c * n);
        for rr in 0..r {
            let a_row = &a[rr * c..(rr + 1) * c];
            let b_row = &b[rr * n..(rr + 1) * n];
            for (i, &av) in a_row.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let out_row = &mut out[i * n..(i + 1) * n];
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o += av * bv;
                }
            }
        }
    }

    /// `out += a · bᵀ` — the original single-accumulator dot-product loop.
    pub fn matmul_t(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        debug_assert_eq!(a.len(), m * k);
        debug_assert_eq!(b.len(), n * k);
        debug_assert_eq!(out.len(), m * n);
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            let out_row = &mut out[i * n..(i + 1) * n];
            for (j, o) in out_row.iter_mut().enumerate() {
                let b_row = &b[j * k..(j + 1) * k];
                let mut acc = 0.0f32;
                for (&av, &bv) in a_row.iter().zip(b_row) {
                    acc += av * bv;
                }
                *o += acc;
            }
        }
    }

    /// `out[i] = tanh(xs[i])` — the original per-element libm call.
    pub fn tanh(xs: &[f32], out: &mut [f32]) {
        debug_assert_eq!(xs.len(), out.len());
        for (o, &x) in out.iter_mut().zip(xs) {
            *o = x.tanh();
        }
    }
}

#[cfg(test)]
mod tests {
    //! Differential tests: the fast kernels must agree with the retained
    //! naive loops within 1e-5 relative error across randomized shapes,
    //! including degenerate (1-row/1-column) and non-multiple-of-block
    //! sizes, and including ReLU-style sparse inputs that exercised the old
    //! `a == 0.0` shortcut.
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn assert_close(fast: &[f32], reference: &[f32], what: &str) {
        assert_eq!(fast.len(), reference.len());
        for (idx, (&f, &r)) in fast.iter().zip(reference).enumerate() {
            let tol = 1e-5 * (1.0 + r.abs());
            assert!(
                (f - r).abs() <= tol,
                "{what}: element {idx} diverged: fast {f} vs naive {r}"
            );
        }
    }

    fn random_vec(rng: &mut StdRng, len: usize, sparsity: f64) -> Vec<f32> {
        (0..len)
            .map(|_| {
                if rng.gen_bool(sparsity) {
                    0.0
                } else {
                    rng.gen_range(-2.0f32..2.0)
                }
            })
            .collect()
    }

    /// Shape set: degenerate 1s, odd remainders around the 4- and 8-wide
    /// tiles, and long and wide products.
    fn shapes() -> Vec<(usize, usize, usize)> {
        vec![
            (1, 1, 1),
            (1, 7, 5),
            (5, 1, 3),
            (3, 4, 1),
            (2, 3, 2),
            (4, 4, 4),
            (7, 9, 11),
            (13, 17, 6),
            (32, 63, 64),
            (64, 63, 128),
            (5, 129, 7),
            (3, 130, 515),
            (2, 257, 9),
        ]
    }

    #[test]
    fn blocked_kernels_match_naive_reference() {
        let mut rng = StdRng::seed_from_u64(0xD1FF);
        for (m, k, n) in shapes() {
            for sparsity in [0.0, 0.6] {
                let a = random_vec(&mut rng, m * k, sparsity);
                let b = random_vec(&mut rng, k * n, sparsity);

                let mut fast = vec![0.0f32; m * n];
                let mut slow = vec![0.0f32; m * n];
                matmul(m, k, n, &a, &b, &mut fast);
                naive::matmul(m, k, n, &a, &b, &mut slow);
                assert_close(&fast, &slow, &format!("matmul {m}x{k}x{n} sp{sparsity}"));

                // Aᵀ·B with A reinterpreted as k x m so shapes agree.
                let mut fast = vec![0.0f32; m * n];
                let mut slow = vec![0.0f32; m * n];
                let at = random_vec(&mut rng, k * m, sparsity);
                t_matmul(k, m, n, &at, &b, &mut fast);
                naive::t_matmul(k, m, n, &at, &b, &mut slow);
                assert_close(&fast, &slow, &format!("t_matmul {k}x{m}x{n} sp{sparsity}"));

                // A·Bᵀ with B reinterpreted as n x k.
                let mut fast = vec![0.0f32; m * n];
                let mut slow = vec![0.0f32; m * n];
                let bt = random_vec(&mut rng, n * k, sparsity);
                matmul_t(m, k, n, &a, &bt, &mut fast);
                naive::matmul_t(m, k, n, &a, &bt, &mut slow);
                assert_close(&fast, &slow, &format!("matmul_t {m}x{k}x{n} sp{sparsity}"));
            }
        }
    }

    #[test]
    fn row_tiled_matmul_t_equals_row_at_a_time_bit_for_bit() {
        // The 2-row tile must give every output the arithmetic a 1-row call
        // gives it: same 8-lane chains, same `hsum`, same `dot1` columns.
        let mut rng = StdRng::seed_from_u64(0x7113);
        for m in [1, 2, 3, 5, 32] {
            for n in [1, 3, 4, 5, 63, 127] {
                for k in [1, 7, 8, 9, 256] {
                    let a = random_vec(&mut rng, m * k, 0.0);
                    let b = random_vec(&mut rng, n * k, 0.0);
                    let seed = random_vec(&mut rng, m * n, 0.0);
                    let mut tiled = seed.clone();
                    matmul_t(m, k, n, &a, &b, &mut tiled);
                    let mut rows = seed;
                    for (a_row, out_row) in a.chunks(k).zip(rows.chunks_mut(n)) {
                        matmul_t(1, k, n, a_row, &b, out_row);
                    }
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&tiled), bits(&rows), "matmul_t {m}x{k}x{n}");
                }
            }
        }
    }

    /// Every family this host runs against the portable bodies, bit for
    /// bit: AVX2 and AVX-512 called module to module, and the gated
    /// dispatch. The grid covers every column remainder class
    /// (n mod 16 ∈ {0, 1, 7, 8, 9, 15}, n < 8), rows on both sides of
    /// [`WIDE_MIN`] and of every row-tile remainder, and depth 0 and depth
    /// on both sides of a multiple of 8, 16 and 64. Two input sets: random
    /// factors into an `out` mixed with ±0.0, subnormals and large values;
    /// and tiny factors of opposite sign into `-0.0`, where every product
    /// underflows to `-0.0`, so a sum that picks up a stray `+0.0` shows.
    /// Where every column is in the scalar tail (n < 8), the two streaming
    /// products also equal the naive loops: per element the same unfused
    /// `+=` chain in depth order (no zero in `a` to skip).
    #[test]
    fn every_family_equals_the_portable_products_bit_for_bit() {
        type Product = fn(usize, usize, usize, &[f32], &[f32], &mut [f32]);
        let portable: [Product; 3] = [
            |m, k, n, a, b, o| gaxpy_body(m, k, n, a, k, 1, b, o),
            |r, c, n, a, b, o| gaxpy_body(c, r, n, a, 1, c, b, o),
            matmul_t_body,
        ];
        #[cfg_attr(not(target_arch = "x86_64"), allow(unused_mut))]
        let mut families: Vec<(&str, [Product; 3])> = vec![("dispatch", [matmul, t_matmul, matmul_t])];
        // SAFETY: (every wrapper below) `width` confirmed each feature the
        // modules enable; the kernels' own asserts ran in the callers'
        // shapes below, which match each slice length.
        #[cfg(target_arch = "x86_64")]
        if width() != Width::Portable {
            families.push((
                "avx2",
                [
                    |m, k, n, a, b, o| unsafe { avx2::matmul(m, k, n, a, b, o) },
                    |r, c, n, a, b, o| unsafe { avx2::t_matmul(r, c, n, a, b, o) },
                    |m, k, n, a, b, o| unsafe { avx2::matmul_t(m, k, n, a, b, o) },
                ],
            ));
        }
        #[cfg(target_arch = "x86_64")]
        if width() == Width::Avx512 {
            families.push((
                "avx512",
                [
                    |m, k, n, a, b, o| unsafe { avx512::matmul(m, k, n, a, b, o) },
                    |r, c, n, a, b, o| unsafe { avx512::t_matmul(r, c, n, a, b, o) },
                    |m, k, n, a, b, o| unsafe { avx512::matmul_t(m, k, n, a, b, o) },
                ],
            ));
        }
        eprintln!("kernel width {}: {} families", kernel_width(), families.len());
        let names = ["matmul", "t_matmul", "matmul_t"];
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        const EDGES: [f32; 8] = [0.0, -0.0, 1.0e-45, -1.0e-40, 3.0e38, -3.0e38, 1.0e30, -1.0e20];
        let mut rng = StdRng::seed_from_u64(0x512);
        for rows in [1, 4, 7, 8, 9, 32, 33] {
            for depth in [0, 1, 7, 8, 16, 63, 64, 65, 127, 256] {
                for n in [1, 5, 7, 8, 9, 15, 16, 17, 23, 24, 25, 31, 32, 33, 64, 65] {
                    // (first, second) extents of `a` and the length of `b`:
                    // matmul is rows×depth · depth×n, t_matmul (depth×rows)ᵀ
                    // · depth×n, matmul_t rows×depth · (n×depth)ᵀ.
                    for (p, (a_dims, b_len)) in [
                        ((rows, depth), depth * n),
                        ((depth, rows), depth * n),
                        ((rows, depth), n * depth),
                    ]
                    .into_iter()
                    .enumerate()
                    {
                        let a_len = a_dims.0 * a_dims.1;
                        let edged = (0..rows * n)
                            .map(|_| {
                                if rng.gen_bool(0.5) {
                                    EDGES[rng.gen_range(0..EDGES.len())]
                                } else {
                                    rng.gen_range(-2.0f32..2.0)
                                }
                            })
                            .collect();
                        let random = (random_vec(&mut rng, a_len, 0.0), random_vec(&mut rng, b_len, 0.0), edged);
                        let underflow = (vec![1.0e-30; a_len], vec![-1.0e-30; b_len], vec![-0.0; rows * n]);
                        for (set, (a, b, seed)) in [("random", random), ("underflow", underflow)] {
                            let run = |f: Product| {
                                let mut out = seed.clone();
                                f(a_dims.0, a_dims.1, n, &a, &b, &mut out);
                                bits(&out)
                            };
                            let want = run(portable[p]);
                            let what = format!("{} {set} rows {rows} depth {depth} n {n}", names[p]);
                            for (family, products) in &families {
                                assert_eq!(run(products[p]), want, "{what}: {family}");
                            }
                            if n < 8 && p < 2 {
                                let reference = [naive::matmul, naive::t_matmul][p];
                                assert_eq!(run(reference), want, "{what}: naive");
                            }
                        }
                    }
                }
            }
        }
        elementwise_families_equal_the_portable_bodies(&mut rng);
    }

    /// The parameter-sized passes, every family against the portable
    /// bodies bit for bit: `adam` with `bc1` below and at 1.0, `polyak`, and `sum_sq` (one summation order at every width).
    /// Lengths cover every remainder of 8 and 16 lanes; inputs mix ±0.0,
    /// subnormals and large values.
    fn elementwise_families_equal_the_portable_bodies(rng: &mut StdRng) {
        type AdamFn = fn(AdamStep, &mut [f32], &[f32], &mut [f32], &mut [f32]);
        type PolyakFn = fn(&mut [f32], &[f32], f32);
        type SumSqFn = fn(&[f32]) -> f64;
        #[cfg_attr(not(target_arch = "x86_64"), allow(unused_mut))]
        let mut families: Vec<(&str, AdamFn, PolyakFn, SumSqFn)> = vec![("dispatch", adam, polyak, sum_sq)];
        // SAFETY: (every wrapper below) `width` confirmed AVX2+FMA.
        #[cfg(target_arch = "x86_64")]
        if width() != Width::Portable {
            families.push((
                "avx2",
                |h, w, g, m, v| unsafe { avx2::adam(h, w, g, m, v) },
                |d, s, tau| unsafe { avx2::polyak(d, s, tau) },
                |xs| unsafe { avx2::sum_sq(xs) },
            ));
        }
        const EDGES: [f32; 6] = [0.0, -0.0, 1.0e-45, -1.0e-40, 3.0e30, -1.0e-20];
        let mut edged = |len: usize, positive: bool| -> Vec<f32> {
            (0..len)
                .map(|_| {
                    let x = if rng.gen_bool(0.2) { EDGES[rng.gen_range(0..EDGES.len())] } else { rng.gen_range(-2.0f32..2.0) };
                    if positive { x.abs() } else { x }
                })
                .collect()
        };
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for len in [0, 1, 7, 8, 9, 15, 16, 17, 31, 33, 255, 1024] {
            let (w, g, m, v) = (edged(len, false), edged(len, false), edged(len, false), edged(len, true));
            for (bc1, bc2) in [(0.1, 0.001), (0.99999994, 0.8), (1.0, 0.8)] {
                let h = AdamStep { lr: 1e-3, b1: 0.9, b2: 0.999, eps: 1e-8, bc1, bc2 };
                let run = |f: AdamFn| {
                    let (mut w, mut m, mut v) = (w.clone(), m.clone(), v.clone());
                    f(h, &mut w, &g, &mut m, &mut v);
                    [bits(&w), bits(&m), bits(&v)]
                };
                let want = run(adam_body);
                for (family, f, _, _) in &families {
                    assert_eq!(run(*f), want, "adam len {len} bc ({bc1}, {bc2}): {family}");
                }
            }
            let blend = |f: PolyakFn| {
                let mut d = w.clone();
                f(&mut d, &g, 0.01);
                bits(&d)
            };
            let want = blend(polyak_body);
            let want_sq = sum_sq_body(&g).to_bits();
            for (family, _, f, sq) in &families {
                assert_eq!(blend(*f), want, "polyak len {len}: {family}");
                assert_eq!(sq(&g).to_bits(), want_sq, "sum_sq len {len}: {family}");
            }
        }
    }

    /// The tanh body as written before it vectorized: `min`, `as i32` and
    /// `copysign`, the reference the bit-level rewrite must reproduce.
    fn scalar_tanh(x: f32) -> f32 {
        const C: [f32; 6] =
            [std::f32::consts::LN_2, 0.240_226_5, 0.055_504_11, 0.009_618_129, 0.001_333_355_8, 0.000_154_035_3];
        const ROUND: f32 = 12_582_912.0;
        let y = 2.0 * std::f32::consts::LOG2_E * x.abs().min(12.0);
        let nf = (y + ROUND) - ROUND;
        let f = y - nf;
        let p = 1.0 + f * (C[0] + f * (C[1] + f * (C[2] + f * (C[3] + f * (C[4] + f * C[5])))));
        let e = p * f32::from_bits((((nf as i32) + 127) << 23) as u32);
        (1.0 - 2.0 / (e + 1.0)).copysign(x)
    }

    #[test]
    fn fast_tanh_bits_match_the_scalar_formulation() {
        let mut xs = vec![
            0.0,
            -0.0,
            f32::from_bits(1),
            -f32::from_bits(1),
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE * 0.5,
            12.0,
            -12.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::MAX,
        ];
        // Every 4099th bit pattern: all exponents, both signs, NaN payloads.
        xs.extend((0..=u32::MAX).step_by(4099).map(f32::from_bits));
        let mut fast = vec![0.0f32; xs.len()];
        tanh(&xs, &mut fast);
        for (&x, &t) in xs.iter().zip(&fast) {
            assert_eq!(t.to_bits(), scalar_tanh(x).to_bits(), "tanh({x:e}) bits {:#x}", x.to_bits());
        }
    }

    #[test]
    fn kernels_accumulate_rather_than_overwrite() {
        let a = [1.0f32, 2.0];
        let b = [3.0f32, 4.0];
        let mut out = [10.0f32];
        // 1x2 · 2x1 = [11]; accumulated on top of 10.
        matmul(1, 2, 1, &a, &b, &mut out);
        assert_eq!(out, [21.0]);
        let mut out = [10.0f32];
        naive::matmul(1, 2, 1, &a, &b, &mut out);
        assert_eq!(out, [21.0]);
    }

    #[test]
    fn fast_tanh_matches_libm_within_2e6() {
        // Dense sweep across the active region plus deep saturation.
        let xs: Vec<f32> = (-4800..=4800).map(|i| i as f32 * 0.0025).collect();
        let mut fast = vec![0.0f32; xs.len()];
        tanh(&xs, &mut fast);
        let mut worst = 0.0f32;
        for (&x, &t) in xs.iter().zip(&fast) {
            let r = x.tanh();
            worst = worst.max((t - r).abs());
            assert!((t - r).abs() <= 2e-6, "tanh({x}): fast {t} vs libm {r}");
        }
        assert!(worst > 0.0, "sweep should exercise inexact values");
        assert!(fast.iter().all(|t| t.abs() <= 1.0));
    }

    #[test]
    fn fast_tanh_handles_edge_values() {
        let mut out = [0.0f32; 5];
        tanh(&[0.0, -0.0, 30.0, -30.0, 1e-20], &mut out);
        assert_eq!(out[0], 0.0);
        assert_eq!(out[1], 0.0);
        assert_eq!(out[2], 1.0);
        assert_eq!(out[3], -1.0);
        assert!(out[4].abs() <= 1e-19);
        // Odd symmetry: tanh(-x) == -tanh(x) exactly (sign is a bit op).
        let xs: Vec<f32> = (1..50).map(|i| i as f32 * 0.17).collect();
        let neg: Vec<f32> = xs.iter().map(|x| -x).collect();
        let mut pos_out = vec![0.0f32; xs.len()];
        let mut neg_out = vec![0.0f32; xs.len()];
        tanh(&xs, &mut pos_out);
        tanh(&neg, &mut neg_out);
        for (p, n) in pos_out.iter().zip(&neg_out) {
            assert_eq!(*p, -*n);
        }
    }

    #[test]
    fn naive_tanh_is_libm() {
        let xs = [-2.0f32, -0.5, 0.0, 0.5, 2.0];
        let mut out = [0.0f32; 5];
        naive::tanh(&xs, &mut out);
        for (&x, &t) in xs.iter().zip(&out) {
            assert_eq!(t, x.tanh());
        }
    }

    #[test]
    fn mode_switch_round_trips() {
        assert_eq!(kernel_mode(), KernelMode::Blocked);
        set_kernel_mode(KernelMode::Naive);
        assert_eq!(kernel_mode(), KernelMode::Naive);
        set_kernel_mode(KernelMode::Blocked);
        assert_eq!(kernel_mode(), KernelMode::Blocked);
    }
}
