//! The AVX2 body of `pair_update`, bit-identical to the portable one.
//!
//! The bits are equal because every f32 operation is the portable body's,
//! in the same order per value:
//!
//! - The dot holds `train_dot`'s eight partial sums as the eight lanes of
//!   one `__m256` and reduces them in the same `((h0 + h1) + (h2 + h3)) +
//!   tail` tree, with the same scalar tail.
//! - Products and sums are separate multiply and add instructions, never a
//!   fused multiply-add, whose single rounding would change the result.
//! - Element-wise updates are the portable loops eight lanes at a time.
//! - The target dots are taken before any update, which lets the loads of
//!   the pair's rows overlap. An update changes only its own target row
//!   and bias, and `S_u` only at the end, so a dot taken early equals the
//!   one the sequential loop takes, unless its row repeats an earlier
//!   target of the pair. Such a row is dotted again after the earlier
//!   update, where the sequential loop dots it.

use std::arch::x86_64::{
    __m256, _mm256_add_ps, _mm256_castps256_ps128, _mm256_extractf128_ps, _mm256_loadu_ps,
    _mm256_mul_ps, _mm256_set1_ps, _mm256_setzero_ps, _mm256_storeu_ps, _mm_add_ps, _mm_add_ss,
    _mm_cvtss_f32, _mm_movehl_ps, _mm_shuffle_ps,
};

use inf2vec_util::SigmoidTable;

use crate::store::EmbeddingStore;

/// Targets per pair whose dots are taken before the first update; any
/// beyond are dotted in turn, as the portable body does.
const EARLY_DOTS: usize = 16;

/// [`super::pair_update`] with AVX2.
///
/// # Safety
///
/// The CPU must support AVX2.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn pair_update(
    store: &EmbeddingStore,
    sigmoid: &SigmoidTable,
    u: u32,
    v: u32,
    negs: &[u32],
    lr: f32,
    grad: &mut [f32],
) -> f64 {
    let target = |i: usize| if i == 0 { v } else { negs[i - 1] };
    let n_targets = 1 + negs.len();
    let (mut bias_grad, mut loss) = (0.0f32, 0.0f64);
    // SAFETY (all row/row_mut calls below): source/target/bias matrices are
    // distinct allocations, and within each matrix we hold at most one row
    // borrow at a time on this thread. Cross-thread races fall under the
    // Hogwild contract documented in `hogwild`.
    unsafe {
        let su: &mut [f32] = store.source.row_mut(u as usize);
        let b_u = store.b(u);
        let mut early = [0.0f32; EARLY_DOTS];
        for (i, z) in early.iter_mut().enumerate().take(n_targets) {
            let w = target(i);
            *z = dot(su, store.target.row(w as usize)) + b_u + store.b_tilde(w);
        }
        for i in 0..n_targets {
            let w = target(i);
            let tw: &mut [f32] = store.target.row_mut(w as usize);
            let repeat = i > 0 && (v == w || negs[..i - 1].contains(&w));
            let z = if i < EARLY_DOTS && !repeat {
                early[i]
            } else {
                dot(su, tw) + b_u + store.b_tilde(w)
            };
            let (sig, ln_pos, ln_neg) = sigmoid.get_ln(z);
            // ∂logσ(z)/∂z for v, ∂logσ(-z)/∂z for a negative.
            let g = if i == 0 { 1.0 - sig } else { -sig };
            let ln = if i == 0 { ln_pos } else { ln_neg };
            let step = lr * g;
            if i == 0 {
                fold_target::<true>(grad, tw, su, g, step);
            } else {
                fold_target::<false>(grad, tw, su, g, step);
            }
            if store.use_bias {
                store.bias_tgt.row_mut(w as usize)[0] += step;
            }
            bias_grad += g;
            loss -= ln;
        }

        // Apply the accumulated center-word gradient.
        let k = su.len();
        let body = k / 8 * 8;
        let (s_body, s_tail) = su.split_at_mut(body);
        let (g_body, g_tail) = grad[..k].split_at(body);
        let lr8 = _mm256_set1_ps(lr);
        for (s, g) in s_body.chunks_exact_mut(8).zip(g_body.chunks_exact(8)) {
            // SAFETY: both chunks hold exactly eight f32s.
            let (sv, gv) = (_mm256_loadu_ps(s.as_ptr()), _mm256_loadu_ps(g.as_ptr()));
            _mm256_storeu_ps(s.as_mut_ptr(), _mm256_add_ps(sv, _mm256_mul_ps(lr8, gv)));
        }
        for (si, gi) in s_tail.iter_mut().zip(g_tail) {
            *si += lr * gi;
        }
        if store.use_bias {
            store.bias_src.row_mut(u as usize)[0] += lr * bias_grad;
        }
    }
    loss
}

/// `train_dot` with its eight partial sums in one register.
#[target_feature(enable = "avx2")]
pub(super) fn dot(x: &[f32], y: &[f32]) -> f32 {
    let body = x.len() / 8 * 8;
    let mut acc: __m256 = _mm256_setzero_ps();
    for (a, b) in x[..body].chunks_exact(8).zip(y[..body].chunks_exact(8)) {
        // SAFETY: both chunks hold exactly eight f32s.
        let (a, b) = unsafe { (_mm256_loadu_ps(a.as_ptr()), _mm256_loadu_ps(b.as_ptr())) };
        acc = _mm256_add_ps(acc, _mm256_mul_ps(a, b));
    }
    // h = [acc0 + acc4, acc1 + acc5, acc2 + acc6, acc3 + acc7].
    let h = _mm_add_ps(_mm256_castps256_ps128(acc), _mm256_extractf128_ps::<1>(acc));
    // p = [h0 + h1, h1 + h0, h2 + h3, h3 + h2].
    let p = _mm_add_ps(h, _mm_shuffle_ps::<0b10_11_00_01>(h, h));
    // (h0 + h1) + (h2 + h3) in lane 0.
    let sum = _mm_cvtss_f32(_mm_add_ss(p, _mm_movehl_ps(p, p)));
    sum + crate::hogwild::dot(&x[body..], &y[body..])
}

/// `super::fold_target` eight lanes at a time.
#[target_feature(enable = "avx2")]
fn fold_target<const FIRST: bool>(grad: &mut [f32], tw: &mut [f32], su: &[f32], g: f32, step: f32) {
    let k = tw.len();
    let body = k / 8 * 8;
    let (g_body, g_tail) = grad[..k].split_at_mut(body);
    let (t_body, t_tail) = tw.split_at_mut(body);
    let (s_body, s_tail) = su[..k].split_at(body);
    let (g8, step8) = (_mm256_set1_ps(g), _mm256_set1_ps(step));
    let chunks = g_body
        .chunks_exact_mut(8)
        .zip(t_body.chunks_exact_mut(8))
        .zip(s_body.chunks_exact(8));
    for ((gc, tc), sc) in chunks {
        // SAFETY: all three chunks hold exactly eight f32s.
        unsafe {
            let t = _mm256_loadu_ps(tc.as_ptr());
            let acc = if FIRST {
                _mm256_setzero_ps()
            } else {
                _mm256_loadu_ps(gc.as_ptr())
            };
            _mm256_storeu_ps(gc.as_mut_ptr(), _mm256_add_ps(acc, _mm256_mul_ps(g8, t)));
            let s = _mm256_loadu_ps(sc.as_ptr());
            _mm256_storeu_ps(tc.as_mut_ptr(), _mm256_add_ps(t, _mm256_mul_ps(step8, s)));
        }
    }
    super::fold_target::<FIRST>(g_tail, t_tail, s_tail, g, step);
}
