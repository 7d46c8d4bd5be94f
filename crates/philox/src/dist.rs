//! Distribution transforms over raw Philox words.
//!
//! All transforms are pure functions of their input words so that kernels
//! can combine them with the stateless [`crate::draw4`] API and stay
//! schedule-independent.

/// Map a 32-bit word to `f32` uniform in `[0, 1)` using the high 24 bits.
#[inline(always)]
pub fn uniform_f32(w: u32) -> f32 {
    // 2^-24; the high bits of a multiplicative generator are the strongest.
    (w >> 8) as f32 * (1.0 / 16_777_216.0)
}

/// Map a 64-bit word to `f64` uniform in `[0, 1)` using the high 53 bits.
#[inline(always)]
pub fn uniform_f64(w: u64) -> f64 {
    (w >> 11) as f64 * (1.0 / 9_007_199_254_740_992.0)
}

/// Lemire's nearly-divisionless bounded integer: returns `(value, accept)`.
///
/// When `accept` is false the caller must retry with a fresh word (the
/// rejection zone removes modulo bias). For `bound` ≤ 8, rejection occurs
/// with probability < 2⁻²⁹.
#[inline(always)]
pub fn lemire_bounded(w: u32, bound: u32) -> (u32, bool) {
    let m = u64::from(w) * u64::from(bound);
    let lo = m as u32;
    if lo < bound {
        // Threshold = 2^32 mod bound, computed without u64 division by bound
        // being hot: bound is tiny here so a plain rem is fine.
        let threshold = bound.wrapping_neg() % bound;
        if lo < threshold {
            return ((m >> 32) as u32, false);
        }
    }
    ((m >> 32) as u32, true)
}

/// Box–Muller from two 32-bit words: returns one standard-normal `f32`.
#[inline]
pub fn normal_f32(a: u32, b: u32) -> f32 {
    let (z0, _) = box_muller(f64::from(uniform_f32(a)), f64::from(uniform_f32(b)));
    z0 as f32
}

/// Box–Muller from two 64-bit words: returns one standard-normal `f64`.
#[inline]
pub fn normal_f64(a: u64, b: u64) -> f64 {
    let (z0, _) = box_muller(uniform_f64(a), uniform_f64(b));
    z0
}

/// The Box–Muller transform: two uniforms in `[0,1)` → two independent
/// standard normals. `u1` is nudged away from zero to keep `ln` finite.
#[inline]
pub fn box_muller(u1: f64, u2: f64) -> (f64, f64) {
    let u1 = u1.max(1e-300);
    let r = (-2.0 * u1.ln()).sqrt();
    let theta = 2.0 * std::f64::consts::PI * u2;
    (r * theta.cos(), r * theta.sin())
}

/// The paper's LEM selection draw: a normal sample with "negative numbers
/// converted to zeroes and numbers more than the highest rank rounded off to
/// the highest" (§II.A). Encapsulated here so the CPU and GPU engines share
/// one definition.
#[derive(Debug, Clone, Copy)]
pub struct ClampedNormal {
    /// Standard deviation of the underlying normal (the paper does not give
    /// one; see `pedsim-core::params::LemParams::sigma`).
    pub sigma: f64,
}

impl ClampedNormal {
    /// Create a clamped-normal sampler with the given spread.
    #[inline]
    pub fn new(sigma: f64) -> Self {
        Self { sigma }
    }

    /// Map two raw words to a rank in `[0, max_rank]` (inclusive).
    ///
    /// Negative draws clamp to rank 0 (the least-distance cell); draws past
    /// `max_rank` clamp to `max_rank`; otherwise the draw is rounded to the
    /// nearest integer rank.
    ///
    /// Half of all draws skip the transform: when `u₂ = (b >> 8) / 2²⁴`
    /// lies strictly between 1/4 and 3/4, `cos 2πu₂ ≤ −3.7e-7` while
    /// `r = √(−2 ln u₁) ≥ 3.45e-4` for every `u₁ < 1`, so the normal draw
    /// is negative and the rank is 0 — unless `σ < 0` flips its sign (a
    /// NaN `σ` also ranks 0).
    #[inline]
    pub fn rank(&self, a: u32, b: u32, max_rank: u32) -> u32 {
        const LEFT_HALF: std::ops::Range<u32> = (1 << 22) + 1..3 << 22;
        // NaN-inclusive: a NaN `σ` takes the shortcut too.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if LEFT_HALF.contains(&(b >> 8)) && !(self.sigma < 0.0) {
            return 0;
        }
        let z = f64::from(normal_f32(a, b)) * self.sigma;
        if z <= 0.0 {
            0
        } else {
            let r = z.round();
            if r >= f64::from(max_rank) {
                max_rank
            } else {
                r as u32
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StreamRng;

    #[test]
    fn uniform_f32_bounds() {
        assert_eq!(uniform_f32(0), 0.0);
        assert!(uniform_f32(u32::MAX) < 1.0);
    }

    #[test]
    fn uniform_f64_bounds() {
        assert_eq!(uniform_f64(0), 0.0);
        assert!(uniform_f64(u64::MAX) < 1.0);
    }

    #[test]
    fn lemire_small_bounds_exact_distribution() {
        // For bound=3, count acceptance-region hits per value over the whole
        // 16-bit prefix space scaled down — cheap smoke check of uniformity.
        let mut counts = [0u32; 3];
        for w in (0..1u64 << 20).map(|x| (x << 12) as u32) {
            let (v, ok) = lemire_bounded(w, 3);
            if ok {
                counts[v as usize] += 1;
            }
        }
        let max = *counts.iter().max().unwrap() as f64;
        let min = *counts.iter().min().unwrap() as f64;
        assert!(max / min < 1.01, "counts {counts:?}");
    }

    #[test]
    fn box_muller_zero_u1_is_finite() {
        let (z0, z1) = box_muller(0.0, 0.25);
        assert!(z0.is_finite() && z1.is_finite());
    }

    #[test]
    fn clamped_normal_rank_bounds() {
        let cn = ClampedNormal::new(1.5);
        let mut s = StreamRng::new(7, 7);
        for _ in 0..5000 {
            let r = cn.rank(s.next_u32(), s.next_u32(), 7);
            assert!(r <= 7);
        }
    }

    #[test]
    fn clamped_normal_prefers_rank_zero() {
        // Half of the normal mass is negative → rank 0 at least ~50%.
        let cn = ClampedNormal::new(1.0);
        let mut s = StreamRng::new(3, 1);
        let n = 10_000;
        let zeros = (0..n)
            .filter(|_| cn.rank(s.next_u32(), s.next_u32(), 7) == 0)
            .count();
        assert!(
            zeros as f64 > 0.55 * n as f64,
            "rank-0 fraction {}",
            zeros as f64 / n as f64
        );
    }

    /// Every `u₂` the rank shortcut covers has a negative cosine, and the
    /// normal draw stays negative after the `f32` cast even at the
    /// smallest radius (`u₁` just below 1).
    #[test]
    fn rank_shortcut_covers_only_negative_cosines() {
        for m in (1u32 << 22) + 1..3 << 22 {
            let theta = 2.0 * std::f64::consts::PI * f64::from(uniform_f32(m << 8));
            assert!(theta.cos() < 0.0, "m = {m}");
            assert!(normal_f32(u32::MAX, m << 8) < 0.0, "m = {m}");
        }
    }

    /// The shortcut returns exactly what the literal clamp of the
    /// Box–Muller draw returns, for a NaN and a negative `σ` too.
    #[test]
    fn rank_shortcut_equals_the_literal_formula() {
        let literal = |sigma: f64, a: u32, b: u32, max_rank: u32| {
            let z = f64::from(normal_f32(a, b)) * sigma;
            if z <= 0.0 {
                0
            } else {
                let r = z.round();
                if r >= f64::from(max_rank) {
                    max_rank
                } else {
                    r as u32
                }
            }
        };
        let edges = [
            0u32,
            1 << 22,
            (1 << 22) + 1,
            (3 << 22) - 1,
            3 << 22,
            u32::MAX >> 8,
        ];
        let mut s = StreamRng::new(5, 9);
        for sigma in [0.5, 1.0, 2.5, f64::NAN, -1.0] {
            let cn = ClampedNormal::new(sigma);
            let check = |a: u32, b: u32| {
                for max_rank in 0..8 {
                    assert_eq!(
                        cn.rank(a, b, max_rank),
                        literal(sigma, a, b, max_rank),
                        "sigma {sigma}, words {a:#x} {b:#x}, max rank {max_rank}"
                    );
                }
            };
            for m in edges {
                for a in [0, 1 << 31, u32::MAX] {
                    check(a, m << 8);
                    check(a, m << 8 | 0xff);
                }
            }
            for _ in 0..20_000 {
                check(s.next_u32(), s.next_u32());
            }
        }
    }

    #[test]
    fn clamped_normal_max_rank_zero_degenerates() {
        let cn = ClampedNormal::new(10.0);
        let mut s = StreamRng::new(11, 0);
        for _ in 0..100 {
            assert_eq!(cn.rank(s.next_u32(), s.next_u32(), 0), 0);
        }
    }
}
