//! Binomial draws by inversion, and the multinomial shot counts
//! [`sample_counts`](crate::statevector::sample_counts) builds from them.
//!
//! `shots` draws over `bins` outcomes follow the multinomial law, which
//! factors into successive conditionals: bin `i` receives
//! `Binomial(n_rem, wᵢ / w_rem)` of the `n_rem` shots the earlier bins left,
//! where `w_rem` is the suffix sum of the weights from `i` on. One uniform
//! per bin replaces one per shot.

use rand::Rng;

/// Stirling's remainder `δ(k) = ln k! − ((k+½)·ln k − k + ½·ln 2π)` for
/// `1 ≤ k < 16`; [`stirling_remainder`] uses the series from 16 on.
const STIRLING_REMAINDER: [f64; 16] = [
    0.0,
    0.08106146679532726,
    0.0413406959554093,
    0.02767792568499834,
    0.020790672103765093,
    0.016644691189821193,
    0.013876128823070748,
    0.01189670994589177,
    0.010411265261972096,
    0.009255462182712733,
    0.00833056343336287,
    0.007573675487951841,
    0.00694284010720953,
    0.006408994188004207,
    0.0059513701127588475,
    0.005554733551962801,
];

/// `½·ln 2π`.
const HALF_LN_TWO_PI: f64 = 0.918_938_533_204_672_8;

/// Below this mean `n·p` the inversion walks up from 0; at or above it,
/// outward from the mode.
const SMALL_MEAN: f64 = 16.0;

/// Stirling's remainder `δ(k)` for `k ≥ 1`: tabulated below 16, the series
/// `1/12k − 1/360k³ + 1/1260k⁵ − 1/1680k⁷` from 16 on (truncation error
/// below 2e-14).
fn stirling_remainder(k: u32) -> f64 {
    if let Some(&v) = STIRLING_REMAINDER.get(k as usize) {
        return v;
    }
    let r = 1.0 / f64::from(k);
    let r2 = r * r;
    r * (1.0 / 12.0 - r2 * (1.0 / 360.0 - r2 * (1.0 / 1260.0 - r2 / 1680.0)))
}

/// Draws `Binomial(n, p)` by inversion of one uniform from `rng` (none
/// when `n = 0` or `p` is 0, 1 or outside them; a NaN `p` counts as 0).
///
/// `p > ½` reflects to `n − Binomial(n, 1 − p)`. A mean `n·p` below
/// [`SMALL_MEAN`] sums the pmf up from 0; a larger one starts at the mode
/// and alternates outward, so a draw costs about two steps per standard
/// deviation its outcome lies from the mode.
pub(crate) fn binomial<R: Rng + ?Sized>(n: u32, p: f64, rng: &mut R) -> u32 {
    if n == 0 || p.is_nan() || p <= 0.0 {
        return 0;
    }
    if p >= 1.0 {
        return n;
    }
    if p > 0.5 {
        return n - binomial(n, 1.0 - p, rng);
    }
    let u = rng.gen::<f64>();
    if f64::from(n) * p < SMALL_MEAN {
        from_zero(n, p, u)
    } else {
        from_mode(n, p, u)
    }
}

/// The smallest `k` whose CDF exceeds `u`, summing the pmf from `k = 0`
/// with the ratio `pmf(k)/pmf(k−1) = (n−k+1)/k · p/(1−p)`. Should rounding
/// leave `u` past the whole mass, the walk stops where the pmf leaves the
/// normal range.
fn from_zero(n: u32, p: f64, mut u: f64) -> u32 {
    let odds = p / (1.0 - p);
    let mut pmf = (f64::from(n) * (-p).ln_1p()).exp();
    let mut k = 0;
    while u >= pmf && pmf >= f64::MIN_POSITIVE && k < n {
        u -= pmf;
        k += 1;
        pmf *= odds * f64::from(n - (k - 1)) / f64::from(k);
    }
    k
}

/// The mode `m = ⌊(n+1)·p⌋` of `Binomial(n, p)` and its pmf.
///
/// With `r = n − m` and `d = n·p − m` (`|d| ≤ 1`), Stirling's formula for
/// the three factorials of `C(n, m)` gives
/// `ln pmf(m) = m·ln(1 + d/m) + r·ln(1 − d/r) + ½·ln(n / 2π·m·r)
/// + δ(n) − δ(m) − δ(r)`. Needs `m, r ≥ 1`, which a mean of at least
/// [`SMALL_MEAN`] with `p ≤ ½` keeps at 16 or more.
fn mode_pmf(n: u32, p: f64) -> (u32, f64) {
    let mode = ((f64::from(n) + 1.0) * p) as u32;
    let (nf, m, r) = (f64::from(n), f64::from(mode), f64::from(n - mode));
    let d = nf * p - m;
    let ln_pmf = m * (d / m).ln_1p() + r * (-d / r).ln_1p() + 0.5 * (nf / (m * r)).ln()
        - HALF_LN_TWO_PI
        + stirling_remainder(n)
        - stirling_remainder(mode)
        - stirling_remainder(n - mode);
    (mode, ln_pmf.exp())
}

/// Inversion over the outcomes in the order `m, m+1, m−1, m+2, m−2, …`
/// outward from the mode `m` ([`mode_pmf`]), each pmf from its neighbour's
/// by the ratio recurrence; a side past `0` or `n` drops out. The two
/// sides' recurrences are independent, and the alternation is a fixed
/// pattern, so a step pair costs about one division and no mispredicted
/// branch. Should rounding leave `u` past the whole mass, the mode is
/// returned once both sides' pmfs leave the normal range (a subnormal pmf
/// times a ratio near 1 can round back to itself and never reach 0).
fn from_mode(n: u32, p: f64, mut u: f64) -> u32 {
    let odds = p / (1.0 - p);
    let (mode, at_mode) = mode_pmf(n, p);
    u -= at_mode;
    if u < 0.0 {
        return mode;
    }
    let (mut lo, mut hi) = (mode, mode);
    let (mut below, mut above) = (at_mode, at_mode);
    while (lo > 0 || hi < n) && (above >= f64::MIN_POSITIVE || below >= f64::MIN_POSITIVE) {
        if hi < n {
            // pmf(k+1) = pmf(k) · (n−k)·odds / (k+1)
            above *= f64::from(n - hi) * odds / f64::from(hi + 1);
            hi += 1;
            u -= above;
            if u < 0.0 {
                return hi;
            }
        }
        if lo > 0 {
            // pmf(k−1) = pmf(k) · k / ((n−k+1)·odds)
            below *= f64::from(lo) / (f64::from(n - (lo - 1)) * odds);
            lo -= 1;
            u -= below;
            if u < 0.0 {
                return lo;
            }
        }
    }
    mode
}

/// Fills `counts` (zeroed, one per weight) with `shots` multinomial draws
/// over the clamped weights `max(wᵢ, 0)` as successive conditional
/// binomials, the last bin taking the remainder, and stops drawing once no
/// shots remain. `suffix` is scratch for the suffix sums. The counts sum to
/// `shots`, and a bin whose clamped weight is zero gets none.
///
/// A clamped total that is zero or not finite leaves no distribution to
/// draw from: every shot goes to the first largest clamped weight, and the
/// RNG is not touched.
pub(crate) fn multinomial_counts<R: Rng + ?Sized>(
    weights: &[f64],
    shots: u32,
    rng: &mut R,
    suffix: &mut Vec<f64>,
    counts: &mut [u32],
) {
    suffix.clear();
    suffix.resize(weights.len(), 0.0);
    let mut acc = 0.0;
    for (s, &w) in suffix.iter_mut().zip(weights).rev() {
        acc += w.max(0.0);
        *s = acc;
    }
    if !(acc.is_finite() && acc > 0.0) {
        let mut top = 0;
        for (i, &w) in weights.iter().enumerate() {
            if w.max(0.0) > weights[top].max(0.0) {
                top = i;
            }
        }
        counts[top] = shots;
        return;
    }
    // A bin past the last positive weight has a zero suffix: its `0 / 0`
    // draws nothing, and that last positive bin took every shot left
    // because its suffix equals its own weight.
    let last = weights.len() - 1;
    let mut left = shots;
    for (i, (&w, &rest)) in weights.iter().zip(suffix.iter()).enumerate() {
        if left == 0 {
            break;
        }
        let k = if i == last {
            left
        } else {
            binomial(left, w.max(0.0) / rest, rng)
        };
        counts[i] = k;
        left -= k;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Exact `Binomial(n, p)` pmf by the ratio recurrence outward from
    /// `⌊(n+1)·p⌋`, normalized by its sum (no factorials, no underflow near
    /// the mode at any `n`).
    fn binomial_pmf(n: u32, p: f64) -> Vec<f64> {
        let n = n as usize;
        let mut pmf = vec![0.0; n + 1];
        if p >= 1.0 {
            pmf[n] = 1.0;
            return pmf;
        }
        let odds = p / (1.0 - p);
        let start = (((n + 1) as f64 * p) as usize).min(n);
        pmf[start] = 1.0;
        for k in start + 1..=n {
            pmf[k] = pmf[k - 1] * odds * (n + 1 - k) as f64 / k as f64;
        }
        for k in (0..start).rev() {
            pmf[k] = pmf[k + 1] * (k + 1) as f64 / (odds * (n - k) as f64);
        }
        let total: f64 = pmf.iter().sum();
        pmf.iter_mut().for_each(|v| *v /= total);
        pmf
    }

    /// Pearson's χ² of `observed` against `expected` probabilities over
    /// `draws` trials, pooling outcomes expected fewer than 5 times into
    /// one cell; returns (χ², degrees of freedom).
    fn chi_squared(observed: &[u64], expected: &[f64], draws: u64) -> (f64, usize) {
        let total = draws as f64;
        let (mut chi2, mut cells) = (0.0, 0usize);
        let (mut pooled_obs, mut pooled_exp) = (0.0, 0.0);
        for (&o, &e) in observed.iter().zip(expected) {
            let e = e * total;
            if e < 5.0 {
                pooled_obs += o as f64;
                pooled_exp += e;
                continue;
            }
            chi2 += (o as f64 - e).powi(2) / e;
            cells += 1;
        }
        if pooled_exp > 0.0 {
            chi2 += (pooled_obs - pooled_exp).powi(2) / pooled_exp.max(1.0);
            cells += 1;
        }
        assert!(cells >= 2, "too few cells for a χ² test");
        (chi2, cells - 1)
    }

    /// χ² upper bound at about p = 1e-4 for `dof` degrees of freedom
    /// (Wilson–Hilferty, z = 3.72).
    fn chi_squared_bound(dof: usize) -> f64 {
        let k = dof.max(1) as f64;
        let a = 2.0 / (9.0 * k);
        k * (1.0 - a + 3.72 * a.sqrt()).powi(3)
    }

    /// `ln k!` from Stirling's formula and its remainder.
    fn ln_factorial(k: u32) -> f64 {
        if k == 0 {
            return 0.0;
        }
        let x = f64::from(k);
        (x + 0.5) * x.ln() - x + HALF_LN_TWO_PI + stirling_remainder(k)
    }

    #[test]
    fn stirling_remainder_recovers_ln_factorial() {
        let mut exact = 0.0f64;
        for k in 1..=2000u32 {
            exact += f64::from(k).ln();
            let got = ln_factorial(k);
            assert!(
                (got - exact).abs() <= 1e-13 * exact.max(1.0),
                "ln {k}! = {got}, want {exact}"
            );
        }
    }

    #[test]
    fn mode_pmf_matches_the_ratio_recurrence() {
        for (n, p) in [
            (32u32, 0.5),
            (1024, 1.0 / 16.0),
            (1024, 0.3),
            (60, 0.27),
            (200_000, 0.23),
        ] {
            let pmf = binomial_pmf(n, p);
            let (mode, at_mode) = mode_pmf(n, p);
            let best = (0..=n as usize)
                .max_by(|&a, &b| pmf[a].total_cmp(&pmf[b]))
                .unwrap();
            assert!(
                mode as usize == best || pmf[mode as usize] == pmf[best],
                "Binomial({n}, {p})"
            );
            let want = pmf[mode as usize];
            assert!(
                (at_mode - want).abs() <= 1e-11 * want,
                "Binomial({n}, {p}): {at_mode} vs {want}"
            );
        }
    }

    #[test]
    fn binomial_draws_match_the_exact_pmf_in_every_branch() {
        // (n, p): inversion from 0 (n·p < 16), from the mode, both through
        // the p > ½ reflection (one with p so near 1 that the mode is n and
        // only the reflection gets it right), a mean just past the switch,
        // and a large n.
        let cases: &[(u32, f64)] = &[
            (10, 0.3),
            (1024, 0.004),
            (60, 0.25),
            (1024, 1.0 / 16.0),
            (1024, 0.5),
            (20, 0.9),
            (1024, 0.93),
            (1024, 0.9995),
            (33, 0.5),
            (200_000, 0.23),
        ];
        for (case, &(n, p)) in cases.iter().enumerate() {
            let pmf = binomial_pmf(n, p);
            let draws = 200_000u64;
            let mut observed = vec![0u64; n as usize + 1];
            let mut rng = StdRng::seed_from_u64(0xB1 + case as u64);
            for _ in 0..draws {
                let k = binomial(n, p, &mut rng);
                assert!(k <= n);
                observed[k as usize] += 1;
            }
            let (chi2, dof) = chi_squared(&observed, &pmf, draws);
            assert!(
                chi2 < chi_squared_bound(dof),
                "Binomial({n}, {p}): χ² = {chi2:.1} over {dof} dof"
            );
        }
    }

    #[test]
    fn degenerate_binomials_draw_nothing_from_the_rng() {
        struct NoDraws;
        impl rand::RngCore for NoDraws {
            fn next_u64(&mut self) -> u64 {
                unreachable!("a degenerate binomial must not draw")
            }
        }
        let mut rng = NoDraws;
        assert_eq!(binomial(0, 0.4, &mut rng), 0);
        assert_eq!(binomial(17, 0.0, &mut rng), 0);
        assert_eq!(binomial(17, -0.5, &mut rng), 0);
        assert_eq!(binomial(17, f64::NAN, &mut rng), 0);
        assert_eq!(binomial(17, 1.0, &mut rng), 17);
        assert_eq!(binomial(17, 1.5, &mut rng), 17);
    }

    #[test]
    fn binomials_hold_at_the_ends_of_the_unit_interval() {
        // The smallest and largest uniforms must still land inside 0..=n.
        struct Fixed(u64);
        impl rand::RngCore for Fixed {
            fn next_u64(&mut self) -> u64 {
                self.0
            }
        }
        for (n, p) in [
            (7u32, 0.2),
            (1024, 0.3),
            (1024, 0.999),
            (4096, 1e-9),
            (u32::MAX, 1e-12),
            (u32::MAX, 0.3),
        ] {
            for word in [0, u64::MAX] {
                let k = binomial(n, p, &mut Fixed(word));
                assert!(k <= n, "Binomial({n}, {p}) drew {k} from {word:#x}");
            }
        }
    }

    /// Every composition of `shots` into `bins` parts.
    fn compositions(shots: u32, bins: usize) -> Vec<Vec<u32>> {
        if bins == 1 {
            return vec![vec![shots]];
        }
        (0..=shots)
            .flat_map(|first| {
                compositions(shots - first, bins - 1)
                    .into_iter()
                    .map(move |mut rest| {
                        rest.insert(0, first);
                        rest
                    })
            })
            .collect()
    }

    /// Exact multinomial probability of `counts` under normalized `probs`.
    fn multinomial_pmf(counts: &[u32], probs: &[f64]) -> f64 {
        let shots: u32 = counts.iter().sum();
        let mut ln = ln_factorial(shots);
        for (&c, &p) in counts.iter().zip(probs) {
            if c > 0 {
                ln += f64::from(c) * p.ln() - ln_factorial(c);
            }
        }
        ln.exp()
    }

    #[test]
    fn conditional_binomial_counts_match_the_exact_multinomial_pmf() {
        // Tiny (shots, bins), enumerated: a zero and a negative (clamped)
        // weight, which must never receive a shot, in the middle and last.
        let cases: &[(&[f64], u32)] = &[
            (&[0.2, 0.5, 0.3], 4),
            (&[1.0, 0.0, 3.0, -0.5, 2.0], 5),
            (&[0.7, 0.1, 0.15, 0.05], 6),
            (&[0.25, 0.75, 0.0], 3),
        ];
        for (case, &(weights, shots)) in cases.iter().enumerate() {
            let total: f64 = weights.iter().map(|w| w.max(0.0)).sum();
            let probs: Vec<f64> = weights.iter().map(|w| w.max(0.0) / total).collect();
            let outcomes = compositions(shots, weights.len());
            let expected: Vec<f64> = outcomes
                .iter()
                .map(|c| multinomial_pmf(c, &probs))
                .collect();
            let draws = 200_000u64;
            let mut observed = vec![0u64; outcomes.len()];
            let mut rng = StdRng::seed_from_u64(0x3017 + case as u64);
            let mut suffix = Vec::new();
            for _ in 0..draws {
                let mut counts = vec![0u32; weights.len()];
                multinomial_counts(weights, shots, &mut rng, &mut suffix, &mut counts);
                let at = outcomes
                    .iter()
                    .position(|c| *c == counts)
                    .expect("a composition");
                observed[at] += 1;
            }
            for (c, &o) in outcomes.iter().zip(&observed) {
                if o > 0 {
                    assert!(
                        c.iter().zip(&probs).all(|(&n, &p)| n == 0 || p > 0.0),
                        "{weights:?}: zero-weight bin drawn in {c:?}"
                    );
                }
            }
            let (chi2, dof) = chi_squared(&observed, &expected, draws);
            assert!(
                chi2 < chi_squared_bound(dof),
                "{weights:?} × {shots}: χ² = {chi2:.1} over {dof} dof"
            );
        }
    }

    #[test]
    fn multinomial_edge_cases_keep_the_shot_total() {
        let mut suffix = Vec::new();
        let mut rng = StdRng::seed_from_u64(5);
        let cases: &[&[f64]] = &[
            &[0.0, 0.0, 1.0],
            &[1.0, 0.0, 0.0],
            &[-1.0, 2e-310, 0.0, 5e-324],
            &[1e-320, 1.0, -0.0, 1e-320],
            &[f64::NAN, 0.5, 0.5],
            &[1e308, 1e307, 1.0],
            &[0.3],
        ];
        for &weights in cases {
            for shots in [0u32, 1, 16, 1024, 65_537] {
                let mut counts = vec![0u32; weights.len()];
                multinomial_counts(weights, shots, &mut rng, &mut suffix, &mut counts);
                assert_eq!(counts.iter().sum::<u32>(), shots, "{weights:?}");
                for (&c, &w) in counts.iter().zip(weights) {
                    assert!(!(w.max(0.0) == 0.0 && c > 0), "{weights:?} → {counts:?}");
                }
            }
        }
        // All-zero and non-finite totals put every shot on the first
        // largest clamped weight without drawing.
        struct NoDraws;
        impl rand::RngCore for NoDraws {
            fn next_u64(&mut self) -> u64 {
                unreachable!("a total with no distribution must not draw")
            }
        }
        for (weights, want) in [
            (&[0.0, -1.0, 0.0][..], &[64, 0, 0][..]),
            (&[f64::NAN, -0.0], &[64, 0]),
            (&[1.0, f64::INFINITY, f64::INFINITY], &[0, 64, 0]),
            (&[1e307, 1e308, 1e308], &[0, 64, 0]),
        ] {
            let mut counts = vec![0u32; weights.len()];
            multinomial_counts(weights, 64, &mut NoDraws, &mut suffix, &mut counts);
            assert_eq!(counts, want, "{weights:?}");
        }
    }
}
