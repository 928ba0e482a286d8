//! The Harrell–Davis quantile estimator.
//!
//! A sample quantile is one order statistic, so it jumps when the target rank falls
//! in a gap of the distribution. The gauntlet's cell latencies have such a gap right
//! at the median: three cheap tuners (about 2–5 ms a cell) against three expensive
//! ones (7 ms and up), half the cells on each side. Its sample median is the slowest
//! cheap cell and jumps by half when any one cheap cell is slowed. Harrell–Davis
//! weights every order statistic by the Beta(p(n+1), (1-p)(n+1)) mass of its rank
//! interval, which averages the ranks around the target, so it moves smoothly.
//! (F. E. Harrell and C. E. Davis, "A new distribution-free quantile estimator",
//! Biometrika 69(3), 1982.)

/// The Harrell–Davis estimate of the `p` quantile of an ascending, non-empty slice.
pub fn harrell_davis(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    assert!(n > 0, "a quantile of no samples");
    let (a, b) = (p * (n + 1) as f64, (1.0 - p) * (n + 1) as f64);
    let mut below = 0.0;
    let mut estimate = 0.0;
    for (i, value) in sorted.iter().enumerate() {
        let upto = incomplete_beta(a, b, (i + 1) as f64 / n as f64);
        estimate += (upto - below) * value;
        below = upto;
    }
    estimate
}

/// The regularized incomplete beta function `I_x(a, b)`, by its continued fraction.
fn incomplete_beta(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let front =
        (ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln()).exp();
    // The fraction converges fast only below the mean; use the symmetry above it.
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_fraction(a, b, x) / a
    } else {
        1.0 - front * beta_fraction(b, a, 1.0 - x) / b
    }
}

/// Lentz's evaluation of the incomplete beta continued fraction.
fn beta_fraction(a: f64, b: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let mut c = 1.0;
    let mut d = 1.0 - (a + b) * x / (a + 1.0);
    d = 1.0 / if d.abs() < TINY { TINY } else { d };
    let mut h = d;
    for m in 1..10_000 {
        let m = m as f64;
        for numerator in [
            m * (b - m) * x / ((a + 2.0 * m - 1.0) * (a + 2.0 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2.0 * m) * (a + 2.0 * m + 1.0)),
        ] {
            d = 1.0 + numerator * d;
            d = 1.0 / if d.abs() < TINY { TINY } else { d };
            c = 1.0 + numerator / c;
            if c.abs() < TINY {
                c = TINY;
            }
            h *= d * c;
        }
        if (d * c - 1.0).abs() < 1e-15 {
            break;
        }
    }
    h
}

/// `ln Γ(x)` for `x > 0`, by the Lanczos approximation (g = 7, 9 terms).
fn ln_gamma(x: f64) -> f64 {
    const G: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    let x = x - 1.0;
    let t = x + 7.5;
    let series = G[1..]
        .iter()
        .enumerate()
        .fold(G[0], |sum, (i, g)| sum + g / (x + i as f64 + 1.0));
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + series.ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_matches_factorials() {
        for (n, factorial) in [(1.0, 1.0_f64), (5.0, 24.0), (11.0, 3_628_800.0)] {
            assert!((ln_gamma(n) - factorial.ln()).abs() < 1e-10);
        }
    }

    #[test]
    fn incomplete_beta_is_a_cdf() {
        // I_x(1, 1) is the uniform CDF, and I_x(a, a) is symmetric about 1/2.
        assert!((incomplete_beta(1.0, 1.0, 0.3) - 0.3).abs() < 1e-12);
        assert!((incomplete_beta(40.5, 40.5, 0.5) - 0.5).abs() < 1e-12);
        let lo = incomplete_beta(7.2, 3.1, 0.4);
        assert!((lo + incomplete_beta(3.1, 7.2, 0.6) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn estimates_central_ranks_and_stays_smooth_at_a_gap() {
        let ramp: Vec<f64> = (1..=101).map(f64::from).collect();
        assert!((harrell_davis(&ramp, 0.5) - 51.0).abs() < 1e-9);
        assert!((harrell_davis(&ramp, 0.9) - 91.0).abs() < 0.5);
        // Half the samples near 2, half near 8: moving the largest small sample
        // across the gap moves the sample median from 2.99 to 8.0, but this
        // estimate by about 5%.
        let mut split: Vec<f64> = (0..96).map(|i| 2.0 + i as f64 / 96.0).collect();
        split.extend((0..96).map(|i| 8.0 + i as f64 / 96.0));
        let before = harrell_davis(&split, 0.5);
        split[95] = 12.0;
        split.sort_by(f64::total_cmp);
        let after = harrell_davis(&split, 0.5);
        assert!((after / before - 1.0).abs() < 0.1, "{before} -> {after}");
    }
}
