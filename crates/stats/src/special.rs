//! Special functions and the distribution CDFs built on them.
//!
//! Implementations follow the classic numerical literature:
//! - `ln_gamma`: Lanczos approximation (g = 7, 9 coefficients), |ε| < 1e-13.
//! - `erf`/`erfc`: Numerical-Recipes Chebyshev fit, fractional |ε| < 1.2e-7
//!   — ample accuracy for every p-value computed in this reproduction.
//! - Regularized incomplete beta `I_x(a, b)`: Lentz continued fraction.
//! - Normal quantile: Acklam's rational approximation + one Halley step.

use crate::StatsError;

/// Natural log of the gamma function for `x > 0` (Lanczos, g = 7).
pub fn ln_gamma(x: f64) -> f64 {
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
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
    if x < 0.5 {
        // Reflection formula.
        return std::f64::consts::PI.ln()
            - (std::f64::consts::PI * x).sin().ln()
            - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEF[0];
    let t = x + G + 0.5;
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Complementary error function, accurate to ~1e-7 everywhere (Chebyshev).
fn erfc_cheb(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let ans = t
        * (-z * z - 1.265_512_23
            + t * (1.000_023_68
                + t * (0.374_091_96
                    + t * (0.096_784_18
                        + t * (-0.186_288_06
                            + t * (0.278_868_07
                                + t * (-1.135_203_98
                                    + t * (1.488_515_87
                                        + t * (-0.822_152_23 + t * 0.170_872_77)))))))))
            .exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

/// Error function.
pub fn erf(x: f64) -> f64 {
    1.0 - erfc(x)
}

/// Complementary error function (|ε| < 1.2e-7, ample for p-values here).
pub fn erfc(x: f64) -> f64 {
    erfc_cheb(x).clamp(0.0, 2.0)
}

/// Standard normal CDF.
pub fn normal_cdf(z: f64) -> f64 {
    0.5 * erfc(-z / std::f64::consts::SQRT_2)
}

/// Standard normal quantile (inverse CDF) for `p ∈ (0, 1)`.
///
/// Acklam's rational approximation (|ε| < 1.15e-9) refined with one Halley
/// step to near machine precision.
pub fn normal_quantile(p: f64) -> Result<f64, StatsError> {
    if !(0.0..=1.0).contains(&p) || p == 0.0 || p == 1.0 {
        return Err(StatsError::BadParameter(format!(
            "quantile p must be in (0,1), got {p}"
        )));
    }
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.024_25;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };

    // One Halley refinement.
    let e = normal_cdf(x) - p;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (x * x / 2.0).exp();
    Ok(x - u / (1.0 + x * u / 2.0))
}

/// Continued fraction for the incomplete beta (Lentz's method).
fn betacf(a: f64, b: f64, x: f64) -> f64 {
    const EPS: f64 = 1e-15;
    const FPMIN: f64 = 1e-300;
    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < FPMIN {
        d = FPMIN;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..500 {
        let m = m as f64;
        let m2 = 2.0 * m;
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        h *= d * c;
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

/// Regularized incomplete beta `I_x(a, b)` for `a, b > 0`, `x ∈ [0, 1]`.
pub fn beta_inc(a: f64, b: f64, x: f64) -> Result<f64, StatsError> {
    if a <= 0.0 || b <= 0.0 || !(0.0..=1.0).contains(&x) {
        return Err(StatsError::BadParameter(format!(
            "beta_inc requires a,b>0 and x in [0,1] (a={a}, b={b}, x={x})"
        )));
    }
    if x == 0.0 {
        return Ok(0.0);
    }
    if x == 1.0 {
        return Ok(1.0);
    }
    let bt = (ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln()).exp();
    let val = if x < (a + 1.0) / (a + b + 2.0) {
        bt * betacf(a, b, x) / a
    } else {
        1.0 - bt * betacf(b, a, 1.0 - x) / b
    };
    Ok(val.clamp(0.0, 1.0))
}

/// Student-t CDF with `df` degrees of freedom.
pub fn t_cdf(t: f64, df: f64) -> Result<f64, StatsError> {
    if df <= 0.0 {
        return Err(StatsError::BadParameter(format!(
            "t_cdf df must be > 0, got {df}"
        )));
    }
    let x = df / (df + t * t);
    let p = 0.5 * beta_inc(df / 2.0, 0.5, x)?;
    Ok(if t > 0.0 { 1.0 - p } else { p })
}

/// F distribution CDF with `(d1, d2)` degrees of freedom.
pub fn f_cdf(f: f64, d1: f64, d2: f64) -> Result<f64, StatsError> {
    if d1 <= 0.0 || d2 <= 0.0 {
        return Err(StatsError::BadParameter(format!(
            "f_cdf dfs must be > 0 (d1={d1}, d2={d2})"
        )));
    }
    if f <= 0.0 {
        return Ok(0.0);
    }
    let x = d1 * f / (d1 * f + d2);
    beta_inc(d1 / 2.0, d2 / 2.0, x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b} (tol {tol})");
    }

    #[test]
    fn ln_gamma_known_values() {
        close(ln_gamma(1.0), 0.0, 1e-12);
        close(ln_gamma(2.0), 0.0, 1e-12);
        close(ln_gamma(5.0), 24.0f64.ln(), 1e-10);
        close(ln_gamma(0.5), std::f64::consts::PI.sqrt().ln(), 1e-10);
        // Γ(10) = 362880
        close(ln_gamma(10.0), 362_880.0f64.ln(), 1e-9);
    }

    #[test]
    fn ln_gamma_reflection_for_small_x() {
        // Γ(0.25) ≈ 3.625609908
        close(ln_gamma(0.25), 3.625_609_908_22f64.ln(), 1e-8);
    }

    #[test]
    fn erf_known_values() {
        close(erf(0.0), 0.0, 1e-7);
        close(erf(1.0), 0.842_700_792_9, 2e-7);
        close(erf(2.0), 0.995_322_265_0, 2e-7);
        close(erf(-1.0), -0.842_700_792_9, 2e-7);
        close(erfc(3.0), 2.209_049_699_9e-5, 1e-9);
    }

    #[test]
    fn normal_cdf_known_values() {
        close(normal_cdf(0.0), 0.5, 1e-7);
        close(normal_cdf(1.959_964), 0.975, 1e-6);
        close(normal_cdf(-1.959_964), 0.025, 1e-6);
        close(normal_cdf(1.0), 0.841_344_746_1, 1e-6);
        close(normal_cdf(3.0), 0.998_650_101_97, 1e-7);
    }

    #[test]
    fn normal_quantile_inverts_cdf() {
        for &p in &[0.001, 0.01, 0.025, 0.1, 0.5, 0.9, 0.975, 0.99, 0.999] {
            let z = normal_quantile(p).unwrap();
            close(normal_cdf(z), p, 1e-6);
        }
        close(normal_quantile(0.975).unwrap(), 1.959_964, 1e-5);
        close(normal_quantile(0.5).unwrap(), 0.0, 1e-6);
    }

    #[test]
    fn normal_quantile_rejects_bad_p() {
        assert!(normal_quantile(0.0).is_err());
        assert!(normal_quantile(1.0).is_err());
        assert!(normal_quantile(-0.5).is_err());
        assert!(normal_quantile(1.5).is_err());
    }

    #[test]
    fn beta_inc_known_values() {
        // I_x(1,1) = x
        close(beta_inc(1.0, 1.0, 0.3).unwrap(), 0.3, 1e-12);
        // Symmetry: I_0.5(a,a) = 0.5
        close(beta_inc(2.0, 2.0, 0.5).unwrap(), 0.5, 1e-12);
        close(
            beta_inc(7.5, 3.25, 0.5).unwrap(),
            1.0 - beta_inc(3.25, 7.5, 0.5).unwrap(),
            1e-12,
        );
        // I_x(2,2) = x²(3-2x)
        let x: f64 = 0.35;
        close(
            beta_inc(2.0, 2.0, x).unwrap(),
            x * x * (3.0 - 2.0 * x),
            1e-12,
        );
        assert_eq!(beta_inc(2.0, 3.0, 0.0).unwrap(), 0.0);
        assert_eq!(beta_inc(2.0, 3.0, 1.0).unwrap(), 1.0);
    }

    #[test]
    fn t_cdf_known_values() {
        // Symmetry and center.
        close(t_cdf(0.0, 10.0).unwrap(), 0.5, 1e-12);
        // t_{0.975, 20} ≈ 2.086
        close(t_cdf(2.086, 20.0).unwrap(), 0.975, 5e-4);
        // Large df approaches normal.
        close(t_cdf(1.96, 1e6).unwrap(), normal_cdf(1.96), 1e-5);
        // t(1) is Cauchy: CDF(1) = 0.75.
        close(t_cdf(1.0, 1.0).unwrap(), 0.75, 1e-9);
    }

    #[test]
    fn f_cdf_known_values() {
        // F_{0.95}(1, 38) ≈ 4.098 → CDF ≈ 0.95.
        close(f_cdf(4.098, 1.0, 38.0).unwrap(), 0.95, 2e-3);
        // The paper's Table III: Levene F = 2.437 on (1, 38) df → p = .127.
        let p = 1.0 - f_cdf(2.437, 1.0, 38.0).unwrap();
        close(p, 0.127, 2e-3);
        // F(d1,d2) at f=1 with d1=d2 is 0.5 by symmetry.
        close(f_cdf(1.0, 10.0, 10.0).unwrap(), 0.5, 1e-9);
        assert_eq!(f_cdf(0.0, 2.0, 2.0).unwrap(), 0.0);
    }

    #[test]
    fn relation_t_squared_is_f() {
        // t²(df) ~ F(1, df): P(|T| ≤ t) = P(F ≤ t²).
        let t: f64 = 1.7;
        let df = 14.0;
        let lhs = t_cdf(t, df).unwrap() - t_cdf(-t, df).unwrap();
        let rhs = f_cdf(t * t, 1.0, df).unwrap();
        close(lhs, rhs, 1e-9);
    }

    #[test]
    fn bad_parameters_rejected() {
        assert!(beta_inc(0.0, 1.0, 0.5).is_err());
        assert!(beta_inc(1.0, 1.0, 1.5).is_err());
        assert!(t_cdf(1.0, 0.0).is_err());
        assert!(f_cdf(1.0, 0.0, 5.0).is_err());
    }
}
