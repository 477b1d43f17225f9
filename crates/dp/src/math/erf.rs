//! The error function `erf` and its complement `erfc`.
//!
//! Both are fixed-cost rational approximations: the piecewise fits of Sun
//! Microsystems' fdlibm (`s_erf.c`, the code behind most C libraries'
//! `erf`), transcribed with their published coefficients. The real line is
//! split at `|x|` = 0.84375, 1.25, 1/0.35 and 28:
//!
//! * `|x| < 0.84375`: `erf(x) = x + x·P(x²)/Q(x²)`, a degree-4/5 fit of
//!   `erf(x)/x − 1` (`erfc = 1 − erf` loses nothing here, erf ≤ 0.77);
//! * `0.84375 ≤ |x| < 1.25`: `erfc(|x|) = (1 − c) − P(s)/Q(s)` with
//!   `s = |x| − 1` and `c = erf(1)` rounded to 24 bits;
//! * `1.25 ≤ |x| < 28`: `erfc(|x|) = exp(−x² − 0.5625 + R(1/x²)/S(1/x²)) / |x|`,
//!   with one fit up to `1/0.35` and another beyond it. `x²` is formed as
//!   `z² + (z − x)(z + x)` with `z` = `x` truncated to 21 mantissa bits, so
//!   the exponent carries no rounding error from squaring;
//! * `|x| ≥ 28`: `erfc` underflows to 0 (or is 2 for negative `x`).
//!
//! Every call costs one or two `exp`, one division and at most sixteen
//! multiply-adds, with no loop. The analytic-Gaussian privacy profile calls
//! `erfc` twice per evaluation, and every σ calibration and ε search
//! evaluates the profile tens of times, so this is the hot numeric path.
//!
//! **Accuracy.** A unit test sweeps the argument range the privacy profile
//! reaches for δ ∈ [1e-13, 1e-5] and ε ≤ ψ_P, from −8 to 26.5 (beyond which
//! `erfc` is subnormal), and bounds the relative difference from the
//! classical Maclaurin-series / Legendre continued-fraction evaluation,
//! kept in the tests as the oracle, by **1e-14** (measured maximum 6.0e-15).
//! The mpmath reference tables below hold unchanged.

// The coefficients are quoted digit for digit from fdlibm, with their bit
// patterns, so they can be checked against the source.
#![allow(clippy::excessive_precision)]

/// `erf(1)` rounded to 24 bits (fdlibm `erx`).
const ERX: f64 = 8.450_629_115_104_675_292_97e-01; // 0x3FEB0AC1 60000000
/// `2/√π − 1` (fdlibm `efx`), the slope of `erf(x)/x − 1` at 0.
const EFX: f64 = 1.283_791_670_955_125_863_16e-01; // 0x3FC06EBA 8214DB69

// erf on [0, 0.84375]: erf(x) = x + x·PP(x²)/QQ(x²).
const PP: [f64; 5] = [
    1.283_791_670_955_125_585_61e-01,  // 0x3FC06EBA 8214DB68
    -3.250_421_072_470_014_993_70e-01, // 0xBFD4CD7D 691CB913
    -2.848_174_957_559_851_047_66e-02, // 0xBF9D2A51 DBD7194F
    -5.770_270_296_489_441_591_57e-03, // 0xBF77A291 236668E4
    -2.376_301_665_665_016_260_84e-05, // 0xBEF8EAD6 120016AC
];
const QQ: [f64; 5] = [
    3.979_172_239_591_553_528_19e-01,  // 0x3FD97779 CDDADC09
    6.502_224_998_876_729_444_85e-02,  // 0x3FB0A54C 5536CEBA
    5.081_306_281_875_765_627_76e-03,  // 0x3F74D022 C4D36B0F
    1.324_947_380_043_216_445_26e-04,  // 0x3F215DC9 221C1A10
    -3.960_228_278_775_368_123_20e-06, // 0xBED09C43 42A26120
];

// erf on [0.84375, 1.25]: erf(1 + s) = ERX + PA(s)/QA(s).
const PA: [f64; 7] = [
    -2.362_118_560_752_659_440_77e-03, // 0xBF6359B8 BEF77538
    4.148_561_186_837_483_316_66e-01,  // 0x3FDA8D00 AD92B34D
    -3.722_078_760_357_013_238_47e-01, // 0xBFD7D240 FBB8C3F1
    3.183_466_199_011_617_536_74e-01,  // 0x3FD45FCA 805120E4
    -1.108_946_942_823_966_774_76e-01, // 0xBFBC6398 3D3E28EC
    3.547_830_432_561_823_593_71e-02,  // 0x3FA22A36 599795EB
    -2.166_375_594_868_790_843_00e-03, // 0xBF61BF38 0A96073F
];
const QA: [f64; 6] = [
    1.064_208_804_008_442_282_86e-01, // 0x3FBB3E66 18EEE323
    5.403_979_177_021_710_489_37e-01, // 0x3FE14AF0 92EB6F33
    7.182_865_441_419_626_628_68e-02, // 0x3FB2635C D99FE9A7
    1.261_712_198_087_616_421_12e-01, // 0x3FC02660 E763351F
    1.363_708_391_202_905_073_62e-02, // 0x3F8BEDC2 6B51DD1C
    1.198_449_984_679_910_741_70e-02, // 0x3F888B54 5735151D
];

// erfc on [1.25, 1/0.35]: x·e^{x²}·erfc(x) = e^{−0.5625 + RA(1/x²)/SA(1/x²)}.
const RA: [f64; 8] = [
    -9.864_944_034_847_148_227_05e-03, // 0xBF843412 600D6435
    -6.938_585_727_071_817_643_72e-01, // 0xBFE63416 E4BA7360
    -1.055_862_622_532_329_098_14e+01, // 0xC0251E04 41B0E726
    -6.237_533_245_032_600_603_96e+01, // 0xC04F300A E4CBA38D
    -1.623_966_694_625_734_703_55e+02, // 0xC0644CB1 84282266
    -1.846_050_929_067_110_359_94e+02, // 0xC067135C EBCCABB2
    -8.128_743_550_630_659_342_46e+01, // 0xC0545265 57E4D2F2
    -9.814_329_344_169_145_485_92e+00, // 0xC023A0EF C69AC25C
];
const SA: [f64; 8] = [
    1.965_127_166_743_925_712_92e+01,  // 0x4033A6B9 BD707687
    1.376_577_541_435_190_426_00e+02,  // 0x4061350C 526AE721
    4.345_658_774_752_292_288_21e+02,  // 0x407B290D D58A1A71
    6.453_872_717_332_678_803_36e+02,  // 0x40842B19 21EC2868
    4.290_081_400_275_678_333_86e+02,  // 0x407AD021 57700314
    1.086_350_055_417_794_351_34e+02,  // 0x405B28A3 EE48AE2C
    6.570_249_770_319_281_701_35e+00,  // 0x401A47EF 8E484A93
    -6.042_441_521_485_809_874_38e-02, // 0xBFAEEFF2 EE749A62
];

// erfc on [1/0.35, 28]: as above with RB/SB.
const RB: [f64; 7] = [
    -9.864_942_924_700_099_285_97e-03, // 0xBF843412 39E86F4A
    -7.992_832_376_805_230_065_74e-01, // 0xBFE993BA 70C285DE
    -1.775_795_491_775_475_198_89e+01, // 0xC031C209 555F995A
    -1.606_363_848_558_219_160_62e+02, // 0xC064145D 43C5ED98
    -6.375_664_433_683_896_277_22e+02, // 0xC083EC88 1375F228
    -1.025_095_131_611_077_249_54e+03, // 0xC0900461 6A2E5992
    -4.835_191_916_086_513_970_19e+02, // 0xC07E384E 9BDC383F
];
const SB: [f64; 7] = [
    3.033_806_074_348_245_829_24e+01,  // 0x403E568B 261D5190
    3.257_925_129_965_739_188_26e+02,  // 0x40745CAE 221B9F0A
    1.536_729_586_084_436_959_94e+03,  // 0x409802EB 189D5118
    3.199_858_219_508_595_539_08e+03,  // 0x40A8FFB7 688C246A
    2.553_050_406_433_164_425_83e+03,  // 0x40A3F219 CEDF3BE6
    4.745_285_412_069_553_672_15e+02,  // 0x407DA874 E79FE763
    -2.244_095_244_658_581_833_62e+01, // 0xC03670E2 42712D62
];

/// `1/0.35` as fdlibm tests it: the largest argument whose high word is
/// below `0x4006DB6D` uses the RA/SA fit.
const RB_FROM: f64 = f64::from_bits(0x4006_DB6D_0000_0000);

/// `c[0] + s·c[1] + … + s^n·c[n]` (Horner).
#[inline]
fn horner(s: f64, c: &[f64]) -> f64 {
    c.iter().rev().fold(0.0, |acc, &k| acc * s + k)
}

/// `1 + s·c[0] + … + s^(n+1)·c[n]`, the monic denominators.
#[inline]
fn horner1(s: f64, c: &[f64]) -> f64 {
    horner(s, c) * s + 1.0
}

/// `erf(x)/x − 1` for `|x| < 0.84375`.
#[inline]
fn small_ratio(x: f64) -> f64 {
    let z = x * x;
    horner(z, &PP) / horner1(z, &QQ)
}

/// `erf(|x|) − ERX` for `0.84375 ≤ |x| < 1.25`.
#[inline]
fn near_one(ax: f64) -> f64 {
    let s = ax - 1.0;
    horner(s, &PA) / horner1(s, &QA)
}

/// `erfc(ax)` for `1.25 ≤ ax < 28`.
#[inline]
fn tail(ax: f64) -> f64 {
    let s = 1.0 / (ax * ax);
    let (r, q) = if ax < RB_FROM {
        (horner(s, &RA), horner1(s, &SA))
    } else {
        (horner(s, &RB), horner1(s, &SB))
    };
    // z keeps the top 21 mantissa bits of ax, so z·z is exact and
    // (z − ax)(z + ax) = z² − ax² carries the rest of −ax².
    let z = f64::from_bits(ax.to_bits() & 0xFFFF_FFFF_0000_0000);
    (-z * z - 0.5625).exp() * ((z - ax) * (z + ax) + r / q).exp() / ax
}

/// The error function `erf(x) = 2/sqrt(pi) * Int_0^x e^{-t^2} dt`.
#[must_use]
pub fn erf(x: f64) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    let ax = x.abs();
    if ax < 0.84375 {
        if ax < 2f64.powi(-28) {
            return x + EFX * x;
        }
        return x + x * small_ratio(x);
    }
    let magnitude = if ax < 1.25 {
        ERX + near_one(ax)
    } else if ax < 6.0 {
        1.0 - tail(ax)
    } else {
        1.0
    };
    magnitude.copysign(x)
}

/// The complementary error function `erfc(x) = 1 - erf(x)`.
///
/// Unlike computing `1.0 - erf(x)` directly, this keeps full *relative*
/// precision in the upper tail (`x` large), which the analytic-Gaussian
/// privacy profile relies on when `delta` is as small as `1e-13`.
#[must_use]
pub fn erfc(x: f64) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    let ax = x.abs();
    if ax < 0.84375 {
        if ax < 2f64.powi(-56) {
            return 1.0 - x;
        }
        let y = small_ratio(x);
        return if x < 0.25 {
            1.0 - (x + x * y)
        } else {
            0.5 - (x * y + (x - 0.5))
        };
    }
    if ax < 1.25 {
        let p = near_one(ax);
        return if x > 0.0 {
            (1.0 - ERX) - p
        } else {
            1.0 + (ERX + p)
        };
    }
    if x <= -6.0 {
        return 2.0;
    }
    if ax < 28.0 {
        let t = tail(ax);
        return if x > 0.0 { t } else { 2.0 - t };
    }
    if x > 0.0 {
        0.0
    } else {
        2.0
    }
}

/// The Maclaurin-series / continued-fraction evaluation that served as
/// `erf`/`erfc` before the rational fits: slow (up to 60 series terms or a
/// 160-deep fraction per call) but independent of them, so the accuracy
/// sweep below compares against it.
#[cfg(test)]
pub(crate) mod oracle {
    const SQRT_PI: f64 = 1.772_453_850_905_516; // sqrt(pi)
    const TWO_OVER_SQRT_PI: f64 = std::f64::consts::FRAC_2_SQRT_PI;
    /// Where the series hands over to the continued fraction. Production
    /// used 2.5, but on [2, 2.5] the alternating series cancels and
    /// `1 − erf` loses up to 1.2e-11 relative. Against 50-digit
    /// references the series is within 5e-15 below 1.25 and the depth-160
    /// fraction within 5e-16 above it.
    pub(crate) const SERIES_CUTOFF: f64 = 1.25;
    const CF_DEPTH: usize = 160;

    /// Maclaurin series for erf on `|x| <= SERIES_CUTOFF`:
    /// `erf(x) = 2/sqrt(pi) * sum_{n>=0} (-1)^n x^(2n+1) / (n! (2n+1))`.
    fn erf_series(x: f64) -> f64 {
        // term_n / term_{n-1} = -x^2 * (2n-1) / (n (2n+1)).
        let x2 = x * x;
        let mut term = x;
        let mut sum = x;
        for n in 1..200 {
            let nf = n as f64;
            term *= -x2 * (2.0 * nf - 1.0) / (nf * (2.0 * nf + 1.0));
            sum += term;
            if term.abs() < 1e-18 * sum.abs().max(1e-300) {
                break;
            }
        }
        TWO_OVER_SQRT_PI * sum
    }

    /// Legendre continued fraction (Abramowitz & Stegun 7.1.14)
    /// `sqrt(pi) e^{x^2} erfc(x) = 1/(x + 1/(2x + 2/(x + 3/(2x + ...))))`
    /// on `x > 0`, evaluated bottom-up with a fixed depth.
    fn erfc_cf(x: f64) -> f64 {
        debug_assert!(x > 0.0);
        let denom = |k: usize| if k.is_multiple_of(2) { x } else { 2.0 * x };
        let mut acc = denom(CF_DEPTH);
        for k in (1..=CF_DEPTH).rev() {
            acc = denom(k - 1) + k as f64 / acc;
        }
        (-x * x).exp() / (SQRT_PI * acc)
    }

    /// Oracle `erfc`.
    pub(crate) fn erfc(x: f64) -> f64 {
        if x > SERIES_CUTOFF {
            if x > 27.0 {
                return 0.0;
            }
            return erfc_cf(x);
        }
        if x < -SERIES_CUTOFF {
            return 2.0 - erfc(-x);
        }
        1.0 - erf_series(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference values computed with mpmath at 50 digits.
    #[allow(clippy::excessive_precision)]
    const ERF_REFERENCE: &[(f64, f64)] = &[
        (0.0, 0.0),
        (0.1, 0.112462916018284892),
        (0.25, 0.276326390168236932),
        (0.5, 0.520499877813046538),
        (1.0, 0.842700792949714869),
        (1.5, 0.966105146475310727),
        (2.0, 0.995322265018952734),
        (3.0, 0.999977909503001415),
        (4.0, 0.999999984582742100),
        (-1.0, -0.842700792949714869),
        (-2.5, -0.999593047982555041),
    ];

    /// Tail values of erfc where relative precision matters.
    #[allow(clippy::excessive_precision)]
    const ERFC_REFERENCE: &[(f64, f64)] = &[
        (3.0, 2.20904969985854414e-5),
        (4.0, 1.54172579002800189e-8),
        (5.0, 1.53745979442803485e-12),
        (6.0, 2.15197367124989132e-17),
        (8.0, 1.12242971729829270e-29),
    ];

    #[test]
    fn erf_matches_reference_values() {
        for &(x, want) in ERF_REFERENCE {
            let got = erf(x);
            assert!(
                (got - want).abs() < 1e-12,
                "erf({x}) = {got}, expected {want}"
            );
        }
    }

    #[test]
    fn erfc_tail_relative_accuracy() {
        for &(x, want) in ERFC_REFERENCE {
            let got = erfc(x);
            let rel = ((got - want) / want).abs();
            assert!(rel < 1e-10, "erfc({x}) = {got}, expected {want}, rel {rel}");
        }
    }

    #[test]
    fn erfc_is_complement_of_erf() {
        for i in -60..=60 {
            let x = i as f64 * 0.1;
            let sum = erf(x) + erfc(x);
            assert!((sum - 1.0).abs() < 1e-12, "erf+erfc at {x} = {sum}");
        }
    }

    #[test]
    fn erf_is_odd() {
        for i in 1..=50 {
            let x = i as f64 * 0.13;
            assert!((erf(x) + erf(-x)).abs() < 1e-13);
        }
    }

    #[test]
    fn erf_is_monotone_increasing() {
        let mut prev = erf(-8.0);
        for i in -79..=80 {
            let x = i as f64 * 0.1;
            let v = erf(x);
            assert!(v >= prev, "erf not monotone at {x}");
            prev = v;
        }
    }

    #[test]
    fn erf_and_erfc_are_continuous_at_branch_points() {
        // Adjacent doubles on either side of each hand-over between fits
        // agree to the fits' own accuracy, plus erfc's own relative slope
        // (2|x| per unit of x, so about 2x²·2^-52 per step of one ulp).
        for b in [0.84375, 1.25, RB_FROM, 6.0] {
            for x in [b, -b] {
                for (p, q) in [(x.next_down(), x), (x, x.next_up())] {
                    assert!((erf(p) - erf(q)).abs() <= 1e-15, "erf jumps at {x}");
                    let rel = ((erfc(p) - erfc(q)) / erfc(q)).abs();
                    let tol = 4.0 * f64::EPSILON * (1.0 + x * x);
                    assert!(rel <= tol, "erfc jumps at {x}: {rel}");
                }
            }
        }
    }

    #[test]
    fn erfc_tails() {
        assert!(erfc(30.0) >= 0.0);
        assert!(erfc(30.0) < 1e-300);
        assert!((erfc(-30.0) - 2.0).abs() < 1e-12);
        assert!((erfc(0.0) - 1.0).abs() < 1e-14);
    }

    /// The proven bound: the relative difference between the rational
    /// `erfc` and the series/CF oracle, on a dense sweep of the argument
    /// range the privacy profile reaches, is below 1e-14 (measured maximum
    /// 6.0e-15 near x = 1.23, on the oracle's series side).
    ///
    /// `normal_cdf(t) = erfc(−t/√2)/2`, and the profile evaluates it at
    /// `t = ±Δ/(2σ) − εσ/Δ`. The ε search (σ from √0.5 to √1e6, Δ up to 8,
    /// ε up to ψ_P) and the σ bisections for δ ∈ [1e-13, 1e-5] reach every
    /// argument from far below −6 to far above 26.5. Below −6 both
    /// evaluations round to exactly 2; beyond 26.5 `erfc` is subnormal,
    /// where no relative bound exists and the term sits 1e-290 below any
    /// δ the profile is compared to. The sweep covers [−8, 26.5] in steps
    /// of 2^-12 (about 141,000 points) plus both neighbours of every
    /// branch point.
    #[test]
    fn erfc_matches_the_series_oracle_to_1e_14() {
        const BOUND: f64 = 1e-14;
        let mut worst = (0.0f64, 0.0f64);
        let mut check = |x: f64| {
            let want = oracle::erfc(x);
            let got = erfc(x);
            let rel = ((got - want) / want).abs();
            if rel > worst.0 {
                worst = (rel, x);
            }
        };
        let step = 2f64.powi(-12);
        let mut x = -8.0;
        while x <= 26.5 {
            check(x);
            x += step;
        }
        for b in [0.84375, 1.25, RB_FROM, 6.0] {
            for x in [b, -b] {
                check(x.next_down());
                check(x);
                check(x.next_up());
            }
        }
        assert!(
            worst.0 <= BOUND,
            "max relative difference {} at x = {}",
            worst.0,
            worst.1
        );
    }
}
