//! Bit-identity of the fused signal-quality kernel.
//!
//! `QualityExtractor` grades each channel in two sweeps with one interleaved
//! Goertzel bank and an O(n) median selection. The calibrated gate
//! thresholds, `BENCH_robustness.json` and the journal's stored gate
//! references all depend on the exact indicator values, so the kernel must
//! reproduce the straightforward multi-pass formulation bit for bit. The
//! oracle below is that formulation: one pass per statistic, one Goertzel
//! recurrence per probed frequency and a full sort for the median. Every one
//! of the 15 indicators is compared under `to_bits()` across sampling rates,
//! window lengths, random records, every hostile scenario at several
//! severities and the degenerate edge windows.

use proptest::prelude::*;
use selflearn_seizure::data::cohort::Cohort;
use selflearn_seizure::data::sampler::SampleConfig;
use selflearn_seizure::data::synth::{degrade_signal, HostileScenario};
use selflearn_seizure::features::quality::{
    channel_column, QualityExtractor, IDX_DISAGREEMENT, IDX_LOG_STD, NUM_QUALITY_FEATURES,
    QUALITY_FEATURES_PER_CHANNEL,
};
use std::f64::consts::PI;

const RATES: [f64; 3] = [64.0, 128.0, 256.0];

/// Window lengths from the four-sample minimum up to odd and
/// non-power-of-two sizes around the 4 s windows of every rate.
const LENGTHS: [usize; 14] = [
    4, 5, 7, 16, 63, 100, 255, 256, 257, 500, 511, 768, 1023, 1024,
];

// ---------------------------------------------------------------------------
// Oracle: the multi-pass per-channel kernel, one statistic per pass.
// ---------------------------------------------------------------------------

fn oracle_goertzel_power(x: &[f64], fs: f64, freq: f64) -> f64 {
    let coeff = 2.0 * (2.0 * PI * freq / fs).cos();
    let (mut s1, mut s2) = (0.0_f64, 0.0_f64);
    for &v in x {
        let s0 = v + coeff * s1 - s2;
        s2 = s1;
        s1 = s0;
    }
    (s1 * s1 + s2 * s2 - coeff * s1 * s2).max(0.0)
}

fn oracle_channel(fs: f64, hum_bins: &[f64], raw: &[f64], out: &mut [f64]) {
    let n = raw.len();
    assert!(n >= 4);
    let nf = n as f64;

    let mut non_finite = 0usize;
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for &v in raw {
        if v.is_finite() {
            lo = lo.min(v);
            hi = hi.max(v);
        } else {
            non_finite += 1;
        }
    }

    let railed = if hi > lo {
        let pinned = raw.iter().filter(|v| **v == lo || **v == hi).count();
        ((pinned + non_finite) as f64 / nf).min(1.0)
    } else {
        (non_finite as f64 / nf).min(1.0)
    };

    let mut longest = 1usize;
    let mut run = 1usize;
    for pair in raw.windows(2) {
        let same = pair[0] == pair[1] || (!pair[0].is_finite() && !pair[1].is_finite());
        run = if same { run + 1 } else { 1 };
        longest = longest.max(run);
    }
    let flat_run = longest as f64 / nf;

    let mut cleaned: Vec<f64> = raw
        .iter()
        .map(|v| if v.is_finite() { *v } else { 0.0 })
        .collect();
    let total_energy: f64 = cleaned.iter().map(|v| v * v).sum();
    let mean = cleaned.iter().sum::<f64>() / nf;
    for v in cleaned.iter_mut() {
        *v -= mean;
    }
    let ac_energy: f64 = cleaned.iter().map(|v| v * v).sum();
    let std = (ac_energy / nf).sqrt();
    let log_std = (std + 1e-12).ln();

    let mut diffs: Vec<f64> = cleaned.windows(2).map(|p| (p[1] - p[0]).abs()).collect();
    let line_length = diffs.iter().sum::<f64>() / (nf - 1.0);
    let max_step = diffs.iter().copied().fold(0.0_f64, f64::max);
    diffs.sort_by(f64::total_cmp);
    let median_step = diffs[diffs.len() / 2];
    let max_jump = (max_step / (1.4826 * median_step + 1e-12)).min(1e6);

    let tone_norm = 2.0 / (nf * ac_energy + 1e-12);
    let mut hum: f64 = 0.0;
    for &bin in hum_bins {
        let p = oracle_goertzel_power(&cleaned, fs, bin);
        let p_lo = oracle_goertzel_power(&cleaned, fs, bin - 2.0);
        let p_hi = oracle_goertzel_power(&cleaned, fs, bin + 2.0);
        let sharpness = p / (p + p_lo + p_hi + 1e-12);
        let weight = ((sharpness - 1.0 / 3.0) / (2.0 / 3.0)).clamp(0.0, 1.0);
        hum = hum.max((p * tone_norm).min(1.0) * weight);
    }

    let mut drift_energy = nf * mean * mean;
    for k in 1..=3 {
        let freq = k as f64 * fs / nf;
        if freq < fs / 2.0 {
            drift_energy += oracle_goertzel_power(&cleaned, fs, freq) * 2.0 / nf;
        }
    }
    let drift = (drift_energy / (total_energy + 1e-12)).clamp(0.0, 1.0);

    out.copy_from_slice(&[line_length, railed, flat_run, hum, drift, max_jump, log_std]);
}

fn oracle_window(q: &QualityExtractor, a: &[f64], b: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0; NUM_QUALITY_FEATURES];
    let fs = q.sampling_frequency();
    let per = QUALITY_FEATURES_PER_CHANNEL;
    oracle_channel(fs, q.hum_bins(), a, &mut out[..per]);
    oracle_channel(fs, q.hum_bins(), b, &mut out[per..2 * per]);
    out[IDX_DISAGREEMENT] =
        (out[channel_column(0, IDX_LOG_STD)] - out[channel_column(1, IDX_LOG_STD)]).abs();
    out
}

// ---------------------------------------------------------------------------
// Inputs and the comparison.
// ---------------------------------------------------------------------------

/// Asserts every indicator of the window pair equals the oracle bit for bit;
/// `context` names the seed, rate and length so a failure is reproducible
/// without shrinking.
fn assert_bit_identical(q: &QualityExtractor, a: &[f64], b: &[f64], context: &str) {
    let expected = oracle_window(q, a, b);
    let actual = q.assess_window(a, b).unwrap();
    let names = QualityExtractor::feature_names();
    for (i, (e, k)) in expected.iter().zip(&actual).enumerate() {
        assert_eq!(
            e.to_bits(),
            k.to_bits(),
            "{context}, fs {} Hz, n {}: {} kernel {k:e} vs oracle {e:e}",
            q.sampling_frequency(),
            a.len(),
            names[i]
        );
    }
}

fn lcg(seed: u64, n: usize) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        })
        .collect()
}

/// Noise plus mains hum at 50 Hz (aliased below 64 Hz sampling) and a slow
/// baseline wander.
fn hum_and_wander(seed: u64, n: usize, fs: f64) -> Vec<f64> {
    lcg(seed, n)
        .into_iter()
        .enumerate()
        .map(|(i, v)| {
            let t = i as f64 / fs;
            v + 1.5 * (2.0 * PI * 50.0 * t).sin() + 4.0 * (2.0 * PI * 0.3 * t).sin()
        })
        .collect()
}

/// Noise with a step of 12 signal RMS half way through.
fn popped(seed: u64, n: usize) -> Vec<f64> {
    let mut x = lcg(seed, n);
    for v in x.iter_mut().skip(n / 2) {
        *v += 3.5;
    }
    x
}

/// Noise clipped to symmetric rails.
fn railed(seed: u64, n: usize) -> Vec<f64> {
    lcg(seed, n)
        .into_iter()
        .map(|v| v.clamp(-0.2, 0.2))
        .collect()
}

/// Noise laced with NaN and both infinities.
fn non_finite_laced(seed: u64, n: usize) -> Vec<f64> {
    let mut x = lcg(seed, n);
    for (i, v) in x.iter_mut().enumerate() {
        *v = match (i as u64 ^ seed) % 7 {
            0 => f64::NAN,
            3 => f64::INFINITY,
            5 => f64::NEG_INFINITY,
            _ => *v,
        };
    }
    x
}

/// Degenerate windows: flatlines (including signed zeros), dead channels,
/// infinities and a rail at exactly 0.0.
fn edge_windows(n: usize) -> Vec<(&'static str, Vec<f64>)> {
    let mut mixed_zeros = vec![0.0; n];
    for v in mixed_zeros.iter_mut().step_by(2) {
        *v = -0.0;
    }
    let mut single_spike = vec![0.0; n];
    single_spike[n / 2] = 1.0;
    // Non-finite samples sanitize to 0.0, which here is also the low rail:
    // they must be counted as railed once, not once more as pinned.
    let zero_rail_with_gaps = (0..n)
        .map(|i| match i % 4 {
            0 => 0.0,
            1 => f64::NAN,
            2 => 1.0,
            _ => 0.5,
        })
        .collect();
    vec![
        ("zero rail with gaps", zero_rail_with_gaps),
        ("flat", vec![3.25; n]),
        ("zeros", vec![0.0; n]),
        ("negative zeros", vec![-0.0; n]),
        ("mixed signed zeros", mixed_zeros),
        ("all NaN", vec![f64::NAN; n]),
        ("all +inf", vec![f64::INFINITY; n]),
        ("all -inf", vec![f64::NEG_INFINITY; n]),
        (
            "alternating infinities",
            (0..n)
                .map(|i| {
                    if i % 2 == 0 {
                        f64::INFINITY
                    } else {
                        f64::NEG_INFINITY
                    }
                })
                .collect(),
        ),
        ("single spike", single_spike),
        ("huge finite", vec![f64::MAX; n]),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random records of arbitrary length at every rate, clean and laced
    /// with each artifact family.
    #[test]
    fn kernel_matches_oracle_on_random_windows(
        seed in 0u64..1_000_000,
        rate in 0usize..RATES.len(),
        n in 4usize..1100,
    ) {
        let fs = RATES[rate];
        let q = QualityExtractor::new(fs).unwrap();
        let inputs = [
            ("noise", lcg(seed, n)),
            ("hum + wander", hum_and_wander(seed, n, fs)),
            ("popped", popped(seed, n)),
            ("railed", railed(seed, n)),
            ("non-finite laced", non_finite_laced(seed, n)),
        ];
        for (name, a) in &inputs {
            let b = lcg(seed ^ 0xABCD, n);
            assert_bit_identical(&q, a, &b, &format!("{name}, seed {seed}"));
        }
    }
}

#[test]
fn kernel_matches_oracle_on_every_length_and_rate() {
    for fs in RATES {
        let q = QualityExtractor::new(fs).unwrap();
        for n in LENGTHS {
            for seed in 0..4 {
                let a = hum_and_wander(seed, n, fs);
                let b = non_finite_laced(seed + 100, n);
                assert_bit_identical(&q, &a, &b, &format!("seed {seed}"));
            }
        }
    }
}

#[test]
fn kernel_matches_oracle_on_edge_windows() {
    for fs in RATES {
        let q = QualityExtractor::new(fs).unwrap();
        for n in LENGTHS {
            let edges = edge_windows(n);
            let noise = lcg(n as u64, n);
            for (name, a) in &edges {
                assert_bit_identical(&q, a, a, &format!("{name} on both channels"));
                assert_bit_identical(&q, a, &noise, &format!("{name} next to noise"));
            }
        }
    }
}

#[test]
fn kernel_matches_oracle_on_every_hostile_scenario() {
    let cohort = Cohort::chb_mit_like(5);
    for fs in RATES {
        let q = QualityExtractor::new(fs).unwrap();
        let sample = SampleConfig::new(60.0, 80.0, fs).unwrap();
        let record = cohort.sample_record(2, 0, &sample, 40).unwrap();
        for scenario in HostileScenario::all() {
            for severity in [0.25, 0.6, 1.0, 2.5] {
                let seed = 99 + (severity * 100.0) as u64;
                let degraded = degrade_signal(record.signal(), scenario, severity, seed).unwrap();
                let (a, b) = (degraded.f7t3(), degraded.f8t4());
                for (w, n) in LENGTHS.iter().enumerate() {
                    // Spread the windows over the record so every artifact
                    // segment is visited at some length.
                    let span = a.len() - n;
                    for start in [w * span / LENGTHS.len(), span - w * span / LENGTHS.len()] {
                        assert_bit_identical(
                            &q,
                            &a[start..start + n],
                            &b[start..start + n],
                            &format!(
                                "{} at severity {severity}, seed {seed}, start {start}",
                                scenario.name()
                            ),
                        );
                    }
                }
            }
        }
    }
}
