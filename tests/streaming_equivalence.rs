//! Streaming-equals-batch gate of the rich and paper feature extraction.
//!
//! Each feature set has one engine: its batch entry points stream each
//! worker's block of rows through a clone of the set's hop engine
//! (`StreamingRichExtractor`, the extractor the detector pushes hops into,
//! and `StreamingPaperExtractor`). So every batch row must equal the row one
//! engine streams over the whole record on one thread, bit for bit, in every
//! column (NaN equal to NaN), across window geometries and rates, random
//! cohorts, hostile degradations at every severity and thread counts, down
//! to the sample-at-a-time `push()` front end. The two-pass textbook
//! reference `RichFeatureSet::extract_window` anchors the rich engine: every
//! streamed row stays within `1e-7 · (1 + |reference|)` of it, with only
//! finiteness asked of skewness and kurtosis on degenerate windows. The
//! paper engine's rows stay within 1e-9 of `PaperFeatureSet::extract_window`
//! on clean records.
//!
//! Which geometries stream at all is one rule,
//! `SlidingWindowConfig::check_streamable`: every engine constructor, the
//! detector's streaming front end and every batch entry point return its
//! verdict, checked here over a table of accepted and refused geometries.

use proptest::prelude::*;
use selflearn_seizure::core::realtime::{QualityVerdict, RealTimeDetector, RealTimeDetectorConfig};
use selflearn_seizure::core::workspace::FeatureWorkspace;
use selflearn_seizure::core::{CoreError, SeizureLabel};
use selflearn_seizure::data::cohort::Cohort;
use selflearn_seizure::data::sampler::SampleConfig;
use selflearn_seizure::data::synth::{degrade_signal, HostileScenario};
use selflearn_seizure::features::extractor::{
    FeatureExtractor, PaperFeatureSet, RichFeatureSet, SlidingWindowConfig,
};
use selflearn_seizure::features::quality::{QualityExtractor, QualityGrader};
use selflearn_seizure::features::streaming::{StreamingPaperExtractor, StreamingRichExtractor};
use selflearn_seizure::features::{FeatureError, FeatureMatrix};

/// Relative tolerance against the two-pass reference (merged vs two-pass
/// moments, re-associated sums); observed slack is ~1e-12, the bound leaves
/// orders of magnitude of room.
const REFERENCE_TOL: f64 = 1e-7;

/// Every row one extractor emits while `push_hop` walks the whole record on
/// the calling thread, in window order.
fn stream_record(streaming: &mut StreamingRichExtractor, a: &[f64], b: &[f64]) -> Vec<Vec<f64>> {
    let (hop, width) = (streaming.step_samples(), streaming.num_features());
    stream_hops(a, b, hop, width, |ha, hb, row| {
        streaming.push_hop(ha, hb, row).unwrap()
    })
}

/// Every row `push` completes while it walks `a` and `b` hop by hop.
fn stream_hops(
    a: &[f64],
    b: &[f64],
    hop: usize,
    width: usize,
    mut push: impl FnMut(&[f64], &[f64], &mut [f64]) -> bool,
) -> Vec<Vec<f64>> {
    let mut row = vec![0.0; width];
    let mut rows = Vec::new();
    for (hop_a, hop_b) in a.chunks_exact(hop).zip(b.chunks_exact(hop)) {
        if push(hop_a, hop_b, &mut row) {
            rows.push(row.clone());
        }
    }
    rows
}

/// One fresh paper engine's rows over the whole record.
fn stream_paper(config: &SlidingWindowConfig, a: &[f64], b: &[f64]) -> Vec<Vec<f64>> {
    let mut streaming = StreamingPaperExtractor::new(config).unwrap();
    let hop = config.step_samples();
    stream_hops(a, b, hop, 10, |ha, hb, row| {
        streaming.push_hop(ha, hb, row).unwrap()
    })
}

/// Every column of every batch row equals the streamed row bit for bit (a
/// NaN equals a NaN of any payload).
fn assert_bit_exact(streamed: &[Vec<f64>], batch: &FeatureMatrix, context: &str) {
    assert_eq!(streamed.len(), batch.num_windows(), "{context}");
    for (w, row) in streamed.iter().enumerate() {
        assert_eq!(row.len(), batch.num_features(), "{context}");
        for (c, (&s, &b)) in row.iter().zip(batch.row(w)).enumerate() {
            assert!(
                s.to_bits() == b.to_bits() || (s.is_nan() && b.is_nan()),
                "{context}: window {w} column {c} must be bit-exact, \
                 streamed {s} vs batch {b}"
            );
        }
    }
}

/// Every streamed row stays within [`REFERENCE_TOL`] of the two-pass
/// reference `extract_window` of the same window.
fn assert_near_reference(
    streamed: &[Vec<f64>],
    a: &[f64],
    b: &[f64],
    config: &SlidingWindowConfig,
    context: &str,
) {
    let reference = RichFeatureSet::new(config.sampling_frequency()).unwrap();
    let per_channel = reference.num_features() / 2;
    for ((w, row), (wa, wb)) in streamed
        .iter()
        .enumerate()
        .zip(config.windows(a).zip(config.windows(b)))
    {
        let expected = reference.extract_window(wa, wb).unwrap();
        for (c, (&s, &r)) in row.iter().zip(&expected).enumerate() {
            let channel_base = (c / per_channel) * per_channel;
            // Skewness and kurtosis are ill-conditioned when the window's
            // variance underflows relative to its power (a dropout holding
            // one constant: both computations standardize pure rounding dust,
            // and the sign of that dust is not meaningful). There they need
            // only stay finite.
            let variance = expected[channel_base + 12];
            let rms = expected[channel_base + 15];
            let degenerate = variance <= 1e-16 * (1.0 + rms * rms);
            if degenerate && (c % per_channel == 13 || c % per_channel == 14) {
                assert!(s.is_finite(), "{context}: window {w} column {c} not finite");
                continue;
            }
            assert!(
                (s - r).abs() <= REFERENCE_TOL * (1.0 + r.abs()) || (s.is_nan() && r.is_nan()),
                "{context}: window {w} column {c} out of bound, \
                 streamed {s} vs reference {r}"
            );
        }
    }
}

fn synth_channel(n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    (0..n)
        .map(|i| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let noise = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            (i as f64 * 0.031).sin() + 0.7 * (i as f64 * 0.149).cos() + 0.4 * noise
        })
        .collect()
}

/// The streamable geometries the suite sweeps: the paper default plus
/// shorter windows, a lower rate, a 50 % overlap and a 250-sample hop, which
/// shifts the db4 bands below level 1 by fractions of a coefficient.
const GEOMETRIES: [(f64, f64, f64); 5] = [
    (256.0, 4.0, 0.75),
    (256.0, 2.0, 0.75),
    (64.0, 4.0, 0.75),
    (256.0, 2.0, 0.5),
    (250.0, 4.0, 0.75),
];

/// The paper set's geometries: the paper default at the rates the repo
/// samples, the labeler's 2 s / 50 % alternative and 250 Hz.
const PAPER_GEOMETRIES: [(f64, f64, f64); 6] = [
    (256.0, 4.0, 0.75),
    (192.0, 4.0, 0.75),
    (128.0, 4.0, 0.75),
    (64.0, 4.0, 0.75),
    (64.0, 2.0, 0.5),
    (250.0, 4.0, 0.75),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random signals, every streamable geometry: the batch matrix is the
    /// one-thread streamed pass bit for bit, and that pass stays near the
    /// two-pass reference.
    #[test]
    fn streaming_matches_batch_on_random_signals(
        seed in 0u64..10_000,
        extra_hops in 0usize..40,
        geometry in 0usize..GEOMETRIES.len(),
    ) {
        let (fs, window_secs, overlap) = GEOMETRIES[geometry];
        let config = SlidingWindowConfig::new(fs, window_secs, overlap).unwrap();
        let n = config.window_samples() + extra_hops * config.step_samples();
        let a = synth_channel(n, seed);
        let b = synth_channel(n, seed ^ 0xABCD);
        let batch = RichFeatureSet::new(fs)
            .unwrap()
            .extract_batch(&a, &b, &config)
            .unwrap();
        let mut streaming = StreamingRichExtractor::new(&config).unwrap();
        let streamed = stream_record(&mut streaming, &a, &b);
        let context = format!("seed {seed}, {extra_hops} extra hops, geometry {geometry}");
        assert_bit_exact(&streamed, &batch, &context);
        assert_near_reference(&streamed, &a, &b, &config, &context);
    }

    /// Random signals, every paper geometry: the paper batch matrix is the
    /// one-thread streamed pass bit for bit.
    #[test]
    fn paper_streaming_matches_batch_on_random_signals(
        seed in 0u64..10_000,
        extra_hops in 0usize..40,
        geometry in 0usize..PAPER_GEOMETRIES.len(),
    ) {
        let (fs, window_secs, overlap) = PAPER_GEOMETRIES[geometry];
        let config = SlidingWindowConfig::new(fs, window_secs, overlap).unwrap();
        let n = config.window_samples() + extra_hops * config.step_samples();
        let a = synth_channel(n, seed);
        let b = synth_channel(n, seed ^ 0x5EED);
        let batch = PaperFeatureSet::new(fs)
            .unwrap()
            .extract_batch(&a, &b, &config)
            .unwrap();
        let context = format!("paper, seed {seed}, {extra_hops} extra hops, geometry {geometry}");
        assert_bit_exact(&stream_paper(&config, &a, &b), &batch, &context);
    }

    /// Feeding `push_hop` one hop at a time, reusing one extractor across
    /// consecutive records through `reset`, is bitwise identical to the
    /// record-level batch driver.
    #[test]
    fn hop_by_hop_push_is_bitwise_identical_to_the_record_driver(
        seed in 0u64..10_000,
        extra_hops in 1usize..8,
    ) {
        let config = SlidingWindowConfig::paper_default(256.0).unwrap();
        let hop = config.step_samples();
        let n = config.window_samples() + extra_hops * hop;
        let a = synth_channel(n, seed.wrapping_add(17));
        let b = synth_channel(n, seed.wrapping_add(18));
        let expected = RichFeatureSet::new(256.0)
            .unwrap()
            .extract_batch(&a, &b, &config)
            .unwrap();

        let mut streaming = StreamingRichExtractor::new(&config).unwrap();
        // A burned prior record: reset semantics must fully isolate it.
        let burn = synth_channel(config.window_samples() + 2 * hop, !seed);
        stream_record(&mut streaming, &burn, &burn);
        streaming.reset();

        let mut row = vec![0.0; streaming.num_features()];
        let mut produced = 0usize;
        for h in 0..n / hop {
            let s = h * hop;
            if streaming.push_hop(&a[s..s + hop], &b[s..s + hop], &mut row).unwrap() {
                prop_assert_eq!(row.as_slice(), expected.row(produced));
                produced += 1;
            }
        }
        prop_assert_eq!(produced, expected.num_windows());
    }
}

/// Every hostile scenario at three severities: artifact-dominated signals
/// (rail clipping, dropouts, pops, wander) stream into the batch rows bit for
/// bit and stay near the two-pass reference.
#[test]
fn streaming_survives_hostile_scenarios_within_the_error_model() {
    let cohort = Cohort::chb_mit_like(5);
    let sample = SampleConfig::new(180.0, 220.0, 64.0).unwrap();
    let record = cohort.sample_record(2, 0, &sample, 40).unwrap();
    let fs = record.signal().sampling_frequency();
    let config = SlidingWindowConfig::paper_default(fs).unwrap();
    let batch_set = RichFeatureSet::new(fs).unwrap();
    let mut streaming = StreamingRichExtractor::new(&config).unwrap();
    for scenario in HostileScenario::all() {
        for severity in [0.25, 0.6, 1.0] {
            let degraded = degrade_signal(record.signal(), scenario, severity, 99).unwrap();
            let (a, b) = (degraded.f7t3(), degraded.f8t4());
            let batch = batch_set.extract_batch(a, b, &config).unwrap();
            streaming.reset();
            let streamed = stream_record(&mut streaming, a, b);
            let context = format!("{} at severity {severity}", scenario.name());
            assert_bit_exact(&streamed, &batch, &context);
            assert_near_reference(&streamed, a, b, &config, &context);
        }
    }
}

/// Every paper geometry on a record long enough to fan out across workers:
/// batch rows are the streamed rows bit for bit, and both stay within 1e-9
/// of the per-window textbook reference.
#[test]
fn paper_streaming_matches_batch_and_the_reference_at_every_rate() {
    for (fs, window_secs, overlap) in PAPER_GEOMETRIES {
        let config = SlidingWindowConfig::new(fs, window_secs, overlap).unwrap();
        let n = config.window_samples() + 47 * config.step_samples();
        let (a, b) = (synth_channel(n, 3), synth_channel(n, 4));
        let paper = PaperFeatureSet::new(fs).unwrap();
        let batch = paper.extract_batch(&a, &b, &config).unwrap();
        let streamed = stream_paper(&config, &a, &b);
        let context = format!("paper at {fs} Hz, {window_secs} s, {overlap}");
        assert_bit_exact(&streamed, &batch, &context);
        for ((w, row), (wa, wb)) in streamed
            .iter()
            .enumerate()
            .zip(config.windows(&a).zip(config.windows(&b)))
        {
            let reference = paper.extract_window(wa, wb).unwrap();
            for (c, (&s, &r)) in row.iter().zip(&reference).enumerate() {
                assert!(
                    (s - r).abs() <= 1e-9 * (1.0 + r.abs()),
                    "{context}: window {w} column {c}: streamed {s} vs reference {r}"
                );
            }
        }
    }
}

/// Every hostile scenario at three severities: the paper engine streams
/// artifact-dominated records (NaN and railed samples, dropouts, pops)
/// into the batch rows bit for bit.
#[test]
fn paper_streaming_survives_hostile_scenarios_bit_for_bit() {
    let cohort = Cohort::chb_mit_like(5);
    let sample = SampleConfig::new(180.0, 220.0, 64.0).unwrap();
    let record = cohort.sample_record(2, 0, &sample, 40).unwrap();
    let fs = record.signal().sampling_frequency();
    let config = SlidingWindowConfig::paper_default(fs).unwrap();
    let paper = PaperFeatureSet::new(fs).unwrap();
    for scenario in HostileScenario::all() {
        for severity in [0.25, 0.6, 1.0] {
            let degraded = degrade_signal(record.signal(), scenario, severity, 99).unwrap();
            let (a, b) = (degraded.f7t3(), degraded.f8t4());
            let batch = paper.extract_batch(a, b, &config).unwrap();
            let context = format!("paper, {} at severity {severity}", scenario.name());
            assert_bit_exact(&stream_paper(&config, a, b), &batch, &context);
        }
    }
}

/// A 250 Hz record, whose 250-sample hop shifts the rich set's db4 bands
/// below level 1 by fractions of a coefficient: batch rows are the streamed
/// rows bit for bit and stay near the two-pass reference.
#[test]
fn rich_streaming_at_250_hz_matches_batch_and_the_reference() {
    let config = SlidingWindowConfig::paper_default(250.0).unwrap();
    let n = config.window_samples() + 30 * config.step_samples();
    let (a, b) = (synth_channel(n, 250), synth_channel(n, 251));
    let batch = RichFeatureSet::new(250.0)
        .unwrap()
        .extract_batch(&a, &b, &config)
        .unwrap();
    let mut streaming = StreamingRichExtractor::new(&config).unwrap();
    let streamed = stream_record(&mut streaming, &a, &b);
    assert_bit_exact(&streamed, &batch, "rich at 250 Hz");
    assert_near_reference(&streamed, &a, &b, &config, "rich at 250 Hz");
}

/// The full sample-at-a-time path: a trained detector streamed one sample
/// pair per tick agrees with its own batch `detect_into`, alarms and quality
/// verdicts alike, on a clean record and on every hostile scenario at four
/// severities (the gate is uncalibrated, so no record-level gain correction
/// separates the two paths). Both are equal by construction: both paths
/// stream the same feature rows and grade through the same per-hop
/// summaries.
#[test]
fn sample_at_a_time_push_matches_batch_detect() {
    let cohort = Cohort::chb_mit_like(3);
    let sample = SampleConfig::new(60.0, 100.0, 64.0).unwrap();
    let record = cohort.sample_record(8, 0, &sample, 5).unwrap();
    let truth =
        SeizureLabel::new(record.annotation().onset(), record.annotation().offset()).unwrap();
    let mut detector = RealTimeDetector::new(RealTimeDetectorConfig::default());
    let mut ws = FeatureWorkspace::new();
    let labels = detector
        .build_training_windows_with(record.signal(), &truth, &mut ws)
        .unwrap();
    detector
        .train(ws.matrix().data(), ws.matrix().num_features(), &labels)
        .unwrap();

    let probe = cohort.sample_record(8, 1, &sample, 6).unwrap();
    let mut signals = vec![("clean".to_string(), probe.signal().clone())];
    for scenario in HostileScenario::all() {
        for severity in [0.25, 0.6, 1.0, 2.5] {
            let degraded = degrade_signal(probe.signal(), scenario, severity, 123).unwrap();
            signals.push((format!("{} at {severity}", scenario.name()), degraded));
        }
    }
    let mut rejected = 0;
    for (context, signal) in &signals {
        let (batch_alarms, batch_verdicts) = detector.detect_into(signal, &mut ws).unwrap();
        let mut streaming = detector.streaming(signal.sampling_frequency()).unwrap();
        let (mut alarms, mut verdicts) = (Vec::new(), Vec::new());
        for (&a, &b) in signal.f7t3().iter().zip(signal.f8t4().iter()) {
            if let Some(detection) = streaming.push(a, b).unwrap() {
                assert_eq!(detection.window_index, alarms.len(), "{context}");
                alarms.push(detection.alarm);
                verdicts.push(detection.verdict);
            }
        }
        assert_eq!(alarms, batch_alarms, "{context}: alarms");
        assert_eq!(verdicts, batch_verdicts, "{context}: verdicts");
        rejected += verdicts
            .iter()
            .filter(|&&v| v == QualityVerdict::Reject)
            .count();
    }
    // The sweep reaches the gate's `Reject` path, not only clean windows.
    assert!(rejected > 0);
}

/// A batch entry point applied to a matrix.
type BatchCall<'a> = &'a dyn Fn(&mut FeatureMatrix) -> Result<(), FeatureError>;

/// One rule decides which geometries stream: for each geometry, the three
/// hop engines' constructors, the detector's streaming front end and the
/// paper, rich and quality batch entry points return exactly
/// `SlidingWindowConfig::check_streamable`'s verdict, and a refused batch
/// call leaves its matrix as it was.
#[test]
fn every_entry_point_streams_exactly_the_geometries_the_rule_admits() {
    // (fs, window s, overlap, streamable)
    let table = [
        (256.0, 4.0, 0.75, true),
        (250.0, 4.0, 0.75, true),
        (64.0, 2.0, 0.5, true),
        // A 410-sample step does not tile the 1024-sample window.
        (256.0, 4.0, 0.6, false),
        // No overlap: one hop per window.
        (256.0, 4.0, 0.0, false),
        // 4-sample hops of a 16-sample window.
        (16.0, 1.0, 0.75, false),
        // A 10-sample window of 5-sample hops.
        (10.0, 1.0, 0.5, false),
        // 4e15-sample windows.
        (1e15, 4.0, 0.75, false),
    ];
    // A forest to stream with: rows of any geometry train it.
    let labels: Vec<bool> = (0..20).map(|i| i % 2 == 0).collect();
    let rows: Vec<f64> = labels
        .iter()
        .enumerate()
        .flat_map(|(i, &l)| (0..54).map(move |c| f64::from(u8::from(l)) + 0.01 * (i + c) as f64))
        .collect();
    let filled = {
        let (a, b) = (synth_channel(12 * 256, 1), synth_channel(12 * 256, 2));
        let config = SlidingWindowConfig::paper_default(256.0).unwrap();
        PaperFeatureSet::new(256.0)
            .unwrap()
            .extract_batch(&a, &b, &config)
            .unwrap()
    };
    for (fs, window_secs, overlap, streamable) in table {
        let context = format!("{fs} Hz, {window_secs} s, {overlap} overlap");
        let config = SlidingWindowConfig::new(fs, window_secs, overlap).unwrap();
        let rule = config.check_streamable();
        assert_eq!(rule.is_ok(), streamable, "{context}: {rule:?}");
        let verdict = rule.err();
        assert!(
            verdict
                .as_ref()
                .is_none_or(|e| matches!(e, FeatureError::InvalidConfig { name: "config", .. })),
            "{context}: {verdict:?}"
        );
        assert_eq!(
            StreamingRichExtractor::new(&config).err(),
            verdict,
            "rich engine, {context}"
        );
        assert_eq!(
            StreamingPaperExtractor::new(&config).err(),
            verdict,
            "paper engine, {context}"
        );
        let quality = QualityExtractor::new(fs).unwrap();
        assert_eq!(
            QualityGrader::new(&quality, &config).err(),
            verdict,
            "quality grader, {context}"
        );
        let mut detector = RealTimeDetector::new(RealTimeDetectorConfig {
            window_secs,
            overlap,
            ..RealTimeDetectorConfig::default()
        });
        detector.train(&rows, 54, &labels).unwrap();
        assert_eq!(
            detector.streaming(fs).err(),
            verdict.clone().map(CoreError::Feature),
            "detector front end, {context}"
        );

        // A record of a few windows; none fits at 1e15 Hz, where the rule
        // must speak before the record check.
        let n = (config.window_samples() + 3 * config.step_samples()).min(1 << 16);
        let (a, b) = (synth_channel(n, 3), synth_channel(n, 4));
        let paper = PaperFeatureSet::new(fs).unwrap();
        let rich = RichFeatureSet::new(fs).unwrap();
        let batches: [(&str, BatchCall); 4] = [
            ("paper batch", &|m| {
                paper.extract_batch_into(&a, &b, &config, m)
            }),
            ("rich batch", &|m| {
                rich.extract_batch_into(&a, &b, &config, m)
            }),
            ("rich selection", &|m| {
                rich.extract_windows_into(&a, &b, &config, &[0], m)
            }),
            ("quality batch", &|m| {
                quality.extract_batch_into(&a, &b, &config, m)
            }),
        ];
        for (entry, batch) in batches {
            let mut matrix = filled.clone();
            assert_eq!(batch(&mut matrix).err(), verdict, "{entry}, {context}");
            if !streamable {
                assert_eq!(matrix, filled, "{entry}, {context}: the refusal wrote");
            }
        }
    }
}
