//! Pins the bits of every DSP-derived output the detector and the labeler
//! consume.
//!
//! Each case pins the length and the FNV-1a hash of one output: floats are
//! hashed over the little-endian bytes of their `to_bits()`, the pipeline
//! snapshot over its bytes. The input is a fixed 30-second two-channel record
//! at 256 Hz, whose 1 024-sample windows take the packed real FFT, and at
//! 192 Hz, whose 768-sample windows take the DFT fallback and are still
//! hop-structured for the streaming wavelet carry. A refactor of the DSP or
//! feature layers must leave every pin unchanged; a pin moves only when a
//! feature definition does.

use selflearn_seizure::core::labeler::LabelerConfig;
use selflearn_seizure::core::pipeline::SelfLearningPipeline;
use selflearn_seizure::core::realtime::RealTimeDetectorConfig;
use selflearn_seizure::dsp::spectrum::periodogram;
use selflearn_seizure::dsp::wavelet::wavedec;
use selflearn_seizure::features::extractor::{
    FeatureExtractor, PaperFeatureSet, RichFeatureSet, SlidingWindowConfig,
};
use selflearn_seizure::features::streaming::StreamingRichExtractor;
use selflearn_seizure::ml::persist::fnv1a;

/// A deterministic 30-second record: theta and delta tones, a slow drift
/// and xorshift noise, different on each channel.
fn record(fs: f64) -> (Vec<f64>, Vec<f64>) {
    let n = (30.0 * fs) as usize;
    let mut state = 0x9E37_79B9_7F4A_7C15_u64;
    let mut noise = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    };
    let tone = |hz: f64, i: usize| (2.0 * std::f64::consts::PI * hz * i as f64 / fs).sin();
    let f7t3: Vec<f64> = (0..n)
        .map(|i| 40.0 * tone(6.0, i) + 15.0 * tone(1.5, i) + 20.0 * noise())
        .collect();
    let f8t4: Vec<f64> = (0..n)
        .map(|i| 25.0 * tone(2.5, i) + 10.0 * tone(0.3, i) + 30.0 * noise())
        .collect();
    (f7t3, f8t4)
}

fn float_pin(values: impl IntoIterator<Item = f64>) -> (usize, u64) {
    let bytes: Vec<u8> = values
        .into_iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    (bytes.len() / 8, fnv1a(&bytes))
}

fn assert_pinned(case: &str, got: (usize, u64), expected: (usize, u64)) {
    assert_eq!(
        got, expected,
        "{case}: the output bits moved (got len {}, fnv1a {:#018x})",
        got.0, got.1
    );
}

#[test]
fn batch_feature_matrices_are_pinned() {
    let expected = [
        // (fs, paper matrix, rich matrix). The rich batch rows are streamed,
        // so their pins are `streaming_rich_matrix_is_pinned`'s.
        (
            256.0,
            (270, 0x361e_ea72_4cd1_6afe),
            (1458, 0x9bf7_bdcf_6350_c400),
        ),
        (
            192.0,
            (270, 0x0d38_1b5c_1d0c_cb75),
            (1458, 0x585d_dc01_349b_fce1),
        ),
    ];
    for (fs, paper_pin, rich_pin) in expected {
        let (a, b) = record(fs);
        let config = SlidingWindowConfig::paper_default(fs).unwrap();
        let paper = PaperFeatureSet::new(fs)
            .unwrap()
            .extract_batch(&a, &b, &config)
            .unwrap();
        assert_eq!(paper.num_windows(), 27);
        assert_pinned(
            &format!("paper matrix at {fs} Hz"),
            float_pin(paper.data().iter().copied()),
            paper_pin,
        );
        let rich = RichFeatureSet::new(fs)
            .unwrap()
            .extract_batch(&a, &b, &config)
            .unwrap();
        assert_pinned(
            &format!("rich matrix at {fs} Hz"),
            float_pin(rich.data().iter().copied()),
            rich_pin,
        );
    }
}

#[test]
fn streaming_rich_matrix_is_pinned() {
    let expected = [
        (256.0, (1458, 0x9bf7_bdcf_6350_c400)),
        (192.0, (1458, 0x585d_dc01_349b_fce1)),
    ];
    for (fs, pin) in expected {
        let (a, b) = record(fs);
        let config = SlidingWindowConfig::paper_default(fs).unwrap();
        let mut streaming = StreamingRichExtractor::new(&config).unwrap();
        let hop = config.step_samples();
        let mut row = vec![0.0; streaming.num_features()];
        let mut rows = Vec::new();
        for (hop_a, hop_b) in a.chunks_exact(hop).zip(b.chunks_exact(hop)) {
            if streaming.push_hop(hop_a, hop_b, &mut row).unwrap() {
                rows.extend_from_slice(&row);
            }
        }
        assert_eq!(rows.len(), 27 * streaming.num_features());
        assert_pinned(
            &format!("streaming rich matrix at {fs} Hz"),
            float_pin(rows),
            pin,
        );
    }
}

#[test]
fn first_window_spectrum_and_decomposition_are_pinned() {
    let expected = [
        // (fs, wavedec levels, periodogram, wavedec)
        (
            256.0,
            7,
            (1026, 0x2be7_a917_9dd6_209f),
            (1024, 0xd5ce_b9c5_afb2_0a6a),
        ),
        (
            192.0,
            6,
            (770, 0xbf3f_d9a5_8f9e_a382),
            (768, 0x0f49_77f8_ce71_1a27),
        ),
    ];
    for (fs, levels, psd_pin, dec_pin) in expected {
        let (a, _) = record(fs);
        let window = &a[..SlidingWindowConfig::paper_default(fs)
            .unwrap()
            .window_samples()];
        let psd = periodogram(window, fs).unwrap();
        assert_pinned(
            &format!("periodogram at {fs} Hz"),
            float_pin(psd.freqs().iter().chain(psd.power()).copied()),
            psd_pin,
        );
        let dec = wavedec(window, levels).unwrap();
        let coefficients = dec
            .approximation()
            .iter()
            .chain(dec.details().iter().flatten())
            .copied();
        assert_pinned(
            &format!("level-{levels} wavedec at {fs} Hz"),
            float_pin(coefficients),
            dec_pin,
        );
    }
}

#[test]
fn untrained_pipeline_snapshot_is_pinned() {
    let pipeline =
        SelfLearningPipeline::new(LabelerConfig::default(), RealTimeDetectorConfig::default());
    let bytes = pipeline.save();
    assert_pinned(
        "untrained pipeline save()",
        (bytes.len(), fnv1a(&bytes)),
        (213, 0xd24a_2f05_a815_6a5a),
    );
}
