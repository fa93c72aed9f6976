//! Streaming detection: feed a record to a trained detector one sample at a
//! time, as a wearable's ADC interrupt would, and compare the streamed
//! alarms against the batch `detect` pass.
//!
//! The streaming front end carries moments, ordinal-pattern tables and
//! wavelet coefficients across the 75 % window overlap instead of
//! recomputing each 4-second window from scratch. Batch `detect` streams its
//! feature rows through the same extractor, so the two agree bit for bit
//! (see the "Streaming extraction" section of the README).
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example streaming_detection
//! ```

use std::time::Instant;

use selflearn_seizure::core::realtime::{QualityVerdict, RealTimeDetector, RealTimeDetectorConfig};
use selflearn_seizure::core::workspace::FeatureWorkspace;
use selflearn_seizure::core::SeizureLabel;
use selflearn_seizure::data::cohort::Cohort;
use selflearn_seizure::data::sampler::SampleConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Two records of the same patient: one to train on, one to stream.
    let cohort = Cohort::chb_mit_like(3);
    let sample = SampleConfig::new(120.0, 180.0, 64.0)?;
    let training_record = cohort.sample_record(4, 0, &sample, 11)?;
    let probe = cohort.sample_record(4, 1, &sample, 12)?;

    let truth = SeizureLabel::new(
        training_record.annotation().onset(),
        training_record.annotation().offset(),
    )?;
    // Every window of the training record, as flat rows in the workspace.
    let mut detector = RealTimeDetector::new(RealTimeDetectorConfig::default());
    let mut ws = FeatureWorkspace::new();
    let labels = detector.build_training_windows_with(training_record.signal(), &truth, &mut ws)?;
    detector.train(ws.matrix().data(), ws.matrix().num_features(), &labels)?;
    println!(
        "trained on {:.0} s of patient 5 ({} windows)",
        training_record.signal().duration_secs(),
        labels.len(),
    );

    // The batch reference: whole-record extraction + classification.
    let batch_alarms = detector.detect(probe.signal())?;

    // The streaming path: one `push` per ADC tick. The detector emits one
    // detection per completed window (every hop once warmed up).
    let fs = probe.signal().sampling_frequency();
    let mut streaming = detector.streaming(fs)?;
    println!(
        "streaming front end: {} heap bytes held for {}-sample hops ({}-sample windows)",
        streaming.heap_bytes(),
        streaming.step_samples(),
        streaming.window_samples(),
    );

    let f7t3 = probe.signal().f7t3();
    let f8t4 = probe.signal().f8t4();
    let started = Instant::now();
    let mut alarms = Vec::new();
    let mut rejected = 0usize;
    for (&a, &b) in f7t3.iter().zip(f8t4.iter()) {
        if let Some(detection) = streaming.push(a, b)? {
            if detection.verdict == QualityVerdict::Reject {
                rejected += 1;
            }
            if detection.alarm {
                let onset = detection.window_index as f64 * streaming.step_samples() as f64 / fs;
                println!(
                    "  alarm at window {:>3} (t = {onset:.0} s)",
                    detection.window_index
                );
            }
            alarms.push(detection.alarm);
        }
    }
    let elapsed = started.elapsed().as_secs_f64();

    assert_eq!(
        alarms, batch_alarms,
        "streamed alarms must match the batch detect pass"
    );
    let flagged = alarms.iter().filter(|&&a| a).count();
    println!(
        "streamed {:.0} s in {:.1} ms ({:.0}x real time): {} windows, {} alarms, {} rejected — identical to batch detect",
        probe.signal().duration_secs(),
        1e3 * elapsed,
        probe.signal().duration_secs() / elapsed,
        alarms.len(),
        flagged,
        rejected,
    );
    Ok(())
}
