//! Quickstart: label one missed seizure a posteriori and compare the label
//! against the ground truth.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use selflearn_seizure::core::labeler::{LabelerConfig, PosterioriLabeler};
use selflearn_seizure::core::metric::{deviation_seconds, normalized_deviation};
use selflearn_seizure::core::workspace::FeatureWorkspace;
use selflearn_seizure::data::cohort::Cohort;
use selflearn_seizure::data::sampler::SampleConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The synthetic CHB-MIT-like cohort: 9 patients, 45 seizures.
    let cohort = Cohort::chb_mit_like(42);
    println!(
        "cohort: {} patients, {} seizures",
        cohort.patients().len(),
        cohort.total_seizures()
    );

    // One evaluation record: a 10–15 minute recording at 128 Hz containing a
    // single seizure of patient 1 (use `SampleConfig::paper_default()` for the
    // paper's 30–60 minute records at 256 Hz).
    let config = SampleConfig::new(600.0, 900.0, 128.0)?;
    let record = cohort.sample_record(0, 0, &config, 7)?;
    println!(
        "record: {:.0} s of two-channel EEG at {:.0} Hz",
        record.signal().duration_secs(),
        record.signal().sampling_frequency()
    );
    println!(
        "ground truth: seizure in [{:.1}, {:.1}] s",
        record.annotation().onset(),
        record.annotation().offset()
    );

    // The only supervision the algorithm needs: the patient's average seizure
    // duration, provided once by a medical expert.
    let average_seizure_secs = cohort.average_seizure_duration(0)?;

    // Run the a-posteriori minimally-supervised labeling (Algorithm 1).
    let labeler = PosterioriLabeler::new(LabelerConfig::default());
    let (label, _) = labeler.label(
        record.signal(),
        average_seizure_secs,
        &mut FeatureWorkspace::new(),
    )?;
    println!(
        "algorithm label: [{:.1}, {:.1}] s",
        label.onset_secs(),
        label.offset_secs()
    );

    // Measure the label quality with the paper's deviation metric.
    let truth = (record.annotation().onset(), record.annotation().offset());
    let delta = deviation_seconds(truth, label.as_interval())?;
    let delta_norm =
        normalized_deviation(truth, label.as_interval(), record.signal().duration_secs())?;
    println!("deviation       : delta = {delta:.1} s, delta_norm = {delta_norm:.4}");
    Ok(())
}
