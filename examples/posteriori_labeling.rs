//! A-posteriori labeling across patients of different difficulty.
//!
//! The paper's Table I shows that the labeling quality varies across patients:
//! patients with clean recordings are labeled within a few seconds while the
//! noisiest patient (patient 2) shows a much larger deviation caused by noise
//! bursts near the seizure. This example reproduces that contrast on a small
//! number of records and also prints the distance profile of Algorithm 1 for
//! one record so the "peak at the seizure" behaviour is visible.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example posteriori_labeling
//! ```

use selflearn_seizure::core::labeler::{LabelerConfig, PosterioriLabeler};
use selflearn_seizure::core::metric::{deviation_seconds, DeviationSummary};
use selflearn_seizure::core::workspace::FeatureWorkspace;
use selflearn_seizure::data::cohort::Cohort;
use selflearn_seizure::data::sampler::SampleConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cohort = Cohort::chb_mit_like(42);
    let config = SampleConfig::new(600.0, 900.0, 128.0)?;
    let labeler = PosterioriLabeler::new(LabelerConfig::default());
    // One extraction workspace serves every record.
    let mut workspace = FeatureWorkspace::new();
    let samples_per_seizure = 2u64;

    println!("per-patient labeling quality (reduced-scale run)");
    println!("patient | seizures | mean delta (s) | gmean delta_norm");
    println!("--------|----------|----------------|-----------------");
    for patient in 0..cohort.patients().len() {
        let mut summary = DeviationSummary::new();
        let w = cohort.average_seizure_duration(patient)?;
        for seizure in 0..cohort.seizures_of(patient)?.len() {
            for sample in 0..samples_per_seizure {
                let record = cohort.sample_record(patient, seizure, &config, sample)?;
                let (label, _) = labeler.label(record.signal(), w, &mut workspace)?;
                summary.record(
                    (record.annotation().onset(), record.annotation().offset()),
                    label.as_interval(),
                    record.signal().duration_secs(),
                )?;
            }
        }
        println!(
            "   {}    |    {}     |     {:8.1}   |      {:.4}",
            patient + 1,
            cohort.seizures_of(patient)?.len(),
            summary.mean_delta().unwrap_or(f64::NAN),
            summary.geometric_mean_normalized().unwrap_or(f64::NAN),
        );
    }

    // Show the distance profile of Algorithm 1 on one record of the cleanest
    // patient (patient 8): the profile peaks where the seizure lies.
    let patient = 7;
    let record = cohort.sample_record(patient, 0, &config, 0)?;
    let w = cohort.average_seizure_duration(patient)?;
    let (label, detection) = labeler.label(record.signal(), w, &mut workspace)?;
    let delta = deviation_seconds(
        (record.annotation().onset(), record.annotation().offset()),
        label.as_interval(),
    )?;
    println!();
    println!(
        "patient 8, seizure 1: ground truth [{:.0}, {:.0}] s, label [{:.0}, {:.0}] s, delta = {delta:.1} s",
        record.annotation().onset(),
        record.annotation().offset(),
        label.onset_secs(),
        label.offset_secs()
    );
    println!("distance profile of Algorithm 1 (one '#' per 2% of the peak):");
    let peak = detection.peak_distance();
    for (i, d) in detection.distances.iter().enumerate().step_by(20) {
        let bars = ((d / peak) * 50.0).round() as usize;
        println!("{:5} s | {}", i, "#".repeat(bars));
    }
    Ok(())
}
