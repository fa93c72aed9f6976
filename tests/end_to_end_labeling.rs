//! Integration test: raw synthetic EEG → feature extraction → Algorithm 1 →
//! seizure label, checked against the ground truth with the paper's metric.

use selflearn_seizure::core::labeler::{LabelerConfig, PosterioriLabeler};
use selflearn_seizure::core::metric::{deviation_seconds, normalized_deviation, DeviationSummary};
use selflearn_seizure::core::workspace::FeatureWorkspace;
use selflearn_seizure::data::cohort::Cohort;
use selflearn_seizure::data::sampler::SampleConfig;

/// Short, low-rate records keep the test fast while exercising the full path.
fn test_config() -> SampleConfig {
    SampleConfig::new(300.0, 420.0, 64.0).unwrap()
}

#[test]
fn clean_patients_are_labeled_close_to_the_ground_truth() {
    let cohort = Cohort::chb_mit_like(1);
    let labeler = PosterioriLabeler::new(LabelerConfig::default());
    let mut ws = FeatureWorkspace::new();
    let config = test_config();

    // Patients 8 and 9 are the cleanest profiles of the cohort.
    for patient in [7usize, 8] {
        let w = cohort.average_seizure_duration(patient).unwrap();
        let record = cohort.sample_record(patient, 0, &config, 11).unwrap();
        let label = labeler.label(record.signal(), w, &mut ws).unwrap().0;
        let delta = deviation_seconds(
            (record.annotation().onset(), record.annotation().offset()),
            label.as_interval(),
        )
        .unwrap();
        assert!(
            delta < 40.0,
            "patient {} labeled {delta:.1} s away from the ground truth",
            patient + 1
        );
        let dnorm = normalized_deviation(
            (record.annotation().onset(), record.annotation().offset()),
            label.as_interval(),
            record.signal().duration_secs(),
        )
        .unwrap();
        assert!(dnorm > 0.85, "delta_norm = {dnorm}");
    }
}

#[test]
fn labeling_quality_summary_over_several_records() {
    let cohort = Cohort::chb_mit_like(2);
    let labeler = PosterioriLabeler::new(LabelerConfig::default());
    let mut ws = FeatureWorkspace::new();
    let config = test_config();
    let mut summary = DeviationSummary::new();

    // A handful of records from clean patients.
    for (patient, seizure) in [(4usize, 0usize), (7, 1), (8, 0), (8, 2), (0, 0)] {
        let w = cohort.average_seizure_duration(patient).unwrap();
        let record = cohort.sample_record(patient, seizure, &config, 5).unwrap();
        let label = labeler.label(record.signal(), w, &mut ws).unwrap().0;
        summary
            .record(
                (record.annotation().onset(), record.annotation().offset()),
                label.as_interval(),
                record.signal().duration_secs(),
            )
            .unwrap();
    }
    assert_eq!(summary.len(), 5);
    // The majority of clean-patient seizures are found within a minute.
    assert!(summary.fraction_within(60.0).unwrap() >= 0.6);
    assert!(summary.geometric_mean_normalized().unwrap() > 0.8);
    assert!(summary.median_delta().unwrap() < 60.0);
}

#[test]
fn labels_have_the_requested_average_duration() {
    let cohort = Cohort::chb_mit_like(3);
    let labeler = PosterioriLabeler::new(LabelerConfig::default());
    let mut ws = FeatureWorkspace::new();
    let config = test_config();
    let patient = 5;
    let w = cohort.average_seizure_duration(patient).unwrap();
    let record = cohort.sample_record(patient, 1, &config, 9).unwrap();
    let label = labeler.label(record.signal(), w, &mut ws).unwrap().0;
    // The label length is W rounded to the feature-matrix step (1 s), clamped
    // to the record end.
    assert!((label.duration_secs() - w).abs() <= 1.5);
}

#[test]
fn the_hard_patient_is_harder_than_the_clean_one() {
    let cohort = Cohort::chb_mit_like(4);
    let labeler = PosterioriLabeler::new(LabelerConfig::default());
    let mut ws = FeatureWorkspace::new();
    let config = test_config();

    let mut mean_delta = |patient: usize, samples: u64| {
        let w = cohort.average_seizure_duration(patient).unwrap();
        let mut summary = DeviationSummary::new();
        for seizure in 0..cohort.seizures_of(patient).unwrap().len() {
            for sample in 0..samples {
                let record = cohort
                    .sample_record(patient, seizure, &config, sample)
                    .unwrap();
                let label = labeler.label(record.signal(), w, &mut ws).unwrap().0;
                summary
                    .record(
                        (record.annotation().onset(), record.annotation().offset()),
                        label.as_interval(),
                        record.signal().duration_secs(),
                    )
                    .unwrap();
            }
        }
        summary.mean_delta().unwrap()
    };

    // Patient 2 (noisy, weak seizures) versus patient 8 (clean, strong
    // seizures): the paper's Table I shows the same ordering.
    let hard = mean_delta(1, 2);
    let clean = mean_delta(7, 2);
    assert!(
        hard > clean,
        "expected the noisy patient to be harder (hard = {hard:.1} s, clean = {clean:.1} s)"
    );
}
