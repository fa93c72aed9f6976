//! Integration test of the full self-learning loop: a-posteriori labels train
//! the real-time detector and the result is compared against expert labels
//! (the experiment behind the paper's Fig. 4, at reduced scale).

use selflearn_seizure::core::labeler::{LabelerConfig, PosterioriLabeler};
use selflearn_seizure::core::pipeline::{LabelSource, SelfLearningPipeline};
use selflearn_seizure::core::realtime::RealTimeDetectorConfig;
use selflearn_seizure::core::workspace::FeatureWorkspace;
use selflearn_seizure::core::{CoreError, SeizureLabel};
use selflearn_seizure::data::annotation::SeizureAnnotation;
use selflearn_seizure::data::cohort::Cohort;
use selflearn_seizure::data::sampler::{EegRecord, SampleConfig};
use selflearn_seizure::data::signal::EegSignal;
use selflearn_seizure::features::FeatureError;
use selflearn_seizure::ml::forest::RandomForestConfig;

fn fast_detector() -> RealTimeDetectorConfig {
    RealTimeDetectorConfig {
        forest: RandomForestConfig {
            n_trees: 10,
            max_depth: 6,
            ..RandomForestConfig::default()
        },
        ..RealTimeDetectorConfig::default()
    }
}

fn sample_config() -> SampleConfig {
    SampleConfig::new(200.0, 280.0, 64.0).unwrap()
}

/// Trains a pipeline on the first `n_train` seizures of a patient with the
/// given label source and returns the geometric mean on the remaining ones.
fn run_pipeline(patient: usize, n_train: usize, source: LabelSource) -> f64 {
    let cohort = Cohort::chb_mit_like(17);
    let config = sample_config();
    let w = cohort.average_seizure_duration(patient).unwrap();
    let mut pipeline = SelfLearningPipeline::new(LabelerConfig::default(), fast_detector());
    for seizure in 0..n_train {
        let record = cohort
            .sample_record(patient, seizure, &config, seizure as u64)
            .unwrap();
        pipeline.observe_missed_seizure(&record, w, source).unwrap();
    }
    let held_out: Vec<_> = (n_train..cohort.seizures_of(patient).unwrap().len())
        .map(|s| {
            cohort
                .sample_record(patient, s, &config, 50 + s as u64)
                .unwrap()
        })
        .collect();
    pipeline.evaluate_all(&held_out).unwrap().geometric_mean
}

#[test]
fn algorithm_labels_train_a_usable_detector() {
    // Clean patient (9): the detector trained on algorithm labels must reach a
    // solid geometric mean on held-out seizures.
    let gmean = run_pipeline(8, 3, LabelSource::Algorithm);
    assert!(gmean > 0.7, "geometric mean = {gmean:.3}");
}

#[test]
fn algorithm_labels_are_close_to_expert_labels() {
    // The paper's headline validation: training on algorithm labels degrades
    // the detector only slightly compared to expert labels. At this reduced
    // scale we allow a generous margin but the ordering and proximity must
    // hold.
    let expert = run_pipeline(8, 3, LabelSource::Expert);
    let algorithm = run_pipeline(8, 3, LabelSource::Algorithm);
    assert!(expert > 0.7, "expert-label baseline too weak: {expert:.3}");
    let degradation = expert - algorithm;
    assert!(
        degradation < 0.15,
        "algorithm-label training degraded the detector by {degradation:.3} \
         (expert {expert:.3}, algorithm {algorithm:.3})"
    );
}

/// The acceptance property of the persistence subsystem at experiment scale:
/// interrupting the Fig. 4 training loop with a save/resume round trip after
/// every collected seizure must leave the final detector node-identical to
/// the uninterrupted run — identical held-out detections, identical metrics.
#[test]
fn experiment_survives_a_process_boundary_after_every_seizure() {
    let cohort = Cohort::chb_mit_like(17);
    let config = sample_config();
    let patient = 8;
    let w = cohort.average_seizure_duration(patient).unwrap();

    let mut uninterrupted = SelfLearningPipeline::new(LabelerConfig::default(), fast_detector());
    let mut resumed = SelfLearningPipeline::new(LabelerConfig::default(), fast_detector());
    for seizure in 0..3 {
        let record = cohort
            .sample_record(patient, seizure, &config, seizure as u64)
            .unwrap();
        uninterrupted
            .observe_missed_seizure(&record, w, LabelSource::Algorithm)
            .unwrap();
        resumed
            .observe_missed_seizure(&record, w, LabelSource::Algorithm)
            .unwrap();
        // The "power cycle": serialize, drop, restore.
        resumed = SelfLearningPipeline::resume(&resumed.save()).unwrap();
    }
    assert_eq!(
        resumed.detector().flat_forest(),
        uninterrupted.detector().flat_forest()
    );
    assert_eq!(resumed.num_seizures_collected(), 3);

    let held_out = cohort.sample_record(patient, 3, &config, 53).unwrap();
    assert_eq!(
        resumed.detector().detect(held_out.signal()).unwrap(),
        uninterrupted.detector().detect(held_out.signal()).unwrap()
    );
    let a = resumed.evaluate(&held_out).unwrap();
    let b = uninterrupted.evaluate(&held_out).unwrap();
    assert_eq!(a, b);
}

#[test]
fn detector_improves_with_more_collected_seizures() {
    let one = run_pipeline(8, 1, LabelSource::Algorithm);
    let three = run_pipeline(8, 3, LabelSource::Algorithm);
    // More personalized data should not make the detector substantially worse.
    assert!(
        three >= one - 0.1,
        "3-seizure detector ({three:.3}) much worse than 1-seizure detector ({one:.3})"
    );
}

#[test]
fn a_rate_no_record_holds_a_window_of_is_refused_by_every_record_entry_point() {
    // At 1e15 Hz a 4 s window spans 4e15 samples. The geometry tiles, but a
    // 4 096-sample record holds no window, and any engine built for it would
    // ask for petabytes. Every record entry point must return an error
    // instead of building one.
    let n = 4096;
    let signal = EegSignal::new(
        (0..n).map(|i| (i as f64 * 0.1).sin()).collect(),
        (0..n).map(|i| (i as f64 * 0.3).cos()).collect(),
        1e15,
    )
    .unwrap();
    let annotation = SeizureAnnotation::new(0.0, 1e-12).unwrap();
    let record = EegRecord::new(signal.clone(), annotation, 0, 0).unwrap();
    let truth = SeizureLabel::new(0.0, 1e-12).unwrap();
    // Every engine's geometry check refuses the 4e15-sample window, which
    // its u32 pattern counters cannot count, before it meets the record: the
    // detector's before any quality grading or rich extraction, and the
    // paper engine's before labeling.
    let invalid_config = |err: &CoreError| {
        matches!(
            err,
            CoreError::Feature(FeatureError::InvalidConfig { name: "config", .. })
        )
    };
    let cohort = Cohort::chb_mit_like(17);
    let normal = cohort.sample_record(8, 0, &sample_config(), 3).unwrap();
    let mut ws = FeatureWorkspace::new();
    for gate in [true, false] {
        let config = RealTimeDetectorConfig {
            quality_gate: gate,
            ..fast_detector()
        };
        let mut pipeline = SelfLearningPipeline::new(LabelerConfig::default(), config);
        let err = pipeline
            .observe_missed_seizure(&record, 30.0, LabelSource::Algorithm)
            .unwrap_err();
        assert!(invalid_config(&err), "gate {gate}: {err:?}");
        assert_eq!(pipeline.num_seizures_collected(), 0);
        let err = pipeline
            .detector()
            .build_training_windows_with(&signal, &truth, &mut ws)
            .unwrap_err();
        assert!(invalid_config(&err), "gate {gate}: {err:?}");
        pipeline
            .observe_missed_seizure(&normal, 30.0, LabelSource::Expert)
            .unwrap();
        let err = pipeline
            .detector()
            .detect_into(&signal, &mut ws)
            .unwrap_err();
        assert!(invalid_config(&err), "gate {gate}: {err:?}");
    }
    let err = PosterioriLabeler::new(LabelerConfig::default())
        .label(&signal, 30.0, &mut ws)
        .unwrap_err();
    assert!(invalid_config(&err), "{err:?}");
}

#[test]
fn a_window_past_u32_samples_is_refused_by_the_streaming_front_end() {
    // At 1e15 Hz a 4 s window spans 4e15 samples, more than the hop
    // summaries' u32 counters can count. The streaming front end has no
    // record to check, so the geometry check must refuse the rate before the
    // extractor asks for a 4e15-sample window ring.
    let cohort = Cohort::chb_mit_like(17);
    let record = cohort.sample_record(8, 0, &sample_config(), 3).unwrap();
    let mut pipeline = SelfLearningPipeline::new(LabelerConfig::default(), fast_detector());
    pipeline
        .observe_missed_seizure(&record, 30.0, LabelSource::Expert)
        .unwrap();
    let err = pipeline.detector().streaming(1e15).unwrap_err();
    assert!(
        matches!(
            err,
            CoreError::Feature(FeatureError::InvalidConfig { name: "config", .. })
        ),
        "{err:?}"
    );
    // The paper's rate still streams: 7 s at 256 Hz complete four windows.
    let mut stream = pipeline.detector().streaming(256.0).unwrap();
    let mut windows = Vec::new();
    for i in 0..7 * 256 {
        let t = i as f64 / 256.0;
        if let Some(d) = stream.push((t * 9.0).sin(), (t * 5.0).cos()).unwrap() {
            windows.push(d.window_index);
        }
    }
    assert_eq!(windows, vec![0, 1, 2, 3]);
}
