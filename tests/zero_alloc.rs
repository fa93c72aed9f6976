//! Runtime check that the streaming detection path and the batch window
//! kernels do not allocate.
//!
//! `seizure-lint`'s `hot-path-alloc` rule checks the claim lexically; this
//! test counts real heap allocations. A counting global allocator wraps the
//! system allocator. Its counter lives in a const-initialized thread-local,
//! because cargo runs tests on parallel threads and only the allocations of
//! the thread under test may count.
//!
//! A trained, calibrated, gated detector streams a clean record and hostile
//! ones, so the gate's `Suspect` and `Reject` paths run too. Every
//! `StreamingDetector::push` after the first completed window must allocate
//! nothing, across resets and records, and so must `FlatForest::predict`.
//! That covers the rich features' one engine, `StreamingRichExtractor::
//! push_hop`, which the batch path streams too. The paper set's per-window
//! kernel, `extract_window_into`, must allocate nothing after its first
//! call, on clean, NaN-laced and all-zero windows, and its batch engine
//! must allocate per call (one scratch per worker), not per window. Batch
//! `detect_into` is left out: it fills a feature matrix per record, builds
//! one quality grader and one streaming extractor per worker, and on a
//! calibrated gate its slow gain correction's Theil–Sen fit takes a sorted
//! copy of the abscissae, two bounded slope-key buffers and the per-window
//! intercepts on each call.

use selflearn_seizure::core::labeler::LabelerConfig;
use selflearn_seizure::core::pipeline::{LabelSource, SelfLearningPipeline};
use selflearn_seizure::core::realtime::{QualityVerdict, RealTimeDetectorConfig};
use selflearn_seizure::core::workspace::FeatureWorkspace;
use selflearn_seizure::core::SeizureLabel;
use selflearn_seizure::data::cohort::Cohort;
use selflearn_seizure::data::sampler::SampleConfig;
use selflearn_seizure::data::synth::{degrade_signal, HostileScenario};
use selflearn_seizure::features::extractor::{
    FeatureExtractor, PaperFeatureSet, SlidingWindowConfig,
};
use selflearn_seizure::features::FeatureMatrix;
use selflearn_seizure::ml::forest::RandomForestConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Counts every allocation and reallocation of the current thread, then
/// defers to the system allocator.
struct Counting;

fn count() {
    // `try_with`: the allocator may run while the thread-local is being torn
    // down at thread exit; those calls go uncounted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; counting touches only a
// const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: same contract as `System::alloc`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: `layout` comes from the caller under `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: same contract as `System::alloc_zeroed`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: `layout` comes from the caller under `alloc_zeroed`'s
        // contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: same contract as `System::realloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` was allocated by this allocator (that is, by
        // `System`) with `layout`, as `realloc`'s contract requires.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: same contract as `System::dealloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made on this thread so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn the_counter_sees_this_threads_allocations() {
    let before = allocations();
    let v: Vec<u64> = Vec::with_capacity(std::hint::black_box(3));
    assert_eq!(allocations() - before, 1);
    drop(v);
}

#[test]
fn streaming_push_and_forest_predict_do_not_allocate() {
    let cohort = Cohort::chb_mit_like(37);
    let patient = 8;
    let config = SampleConfig::new(150.0, 200.0, 64.0).unwrap();
    let detector_config = RealTimeDetectorConfig {
        forest: RandomForestConfig {
            n_trees: 8,
            max_depth: 6,
            ..RandomForestConfig::default()
        },
        ..RealTimeDetectorConfig::default()
    };
    let mut pipeline = SelfLearningPipeline::new(LabelerConfig::default(), detector_config);
    let w = cohort.average_seizure_duration(patient).unwrap();
    let first = cohort.sample_record(patient, 0, &config, 91).unwrap();
    pipeline
        .observe_missed_seizure(&first, w, LabelSource::Algorithm)
        .unwrap()
        .expect("clean record must pass the gate");
    let detector = pipeline.detector();
    assert!(detector.config().quality_gate);
    assert!(detector.quality_gate().is_calibrated());

    let probe = cohort.sample_record(patient, 1, &config, 92).unwrap();
    let fs = probe.signal().sampling_frequency();
    let mut signals = vec![("clean".to_string(), probe.signal().clone())];
    for scenario in HostileScenario::all() {
        let degraded = degrade_signal(probe.signal(), scenario, 1.0, 7).unwrap();
        signals.push((scenario.name().to_string(), degraded));
    }

    let mut streaming = detector.streaming(fs).unwrap();
    let mut warmed = false;
    let (mut suspect, mut rejected) = (0, 0);
    for (name, signal) in &signals {
        streaming.reset();
        for (i, (&a, &b)) in signal.f7t3().iter().zip(signal.f8t4()).enumerate() {
            let before = allocations();
            let detection = streaming.push(a, b).unwrap();
            let allocated = allocations() - before;
            if warmed {
                assert_eq!(allocated, 0, "{name}: push of sample {i} allocated");
            }
            if let Some(detection) = detection {
                warmed = true;
                suspect += usize::from(detection.verdict == QualityVerdict::Suspect);
                rejected += usize::from(detection.verdict == QualityVerdict::Reject);
            }
        }
    }
    assert!(warmed);
    assert!(
        suspect > 0 && rejected > 0,
        "{suspect} suspect, {rejected} rejected"
    );

    let forest = detector.flat_forest().unwrap();
    let annotation = probe.annotation();
    let truth = SeizureLabel::new(annotation.onset(), annotation.offset()).unwrap();
    let mut ws = FeatureWorkspace::new();
    detector
        .build_training_windows_with(probe.signal(), &truth, &mut ws)
        .unwrap();
    for (i, row) in ws.matrix().rows().enumerate() {
        let before = allocations();
        std::hint::black_box(forest.predict(row));
        assert_eq!(allocations() - before, 0, "predict of row {i} allocated");
    }
}

#[test]
fn batch_window_kernels_do_not_allocate_after_the_first_call() {
    let (fs, n) = (256.0, 1024);
    let tone = |hz: f64, amp: f64| -> Vec<f64> {
        (0..n)
            .map(|i| {
                amp * (2.0 * std::f64::consts::PI * hz * i as f64 / fs).sin() + 0.01 * i as f64
            })
            .collect()
    };
    let (f7t3, f8t4) = (tone(6.0, 40.0), tone(2.5, 25.0));
    let lace = |clean: &[f64], every: usize| -> Vec<f64> {
        let mut laced = clean.to_vec();
        laced.iter_mut().step_by(every).for_each(|x| *x = f64::NAN);
        laced
    };
    let (nan_f7t3, nan_f8t4) = (lace(&f7t3, 37), lace(&f8t4, 29));
    let zeros = vec![0.0; n];
    let windows: [(&str, &[f64], &[f64]); 3] = [
        ("clean", &f7t3, &f8t4),
        ("NaN-laced", &nan_f7t3, &nan_f8t4),
        ("all-zero", &zeros, &zeros),
    ];

    let paper = PaperFeatureSet::new(fs).unwrap();
    let mut paper_scratch = paper.scratch(n).unwrap();
    let mut paper_row = vec![0.0; paper.num_features()];
    // The first call sizes the scratch's pattern-count table.
    paper
        .extract_window_into(&f7t3, &f8t4, &mut paper_row, &mut paper_scratch)
        .unwrap();
    for round in 0..2 {
        for (name, a, b) in windows {
            let before = allocations();
            paper
                .extract_window_into(a, b, &mut paper_row, &mut paper_scratch)
                .unwrap();
            let paper_allocated = allocations() - before;
            assert_eq!(
                paper_allocated, 0,
                "paper set, {name} window, round {round}: allocated"
            );
        }
    }
}

#[test]
fn paper_batch_extraction_allocates_per_call_not_per_window() {
    // Records of fewer than 16 windows stay below the two-worker fan-out
    // cutoff, so the one worker runs on this thread and its allocations
    // count here.
    let fs = 256.0;
    let config = SlidingWindowConfig::paper_default(fs).unwrap();
    let record = |windows: usize| -> (Vec<f64>, Vec<f64>) {
        let n = config.window_samples() + (windows - 1) * config.step_samples();
        let a = (0..n)
            .map(|i| 40.0 * (i as f64 * 0.15).sin() + 0.01 * i as f64)
            .collect();
        let b = (0..n).map(|i| 25.0 * (i as f64 * 0.06).cos()).collect();
        (a, b)
    };
    let paper = PaperFeatureSet::new(fs).unwrap();
    let mut matrix = FeatureMatrix::default();
    // The warm-up call sizes the matrix for 15 rows.
    let (a, b) = record(15);
    paper
        .extract_batch_into(&a, &b, &config, &mut matrix)
        .unwrap();
    let mut counts = Vec::new();
    for windows in [9, 15] {
        let (a, b) = record(windows);
        let before = allocations();
        paper
            .extract_batch_into(&a, &b, &config, &mut matrix)
            .unwrap();
        counts.push(allocations() - before);
        assert_eq!(matrix.num_windows(), windows);
    }
    assert_eq!(
        counts[0], counts[1],
        "a 9-window and a 15-window call allocated {} and {} times",
        counts[0], counts[1]
    );
}
