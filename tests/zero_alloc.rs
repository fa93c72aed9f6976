//! Runtime check that the streaming detection path and the batch hop
//! engines do not allocate.
//!
//! `seizure-lint`'s `hot-path-alloc` rule checks the claim lexically; this
//! test counts real heap allocations. A counting global allocator wraps the
//! system allocator. Its counters live in const-initialized thread-locals,
//! because cargo runs tests on parallel threads and only the allocations of
//! the thread under test may count.
//!
//! A trained, calibrated, gated detector streams a clean record and hostile
//! ones, so the gate's `Suspect` and `Reject` paths run too. Every
//! `StreamingDetector::push` after the first completed window must allocate
//! nothing, across resets and records, and so must `FlatForest::predict`.
//! That covers the rich features' one engine, `StreamingRichExtractor::
//! push_hop`, which the batch path streams too. The paper set's engine,
//! `StreamingPaperExtractor::push_hop`, must allocate nothing after its
//! first window, on clean, NaN-laced and all-zero records, and its batch
//! call must allocate per call (one engine per worker), not per window. A
//! batch call of any of the three sets into a matrix that already carries
//! the set's column names must allocate no name. Batch `detect_into` is
//! left out: it fills a feature matrix per record, builds one quality
//! grader and one streaming extractor per worker, and on a calibrated gate
//! its slow gain correction's Theil–Sen fit takes two bounded slope-key
//! buffers and the per-window intercepts on each call.
//!
//! The same allocator also tracks each thread's live heap bytes. One test
//! pins what the streaming front end holds at the paper geometry, and
//! another checks that each engine's `heap_bytes()` is exactly what its
//! constructor left allocated, at five geometries.

use selflearn_seizure::core::labeler::LabelerConfig;
use selflearn_seizure::core::pipeline::{LabelSource, SelfLearningPipeline};
use selflearn_seizure::core::realtime::{QualityVerdict, RealTimeDetector, RealTimeDetectorConfig};
use selflearn_seizure::core::workspace::FeatureWorkspace;
use selflearn_seizure::core::SeizureLabel;
use selflearn_seizure::data::cohort::Cohort;
use selflearn_seizure::data::sampler::SampleConfig;
use selflearn_seizure::data::synth::{degrade_signal, HostileScenario};
use selflearn_seizure::features::extractor::{
    FeatureExtractor, PaperFeatureSet, RichFeatureSet, SlidingWindowConfig,
};
use selflearn_seizure::features::quality::{QualityExtractor, QualityGrader};
use selflearn_seizure::features::streaming::{StreamingPaperExtractor, StreamingRichExtractor};
use selflearn_seizure::features::FeatureMatrix;
use selflearn_seizure::ml::forest::RandomForestConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTE_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// Counts every allocation and reallocation of the current thread and
/// tracks its live heap bytes, then defers to the system allocator.
struct Counting;

/// Counts one allocation or reallocation of `layout` that changes the
/// thread's live heap bytes by `grown`.
fn count(layout: Layout, grown: i64) {
    // `try_with`: the allocator may run while the thread-locals are being
    // torn down at thread exit; those calls go uncounted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    if layout.align() == 1 {
        let _ = BYTE_ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
    track(grown);
}

/// Adds `grown` (negative on a release) to the thread's live heap bytes.
fn track(grown: i64) {
    let _ = LIVE_BYTES.try_with(|n| n.set(n.get() + grown));
}

/// A byte count as a signed change of the live heap bytes.
fn signed(bytes: usize) -> i64 {
    i64::try_from(bytes).expect("allocation sizes fit in i64")
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; counting touches only a
// const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: same contract as `System::alloc`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout, signed(layout.size()));
        // SAFETY: `layout` comes from the caller under `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: same contract as `System::alloc_zeroed`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout, signed(layout.size()));
        // SAFETY: `layout` comes from the caller under `alloc_zeroed`'s
        // contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: same contract as `System::realloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(layout, signed(new_size) - signed(layout.size()));
        // SAFETY: `ptr` was allocated by this allocator (that is, by
        // `System`) with `layout`, as `realloc`'s contract requires.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: same contract as `System::dealloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-signed(layout.size()));
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

/// Allocations of byte buffers (alignment 1, such as a `String`'s) made on
/// this thread so far.
fn byte_allocations() -> u64 {
    BYTE_ALLOCATIONS.with(Cell::get)
}

/// Heap bytes this thread allocated and has not freed yet, counted from
/// the thread's start (negative after it frees another thread's memory).
fn live_bytes() -> i64 {
    LIVE_BYTES.with(Cell::get)
}

/// Builds a value and returns it with the heap bytes it still holds.
fn held<T>(build: impl FnOnce() -> T) -> (T, i64) {
    let before = live_bytes();
    let value = build();
    (value, live_bytes() - before)
}

#[test]
fn the_counter_sees_this_threads_allocations() {
    let before = allocations();
    let live = live_bytes();
    let mut v: Vec<u64> = Vec::with_capacity(std::hint::black_box(3));
    assert_eq!(allocations() - before, 1);
    assert_eq!(live_bytes() - live, 24);
    v.reserve_exact(std::hint::black_box(5));
    assert_eq!(live_bytes() - live, 40);
    drop(v);
    assert_eq!(live_bytes(), live);
}

/// A gated detector with a small forest on separable rows, for windows of
/// `window_secs` at `overlap`. The streaming front end borrows the forest,
/// so its size does not enter the front end's heap.
fn small_detector(window_secs: f64, overlap: f64) -> RealTimeDetector {
    let width = 54;
    let labels: Vec<bool> = (0..40).map(|i| i % 2 == 0).collect();
    let rows: Vec<f64> = labels
        .iter()
        .enumerate()
        .flat_map(|(i, &seizure)| {
            (0..width).map(move |c| f64::from(u8::from(seizure)) + 0.01 * (i * width + c) as f64)
        })
        .collect();
    let mut detector = RealTimeDetector::new(RealTimeDetectorConfig {
        window_secs,
        overlap,
        forest: RandomForestConfig {
            n_trees: 4,
            max_depth: 4,
            ..RandomForestConfig::default()
        },
        ..RealTimeDetectorConfig::default()
    });
    detector.train(&rows, width, &labels).unwrap();
    assert!(detector.config().quality_gate);
    detector
}

/// Pins, to the byte, the heap the streaming front end holds at the paper
/// geometry (256 Hz, 4 s windows, 75 % overlap): the detector's
/// `streaming(256.0)` and the three hop engines it and the batch paths
/// build. Streaming a record must leave the front end's heap where
/// construction left it. The rich engine, the grader and the front end
/// report exactly what they hold (`heap_bytes()`); the paper engine has no
/// report, because nothing but this pin reads it.
#[test]
fn streaming_front_end_heap_bytes_are_pinned() {
    let fs = 256.0;
    let config = SlidingWindowConfig::paper_default(fs).unwrap();
    let (rich, rich_bytes) = held(|| StreamingRichExtractor::new(&config).unwrap());
    let quality = QualityExtractor::new(fs).unwrap();
    let (grader, grader_bytes) = held(|| QualityGrader::new(&quality, &config).unwrap());
    let (paper, paper_bytes) = held(|| StreamingPaperExtractor::new(&config).unwrap());
    assert_eq!(
        [rich_bytes, grader_bytes, paper_bytes],
        [81_040, 28_344, 65_872],
        "rich, quality, paper"
    );
    assert_eq!(signed(rich.heap_bytes()), rich_bytes);
    assert_eq!(signed(grader.heap_bytes()), grader_bytes);
    drop((rich, grader, paper));

    let detector = small_detector(4.0, 0.75);
    let (mut front, front_bytes) = held(|| detector.streaming(fs).unwrap());
    assert_eq!(front_bytes, 113_912);
    assert_eq!(signed(front.heap_bytes()), front_bytes);

    let cohort = Cohort::chb_mit_like(37);
    let sample = SampleConfig::new(60.0, 90.0, fs).unwrap();
    let record = cohort.sample_record(8, 0, &sample, 91).unwrap();
    let signal = record.signal();
    let before = live_bytes();
    let mut windows = 0;
    for (&a, &b) in signal.f7t3().iter().zip(signal.f8t4()) {
        windows += usize::from(front.push(a, b).unwrap().is_some());
    }
    assert_eq!(live_bytes(), before, "streaming a record changed the heap");
    assert_eq!(windows, config.num_windows(signal.len()));
}

/// Each streaming engine's `heap_bytes()` is exactly what its constructor
/// left allocated: the rich extractor, the quality grader and the detector's
/// front end, at the paper geometry, at 2 s windows with 75 % and 50 %
/// overlap, at 64 Hz, and at 250 Hz, whose 1000-sample window runs the
/// direct-DFT plan and odd wavelet bands.
#[test]
fn heap_bytes_are_what_the_allocator_counts() {
    for (fs, window_secs, overlap) in [
        (256.0, 4.0, 0.75),
        (256.0, 2.0, 0.75),
        (256.0, 2.0, 0.5),
        (64.0, 4.0, 0.75),
        (250.0, 4.0, 0.75),
    ] {
        let context = format!("{fs} Hz, {window_secs} s windows, {overlap} overlap");
        let config = SlidingWindowConfig::new(fs, window_secs, overlap).unwrap();
        let (rich, rich_bytes) = held(|| StreamingRichExtractor::new(&config).unwrap());
        assert_eq!(signed(rich.heap_bytes()), rich_bytes, "rich, {context}");
        let quality = QualityExtractor::new(fs).unwrap();
        let (grader, grader_bytes) = held(|| QualityGrader::new(&quality, &config).unwrap());
        assert_eq!(
            signed(grader.heap_bytes()),
            grader_bytes,
            "quality, {context}"
        );
        let detector = small_detector(window_secs, overlap);
        let (front, front_bytes) = held(|| detector.streaming(fs).unwrap());
        assert_eq!(
            signed(front.heap_bytes()),
            front_bytes,
            "front end, {context}"
        );
    }
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
fn paper_push_hop_does_not_allocate_after_the_first_window() {
    let fs = 256.0;
    let config = SlidingWindowConfig::paper_default(fs).unwrap();
    let n = config.window_samples() + 6 * config.step_samples();
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
    let records: [(&str, &[f64], &[f64]); 3] = [
        ("clean", &f7t3, &f8t4),
        ("NaN-laced", &nan_f7t3, &nan_f8t4),
        ("all-zero", &zeros, &zeros),
    ];

    let mut engine = StreamingPaperExtractor::new(&config).unwrap();
    let mut row = [0.0; 10];
    let hop = config.step_samples();
    // The first window sizes the pattern-count table.
    let mut warmed = false;
    let mut windows = 0;
    for round in 0..2 {
        for (name, a, b) in records {
            engine.reset();
            for (h, (hop_a, hop_b)) in a.chunks_exact(hop).zip(b.chunks_exact(hop)).enumerate() {
                let before = allocations();
                let completed = engine.push_hop(hop_a, hop_b, &mut row).unwrap();
                let allocated = allocations() - before;
                if warmed {
                    assert_eq!(
                        allocated, 0,
                        "{name} record, round {round}, hop {h}: allocated"
                    );
                }
                warmed |= completed;
                windows += usize::from(completed);
            }
        }
    }
    assert_eq!(windows, 2 * 3 * config.num_windows(n));
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

#[test]
fn batch_calls_into_a_named_matrix_allocate_no_name() {
    // Each set's column names are built once per process: a batch call into
    // a matrix that already carries them compares and copies nothing. A name
    // is a `String`, and its buffer is the only byte buffer (alignment 1) a
    // batch call makes. Ten windows keep each call on this thread.
    let fs = 256.0;
    let config = SlidingWindowConfig::paper_default(fs).unwrap();
    let n = config.window_samples() + 9 * config.step_samples();
    let a: Vec<f64> = (0..n).map(|i| 40.0 * (i as f64 * 0.15).sin()).collect();
    let b: Vec<f64> = (0..n).map(|i| 25.0 * (i as f64 * 0.06).cos()).collect();
    let assert_names_reused = |set: &str, batch: &dyn Fn(&mut FeatureMatrix)| {
        let mut matrix = FeatureMatrix::default();
        // The first call installs the names (and warms the set up).
        batch(&mut matrix);
        let names = matrix.feature_names().to_vec();
        let before = byte_allocations();
        batch(&mut matrix);
        assert_eq!(
            byte_allocations() - before,
            0,
            "{set}: a call into a matrix carrying its names allocated a name"
        );
        assert_eq!(matrix.feature_names(), &names[..]);
        assert_eq!(matrix.num_windows(), 10);
    };
    let paper = PaperFeatureSet::new(fs).unwrap();
    assert_names_reused("paper", &|m| {
        paper.extract_batch_into(&a, &b, &config, m).unwrap()
    });
    let rich = RichFeatureSet::new(fs).unwrap();
    assert_names_reused("rich", &|m| {
        rich.extract_batch_into(&a, &b, &config, m).unwrap()
    });
    let quality = QualityExtractor::new(fs).unwrap();
    assert_names_reused("quality", &|m| {
        quality.extract_batch_into(&a, &b, &config, m).unwrap()
    });
}
