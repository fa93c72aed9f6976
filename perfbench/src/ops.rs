//! The three operations the workloads time — a window push, a learned
//! seizure, a power-up — each with its per-layer replay for traced runs,
//! plus the output checks they share.

use std::error::Error;
use std::time::Instant;

use seizure_core::algorithm::posteriori_detect;
use seizure_core::label::{window_labels, SeizureLabel};
use seizure_core::metric::deviation_seconds;
use seizure_core::pipeline::{LabelSource, SelfLearningPipeline};
use seizure_core::realtime::{QualityVerdict, RealTimeDetector, StreamingDetector};
use seizure_core::workspace::FeatureWorkspace;
use seizure_data::sampler::EegRecord;
use seizure_features::extractor::SlidingWindowConfig;
use seizure_features::quality::{QualityExtractor, QualityScratch, NUM_QUALITY_FEATURES};
use seizure_features::streaming::StreamingRichExtractor;
use seizure_features::FeatureMatrix;
use seizure_ml::incremental::{IncrementalTrainer, IncrementalTrainerConfig};
use seizure_ml::metrics::ConfusionMatrix;
use seizure_ml::persist::journal::{self, CompactionPolicy, DeltaSave, JournalEntry};
use seizure_ml::persist::store::{FlashGeometry, FlashStore, MemFlash, StoreSave, SLOT_HEADER_LEN};

use crate::trace::Tracer;

pub type Res<T> = Result<T, Box<dyn Error>>;

/// Output checks: every check is one attempted operation, every violation
/// one failed operation.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 16 {
                self.notes.push(what());
            }
        }
    }
}

/// Per-run context handed to every operation: the ledger, the checks, and
/// the buffers the traced replays reuse across records, as the pipeline
/// reuses its own workspace.
pub struct Run {
    pub tracer: Tracer,
    pub checks: Checks,
    quality: FeatureMatrix,
    rich: FeatureWorkspace,
}

impl Run {
    pub fn new(trace: bool) -> Self {
        Self {
            tracer: Tracer::new(trace),
            checks: Checks::default(),
            quality: FeatureMatrix::default(),
            rich: FeatureWorkspace::new(),
        }
    }
}

fn secs_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// The detector's sliding-window geometry at `fs`.
fn window_config(detector: &RealTimeDetector, fs: f64) -> Res<SlidingWindowConfig> {
    let c = detector.config();
    Ok(SlidingWindowConfig::new(fs, c.window_secs, c.overlap)?)
}

// ---------------------------------------------------------------------------
// learn: one confirmed missed seizure, from confirmation until durable.
// ---------------------------------------------------------------------------

/// Never compacts: makes `save_delta_with` hand back the unflushed journal.
const KEEP_JOURNAL: CompactionPolicy = CompactionPolicy {
    max_journal_fraction: f64::INFINITY,
    min_journal_bytes: usize::MAX,
};

/// Processes one confirmed missed seizure through
/// `SelfLearningPipeline::observe_missed_seizure`, makes it durable with
/// `save_to_store`, and returns the seconds the two calls took. When the
/// tracer is active, replays the children of `observe_missed_seizure` on the
/// same record afterwards and checks that the replays reproduce the label
/// and the retrained forest.
pub fn learn_seizure(
    pipeline: &mut SelfLearningPipeline,
    store: &mut FlashStore<MemFlash>,
    record: &EegRecord,
    average_seizure_secs: f64,
    run: &mut Run,
) -> Res<f64> {
    let seizures_before = pipeline.num_seizures_collected();
    let quarantined_before = pipeline.num_quarantined();
    let traced = run.tracer.is_active();
    let trainer_before = if traced {
        pipeline.detector().incremental_trainer().cloned()
    } else {
        None
    };
    let journal_before = store.journal_len();

    let start = Instant::now();
    let label =
        pipeline.observe_missed_seizure(record, average_seizure_secs, LabelSource::Algorithm)?;
    let observe_s = secs_since(start);
    // The seizure's journaled batch, read from a clone before the save
    // consumes it (traced iterations only, between the timed calls).
    let batch = if traced {
        match pipeline.clone().save_delta_with(KEEP_JOURNAL) {
            DeltaSave::Append(bytes) => journal::scan_journal(&bytes)?.entries.pop(),
            _ => None,
        }
    } else {
        None
    };
    let start = Instant::now();
    let save = pipeline.save_to_store(store)?;
    let save_s = secs_since(start);
    let op_s = observe_s + save_s;
    run.tracer.op(op_s);

    run.checks.check(
        label.is_some()
            && pipeline.num_seizures_collected() == seizures_before + 1
            && pipeline.num_quarantined() == quarantined_before,
        || {
            format!(
                "clean record of patient {} was quarantined or not learned",
                record.patient_id()
            )
        },
    );
    let Some(label) = label else {
        return Ok(op_s);
    };
    let truth = record.annotation();
    let delta = deviation_seconds((truth.onset(), truth.offset()), label.as_interval())?;
    run.tracer.count("core.algorithm.label_delta_s", delta);

    if traced {
        run.tracer.span("ml.persist.save", save_s);
        let programmed = match save {
            StoreSave::Appended => store.journal_len() - journal_before,
            StoreSave::Rebased => store.base_len() + SLOT_HEADER_LEN,
            StoreSave::Clean => 0,
        };
        run.tracer
            .count("ml.persist.bytes_programmed", programmed as f64);
        run.tracer.count(
            "ml.persist.rebases",
            f64::from(u8::from(save == StoreSave::Rebased)),
        );
        let children = replay_learn(
            pipeline,
            record,
            average_seizure_secs,
            &label,
            trainer_before,
            batch,
            run,
        )?;
        run.tracer.span("core.pipeline.self", observe_s - children);
    }
    Ok(op_s)
}

/// Replays the children of `observe_missed_seizure` on `record` and returns
/// their summed time: batch quality, paper features, Algorithm 1, rich
/// features, and the incremental retrain of the journaled batch on a clone
/// of the pre-seizure trainer.
fn replay_learn(
    pipeline: &SelfLearningPipeline,
    record: &EegRecord,
    average_seizure_secs: f64,
    label: &SeizureLabel,
    trainer_before: Option<IncrementalTrainer>,
    batch: Option<JournalEntry>,
    run: &mut Run,
) -> Res<f64> {
    let signal = record.signal();
    let fs = signal.sampling_frequency();
    let detector = pipeline.detector();
    let window = window_config(detector, fs)?;
    let Run {
        tracer,
        checks,
        quality,
        rich,
    } = run;

    let extractor = QualityExtractor::new(fs)?;
    let (res, quality_s) = tracer.time("features.quality.batch", || {
        extractor.extract_batch_into(signal.f7t3(), signal.f8t4(), &window, quality)
    });
    res?;

    // The labeler extracts into a fresh workspace per record; so does this.
    let labeler = pipeline.labeler();
    let mut paper = FeatureWorkspace::new();
    let (res, paper_s) = tracer.time("features.paper.batch", || {
        labeler.extract_features_with(signal, &mut paper)
    });
    res?;
    let step = window.step_seconds();
    let w_rows = ((average_seizure_secs / step).round() as usize).max(1);
    let config = labeler.config().detector;
    let (detection, algorithm_s) = tracer.time("core.algorithm", || {
        posteriori_detect(paper.matrix(), w_rows, &config)
    });
    let detection = detection?;
    let onset = window.window_start_seconds(detection.window_index);
    let offset = (onset + w_rows as f64 * step).min(signal.duration_secs());
    checks.check((onset, offset) == label.as_interval(), || {
        format!("replayed Algorithm 1 label ({onset}, {offset}) differs from {label:?}")
    });

    let (res, rich_s) = tracer.time("features.rich.batch", || {
        detector.build_training_windows_with(signal, label, rich)
    });
    res?;
    let children = quality_s + paper_s + algorithm_s + rich_s;

    let Some(entry) = batch else {
        checks.check(false, || {
            "no journaled batch for a learned seizure".to_string()
        });
        return Ok(children);
    };
    let config = detector.config();
    let mut trainer = trainer_before.unwrap_or_else(|| {
        IncrementalTrainer::new(
            IncrementalTrainerConfig {
                forest: config.forest,
                block_size: config.incremental_block_size,
            },
            config.seed,
        )
    });
    let (forest, retrain_s) = tracer.time("ml.incremental.retrain", || {
        trainer.retrain(&entry.rows, entry.num_features, &entry.labels)
    });
    let forest = forest?;
    checks.check(detector.flat_forest() == Some(&forest), || {
        "replayed retrain is not node-identical to the pipeline's forest".to_string()
    });
    tracer.count(
        "ml.incremental.trees_refit",
        trainer.last_refit_count() as f64,
    );
    tracer.count("ml.incremental.pool_windows", trainer.num_samples() as f64);
    Ok(children + retrain_s)
}

// ---------------------------------------------------------------------------
// reboot: one power-up from a Flash image.
// ---------------------------------------------------------------------------

/// One power-up: `FlashStore::mount` + `resume_from_store` on a fresh copy
/// of `image`. Returns the resumed pipeline and the timed seconds. When the
/// tracer is active, replays the resume from the base alone and with the
/// journal afterwards.
pub fn power_up(
    image: &[u8],
    geometry: FlashGeometry,
    run: &mut Run,
) -> Res<(SelfLearningPipeline, f64)> {
    let flash = MemFlash::from_image(image.to_vec());
    let start = Instant::now();
    let (store, report) = FlashStore::mount(flash, geometry)?;
    let mount_s = secs_since(start);
    let (pipeline, replay) = SelfLearningPipeline::resume_from_store(&store)?;
    let op_s = secs_since(start);
    run.tracer.op(op_s);
    run.checks.check(
        !report.fell_back
            && report.journal_discarded == 0
            && replay.entries_applied == report.journal_entries
            && replay.torn_bytes == 0,
        || format!("power-up did not recover the committed state cleanly: {report:?} {replay:?}"),
    );
    let tracer = &mut run.tracer;
    if tracer.is_active() {
        tracer.span("ml.persist.mount", mount_s);
        tracer.count("ml.persist.base_bytes", store.base_len() as f64);
        tracer.count("ml.persist.journal_entries", report.journal_entries as f64);
        let base = store.base()?;
        let journal_bytes = store.journal()?;
        let (res, base_s) = tracer.time("core.pipeline.resume_base", || {
            SelfLearningPipeline::resume(&base)
        });
        res?;
        let mut children = mount_s + base_s;
        if report.journal_entries > 0 {
            let start = Instant::now();
            SelfLearningPipeline::resume_with_journal(&base, &journal_bytes)?;
            let replay_s = secs_since(start) - base_s;
            tracer.span("ml.incremental.replay", replay_s);
            children += replay_s;
        }
        tracer.span("core.pipeline.resume_self", op_s - children);
    }
    Ok((pipeline, op_s))
}

/// Power-up check: the pipeline resumed from `store`'s image must save the
/// same bytes as the live pipeline that wrote it.
pub fn check_power_up(
    live: &SelfLearningPipeline,
    store: &FlashStore<MemFlash>,
    run: &mut Run,
) -> Res<()> {
    let (resumed, _) = power_up(store.flash().image(), *store.geometry(), run)?;
    run.checks.check(resumed.save() == live.save(), || {
        "resumed pipeline's save() bytes differ from the live pipeline's".to_string()
    });
    Ok(())
}

// ---------------------------------------------------------------------------
// stream: a record pushed one sample pair at a time.
// ---------------------------------------------------------------------------

/// Shadow state for the traced streaming replay: a second extractor fed the
/// same hops, and the quality grader's buffers.
pub struct Shadow {
    extractor: StreamingRichExtractor,
    quality: QualityExtractor,
    scratch: QualityScratch,
    quality_row: [f64; NUM_QUALITY_FEATURES],
    row: Vec<f64>,
}

impl Shadow {
    pub fn new(detector: &RealTimeDetector, fs: f64) -> Res<Self> {
        let extractor = StreamingRichExtractor::new(&window_config(detector, fs)?)?;
        let row = vec![0.0; extractor.num_features()];
        Ok(Self {
            extractor,
            quality: QualityExtractor::new(fs)?,
            scratch: QualityScratch::default(),
            quality_row: [0.0; NUM_QUALITY_FEATURES],
            row,
        })
    }

    /// Replays one completed window's children and returns their summed
    /// time and the forest's raw prediction.
    fn replay_window(
        &mut self,
        forest: &seizure_ml::FlatForest,
        hop_a: &[f64],
        hop_b: &[f64],
        tracer: &mut Tracer,
    ) -> Res<(f64, bool)> {
        let Shadow {
            extractor,
            quality,
            scratch,
            quality_row,
            row,
        } = self;
        let (done, hop_s) = tracer.time("features.streaming.push_hop", || {
            extractor.push_hop(hop_a, hop_b, row)
        });
        if !done? {
            return Err("the shadow extractor fell out of step".into());
        }
        let (res, quality_s) = tracer.time("features.quality.window", || {
            quality.assess_window_into(
                extractor.current_window(0),
                extractor.current_window(1),
                quality_row,
                scratch,
            )
        });
        res?;
        let (predicted, predict_s) = tracer.time("ml.flat.predict", || forest.predict(row));
        Ok((hop_s + quality_s + predict_s, predicted))
    }
}

/// One record streamed through `StreamingDetector::push`.
pub struct Streamed {
    /// Gated alarm per completed window.
    pub alarms: Vec<bool>,
    /// Seconds per `push` call that completed a window.
    pub window_s: Vec<f64>,
    /// Seconds of the whole sample loop (every `push`), replays excluded.
    pub total_s: f64,
}

/// Streams `record` through `stream` (reset first). The pushes that
/// complete a window are timed individually. When the tracer is active, the
/// window's children — `push_hop`, the quality grade and the forest
/// prediction — are replayed on the shadow after each completing push.
pub fn stream_record(
    stream: &mut StreamingDetector<'_>,
    forest: &seizure_ml::FlatForest,
    shadow: &mut Shadow,
    record: &EegRecord,
    run: &mut Run,
) -> Res<Streamed> {
    stream.reset();
    let traced = run.tracer.is_active();
    shadow.extractor.reset();
    let (a, b) = (record.signal().f7t3(), record.signal().f8t4());
    let window = stream.window_samples();
    let hop = stream.step_samples();
    let mut alarms = Vec::with_capacity(a.len() / hop);
    let mut window_s = Vec::with_capacity(a.len() / hop);
    let mut replay_s = 0.0;
    let loop_start = Instant::now();
    for i in 0..a.len() {
        let n = i + 1;
        if n < window || !(n - window).is_multiple_of(hop) {
            if stream.push(a[i], b[i])?.is_some() {
                return Err("a window completed off the hop grid".into());
            }
            if traced && n.is_multiple_of(hop) {
                // Warm-up hop: keep the shadow extractor in step.
                let t = Instant::now();
                shadow
                    .extractor
                    .push_hop(&a[n - hop..n], &b[n - hop..n], &mut shadow.row)?;
                replay_s += secs_since(t);
            }
            continue;
        }
        let start = Instant::now();
        let detection = stream.push(a[i], b[i])?;
        let push_s = secs_since(start);
        let detection = detection.ok_or("the hop grid promised a completed window")?;
        window_s.push(push_s);
        alarms.push(detection.alarm);
        run.tracer.op(push_s);
        if traced {
            let t = Instant::now();
            let (children, predicted) =
                shadow.replay_window(forest, &a[n - hop..n], &b[n - hop..n], &mut run.tracer)?;
            run.tracer.span("core.streaming.self", push_s - children);
            let expected = predicted && detection.verdict != QualityVerdict::Reject;
            run.checks.check(expected == detection.alarm, || {
                format!(
                    "window {}: replayed forest says {expected}, push said {}",
                    detection.window_index, detection.alarm
                )
            });
            replay_s += secs_since(t);
        }
    }
    Ok(Streamed {
        alarms,
        window_s,
        total_s: secs_since(loop_start) - replay_s,
    })
}

/// Streaming alarms must equal `RealTimeDetector::detect` window for window;
/// returns the alarms' confusion matrix against the ground truth.
pub fn check_and_score(
    detector: &RealTimeDetector,
    record: &EegRecord,
    alarms: &[bool],
    checks: &mut Checks,
) -> Res<ConfusionMatrix> {
    let batch = detector.detect(record.signal())?;
    let mismatches = alarms.iter().zip(&batch).filter(|(s, b)| s != b).count();
    checks.check(batch.len() == alarms.len() && mismatches == 0, || {
        format!(
            "streaming vs batch detect: {mismatches} mismatches over {} windows ({} batch)",
            alarms.len(),
            batch.len()
        )
    });
    let window = window_config(detector, record.signal().sampling_frequency())?;
    let truth = SeizureLabel::new(record.annotation().onset(), record.annotation().offset())?;
    let truth = window_labels(
        &truth,
        alarms.len(),
        window.window_seconds(),
        window.step_seconds(),
    )?;
    Ok(ConfusionMatrix::from_predictions(alarms, &truth)?)
}

/// Streams each held-out record once through `detector`, checks it against
/// batch detection, and pools the confusion matrices.
pub fn evaluate_streaming(
    detector: &RealTimeDetector,
    records: &[EegRecord],
    run: &mut Run,
) -> Res<ConfusionMatrix> {
    let fs = records
        .first()
        .ok_or("no held-out records")?
        .signal()
        .sampling_frequency();
    let forest = detector
        .flat_forest()
        .ok_or("streaming needs a trained detector")?;
    let mut stream = detector.streaming(fs)?;
    let mut shadow = Shadow::new(detector, fs)?;
    let mut pooled = ConfusionMatrix::default();
    for record in records {
        let streamed = stream_record(&mut stream, forest, &mut shadow, record, run)?;
        pooled.merge(&check_and_score(
            detector,
            record,
            &streamed.alarms,
            &mut run.checks,
        )?);
    }
    Ok(pooled)
}
