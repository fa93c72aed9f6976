//! The three workloads. Each is a closed loop in one process: the next
//! operation starts when the previous one returned.
//!
//! * `stream` — held-out paper-scale records pushed one sample pair at a
//!   time through a trained, Flash-booted detector (the per-window path).
//! * `learn` — a fixed cycle of confirmed paper-scale missed seizures from a
//!   clean and a harder patient, each learned and made durable (the
//!   self-learning loop).
//! * `reboot` — repeated power-ups from one Flash image holding a learned
//!   pool (the read side of persistence).

use std::time::{Duration, Instant};

use seizure_core::labeler::LabelerConfig;
use seizure_core::pipeline::SelfLearningPipeline;
use seizure_core::realtime::RealTimeDetectorConfig;
use seizure_data::sampler::EegRecord;
use seizure_ml::metrics::ConfusionMatrix;
use seizure_ml::persist::store::{FlashGeometry, FlashStore, MemFlash};

use crate::inputs::{Family, Inputs, CLEAN, FS, HARD};
use crate::ops::{self, Res, Run, Shadow};
use crate::stats;
use crate::trace::Phase;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Base slot capacity of every store (a learned pool of ~1k windows takes
/// ~0.6 MB).
const SLOT_BYTES: usize = 1 << 20;

/// One pass of a loop: a streamed record, a `learn` cycle or a group of
/// power-ups.
pub struct Pass {
    /// Seconds per operation (window push, seizure, power-up).
    pub op_s: Vec<f64>,
    /// Operations completed (windows for `stream`) and the seconds they took.
    pub ops: f64,
    pub secs: f64,
}

impl Pass {
    fn of_ops(op_s: Vec<f64>) -> Self {
        Self {
            ops: op_s.len() as f64,
            secs: op_s.iter().sum(),
            op_s,
        }
    }
}

/// What a workload measured.
pub struct Outcome {
    pub passes: Vec<Pass>,
    /// Held-out detection quality of the learned detector.
    pub confusion: ConfusionMatrix,
    /// Wall seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// What one operation is.
    pub op_name: &'static str,
}

impl Outcome {
    /// Median across passes of a per-pass statistic. Other tenants of a
    /// shared host slow a minority of passes now and then; the median over
    /// passes does not move with them, a statistic over all pooled
    /// operations does.
    pub fn across_passes(&self, stat: impl Fn(&Pass) -> f64) -> f64 {
        stats::median(&self.passes.iter().map(stat).collect::<Vec<_>>())
    }

    /// Every operation's seconds, pooled.
    pub fn all_ops(&self) -> Vec<f64> {
        self.passes
            .iter()
            .flat_map(|p| p.op_s.iter().copied())
            .collect()
    }
}

/// A fresh pipeline on a freshly formatted store: every learned batch is
/// journaled from the first seizure on.
fn new_device(journal_bytes: usize) -> Res<(SelfLearningPipeline, FlashStore<MemFlash>)> {
    let mut pipeline =
        SelfLearningPipeline::new(LabelerConfig::default(), RealTimeDetectorConfig::default());
    let geometry = FlashGeometry::for_base(SLOT_BYTES, journal_bytes);
    let store = pipeline.init_store(MemFlash::new(geometry.total_bytes()), geometry)?;
    Ok((pipeline, store))
}

/// Runs `build` [`SETUPS`] times, keeping only the last state, and checks
/// that every set-up produced the same `fingerprint`.
fn repeat_setup<T>(
    run: &mut Run,
    mut build: impl FnMut(&mut Run) -> Res<T>,
    fingerprint: impl Fn(&T) -> Vec<u8>,
) -> Res<(T, Vec<f64>)> {
    run.tracer.set_phase(Phase::Setup);
    let mut times = Vec::with_capacity(SETUPS);
    let mut state = None;
    let mut first = None;
    for _ in 0..SETUPS {
        drop(state.take());
        let start = Instant::now();
        let built = build(run)?;
        times.push(start.elapsed().as_secs_f64());
        let print = fingerprint(&built);
        match &first {
            None => first = Some(print),
            Some(f) => run
                .checks
                .check(*f == print, || "set-up is not deterministic".to_string()),
        }
        state = Some(built);
    }
    Ok((state.expect("at least one set-up"), times))
}

/// Loop control: at least `min` iterations, then until `seconds` passed.
/// A traced run alternates traced and plain iterations, starting plain.
fn next_iteration(run: &mut Run, start: Instant, seconds: u64, done: usize, min: usize) -> bool {
    run.tracer.set_phase(Phase::Loop);
    run.tracer.set_active(done % 2 == 1);
    done < min || start.elapsed() < Duration::from_secs(seconds)
}

// ---------------------------------------------------------------------------

/// Journal region of the `stream` and `learn` devices: one ~50 KB seizure
/// batch appends, the next compacts into the other slot.
const SMALL_JOURNAL: usize = 96 << 10;

struct StreamState {
    pipeline: SelfLearningPipeline,
    held_out: Vec<EegRecord>,
}

pub fn stream(seed: u64, seconds: u64, run: &mut Run) -> Res<Outcome> {
    let inputs = Inputs::new(seed);
    let w = inputs.average_seizure_secs(CLEAN);
    let (state, setup_s) = repeat_setup(
        run,
        |run| {
            // The device learned three seizures, powered down, and boots.
            let (mut live, mut store) = new_device(SMALL_JOURNAL)?;
            for n in 0..3 {
                let record = inputs.record(CLEAN, Family::Train, n, 10.0);
                ops::learn_seizure(&mut live, &mut store, &record, w, run)?;
            }
            let (pipeline, _) = ops::power_up(store.flash().image(), *store.geometry(), run)?;
            run.checks.check(pipeline.save() == live.save(), || {
                "booted pipeline differs from the one that learned".to_string()
            });
            // Building the streaming front end is set-up work too.
            drop(pipeline.detector().streaming(FS)?);
            let held_out = (0..2)
                .map(|n| inputs.record(CLEAN, Family::HeldOut, n, 30.0))
                .collect();
            Ok(StreamState { pipeline, held_out })
        },
        |s| s.pipeline.save(),
    )?;

    let detector = state.pipeline.detector();
    let forest = detector
        .flat_forest()
        .ok_or("booted detector is untrained")?;
    let mut stream = detector.streaming(FS)?;
    let mut shadow = Shadow::new(detector, FS)?;
    let mut first_pass: Vec<Vec<bool>> = Vec::new();
    let mut passes = Vec::new();
    let start = Instant::now();
    let mut round = 0;
    while next_iteration(run, start, seconds, round, 2) {
        for (i, record) in state.held_out.iter().enumerate() {
            let streamed = ops::stream_record(&mut stream, forest, &mut shadow, record, run)?;
            passes.push(Pass {
                ops: streamed.alarms.len() as f64,
                secs: streamed.total_s,
                op_s: streamed.window_s,
            });
            match first_pass.get(i) {
                None => first_pass.push(streamed.alarms),
                Some(first) => run.checks.check(*first == streamed.alarms, || {
                    format!("round {round}: record {i} streamed different alarms")
                }),
            }
        }
        round += 1;
    }

    run.tracer.set_phase(Phase::Check);
    let mut confusion = ConfusionMatrix::default();
    for (record, alarms) in state.held_out.iter().zip(&first_pass) {
        confusion.merge(&ops::check_and_score(
            detector,
            record,
            alarms,
            &mut run.checks,
        )?);
    }
    Ok(Outcome {
        passes,
        confusion,
        setup_s,
        op_name: "push completing a window",
    })
}

// ---------------------------------------------------------------------------

/// One patient's device at the start of every `learn` cycle.
struct Device {
    w: f64,
    pipeline: SelfLearningPipeline,
    store: FlashStore<MemFlash>,
    held_out: Vec<EegRecord>,
}

struct LearnState {
    devices: Vec<Device>,
    /// The cycle of confirmations: device index and record.
    confirmed: Vec<(usize, EegRecord)>,
}

/// Confirmations per cycle, alternating the clean and the harder patient.
const CONFIRMATIONS: usize = 5;
/// Length of every confirmed record: the middle of the paper's 30–60 min
/// range. One length keeps every confirmation the same size of work, so the
/// median pools all of them instead of landing on one record.
const CONFIRMED_MINUTES: f64 = 45.0;

pub fn learn(seed: u64, seconds: u64, run: &mut Run) -> Res<Outcome> {
    let inputs = Inputs::new(seed);
    let patients = [CLEAN, HARD];
    let (state, setup_s) = repeat_setup(
        run,
        |run| {
            let mut devices = Vec::new();
            for &patient in &patients {
                let w = inputs.average_seizure_secs(patient);
                let (mut pipeline, mut store) = new_device(SMALL_JOURNAL)?;
                for n in 0..2 {
                    let record = inputs.record(patient, Family::Train, n, 10.0);
                    ops::learn_seizure(&mut pipeline, &mut store, &record, w, run)?;
                }
                let held_out = (0..2)
                    .map(|n| inputs.record(patient, Family::HeldOut, n, 20.0))
                    .collect();
                devices.push(Device {
                    w,
                    pipeline,
                    store,
                    held_out,
                });
            }
            let confirmed = (0..CONFIRMATIONS)
                .map(|n| {
                    let device = n % patients.len();
                    let patient = patients[device];
                    let record = inputs.record(patient, Family::Confirmed, n, CONFIRMED_MINUTES);
                    (device, record)
                })
                .collect();
            Ok(LearnState { devices, confirmed })
        },
        |s| s.devices.iter().flat_map(|d| d.pipeline.save()).collect(),
    )?;

    // Every cycle starts from the set-up state, so all cycles do the same
    // work and must end in the same state.
    let mut passes = Vec::new();
    let mut finals: Vec<SelfLearningPipeline> = Vec::new();
    let start = Instant::now();
    let mut cycle = 0;
    while next_iteration(run, start, seconds, cycle, 2) {
        let mut devices: Vec<_> = state
            .devices
            .iter()
            .map(|d| (d.pipeline.clone(), d.store.clone()))
            .collect();
        let mut op_s = Vec::new();
        for (device, record) in &state.confirmed {
            let (pipeline, store) = &mut devices[*device];
            let w = state.devices[*device].w;
            op_s.push(ops::learn_seizure(pipeline, store, record, w, run)?);
            // Every durable state must power up into the live pipeline.
            run.tracer.set_phase(Phase::Check);
            ops::check_power_up(pipeline, store, run)?;
            run.tracer.set_phase(Phase::Loop);
        }
        passes.push(Pass::of_ops(op_s));
        for (i, (pipeline, _)) in devices.into_iter().enumerate() {
            match finals.get(i) {
                None => finals.push(pipeline),
                Some(first) => run.checks.check(first.save() == pipeline.save(), || {
                    format!("cycle {cycle} ended in a different state")
                }),
            }
        }
        cycle += 1;
    }

    run.tracer.set_phase(Phase::Check);
    let mut confusion = ConfusionMatrix::default();
    for (pipeline, device) in finals.iter().zip(&state.devices) {
        confusion.merge(&ops::evaluate_streaming(
            pipeline.detector(),
            &device.held_out,
            run,
        )?);
    }
    Ok(Outcome {
        passes,
        confusion,
        setup_s,
        op_name: "seizure confirmed until durable",
    })
}

// ---------------------------------------------------------------------------

/// Journal region of the `reboot` device: room for five seizure batches
/// before compaction, so the learned pool ends as a base plus a journal.
const REBOOT_JOURNAL: usize = 384 << 10;
/// Seizures the `reboot` device learned before the power-ups.
const REBOOT_SEIZURES: usize = 9;
/// Power-ups per pass.
const POWER_UPS_PER_PASS: usize = 10;

struct RebootState {
    image: Vec<u8>,
    geometry: FlashGeometry,
    expected: Vec<u8>,
    held_out: Vec<EegRecord>,
}

pub fn reboot(seed: u64, seconds: u64, run: &mut Run) -> Res<Outcome> {
    let inputs = Inputs::new(seed);
    let w = inputs.average_seizure_secs(CLEAN);
    let (state, setup_s) = repeat_setup(
        run,
        |run| {
            let (mut pipeline, mut store) = new_device(REBOOT_JOURNAL)?;
            for n in 0..REBOOT_SEIZURES {
                let record = inputs.record(CLEAN, Family::Train, n, 5.0);
                ops::learn_seizure(&mut pipeline, &mut store, &record, w, run)?;
            }
            let held_out = (0..2)
                .map(|n| inputs.record(CLEAN, Family::HeldOut, n, 10.0))
                .collect();
            Ok(RebootState {
                image: store.flash().image().to_vec(),
                geometry: *store.geometry(),
                expected: pipeline.save(),
                held_out,
            })
        },
        |s| s.image.clone(),
    )?;

    let mut passes = Vec::new();
    let mut last = None;
    let start = Instant::now();
    while next_iteration(run, start, seconds, passes.len(), 2) {
        let mut op_s = Vec::with_capacity(POWER_UPS_PER_PASS);
        for _ in 0..POWER_UPS_PER_PASS {
            let (pipeline, secs) = ops::power_up(&state.image, state.geometry, run)?;
            op_s.push(secs);
            run.checks.check(pipeline.save() == state.expected, || {
                "resumed pipeline's save() bytes differ from the live pipeline's".to_string()
            });
            last = Some(pipeline);
        }
        passes.push(Pass::of_ops(op_s));
    }

    run.tracer.set_phase(Phase::Check);
    let resumed = last.expect("at least one power-up");
    let confusion = ops::evaluate_streaming(resumed.detector(), &state.held_out, run)?;
    Ok(Outcome {
        passes,
        confusion,
        setup_s,
        op_name: "power-up (mount + resume)",
    })
}
