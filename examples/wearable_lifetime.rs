//! Battery-lifetime analysis of the wearable platform (paper §VI-C,
//! Table III and Fig. 5), followed by two multi-session lifetime demos:
//!
//! 1. **Full snapshots** — the self-learning pipeline saves its personalized
//!    state, "powers down" (the snapshot crosses a process boundary through
//!    a file), resumes, and keeps retraining node-identically to a device
//!    that never lost power.
//! 2. **Delta journal** — per-seizure saves append an O(batch) journal entry
//!    instead of re-writing the O(pool) snapshot, the device **crashes
//!    halfway through an append**, and the resume detects the torn entry,
//!    drops it, truncates the journal file and re-learns the lost seizure —
//!    ending node-identical to the uninterrupted device.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example wearable_lifetime
//! ```

use selflearn_seizure::core::labeler::LabelerConfig;
use selflearn_seizure::core::pipeline::{LabelSource, SelfLearningPipeline};
use selflearn_seizure::core::realtime::{QualityVerdict, RealTimeDetectorConfig};
use selflearn_seizure::core::workspace::FeatureWorkspace;
use selflearn_seizure::data::cohort::Cohort;
use selflearn_seizure::data::sampler::{EegRecord, SampleConfig};
use selflearn_seizure::data::synth::{degrade_signal, HostileScenario};
use selflearn_seizure::edge::energy::{EnergyModel, OperatingMode};
use selflearn_seizure::edge::memory::MemoryModel;
use selflearn_seizure::edge::platform::PlatformSpec;
use selflearn_seizure::edge::timing::TimingModel;
use selflearn_seizure::ml::forest::RandomForestConfig;
use selflearn_seizure::ml::persist::journal::{CompactionPolicy, DeltaSave};
use selflearn_seizure::ml::persist::store::{FaultyFlash, FlashGeometry, FlashStore, StoreSave};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = PlatformSpec::stm32l151_default();
    println!(
        "platform: Cortex-M3 @ {:.0} MHz, {} KB RAM, {} KB Flash, {:.0} mAh battery",
        spec.cpu_frequency_hz / 1e6,
        spec.ram_bytes / 1024,
        spec.flash_bytes / 1024,
        spec.battery_mah
    );

    // Table III: worst case, one seizure per day, detection + labeling.
    let energy = EnergyModel::new(spec);
    let report = energy.lifetime(OperatingMode::Combined, 1.0)?;
    println!("\nTable III (worst case, one seizure per day)");
    println!("task                  | current (mA) | duty (%) | avg (mA) | energy (%)");
    println!("----------------------|--------------|----------|----------|-----------");
    let percentages = report.energy_percentages();
    for (task, pct) in report.tasks().tasks().iter().zip(percentages.iter()) {
        println!(
            "{:<22}| {:>12.3} | {:>8.2} | {:>8.3} | {:>9.2}",
            task.name,
            task.current_ma,
            task.duty_cycle * 100.0,
            task.average_current_ma(),
            pct
        );
    }
    println!(
        "battery lifetime: {:.2} days ({:.1} hours)",
        report.lifetime_days(),
        report.lifetime_hours()
    );

    // Lifetime sweep over the seizure frequency (one per month to one per day).
    println!("\nlifetime vs. seizure frequency");
    println!("seizures/day | labeling-only (days) | combined (days)");
    for report in energy.lifetime_sweep(OperatingMode::Combined, 1.0 / 30.0, 1.0, 6)? {
        let labeling = energy.lifetime(OperatingMode::LabelingOnly, report.seizures_per_day())?;
        println!(
            "   {:8.3} | {:>20.2} | {:>15.2}",
            report.seizures_per_day(),
            labeling.lifetime_days(),
            report.lifetime_days()
        );
    }

    // Memory budget of the one-hour history buffer.
    let memory = MemoryModel::new(spec);
    let budget = memory.budget(3600.0)?;
    println!(
        "\nmemory: one-hour history buffer {} KB (fits flash: {}), working set {} B (fits RAM: {})",
        budget.history_bytes / 1024,
        budget.fits_flash,
        budget.working_bytes,
        budget.fits_ram
    );

    // Real-time check of the labeling algorithm.
    let timing = TimingModel::new(spec);
    let cost = timing.labeling_cost(3600.0, 60.0, 10)?;
    println!(
        "labeling one hour of signal: {:.2e} operations, {:.0} s of CPU time ({:.2} s per signal second)",
        cost.operations, cost.seconds, cost.seconds_per_signal_second
    );

    // Multi-session lifetime: the personalized pool survives a power cycle.
    println!("\nsession-resume persistence (save -> power cycle -> resume -> retrain)");
    let cohort = Cohort::chb_mit_like(5);
    let sample = SampleConfig::new(150.0, 200.0, 64.0)?;
    let patient = 8;
    let w = cohort.average_seizure_duration(patient)?;
    let detector_config = RealTimeDetectorConfig {
        forest: RandomForestConfig {
            n_trees: 10,
            max_depth: 6,
            ..RandomForestConfig::default()
        },
        ..RealTimeDetectorConfig::default()
    };

    // Day 1: the wearable learns from its first missed seizure, then powers
    // down — the snapshot is everything that survives.
    let snapshot_path = std::env::temp_dir().join("wearable_lifetime_session.snap");
    {
        let mut day1 = SelfLearningPipeline::new(LabelerConfig::default(), detector_config);
        let record = cohort.sample_record(patient, 0, &sample, 1)?;
        day1.observe_missed_seizure(&record, w, LabelSource::Algorithm)?;
        std::fs::write(&snapshot_path, day1.save())?;
        println!(
            "day 1: {} training windows collected, state saved to {}",
            day1.training_windows(),
            snapshot_path.display()
        );
    } // <- the day-1 process state is gone here

    // Day 2: a fresh process resumes from the snapshot and learns from the
    // next missed seizure.
    let mut day2 = SelfLearningPipeline::resume(&std::fs::read(&snapshot_path)?)?;
    let record = cohort.sample_record(patient, 1, &sample, 2)?;
    day2.observe_missed_seizure(&record, w, LabelSource::Algorithm)?;

    // Reference device that never lost power: both seizures in one process.
    let mut uninterrupted = SelfLearningPipeline::new(LabelerConfig::default(), detector_config);
    for (seizure, seed) in [(0usize, 1u64), (1, 2)] {
        let record = cohort.sample_record(patient, seizure, &sample, seed)?;
        uninterrupted.observe_missed_seizure(&record, w, LabelSource::Algorithm)?;
    }
    assert_eq!(
        day2.detector().flat_forest(),
        uninterrupted.detector().flat_forest(),
        "resumed retraining must be node-identical to the uninterrupted device"
    );
    let held_out = cohort.sample_record(patient, 2, &sample, 3)?;
    let resumed_report = day2.evaluate(&held_out)?;
    let reference_report = uninterrupted.evaluate(&held_out)?;
    assert_eq!(resumed_report, reference_report);
    println!(
        "day 2: resumed pool of {} windows retrained node-identically \
         (held-out gmean {:.3})",
        day2.training_windows(),
        resumed_report.geometric_mean
    );

    // And the snapshot fits the platform's Flash next to the history buffer.
    let snapshot_bytes = std::fs::metadata(&snapshot_path)?.len() as usize;
    std::fs::remove_file(&snapshot_path)?;
    let with_snapshot = memory.budget_with_snapshot(1200.0, snapshot_bytes)?;
    println!(
        "snapshot: {:.1} KB; 20-min history + snapshot = {} KB in flash (fits: {})",
        snapshot_bytes as f64 / 1024.0,
        with_snapshot.history_bytes / 1024,
        with_snapshot.fits_flash
    );
    assert!(with_snapshot.fits_flash);

    // Delta persistence: per-seizure saves append O(batch) journal entries
    // instead of re-writing the O(pool) snapshot — and a crash halfway
    // through an append is detected, dropped and recovered from.
    println!("\ndelta persistence (save -> crash mid-append -> resume -> re-learn)");
    let base_path = std::env::temp_dir().join("wearable_lifetime_delta.base");
    let journal_path = std::env::temp_dir().join("wearable_lifetime_delta.journal");
    // With one seizure in the base, the second batch is a large fraction of
    // the pool; a lenient compaction policy keeps this early-life demo on
    // the append path (the default would — legitimately — fold instead).
    let policy = CompactionPolicy {
        max_journal_fraction: 100.0,
        ..CompactionPolicy::default()
    };

    // Day 1: learn the first seizure; the first delta save is a full base.
    {
        let mut day1 = SelfLearningPipeline::new(LabelerConfig::default(), detector_config);
        let record = cohort.sample_record(patient, 0, &sample, 1)?;
        day1.observe_missed_seizure(&record, w, LabelSource::Algorithm)?;
        match day1.save_delta_with(policy) {
            DeltaSave::Full(base) => {
                println!(
                    "day 1: full base snapshot, {:.1} KB",
                    base.len() as f64 / 1024.0
                );
                std::fs::write(&base_path, base)?;
                std::fs::write(&journal_path, [])?;
            }
            other => panic!("first delta save must be full, got {other:?}"),
        }
    } // <- power cycle

    // Day 2: resume, learn the second seizure — but power fails halfway
    // through appending the journal entry.
    {
        let (mut day2, report) = SelfLearningPipeline::resume_with_journal(
            &std::fs::read(&base_path)?,
            &std::fs::read(&journal_path)?,
        )?;
        assert_eq!(report.entries_applied, 0);
        let record = cohort.sample_record(patient, 1, &sample, 2)?;
        day2.observe_missed_seizure(&record, w, LabelSource::Algorithm)?;
        match day2.save_delta_with(policy) {
            DeltaSave::Append(entry) => {
                let torn = &entry[..entry.len() / 2];
                let mut journal = std::fs::read(&journal_path)?;
                journal.extend_from_slice(torn);
                std::fs::write(&journal_path, journal)?;
                println!(
                    "day 2: O(batch) append of {:.1} KB — power lost after {:.1} KB",
                    entry.len() as f64 / 1024.0,
                    torn.len() as f64 / 1024.0
                );
            }
            other => panic!("steady-state delta save must append, got {other:?}"),
        }
    } // <- crash: the in-memory state and half the entry are gone

    // Day 3: the resume detects the torn entry, drops it, and tells the
    // device where to truncate the journal; the lost seizure is re-learned
    // from the hour buffer and saved again — cleanly this time.
    let base = std::fs::read(&base_path)?;
    let (mut day3, report) =
        SelfLearningPipeline::resume_with_journal(&base, &std::fs::read(&journal_path)?)?;
    assert_eq!(
        report.entries_applied, 0,
        "the torn entry must not be applied"
    );
    assert!(report.torn_bytes > 0);
    println!(
        "day 3: torn entry detected ({} bytes dropped), journal truncated to {} bytes",
        report.torn_bytes, report.valid_len
    );
    // Truncate the journal *file* to the valid prefix — the same `set_len`
    // a device performs on its Flash-backed file before appending anything
    // new, so the torn bytes can never alias a future entry.
    std::fs::OpenOptions::new()
        .write(true)
        .open(&journal_path)?
        .set_len(report.valid_len as u64)?;
    let record = cohort.sample_record(patient, 1, &sample, 2)?;
    day3.observe_missed_seizure(&record, w, LabelSource::Algorithm)?;
    let entry_bytes = match day3.save_delta_with(policy) {
        DeltaSave::Append(entry) => {
            use std::io::Write;
            std::fs::OpenOptions::new()
                .append(true)
                .open(&journal_path)?
                .write_all(&entry)?;
            entry.len()
        }
        other => panic!("the re-learned seizure must append, got {other:?}"),
    };
    let journal = std::fs::read(&journal_path)?;
    assert_eq!(
        journal.len(),
        report.valid_len + entry_bytes,
        "the truncated file plus the clean append is the whole journal"
    );

    // A final power cycle proves the recovered journal holds both seizures:
    // the resumed device equals the uninterrupted reference.
    let (day4, report) =
        SelfLearningPipeline::resume_with_journal(&base, &std::fs::read(&journal_path)?)?;
    assert_eq!(report.entries_applied, 1);
    assert_eq!(report.torn_bytes, 0);
    assert_eq!(day4.num_seizures_collected(), 2);
    assert_eq!(
        day4.detector().flat_forest(),
        uninterrupted.detector().flat_forest(),
        "journal recovery must be node-identical to the uninterrupted device"
    );
    assert_eq!(day4.evaluate(&held_out)?, reference_report);

    // The per-seizure Flash write is O(batch): the journal entry is a small
    // fraction of the full snapshot it replaces, and history + base +
    // journal still fit the platform's Flash.
    let with_journal = memory.budget_with_journal(1200.0, base.len(), journal.len())?;
    println!(
        "recovered: {} seizures from base + journal; per-seizure append {:.1} KB vs {:.1} KB \
         full snapshot — the batch is half this tiny pool; the gap widens with every seizure \
         (paper scale: see BENCH_persist.json); flash {} KB (fits: {})",
        day4.num_seizures_collected(),
        entry_bytes as f64 / 1024.0,
        base.len() as f64 / 1024.0,
        with_journal.history_bytes / 1024,
        with_journal.fits_flash
    );
    assert!(entry_bytes < base.len());
    assert!(with_journal.fits_flash);
    std::fs::remove_file(&base_path)?;
    std::fs::remove_file(&journal_path)?;

    // Crash-proof A/B store: the same pipeline, but saves go to a dual-slot
    // Flash image whose commit protocol survives power loss at *any* byte
    // (the file-based journal above trusts the filesystem for that). The
    // FaultyFlash device lets the demo actually pull the plug.
    println!("\ncrash-proof A/B flash store (power loss mid-save -> reboot -> resume)");
    let mut device = SelfLearningPipeline::new(LabelerConfig::default(), detector_config);
    let record = cohort.sample_record(patient, 0, &sample, 1)?;
    device.observe_missed_seizure(&record, w, LabelSource::Algorithm)?;
    let geometry = FlashGeometry::for_base(device.save().len() * 4, 64 * 1024);
    let mut store = device.init_store(FaultyFlash::new(geometry.total_bytes()), geometry)?;
    let record = cohort.sample_record(patient, 1, &sample, 2)?;
    device.observe_missed_seizure(&record, w, LabelSource::Algorithm)?;
    let save = device.save_to_store(&mut store)?;
    assert_eq!(
        save,
        StoreSave::Appended,
        "one seizure -> one journal entry"
    );
    println!(
        "seizure 2 saved ({save:?}): slot {:?} seq {}, {} journal entries",
        store.active_slot(),
        store.sequence(),
        store.journal_entries()
    );

    // Pull the plug 100 bytes into the next save. The write fails…
    let committed = device.save();
    let crashing = FaultyFlash::from_image(store.flash().image().to_vec()).power_loss_after(100);
    let (mut crashed_store, _) = FlashStore::mount(crashing, geometry)?;
    let record = cohort.sample_record(patient, 2, &sample, 3)?;
    device.observe_missed_seizure(&record, w, LabelSource::Algorithm)?;
    let died = device.save_to_store(&mut crashed_store);
    assert!(died.is_err(), "the armed power loss must kill the save");

    // …but the next boot mounts the committed state as if nothing happened:
    // the in-flight seizure is re-learned from the hour buffer, saved, and a
    // final power cycle confirms all three seizures are durable.
    let (store, mount) = FlashStore::mount(crashed_store.into_flash().reboot(), geometry)?;
    let (mut resumed, _) = SelfLearningPipeline::resume_from_store(&store)?;
    assert_eq!(
        resumed.save(),
        committed,
        "resume must be the pre-save state"
    );
    println!(
        "rebooted: slot {:?} seq {} intact, {} seizures resumed (fell back: {})",
        mount.active_slot,
        mount.sequence,
        resumed.num_seizures_collected(),
        mount.fell_back
    );
    let mut store = store;
    resumed.observe_missed_seizure(&record, w, LabelSource::Algorithm)?;
    resumed.save_to_store(&mut store)?;
    let (store, _) = FlashStore::mount(store.into_flash().reboot(), geometry)?;
    let (survivor, _) = SelfLearningPipeline::resume_from_store(&store)?;
    assert_eq!(survivor.num_seizures_collected(), 3);

    // Crash-proofing costs a second slot on the edge platform's Flash: the
    // day-1 base affords it, this 3-seizure pool no longer does — the budget
    // model is where a device draws its pool-growth line *before* a
    // compaction fails on a full part.
    let ab_grown = memory.budget_with_ab_store(1200.0, store.base_len(), geometry.journal_bytes)?;
    let ab_day1 = memory.budget_with_ab_store(1200.0, snapshot_bytes, geometry.journal_bytes)?;
    assert!(ab_day1.fits_flash);
    println!(
        "3 seizures durable; A/B store doubles the base slot: day-1 base {:.1} KB \
         crash-proofed fits the 384 KB part: {}; this {:.1} KB pool fits: {} — \
         budget_with_ab_store draws the pool-growth line before flash runs out",
        snapshot_bytes as f64 / 1024.0,
        ab_day1.fits_flash,
        store.base_len() as f64 / 1024.0,
        ab_grown.fits_flash
    );

    // Signal-quality gate: run one hostile segment end to end. A mains-hum-
    // swamped record is rejected window by window — alarms are suppressed
    // instead of flooding the caregiver — and the same record is turned away
    // from the self-learning pool before it can poison the personalized model.
    println!("\nsignal-quality gate (hostile segment -> suppressed alarms, quarantined learning)");
    let mut survivor = survivor;
    let hostile = EegRecord::new(
        degrade_signal(held_out.signal(), HostileScenario::MainsHum, 1.0, 0xBAD)?,
        *held_out.annotation(),
        held_out.patient_id(),
        held_out.seizure_index(),
    )?;
    let mut workspace = FeatureWorkspace::new();
    let (predictions, _) = survivor
        .detector()
        .detect_into(held_out.signal(), &mut workspace)?;
    let clean_alarms = predictions.iter().filter(|&&p| p).count();
    let (predictions, verdicts) = survivor
        .detector()
        .detect_into(hostile.signal(), &mut workspace)?;
    let hostile_alarms = predictions.iter().filter(|&&p| p).count();
    let rejected = verdicts
        .iter()
        .filter(|&&v| v == QualityVerdict::Reject)
        .count();
    println!(
        "hum-swamped segment: {}/{} windows rejected, {} alarm windows \
         (the clean segment raises {})",
        rejected,
        verdicts.len(),
        hostile_alarms,
        clean_alarms
    );
    assert!(rejected > verdicts.len() / 2);
    assert!(hostile_alarms < clean_alarms);

    // The same record offered to the self-learning loop is quarantined before
    // the a-posteriori labeler ever sees it.
    let pool_before = survivor.training_windows();
    let outcome = survivor.observe_missed_seizure(&hostile, w, LabelSource::Algorithm)?;
    assert!(outcome.is_none(), "the hostile record must be quarantined");
    assert_eq!(survivor.training_windows(), pool_before);
    println!(
        "self-learning: hostile record quarantined ({} quarantined so far), \
         training pool untouched at {} windows",
        survivor.num_quarantined(),
        survivor.training_windows()
    );
    Ok(())
}
