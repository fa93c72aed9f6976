//! Crash-injection property suite for the A/B Flash store.
//!
//! The invariant under test, from the store's contract: after a crash at
//! **any byte** of a save/compact/append stream — including torn
//! multi-sector writes and retention bit flips — remounting yields either
//! the state before the interrupted operation or the fully committed state,
//! never a panic and never silent corruption. "State" is byte-exact: the
//! committed base snapshot plus the journal prefix bound to it, which
//! [`journal::replay`] must re-apply cleanly (node-identical trainer).

use proptest::prelude::*;
use seizure_ml::forest::RandomForestConfig;
use seizure_ml::incremental::{IncrementalTrainer, IncrementalTrainerConfig};
use seizure_ml::persist::journal::{self, JournalWriter};
use seizure_ml::persist::store::{FaultyFlash, FlashGeometry, FlashStore};
use seizure_ml::persist::trainer_to_bytes;

const NUM_FEATURES: usize = 2;

fn rows_and_labels(n: usize, salt: usize) -> (Vec<f64>, Vec<bool>) {
    let mut rows = Vec::with_capacity(n * NUM_FEATURES);
    let mut labels = Vec::with_capacity(n);
    for i in salt..salt + n {
        let noise = ((i * 37 + 11) % 23) as f64 / 23.0;
        let positive = i % 2 == 0;
        rows.push(if positive { 2.0 + noise } else { -1.0 - noise });
        rows.push(noise);
        labels.push(positive);
    }
    (rows, labels)
}

fn tiny_trainer(n: usize) -> IncrementalTrainer {
    let config = IncrementalTrainerConfig {
        forest: RandomForestConfig {
            n_trees: 3,
            max_depth: 3,
            ..RandomForestConfig::default()
        },
        block_size: 8,
    };
    let (rows, labels) = rows_and_labels(n, 0);
    let mut trainer = IncrementalTrainer::new(config, 11);
    trainer.retrain(&rows, NUM_FEATURES, &labels).unwrap();
    trainer
}

/// One store operation in an on-device persistence stream.
#[derive(Debug, Clone)]
enum Op {
    /// Append one journal frame.
    Append(Vec<u8>),
    /// Compact: commit a fresh base into the inactive slot.
    Commit(Vec<u8>),
}

/// Byte-exact logical store state: the committed base plus the journal
/// prefix bound to it.
#[derive(Debug, Clone, PartialEq, Eq)]
struct State {
    base: Vec<u8>,
    journal: Vec<u8>,
    entries: usize,
}

/// Builds a save/append/compact stream of `plan` steps (`None` = compact,
/// `Some(batch)` = journal append of a real retrain batch), returning the
/// initial base, the ops and the expected state after every prefix of ops
/// (`states[i]` = state once `i` ops have completed).
fn build_stream(pool: usize, plan: &[Option<usize>]) -> (Vec<u8>, Vec<Op>, Vec<State>) {
    let mut trainer = tiny_trainer(pool);
    let base0 = trainer_to_bytes(&trainer);
    let mut writer = JournalWriter::new(&base0, trainer.num_samples()).unwrap();
    let mut ops = Vec::new();
    let mut states = vec![State {
        base: base0.clone(),
        journal: Vec::new(),
        entries: 0,
    }];
    let mut salt = pool;
    for step in plan {
        let previous = states.last().unwrap().clone();
        let next = match *step {
            Some(batch) => {
                let (rows, labels) = rows_and_labels(batch, salt);
                salt += batch;
                trainer.retrain(&rows, NUM_FEATURES, &labels).unwrap();
                writer.append(&rows, NUM_FEATURES, &labels, &[]).unwrap();
                let frame = writer.take_unflushed();
                ops.push(Op::Append(frame.clone()));
                let mut journal = previous.journal;
                journal.extend_from_slice(&frame);
                State {
                    base: previous.base,
                    journal,
                    entries: previous.entries + 1,
                }
            }
            None => {
                let base = trainer_to_bytes(&trainer);
                writer = JournalWriter::new(&base, trainer.num_samples()).unwrap();
                ops.push(Op::Commit(base.clone()));
                State {
                    base,
                    journal: Vec::new(),
                    entries: 0,
                }
            }
        };
        states.push(next);
    }
    (base0, ops, states)
}

fn geometry_for(states: &[State]) -> FlashGeometry {
    let base_capacity = states.iter().map(|s| s.base.len()).max().unwrap() + 64;
    let journal_bytes = states.iter().map(|s| s.journal.len()).max().unwrap() + 256;
    FlashGeometry::for_base(base_capacity, journal_bytes)
}

/// Mounts and runs the op stream until the first injected failure.
/// Returns the device and the index of the op that died, if any.
fn run_stream(
    flash: FaultyFlash,
    geometry: FlashGeometry,
    ops: &[Op],
) -> (FaultyFlash, Option<usize>) {
    let (mut store, _) = FlashStore::mount(flash, geometry).expect("mount before the crash");
    for (i, op) in ops.iter().enumerate() {
        let outcome = match op {
            Op::Append(frame) => store.append_journal(frame),
            Op::Commit(base) => store.commit_base(base),
        };
        if outcome.is_err() {
            return (store.into_flash(), Some(i));
        }
    }
    (store.into_flash(), None)
}

/// Remounts after a crash and checks the store invariant: the observed
/// state is exactly `states[died]` (pre-op) or `states[died + 1]`
/// (committed), and the journal replays cleanly against the base.
fn assert_recovers(
    flash: FaultyFlash,
    geometry: FlashGeometry,
    states: &[State],
    died: Option<usize>,
    context: &str,
) {
    let (store, report) = FlashStore::mount(flash.reboot(), geometry)
        .unwrap_or_else(|e| panic!("{context}: store lost after crash: {e}"));
    let observed = State {
        base: store.base().unwrap(),
        journal: store.journal().unwrap(),
        entries: report.journal_entries,
    };
    match died {
        Some(i) => assert!(
            observed == states[i] || observed == states[i + 1],
            "{context}: crash during op {i} recovered neither the pre-save nor the committed state \
             (observed base {} bytes / {} entries)",
            observed.base.len(),
            observed.entries
        ),
        None => assert_eq!(
            &observed,
            states.last().unwrap(),
            "{context}: fault-free run must land in the final state"
        ),
    }
    let replayed = journal::replay(&observed.base, &observed.journal)
        .unwrap_or_else(|e| panic!("{context}: recovered state does not replay: {e}"));
    assert_eq!(
        replayed.report.entries_applied, observed.entries,
        "{context}"
    );
}

/// The canonical stream: two appends, a compaction, another append, a
/// second compaction, a final append — every transition the store has.
fn canonical_stream() -> (Vec<u8>, Vec<Op>, Vec<State>) {
    build_stream(8, &[Some(4), Some(4), None, Some(4), None, Some(4)])
}

/// Every expected state must itself be semantically sound: replaying its
/// journal over its base reproduces the uninterrupted trainer node-identically.
#[test]
fn expected_states_replay_node_identically() {
    let (_, _, states) = canonical_stream();
    let mut snapshots = Vec::new();
    for state in &states {
        let replayed = journal::replay(&state.base, &state.journal).unwrap();
        assert_eq!(replayed.report.entries_applied, state.entries);
        snapshots.push(trainer_to_bytes(&replayed.trainer));
    }
    // A compaction changes the representation, not the trainer: the state
    // right after a commit replays to the same bytes as the committed base.
    for (state, snapshot) in states.iter().zip(&snapshots) {
        if state.entries == 0 {
            assert_eq!(&state.base, snapshot);
        }
    }
    // And the stream genuinely grows the pool — the states are all distinct.
    for pair in states.windows(2) {
        assert_ne!(pair[0], pair[1]);
    }
}

#[test]
fn power_loss_at_every_byte_recovers_pre_or_post_state() {
    let (base0, ops, states) = canonical_stream();
    let geometry = geometry_for(&states);

    // Format once, fault-free; the sweep replays the op stream on copies.
    let store =
        FlashStore::format(FaultyFlash::new(geometry.total_bytes()), geometry, &base0).unwrap();
    let image = store.into_flash().image().to_vec();

    let (clean, died) = run_stream(FaultyFlash::from_image(image.clone()), geometry, &ops);
    assert_eq!(died, None);
    let total_bytes = clean.bytes_written();
    assert_recovers(clean, geometry, &states, None, "fault-free");

    for cut in 0..=total_bytes {
        let flash = FaultyFlash::from_image(image.clone()).power_loss_after(cut);
        let (flash, died) = run_stream(flash, geometry, &ops);
        assert_eq!(
            died.is_some(),
            cut < total_bytes,
            "cut {cut} of {total_bytes} must die exactly when inside the stream"
        );
        assert_recovers(flash, geometry, &states, died, &format!("cut {cut}"));
    }
}

#[test]
fn power_loss_with_torn_sector_order_recovers_pre_or_post_state() {
    let (base0, ops, states) = canonical_stream();
    let geometry = geometry_for(&states);
    let store =
        FlashStore::format(FaultyFlash::new(geometry.total_bytes()), geometry, &base0).unwrap();
    let image = store.into_flash().image().to_vec();
    let (clean, _) = run_stream(FaultyFlash::from_image(image.clone()), geometry, &ops);
    let total_bytes = clean.bytes_written();

    // Scrambled sector order makes the byte position of the cut land in a
    // different part of each write; stride the sweep to keep it quick while
    // still covering every operation many times over.
    for seed in 1..=3u64 {
        for cut in (0..=total_bytes).step_by(7) {
            let flash = FaultyFlash::from_image(image.clone())
                .with_sector_bytes(32)
                .scrambled(seed)
                .power_loss_after(cut);
            let (flash, died) = run_stream(flash, geometry, &ops);
            assert_recovers(
                flash,
                geometry,
                &states,
                died,
                &format!("seed {seed} cut {cut}"),
            );
        }
    }
}

#[test]
fn single_bit_flips_never_unmount_the_store() {
    let (base0, ops, states) = canonical_stream();
    let geometry = geometry_for(&states);
    let store =
        FlashStore::format(FaultyFlash::new(geometry.total_bytes()), geometry, &base0).unwrap();
    let image = store.into_flash().image().to_vec();
    let (flash, died) = run_stream(FaultyFlash::from_image(image), geometry, &ops);
    assert_eq!(died, None);
    let settled = flash.image().to_vec();

    // After the full stream: the active slot holds the final base with one
    // appended entry; the inactive slot still holds the previous base. A
    // single retention flip may cost the journal tail or force the fallback
    // to the previous base — but never the whole store, and never a panic.
    let full = states.last().unwrap().clone();
    let trimmed = State {
        base: full.base.clone(),
        journal: Vec::new(),
        entries: 0,
    };
    // A flip in the active slot forces the fallback to the *previous
    // committed base* (the inactive slot), whose journal entries are gone.
    let previous_base = states
        .iter()
        .rev()
        .map(|s| &s.base)
        .find(|base| **base != full.base)
        .unwrap()
        .clone();
    let fallback = State {
        base: previous_base,
        journal: Vec::new(),
        entries: 0,
    };

    for offset in 0..settled.len() {
        let mut flash = FaultyFlash::from_image(settled.clone());
        flash.flip_bit(offset, (offset % 8) as u32);
        let (store, report) = FlashStore::mount(flash, geometry)
            .unwrap_or_else(|e| panic!("bit flip at byte {offset} unmounted the store: {e}"));
        let observed = State {
            base: store.base().unwrap(),
            journal: store.journal().unwrap(),
            entries: report.journal_entries,
        };
        assert!(
            observed == full || observed == trimmed || observed == fallback,
            "bit flip at byte {offset} produced an unexpected state \
             ({} base bytes, {} entries)",
            observed.base.len(),
            observed.entries
        );
        journal::replay(&observed.base, &observed.journal)
            .unwrap_or_else(|e| panic!("bit flip at byte {offset}: state does not replay: {e}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomized streams: arbitrary append/compact plans, a random power
    /// loss cut, and a random torn-write seed — the invariant holds for
    /// every one of them.
    #[test]
    fn random_streams_survive_random_power_loss(
        plan in prop::collection::vec(0usize..5, 2..7),
        cut_scale in 0.0f64..1.0,
        scramble in any::<u64>(),
        torn in any::<bool>(),
    ) {
        // 0 = compact, 1..=4 = append that many samples.
        let plan: Vec<Option<usize>> = plan
            .iter()
            .map(|&step| if step == 0 { None } else { Some(step) })
            .collect();
        let (base0, ops, states) = build_stream(8, &plan);
        let geometry = geometry_for(&states);
        let store = FlashStore::format(
            FaultyFlash::new(geometry.total_bytes()),
            geometry,
            &base0,
        ).unwrap();
        let image = store.into_flash().image().to_vec();
        let (clean, died) = run_stream(FaultyFlash::from_image(image.clone()), geometry, &ops);
        prop_assert_eq!(died, None);
        let total_bytes = clean.bytes_written();

        let cut = ((total_bytes as f64) * cut_scale) as usize;
        let mut flash = FaultyFlash::from_image(image).power_loss_after(cut);
        if torn {
            flash = flash.with_sector_bytes(32).scrambled(scramble);
        }
        let (flash, died) = run_stream(flash, geometry, &ops);
        assert_recovers(flash, geometry, &states, died, &format!("random cut {cut}"));
    }
}
