//! Seeded inputs. The synthetic cohort (patient profiles and seizure
//! durations) is fixed, so every seed asks the program for the same kind of
//! work; the seed draws the records — seizure position, background, artifacts
//! and noise — from it. The code under test receives only the records and
//! Flash images built from them.

use seizure_data::cohort::Cohort;
use seizure_data::sampler::{EegRecord, SampleConfig};

/// Sampling rate of every record (the paper's 256 Hz).
pub const FS: f64 = 256.0;
/// Seed of the fixed synthetic cohort.
const COHORT_SEED: u64 = 2019;
/// A clean patient profile (patient 9 of the cohort).
pub const CLEAN: usize = 8;
/// A harder patient profile (patient 4): twice the clean patient's artifact
/// rate at a higher artifact gain, near-seizure bursts in about one record
/// of five, and longer seizures.
pub const HARD: usize = 3;

/// Record families: each draws from its own seed stream, so held-out
/// records never repeat a training record.
#[derive(Debug, Clone, Copy)]
pub enum Family {
    Train = 1,
    Confirmed = 2,
    HeldOut = 3,
}

/// Record factory for one benchmark seed.
pub struct Inputs {
    cohort: Cohort,
    seed: u64,
}

impl Inputs {
    pub fn new(seed: u64) -> Self {
        Self {
            cohort: Cohort::chb_mit_like(COHORT_SEED),
            seed,
        }
    }

    /// The patient's average seizure duration (the labeler's window `W`).
    pub fn average_seizure_secs(&self, patient: usize) -> f64 {
        self.cohort
            .average_seizure_duration(patient)
            .expect("fixed patient index")
    }

    /// The `n`-th record of `family` for `patient`: exactly `minutes` long
    /// at [`FS`], holding one of the patient's seizures.
    pub fn record(&self, patient: usize, family: Family, n: usize, minutes: f64) -> EegRecord {
        let seizures = self
            .cohort
            .seizures_of(patient)
            .expect("fixed patient index")
            .len();
        let secs = minutes * 60.0;
        let config = SampleConfig::new(secs, secs, FS).expect("positive duration");
        let sample_seed = mix(self.seed, patient as u64, family as u64, n as u64);
        self.cohort
            .sample_record(patient, n % seizures, &config, sample_seed)
            .expect("records of at least five minutes hold any cohort seizure")
    }
}

/// SplitMix64 over the benchmark seed and a record identity.
fn mix(seed: u64, patient: u64, family: u64, n: u64) -> u64 {
    let mut h = seed;
    for v in [patient, family, n] {
        h = h.wrapping_add(0x9E37_79B9_7F4A_7C15 ^ v.wrapping_mul(0xBF58_476D_1CE4_E5B9));
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 31;
    }
    h
}
