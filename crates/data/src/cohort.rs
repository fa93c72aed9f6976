//! The CHB-MIT-like synthetic cohort.
//!
//! A [`Cohort`] fixes, deterministically from a seed, the nine patient profiles
//! and the duration of every one of their 45 seizures; evaluation records are
//! then drawn from it with [`Cohort::sample_record`], which mirrors the paper's
//! protocol (a record of random duration containing exactly one seizure).

use crate::error::DataError;
use crate::patient::PatientProfile;
use crate::sampler::{EegRecord, SampleConfig};
use crate::synth::{generate_record, randn};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Fixed metadata of one seizure in the cohort.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeizureSpec {
    /// 1-based patient identifier.
    pub patient_id: usize,
    /// 0-based index of the seizure within the patient.
    pub seizure_index: usize,
    /// Duration of the seizure in seconds.
    pub duration_secs: f64,
}

/// The synthetic nine-patient, 45-seizure cohort.
///
/// # Example
///
/// ```
/// use seizure_data::cohort::Cohort;
///
/// let cohort = Cohort::chb_mit_like(1);
/// assert_eq!(cohort.patients().len(), 9);
/// assert_eq!(cohort.total_seizures(), 45);
/// assert_eq!(cohort.seizures_of(0).unwrap().len(), 7);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Cohort {
    seed: u64,
    patients: Vec<PatientProfile>,
    seizures: Vec<Vec<SeizureSpec>>,
}

impl Cohort {
    /// Builds the cohort with per-seizure durations drawn deterministically
    /// from `seed`.
    pub fn chb_mit_like(seed: u64) -> Self {
        let patients = PatientProfile::chb_mit_like_cohort();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut seizures = Vec::with_capacity(patients.len());
        for (p_idx, patient) in patients.iter().enumerate() {
            let mut list = Vec::with_capacity(patient.num_seizures);
            for s_idx in 0..patient.num_seizures {
                let jitter = randn(&mut rng) * patient.seizure_duration_jitter;
                let duration = (patient.mean_seizure_duration + jitter).max(15.0);
                list.push(SeizureSpec {
                    patient_id: p_idx + 1,
                    seizure_index: s_idx,
                    duration_secs: duration,
                });
            }
            seizures.push(list);
        }
        Self {
            seed,
            patients,
            seizures,
        }
    }

    /// Seed the cohort was built from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The nine patient profiles.
    pub fn patients(&self) -> &[PatientProfile] {
        &self.patients
    }

    /// Profile of the patient at `patient_idx` (0-based).
    ///
    /// # Errors
    ///
    /// Returns [`DataError::IndexOutOfRange`] if the index is out of range.
    pub fn patient(&self, patient_idx: usize) -> Result<&PatientProfile, DataError> {
        self.patients
            .get(patient_idx)
            .ok_or(DataError::IndexOutOfRange {
                entity: "patient",
                index: patient_idx,
                available: self.patients.len(),
            })
    }

    /// Seizure list of the patient at `patient_idx` (0-based).
    ///
    /// # Errors
    ///
    /// Returns [`DataError::IndexOutOfRange`] if the index is out of range.
    pub fn seizures_of(&self, patient_idx: usize) -> Result<&[SeizureSpec], DataError> {
        self.seizures
            .get(patient_idx)
            .map(Vec::as_slice)
            .ok_or(DataError::IndexOutOfRange {
                entity: "patient",
                index: patient_idx,
                available: self.patients.len(),
            })
    }

    /// Metadata of one seizure.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::IndexOutOfRange`] if either index is out of range.
    pub fn seizure(
        &self,
        patient_idx: usize,
        seizure_idx: usize,
    ) -> Result<SeizureSpec, DataError> {
        let list = self.seizures_of(patient_idx)?;
        list.get(seizure_idx)
            .copied()
            .ok_or(DataError::IndexOutOfRange {
                entity: "seizure",
                index: seizure_idx,
                available: list.len(),
            })
    }

    /// Total number of seizures across all patients (45 for the default cohort).
    pub fn total_seizures(&self) -> usize {
        self.seizures.iter().map(Vec::len).sum()
    }

    /// Average seizure duration of a patient in seconds — the quantity a
    /// medical expert provides to the labeling algorithm as the window length
    /// `W`.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::IndexOutOfRange`] if the index is out of range.
    pub fn average_seizure_duration(&self, patient_idx: usize) -> Result<f64, DataError> {
        let list = self.seizures_of(patient_idx)?;
        Ok(list.iter().map(|s| s.duration_secs).sum::<f64>() / list.len() as f64)
    }

    /// Generates one evaluation record for the given seizure: a recording of
    /// random duration within the configured range that contains that seizure
    /// at a random position (the paper's §VI-A sampling protocol).
    ///
    /// The record is fully determined by the cohort seed, the seizure identity
    /// and `sample_seed`, so experiments are reproducible.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::IndexOutOfRange`] for invalid indices or
    /// [`DataError::InvalidParameter`] if the configuration cannot accommodate
    /// the seizure (record shorter than the seizure plus margins).
    pub fn sample_record(
        &self,
        patient_idx: usize,
        seizure_idx: usize,
        config: &SampleConfig,
        sample_seed: u64,
    ) -> Result<EegRecord, DataError> {
        let spec = self.seizure(patient_idx, seizure_idx)?;
        let profile = self.patient(patient_idx)?;
        let mut rng = self.record_rng(patient_idx, seizure_idx, sample_seed);

        let margin = config.edge_margin_secs();
        // Only draw record lengths that can actually contain the seizure plus
        // both margins; otherwise the sampled duration would depend on the RNG
        // stream deciding whether the record is feasible at all.
        let min_feasible = spec.duration_secs + 2.0 * margin + 1.0;
        if config.max_duration_secs() < min_feasible {
            return Err(DataError::InvalidParameter {
                name: "config",
                reason: format!(
                    "a {:.0}-second record cannot contain a {:.0}-second seizure with {:.0}-second margins",
                    config.max_duration_secs(),
                    spec.duration_secs,
                    margin
                ),
            });
        }
        let shortest = config.min_duration_secs().max(min_feasible);
        let total_secs = if config.max_duration_secs() > shortest {
            rng.gen_range(shortest..config.max_duration_secs())
        } else {
            shortest
        };
        let latest_onset = total_secs - spec.duration_secs - margin;
        let onset = rng.gen_range(margin..latest_onset);
        let generated = generate_record(
            profile,
            total_secs,
            onset,
            spec.duration_secs,
            config.sampling_frequency(),
            &mut rng,
        )?;
        EegRecord::new(
            generated.signal,
            generated.annotation,
            spec.patient_id,
            spec.seizure_index,
        )
    }

    fn record_rng(&self, patient_idx: usize, seizure_idx: usize, sample_seed: u64) -> ChaCha8Rng {
        // Mix the cohort seed and the record identity into one 64-bit seed.
        let mut h = self.seed ^ 0x9E37_79B9_7F4A_7C15;
        for v in [
            patient_idx as u64 + 1,
            seizure_idx as u64 ^ 0xABCD,
            sample_seed,
        ] {
            h ^= v.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            h = h.rotate_left(27).wrapping_mul(0x94D0_49BB_1331_11EB);
        }
        ChaCha8Rng::seed_from_u64(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cohort_structure_matches_table_ii() {
        let cohort = Cohort::chb_mit_like(7);
        assert_eq!(cohort.patients().len(), 9);
        assert_eq!(cohort.total_seizures(), 45);
        let counts: Vec<usize> = (0..9)
            .map(|p| cohort.seizures_of(p).unwrap().len())
            .collect();
        assert_eq!(counts, vec![7, 3, 7, 4, 5, 3, 5, 4, 7]);
        assert_eq!(cohort.seed(), 7);
    }

    #[test]
    fn cohort_is_deterministic_in_its_seed() {
        let a = Cohort::chb_mit_like(3);
        let b = Cohort::chb_mit_like(3);
        let c = Cohort::chb_mit_like(4);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn seizure_durations_are_positive_and_near_the_profile_mean() {
        let cohort = Cohort::chb_mit_like(11);
        for (p_idx, patient) in cohort.patients().iter().enumerate() {
            let avg = cohort.average_seizure_duration(p_idx).unwrap();
            assert!(avg > 15.0);
            assert!(
                (avg - patient.mean_seizure_duration).abs() < 3.5 * patient.seizure_duration_jitter
            );
            for s in cohort.seizures_of(p_idx).unwrap() {
                assert!(s.duration_secs >= 15.0);
                assert_eq!(s.patient_id, p_idx + 1);
            }
        }
    }

    #[test]
    fn out_of_range_indices_are_rejected() {
        let cohort = Cohort::chb_mit_like(1);
        assert!(cohort.patient(9).is_err());
        assert!(cohort.seizures_of(20).is_err());
        assert!(cohort.seizure(0, 7).is_err());
        assert!(cohort
            .sample_record(12, 0, &SampleConfig::fast_test().unwrap(), 0)
            .is_err());
    }

    #[test]
    fn sample_record_contains_the_seizure_within_bounds() {
        let cohort = Cohort::chb_mit_like(5);
        let config = SampleConfig::fast_test().unwrap();
        let record = cohort.sample_record(0, 1, &config, 3).unwrap();
        let ann = record.annotation();
        assert!(ann.onset() >= config.edge_margin_secs());
        assert!(ann.offset() <= record.signal().duration_secs());
        assert!(record.signal().duration_secs() >= config.min_duration_secs());
        assert!(record.signal().duration_secs() <= config.max_duration_secs());
        assert_eq!(record.patient_id(), 1);
        assert_eq!(record.seizure_index(), 1);
    }

    #[test]
    fn sample_record_is_reproducible_and_varies_with_sample_seed() {
        let cohort = Cohort::chb_mit_like(5);
        let config = SampleConfig::fast_test().unwrap();
        let a = cohort.sample_record(2, 0, &config, 10).unwrap();
        let b = cohort.sample_record(2, 0, &config, 10).unwrap();
        let c = cohort.sample_record(2, 0, &config, 11).unwrap();
        assert_eq!(a, b);
        assert_ne!(a.signal(), c.signal());
    }

    #[test]
    fn record_too_short_for_seizure_is_rejected() {
        let cohort = Cohort::chb_mit_like(5);
        // 30-second records cannot contain a ~60-second seizure.
        let config = SampleConfig::new(30.0, 31.0, 64.0).unwrap();
        assert!(cohort.sample_record(0, 0, &config, 0).is_err());
    }
}
