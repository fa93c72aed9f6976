//! Tasks and duty cycles.
//!
//! The platform runs four tasks (paper Table III): continuous EEG acquisition
//! on the analog front-end, the supervised real-time detection (75 % CPU duty
//! cycle — three seconds of processing per four-second window), the
//! a-posteriori labeling (triggered once per missed seizure; one hour of signal
//! is processed in roughly one hour, so its duty cycle equals the seizure
//! frequency expressed as hours-per-day / 24), and idle.

use crate::error::EdgeError;
use crate::platform::PlatformSpec;

/// One platform task with its current draw and duty cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct Task {
    /// Human-readable task name (matches the rows of Table III).
    pub name: String,
    /// Current drawn while the task is active, in mA.
    pub current_ma: f64,
    /// Fraction of time the task is active (1.0 = 100 %).
    pub duty_cycle: f64,
}

impl Task {
    /// Creates a task.
    ///
    /// # Errors
    ///
    /// Returns [`EdgeError::InvalidParameter`] if the current is negative or
    /// the duty cycle lies outside `[0, 1]`.
    pub fn new(
        name: impl Into<String>,
        current_ma: f64,
        duty_cycle: f64,
    ) -> Result<Self, EdgeError> {
        if current_ma < 0.0 || current_ma.is_nan() {
            return Err(EdgeError::InvalidParameter {
                name: "current_ma",
                reason: format!("current must be non-negative, got {current_ma}"),
            });
        }
        if !(0.0..=1.0).contains(&duty_cycle) || duty_cycle.is_nan() {
            return Err(EdgeError::InvalidParameter {
                name: "duty_cycle",
                reason: format!("duty cycle must lie in [0, 1], got {duty_cycle}"),
            });
        }
        Ok(Self {
            name: name.into(),
            current_ma,
            duty_cycle,
        })
    }

    /// Average current contributed by the task (`current × duty cycle`), in mA.
    pub fn average_current_ma(&self) -> f64 {
        self.current_ma * self.duty_cycle
    }
}

/// The set of tasks running on the platform in a given operating mode.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskSet {
    tasks: Vec<Task>,
}

/// CPU duty cycle of the supervised real-time detection: the detector needs
/// three seconds to process each four-second window (paper §VI-C).
pub const DETECTION_DUTY_CYCLE: f64 = 0.75;

/// Converts a seizure frequency (seizures per day) into the labeling duty
/// cycle: each triggered labeling pass processes one hour of signal in
/// roughly one hour of CPU time, so the duty cycle is `seizures_per_day / 24`.
pub fn labeling_duty_cycle(seizures_per_day: f64) -> f64 {
    (seizures_per_day / 24.0).clamp(0.0, 1.0)
}

impl TaskSet {
    /// Builds the task set for a platform running **only** the a-posteriori
    /// labeling (plus continuous acquisition), as in the first lifetime
    /// analysis of §VI-C.
    ///
    /// # Errors
    ///
    /// Returns [`EdgeError::InvalidParameter`] for a negative seizure frequency
    /// and [`EdgeError::DutyCycleOverflow`] if the labeling duty cycle would
    /// exceed 100 %.
    pub fn labeling_only(spec: &PlatformSpec, seizures_per_day: f64) -> Result<Self, EdgeError> {
        validate_frequency(seizures_per_day)?;
        let labeling = labeling_duty_cycle(seizures_per_day);
        Self::from_cpu_tasks(spec, &[("EEG Labeling", labeling)])
    }

    /// Builds the task set for a platform running **only** the supervised
    /// real-time detection (plus continuous acquisition).
    ///
    /// # Errors
    ///
    /// Returns [`EdgeError::DutyCycleOverflow`] if the detection duty cycle
    /// would exceed 100 % (cannot happen with the default constant).
    pub fn detection_only(spec: &PlatformSpec) -> Result<Self, EdgeError> {
        Self::from_cpu_tasks(spec, &[("EEG Sup. Detection", DETECTION_DUTY_CYCLE)])
    }

    /// Builds the complete task set of the self-learning methodology: real-time
    /// detection plus a-posteriori labeling at the given seizure frequency
    /// (Table III uses one seizure per day as the worst case).
    ///
    /// # Errors
    ///
    /// Returns [`EdgeError::InvalidParameter`] for a negative seizure frequency
    /// and [`EdgeError::DutyCycleOverflow`] if the combined CPU duty cycles
    /// exceed 100 %.
    pub fn combined(spec: &PlatformSpec, seizures_per_day: f64) -> Result<Self, EdgeError> {
        validate_frequency(seizures_per_day)?;
        let labeling = labeling_duty_cycle(seizures_per_day);
        Self::from_cpu_tasks(
            spec,
            &[
                ("EEG Sup. Detection", DETECTION_DUTY_CYCLE),
                ("EEG Labeling", labeling),
            ],
        )
    }

    fn from_cpu_tasks(spec: &PlatformSpec, cpu_tasks: &[(&str, f64)]) -> Result<Self, EdgeError> {
        let busy: f64 = cpu_tasks.iter().map(|(_, d)| d).sum();
        if busy > 1.0 + 1e-9 {
            return Err(EdgeError::DutyCycleOverflow { total: busy });
        }
        let mut tasks = vec![Task::new(
            "EEG Acquisition (x2)",
            spec.acquisition_current_ma,
            1.0,
        )?];
        for (name, duty) in cpu_tasks {
            tasks.push(Task::new(*name, spec.active_current_ma, *duty)?);
        }
        tasks.push(Task::new(
            "Idle",
            spec.idle_current_ma,
            (1.0 - busy).max(0.0),
        )?);
        Ok(Self { tasks })
    }

    /// The tasks of the set, in Table III order.
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Total average current of the task set in mA.
    pub fn total_average_current_ma(&self) -> f64 {
        self.tasks.iter().map(Task::average_current_ma).sum()
    }

    /// Fraction of the total energy consumed by each task (the series plotted
    /// in Fig. 5), in the same order as [`TaskSet::tasks`].
    pub fn energy_fractions(&self) -> Vec<f64> {
        let total = self.total_average_current_ma();
        if total <= 0.0 {
            return vec![0.0; self.tasks.len()];
        }
        self.tasks
            .iter()
            .map(|t| t.average_current_ma() / total)
            .collect()
    }
}

fn validate_frequency(seizures_per_day: f64) -> Result<(), EdgeError> {
    if seizures_per_day < 0.0 || seizures_per_day.is_nan() {
        return Err(EdgeError::InvalidParameter {
            name: "seizures_per_day",
            reason: format!("seizure frequency must be non-negative, got {seizures_per_day}"),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_validation() {
        assert!(Task::new("x", -1.0, 0.5).is_err());
        assert!(Task::new("x", 1.0, 1.5).is_err());
        assert!(Task::new("x", 1.0, -0.1).is_err());
        let t = Task::new("x", 10.0, 0.25).unwrap();
        assert_eq!(t.average_current_ma(), 2.5);
    }

    #[test]
    fn labeling_duty_cycle_matches_paper_values() {
        // One seizure per day -> 4.17 %.
        assert!((labeling_duty_cycle(1.0) - 0.0417).abs() < 0.0003);
        // One seizure per month -> 0.14 %.
        assert!((labeling_duty_cycle(1.0 / 30.0) - 0.0014).abs() < 0.0001);
        assert_eq!(labeling_duty_cycle(0.0), 0.0);
        assert_eq!(labeling_duty_cycle(100.0), 1.0);
    }

    #[test]
    fn combined_task_set_matches_table_iii() {
        let spec = PlatformSpec::stm32l151_default();
        let set = TaskSet::combined(&spec, 1.0).unwrap();
        let tasks = set.tasks();
        assert_eq!(tasks.len(), 4);
        assert_eq!(tasks[0].name, "EEG Acquisition (x2)");
        assert!((tasks[0].average_current_ma() - 0.870).abs() < 1e-9);
        assert_eq!(tasks[1].name, "EEG Sup. Detection");
        assert!((tasks[1].average_current_ma() - 7.875).abs() < 1e-9);
        assert_eq!(tasks[2].name, "EEG Labeling");
        assert!((tasks[2].average_current_ma() - 0.4375).abs() < 1e-3);
        assert_eq!(tasks[3].name, "Idle");
        assert!((tasks[3].duty_cycle - 0.2083).abs() < 1e-3);
        // Table III total average current is about 9.19 mA.
        assert!((set.total_average_current_ma() - 9.19).abs() < 0.01);
    }

    #[test]
    fn energy_fractions_match_figure_five() {
        let spec = PlatformSpec::stm32l151_default();
        let set = TaskSet::combined(&spec, 1.0).unwrap();
        let fractions = set.energy_fractions();
        assert_eq!(fractions.len(), 4);
        assert!((fractions[0] - 0.0947).abs() < 0.002); // acquisition 9.47 %
        assert!((fractions[1] - 0.8572).abs() < 0.002); // detection 85.72 %
        assert!((fractions[2] - 0.0477).abs() < 0.002); // labeling 4.77 %
        assert!(fractions[3] < 0.001); // idle 0.04 %
        assert!((fractions.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn labeling_only_and_detection_only_sets() {
        let spec = PlatformSpec::stm32l151_default();
        let labeling = TaskSet::labeling_only(&spec, 1.0).unwrap();
        assert_eq!(labeling.tasks().len(), 3);
        assert!((labeling.total_average_current_ma() - 1.325).abs() < 0.01);

        let detection = TaskSet::detection_only(&spec).unwrap();
        assert_eq!(detection.tasks().len(), 3);
        assert!((detection.total_average_current_ma() - 8.75).abs() < 0.01);
    }

    #[test]
    fn invalid_frequencies_and_overflow_are_rejected() {
        let spec = PlatformSpec::stm32l151_default();
        assert!(TaskSet::combined(&spec, -1.0).is_err());
        assert!(TaskSet::labeling_only(&spec, f64::NAN).is_err());
        // A pathological frequency that saturates the CPU together with
        // detection must overflow.
        assert!(matches!(
            TaskSet::combined(&spec, 24.0),
            Err(EdgeError::DutyCycleOverflow { .. })
        ));
    }

    #[test]
    fn zero_total_current_edge_case() {
        let mut spec = PlatformSpec::stm32l151_default();
        spec.acquisition_current_ma = 0.0;
        spec.active_current_ma = 0.0;
        spec.idle_current_ma = 0.0;
        let set = TaskSet::detection_only(&spec).unwrap();
        assert_eq!(set.total_average_current_ma(), 0.0);
        assert!(set.energy_fractions().iter().all(|&f| f == 0.0));
    }
}
