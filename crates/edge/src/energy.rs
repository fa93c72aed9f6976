//! Energy consumption and battery-lifetime model (paper §VI-C, Table III,
//! Fig. 5).

use crate::error::EdgeError;
use crate::platform::PlatformSpec;
use crate::tasks::TaskSet;

/// Which subsystems are running.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OperatingMode {
    /// Only the a-posteriori labeling algorithm (plus continuous acquisition).
    LabelingOnly,
    /// Only the supervised real-time detection (plus continuous acquisition).
    DetectionOnly,
    /// The full self-learning methodology: detection and labeling.
    Combined,
}

/// Energy/lifetime report for one operating point.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyReport {
    mode: OperatingMode,
    seizures_per_day: f64,
    tasks: TaskSet,
    average_current_ma: f64,
    lifetime_hours: f64,
}

impl EnergyReport {
    /// Operating mode the report was computed for.
    pub fn mode(&self) -> OperatingMode {
        self.mode
    }

    /// Seizure frequency (seizures per day) the report was computed for.
    pub fn seizures_per_day(&self) -> f64 {
        self.seizures_per_day
    }

    /// The task set with per-task currents and duty cycles (Table III rows).
    pub fn tasks(&self) -> &TaskSet {
        &self.tasks
    }

    /// Total average current in mA.
    pub fn average_current_ma(&self) -> f64 {
        self.average_current_ma
    }

    /// Battery lifetime in hours.
    pub fn lifetime_hours(&self) -> f64 {
        self.lifetime_hours
    }

    /// Battery lifetime in days.
    pub fn lifetime_days(&self) -> f64 {
        self.lifetime_hours / 24.0
    }

    /// Percentage of the total energy consumed by each task (Fig. 5 series),
    /// aligned with `tasks().tasks()`.
    pub fn energy_percentages(&self) -> Vec<f64> {
        self.tasks
            .energy_fractions()
            .into_iter()
            .map(|f| f * 100.0)
            .collect()
    }
}

/// The battery-lifetime model.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyModel {
    spec: PlatformSpec,
}

impl EnergyModel {
    /// Creates a model for the given platform.
    pub fn new(spec: PlatformSpec) -> Self {
        Self { spec }
    }

    /// The platform specification the model was built with.
    pub fn platform(&self) -> &PlatformSpec {
        &self.spec
    }

    /// Computes the energy report for an operating mode and a seizure
    /// frequency (seizures per day; ignored in detection-only mode).
    ///
    /// # Errors
    ///
    /// Propagates [`EdgeError`] from the task-set construction (negative
    /// frequency or duty-cycle overflow).
    pub fn lifetime(
        &self,
        mode: OperatingMode,
        seizures_per_day: f64,
    ) -> Result<EnergyReport, EdgeError> {
        let tasks = match mode {
            OperatingMode::LabelingOnly => TaskSet::labeling_only(&self.spec, seizures_per_day)?,
            OperatingMode::DetectionOnly => TaskSet::detection_only(&self.spec)?,
            OperatingMode::Combined => TaskSet::combined(&self.spec, seizures_per_day)?,
        };
        let average = tasks.total_average_current_ma();
        Ok(EnergyReport {
            mode,
            seizures_per_day,
            tasks,
            average_current_ma: average,
            lifetime_hours: self.spec.lifetime_hours(average),
        })
    }

    /// Sweeps the seizure frequency from `min_per_day` to `max_per_day`
    /// (inclusive) in `steps` points and returns one report per point —
    /// the data behind the paper's "631.46 to 430.16 hours" and
    /// "2.71 to 2.59 days" ranges.
    ///
    /// # Errors
    ///
    /// Returns [`EdgeError::InvalidParameter`] if the range is malformed or
    /// `steps < 2`, and propagates task-set errors otherwise.
    pub fn lifetime_sweep(
        &self,
        mode: OperatingMode,
        min_per_day: f64,
        max_per_day: f64,
        steps: usize,
    ) -> Result<Vec<EnergyReport>, EdgeError> {
        if steps < 2 {
            return Err(EdgeError::InvalidParameter {
                name: "steps",
                reason: format!("a sweep needs at least 2 points, got {steps}"),
            });
        }
        if !(min_per_day >= 0.0 && max_per_day >= min_per_day) {
            return Err(EdgeError::InvalidParameter {
                name: "frequency range",
                reason: format!("invalid range [{min_per_day}, {max_per_day}]"),
            });
        }
        let mut reports = Vec::with_capacity(steps);
        for i in 0..steps {
            let f = min_per_day + (max_per_day - min_per_day) * i as f64 / (steps - 1) as f64;
            reports.push(self.lifetime(mode, f)?);
        }
        Ok(reports)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> EnergyModel {
        EnergyModel::new(PlatformSpec::stm32l151_default())
    }

    #[test]
    fn table_iii_worst_case_lifetime() {
        let report = model().lifetime(OperatingMode::Combined, 1.0).unwrap();
        assert!(
            (report.lifetime_days() - 2.59).abs() < 0.02,
            "{}",
            report.lifetime_days()
        );
        assert!((report.average_current_ma() - 9.19).abs() < 0.02);
        assert_eq!(report.tasks().tasks().len(), 4);
        assert_eq!(report.mode(), OperatingMode::Combined);
        assert_eq!(report.seizures_per_day(), 1.0);
    }

    #[test]
    fn combined_lifetime_range_matches_paper() {
        // One seizure per month: 2.71 days; one per day: 2.59 days.
        let monthly = model()
            .lifetime(OperatingMode::Combined, 1.0 / 30.0)
            .unwrap();
        let daily = model().lifetime(OperatingMode::Combined, 1.0).unwrap();
        assert!((monthly.lifetime_days() - 2.71).abs() < 0.02);
        assert!((daily.lifetime_days() - 2.59).abs() < 0.02);
        assert!(monthly.lifetime_days() > daily.lifetime_days());
    }

    #[test]
    fn labeling_only_lifetime_range_matches_paper() {
        // 631.46 h (26.31 days) at one seizure per month, 430.16 h (17.92 days)
        // at one per day.
        let monthly = model()
            .lifetime(OperatingMode::LabelingOnly, 1.0 / 30.0)
            .unwrap();
        let daily = model().lifetime(OperatingMode::LabelingOnly, 1.0).unwrap();
        assert!(
            (monthly.lifetime_hours() - 631.0).abs() < 10.0,
            "{}",
            monthly.lifetime_hours()
        );
        assert!(
            (daily.lifetime_hours() - 430.0).abs() < 5.0,
            "{}",
            daily.lifetime_hours()
        );
        assert!((monthly.lifetime_days() - 26.3).abs() < 0.5);
        assert!((daily.lifetime_days() - 17.9).abs() < 0.3);
    }

    #[test]
    fn detection_only_lifetime_matches_paper() {
        // 65.15 hours = 2.71 days.
        let report = model().lifetime(OperatingMode::DetectionOnly, 0.0).unwrap();
        assert!((report.lifetime_hours() - 65.1).abs() < 0.5);
        assert!((report.lifetime_days() - 2.71).abs() < 0.02);
    }

    #[test]
    fn energy_percentages_match_figure_five() {
        let report = model().lifetime(OperatingMode::Combined, 1.0).unwrap();
        let pct = report.energy_percentages();
        assert!((pct[0] - 9.47).abs() < 0.2);
        assert!((pct[1] - 85.72).abs() < 0.2);
        assert!((pct[2] - 4.77).abs() < 0.2);
        assert!(pct[3] < 0.1);
    }

    #[test]
    fn lifetime_decreases_with_seizure_frequency() {
        let sweep = model()
            .lifetime_sweep(OperatingMode::Combined, 1.0 / 30.0, 1.0, 10)
            .unwrap();
        assert_eq!(sweep.len(), 10);
        for pair in sweep.windows(2) {
            assert!(pair[0].lifetime_hours() >= pair[1].lifetime_hours());
        }
    }

    #[test]
    fn sweep_validation() {
        let m = model();
        assert!(m
            .lifetime_sweep(OperatingMode::Combined, 0.0, 1.0, 1)
            .is_err());
        assert!(m
            .lifetime_sweep(OperatingMode::Combined, 2.0, 1.0, 5)
            .is_err());
        assert!(m
            .lifetime_sweep(OperatingMode::Combined, -1.0, 1.0, 5)
            .is_err());
        assert!(m.lifetime(OperatingMode::Combined, -0.5).is_err());
    }

    #[test]
    fn platform_accessor() {
        let m = model();
        assert_eq!(m.platform().battery_mah, 570.0);
    }
}
