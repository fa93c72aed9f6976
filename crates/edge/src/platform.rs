//! Hardware specification of the target wearable platform.

/// Specification of the wearable platform (microcontroller + analog front-end
/// + battery) used for the energy, memory and timing models.
///
/// The default values follow the paper's §V-B and Table III: an STM32L151
/// (Cortex-M3 at 32 MHz, 48 KB RAM, 384 KB Flash), an ADS1299-family
/// biopotential ADC acquiring two electrode pairs, and a 570 mAh battery.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlatformSpec {
    /// Maximum CPU clock frequency in Hz.
    pub cpu_frequency_hz: f64,
    /// On-chip SRAM in bytes.
    pub ram_bytes: usize,
    /// On-chip Flash in bytes.
    pub flash_bytes: usize,
    /// Battery capacity in mAh.
    pub battery_mah: f64,
    /// EEG sampling frequency in Hz.
    pub eeg_sampling_hz: f64,
    /// Number of acquired electrode pairs.
    pub num_channels: usize,
    /// ADC resolution in bits.
    pub adc_bits: u32,
    /// Current drawn by EEG acquisition (both channels) in mA; runs at a 100 %
    /// duty cycle.
    pub acquisition_current_ma: f64,
    /// Current drawn by the CPU while actively processing (detection or
    /// labeling) in mA.
    pub active_current_ma: f64,
    /// Current drawn while idle in mA.
    pub idle_current_ma: f64,
}

impl PlatformSpec {
    /// The paper's representative platform (STM32L151 + ADS1299, 570 mAh).
    pub fn stm32l151_default() -> Self {
        Self {
            cpu_frequency_hz: 32.0e6,
            ram_bytes: 48 * 1024,
            flash_bytes: 384 * 1024,
            battery_mah: 570.0,
            eeg_sampling_hz: 256.0,
            num_channels: 2,
            adc_bits: 24,
            acquisition_current_ma: 0.870,
            active_current_ma: 10.5,
            idle_current_ma: 0.018,
        }
    }

    /// Raw EEG data rate in bytes per second, assuming samples are stored with
    /// `ceil(adc_bits / 8)` bytes each.
    pub fn raw_data_rate_bytes_per_sec(&self) -> f64 {
        let bytes_per_sample = self.adc_bits.div_ceil(8) as f64;
        self.eeg_sampling_hz * self.num_channels as f64 * bytes_per_sample
    }

    /// Battery capacity expressed in mA·hours divided by an average current in
    /// mA gives a lifetime in hours.
    pub fn lifetime_hours(&self, average_current_ma: f64) -> f64 {
        if average_current_ma <= 0.0 {
            f64::INFINITY
        } else {
            self.battery_mah / average_current_ma
        }
    }
}

impl Default for PlatformSpec {
    fn default() -> Self {
        Self::stm32l151_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_specification() {
        let spec = PlatformSpec::stm32l151_default();
        assert_eq!(spec.cpu_frequency_hz, 32.0e6);
        assert_eq!(spec.ram_bytes, 49_152);
        assert_eq!(spec.flash_bytes, 393_216);
        assert_eq!(spec.battery_mah, 570.0);
        assert_eq!(spec.num_channels, 2);
        assert_eq!(spec.adc_bits, 24);
        assert_eq!(spec.acquisition_current_ma, 0.870);
        assert_eq!(spec.active_current_ma, 10.5);
        assert_eq!(spec.idle_current_ma, 0.018);
        assert_eq!(PlatformSpec::default(), spec);
    }

    #[test]
    fn raw_data_rate() {
        let spec = PlatformSpec::stm32l151_default();
        // 256 Hz * 2 channels * 3 bytes = 1536 B/s.
        assert_eq!(spec.raw_data_rate_bytes_per_sec(), 1536.0);
    }

    #[test]
    fn lifetime_hours_from_average_current() {
        let spec = PlatformSpec::stm32l151_default();
        assert!((spec.lifetime_hours(570.0) - 1.0).abs() < 1e-12);
        assert!((spec.lifetime_hours(9.187) - 62.04).abs() < 0.1);
        assert!(spec.lifetime_hours(0.0).is_infinite());
    }
}
