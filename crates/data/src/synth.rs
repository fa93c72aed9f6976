//! Synthetic EEG generation.
//!
//! The generator reproduces the statistical structure of scalp EEG that the
//! labeling algorithm relies on, without reproducing any real patient data:
//!
//! * **Background** activity is 1/f ("pink") noise with a patient-specific RMS
//!   amplitude, an alpha rhythm (~10 Hz) with slow amplitude modulation and a
//!   small theta component.
//! * **Ictal** activity (the seizure) is rhythmic spike-wave discharge at the
//!   patient's dominant ictal frequency with harmonics, an amplitude envelope
//!   that builds up, plateaus and decays, superimposed on the background.
//! * **Artifacts** are short, high-amplitude broadband bursts mimicking
//!   movement/electrode artifacts. For noisy patients an additional large burst
//!   can be placed *near* the seizure — the confounder that the paper reports
//!   as the cause of its three mislabeled seizures.

use crate::annotation::SeizureAnnotation;
use crate::error::DataError;
use crate::patient::PatientProfile;
use crate::signal::EegSignal;
use rand::Rng;

/// Draws a standard-normal sample using the Box–Muller transform.
pub(crate) fn randn<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Generates `n` samples of 1/f-like ("pink") noise with approximately unit
/// variance, using the Paul Kellet filter cascade.
pub fn pink_noise<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Vec<f64> {
    let (mut b0, mut b1, mut b2, mut b3, mut b4, mut b5, mut b6) =
        (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let white = randn(rng);
        b0 = 0.99886 * b0 + white * 0.0555179;
        b1 = 0.99332 * b1 + white * 0.0750759;
        b2 = 0.96900 * b2 + white * 0.1538520;
        b3 = 0.86650 * b3 + white * 0.3104856;
        b4 = 0.55000 * b4 + white * 0.5329522;
        b5 = -0.7616 * b5 - white * 0.0168980;
        let pink = b0 + b1 + b2 + b3 + b4 + b5 + b6 + white * 0.5362;
        b6 = white * 0.115926;
        // The cascade has a gain of roughly 5; scale back to ~unit variance.
        out.push(pink / 5.0);
    }
    out
}

/// Generates one channel of background (interictal) EEG for `duration_secs`
/// seconds at `fs` Hz.
fn background_channel<R: Rng + ?Sized>(
    profile: &PatientProfile,
    duration_secs: f64,
    fs: f64,
    rng: &mut R,
) -> Vec<f64> {
    let n = (duration_secs * fs).round() as usize;
    let mut signal = pink_noise(n, rng);
    let amplitude = profile.background_amplitude;
    // Alpha rhythm with slow amplitude modulation and a small theta component.
    let alpha_freq = 9.0 + rng.gen_range(0.0..2.0);
    let theta_freq = 5.0 + rng.gen_range(0.0..1.5);
    let alpha_phase = rng.gen_range(0.0..std::f64::consts::TAU);
    let theta_phase = rng.gen_range(0.0..std::f64::consts::TAU);
    let mod_freq = rng.gen_range(0.05..0.15);
    for (i, x) in signal.iter_mut().enumerate() {
        let t = i as f64 / fs;
        let alpha_env = 0.25 * (1.0 + (std::f64::consts::TAU * mod_freq * t).sin());
        let alpha = alpha_env * (std::f64::consts::TAU * alpha_freq * t + alpha_phase).sin();
        let theta = 0.12 * (std::f64::consts::TAU * theta_freq * t + theta_phase).sin();
        *x = amplitude * (*x + alpha + theta);
    }
    signal
}

/// Adds movement-artifact bursts to a channel in place. Returns the burst
/// onset times in seconds (useful for tests).
fn add_artifacts<R: Rng + ?Sized>(
    channel: &mut [f64],
    profile: &PatientProfile,
    fs: f64,
    rng: &mut R,
) -> Vec<f64> {
    let duration_hours = channel.len() as f64 / fs / 3600.0;
    let expected = profile.artifact_rate_per_hour * duration_hours;
    // Draw the artifact count from a Poisson-like distribution (normal approx
    // is adequate here). The draw is clamped on both sides: hostile profiles
    // can request absurd or non-finite rates, and an unbounded draw would try
    // to place billions of bursts (or panic on a negative-rate NaN).
    let draw = expected + randn(rng) * expected.sqrt();
    let ceiling = (3.0 * expected + 10.0).min(channel.len() as f64).max(0.0);
    let count = if draw.is_finite() {
        draw.round().clamp(0.0, ceiling) as usize
    } else {
        0
    };
    let mut onsets = Vec::with_capacity(count);
    for _ in 0..count {
        let burst_len = (rng.gen_range(0.4..2.0) * fs) as usize;
        if channel.len() <= burst_len + 1 {
            continue;
        }
        let start = rng.gen_range(0..channel.len() - burst_len);
        apply_burst(channel, start, burst_len, profile, rng);
        onsets.push(start as f64 / fs);
    }
    onsets
}

/// Sorts event times ascending under a NaN-safe total order (`total_cmp`,
/// NaN last as the worst value). The placement arithmetic above only emits
/// finite times today, but the former `partial_cmp().unwrap()` turned any
/// future NaN into a panic inside record synthesis — taking a whole
/// labeling experiment down with it.
fn sort_onsets(onsets: &mut [f64]) {
    onsets.sort_by(|a, b| a.total_cmp(b));
}

/// Applies one broadband high-amplitude burst starting at `start`.
fn apply_burst<R: Rng + ?Sized>(
    channel: &mut [f64],
    start: usize,
    burst_len: usize,
    profile: &PatientProfile,
    rng: &mut R,
) {
    let amplitude = profile.background_amplitude * profile.artifact_gain;
    for i in 0..burst_len {
        let envelope = (std::f64::consts::PI * i as f64 / burst_len as f64).sin();
        channel[start + i] += amplitude * envelope * randn(rng);
    }
}

/// Generates one channel of ictal (seizure) EEG for `duration_secs` seconds.
///
/// `lateralization` scales the ictal amplitude for the channel (seizures are
/// rarely perfectly symmetric across hemispheres).
fn ictal_channel<R: Rng + ?Sized>(
    profile: &PatientProfile,
    duration_secs: f64,
    fs: f64,
    lateralization: f64,
    rng: &mut R,
) -> Vec<f64> {
    let n = (duration_secs * fs).round() as usize;
    let mut signal = pink_noise(n, rng);
    let base_amp = profile.background_amplitude;
    let ictal_amp = base_amp * profile.ictal_gain * lateralization;
    let f0 = profile.ictal_frequency * (1.0 + 0.05 * randn(rng));
    let phase = rng.gen_range(0.0..std::f64::consts::TAU);
    // Rise over the first 20 %, sustain, decay over the last 25 %, with the
    // discharge frequency slowing slightly towards the end (typical of tonic-
    // clonic evolution).
    for (i, x) in signal.iter_mut().enumerate() {
        let t = i as f64 / fs;
        let progress = i as f64 / n.max(1) as f64;
        let envelope = if progress < 0.2 {
            progress / 0.2
        } else if progress > 0.75 {
            ((1.0 - progress) / 0.25).max(0.0)
        } else {
            1.0
        };
        let freq = f0 * (1.0 - 0.25 * progress);
        let fundamental = (std::f64::consts::TAU * freq * t + phase).sin();
        let spike = profile.spike_sharpness
            * ((std::f64::consts::TAU * 2.0 * freq * t + phase).sin()
                + 0.5 * (std::f64::consts::TAU * 3.0 * freq * t + phase).sin());
        *x = base_amp * 0.6 * *x + ictal_amp * envelope * (fundamental + spike);
    }
    signal
}

/// Output of [`generate_record`]: the synthetic recording, its ground-truth
/// annotation, and the onset times (seconds) of any injected artifacts.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratedRecord {
    /// The two-channel synthetic EEG signal.
    pub signal: EegSignal,
    /// Ground-truth position of the single seizure contained in the record.
    pub annotation: SeizureAnnotation,
    /// Onset times in seconds of the background artifacts that were injected.
    pub artifact_onsets: Vec<f64>,
    /// `true` if a large noise burst was placed near the seizure.
    pub near_seizure_burst: bool,
}

/// Generates a complete recording of `total_secs` seconds containing exactly
/// one seizure.
///
/// The seizure starts at `seizure_onset_secs` and lasts `seizure_duration_secs`
/// seconds; both channels carry the ictal discharge with slightly different
/// amplitudes. Background artifacts are injected at the patient's artifact
/// rate, and — with the patient's `near_seizure_burst_probability` — one large
/// burst is placed within ±90 s of the seizure boundary.
///
/// # Errors
///
/// Returns [`DataError::InvalidParameter`] if the durations are not positive,
/// the seizure does not fit inside the recording, or `fs` is not positive.
pub fn generate_record<R: Rng + ?Sized>(
    profile: &PatientProfile,
    total_secs: f64,
    seizure_onset_secs: f64,
    seizure_duration_secs: f64,
    fs: f64,
    rng: &mut R,
) -> Result<GeneratedRecord, DataError> {
    if fs <= 0.0 || fs.is_nan() {
        return Err(DataError::InvalidParameter {
            name: "fs",
            reason: format!("sampling frequency must be positive, got {fs}"),
        });
    }
    if total_secs <= 0.0 || seizure_duration_secs <= 0.0 {
        return Err(DataError::InvalidParameter {
            name: "duration",
            reason: "durations must be positive".to_string(),
        });
    }
    if seizure_onset_secs < 0.0 || seizure_onset_secs + seizure_duration_secs > total_secs {
        return Err(DataError::InvalidParameter {
            name: "seizure_onset_secs",
            reason: format!(
                "seizure [{seizure_onset_secs}, {}] does not fit in a {total_secs}-second record",
                seizure_onset_secs + seizure_duration_secs
            ),
        });
    }

    let pre_secs = seizure_onset_secs;
    let post_secs = total_secs - seizure_onset_secs - seizure_duration_secs;

    let mut f7t3 = Vec::new();
    let mut f8t4 = Vec::new();
    if pre_secs > 0.0 {
        f7t3.extend(background_channel(profile, pre_secs, fs, rng));
        f8t4.extend(background_channel(profile, pre_secs, fs, rng));
    }
    let lateral_left = 1.0 + 0.15 * randn(rng).clamp(-1.5, 1.5);
    let lateral_right = 1.0 + 0.15 * randn(rng).clamp(-1.5, 1.5);
    f7t3.extend(ictal_channel(
        profile,
        seizure_duration_secs,
        fs,
        lateral_left.max(0.4),
        rng,
    ));
    f8t4.extend(ictal_channel(
        profile,
        seizure_duration_secs,
        fs,
        lateral_right.max(0.4),
        rng,
    ));
    if post_secs > 0.0 {
        f7t3.extend(background_channel(profile, post_secs, fs, rng));
        f8t4.extend(background_channel(profile, post_secs, fs, rng));
    }

    // Background artifacts across the whole record.
    let mut artifact_onsets = add_artifacts(&mut f7t3, profile, fs, rng);
    artifact_onsets.extend(add_artifacts(&mut f8t4, profile, fs, rng));
    sort_onsets(&mut artifact_onsets);

    // Optionally place a large confounding burst near the seizure. The burst is
    // long, strong and partly rhythmic (movement artifacts on scalp EEG often
    // contain quasi-periodic components), so in the ten-feature space it can
    // compete with the genuine seizure — the failure mode the paper reports for
    // its three mislabeled seizures.
    let near_seizure_burst = rng.gen_bool(profile.near_seizure_burst_probability.clamp(0.0, 1.0));
    if near_seizure_burst {
        let offset = rng.gen_range(30.0..180.0);
        let before = rng.gen_bool(0.5);
        let burst_time = if before {
            (seizure_onset_secs - offset).max(0.0)
        } else {
            (seizure_onset_secs + seizure_duration_secs + offset).min(total_secs - 30.0)
        };
        let burst_secs = rng.gen_range(10.0..25.0);
        let burst_len = (burst_secs * fs) as usize;
        let start = ((burst_time * fs) as usize).min(f7t3.len().saturating_sub(burst_len + 1));
        // The confounding burst is strong and appears on both channels.
        let strong = PatientProfile {
            artifact_gain: profile.artifact_gain * 2.2,
            ..profile.clone()
        };
        apply_burst(&mut f7t3, start, burst_len, &strong, rng);
        apply_burst(&mut f8t4, start, burst_len, &strong, rng);
        // Rhythmic low-frequency component riding on the broadband burst.
        let rhythm_freq = rng.gen_range(2.0..6.0);
        let rhythm_amp = profile.background_amplitude * profile.artifact_gain;
        let phase = rng.gen_range(0.0..std::f64::consts::TAU);
        for i in 0..burst_len {
            let t = i as f64 / fs;
            let envelope = (std::f64::consts::PI * i as f64 / burst_len as f64).sin();
            let rhythm =
                rhythm_amp * envelope * (std::f64::consts::TAU * rhythm_freq * t + phase).sin();
            f7t3[start + i] += rhythm;
            f8t4[start + i] += 0.8 * rhythm;
        }
        artifact_onsets.push(burst_time);
    }

    let signal = EegSignal::new(f7t3, f8t4, fs)?;
    let annotation = SeizureAnnotation::new(
        seizure_onset_secs,
        seizure_onset_secs + seizure_duration_secs,
    )?;
    Ok(GeneratedRecord {
        signal,
        annotation,
        artifact_onsets,
        near_seizure_burst,
    })
}

/// Hostile recording conditions a wearable sees in the field but a clean
/// synthetic cohort never exercises.
///
/// Each variant is a *transform* applied on top of an already generated
/// record ([`apply_scenario`]), so the ground-truth annotation stays valid:
/// the seizure is still where it was, only the recording conditions degrade.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostileScenario {
    /// Electrode-contact pops: step discontinuities that decay back to
    /// baseline over a fraction of a second, at many times the signal RMS.
    ElectrodePop,
    /// Mains interference at 50 Hz plus its first harmonic. At the low
    /// sampling rates used on-wrist (e.g. 64 Hz) the hum aliases into the
    /// detector's own passband, which is exactly what makes it hostile.
    MainsHum,
    /// Motion-induced baseline wander: a large slow oscillation plus a leaky
    /// random walk, as from cable sway and skin-potential drift.
    BaselineWander,
    /// One channel flatlines for a long contiguous stretch (lead-off or a
    /// broken wire), holding its last pre-dropout value.
    ChannelDropout,
    /// Amplifier saturation: the front-end gain is too high and the signal
    /// clips against the rails, flattening every large deflection.
    Saturation,
    /// Per-channel gain drift: electrode impedance changes over the record,
    /// ramping each channel's effective gain up or down independently.
    GainDrift,
}

impl HostileScenario {
    /// Every scenario, in a fixed order (useful for benchmark sweeps).
    pub fn all() -> [HostileScenario; 6] {
        [
            HostileScenario::ElectrodePop,
            HostileScenario::MainsHum,
            HostileScenario::BaselineWander,
            HostileScenario::ChannelDropout,
            HostileScenario::Saturation,
            HostileScenario::GainDrift,
        ]
    }

    /// Stable snake_case identifier (used as the key in benchmark reports).
    pub fn name(self) -> &'static str {
        match self {
            HostileScenario::ElectrodePop => "electrode_pop",
            HostileScenario::MainsHum => "mains_hum",
            HostileScenario::BaselineWander => "baseline_wander",
            HostileScenario::ChannelDropout => "channel_dropout",
            HostileScenario::Saturation => "saturation",
            HostileScenario::GainDrift => "gain_drift",
        }
    }
}

/// RMS of a channel, floored away from zero so it can scale interference.
fn channel_rms(channel: &[f64]) -> f64 {
    let n = channel.len().max(1) as f64;
    (channel.iter().map(|v| v * v).sum::<f64>() / n)
        .sqrt()
        .max(1e-9)
}

/// Adds step discontinuities with exponential recovery (electrode pops).
fn add_electrode_pops<R: Rng + ?Sized>(channel: &mut [f64], fs: f64, severity: f64, rng: &mut R) {
    let scale = channel_rms(channel);
    let count = rng.gen_range(3..=8);
    for _ in 0..count {
        if channel.is_empty() {
            return;
        }
        let start = rng.gen_range(0..channel.len());
        let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
        let step = sign * scale * rng.gen_range(8.0..20.0) * severity;
        let tau = rng.gen_range(0.1..0.8) * fs;
        for (i, sample) in channel.iter_mut().enumerate().skip(start) {
            let decay = (-((i - start) as f64) / tau).exp();
            if decay < 1e-3 {
                break;
            }
            *sample += step * decay;
        }
    }
}

/// Adds 50 Hz mains hum plus a weaker 100 Hz harmonic.
fn add_mains_hum<R: Rng + ?Sized>(channel: &mut [f64], fs: f64, severity: f64, rng: &mut R) {
    let amp = channel_rms(channel) * rng.gen_range(1.0..2.5) * severity;
    let phase = rng.gen_range(0.0..std::f64::consts::TAU);
    for (i, x) in channel.iter_mut().enumerate() {
        let t = i as f64 / fs;
        *x += amp
            * ((std::f64::consts::TAU * 50.0 * t + phase).sin()
                + 0.3 * (std::f64::consts::TAU * 100.0 * t + 2.0 * phase).sin());
    }
}

/// Adds slow sinusoidal wander plus a leaky random walk (motion baseline).
fn add_baseline_wander<R: Rng + ?Sized>(channel: &mut [f64], fs: f64, severity: f64, rng: &mut R) {
    let scale = channel_rms(channel);
    let amp = scale * rng.gen_range(3.0..6.0) * severity;
    let freq = rng.gen_range(0.2..0.5);
    let phase = rng.gen_range(0.0..std::f64::consts::TAU);
    let mut walk = 0.0;
    for (i, x) in channel.iter_mut().enumerate() {
        let t = i as f64 / fs;
        walk = 0.999 * walk + 0.05 * scale * randn(rng);
        *x += amp * (std::f64::consts::TAU * freq * t + phase).sin() + walk * severity;
    }
}

/// Flatlines a contiguous stretch of the channel at its last live value.
fn add_dropout<R: Rng + ?Sized>(channel: &mut [f64], severity: f64, rng: &mut R) {
    if channel.len() < 4 {
        return;
    }
    // The base draw covers 25–50 % of the record; severity scales the
    // flatlined fraction (clamped so the stretch always fits).
    let fraction = (rng.gen_range(0.25..0.5) * severity).clamp(0.0, 0.9);
    let len = (channel.len() as f64 * fraction) as usize;
    if len == 0 {
        return;
    }
    let start = rng.gen_range(0..channel.len() - len);
    let level = channel[start];
    channel[start..start + len].fill(level);
}

/// Over-amplifies the channel and clips it against the rails.
fn add_saturation<R: Rng + ?Sized>(channel: &mut [f64], severity: f64, rng: &mut R) {
    let rail_factor = rng.gen_range(1.5..2.5);
    let full_gain = rng.gen_range(2.0..4.0);
    if severity <= 0.0 {
        return;
    }
    // Severity interpolates the over-amplification towards unity and pushes
    // the rails outwards, so 0 is the identity and 1 the full clip.
    let gain = 1.0 + (full_gain - 1.0) * severity;
    let rail = channel_rms(channel) * rail_factor * gain / full_gain / severity;
    for x in channel.iter_mut() {
        *x = (*x * gain).clamp(-rail, rail);
    }
}

/// Ramps the channel gain linearly from 1.0 to a drifted endpoint.
fn add_gain_drift<R: Rng + ?Sized>(channel: &mut [f64], severity: f64, rng: &mut R) {
    let full_end_gain = if rng.gen_bool(0.5) {
        rng.gen_range(0.25..0.6)
    } else {
        rng.gen_range(1.6..3.0)
    };
    let end_gain = 1.0 + (full_end_gain - 1.0) * severity;
    let n = channel.len().max(2) as f64;
    for (i, x) in channel.iter_mut().enumerate() {
        let gain = 1.0 + (end_gain - 1.0) * i as f64 / (n - 1.0);
        *x *= gain;
    }
}

/// Applies one [`HostileScenario`] to a signal at full severity, returning
/// the degraded copy. Equivalent to [`apply_scenario_with`] at severity 1.0.
///
/// Lengths, the sampling rate — and therefore any seizure annotation made
/// against the original — are preserved. The transform parameters (pop
/// positions, hum phase, dropout window, drift direction…) are drawn from
/// `rng`, so the same seed reproduces the same degradation.
///
/// # Errors
///
/// Returns [`DataError::InvalidParameter`] only if the input signal itself
/// violates [`EegSignal`]'s invariants (it cannot when built by this module).
pub fn apply_scenario<R: Rng + ?Sized>(
    signal: &EegSignal,
    scenario: HostileScenario,
    rng: &mut R,
) -> Result<EegSignal, DataError> {
    apply_scenario_with(signal, scenario, 1.0, rng)
}

/// [`apply_scenario`] with a severity knob.
///
/// `severity` scales the degradation's magnitude: 1.0 reproduces
/// [`apply_scenario`] exactly (same RNG stream, byte-identical output for
/// the same seed), 0.0 degenerates to (near-)identity, and values above 1.0
/// are harsher than the stock scenario. The annotation-preservation
/// guarantee is severity-independent: lengths and the sampling rate never
/// change.
///
/// # Errors
///
/// Returns [`DataError::InvalidParameter`] if `severity` is negative or not
/// finite, or if the input signal violates [`EegSignal`]'s invariants.
pub fn apply_scenario_with<R: Rng + ?Sized>(
    signal: &EegSignal,
    scenario: HostileScenario,
    severity: f64,
    rng: &mut R,
) -> Result<EegSignal, DataError> {
    if !severity.is_finite() || severity < 0.0 {
        return Err(DataError::InvalidParameter {
            name: "severity",
            reason: format!("severity must be finite and non-negative, got {severity}"),
        });
    }
    let fs = signal.sampling_frequency();
    let mut f7t3 = signal.f7t3().to_vec();
    let mut f8t4 = signal.f8t4().to_vec();
    match scenario {
        HostileScenario::ElectrodePop => {
            add_electrode_pops(&mut f7t3, fs, severity, rng);
            add_electrode_pops(&mut f8t4, fs, severity, rng);
        }
        HostileScenario::MainsHum => {
            add_mains_hum(&mut f7t3, fs, severity, rng);
            add_mains_hum(&mut f8t4, fs, severity, rng);
        }
        HostileScenario::BaselineWander => {
            add_baseline_wander(&mut f7t3, fs, severity, rng);
            add_baseline_wander(&mut f8t4, fs, severity, rng);
        }
        HostileScenario::ChannelDropout => {
            // Lead-off hits one side; the other channel keeps recording.
            if rng.gen_bool(0.5) {
                add_dropout(&mut f7t3, severity, rng);
            } else {
                add_dropout(&mut f8t4, severity, rng);
            }
        }
        HostileScenario::Saturation => {
            add_saturation(&mut f7t3, severity, rng);
            add_saturation(&mut f8t4, severity, rng);
        }
        HostileScenario::GainDrift => {
            add_gain_drift(&mut f7t3, severity, rng);
            add_gain_drift(&mut f8t4, severity, rng);
        }
    }
    EegSignal::new(f7t3, f8t4, fs)
}

/// Seeded convenience wrapper around [`apply_scenario_with`] for callers
/// without their own RNG (examples, quick probes): the degradation is fully
/// determined by `(scenario, severity, seed)`.
///
/// # Errors
///
/// Same conditions as [`apply_scenario_with`].
pub fn degrade_signal(
    signal: &EegSignal,
    scenario: HostileScenario,
    severity: f64,
    seed: u64,
) -> Result<EegSignal, DataError> {
    use rand::SeedableRng;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    apply_scenario_with(signal, scenario, severity, &mut rng)
}

/// Two [`HostileScenario`]s overlaid on one record — the field reality where
/// degradations compound (a wander-swamped walk with mains pickup, a
/// saturating front end while an electrode pops loose).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MixedScenario {
    /// Applied first, to the pristine signal.
    pub first: HostileScenario,
    /// Applied second, on top of the output of `first` (its interference is
    /// scaled by the *degraded* signal's RMS, compounding the damage).
    pub second: HostileScenario,
}

impl MixedScenario {
    /// Stable `snake_case+snake_case` identifier for benchmark reports.
    pub fn name(self) -> String {
        format!("{}+{}", self.first.name(), self.second.name())
    }

    /// Overlays both scenarios on `signal` at the given severity, drawing
    /// every transform parameter from `rng` — deterministic for a fixed
    /// (seed, severity) pair, and annotation-preserving like
    /// [`apply_scenario_with`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`apply_scenario_with`].
    pub fn apply<R: Rng + ?Sized>(
        self,
        signal: &EegSignal,
        severity: f64,
        rng: &mut R,
    ) -> Result<EegSignal, DataError> {
        let once = apply_scenario_with(signal, self.first, severity, rng)?;
        apply_scenario_with(&once, self.second, severity, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn profile() -> PatientProfile {
        PatientProfile::chb_mit_like_cohort()[0].clone()
    }

    fn rms(x: &[f64]) -> f64 {
        (x.iter().map(|v| v * v).sum::<f64>() / x.len() as f64).sqrt()
    }

    #[test]
    fn pink_noise_has_unit_scale_and_more_low_frequency_energy() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let noise = pink_noise(8192, &mut rng);
        let r = rms(&noise);
        assert!(r > 0.3 && r < 3.0, "rms = {r}");
        // Compare energy in low vs high frequency halves via simple first
        // differences: pink noise has much weaker differences than white noise.
        let diff_energy: f64 = noise.windows(2).map(|w| (w[1] - w[0]).powi(2)).sum();
        let total_energy: f64 = noise.iter().map(|v| v * v).sum();
        assert!(diff_energy < total_energy);
    }

    #[test]
    fn generated_record_has_expected_length_and_annotation() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let rec = generate_record(&profile(), 120.0, 40.0, 30.0, 64.0, &mut rng).unwrap();
        assert_eq!(rec.signal.len(), (120.0 * 64.0) as usize);
        assert_eq!(rec.annotation.onset(), 40.0);
        assert_eq!(rec.annotation.offset(), 70.0);
    }

    #[test]
    fn ictal_segment_has_higher_amplitude_than_background() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let rec = generate_record(&profile(), 180.0, 60.0, 40.0, 64.0, &mut rng).unwrap();
        let fs = 64.0;
        let ictal = &rec.signal.f7t3()[(62.0 * fs) as usize..(98.0 * fs) as usize];
        let background = &rec.signal.f7t3()[0..(50.0 * fs) as usize];
        assert!(rms(ictal) > 1.5 * rms(background));
    }

    #[test]
    fn ictal_activity_appears_on_both_channels() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let rec = generate_record(&profile(), 180.0, 60.0, 40.0, 64.0, &mut rng).unwrap();
        let fs = 64.0;
        for channel in [rec.signal.f7t3(), rec.signal.f8t4()] {
            let ictal = &channel[(62.0 * fs) as usize..(98.0 * fs) as usize];
            let background = &channel[0..(50.0 * fs) as usize];
            assert!(rms(ictal) > 1.3 * rms(background));
        }
    }

    #[test]
    fn generation_is_deterministic_given_a_seed() {
        let mut rng1 = ChaCha8Rng::seed_from_u64(42);
        let mut rng2 = ChaCha8Rng::seed_from_u64(42);
        let a = generate_record(&profile(), 90.0, 30.0, 20.0, 64.0, &mut rng1).unwrap();
        let b = generate_record(&profile(), 90.0, 30.0, 20.0, 64.0, &mut rng2).unwrap();
        assert_eq!(a.signal, b.signal);
        assert_eq!(a.annotation, b.annotation);
    }

    #[test]
    fn different_seeds_give_different_records() {
        let mut rng1 = ChaCha8Rng::seed_from_u64(1);
        let mut rng2 = ChaCha8Rng::seed_from_u64(2);
        let a = generate_record(&profile(), 90.0, 30.0, 20.0, 64.0, &mut rng1).unwrap();
        let b = generate_record(&profile(), 90.0, 30.0, 20.0, 64.0, &mut rng2).unwrap();
        assert_ne!(a.signal, b.signal);
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let p = profile();
        assert!(generate_record(&p, 100.0, 90.0, 30.0, 64.0, &mut rng).is_err());
        assert!(generate_record(&p, 0.0, 0.0, 30.0, 64.0, &mut rng).is_err());
        assert!(generate_record(&p, 100.0, 10.0, 0.0, 64.0, &mut rng).is_err());
        assert!(generate_record(&p, 100.0, 10.0, 30.0, 0.0, &mut rng).is_err());
    }

    #[test]
    fn noisy_patient_gets_near_seizure_bursts_sometimes() {
        // Patient 2 has a 45 % near-seizure-burst probability; over 40 records
        // at least one burst should occur and at least one should not.
        let p = PatientProfile::chb_mit_like_cohort()[1].clone();
        let mut with_burst = 0;
        for seed in 0..40 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let rec = generate_record(&p, 150.0, 60.0, 30.0, 32.0, &mut rng).unwrap();
            if rec.near_seizure_burst {
                with_burst += 1;
            }
        }
        assert!(
            with_burst > 0 && with_burst < 40,
            "with_burst = {with_burst}"
        );
    }

    /// Regression for the NaN-unsafe onset sort: a NaN time must sort last
    /// (worst) without panicking and without disturbing the finite order.
    #[test]
    fn onset_sorting_tolerates_nan_without_panicking() {
        let mut onsets = vec![3.5, f64::NAN, 1.0, 2.5];
        sort_onsets(&mut onsets);
        assert_eq!(&onsets[..3], &[1.0, 2.5, 3.5]);
        assert!(onsets[3].is_nan());
    }

    /// Boundary behaviour of the clamped Poisson normal-approx draw: an
    /// absurd rate must not place more bursts than there are samples, and a
    /// negative (NaN-producing) rate must degrade to zero, not panic.
    #[test]
    fn artifact_count_draw_is_clamped_at_both_ends() {
        let fs = 64.0;
        let mut hostile = profile();
        hostile.artifact_rate_per_hour = 1e12;
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let mut channel = vec![0.0; 256];
        let onsets = add_artifacts(&mut channel, &hostile, fs, &mut rng);
        assert!(
            onsets.len() <= channel.len(),
            "placed {} bursts in {} samples",
            onsets.len(),
            channel.len()
        );

        let mut negative = profile();
        negative.artifact_rate_per_hour = -1000.0;
        let mut channel = vec![0.0; 256];
        let onsets = add_artifacts(&mut channel, &negative, fs, &mut rng);
        assert!(onsets.is_empty());
        assert!(channel.iter().all(|v| *v == 0.0));

        // A zero rate draws zero artifacts (sqrt(0) kills the noise term).
        let mut silent = profile();
        silent.artifact_rate_per_hour = 0.0;
        let onsets = add_artifacts(&mut vec![0.0; 256], &silent, fs, &mut rng);
        assert!(onsets.is_empty());
    }

    #[test]
    fn hostile_scenarios_preserve_shape_and_degrade_the_signal() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let rec = generate_record(&profile(), 90.0, 30.0, 20.0, 64.0, &mut rng).unwrap();
        let mut names = std::collections::BTreeSet::new();
        for scenario in HostileScenario::all() {
            names.insert(scenario.name());
            let mut rng = ChaCha8Rng::seed_from_u64(10);
            let degraded = apply_scenario(&rec.signal, scenario, &mut rng).unwrap();
            assert_eq!(degraded.len(), rec.signal.len(), "{}", scenario.name());
            assert_eq!(
                degraded.sampling_frequency(),
                rec.signal.sampling_frequency()
            );
            assert_ne!(degraded, rec.signal, "{} must change data", scenario.name());
            assert!(
                degraded
                    .f7t3()
                    .iter()
                    .chain(degraded.f8t4())
                    .all(|v| v.is_finite()),
                "{} produced non-finite samples",
                scenario.name()
            );
        }
        assert_eq!(names.len(), 6, "scenario names must be distinct");
    }

    #[test]
    fn severity_one_reproduces_the_stock_scenario_byte_for_byte() {
        let mut rng = ChaCha8Rng::seed_from_u64(20);
        let rec = generate_record(&profile(), 90.0, 30.0, 20.0, 64.0, &mut rng).unwrap();
        for scenario in HostileScenario::all() {
            let mut rng1 = ChaCha8Rng::seed_from_u64(21);
            let mut rng2 = ChaCha8Rng::seed_from_u64(21);
            let stock = apply_scenario(&rec.signal, scenario, &mut rng1).unwrap();
            let full = apply_scenario_with(&rec.signal, scenario, 1.0, &mut rng2).unwrap();
            assert_eq!(stock, full, "{}", scenario.name());
        }
    }

    #[test]
    fn severity_zero_is_identity_and_severity_scales_the_damage() {
        let mut rng = ChaCha8Rng::seed_from_u64(22);
        let rec = generate_record(&profile(), 90.0, 30.0, 20.0, 64.0, &mut rng).unwrap();
        let distance = |a: &EegSignal, b: &EegSignal| {
            a.f7t3()
                .iter()
                .chain(a.f8t4())
                .zip(b.f7t3().iter().chain(b.f8t4()))
                .map(|(x, y)| (x - y).abs())
                .sum::<f64>()
        };
        for scenario in HostileScenario::all() {
            let mut rng0 = ChaCha8Rng::seed_from_u64(23);
            let none = apply_scenario_with(&rec.signal, scenario, 0.0, &mut rng0).unwrap();
            assert!(
                distance(&none, &rec.signal) < 1e-9 * rec.signal.len() as f64,
                "{} at severity 0 must be (near-)identity",
                scenario.name()
            );
            let mut rng_mild = ChaCha8Rng::seed_from_u64(23);
            let mut rng_full = ChaCha8Rng::seed_from_u64(23);
            let mild = apply_scenario_with(&rec.signal, scenario, 0.3, &mut rng_mild).unwrap();
            let full = apply_scenario_with(&rec.signal, scenario, 1.0, &mut rng_full).unwrap();
            assert!(
                distance(&mild, &rec.signal) < distance(&full, &rec.signal),
                "{}: mild severity must damage less than full",
                scenario.name()
            );
        }
        let mut rng = ChaCha8Rng::seed_from_u64(24);
        assert!(
            apply_scenario_with(&rec.signal, HostileScenario::MainsHum, -0.5, &mut rng).is_err()
        );
        assert!(
            apply_scenario_with(&rec.signal, HostileScenario::MainsHum, f64::NAN, &mut rng)
                .is_err()
        );
    }

    #[test]
    fn mixed_scenarios_compose_deterministically_and_preserve_shape() {
        let mut rng = ChaCha8Rng::seed_from_u64(25);
        let rec = generate_record(&profile(), 90.0, 30.0, 20.0, 64.0, &mut rng).unwrap();
        let mixed = MixedScenario {
            first: HostileScenario::BaselineWander,
            second: HostileScenario::MainsHum,
        };
        assert_eq!(mixed.name(), "baseline_wander+mains_hum");
        let mut rng1 = ChaCha8Rng::seed_from_u64(26);
        let mut rng2 = ChaCha8Rng::seed_from_u64(26);
        let a = mixed.apply(&rec.signal, 1.0, &mut rng1).unwrap();
        let b = mixed.apply(&rec.signal, 1.0, &mut rng2).unwrap();
        assert_eq!(a, b, "mixed application must be deterministic");
        assert_eq!(a.len(), rec.signal.len());
        assert_eq!(a.sampling_frequency(), rec.signal.sampling_frequency());
        assert_ne!(a, rec.signal);
        // The overlay equals applying the two scenarios in sequence on the
        // same RNG stream — the compositor adds no hidden transform.
        let mut rng3 = ChaCha8Rng::seed_from_u64(26);
        let once =
            apply_scenario_with(&rec.signal, HostileScenario::BaselineWander, 1.0, &mut rng3)
                .unwrap();
        let twice = apply_scenario_with(&once, HostileScenario::MainsHum, 1.0, &mut rng3).unwrap();
        assert_eq!(a, twice);
    }

    #[test]
    fn scenario_application_is_deterministic_given_a_seed() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let rec = generate_record(&profile(), 90.0, 30.0, 20.0, 64.0, &mut rng).unwrap();
        let mut rng1 = ChaCha8Rng::seed_from_u64(12);
        let mut rng2 = ChaCha8Rng::seed_from_u64(12);
        let a = apply_scenario(&rec.signal, HostileScenario::ElectrodePop, &mut rng1).unwrap();
        let b = apply_scenario(&rec.signal, HostileScenario::ElectrodePop, &mut rng2).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn dropout_flatlines_one_channel_only() {
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let rec = generate_record(&profile(), 90.0, 30.0, 20.0, 64.0, &mut rng).unwrap();
        let degraded =
            apply_scenario(&rec.signal, HostileScenario::ChannelDropout, &mut rng).unwrap();
        let longest_run = |xs: &[f64]| {
            let (mut best, mut run) = (0usize, 1usize);
            for w in xs.windows(2) {
                run = if w[0] == w[1] { run + 1 } else { 1 };
                best = best.max(run);
            }
            best
        };
        let runs = [longest_run(degraded.f7t3()), longest_run(degraded.f8t4())];
        let quarter = degraded.len() / 4;
        assert!(
            runs.iter().filter(|r| **r >= quarter).count() == 1,
            "exactly one channel must flatline, runs = {runs:?}"
        );
    }

    #[test]
    fn saturation_clips_against_symmetric_rails() {
        let mut rng = ChaCha8Rng::seed_from_u64(14);
        let rec = generate_record(&profile(), 90.0, 30.0, 20.0, 64.0, &mut rng).unwrap();
        let degraded = apply_scenario(&rec.signal, HostileScenario::Saturation, &mut rng).unwrap();
        for (channel, original) in [
            (degraded.f7t3(), rec.signal.f7t3()),
            (degraded.f8t4(), rec.signal.f8t4()),
        ] {
            let peak = channel.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            let original_peak = original.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            assert!(peak < original_peak, "clipping must cap the peaks");
            // The rail is hit from both sides: many samples sit exactly on it.
            let on_rail = channel.iter().filter(|v| v.abs() == peak).count();
            assert!(on_rail > 10, "only {on_rail} samples on the rail");
        }
    }

    #[test]
    fn randn_has_roughly_standard_moments() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let samples: Vec<f64> = (0..20000).map(|_| randn(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var =
            samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / samples.len() as f64;
        assert!(mean.abs() < 0.05);
        assert!((var - 1.0).abs() < 0.1);
    }
}
