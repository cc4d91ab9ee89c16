//! Deterministic synthetic multi-channel ECG generation.
//!
//! Real clinical recordings (e.g. MIT-BIH) cannot be redistributed with
//! this repository, so experiments run on a synthetic ECG: a sum of
//! Gaussian bumps for the P, Q, R, S and T waves placed on a jittered
//! RR-interval grid, plus sinusoidal baseline wander (respiration) and
//! additive noise. Samples are quantized to 12-bit ADC units (±2047),
//! matching the 16-bit data path of the platform with ample headroom for
//! the downstream morphological operators.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the synthetic ECG generator.
#[derive(Debug, Clone, PartialEq)]
pub struct EcgConfig {
    /// Sampling rate in Hz.
    pub fs: f64,
    /// Mean heart rate in beats per minute.
    pub heart_rate_bpm: f64,
    /// Relative RR-interval jitter (0.05 = ±5 %).
    pub hr_variability: f64,
    /// R-peak amplitude in ADC units.
    pub amplitude: f64,
    /// Baseline-wander amplitude in ADC units.
    pub baseline_wander: f64,
    /// Baseline-wander (respiration) frequency in Hz.
    pub wander_freq: f64,
    /// RMS of the additive noise in ADC units.
    pub noise_rms: f64,
    /// Seed of the beat-grid RNG. Channels of one recording share this
    /// seed, so every lead observes the same heart (identical R-peak
    /// times).
    pub seed: u64,
    /// Seed of the per-lead noise/wander RNG (varied per channel).
    pub noise_seed: u64,
    /// When set, [`generate_channels`] gives every channel its *own* beat
    /// grid (independent signal sources, e.g. separate sensor nodes)
    /// instead of eight leads of one heart. Independent channels maximize
    /// data-dependent divergence across the cores — the worst case for
    /// lockstep execution.
    pub independent_channels: bool,
}

impl Default for EcgConfig {
    fn default() -> Self {
        EcgConfig {
            fs: 250.0,
            heart_rate_bpm: 72.0,
            hr_variability: 0.05,
            amplitude: 1200.0,
            baseline_wander: 200.0,
            wander_freq: 0.33,
            noise_rms: 20.0,
            seed: 0xEC6_2013,
            noise_seed: 0xEC6_2013 ^ 0x5EED,
            independent_channels: false,
        }
    }
}

/// A generated ECG trace with its ground truth.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EcgSignal {
    /// The samples in ADC units, clamped to ±2047.
    pub samples: Vec<i16>,
    /// Ground-truth R-peak sample indices (for validating delineation).
    pub r_peaks: Vec<usize>,
}

impl EcgSignal {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }
}

/// The five characteristic waves of one heartbeat: relative amplitude,
/// width (seconds) and offset from the R peak (seconds).
const WAVES: [(f64, f64, f64); 5] = [
    (0.15, 0.040, -0.180),  // P
    (-0.10, 0.012, -0.035), // Q
    (1.00, 0.014, 0.000),   // R
    (-0.22, 0.016, 0.030),  // S
    (0.30, 0.070, 0.250),   // T
];

/// Uniform draws behind one [`gauss`] deviate.
const GAUSS_DRAWS: u64 = 12;

/// Approximately standard-normal deviate (Irwin–Hall sum of 12 uniforms).
fn gauss(rng: &mut StdRng) -> f64 {
    let mut s = 0.0;
    for _ in 0..GAUSS_DRAWS {
        s += rng.gen::<f64>();
    }
    s - 6.0
}

/// How far the ground-truth R apex may lie from its nominal R centre,
/// in samples.
const APEX_REACH: usize = 3;

/// Generates one synthetic ECG channel.
///
/// # Example
///
/// ```
/// use ulp_biosignal::{generate, EcgConfig};
///
/// let sig = generate(&EcgConfig::default(), 1000);
/// assert_eq!(sig.len(), 1000);
/// assert!(!sig.r_peaks.is_empty());
/// // Deterministic for a fixed seed.
/// assert_eq!(sig, generate(&EcgConfig::default(), 1000));
/// ```
pub fn generate(cfg: &EcgConfig, n: usize) -> EcgSignal {
    synthesize(cfg, n, 0..n)
}

/// Generates the window `range` of a `total`-sample recording.
///
/// The samples are **bit-identical** to the corresponding region of
/// `generate(cfg, total)` — the property the workload-sharding subsystem
/// builds on — yet cost the window, not the recording: only the beat grid
/// is walked over the whole recording (one RNG deviate per beat), the
/// waves, wander and noise are evaluated for the window alone.
/// Ground-truth R peaks falling inside the window are kept, re-indexed
/// relative to `range.start`.
///
/// # Panics
///
/// Panics if `range` does not lie within `0..total`.
///
/// # Example
///
/// ```
/// use ulp_biosignal::{generate, generate_window, EcgConfig};
///
/// let cfg = EcgConfig::default();
/// let full = generate(&cfg, 1000);
/// let window = generate_window(&cfg, 1000, 200..500);
/// assert_eq!(window.samples[..], full.samples[200..500]);
/// ```
pub fn generate_window(cfg: &EcgConfig, total: usize, range: std::ops::Range<usize>) -> EcgSignal {
    assert!(
        range.start <= range.end && range.end <= total,
        "window {range:?} outside recording of {total} samples"
    );
    synthesize(cfg, total, range)
}

/// The window `range` of the `total`-sample recording of `cfg`. Every
/// sample receives the same floating-point operations in the same order
/// whatever the window, so windows tile the recording bit for bit.
fn synthesize(cfg: &EcgConfig, total: usize, range: std::ops::Range<usize>) -> EcgSignal {
    // Two independent RNG streams: the beat grid is shared by every lead
    // of a recording, noise and wander phase are lead-specific.
    let mut beat_rng = StdRng::seed_from_u64(cfg.seed);
    let mut noise_rng = StdRng::seed_from_u64(cfg.noise_seed);

    // The clean signal covers the window widened by twice the apex reach:
    // an apex inside the window belongs to a nominal R at most
    // APEX_REACH samples outside it, whose search looks APEX_REACH
    // further.
    let base = range.start.saturating_sub(2 * APEX_REACH);
    let clean_end = (range.end + 2 * APEX_REACH).min(total);
    let mut clean = vec![0f64; clean_end - base];
    let mut nominal_peaks = Vec::new();

    // Place beats on a jittered RR grid covering the recording.
    let rr_nominal = 60.0 / cfg.heart_rate_bpm;
    let mut t_beat = 0.3 * rr_nominal; // first R inside the recording
    let t_end = total as f64 / cfg.fs;
    while t_beat < t_end + 0.5 {
        let r_idx = (t_beat * cfg.fs).round() as usize;
        if r_idx < total && r_idx + APEX_REACH >= range.start && r_idx < range.end + APEX_REACH {
            nominal_peaks.push(r_idx);
        }
        for (amp, width, offset) in WAVES {
            let centre = t_beat + offset;
            let lo = ((centre - 4.0 * width) * cfg.fs).floor().max(0.0) as usize;
            let hi = ((centre + 4.0 * width) * cfg.fs).ceil() as usize;
            for i in lo.max(base)..hi.min(clean_end) {
                let t = i as f64 / cfg.fs;
                let z = (t - centre) / width;
                clean[i - base] += cfg.amplitude * amp * (-0.5 * z * z).exp();
            }
        }
        let jitter = 1.0 + cfg.hr_variability * gauss(&mut beat_rng) / 3.0;
        t_beat += rr_nominal * jitter.clamp(0.5, 1.5);
    }

    // Ground truth: the apex of the *clean* beat (overlapping Q/S/T waves
    // can shift it a sample off the nominal R centre).
    let polarity = if cfg.amplitude < 0.0 { -1.0 } else { 1.0 };
    let r_peaks: Vec<usize> = nominal_peaks
        .iter()
        .map(|&r| {
            let lo = r.saturating_sub(APEX_REACH);
            let hi = (r + APEX_REACH).min(total - 1);
            (lo..=hi)
                .max_by(|&a, &b| {
                    (polarity * clean[a - base])
                        .partial_cmp(&(polarity * clean[b - base]))
                        .expect("finite samples")
                })
                .unwrap_or(r)
        })
        .filter(|r| range.contains(r))
        .map(|r| r - range.start)
        .collect();

    // Baseline wander and noise: the phase is the stream's first draw,
    // then every sample takes one deviate, so the window's noise starts
    // GAUSS_DRAWS draws per earlier sample further on.
    let phase = noise_rng.gen::<f64>() * std::f64::consts::TAU;
    noise_rng.advance(GAUSS_DRAWS * range.start as u64);
    let samples = range
        .map(|i| {
            let mut s = clean[i - base];
            let t = i as f64 / cfg.fs;
            s += cfg.baseline_wander * (std::f64::consts::TAU * cfg.wander_freq * t + phase).sin();
            s += cfg.noise_rms * gauss(&mut noise_rng);
            s.round().clamp(-2047.0, 2047.0) as i16
        })
        .collect();

    EcgSignal { samples, r_peaks }
}

/// Generates a multi-channel recording: `channels` leads of the same heart
/// activity seen with per-lead gain, polarity and independent noise — the
/// workload shape of the paper's multi-channel analysis platform (one
/// channel per core).
pub fn generate_channels(cfg: &EcgConfig, channels: usize, n: usize) -> Vec<EcgSignal> {
    (0..channels)
        .map(|ch| generate(&lead_config(cfg, ch), n))
        .collect()
}

/// The window `range` of every lead of a `total`-sample multi-channel
/// recording: [`generate_channels`] restricted to a slice, bit-identical
/// to slicing the full recording (see [`generate_window`]). This is how a
/// workload shard materializes its input region of a long recording.
///
/// # Panics
///
/// Panics if `range` does not lie within `0..total`.
pub fn generate_channels_window(
    cfg: &EcgConfig,
    channels: usize,
    total: usize,
    range: std::ops::Range<usize>,
) -> Vec<EcgSignal> {
    (0..channels)
        .map(|ch| generate_window(&lead_config(cfg, ch), total, range.clone()))
        .collect()
}

/// The per-lead projection of one recording configuration: varied gain,
/// alternating polarity for some leads, lead-specific noise and wander
/// phase, and (for independent channels) a lead-specific heart.
fn lead_config(cfg: &EcgConfig, ch: usize) -> EcgConfig {
    let mut c = cfg.clone();
    let gain = 1.0 - 0.08 * (ch % 4) as f64;
    let polarity = if ch % 5 == 3 { -1.0 } else { 1.0 };
    c.amplitude *= gain * polarity;
    c.baseline_wander *= 1.0 + 0.15 * (ch % 3) as f64;
    // Lead-specific noise stream; optionally an independent heart.
    c.noise_seed = cfg
        .noise_seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(ch as u64 + 1));
    if cfg.independent_channels {
        c.seed = cfg
            .seed
            .wrapping_add(0xD1B5_4A32_D192_ED03u64.wrapping_mul(ch as u64 + 1));
        c.heart_rate_bpm = cfg.heart_rate_bpm * (0.85 + 0.05 * (ch % 7) as f64);
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::ops::Range;

    #[test]
    fn deterministic_per_seed() {
        let cfg = EcgConfig::default();
        assert_eq!(generate(&cfg, 500), generate(&cfg, 500));
        let other = EcgConfig {
            seed: 1,
            ..EcgConfig::default()
        };
        assert_ne!(generate(&cfg, 500), generate(&other, 500));
    }

    #[test]
    fn beat_count_matches_heart_rate() {
        let cfg = EcgConfig {
            hr_variability: 0.0,
            ..EcgConfig::default()
        };
        // 10 s at 72 bpm -> 12 beats expected (±1 for window edges).
        let sig = generate(&cfg, 2500);
        assert!(
            (11..=13).contains(&sig.r_peaks.len()),
            "beats: {}",
            sig.r_peaks.len()
        );
    }

    #[test]
    fn r_peaks_are_local_maxima_of_clean_signal() {
        let cfg = EcgConfig {
            baseline_wander: 0.0,
            noise_rms: 0.0,
            hr_variability: 0.0,
            ..EcgConfig::default()
        };
        let sig = generate(&cfg, 2000);
        for &r in &sig.r_peaks {
            if r > 2 && r + 2 < sig.len() {
                let w = &sig.samples[r - 2..=r + 2];
                let max = *w.iter().max().unwrap();
                assert!(
                    sig.samples[r] >= max - 2,
                    "R at {r} is not a local max: {w:?}"
                );
                assert!(sig.samples[r] > 800, "R amplitude too small");
            }
        }
    }

    #[test]
    fn samples_fit_adc_range() {
        let cfg = EcgConfig {
            amplitude: 4000.0, // deliberately excessive
            ..EcgConfig::default()
        };
        let sig = generate(&cfg, 1000);
        assert!(sig.samples.iter().all(|s| (-2047..=2047).contains(s)));
    }

    #[test]
    fn channels_differ_but_share_beat_grid() {
        let cfg = EcgConfig::default();
        let chans = generate_channels(&cfg, 8, 1000);
        assert_eq!(chans.len(), 8);
        for pair in chans.windows(2) {
            assert_ne!(pair[0].samples, pair[1].samples);
        }
        // All channels observe the same heart: identical R-peak grid.
        for ch in &chans[1..] {
            assert_eq!(ch.r_peaks, chans[0].r_peaks);
        }
    }

    #[test]
    fn inverted_lead_has_negative_r() {
        let cfg = EcgConfig {
            noise_rms: 0.0,
            baseline_wander: 0.0,
            ..EcgConfig::default()
        };
        let chans = generate_channels(&cfg, 8, 1000);
        // Channel 3 is generated with inverted polarity.
        let r = chans[3].r_peaks[0];
        assert!(chans[3].samples[r] < -500);
        assert!(chans[0].samples[r] > 500);
    }

    #[test]
    fn windows_match_full_recording_on_every_lead() {
        let cfg = EcgConfig {
            independent_channels: true,
            ..EcgConfig::default()
        };
        let total = 1200;
        let full = generate_channels(&cfg, 4, total);
        for range in [0..total, 0..300, 450..707, 900..total, 5..5] {
            let windows = generate_channels_window(&cfg, 4, total, range.clone());
            for (ch, w) in windows.iter().enumerate() {
                assert_eq!(
                    w.samples[..],
                    full[ch].samples[range.clone()],
                    "ch {ch} range {range:?}"
                );
                // R peaks inside the window survive, re-indexed.
                let expected: Vec<usize> = full[ch]
                    .r_peaks
                    .iter()
                    .filter(|&&r| range.contains(&r))
                    .map(|&r| r - range.start)
                    .collect();
                assert_eq!(w.r_peaks, expected, "ch {ch} range {range:?}");
            }
        }
    }

    /// FNV-1a over every signal's lengths, samples and R peaks.
    fn digest(signals: &[EcgSignal]) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
            }
        };
        for s in signals {
            eat(&(s.samples.len() as u64).to_le_bytes());
            for v in &s.samples {
                eat(&v.to_le_bytes());
            }
            eat(&(s.r_peaks.len() as u64).to_le_bytes());
            for &r in &s.r_peaks {
                eat(&(r as u64).to_le_bytes());
            }
        }
        h
    }

    /// The generator's output is pinned: any change to the synthesis
    /// arithmetic (order of additions, RNG draws, beat grid) changes these
    /// digests, even where windows still agree with whole recordings.
    #[test]
    fn output_digests_are_pinned() {
        let paper = EcgConfig {
            independent_channels: true,
            ..EcgConfig::default()
        };
        let paper_digest = digest(&generate_channels(&paper, 8, 256));
        let long_digest = digest(&generate_channels(&EcgConfig::default(), 8, 16384));
        assert_eq!(paper_digest, 0x5F33_2FEA_AC13_AD83);
        assert_eq!(long_digest, 0xED68_500F_BF9E_032B);
    }

    /// A window `kind` of a `total`-sample recording with R peaks
    /// `peaks`: 0 empty, 1 from the start, 2 to the end, 3 with an edge
    /// within [`APEX_REACH`] samples of an R peak, 4 anywhere. `a` and `b`
    /// pick the positions.
    fn pick_window(kind: u8, total: usize, peaks: &[usize], a: u64, b: u64) -> Range<usize> {
        let at = |x: u64| (x % (total as u64 + 1)) as usize;
        let (lo, hi) = (at(a).min(at(b)), at(a).max(at(b)));
        match kind {
            0 => lo..lo,
            1 => 0..hi,
            2 => lo..total,
            3 if !peaks.is_empty() => {
                let peak = peaks[(a % peaks.len() as u64) as usize];
                let reach = APEX_REACH as i64;
                let delta = (b % (2 * reach as u64 + 1)) as i64 - reach;
                let edge = (peak as i64 + delta).clamp(0, total as i64) as usize;
                if b & 0x100 == 0 {
                    edge..edge.max(hi)
                } else {
                    lo.min(edge)..edge
                }
            }
            _ => lo..hi,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A window equals the matching slice of the whole recording, R
        /// peaks re-indexed, across heart rates, jitter, leads of either
        /// polarity, independent channels and recording lengths.
        #[test]
        fn windows_are_slices_of_the_recording(
            seed in any::<u64>(),
            noise_seed in any::<u64>(),
            bpm in 40u32..=180,
            hrv_permille in 0u32..=200,
            lead in 0usize..8,
            independent_channels in any::<bool>(),
            total in prop_oneof![1usize..64, 1usize..=20_000],
            kind in 0u8..5,
            a in any::<u64>(),
            b in any::<u64>(),
        ) {
            let recording = EcgConfig {
                seed,
                noise_seed,
                heart_rate_bpm: f64::from(bpm),
                hr_variability: f64::from(hrv_permille) / 1000.0,
                independent_channels,
                ..EcgConfig::default()
            };
            let cfg = lead_config(&recording, lead);
            let full = generate(&cfg, total);
            let range = pick_window(kind, total, &full.r_peaks, a, b);
            let window = generate_window(&cfg, total, range.clone());
            prop_assert_eq!(&window.samples[..], &full.samples[range.clone()]);
            let expected: Vec<usize> = full
                .r_peaks
                .iter()
                .filter(|&&r| range.contains(&r))
                .map(|&r| r - range.start)
                .collect();
            prop_assert_eq!(window.r_peaks, expected, "range {:?}", range);
        }
    }

    #[test]
    #[should_panic(expected = "outside recording")]
    fn window_outside_recording_panics() {
        let _ = generate_window(&EcgConfig::default(), 100, 50..101);
    }

    #[test]
    fn empty_request_is_fine() {
        let sig = generate(&EcgConfig::default(), 0);
        assert!(sig.is_empty());
        assert!(sig.r_peaks.is_empty());
    }
}
