//! Windowed ECG synthesis gate: an 8-lead window of the last
//! [`WINDOW`] samples of a [`RECORDING`]-sample recording, timed against
//! a standalone 8-lead recording of [`WINDOW`] samples in the same
//! process, and gated on the *ratio* of the two. Every shard of a long
//! recording materializes its inputs through the windowed path, so a
//! window must cost about its own length: only the beat grid is walked
//! over the whole recording. Synthesizing the whole recording and
//! slicing it reads about 50 here; the gate fails above 2.
//!
//! Not a criterion harness: the gated quantity is a ratio of two
//! measurements that must share a process (same thermal state,
//! interleaved rounds), so the bench writes its perf-gate record
//! directly, mirroring the criterion shim's `BENCH_*.json` format with
//! `"lower_is_better":true` and a per-record `"tolerance"`.
//!
//! Honours the shared bench environment:
//! * `ULP_BENCH_QUICK=1` — fewer rounds (CI smoke sizing).
//! * `ULP_BENCH_JSON_DIR=<dir>` — write `BENCH_ecg_window_ratio.json`.

use std::hint::black_box;
use std::time::{Duration, Instant};
use ulp_biosignal::{generate_channels, generate_channels_window, EcgConfig};

/// Leads of the recording: one per core of the paper's platform.
const LEADS: usize = 8;
/// Samples per lead of the long recording (the benchmark's
/// `long_recording` length).
const RECORDING: usize = 16_384;
/// Samples per lead of the window: about one shard with its halo.
const WINDOW: usize = 300;
/// Syntheses per timed sample, so one sample spans milliseconds.
const REPS: usize = 16;

/// Gate headroom over the baseline ratio of 1.0: the window may cost at
/// most twice a standalone recording of its length.
const RATIO_TOLERANCE: f64 = 1.0;

/// Writes one perf-gate record, mirroring the criterion shim's escaping
/// and `BENCH_<label>.json` naming (the label is ASCII-clean, so the
/// shim's collision hash is unnecessary).
fn emit_record(dir: &std::path::Path, label: &str, value: f64, tolerance: f64) {
    let sanitized: String = label
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    let record = format!(
        "{{\"label\":\"{label}\",\"value\":{value:.4},\"lower_is_better\":true,\
         \"tolerance\":{tolerance}}}\n"
    );
    let path = dir.join(format!("BENCH_{sanitized}.json"));
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, record)) {
        eprintln!("ecg_window: cannot write {}: {e}", path.display());
    }
}

/// Wall time of [`REPS`] calls of `synth`.
fn time(synth: impl Fn()) -> Duration {
    let t = Instant::now();
    for _ in 0..REPS {
        synth();
    }
    t.elapsed()
}

fn main() {
    let quick = std::env::var_os("ULP_BENCH_QUICK").is_some();
    let rounds = if quick { 40 } else { 200 };
    // The benchmark's recording shape: independent per-lead sources.
    let cfg = EcgConfig {
        independent_channels: true,
        ..EcgConfig::default()
    };
    let window = || {
        black_box(generate_channels_window(
            black_box(&cfg),
            LEADS,
            RECORDING,
            RECORDING - WINDOW..RECORDING,
        ));
    };
    let standalone = || {
        black_box(generate_channels(black_box(&cfg), LEADS, WINDOW));
    };

    window();
    standalone();
    let mut best_window = Duration::MAX;
    let mut best_standalone = Duration::MAX;
    let mut ratios = Vec::with_capacity(rounds);
    for round in 0..rounds {
        // Alternate which side runs first so a first/second position bias
        // cancels across rounds instead of loading one side of every ratio.
        let (w, s) = if round.is_multiple_of(2) {
            let w = time(window);
            (w, time(standalone))
        } else {
            let s = time(standalone);
            (time(window), s)
        };
        best_window = best_window.min(w);
        best_standalone = best_standalone.min(s);
        ratios.push(w.as_secs_f64() / s.as_secs_f64());
    }

    // Interquartile mean of the per-round ratios: drops the rounds where
    // one side caught a descheduling spike, averages the stable middle.
    ratios.sort_by(|a, b| a.total_cmp(b));
    let quartile = ratios.len() / 4;
    let middle = &ratios[quartile..ratios.len() - quartile];
    let ratio = middle.iter().sum::<f64>() / middle.len() as f64;

    println!(
        "ecg_window: {LEADS} leads, last {WINDOW} of {RECORDING} samples vs a \
         standalone {WINDOW}-sample recording, {rounds} rounds x {REPS}: \
         window {:.3} ms, standalone {:.3} ms, ratio {ratio:.4}",
        best_window.as_secs_f64() * 1e3 / REPS as f64,
        best_standalone.as_secs_f64() * 1e3 / REPS as f64,
    );

    if let Some(dir) = std::env::var_os("ULP_BENCH_JSON_DIR") {
        emit_record(
            &std::path::PathBuf::from(dir),
            "ecg_window/ratio",
            ratio,
            RATIO_TOLERANCE,
        );
    }
}
