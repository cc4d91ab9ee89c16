//! Windowed ECG synthesis gate: an 8-lead window of the last
//! [`WINDOW`] samples of a [`RECORDING`]-sample recording, timed against
//! a standalone 8-lead recording of [`WINDOW`] samples in the same
//! process, and gated on the *ratio* of the two. Every shard of a long
//! recording materializes its inputs through the windowed path, so a
//! window must cost about its own length: only the beat grid is walked
//! over the whole recording. Synthesizing the whole recording and
//! slicing it reads about 50 here; the gate fails above 2.
//!
//! The gated quantity is a ratio of two measurements that must share a
//! process (same thermal state, interleaved rounds). The bench prints
//! the ratio and exits non-zero above [`MAX_RATIO`]; `ULP_BENCH_QUICK=1`
//! runs fewer rounds (CI sizing).

mod common;

use std::hint::black_box;
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

/// The window may cost at most twice a standalone recording of its
/// length.
const MAX_RATIO: f64 = 2.0;

/// Wall time of [`REPS`] calls of `synth`.
fn time(synth: impl Fn()) -> std::time::Duration {
    common::timed(|| (0..REPS).for_each(|_| synth()))
}

fn main() {
    let rounds = if ulp_bench::quick_mode() { 40 } else { 200 };
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
    let ratio = common::measure(rounds, || time(window), || time(standalone));

    println!(
        "ecg_window: {LEADS} leads, last {WINDOW} of {RECORDING} samples vs a \
         standalone {WINDOW}-sample recording, {rounds} rounds x {REPS}: \
         window {:.3} ms, standalone {:.3} ms",
        ratio.best_subject.as_secs_f64() * 1e3 / REPS as f64,
        ratio.best_reference.as_secs_f64() * 1e3 / REPS as f64,
    );
    if !common::check("ecg_window", ratio.value, 0.0..=MAX_RATIO) {
        std::process::exit(1);
    }
}
