//! The one kind of speed gate in this suite: a same-process ratio.
//!
//! A self-gating bench times a subject against a reference in one
//! process, in alternating rounds, and gates the interquartile mean of
//! the per-round ratios against a band. Both sides share the machine,
//! its caches and its noise phase, so the ratio needs no per-machine
//! baseline, where an absolute rate does.
//! The bench exits non-zero when a ratio leaves its band, so running it
//! is the gate.
//!
//! Quick mode (CI sizing) is [`ulp_bench::quick_mode`], the one parse
//! of `ULP_BENCH_QUICK`.

use std::ops::RangeInclusive;
use std::time::{Duration, Instant};

/// The gated statistic of [`measure`], with each side's fastest round
/// for the report line.
pub struct Ratio {
    /// Interquartile mean of subject time / reference time per round.
    pub value: f64,
    /// The subject's fastest round.
    pub best_subject: Duration,
    /// The reference's fastest round.
    pub best_reference: Duration,
}

/// Wall time of `work`, whose result is kept from the optimizer.
pub fn timed<T>(work: impl FnOnce() -> T) -> Duration {
    let t = Instant::now();
    std::hint::black_box(work());
    t.elapsed()
}

/// Runs `rounds` rounds of `subject` and `reference`, each returning the
/// wall time it measured, and returns the ratio of the two.
///
/// The sides run in adjacent pairs: machine noise drifts over time, so a
/// round's two sides share one noise phase and their ratio is far tighter
/// than either time. Which side runs first alternates, so a first/second
/// position bias (cache residency, frequency ramp) cancels across rounds
/// instead of loading one side of every ratio.
pub fn measure(
    rounds: usize,
    mut subject: impl FnMut() -> Duration,
    mut reference: impl FnMut() -> Duration,
) -> Ratio {
    let mut best_subject = Duration::MAX;
    let mut best_reference = Duration::MAX;
    let mut ratios = Vec::with_capacity(rounds);
    for round in 0..rounds {
        let (s, r) = if round.is_multiple_of(2) {
            let s = subject();
            (s, reference())
        } else {
            let r = reference();
            (subject(), r)
        };
        best_subject = best_subject.min(s);
        best_reference = best_reference.min(r);
        ratios.push(s.as_secs_f64() / r.as_secs_f64());
    }
    Ratio {
        value: interquartile_mean(&mut ratios),
        best_subject,
        best_reference,
    }
}

/// The mean of the middle half: drops the rounds where one side caught a
/// descheduling spike and averages the stable rest.
fn interquartile_mean(values: &mut [f64]) -> f64 {
    values.sort_by(|a, b| a.total_cmp(b));
    let quartile = values.len() / 4;
    let middle = &values[quartile..values.len() - quartile];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// Prints `label`'s ratio against its band and whether it passed.
pub fn check(label: &str, ratio: f64, band: RangeInclusive<f64>) -> bool {
    let passed = band.contains(&ratio);
    println!(
        "{label}: ratio {ratio:.4}, band {:.2}..={:.2}: {}",
        band.start(),
        band.end(),
        if passed { "ok" } else { "FAIL" }
    );
    passed
}
