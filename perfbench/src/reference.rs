//! The host-speed reference: a fixed kernel of the benchmark's own, timed next to the
//! passes, so that timings can be expressed at one host speed.
//!
//! The host this benchmark was defined on (a 2-vCPU Xeon VM at 2.1 GHz, shared with
//! other tenants) changes speed by up to 1.5x for minutes at a time, and the best of
//! many timings cannot undo a run that never sees the faster state. The kernel slows
//! down with the host but never with the program, so a run scales its timings by
//! `REFERENCE_S / best kernel time`: the figures read as seconds on that host at its
//! faster state, and a change to the program still moves them in full.
//!
//! The kernel does the three kinds of work the workloads do, about a third of its
//! time each: a stepping loop over `f64` columns with a xorshift generator (the
//! simulator), decimal formatting and parsing of numbers (the canonical-JSON codec)
//! and Cholesky factorizations (the BLISS Gaussian process). A mix is needed because
//! the host's slow state slows different work by different amounts: about 1.5x for
//! the simulator-bound sweep, 1.3x for the JSON-bound replay and 1.8x for a loop of
//! pure arithmetic.

use std::fmt::Write;
use std::time::Instant;

/// The kernel's best time, in seconds, on the host described above at its faster
/// state.
pub const REFERENCE_S: f64 = 5.3e-3;

/// The best of `n` timings of the kernel, in seconds.
pub fn best_of(n: usize) -> f64 {
    (0..n)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(stepping() + numbers() + cholesky());
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

fn stepping() -> f64 {
    const N: usize = 4096;
    let mut rate = vec![1.0f64; N];
    let mut progress = vec![0.0f64; N];
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut lead = 0.0;
    for step in 0..180 {
        let slowdown = 1.0 + 0.01 * step as f64;
        for (r, p) in rate.iter_mut().zip(&mut progress) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let noise = (x >> 11) as f64 / (1u64 << 53) as f64;
            *r = 0.9 * *r + 0.1 * (1.0 + 0.3 * noise) / slowdown;
            *p += *r;
        }
        lead += progress.iter().copied().fold(f64::MIN, f64::max);
    }
    lead
}

fn numbers() -> f64 {
    let mut text = String::new();
    let mut v = 1.234_567_89f64;
    for i in 0..9000 {
        v = v * 1.000_37 + i as f64 * 1e-3;
        write!(text, "{{\"k{i}\":{v:?}}},").expect("writing to a String");
    }
    text.split(',')
        .filter_map(|item| item.split(':').nth(1))
        .filter_map(|num| num.trim_end_matches('}').parse::<f64>().ok())
        .sum()
}

fn cholesky() -> f64 {
    const N: usize = 64;
    let mut a = vec![0.0f64; N * N];
    for i in 0..N {
        for j in 0..N {
            let d = (i as f64 - j as f64) / 8.0;
            a[i * N + j] = (-d * d).exp() + if i == j { 1e-3 } else { 0.0 };
        }
    }
    let mut corner = 0.0;
    for _ in 0..40 {
        let mut l = a.clone();
        for j in 0..N {
            let mut d = l[j * N + j];
            for k in 0..j {
                d -= l[j * N + k] * l[j * N + k];
            }
            let d = d.sqrt();
            l[j * N + j] = d;
            for i in j + 1..N {
                let mut s = l[i * N + j];
                for k in 0..j {
                    s -= l[i * N + k] * l[j * N + k];
                }
                l[i * N + j] = s / d;
            }
        }
        corner += l[N * N - 1];
    }
    corner
}
