//! Differential battery for the baseline tuners' models.
//!
//! The reference implementations below are the models as they were before they became
//! incremental, kept verbatim: a Gaussian process that refits a dense `Vec<Vec<f64>>`
//! Cholesky factor on every `fit` and solves once per predicted point, and an n-tuple
//! model that keeps every tuple's statistics in one `HashMap`. The production models
//! must agree with them bit for bit:
//!
//! * [`GaussianProcess`]: over random fit sequences shaped like BLISS's (growing
//!   windows, windows that slide, fits that skip several observations, one-point
//!   fits, repeated inputs, dimensions pinned to zero, constant targets), every
//!   prediction's mean and standard deviation, every expected improvement and the
//!   first-wins argmax of expected improvement over a pool.
//! * [`TupleModel`]: over random update and scoring sequences, every `ucb` and
//!   `value`.
//!
//! The battery runs a smaller slice in debug builds; release builds run the full count.

use dg_cloudsim::SimRng;
use dg_tuners::{GaussianProcess, PredictScratch, TupleModel};
use std::collections::HashMap;

const GP_CASES: usize = if cfg!(debug_assertions) { 500 } else { 6_000 };
const TUPLE_CASES: usize = if cfg!(debug_assertions) { 500 } else { 6_000 };

// ---------------------------------------------------------------------------------
// Reference Gaussian process (dense refit per call, one solve per point).
// ---------------------------------------------------------------------------------

struct ReferenceGp {
    length_scale: f64,
    noise: f64,
    inputs: Vec<Vec<f64>>,
    alpha: Vec<f64>,
    cholesky: Vec<Vec<f64>>,
    y_mean: f64,
    y_std: f64,
}

impl ReferenceGp {
    fn new(length_scale: f64, noise: f64) -> Self {
        Self {
            length_scale,
            noise,
            inputs: Vec::new(),
            alpha: Vec::new(),
            cholesky: Vec::new(),
            y_mean: 0.0,
            y_std: 1.0,
        }
    }

    fn kernel(&self, a: &[f64], b: &[f64]) -> f64 {
        let squared: f64 = a.iter().zip(b.iter()).map(|(x, y)| (x - y) * (x - y)).sum();
        (-squared / (2.0 * self.length_scale * self.length_scale)).exp()
    }

    #[allow(clippy::needless_range_loop)]
    fn fit(&mut self, inputs: &[Vec<f64>], targets: &[f64]) {
        assert_eq!(
            inputs.len(),
            targets.len(),
            "inputs/targets length mismatch"
        );
        assert!(!inputs.is_empty(), "cannot fit a GP to zero observations");
        let n = inputs.len();
        self.y_mean = dg_stats::mean(targets);
        self.y_std = dg_stats::std_dev(targets).max(1e-9);
        let standardized: Vec<f64> = targets
            .iter()
            .map(|y| (y - self.y_mean) / self.y_std)
            .collect();

        // Build K + noise * I.
        let mut matrix = vec![vec![0.0; n]; n];
        for i in 0..n {
            for j in 0..=i {
                let k = self.kernel(&inputs[i], &inputs[j]);
                matrix[i][j] = k;
                matrix[j][i] = k;
            }
            matrix[i][i] += self.noise;
        }

        // Cholesky decomposition (matrix = L * L^T).
        let mut l = vec![vec![0.0; n]; n];
        for i in 0..n {
            for j in 0..=i {
                let mut sum = matrix[i][j];
                for k in 0..j {
                    sum -= l[i][k] * l[j][k];
                }
                if i == j {
                    l[i][j] = sum.max(1e-12).sqrt();
                } else {
                    l[i][j] = sum / l[j][j];
                }
            }
        }

        // Solve L z = y, then L^T alpha = z.
        let mut z = vec![0.0; n];
        for i in 0..n {
            let mut sum = standardized[i];
            for k in 0..i {
                sum -= l[i][k] * z[k];
            }
            z[i] = sum / l[i][i];
        }
        let mut alpha = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = z[i];
            for k in i + 1..n {
                sum -= l[k][i] * alpha[k];
            }
            alpha[i] = sum / l[i][i];
        }

        self.inputs = inputs.to_vec();
        self.alpha = alpha;
        self.cholesky = l;
    }

    #[allow(clippy::needless_range_loop)]
    fn predict(&self, point: &[f64]) -> (f64, f64) {
        let n = self.inputs.len();
        let k_star: Vec<f64> = self.inputs.iter().map(|x| self.kernel(x, point)).collect();
        let mean_standardized: f64 = k_star
            .iter()
            .zip(self.alpha.iter())
            .map(|(k, a)| k * a)
            .sum();

        // v = L^-1 k_star; predictive variance = k(x,x) - v^T v.
        let mut v = vec![0.0; n];
        for i in 0..n {
            let mut sum = k_star[i];
            for k in 0..i {
                sum -= self.cholesky[i][k] * v[k];
            }
            v[i] = sum / self.cholesky[i][i];
        }
        let variance_standardized =
            (1.0 + self.noise - v.iter().map(|x| x * x).sum::<f64>()).max(1e-12);

        let mean = mean_standardized * self.y_std + self.y_mean;
        let std_dev = variance_standardized.sqrt() * self.y_std;
        (mean, std_dev)
    }

    fn expected_improvement(&self, point: &[f64], best: f64) -> f64 {
        let (mean, std_dev) = self.predict(point);
        improvement(mean, std_dev, best)
    }
}

/// The reference expected improvement of a prediction.
fn improvement(mean: f64, std_dev: f64, best: f64) -> f64 {
    if std_dev < 1e-12 {
        return (best - mean).max(0.0);
    }
    let z = (best - mean) / std_dev;
    let (pdf, cdf) = standard_normal(z);
    ((best - mean) * cdf + std_dev * pdf).max(0.0)
}

fn standard_normal(z: f64) -> (f64, f64) {
    let pdf = (-0.5 * z * z).exp() / (2.0 * std::f64::consts::PI).sqrt();
    let t = 1.0 / (1.0 + 0.2316419 * z.abs());
    let poly = t
        * (0.319381530
            + t * (-0.356563782 + t * (1.781477937 + t * (-1.821255978 + t * 1.330274429))));
    let tail = pdf * poly;
    let cdf = if z >= 0.0 { 1.0 - tail } else { tail };
    (pdf, cdf)
}

/// First index with the strictly greatest score, as BLISS picks its candidate.
fn first_argmax(scores: impl IntoIterator<Item = f64>) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, score) in scores.into_iter().enumerate() {
        if best.map_or(true, |(_, b)| score > b) {
            best = Some((i, score));
        }
    }
    best.map(|(i, _)| i)
}

// ---------------------------------------------------------------------------------
// Random observation streams shaped like BLISS's.
// ---------------------------------------------------------------------------------

/// A parameter space in the unit hypercube: `levels[d]` grid settings per dimension,
/// with 1 meaning the dimension is pinned at 0.0.
struct Space {
    levels: Vec<usize>,
}

impl Space {
    fn random(rng: &mut SimRng) -> Self {
        let wide = rng.uniform() < 0.2;
        let dims = 1 + rng.index(if wide { 36 } else { 10 });
        let levels = (0..dims)
            .map(|_| {
                if rng.uniform() < 0.4 {
                    1
                } else {
                    2 + rng.index(12)
                }
            })
            .collect();
        Self { levels }
    }

    /// A grid point, or (sometimes) a grid point with one coordinate perturbed off the
    /// grid, as BLISS perturbs its incumbent.
    fn point(&self, rng: &mut SimRng) -> Vec<f64> {
        let mut point: Vec<f64> = self
            .levels
            .iter()
            .map(|&l| {
                if l <= 1 {
                    0.0
                } else {
                    rng.index(l) as f64 / (l - 1) as f64
                }
            })
            .collect();
        if rng.uniform() < 0.15 {
            let dim = rng.index(point.len());
            point[dim] = (point[dim] + rng.normal_with(0.0, 0.2)).clamp(0.0, 1.0);
        }
        point
    }
}

fn random_target(rng: &mut SimRng, constant: bool) -> f64 {
    if constant {
        250.0
    } else {
        50.0 + 400.0 * rng.uniform()
    }
}

fn assert_bits(found: (f64, f64), expected: (f64, f64), context: &str) {
    assert_eq!(
        (found.0.to_bits(), found.1.to_bits()),
        (expected.0.to_bits(), expected.1.to_bits()),
        "{context}: found {found:?}, expected {expected:?}"
    );
}

/// Checks one fitted window: every point of a scoring pool (fresh points, training
/// points, and the all-zero point) through `predict_many`, `predict` and
/// `expected_improvement`, plus the pool's argmax.
fn check_window(
    gp: &GaussianProcess,
    reference: &ReferenceGp,
    space: &Space,
    (inputs, targets): (&[Vec<f64>], &[f64]),
    rng: &mut SimRng,
    scratch: &mut PredictScratch,
    context: &str,
) {
    let mut pool: Vec<Vec<f64>> = (0..1 + rng.index(40)).map(|_| space.point(rng)).collect();
    for _ in 0..rng.index(4) {
        pool.push(inputs[rng.index(inputs.len())].clone());
    }
    if rng.uniform() < 0.2 {
        pool.push(vec![0.0; space.levels.len()]);
    }
    let best = targets.iter().copied().fold(f64::INFINITY, f64::min);

    let batch = gp.predict_many(&pool, scratch);
    assert_eq!(batch.len(), pool.len());
    let mut reference_ei = Vec::with_capacity(pool.len());
    for (index, (point, &found)) in pool.iter().zip(&batch).enumerate() {
        let expected = reference.predict(point);
        let context = format!("{context}, point {index} {point:?}");
        assert_bits(found, expected, &format!("{context}: predict_many"));
        assert_bits(gp.predict(point), expected, &format!("{context}: predict"));
        let ei = reference.expected_improvement(point, best);
        assert_eq!(
            gp.expected_improvement(point, best).to_bits(),
            ei.to_bits(),
            "{context}: expected improvement"
        );
        reference_ei.push(ei);
    }
    assert_eq!(
        first_argmax(batch.iter().map(|&(m, s)| improvement(m, s, best))),
        first_argmax(reference_ei),
        "{context}: argmax of expected improvement"
    );
}

#[test]
fn gaussian_process_matches_the_dense_reference_bit_for_bit() {
    let mut rng = SimRng::new(0x6a7e).derive("gp-equivalence");
    let mut scratch = PredictScratch::default();
    let mut cases = 0;
    let mut session = 0;
    while cases < GP_CASES {
        session += 1;
        let space = Space::random(&mut rng);
        let length_scale = [0.08, 0.18, 0.35, 0.7, 0.05 + rng.uniform()][rng.index(5)];
        let noise = [1e-3, 1e-6, 0.1][rng.index(3)];
        // Short windows, mid-sized ones, and BLISS's own 120-observation window.
        let window = match rng.index(10) {
            0..=2 => 1 + rng.index(8),
            3 => 120,
            _ => 1 + rng.index(60),
        };
        let constant = rng.uniform() < 0.1;
        let mut gp = GaussianProcess::new(length_scale, noise);

        // A growing observation stream, fit (or skipped, as BLISS skips the models it
        // did not select) after each batch of new observations.
        let mut inputs: Vec<Vec<f64>> = Vec::new();
        let mut targets: Vec<f64> = Vec::new();
        let steps = 1 + rng.index(if window == 120 { 80 } else { 24 });
        for step in 0..steps {
            for _ in 0..1 + rng.index(3) {
                let input = if !inputs.is_empty() && rng.uniform() < 0.15 {
                    inputs[rng.index(inputs.len())].clone()
                } else {
                    space.point(&mut rng)
                };
                inputs.push(input);
                targets.push(random_target(&mut rng, constant));
            }
            if rng.uniform() < 0.25 && step + 1 < steps {
                continue;
            }
            let start = inputs.len().saturating_sub(window);
            gp.fit(&inputs[start..], &targets[start..]);
            let mut reference = ReferenceGp::new(length_scale, noise);
            reference.fit(&inputs[start..], &targets[start..]);
            let context = format!(
                "session {session} (levels {:?}, ls {length_scale}, noise {noise}), \
                 step {step}, window {start}..{}",
                space.levels,
                inputs.len()
            );
            check_window(
                &gp,
                &reference,
                &space,
                (&inputs[start..], &targets[start..]),
                &mut rng,
                &mut scratch,
                &context,
            );
            cases += 1;
        }
    }
}

#[test]
fn refitting_to_an_unrelated_window_matches_a_fresh_fit() {
    // A model refit on a shorter window whose prefix differs must not keep any rows.
    let mut rng = SimRng::new(17).derive("gp-refit");
    let space = Space {
        levels: vec![5, 1, 9, 1, 3],
    };
    let mut scratch = PredictScratch::default();
    let mut gp = GaussianProcess::new(0.35, 1e-3);
    for round in 0..40 {
        let n = 1 + rng.index(30);
        let inputs: Vec<Vec<f64>> = (0..n).map(|_| space.point(&mut rng)).collect();
        let targets: Vec<f64> = (0..n).map(|_| random_target(&mut rng, false)).collect();
        gp.fit(&inputs, &targets);
        let mut reference = ReferenceGp::new(0.35, 1e-3);
        reference.fit(&inputs, &targets);
        let context = format!("round {round}");
        check_window(
            &gp,
            &reference,
            &space,
            (&inputs, &targets),
            &mut rng,
            &mut scratch,
            &context,
        );
    }
}

// ---------------------------------------------------------------------------------
// Reference n-tuple model (every tuple in one HashMap).
// ---------------------------------------------------------------------------------

fn tuple_sets(dims: usize) -> Vec<Vec<usize>> {
    let mut tuples = Vec::new();
    for i in 0..dims {
        tuples.push(vec![i]);
    }
    for i in 0..dims {
        for j in (i + 1)..dims {
            tuples.push(vec![i, j]);
        }
    }
    if dims > 2 {
        tuples.push((0..dims).collect());
    }
    tuples
}

fn pack(point: &[usize], tuple: &[usize], levels: &[usize]) -> u64 {
    let mut key = 0u64;
    let mut stride = 1u64;
    for &dim in tuple {
        key += point[dim] as u64 * stride;
        stride *= levels[dim] as u64;
    }
    key
}

struct ReferenceTupleModel {
    tuples: Vec<Vec<usize>>,
    levels: Vec<usize>,
    stats: HashMap<(usize, u64), (u64, f64)>,
    total: u64,
    fit_min: f64,
    fit_max: f64,
}

impl ReferenceTupleModel {
    fn new(levels: Vec<usize>) -> Self {
        Self {
            tuples: tuple_sets(levels.len()),
            levels,
            stats: HashMap::new(),
            total: 0,
            fit_min: f64::INFINITY,
            fit_max: f64::NEG_INFINITY,
        }
    }

    fn update(&mut self, point: &[usize], fitness: f64) {
        self.total += 1;
        self.fit_min = self.fit_min.min(fitness);
        self.fit_max = self.fit_max.max(fitness);
        for (index, tuple) in self.tuples.iter().enumerate() {
            let key = (index, pack(point, tuple, &self.levels));
            let entry = self.stats.entry(key).or_insert((0, 0.0));
            entry.0 += 1;
            entry.1 += (fitness - entry.1) / entry.0 as f64;
        }
    }

    fn value(&self, point: &[usize]) -> f64 {
        let mut sum = 0.0;
        let mut n = 0u64;
        for (index, tuple) in self.tuples.iter().enumerate() {
            if let Some(&(_, mean)) = self.stats.get(&(index, pack(point, tuple, &self.levels))) {
                sum += mean;
                n += 1;
            }
        }
        if n == 0 {
            f64::NEG_INFINITY
        } else {
            sum / n as f64
        }
    }

    fn ucb(&self, point: &[usize], k: f64) -> f64 {
        let log_total = ((self.total + 1) as f64).ln();
        let mut value_sum = 0.0;
        let mut value_n = 0u64;
        let mut explore = 0.0;
        for (index, tuple) in self.tuples.iter().enumerate() {
            match self.stats.get(&(index, pack(point, tuple, &self.levels))) {
                Some(&(count, mean)) => {
                    value_sum += mean;
                    value_n += 1;
                    explore += (log_total / count as f64).sqrt();
                }
                None => explore += (log_total / 0.01).sqrt(),
            }
        }
        let value = if value_n == 0 {
            0.0
        } else {
            value_sum / value_n as f64
        };
        let range = if self.fit_max > self.fit_min {
            self.fit_max - self.fit_min
        } else {
            1.0
        };
        value + k * range * explore / self.tuples.len() as f64
    }
}

#[test]
fn tuple_model_matches_the_hashmap_reference_bit_for_bit() {
    let mut rng = SimRng::new(0x7b1e).derive("tuple-equivalence");
    for case in 0..TUPLE_CASES {
        let wide = rng.uniform() < 0.1;
        let dims = 1 + rng.index(if wide { 36 } else { 7 });
        let levels: Vec<usize> = (0..dims)
            .map(|_| {
                if rng.uniform() < 0.3 {
                    1
                } else {
                    2 + rng.index(7)
                }
            })
            .collect();
        let mut model = TupleModel::new(levels.clone());
        let mut reference = ReferenceTupleModel::new(levels.clone());
        // A narrow space repeats points (and so tuple settings) often.
        let point = |rng: &mut SimRng| -> Vec<usize> {
            levels.iter().map(|&l| rng.index(l.min(3))).collect()
        };
        let wide =
            |rng: &mut SimRng| -> Vec<usize> { levels.iter().map(|&l| rng.index(l)).collect() };
        for op in 0..1 + rng.index(40) {
            let p = if rng.uniform() < 0.5 {
                point(&mut rng)
            } else {
                wide(&mut rng)
            };
            let context = format!("case {case}, op {op}, levels {levels:?}, point {p:?}");
            if rng.uniform() < 0.4 {
                let fitness = if rng.uniform() < 0.1 {
                    -250.0
                } else {
                    -50.0 - 400.0 * rng.uniform()
                };
                model.update(&p, fitness);
                reference.update(&p, fitness);
            }
            let k = [1.4, 0.0, 3.0 * rng.uniform()][rng.index(3)];
            assert_eq!(
                model.ucb(&p, k).to_bits(),
                reference.ucb(&p, k).to_bits(),
                "{context}: ucb (k = {k})"
            );
            assert_eq!(
                model.value(&p).to_bits(),
                reference.value(&p).to_bits(),
                "{context}: value"
            );
        }
    }
}
