//! A small Gaussian-process regressor used by the BLISS-style tuner.
//!
//! BLISS maintains a pool of lightweight Bayesian-optimisation models; each model here is
//! a Gaussian process with an RBF kernel of a particular length scale. The implementation
//! is intentionally minimal (no hyper-parameter optimisation) because the model pool —
//! not any individual model — is what the BLISS design relies on.
//!
//! Two things keep it cheap inside a tuning loop, without changing a single output bit
//! relative to a dense refit and one solve per point:
//!
//! * [`fit`](GaussianProcess::fit) keeps the rows of the packed Cholesky factor whose
//!   inputs are unchanged since the last fit and factors only the new rows, so growing
//!   the data by one observation costs O(n²); a changed prefix (a sliding window)
//!   refactors from row 0. The factorisation is row-oriented (Cholesky–Banachiewicz):
//!   row `i` depends only on rows `0..=i`, so kept rows are the floats a full refactor
//!   would produce.
//! * [`predict_many`](GaussianProcess::predict_many) scores a batch of points with one
//!   forward solve blocked across the batch. Every point's sums run in the same order,
//!   from the same starting value, as the one-point solve, so the blocked results are
//!   bit-identical to it; [`predict`](GaussianProcess::predict) is the one-point batch.
//!   Building the kernel block skips dimensions that are zero in every input and point
//!   (pinned parameters), which add exactly `+0.0` to a squared distance, and computes
//!   the `exp` of each distinct squared distance once (grid inputs repeat a few hundred
//!   distances across a whole block).

/// A Gaussian process with a radial-basis-function kernel, fit to normalised inputs in
/// `[0, 1]^d`.
#[derive(Debug, Clone)]
pub struct GaussianProcess {
    length_scale: f64,
    noise: f64,
    inputs: Vec<Vec<f64>>,
    /// `(K + noise * I)^-1 * (y - mean)` from the last fit.
    alpha: Vec<f64>,
    /// Cholesky factor `L` of `K + noise * I`, lower triangle packed by rows: row `i`
    /// holds `L[i][0..=i]` at offset `i * (i + 1) / 2`.
    cholesky: Vec<f64>,
    y_mean: f64,
    y_std: f64,
}

/// The starting value of `Iterator::<Item = f64>::sum`, which the blocked sums must
/// share to stay bit-identical to the one-point solve.
fn sum_start() -> f64 {
    std::iter::empty::<f64>().sum()
}

/// Points per tile of a [`GaussianProcess::predict_many`] batch: a tile's kernel
/// block (inputs × tile) stays in cache while it is solved.
const TILE: usize = 64;

/// Offset of row `i` in the packed lower triangle.
fn row_start(i: usize) -> usize {
    i * (i + 1) / 2
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

impl GaussianProcess {
    /// Creates an unfit GP with the given RBF length scale and observation noise.
    ///
    /// # Panics
    ///
    /// Panics if `length_scale` or `noise` is not strictly positive.
    pub fn new(length_scale: f64, noise: f64) -> Self {
        assert!(length_scale > 0.0, "length scale must be positive");
        assert!(noise > 0.0, "noise must be positive");
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

    /// The kernel length scale.
    pub fn length_scale(&self) -> f64 {
        self.length_scale
    }

    /// True once [`fit`](Self::fit) has been called with at least one observation.
    pub fn is_fit(&self) -> bool {
        !self.inputs.is_empty()
    }

    /// The RBF kernel of a squared distance.
    fn kernel_of(&self, squared: f64) -> f64 {
        (-squared / (2.0 * self.length_scale * self.length_scale)).exp()
    }

    fn kernel(&self, a: &[f64], b: &[f64]) -> f64 {
        let squared: f64 = a.iter().zip(b.iter()).map(|(x, y)| (x - y) * (x - y)).sum();
        self.kernel_of(squared)
    }

    /// Fits the GP to `(inputs, targets)`.
    ///
    /// Targets are standardised internally so callers can pass raw execution times.
    /// Rows of the factor whose inputs (bit for bit, from the first one on) match the
    /// previous fit's are kept; only the rest are factored.
    ///
    /// # Panics
    ///
    /// Panics if the inputs and targets differ in length or are empty, or if the inputs
    /// differ in dimension.
    pub fn fit(&mut self, inputs: &[Vec<f64>], targets: &[f64]) {
        assert_eq!(
            inputs.len(),
            targets.len(),
            "inputs/targets length mismatch"
        );
        assert!(!inputs.is_empty(), "cannot fit a GP to zero observations");
        assert!(
            inputs.iter().all(|x| x.len() == inputs[0].len()),
            "input dimension mismatch"
        );
        let n = inputs.len();
        self.y_mean = dg_stats::mean(targets);
        self.y_std = dg_stats::std_dev(targets).max(1e-9);

        let kept = self
            .inputs
            .iter()
            .zip(inputs)
            .take_while(|(old, new)| same_bits(old, new))
            .count();
        self.inputs.truncate(kept);
        self.cholesky.truncate(row_start(kept));
        for (i, input) in inputs.iter().enumerate().skip(kept) {
            self.push_row(input, &inputs[..i]);
        }
        self.inputs.extend_from_slice(&inputs[kept..]);

        // Solve L z = y, then L^T alpha = z.
        let l = &self.cholesky;
        let mut z = vec![0.0; n];
        for i in 0..n {
            let row = &l[row_start(i)..row_start(i + 1)];
            let mut sum = (targets[i] - self.y_mean) / self.y_std;
            for (a, z_k) in row.iter().zip(&z[..i]) {
                sum -= a * z_k;
            }
            z[i] = sum / row[i];
        }
        let mut alpha = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = z[i];
            for (k, a) in alpha.iter().enumerate().skip(i + 1) {
                sum -= l[row_start(k) + i] * a;
            }
            alpha[i] = sum / l[row_start(i) + i];
        }
        self.alpha = alpha;
    }

    /// Appends row `i = earlier.len()` of the factor of `K + noise * I` for `input`,
    /// given the inputs of rows `0..i`: `L[i][j]` for `j = 0..=i` in turn.
    fn push_row(&mut self, input: &[f64], earlier: &[Vec<f64>]) {
        let i = earlier.len();
        let start = row_start(i);
        for j in 0..=i {
            let mut sum = if j == i {
                self.kernel(input, input) + self.noise
            } else {
                self.kernel(input, &earlier[j])
            };
            let l = &self.cholesky;
            let (row_i, row_j) = (&l[start..start + j], &l[row_start(j)..row_start(j) + j]);
            for (a, b) in row_i.iter().zip(row_j) {
                sum -= a * b;
            }
            let value = if j == i {
                sum.max(1e-12).sqrt()
            } else {
                sum / l[row_start(j) + j]
            };
            self.cholesky.push(value);
        }
    }

    /// Predictive mean and standard deviation at each of `points` (in the original
    /// target units), bit-identical to calling [`predict`](Self::predict) on each.
    ///
    /// Passing the same `scratch` on every call saves reallocating its buffers.
    ///
    /// # Panics
    ///
    /// Panics if the GP has not been fit, or if a point's dimension differs from the
    /// inputs'.
    pub fn predict_many<P: AsRef<[f64]>>(
        &self,
        points: &[P],
        scratch: &mut PredictScratch,
    ) -> Vec<(f64, f64)> {
        assert!(self.is_fit(), "predict called before fit");
        let width = self.inputs[0].len();
        assert!(
            points.iter().all(|p| p.as_ref().len() == width),
            "point dimension mismatch"
        );
        // Dimensions that are zero in every input and point add exactly +0.0 to each
        // squared distance, so they are left out.
        let dims: Vec<usize> = (0..width)
            .filter(|&d| {
                self.inputs.iter().any(|x| x[d] != 0.0)
                    || points.iter().any(|p| p.as_ref()[d] != 0.0)
            })
            .collect();
        scratch
            .memo
            .reset(self.kernel_of(0.0), self.inputs.len() * points.len());
        let mut predictions = Vec::with_capacity(points.len());
        for tile in points.chunks(TILE) {
            self.predict_tile(tile, &dims, scratch, &mut predictions);
        }
        predictions
    }

    /// Appends the predictions at `points`, one tile of a batch, to `out`.
    fn predict_tile<P: AsRef<[f64]>>(
        &self,
        points: &[P],
        dims: &[usize],
        scratch: &mut PredictScratch,
        out: &mut Vec<(f64, f64)>,
    ) {
        let m = points.len();
        let PredictScratch {
            block,
            columns,
            memo,
        } = scratch;
        columns.clear();
        for &d in dims {
            columns.extend(points.iter().map(|p| p.as_ref()[d]));
        }

        // Row `i` of the block holds k(input_i, point) for every point; each squared
        // distance sums its dimensions in order, as `kernel` does.
        block.clear();
        block.resize(self.inputs.len() * m, sum_start());
        for (x, row) in self.inputs.iter().zip(block.chunks_exact_mut(m)) {
            for (&d, column) in dims.iter().zip(columns.chunks_exact(m)) {
                let x_d = x[d];
                for (squared, p) in row.iter_mut().zip(column) {
                    *squared += (x_d - p) * (x_d - p);
                }
            }
            for entry in row.iter_mut() {
                *entry = memo.get(*entry, |squared| self.kernel_of(squared));
            }
        }

        // Per point: mean = k·alpha, then v = L^-1 k in place of k, and
        // variance = k(x,x) - v·v; row by row, so each point's sums run in `i` order.
        let mut mean = [sum_start(); TILE];
        let mut sum_sq = [sum_start(); TILE];
        for (i, &alpha) in self.alpha.iter().enumerate() {
            let l = &self.cholesky[row_start(i)..row_start(i + 1)];
            let (solved, rest) = block.split_at_mut(i * m);
            let row = &mut rest[..m];
            for (acc, k) in mean.iter_mut().zip(row.iter()) {
                *acc += k * alpha;
            }
            // Four solved rows per sweep keep each running sum in a register; the
            // subtractions still run in `k` order.
            let quads = l[..i].chunks_exact(4).zip(solved.chunks_exact(4 * m));
            for (l4, v4) in quads {
                let (v01, v23) = v4.split_at(2 * m);
                let ((v0, v1), (v2, v3)) = (v01.split_at(m), v23.split_at(m));
                let v = v0.iter().zip(v1).zip(v2.iter().zip(v3));
                for (sum, ((a, b), (c, d))) in row.iter_mut().zip(v) {
                    *sum = *sum - l4[0] * a - l4[1] * b - l4[2] * c - l4[3] * d;
                }
            }
            let tail = i - i % 4;
            for (lik, v_k) in l[tail..i].iter().zip(solved[tail * m..].chunks_exact(m)) {
                for (sum, v) in row.iter_mut().zip(v_k) {
                    *sum -= lik * v;
                }
            }
            for (v, acc) in row.iter_mut().zip(sum_sq.iter_mut()) {
                *v /= l[i];
                *acc += *v * *v;
            }
        }

        out.extend(
            mean.iter()
                .zip(&sum_sq)
                .take(m)
                .map(|(mean_standardized, sum_sq)| {
                    let variance_standardized = (1.0 + self.noise - sum_sq).max(1e-12);
                    (
                        mean_standardized * self.y_std + self.y_mean,
                        variance_standardized.sqrt() * self.y_std,
                    )
                }),
        );
    }

    /// Predictive mean and standard deviation at `point` (in the original target units).
    ///
    /// # Panics
    ///
    /// Panics if the GP has not been fit.
    pub fn predict(&self, point: &[f64]) -> (f64, f64) {
        self.predict_many(&[point], &mut PredictScratch::default())[0]
    }

    /// Expected improvement of `point` over the incumbent best target value
    /// (minimisation). Larger is better.
    ///
    /// # Panics
    ///
    /// Panics if the GP has not been fit.
    pub fn expected_improvement(&self, point: &[f64], best: f64) -> f64 {
        let (mean, std_dev) = self.predict(point);
        expected_improvement(mean, std_dev, best)
    }
}

/// Reusable buffers for [`GaussianProcess::predict_many`].
#[derive(Debug, Clone, Default)]
pub struct PredictScratch {
    /// The `inputs × tile` kernel block, solved in place.
    block: Vec<f64>,
    /// The points' non-zero dimensions, one contiguous column per dimension.
    columns: Vec<f64>,
    memo: KernelMemo,
}

/// A direct-mapped cache of kernel values by squared distance. Inputs on a grid
/// share few distinct distances, and the cache saves an `exp` for each repeat; a slot
/// always holds a valid `(squared distance, kernel value)` pair, so a miss simply
/// recomputes and overwrites it.
#[derive(Debug, Clone, Default)]
struct KernelMemo {
    slots: Vec<(u64, f64)>,
    /// `log2` of the slot count.
    bits: u32,
}

impl KernelMemo {
    /// Resets the cache for a new kernel, whose value at distance zero is `at_zero`,
    /// sized for about `lookups` lookups (at most 1024 slots).
    fn reset(&mut self, at_zero: f64, lookups: usize) {
        self.bits = lookups.next_power_of_two().trailing_zeros().clamp(4, 10);
        self.slots.clear();
        self.slots
            .resize(1 << self.bits, (0.0f64.to_bits(), at_zero));
    }

    /// The kernel value at `squared`, from the cache or else from `kernel_of`.
    fn get(&mut self, squared: f64, kernel_of: impl FnOnce(f64) -> f64) -> f64 {
        let key = squared.to_bits();
        let index = key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - self.bits);
        let slot = &mut self.slots[index as usize];
        if slot.0 != key {
            *slot = (key, kernel_of(squared));
        }
        slot.1
    }
}

/// Expected improvement over `best` (minimisation) of a prediction `(mean, std_dev)`.
pub(crate) fn expected_improvement(mean: f64, std_dev: f64, best: f64) -> f64 {
    if std_dev < 1e-12 {
        return (best - mean).max(0.0);
    }
    let z = (best - mean) / std_dev;
    let (pdf, cdf) = standard_normal(z);
    ((best - mean) * cdf + std_dev * pdf).max(0.0)
}

/// Standard normal PDF and CDF at `z` (Abramowitz–Stegun CDF approximation).
fn standard_normal(z: f64) -> (f64, f64) {
    let pdf = (-0.5 * z * z).exp() / (2.0 * std::f64::consts::PI).sqrt();
    // CDF via the error-function approximation.
    let t = 1.0 / (1.0 + 0.2316419 * z.abs());
    let poly = t
        * (0.319381530
            + t * (-0.356563782 + t * (1.781477937 + t * (-1.821255978 + t * 1.330274429))));
    let tail = pdf * poly;
    let cdf = if z >= 0.0 { 1.0 - tail } else { tail };
    (pdf, cdf)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_1d(n: usize) -> Vec<Vec<f64>> {
        (0..n).map(|i| vec![i as f64 / (n - 1) as f64]).collect()
    }

    #[test]
    fn interpolates_training_points() {
        let inputs = grid_1d(6);
        let targets: Vec<f64> = inputs.iter().map(|x| 100.0 + 50.0 * x[0]).collect();
        let mut gp = GaussianProcess::new(0.3, 1e-6);
        gp.fit(&inputs, &targets);
        for (x, y) in inputs.iter().zip(targets.iter()) {
            let (mean, _) = gp.predict(x);
            assert!((mean - y).abs() < 1.0, "predicted {mean}, expected {y}");
        }
    }

    #[test]
    fn uncertainty_grows_away_from_data() {
        let inputs = vec![vec![0.0], vec![0.1], vec![0.2]];
        let targets = vec![1.0, 2.0, 3.0];
        let mut gp = GaussianProcess::new(0.1, 1e-4);
        gp.fit(&inputs, &targets);
        let (_, near) = gp.predict(&[0.1]);
        let (_, far) = gp.predict(&[0.9]);
        assert!(far > near * 2.0, "near={near} far={far}");
    }

    #[test]
    fn expected_improvement_prefers_unexplored_promising_regions() {
        // Decreasing function: the minimum continues beyond the sampled range.
        let inputs = grid_1d(5);
        let targets: Vec<f64> = inputs.iter().map(|x| 10.0 - 5.0 * x[0]).collect();
        let mut gp = GaussianProcess::new(0.25, 1e-4);
        gp.fit(&inputs, &targets);
        let best = targets.iter().copied().fold(f64::INFINITY, f64::min);
        let ei_at_known_bad = gp.expected_improvement(&[0.0], best);
        let ei_at_frontier = gp.expected_improvement(&[1.0], best);
        assert!(ei_at_frontier >= ei_at_known_bad);
    }

    #[test]
    fn standard_normal_is_sane() {
        let (_, cdf0) = standard_normal(0.0);
        assert!((cdf0 - 0.5).abs() < 1e-3);
        let (_, cdf2) = standard_normal(2.0);
        assert!((cdf2 - 0.977).abs() < 5e-3);
        let (_, cdf_neg) = standard_normal(-2.0);
        assert!((cdf_neg - 0.023).abs() < 5e-3);
    }

    #[test]
    #[should_panic(expected = "before fit")]
    fn predict_before_fit_panics() {
        GaussianProcess::new(0.5, 1e-3).predict(&[0.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_fit_rejected() {
        GaussianProcess::new(0.5, 1e-3).fit(&[vec![0.0]], &[1.0, 2.0]);
    }
}
