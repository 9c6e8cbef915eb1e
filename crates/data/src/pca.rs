//! Principal component analysis.
//!
//! The vowel task "perform[s] principal component analysis (PCA) for the
//! vowel features and take[s] the 10 most significant dimensions". Built
//! from scratch: covariance matrix + cyclic Jacobi eigensolver (the feature
//! dimension is small, so Jacobi is simple and exact enough).

use serde::{Deserialize, Serialize};

/// Jacobi eigendecomposition of a symmetric matrix (row-major, `n × n`).
///
/// Returns `(eigenvalues, eigenvectors)` sorted by descending eigenvalue;
/// `eigenvectors[k]` is the unit eigenvector of `eigenvalues[k]`.
///
/// # Panics
///
/// Panics if `matrix.len() != n * n`.
pub fn symmetric_eigen(matrix: &[f64], n: usize) -> (Vec<f64>, Vec<Vec<f64>>) {
    assert_eq!(matrix.len(), n * n, "matrix size mismatch");
    let mut a = matrix.to_vec();
    // v starts as identity; columns accumulate the rotations.
    let mut v = vec![0.0; n * n];
    for i in 0..n {
        v[i * n + i] = 1.0;
    }
    let idx = |r: usize, c: usize| r * n + c;
    for _sweep in 0..100 {
        let mut off = 0.0;
        for p in 0..n {
            for q in p + 1..n {
                off += a[idx(p, q)] * a[idx(p, q)];
            }
        }
        if off < 1e-22 {
            break;
        }
        for p in 0..n {
            for q in p + 1..n {
                let apq = a[idx(p, q)];
                if apq.abs() < 1e-300 {
                    continue;
                }
                let app = a[idx(p, p)];
                let aqq = a[idx(q, q)];
                // Standard Jacobi rotation angle: tan(2φ) = 2a_pq/(a_pp−a_qq).
                let phi = 0.5 * (2.0 * apq).atan2(app - aqq);
                let (s, c) = phi.sin_cos();
                // Rotate rows/columns p and q.
                for k in 0..n {
                    let akp = a[idx(k, p)];
                    let akq = a[idx(k, q)];
                    a[idx(k, p)] = c * akp + s * akq;
                    a[idx(k, q)] = -s * akp + c * akq;
                }
                for k in 0..n {
                    let apk = a[idx(p, k)];
                    let aqk = a[idx(q, k)];
                    a[idx(p, k)] = c * apk + s * aqk;
                    a[idx(q, k)] = -s * apk + c * aqk;
                }
                for k in 0..n {
                    let vkp = v[idx(k, p)];
                    let vkq = v[idx(k, q)];
                    v[idx(k, p)] = c * vkp + s * vkq;
                    v[idx(k, q)] = -s * vkp + c * vkq;
                }
            }
        }
    }
    let mut pairs: Vec<(f64, Vec<f64>)> = (0..n)
        .map(|k| {
            (
                a[idx(k, k)],
                (0..n).map(|r| v[idx(r, k)]).collect::<Vec<f64>>(),
            )
        })
        .collect();
    pairs.sort_by(|x, y| y.0.total_cmp(&x.0));
    let (vals, vecs) = pairs.into_iter().unzip();
    (vals, vecs)
}

/// A fitted PCA transform.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Pca {
    mean: Vec<f64>,
    components: Vec<Vec<f64>>,
    explained_variance: Vec<f64>,
}

impl Pca {
    /// Fits a `k`-component PCA on row-vector samples.
    ///
    /// # Panics
    ///
    /// Panics when there are no samples, ragged rows, or `k` exceeds the
    /// feature dimension.
    pub fn fit(samples: &[Vec<f64>], k: usize) -> Self {
        assert!(!samples.is_empty(), "PCA needs at least one sample");
        let dim = samples[0].len();
        assert!(k <= dim, "cannot keep {k} components of {dim} dims");
        let n = samples.len() as f64;
        let mut mean = vec![0.0; dim];
        for s in samples {
            assert_eq!(s.len(), dim, "ragged sample rows");
            for (m, &x) in mean.iter_mut().zip(s) {
                *m += x;
            }
        }
        for m in &mut mean {
            *m /= n;
        }
        let mut cov = vec![0.0; dim * dim];
        for s in samples {
            for i in 0..dim {
                let di = s[i] - mean[i];
                for jj in i..dim {
                    let dj = s[jj] - mean[jj];
                    cov[i * dim + jj] += di * dj;
                }
            }
        }
        for i in 0..dim {
            for jj in i..dim {
                let val = cov[i * dim + jj] / n.max(1.0);
                cov[i * dim + jj] = val;
                cov[jj * dim + i] = val;
            }
        }
        let (vals, vecs) = symmetric_eigen(&cov, dim);
        Pca {
            mean,
            components: vecs.into_iter().take(k).collect(),
            explained_variance: vals.into_iter().take(k).collect(),
        }
    }

    /// Per-component variance explained, descending.
    pub fn explained_variance(&self) -> &[f64] {
        &self.explained_variance
    }

    /// Projects one sample onto the principal subspace.
    pub fn transform(&self, sample: &[f64]) -> Vec<f64> {
        assert_eq!(sample.len(), self.mean.len(), "dimension mismatch");
        self.components
            .iter()
            .map(|comp| {
                comp.iter()
                    .zip(sample.iter().zip(&self.mean))
                    .map(|(c, (x, m))| c * (x - m))
                    .sum()
            })
            .collect()
    }

    /// Projects a batch of samples.
    pub fn transform_batch(&self, samples: &[Vec<f64>]) -> Vec<Vec<f64>> {
        samples.iter().map(|s| self.transform(s)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eigen_of_diagonal_matrix() {
        let m = vec![3.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 2.0];
        let (vals, vecs) = symmetric_eigen(&m, 3);
        assert!((vals[0] - 3.0).abs() < 1e-10);
        assert!((vals[1] - 2.0).abs() < 1e-10);
        assert!((vals[2] - 1.0).abs() < 1e-10);
        assert!((vecs[0][0].abs() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn eigen_satisfies_definition() {
        // Symmetric 4×4 with known structure.
        let m = vec![
            4.0, 1.0, 0.5, 0.0, //
            1.0, 3.0, 0.2, 0.1, //
            0.5, 0.2, 2.0, 0.3, //
            0.0, 0.1, 0.3, 1.0,
        ];
        let (vals, vecs) = symmetric_eigen(&m, 4);
        for (lambda, vec) in vals.iter().zip(&vecs) {
            // ‖A·v − λ·v‖ small.
            for r in 0..4 {
                let av: f64 = (0..4).map(|c| m[r * 4 + c] * vec[c]).sum();
                assert!(
                    (av - lambda * vec[r]).abs() < 1e-8,
                    "eigenpair violated: λ={lambda}"
                );
            }
            let norm: f64 = vec.iter().map(|x| x * x).sum::<f64>().sqrt();
            assert!((norm - 1.0).abs() < 1e-8);
        }
        // Trace preserved.
        let trace: f64 = vals.iter().sum();
        assert!((trace - 10.0).abs() < 1e-8);
    }

    #[test]
    fn pca_finds_dominant_direction() {
        // Points spread along (1, 1)/√2 with small orthogonal noise.
        let samples: Vec<Vec<f64>> = (0..100)
            .map(|i| {
                let t = (i as f64 - 50.0) / 10.0;
                let eps = ((i * 7919) % 13) as f64 / 13.0 - 0.5;
                vec![t + 0.05 * eps, t - 0.05 * eps]
            })
            .collect();
        let pca = Pca::fit(&samples, 1);
        let comp = &pca.transform(&[1.0, 1.0]);
        // Projection of (1,1) onto the dominant axis has magnitude ≈ √2
        // (up to the sample-mean offset).
        assert!((comp[0].abs() - 2.0f64.sqrt()).abs() < 0.15);
        assert!(pca.explained_variance()[0] > 1.0);
    }

    #[test]
    fn transform_is_centered() {
        let samples = vec![vec![2.0, 0.0], vec![4.0, 0.0], vec![6.0, 0.0]];
        let pca = Pca::fit(&samples, 2);
        let center = pca.transform(&[4.0, 0.0]);
        assert!(center.iter().all(|c| c.abs() < 1e-9));
    }

    #[test]
    fn batch_matches_single() {
        let samples = vec![
            vec![1.0, 2.0, 3.0],
            vec![2.0, 1.0, 0.0],
            vec![0.0, 0.5, 1.5],
        ];
        let pca = Pca::fit(&samples, 2);
        let batch = pca.transform_batch(&samples);
        for (s, b) in samples.iter().zip(&batch) {
            assert_eq!(&pca.transform(s), b);
        }
    }

    #[test]
    #[should_panic(expected = "components")]
    fn rejects_too_many_components() {
        let _ = Pca::fit(&[vec![1.0, 2.0]], 3);
    }
}
