//! Labelled datasets and mini-batch sampling.

use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A labelled feature dataset.
///
/// # Examples
///
/// ```
/// use qoc_data::dataset::Dataset;
///
/// let ds = Dataset::new(vec![vec![0.0], vec![1.0]], vec![0, 1], 2);
/// assert_eq!(ds.len(), 2);
/// assert_eq!(ds.feature_dim(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    features: Vec<Vec<f64>>,
    labels: Vec<usize>,
    num_classes: usize,
}

impl Dataset {
    /// Creates a dataset.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch, ragged features, or labels outside
    /// `0..num_classes`.
    pub fn new(features: Vec<Vec<f64>>, labels: Vec<usize>, num_classes: usize) -> Self {
        assert_eq!(features.len(), labels.len(), "feature/label count mismatch");
        if let Some(first) = features.first() {
            let dim = first.len();
            assert!(
                features.iter().all(|f| f.len() == dim),
                "ragged feature rows"
            );
        }
        assert!(
            labels.iter().all(|&l| l < num_classes),
            "label outside 0..{num_classes}"
        );
        Dataset {
            features,
            labels,
            num_classes,
        }
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// Returns `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    /// Feature dimension (0 when empty).
    pub fn feature_dim(&self) -> usize {
        self.features.first().map_or(0, Vec::len)
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// One example.
    pub fn example(&self, i: usize) -> (&[f64], usize) {
        (&self.features[i], self.labels[i])
    }

    /// All feature rows.
    pub fn features(&self) -> &[Vec<f64>] {
        &self.features
    }

    /// All labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// The first `n` examples (the paper's "front N images" train split).
    ///
    /// # Panics
    ///
    /// Panics if `n > len`.
    pub fn take_front(&self, n: usize) -> Dataset {
        assert!(n <= self.len(), "requested {n} of {} examples", self.len());
        Dataset {
            features: self.features[..n].to_vec(),
            labels: self.labels[..n].to_vec(),
            num_classes: self.num_classes,
        }
    }

    /// A random sample of `n` examples without replacement (the paper's
    /// "randomly sampled 300 images" validation split).
    ///
    /// # Panics
    ///
    /// Panics if `n > len`.
    pub fn sample<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Dataset {
        assert!(n <= self.len(), "requested {n} of {} examples", self.len());
        let mut idx: Vec<usize> = (0..self.len()).collect();
        idx.shuffle(rng);
        idx.truncate(n);
        Dataset {
            features: idx.iter().map(|&i| self.features[i].clone()).collect(),
            labels: idx.iter().map(|&i| self.labels[i]).collect(),
            num_classes: self.num_classes,
        }
    }

    /// Samples a mini-batch of indices without replacement (the whole set if
    /// `batch >= len`).
    pub fn sample_batch<R: Rng + ?Sized>(&self, batch: usize, rng: &mut R) -> Vec<usize> {
        if batch >= self.len() {
            return (0..self.len()).collect();
        }
        let mut idx: Vec<usize> = (0..self.len()).collect();
        idx.shuffle(rng);
        idx.truncate(batch);
        idx
    }

    /// Per-class example counts.
    pub fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_classes];
        for &l in &self.labels {
            counts[l] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn make(n: usize) -> Dataset {
        let features = (0..n).map(|i| vec![i as f64, 2.0 * i as f64]).collect();
        let labels = (0..n).map(|i| i % 3).collect();
        Dataset::new(features, labels, 3)
    }

    #[test]
    fn basic_accessors() {
        let ds = make(9);
        assert_eq!(ds.len(), 9);
        assert_eq!(ds.feature_dim(), 2);
        assert_eq!(ds.num_classes(), 3);
        assert_eq!(ds.example(4), (&[4.0, 8.0][..], 1));
        assert_eq!(ds.class_counts(), vec![3, 3, 3]);
    }

    #[test]
    fn take_front_is_prefix() {
        let ds = make(10).take_front(4);
        assert_eq!(ds.len(), 4);
        assert_eq!(ds.labels(), &[0, 1, 2, 0]);
    }

    #[test]
    fn sample_without_replacement() {
        let ds = make(20);
        let mut rng = StdRng::seed_from_u64(1);
        let s = ds.sample(10, &mut rng);
        assert_eq!(s.len(), 10);
        let mut firsts: Vec<i64> = s.features().iter().map(|f| f[0] as i64).collect();
        firsts.sort_unstable();
        firsts.dedup();
        assert_eq!(firsts.len(), 10, "sampled with replacement");
    }

    #[test]
    fn batch_without_replacement_and_full_fallback() {
        let ds = make(8);
        let mut rng = StdRng::seed_from_u64(2);
        let b = ds.sample_batch(4, &mut rng);
        assert_eq!(b.len(), 4);
        let mut sorted = b.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 4);
        assert_eq!(ds.sample_batch(100, &mut rng), (0..8).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "label outside")]
    fn rejects_bad_labels() {
        let _ = Dataset::new(vec![vec![0.0]], vec![5], 3);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn rejects_length_mismatch() {
        let _ = Dataset::new(vec![vec![0.0]], vec![], 1);
    }
}
