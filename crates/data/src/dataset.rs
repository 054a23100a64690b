//! The [`Dataset`] container: a feature matrix plus integer labels.

use nebula_tensor::{NebulaRng, Tensor};

/// A labelled classification dataset.
///
/// `x` is `n × d` (row per sample), `y` holds class indices in
/// `[0, classes)`. The class count is carried explicitly because a device's
/// local dataset typically contains only a subset of the global classes.
#[derive(Clone, Debug)]
pub struct Dataset {
    x: Tensor,
    y: Vec<usize>,
    classes: usize,
}

impl Dataset {
    /// Creates a dataset, validating shapes and label ranges.
    pub fn new(x: Tensor, y: Vec<usize>, classes: usize) -> Self {
        assert_eq!(x.rank(), 2, "dataset features must be rank-2");
        assert_eq!(x.rows(), y.len(), "feature/label count mismatch");
        assert!(y.iter().all(|&c| c < classes), "label out of range");
        Self { x, y, classes }
    }

    /// An empty dataset with the given feature width and class count.
    pub fn empty(feature_dim: usize, classes: usize) -> Self {
        Self { x: Tensor::zeros(&[0, feature_dim]), y: Vec::new(), classes }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// True when the dataset holds no samples.
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }

    /// Feature dimensionality.
    pub fn feature_dim(&self) -> usize {
        self.x.cols()
    }

    /// Number of classes in the global task this dataset belongs to.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// The feature matrix.
    pub fn features(&self) -> &Tensor {
        &self.x
    }

    /// The labels.
    pub fn labels(&self) -> &[usize] {
        &self.y
    }

    /// Set of distinct classes present, sorted ascending.
    pub fn present_classes(&self) -> Vec<usize> {
        let mut c: Vec<usize> = self.y.clone();
        c.sort_unstable();
        c.dedup();
        c
    }

    /// Per-class sample counts (length = `classes`).
    pub fn class_histogram(&self) -> Vec<usize> {
        let mut h = vec![0usize; self.classes];
        for &c in &self.y {
            h[c] += 1;
        }
        h
    }

    /// Selects a subset by sample indices.
    pub fn subset(&self, idx: &[usize]) -> Dataset {
        Dataset {
            x: self.x.gather_rows(idx),
            y: idx.iter().map(|&i| self.y[i]).collect(),
            classes: self.classes,
        }
    }

    /// Concatenates two datasets over the same task.
    pub fn concat(&self, other: &Dataset) -> Dataset {
        assert_eq!(self.feature_dim(), other.feature_dim(), "feature dims differ");
        assert_eq!(self.classes, other.classes, "class counts differ");
        let mut data = self.x.data().to_vec();
        data.extend_from_slice(other.x.data());
        let mut y = self.y.clone();
        y.extend_from_slice(&other.y);
        Dataset {
            x: Tensor::from_vec(data, &[self.len() + other.len(), self.feature_dim()]),
            y,
            classes: self.classes,
        }
    }

    /// Randomly splits into `(left, right)` with `left_frac` of the samples
    /// on the left (rounded down, at least 0).
    pub fn split(&self, left_frac: f32, rng: &mut NebulaRng) -> (Dataset, Dataset) {
        assert!((0.0..=1.0).contains(&left_frac), "left_frac out of range");
        let mut idx: Vec<usize> = (0..self.len()).collect();
        rng.shuffle(&mut idx);
        let cut = (self.len() as f32 * left_frac) as usize;
        (self.subset(&idx[..cut]), self.subset(&idx[cut..]))
    }

    /// Iterates over shuffled mini-batches of `(features, labels)`.
    pub fn batches(&self, batch_size: usize, rng: &mut NebulaRng) -> Vec<(Tensor, Vec<usize>)> {
        assert!(batch_size > 0, "batch size must be positive");
        let mut idx: Vec<usize> = (0..self.len()).collect();
        rng.shuffle(&mut idx);
        idx.chunks(batch_size)
            .map(|chunk| {
                let sub = self.subset(chunk);
                (sub.x, sub.y)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        let x = Tensor::matrix(&[&[0.0, 0.0], &[1.0, 1.0], &[2.0, 2.0], &[3.0, 3.0]]);
        Dataset::new(x, vec![0, 1, 0, 2], 3)
    }

    #[test]
    fn basic_accessors() {
        let d = toy();
        assert_eq!(d.len(), 4);
        assert_eq!(d.feature_dim(), 2);
        assert_eq!(d.classes(), 3);
        assert_eq!(d.present_classes(), vec![0, 1, 2]);
        assert_eq!(d.class_histogram(), vec![2, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn rejects_out_of_range_label() {
        Dataset::new(Tensor::zeros(&[1, 2]), vec![5], 3);
    }

    #[test]
    fn subset_selects_rows() {
        let d = toy();
        let s = d.subset(&[3, 0]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.labels(), &[2, 0]);
        assert_eq!(s.features().row(0), &[3.0, 3.0]);
    }

    #[test]
    fn concat_appends() {
        let d = toy();
        let c = d.concat(&d);
        assert_eq!(c.len(), 8);
        assert_eq!(c.labels()[4..], d.labels()[..]);
    }

    #[test]
    fn split_partitions_all_samples() {
        let d = toy();
        let mut rng = NebulaRng::seed(1);
        let (l, r) = d.split(0.5, &mut rng);
        assert_eq!(l.len() + r.len(), d.len());
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn batches_cover_every_sample_once() {
        let d = toy();
        let mut rng = NebulaRng::seed(2);
        let batches = d.batches(3, &mut rng);
        assert_eq!(batches.len(), 2);
        let total: usize = batches.iter().map(|(_, y)| y.len()).sum();
        assert_eq!(total, 4);
    }

    #[test]
    fn empty_dataset_behaves() {
        let d = Dataset::empty(5, 2);
        assert!(d.is_empty());
        assert_eq!(d.feature_dim(), 5);
        assert_eq!(d.class_histogram(), vec![0, 0]);
    }
}
