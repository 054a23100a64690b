//! Class-conditional Gaussian-mixture synthesiser.
//!
//! The generator fixes a *geometry* from a seed — per-class anchor
//! directions, per-class cluster centres, a random mixing matrix, and
//! per-context affine sensor transforms — and then samples datasets from
//! it. Keeping the geometry fixed while varying the sampled subset is what
//! lets the same "global task" be observed by many devices under label
//! skew, feature skew and drift, exactly like a deployed sensing task.
//!
//! Pipeline per sample of class `c` in context `k`:
//!
//! ```text
//! z  = cluster_centre(c, j) + noise_std · N(0, I)      (mixture draw)
//! z' = scale_k ⊙ z + bias_k                            (context transform)
//! x  = tanh(M · z')                                    (fixed nonlinearity)
//! ```
//!
//! The `tanh(M·)` stage bounds features and makes the task non-linear so
//! the MLP substrates are actually exercised.
//!
//! Sampling is split in two. A *plan* ([`Synthesizer::plan_weighted`])
//! makes every draw of the call on the caller's stream, in the sampler's
//! order: per row the class, the cluster, the row's `d` Gaussian noise
//! draws and the label-noise draws. It skips past the noise without
//! computing it, and saves a copy of the stream where each block of 64
//! rows starts. A *fill* ([`Synthesizer::fill`]) replays each block from
//! its copy, noise included, and computes its rows. A block reads no
//! other stream, so blocks fill on [`par::map`] in any order at any
//! thread budget with the same bits.

use crate::dataset::Dataset;
use nebula_tensor::{par, NebulaRng, Tensor};

/// Rows per [`par::map`] job in [`Synthesizer::fill`]. A row costs a few
/// microseconds (its `d` Box–Muller draws and `d` `tanh`s), so a block
/// is hundreds of them, well above what handing out a job costs.
const BLOCK_ROWS: usize = 64;

/// Parameters of a synthetic classification task.
#[derive(Clone, Debug)]
pub struct SynthSpec {
    /// Number of classes in the global task.
    pub classes: usize,
    /// Output feature dimensionality.
    pub feature_dim: usize,
    /// Gaussian clusters per class (sub-modes of a class).
    pub clusters_per_class: usize,
    /// Distance of class anchors from the origin (higher = easier).
    pub class_separation: f32,
    /// Spread of a class's cluster centres around its anchor.
    pub cluster_spread: f32,
    /// Sample noise around a cluster centre (higher = harder).
    pub noise_std: f32,
    /// Fraction of labels flipped uniformly at random.
    pub label_noise: f32,
    /// Number of sensing contexts (subjects / scenes) for feature skew.
    pub contexts: usize,
    /// Magnitude of the per-context affine transform (0 disables skew).
    pub context_shift: f32,
}

impl SynthSpec {
    /// A small, easy default used by tests.
    pub fn toy() -> Self {
        Self {
            classes: 4,
            feature_dim: 16,
            clusters_per_class: 2,
            class_separation: 3.0,
            cluster_spread: 1.0,
            noise_std: 0.6,
            label_noise: 0.0,
            contexts: 4,
            context_shift: 0.3,
        }
    }
}

/// A frozen task geometry from which datasets are sampled.
#[derive(Clone, Debug)]
pub struct Synthesizer {
    spec: SynthSpec,
    /// `classes × clusters_per_class` cluster centres, each of latent dim.
    centres: Vec<Tensor>,
    /// Per-context feature scale (latent dim).
    ctx_scale: Vec<Vec<f32>>,
    /// Per-context feature bias (latent dim).
    ctx_bias: Vec<Vec<f32>>,
    /// The fixed mixing matrix `M` (`feature_dim × latent_dim`), stored
    /// transposed: entry `k · d + i` is `M[i][k]`, so column `k` of `M`
    /// is contiguous.
    mix_t: Vec<f32>,
}

/// One sampling call, its draws made but no feature computed;
/// [`Synthesizer::fill`] turns it into its dataset.
#[derive(Clone, Debug)]
pub struct SamplePlan {
    /// The dataset's feature and label buffers, allocated by the thread
    /// that planned it.
    x: Vec<f32>,
    y: Vec<usize>,
    draws: Draws,
}

/// What a fill replays: the call's arguments, and the stream where each
/// block of [`BLOCK_ROWS`] rows starts.
#[derive(Clone, Debug)]
struct Draws {
    classes: Vec<usize>,
    weights: Vec<f32>,
    context: usize,
    starts: Vec<NebulaRng>,
}

impl Synthesizer {
    /// Builds the task geometry deterministically from `seed`.
    pub fn new(spec: SynthSpec, seed: u64) -> Self {
        assert!(spec.classes > 0 && spec.feature_dim > 0 && spec.clusters_per_class > 0);
        assert!(spec.contexts > 0, "need at least one context");
        let mut rng = NebulaRng::seed(seed);
        let d = spec.feature_dim;

        let mut centres = Vec::with_capacity(spec.classes * spec.clusters_per_class);
        for _ in 0..spec.classes {
            // Class anchor: random direction scaled to class_separation.
            let mut anchor: Vec<f32> = (0..d).map(|_| rng.normal_f32(0.0, 1.0)).collect();
            let norm = anchor.iter().map(|v| v * v).sum::<f32>().sqrt().max(1e-6);
            anchor.iter_mut().for_each(|v| *v *= spec.class_separation / norm);
            for _ in 0..spec.clusters_per_class {
                let centre: Vec<f32> =
                    anchor.iter().map(|&a| a + rng.normal_f32(0.0, spec.cluster_spread)).collect();
                centres.push(Tensor::vector(&centre));
            }
        }

        let mut ctx_scale = Vec::with_capacity(spec.contexts);
        let mut ctx_bias = Vec::with_capacity(spec.contexts);
        for k in 0..spec.contexts {
            if k == 0 || spec.context_shift == 0.0 {
                // Context 0 is the canonical sensing condition.
                ctx_scale.push(vec![1.0; d]);
                ctx_bias.push(vec![0.0; d]);
            } else {
                ctx_scale.push((0..d).map(|_| 1.0 + rng.normal_f32(0.0, spec.context_shift)).collect());
                ctx_bias.push((0..d).map(|_| rng.normal_f32(0.0, spec.context_shift)).collect());
            }
        }

        // Mixing matrix with 1/sqrt(d) scaling keeps tanh inputs in a
        // useful range.
        let scale = 1.0 / (d as f32).sqrt();
        // Drawn row by row, stored column by column.
        let mix: Vec<f32> = (0..d * d).map(|_| rng.normal_f32(0.0, scale)).collect();
        let mix_t = (0..d * d).map(|t| mix[(t % d) * d + t / d]).collect();

        Self { spec, centres, ctx_scale, ctx_bias, mix_t }
    }

    /// The task spec this synthesiser realises.
    pub fn spec(&self) -> &SynthSpec {
        &self.spec
    }

    fn centre(&self, class: usize, cluster: usize) -> &Tensor {
        &self.centres[class * self.spec.clusters_per_class + cluster]
    }

    /// Samples `n` points restricted to `classes`, drawn uniformly over the
    /// listed classes, observed in sensing context `context`.
    pub fn sample_classes(
        &self,
        n: usize,
        classes: &[usize],
        context: usize,
        rng: &mut NebulaRng,
    ) -> Dataset {
        self.fill_one(self.plan_classes(n, classes, context, rng))
    }

    /// Samples `n` points over all classes uniformly.
    pub fn sample(&self, n: usize, context: usize, rng: &mut NebulaRng) -> Dataset {
        let all: Vec<usize> = (0..self.spec.classes).collect();
        self.sample_classes(n, &all, context, rng)
    }

    /// Samples with per-class weights (over the listed classes).
    pub fn sample_weighted(
        &self,
        n: usize,
        classes: &[usize],
        weights: &[f32],
        context: usize,
        rng: &mut NebulaRng,
    ) -> Dataset {
        self.fill_one(self.plan_weighted(n, classes, weights, context, rng))
    }

    /// The draws of [`Self::sample_classes`], leaving `rng` where that call
    /// would.
    pub fn plan_classes(
        &self,
        n: usize,
        classes: &[usize],
        context: usize,
        rng: &mut NebulaRng,
    ) -> SamplePlan {
        assert!(!classes.is_empty(), "need at least one class to sample");
        assert!(classes.iter().all(|&c| c < self.spec.classes), "class out of range");
        let weights = vec![1.0f32; classes.len()];
        self.plan_weighted(n, classes, &weights, context, rng)
    }

    /// The draws of [`Self::sample_weighted`], leaving `rng` where that
    /// call would.
    pub fn plan_weighted(
        &self,
        n: usize,
        classes: &[usize],
        weights: &[f32],
        context: usize,
        rng: &mut NebulaRng,
    ) -> SamplePlan {
        assert_eq!(classes.len(), weights.len(), "class/weight length mismatch");
        assert!(context < self.spec.contexts, "context {context} out of range");
        let d = self.spec.feature_dim;
        // The dataset's buffers come from the planning thread, before the
        // draws: fill jobs only write into them (DESIGN §9).
        let (x, y) = (vec![0.0; n * d], vec![0; n]);
        let mut starts = Vec::with_capacity(n.div_ceil(BLOCK_ROWS));
        for row in 0..n {
            if row % BLOCK_ROWS == 0 {
                starts.push(rng.clone());
            }
            self.draw_row(classes, weights, rng, |rng, _| {
                // `normal_f32` consumes nothing when `std <= 0`.
                if self.spec.noise_std > 0.0 {
                    (0..d).for_each(|_| rng.skip_normal());
                }
            });
        }
        let draws = Draws { classes: classes.to_vec(), weights: weights.to_vec(), context, starts };
        SamplePlan { x, y, draws }
    }

    /// Computes every plan's rows and returns their datasets in plan
    /// order.
    ///
    /// The blocks of 64 rows are computed on [`par::map`], into the
    /// buffers each plan holds, so nothing a job allocates outlives it. A
    /// block replays the sampler from the stream its plan saved and reads
    /// no other, so the result is the same at any thread budget.
    pub fn fill(&self, mut plans: Vec<SamplePlan>) -> Vec<Dataset> {
        let d = self.spec.feature_dim;
        let blocks: Vec<_> = plans
            .iter_mut()
            .flat_map(|p| {
                let draws = &p.draws;
                let rows = p.x.chunks_mut(BLOCK_ROWS * d).zip(p.y.chunks_mut(BLOCK_ROWS));
                draws.starts.iter().zip(rows).map(move |(start, (x, y))| (draws, start, x, y))
            })
            .collect();
        par::map(blocks, |(draws, start, x, y)| self.fill_block(draws, start, x, y));
        plans
            .into_iter()
            .map(|p| Dataset::new(Tensor::from_vec(p.x, &[p.y.len(), d]), p.y, self.spec.classes))
            .collect()
    }

    fn fill_one(&self, plan: SamplePlan) -> Dataset {
        self.fill(vec![plan]).pop().expect("one plan fills one dataset")
    }

    /// One row's draws, in the sampler's order: the class, the cluster,
    /// the `d` noise draws (`noise` makes them, given the row's centre),
    /// then the label noise. Returns the row's label.
    fn draw_row(
        &self,
        classes: &[usize],
        weights: &[f32],
        rng: &mut NebulaRng,
        noise: impl FnOnce(&mut NebulaRng, &[f32]),
    ) -> usize {
        let class = classes[rng.weighted_index(weights)];
        let cluster = rng.below(self.spec.clusters_per_class);
        noise(rng, self.centre(class, cluster).data());
        if self.spec.label_noise > 0.0 && rng.bernoulli(self.spec.label_noise as f64) {
            *rng.choose(classes)
        } else {
            class
        }
    }

    /// Replays the block of `draws` that starts at `start`, writing its
    /// rows into `x` (`y.len() × d`) and their labels into `y`:
    /// `x = tanh(M · (scale ⊙ (centre + noise) + bias))`.
    fn fill_block(&self, draws: &Draws, start: &NebulaRng, x: &mut [f32], y: &mut [usize]) {
        let d = self.spec.feature_dim;
        let (scale, bias) = (&self.ctx_scale[draws.context], &self.ctx_bias[draws.context]);
        // The latent row, then lanes 1–3 of the product (lane 0 sums in
        // the output row itself).
        let mut scratch = vec![0.0f32; 4 * d];
        let (latent, lanes) = scratch.split_at_mut(d);
        let mut rng = start.clone();
        for (out, label) in x.chunks_exact_mut(d).zip(y.iter_mut()) {
            *label = self.draw_row(&draws.classes, &draws.weights, &mut rng, |rng, centre| {
                for ((l, &c), (&s, &b)) in latent.iter_mut().zip(centre).zip(scale.iter().zip(bias)) {
                    let z = c + rng.normal_f32(0.0, self.spec.noise_std);
                    *l = s * z + b;
                }
            });
            self.mix_into(latent, lanes, out);
            out.iter_mut().for_each(|v| *v = v.tanh());
        }
    }

    /// `out = M · z`, all `d` outputs at once, each summed exactly as
    /// `dot_slices(M[i], z)` sums it: four lane chains over ascending
    /// chunks of four, combined `((a0 + a1) + a2) + a3`, then the tail in
    /// ascending order, every term a multiply then an add. `lanes` is
    /// scratch of `3 · d`.
    fn mix_into(&self, z: &[f32], lanes: &mut [f32], out: &mut [f32]) {
        let d = z.len();
        let (a1, rest) = lanes.split_at_mut(d);
        let (a2, a3) = rest.split_at_mut(d);
        for acc in [&mut *out, &mut *a1, &mut *a2, &mut *a3] {
            acc.fill(0.0);
        }
        let body = d / 4 * 4;
        let (cols, tail_cols) = self.mix_t.split_at(body * d);
        for (zs, cols) in z[..body].chunks_exact(4).zip(cols.chunks_exact(4 * d)) {
            for (acc, (&zk, col)) in
                [&mut *out, &mut *a1, &mut *a2, &mut *a3].into_iter().zip(zs.iter().zip(cols.chunks_exact(d)))
            {
                for (a, &m) in acc.iter_mut().zip(col) {
                    *a += m * zk;
                }
            }
        }
        for (((a, &b1), &b2), &b3) in out.iter_mut().zip(&*a1).zip(&*a2).zip(&*a3) {
            *a = ((*a + b1) + b2) + b3;
        }
        for (&zk, col) in z[body..].iter().zip(tail_cols.chunks_exact(d)) {
            for (a, &m) in out.iter_mut().zip(col) {
                *a += m * zk;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn geometry_is_deterministic_from_seed() {
        let a = Synthesizer::new(SynthSpec::toy(), 7);
        let b = Synthesizer::new(SynthSpec::toy(), 7);
        let mut ra = NebulaRng::seed(1);
        let mut rb = NebulaRng::seed(1);
        let da = a.sample(20, 0, &mut ra);
        let db = b.sample(20, 0, &mut rb);
        assert_eq!(da.features().data(), db.features().data());
        assert_eq!(da.labels(), db.labels());
    }

    #[test]
    fn different_seeds_give_different_geometry() {
        let a = Synthesizer::new(SynthSpec::toy(), 1);
        let b = Synthesizer::new(SynthSpec::toy(), 2);
        let mut ra = NebulaRng::seed(3);
        let mut rb = NebulaRng::seed(3);
        assert_ne!(a.sample(10, 0, &mut ra).features().data(), b.sample(10, 0, &mut rb).features().data());
    }

    #[test]
    fn sample_classes_restricts_labels() {
        let s = Synthesizer::new(SynthSpec::toy(), 5);
        let mut rng = NebulaRng::seed(1);
        let d = s.sample_classes(50, &[1, 3], 0, &mut rng);
        assert!(d.labels().iter().all(|&c| c == 1 || c == 3));
        assert_eq!(d.classes(), 4);
    }

    #[test]
    fn features_are_bounded_by_tanh() {
        let s = Synthesizer::new(SynthSpec::toy(), 5);
        let mut rng = NebulaRng::seed(2);
        let d = s.sample(100, 0, &mut rng);
        assert!(d.features().data().iter().all(|&v| (-1.0..=1.0).contains(&v)));
    }

    #[test]
    fn contexts_shift_feature_distribution() {
        let mut spec = SynthSpec::toy();
        spec.context_shift = 0.8;
        let s = Synthesizer::new(spec, 5);
        let mut rng = NebulaRng::seed(3);
        let d0 = s.sample_classes(500, &[0], 0, &mut rng);
        let d1 = s.sample_classes(500, &[0], 1, &mut rng);
        let m0 = d0.features().mean_rows();
        let m1 = d1.features().mean_rows();
        let dist = m0.sub(&m1).norm();
        assert!(dist > 0.1, "contexts should shift the feature mean (dist {dist})");
    }

    #[test]
    fn classes_are_separable_enough_to_learn() {
        // 1-NN on class means should beat chance comfortably: the generator
        // must produce learnable structure.
        let s = Synthesizer::new(SynthSpec::toy(), 9);
        let mut rng = NebulaRng::seed(4);
        let train = s.sample(400, 0, &mut rng);
        let test = s.sample(200, 0, &mut rng);
        // Class means from train.
        let d = train.feature_dim();
        let mut means = vec![vec![0.0f32; d]; 4];
        let mut counts = vec![0usize; 4];
        for i in 0..train.len() {
            let c = train.labels()[i];
            counts[c] += 1;
            for (m, &v) in means[c].iter_mut().zip(train.features().row(i)) {
                *m += v;
            }
        }
        for (m, &c) in means.iter_mut().zip(&counts) {
            m.iter_mut().for_each(|v| *v /= c.max(1) as f32);
        }
        let mut correct = 0;
        for i in 0..test.len() {
            let row = test.features().row(i);
            let pred = (0..4)
                .min_by(|&a, &b| {
                    let da: f32 = means[a].iter().zip(row).map(|(m, v)| (m - v).powi(2)).sum();
                    let db: f32 = means[b].iter().zip(row).map(|(m, v)| (m - v).powi(2)).sum();
                    da.partial_cmp(&db).unwrap()
                })
                .unwrap();
            if pred == test.labels()[i] {
                correct += 1;
            }
        }
        let acc = correct as f32 / test.len() as f32;
        assert!(acc > 0.5, "nearest-mean accuracy only {acc}");
    }

    #[test]
    fn label_noise_flips_roughly_requested_fraction() {
        let mut spec = SynthSpec::toy();
        spec.label_noise = 0.5;
        spec.noise_std = 0.01;
        spec.clusters_per_class = 1;
        let s = Synthesizer::new(spec, 11);
        let mut rng = NebulaRng::seed(5);
        // Sampling a single class: with 50% label noise ~ 1/8 of labels
        // stay class 0 by the uniform re-draw among {0}, so all labels are
        // 0 when the candidate set is {0}. Use two classes instead.
        let d = s.sample_classes(2000, &[0, 1], 0, &mut rng);
        // At least some labels must differ from the nearest-anchor class —
        // crude but catches "label_noise ignored".
        let hist = d.class_histogram();
        assert!(hist[0] > 0 && hist[1] > 0);
    }

    /// Row `i` of the mixing matrix `M`.
    fn mix_row(s: &Synthesizer, i: usize) -> Vec<f32> {
        let d = s.spec.feature_dim;
        (0..d).map(|k| s.mix_t[k * d + i]).collect()
    }

    /// The serial sampler: every draw and every product in row order, one
    /// `dot_slices` per output.
    fn serial_sample(
        s: &Synthesizer,
        n: usize,
        classes: &[usize],
        weights: &[f32],
        context: usize,
        rng: &mut NebulaRng,
    ) -> (Vec<f32>, Vec<usize>) {
        let d = s.spec.feature_dim;
        let (scale, bias) = (&s.ctx_scale[context], &s.ctx_bias[context]);
        let (mut x, mut y) = (Vec::new(), Vec::new());
        let mut latent = vec![0.0f32; d];
        for _ in 0..n {
            let c = classes[rng.weighted_index(weights)];
            let j = rng.below(s.spec.clusters_per_class);
            for (i, l) in latent.iter_mut().enumerate() {
                let z = s.centre(c, j).data()[i] + rng.normal_f32(0.0, s.spec.noise_std);
                *l = scale[i] * z + bias[i];
            }
            x.extend((0..d).map(|i| nebula_tensor::ops::dot_slices(&mix_row(s, i), &latent).tanh()));
            let noisy = s.spec.label_noise > 0.0 && rng.bernoulli(s.spec.label_noise as f64);
            y.push(if noisy { *rng.choose(classes) } else { c });
        }
        (x, y)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn sampling_matches_the_serial_sampler_bit_for_bit(
            feature_dim in 1usize..19,
            classes in 1usize..6,
            noisy in 0usize..2,
            label_noise in 0usize..2,
            zeros in 0usize..3,
            n in 0usize..70,
            seed in 0u64..1000,
        ) {
            let spec = SynthSpec {
                classes,
                feature_dim,
                clusters_per_class: 3,
                noise_std: if noisy == 1 { 0.7 } else { 0.0 },
                label_noise: if label_noise == 1 { 0.3 } else { 0.0 },
                contexts: 3,
                ..SynthSpec::toy()
            };
            let s = Synthesizer::new(spec, seed);
            let listed: Vec<usize> = (0..classes).collect();
            // The first `zeros` classes get no weight (one always keeps some).
            let weights: Vec<f32> =
                (0..classes).map(|c| if c < zeros.min(classes - 1) { 0.0 } else { 1.0 + c as f32 }).collect();
            let context = (seed % 3) as usize;
            let mut rng = NebulaRng::seed(seed ^ 0x5A);
            let mut reference = rng.clone();
            let got = s.sample_weighted(n, &listed, &weights, context, &mut rng);
            let (x, y) = serial_sample(&s, n, &listed, &weights, context, &mut reference);
            let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(got.features().data()), bits(&x));
            prop_assert_eq!(got.labels(), &y[..]);
            prop_assert_eq!(rng.state(), reference.state());
        }
    }

    #[test]
    #[should_panic(expected = "context")]
    fn rejects_out_of_range_context() {
        let s = Synthesizer::new(SynthSpec::toy(), 1);
        let mut rng = NebulaRng::seed(1);
        s.sample(1, 99, &mut rng);
    }
}
