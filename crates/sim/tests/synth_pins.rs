//! Bit pins of the synthesised device population.
//!
//! Each digest covers everything a world's build draws: every device's
//! train and test features and labels, its sub-task metadata and RNG
//! state, the world RNG state, and the cloud's `proxy(2000)` and
//! `subtask_datasets(200)` drawn after it. One digest per preset ×
//! partitioner world, one for the testbed world, and one per drift kind
//! after three `advance_slot`s. A digest that moves means synthesis drew
//! or computed something differently; the thread budget must never move
//! one.

use nebula_data::drift::DriftKind;
use nebula_data::{Dataset, DriftModel, PartitionSpec, Partitioner, Synthesizer, TaskPreset};
use nebula_sim::{ResourceSampler, SimWorld};

const DEVICES: usize = 8;

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x1000_0000_01b3))
}

struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        self.0 = fnv1a(self.0, &v.to_le_bytes());
    }

    fn usizes(&mut self, vs: &[usize]) {
        self.u64(vs.len() as u64);
        vs.iter().for_each(|&v| self.u64(v as u64));
    }

    fn dataset(&mut self, d: &Dataset) {
        self.u64(d.classes() as u64);
        self.u64(d.feature_dim() as u64);
        self.usizes(d.labels());
        d.features().data().iter().for_each(|v| self.0 = fnv1a(self.0, &v.to_bits().to_le_bytes()));
    }

    fn rng(&mut self, state: [u64; 4]) {
        state.iter().for_each(|&w| self.u64(w));
    }
}

/// Every device's data, metadata and stream, then the world stream.
fn population(d: &mut Digest, w: &SimWorld) {
    for dev in &w.devices {
        d.u64(dev.id as u64);
        d.dataset(&dev.partition.data);
        d.usizes(&dev.partition.classes);
        d.u64(dev.partition.context as u64);
        d.u64(dev.partition.subtask as u64);
        d.dataset(&dev.test);
        d.u64(dev.resources.background_procs as u64);
        d.rng(dev.rng.state());
    }
    d.rng(w.rng_state());
}

/// The population, then the cloud-side sets drawn on the world stream.
fn world_digest(w: &mut SimWorld) -> u64 {
    let mut d = Digest::new();
    population(&mut d, w);
    d.dataset(&w.proxy(2000));
    for set in w.subtask_datasets(200) {
        d.dataset(&set);
    }
    d.rng(w.rng_state());
    d.0
}

fn partitioners(preset: TaskPreset) -> [Partitioner; 5] {
    let m = preset.skew_degrees().map_or(2, |[m, _]| m);
    [
        Partitioner::Iid,
        Partitioner::LabelSkew { m },
        Partitioner::FeatureSkew,
        Partitioner::Dirichlet { alpha: 0.5 },
        Partitioner::QuantitySkew { shape: 1.2 },
    ]
}

fn world(preset: TaskPreset, partitioner: Partitioner, drift: Option<DriftModel>) -> SimWorld {
    let synth = Synthesizer::new(preset.synth_spec(), 17);
    let spec = PartitionSpec::new(DEVICES, partitioner);
    SimWorld::new(synth, spec, 23, drift, &ResourceSampler::default(), 29)
}

fn check(what: &str, got: &[u64], want: &[u64]) {
    let listing: String = got.iter().map(|g| format!("        0x{g:016x},\n")).collect();
    assert_eq!(got, want, "{what} digests moved; now:\n{listing}");
}

#[test]
fn preset_worlds_keep_their_bits() {
    let mut got = Vec::new();
    for preset in TaskPreset::all() {
        for partitioner in partitioners(preset) {
            got.push(world_digest(&mut world(preset, partitioner, None)));
        }
    }
    #[rustfmt::skip]
    let want = [
        // HAR: Iid, LabelSkew, FeatureSkew, Dirichlet, QuantitySkew
        0x8cb8e4aa4c860c2b, 0xfa8777485966183b, 0x8a7d6342f7edba84, 0x7bc4d43271106b43, 0xed061fc7ddf8b658,
        // CIFAR-10: Iid, LabelSkew, FeatureSkew, Dirichlet, QuantitySkew
        0x6dd2df371e576bd7, 0x20777851e9f227d7, 0x38bccc7561528d29, 0xb737a87f2a49d07f, 0xde7f3d58236df277,
        // CIFAR-100: Iid, LabelSkew, FeatureSkew, Dirichlet, QuantitySkew
        0xdc5f848a4f2f0d96, 0xb1d95a41023e45dd, 0xa813847ef8a90ade, 0xb757e905b6cbf47f, 0x7e8d532f5bf900da,
        // Speech: Iid, LabelSkew, FeatureSkew, Dirichlet, QuantitySkew
        0x6d1127baaa8a0186, 0x3b6b707549198cf5, 0xc616dce8968c4420, 0xab9eb13abc53c28f, 0x4669ecc99167cd4a,
    ];
    check("preset × partitioner world", &got, &want);
}

#[test]
fn testbed_world_keeps_its_bits() {
    let synth = Synthesizer::new(TaskPreset::Cifar10.synth_spec(), 17);
    let spec = PartitionSpec::new(20, Partitioner::LabelSkew { m: 2 });
    let mut w = SimWorld::testbed(synth, spec, 23, None, 29).expect("a 20-device testbed spec");
    check("testbed world", &[world_digest(&mut w)], &[0x86d0_4a5b_9ef8_b8c3]);
}

#[test]
fn drifted_worlds_keep_their_bits() {
    let class_shift = DriftModel::new(0.5, DriftKind::ClassShift { m: 2, group_seed: 23 });
    let context_shift = DriftModel::new(0.3, DriftKind::ContextShift);
    let mut got = Vec::new();
    for (partitioner, drift) in
        [(Partitioner::LabelSkew { m: 2 }, class_shift), (Partitioner::FeatureSkew, context_shift)]
    {
        let mut w = world(TaskPreset::Cifar10, partitioner, Some(drift));
        for _ in 0..3 {
            w.advance_slot();
        }
        let mut d = Digest::new();
        d.u64(w.slot as u64);
        population(&mut d, &w);
        got.push(d.0);
    }
    check("drifted world", &got, &[0x1d04_8a8e_bdf4_9ddd, 0x2e5a_5c83_9f4a_728b]);
}
