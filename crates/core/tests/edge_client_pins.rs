//! Golden pins for what an [`EdgeClient`] hands back to the cloud.
//!
//! `sim/tests/round_golden.rs` digests cloud parameters and round stats;
//! nothing there sees a client whose update is wrong in a way the
//! aggregation happens to average out. These cases digest the
//! [`EdgeUpdate`] itself (FNV-1a over `f32::to_bits`) after the two paths
//! a device runs: `from_payload → adapt → make_update`, and
//! `install(other spec) → schedule_modules → adapt → restore_installed →
//! make_update`. The constants were captured before edge clients stopped
//! materialising modules they do not hold; a change of client
//! representation must leave them untouched.
//!
//! Each case also digests a *second* `make_update` at both points
//! (captured before updates started refilling spent download buffers):
//! building an update must neither disturb the client nor depend on what
//! an earlier call left behind.
//!
//! One test function under `KernelBackend::Blocked.scoped()`, for the
//! reasons given in `round_golden.rs`.

use nebula_core::{modular_config_for, EdgeClient, EdgeUpdate, NebulaCloud, NebulaParams};
use nebula_data::{Synthesizer, TaskPreset};
use nebula_modular::SubModelSpec;
use nebula_tensor::{KernelBackend, NebulaRng};

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn floats(&mut self, values: &[f32]) {
        self.word(values.len() as u64);
        for v in values {
            self.word(v.to_bits() as u64);
        }
    }

    fn update(&mut self, u: &EdgeUpdate) {
        self.word(u.spec.num_layers() as u64);
        for layer in u.spec.layers() {
            self.word(layer.len() as u64);
            for &i in layer {
                self.word(i as u64);
            }
        }
        self.word(u.module_params.len() as u64);
        for (&(l, i), params) in &u.module_params {
            self.word(l as u64);
            self.word(i as u64);
            self.floats(params);
        }
        self.floats(&u.shared_params);
        self.word(u.importance.len() as u64);
        for row in &u.importance {
            self.floats(row);
        }
        self.word(u.data_volume as u64);
    }
}

fn digest(u: &EdgeUpdate) -> u64 {
    let mut h = Fnv::new();
    h.update(u);
    h.0
}

/// `((fresh-client digest, reinstalled-and-rescheduled digest), digest of
/// the second `make_update` at those two points)`.
fn client_trajectory(task: TaskPreset, first: &SubModelSpec, second: &SubModelSpec) -> ((u64, u64), u64) {
    let cfg = modular_config_for(task);
    let cloud = NebulaCloud::new(cfg.clone(), NebulaParams::default(), 7);
    let synth = Synthesizer::new(task.synth_spec(), 1);
    let mut rng = NebulaRng::seed(5);
    let data = synth.sample(80, 0, &mut rng);

    let mut client = EdgeClient::from_payload(cfg, &cloud.dispatch(first));
    client.adapt(&data, 3, 16, 0.02, &mut rng);
    let fresh = client.make_update(&data);
    assert_eq!(&fresh.spec, first);
    let mut repeat = Fnv::new();
    repeat.update(&client.make_update(&data));

    client.install(&cloud.dispatch(second));
    client.schedule_modules(2, &data);
    client.adapt(&data, 3, 16, 0.02, &mut rng);
    client.restore_installed();
    let again = client.make_update(&data);
    assert_eq!(&again.spec, second);
    repeat.update(&client.make_update(&data));

    ((digest(&fresh), digest(&again)), repeat.0)
}

#[test]
fn edge_update_digests_are_pinned() {
    let _backend = KernelBackend::Blocked.scoped();

    // CIFAR-10 preset (4 × 16, module 15 is the parameter-free bypass):
    // the residual module, a single-module layer, and a second spec that
    // keeps, drops and adds modules relative to the first.
    let c10_first = SubModelSpec::new(vec![vec![0, 3, 15], vec![7], vec![1, 2, 4, 5], vec![9, 15]]);
    let c10_second = SubModelSpec::new(vec![vec![1, 3, 8, 15], vec![2, 7, 11], vec![0, 4], vec![5, 9, 10]]);
    // HAR preset (1 × 16).
    let har_first = SubModelSpec::new(vec![vec![2, 9, 15]]);
    let har_second = SubModelSpec::new(vec![vec![0, 2, 5, 11, 15]]);
    // A one-module-per-layer client (one layer holds only the bypass).
    let c10_thin = SubModelSpec::new(vec![vec![4], vec![15], vec![0], vec![12]]);

    let got = [
        client_trajectory(TaskPreset::Cifar10, &c10_first, &c10_second),
        client_trajectory(TaskPreset::Har, &har_first, &har_second),
        client_trajectory(TaskPreset::Cifar10, &c10_thin, &c10_first),
    ];
    assert_eq!(
        got.map(|(first, _)| first),
        PINNED,
        "an edge client's update moved: [c10, har, c10 thin] x (fresh, reinstalled)"
    );
    assert_eq!(
        got.map(|(_, repeat)| repeat),
        PINNED_REPEAT,
        "an edge client's second update moved: [c10, har, c10 thin]"
    );
}

/// `[c10, har, c10 thin]`, each `(fresh, reinstalled)`.
const PINNED: [(u64, u64); 3] = [
    (3136066193960720787, 8554787968082876586),
    (5531924951114594115, 1516696367413450457),
    (4822144695172842306, 784679698225934883),
];

/// `[c10, har, c10 thin]`: the second `make_update` after the fresh one
/// folded with the second after the reinstalled one.
const PINNED_REPEAT: [u64; 3] = [11222039349493174092, 7085519927469272231, 3338060047776063788];
