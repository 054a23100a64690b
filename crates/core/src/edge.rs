//! The edge side of Nebula: a device running a derived sub-model.
//!
//! The client materialises exactly the payload's modules plus the shared
//! stem/head/selector — never the rest of the cloud architecture (§5.1) —
//! and loads the payload's parameters into them. Locally it
//! (i) serves inference, (ii) fine-tunes on fresh data, (iii) scores
//! module importance with the decoupled selector, and (iv) emits a
//! [`EdgeUpdate`] carrying only the sub-model's parameters back to the
//! cloud.

use crate::aggregate::ModuleUpdate;
use crate::cloud::{check_spec_shape, SubModelPayload};
use nebula_data::{Dataset, TrainConfig};
use nebula_modular::{ModularConfig, ModularModel, SubModelSpec};
use nebula_nn::{Layer, Sgd};
use nebula_tensor::NebulaRng;
use std::collections::BTreeMap;

/// Alias clarifying direction: an update travelling edge → cloud.
pub type EdgeUpdate = ModuleUpdate;

/// Bytes on the wire for an edge → cloud update (f32 parameters).
pub fn update_bytes(update: &EdgeUpdate) -> u64 {
    let module: usize = update.module_params.values().map(Vec::len).sum();
    ((module + update.shared_params.len()) * 4) as u64
}

/// An edge device's local runtime.
///
/// The client distinguishes the *installed* sub-model (every module the
/// last payload shipped — what sits on the device's disk) from the
/// *active* sub-model (the modules currently routed to — what occupies
/// RAM/compute). On-device module scheduling moves the active set within
/// the installed set without any cloud round-trip (§5.1: "devices can
/// adjust local modules to flexibly scale their local model sizes for
/// resource fluctuations").
pub struct EdgeClient {
    model: ModularModel,
    /// Modules currently active (⊆ installed).
    spec: SubModelSpec,
    /// Modules shipped by the last payload.
    installed: SubModelSpec,
}

impl EdgeClient {
    /// Instantiates a client holding exactly the payload's sub-model.
    /// Panics on a payload that [`SubModelPayload::validate`] rejects.
    pub fn from_payload(cfg: ModularConfig, payload: &SubModelPayload) -> Self {
        let mut model = ModularModel::for_submodel(cfg, &payload.spec);
        load_payload(&mut model, payload);
        Self { model, spec: payload.spec.clone(), installed: payload.spec.clone() }
    }

    /// The sub-model this client currently runs (the active set).
    pub fn spec(&self) -> &SubModelSpec {
        &self.spec
    }

    /// Every module the device holds locally (the installed set).
    pub fn installed_spec(&self) -> &SubModelSpec {
        &self.installed
    }

    /// Swaps in a new sub-model payload (e.g. after querying the cloud in
    /// a new environment) without rebuilding the client: modules the new
    /// sub-model drops are freed, the ones it adds are materialised.
    pub fn install(&mut self, payload: &SubModelPayload) {
        self.model.set_resident(&payload.spec);
        load_payload(&mut self.model, payload);
        self.spec = payload.spec.clone();
        self.installed = payload.spec.clone();
    }

    /// On-device module scheduling: activates the `keep` most important
    /// installed modules per layer (importance scored on `local_data`
    /// with the decoupled selector). Shrinking and later re-growing needs
    /// no cloud round-trip because scheduling always draws from the
    /// installed set.
    pub fn schedule_modules(&mut self, keep: usize, local_data: &Dataset) {
        assert!(keep >= 1, "must keep at least one module per layer");
        let importance = self.model.importance(local_data.features());
        let new_spec = SubModelSpec::new(
            self.installed
                .layers()
                .iter()
                .enumerate()
                .map(|(l, mods)| {
                    let mut sorted: Vec<usize> = mods.to_vec();
                    sorted.sort_by(|&a, &b| {
                        importance[l][b].partial_cmp(&importance[l][a]).unwrap_or(std::cmp::Ordering::Equal)
                    });
                    sorted.truncate(keep.min(sorted.len()));
                    sorted
                })
                .collect(),
        );
        self.model.set_submodel(Some(&new_spec));
        self.spec = new_spec;
    }

    /// Re-activates the full installed sub-model (resources recovered).
    pub fn restore_installed(&mut self) {
        self.model.set_submodel(Some(&self.installed));
        self.spec = self.installed.clone();
    }

    /// Local fine-tuning on fresh data; returns the final mean loss.
    pub fn adapt(
        &mut self,
        data: &Dataset,
        epochs: usize,
        batch: usize,
        lr: f32,
        rng: &mut NebulaRng,
    ) -> f32 {
        let mut opt = Sgd::with_momentum(lr, 0.9);
        nebula_data::train_epochs(
            &mut self.model,
            &mut opt,
            data,
            TrainConfig { epochs, batch_size: batch, clip_norm: Some(5.0) },
            rng,
        )
    }

    /// Top-1 accuracy on a local test set.
    pub fn accuracy(&mut self, test: &Dataset) -> f32 {
        nebula_data::evaluate_accuracy(&mut self.model, test, 64)
    }

    /// Device-local module importance over `data` (decoupled selector).
    pub fn importance(&mut self, data: &Dataset) -> Vec<Vec<f32>> {
        self.model.importance(data.features())
    }

    /// Builds the edge → cloud update from the current parameters.
    pub fn make_update(&mut self, local_data: &Dataset) -> EdgeUpdate {
        self.fill_update(local_data, BTreeMap::new(), Vec::new())
    }

    /// [`Self::make_update`] into the allocations of a spent payload —
    /// normally the download this client was installed from, whose records
    /// have exactly the update's keys and lengths, so nothing is
    /// allocated. A record `buffers` lacks, or one that is too short, is
    /// allocated as usual; one the active set lacks is dropped.
    ///
    /// This is what keeps a round that trains devices on several threads
    /// inside its memory bound: the update a `par::map` job returns lives
    /// in buffers the calling thread allocated, not in the worker
    /// thread's malloc arena.
    pub fn make_update_reusing(&mut self, local_data: &Dataset, buffers: SubModelPayload) -> EdgeUpdate {
        self.fill_update(local_data, buffers.module_params, buffers.shared_params)
    }

    /// The update, written over whatever `module_params` and
    /// `shared_params` hold.
    fn fill_update(
        &mut self,
        local_data: &Dataset,
        mut module_params: BTreeMap<(usize, usize), Vec<f32>>,
        mut shared_params: Vec<f32>,
    ) -> EdgeUpdate {
        module_params.retain(|&(l, i), _| l < self.spec.num_layers() && self.spec.contains(l, i));
        for (l, layer) in self.spec.layers().iter().enumerate() {
            for &i in layer {
                self.model.write_module_param_vector(l, i, module_params.entry((l, i)).or_default());
            }
        }
        self.model.write_shared_param_vector(&mut shared_params);
        EdgeUpdate {
            spec: self.spec.clone(),
            module_params,
            shared_params,
            importance: self.model.importance(local_data.features()),
            data_volume: local_data.len(),
        }
    }

    /// Read access to the underlying model (tests, diagnostics).
    pub fn model_mut(&mut self) -> &mut ModularModel {
        &mut self.model
    }

    /// Captures the client's full mutable state (the installed modules'
    /// and shared parameters + active and installed sub-model specs) for a
    /// run snapshot.
    pub fn export_state(&self) -> EdgeClientState {
        EdgeClientState {
            params: self.model.param_vector(),
            active: self.spec.layers().to_vec(),
            installed: self.installed.layers().to_vec(),
        }
    }

    /// Rebuilds a client from state captured by [`Self::export_state`].
    /// Validates both specs against `cfg` before constructing anything,
    /// and the parameter count and finiteness before loading, so corrupted
    /// or mismatched state is an error rather than a panic.
    pub fn from_state(cfg: ModularConfig, state: &EdgeClientState) -> Result<Self, String> {
        check_spec_shape("active", &state.active, &cfg)?;
        check_spec_shape("installed", &state.installed, &cfg)?;
        let spec = SubModelSpec::new(state.active.clone());
        let installed = SubModelSpec::new(state.installed.clone());
        for (l, mods) in spec.layers().iter().enumerate() {
            if let Some(&m) = mods.iter().find(|&&m| !installed.contains(l, m)) {
                return Err(format!("active module ({l}, {m}) is not installed"));
            }
        }
        let mut model = ModularModel::for_submodel(cfg, &installed);
        if state.params.len() != model.param_count() {
            return Err(format!(
                "client state has {} params, its installed sub-model wants {}",
                state.params.len(),
                model.param_count()
            ));
        }
        if let Some((i, &v)) = state.params.iter().enumerate().find(|(_, p)| !p.is_finite()) {
            return Err(format!("client state param {i} is non-finite ({v})"));
        }
        model.load_param_vector(&state.params);
        model.set_submodel(Some(&spec));
        Ok(Self { model, spec, installed })
    }
}

/// Loads every record of `payload` into `model`, which must already hold
/// exactly `payload.spec`.
fn load_payload(model: &mut ModularModel, payload: &SubModelPayload) {
    for (&(l, i), params) in &payload.module_params {
        model.load_module_param_vector(l, i, params);
    }
    model.load_shared_param_vector(&payload.shared_params);
}

/// Serializable snapshot of an [`EdgeClient`]'s mutable state.
#[derive(Clone, Debug, PartialEq)]
pub struct EdgeClientState {
    /// Flat parameters of what the device holds: stem, the installed
    /// modules in `(layer, index)` order, head, selector.
    pub params: Vec<f32>,
    /// Active sub-model (module indices per layer).
    pub active: Vec<Vec<usize>>,
    /// Installed sub-model (what the last payload shipped).
    pub installed: Vec<Vec<usize>>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cloud::{NebulaCloud, NebulaParams};
    use nebula_data::{SynthSpec, Synthesizer};

    fn setup() -> (NebulaCloud, Synthesizer, NebulaRng) {
        let mut cfg = nebula_modular::ModularConfig::toy(16, 4);
        cfg.gate_noise_std = 0.2;
        let cloud = NebulaCloud::new(cfg, NebulaParams::default(), 11);
        (cloud, Synthesizer::new(SynthSpec::toy(), 1), NebulaRng::seed(5))
    }

    #[test]
    fn client_reproduces_cloud_outputs_for_same_submodel() {
        let (mut cloud, synth, mut rng) = setup();
        let data = synth.sample(40, 0, &mut rng);
        let spec = SubModelSpec::full(2, 4);
        let payload = cloud.dispatch(&spec);
        let mut client = EdgeClient::from_payload(cloud.model().config().clone(), &payload);

        let a = client.accuracy(&data);
        cloud.model_mut().set_submodel(Some(&spec));
        let b = nebula_data::evaluate_accuracy(cloud.model_mut(), &data, 64);
        assert_eq!(a, b, "client and cloud disagree on identical params");
    }

    #[test]
    fn adaptation_improves_local_accuracy() {
        let (mut cloud, synth, mut rng) = setup();
        let proxy = synth.sample(300, 0, &mut rng);
        cloud.pretrain(&proxy, &mut rng);

        let local = synth.sample_classes(150, &[0, 1], 1, &mut rng);
        let test = synth.sample_classes(100, &[0, 1], 1, &mut rng);
        let out = cloud.derive_for_data(&local, &crate::profile::ResourceProfile::unconstrained(), Some(3));
        let payload = cloud.dispatch(&out.spec);
        let mut client = EdgeClient::from_payload(cloud.model().config().clone(), &payload);

        let before = client.accuracy(&test);
        client.adapt(&local, 10, 16, 0.03, &mut rng);
        let after = client.accuracy(&test);
        // The pre-trained model may already be near-perfect on an easy
        // 2-class sub-task; require adaptation not to destroy it.
        assert!(after >= before - 0.05, "local adaptation hurt: {before} -> {after}");
        assert!(after > 0.8, "adapted accuracy only {after}");
    }

    #[test]
    fn update_carries_only_submodel_modules() {
        let (cloud, synth, mut rng) = setup();
        let spec = SubModelSpec::new(vec![vec![1], vec![0, 2]]);
        let payload = cloud.dispatch(&spec);
        let mut client = EdgeClient::from_payload(cloud.model().config().clone(), &payload);
        let local = synth.sample(30, 0, &mut rng);
        let update = client.make_update(&local);
        assert_eq!(update.module_params.len(), 3);
        assert!(update.module_params.contains_key(&(0, 1)));
        assert!(!update.module_params.contains_key(&(0, 0)));
        assert_eq!(update.data_volume, 30);
        assert!(update_bytes(&update) > 0);
    }

    #[test]
    fn update_bytes_smaller_than_full_model() {
        let (cloud, synth, mut rng) = setup();
        let small = cloud.dispatch(&SubModelSpec::new(vec![vec![0], vec![0]]));
        let full = cloud.dispatch(&SubModelSpec::full(2, 4));
        let mut c_small = EdgeClient::from_payload(cloud.model().config().clone(), &small);
        let mut c_full = EdgeClient::from_payload(cloud.model().config().clone(), &full);
        let local = synth.sample(20, 0, &mut rng);
        assert!(update_bytes(&c_small.make_update(&local)) < update_bytes(&c_full.make_update(&local)));
    }

    #[test]
    fn schedule_modules_reduces_active_modules() {
        let (cloud, synth, mut rng) = setup();
        let payload = cloud.dispatch(&SubModelSpec::full(2, 4));
        let mut client = EdgeClient::from_payload(cloud.model().config().clone(), &payload);
        let local = synth.sample(30, 0, &mut rng);
        client.schedule_modules(2, &local);
        for l in 0..2 {
            assert_eq!(client.spec().layer(l).len(), 2);
        }
        // Still serves inference.
        assert!(client.accuracy(&local) >= 0.0);
    }

    #[test]
    fn schedule_then_restore_round_trips_without_cloud() {
        let (cloud, synth, mut rng) = setup();
        let installed = SubModelSpec::new(vec![vec![0, 1, 2], vec![0, 1, 3]]);
        let payload = cloud.dispatch(&installed);
        let mut client = EdgeClient::from_payload(cloud.model().config().clone(), &payload);
        let local = synth.sample(30, 0, &mut rng);

        // Contention spike: shrink; recovery: grow back — twice, to prove
        // scheduling always draws from the installed set, not the current
        // active one.
        client.schedule_modules(1, &local);
        assert!(client.spec().layers().iter().all(|l| l.len() == 1));
        client.schedule_modules(2, &local);
        assert!(client.spec().layers().iter().all(|l| l.len() == 2));
        client.restore_installed();
        assert_eq!(client.spec(), &installed);
        assert_eq!(client.installed_spec(), &installed);
        // Scheduling never activates modules outside the installed set.
        client.schedule_modules(3, &local);
        for (l, mods) in client.spec().layers().iter().enumerate() {
            for &m in mods {
                assert!(installed.contains(l, m));
            }
        }
    }

    #[test]
    fn residual_module_round_trips_through_payload_and_update() {
        // Module index 3 of the toy config is the parameter-free bypass:
        // dispatch ships it as an empty vector and aggregation must not
        // choke on it.
        let (mut cloud, synth, mut rng) = setup();
        let spec = SubModelSpec::new(vec![vec![0, 3], vec![3]]);
        let payload = cloud.dispatch(&spec);
        assert!(payload.module_params[&(0, 3)].is_empty());
        assert!(payload.module_params[&(1, 3)].is_empty());

        let mut client = EdgeClient::from_payload(cloud.model().config().clone(), &payload);
        let local = synth.sample(40, 0, &mut rng);
        client.adapt(&local, 2, 16, 0.05, &mut rng);
        let update = client.make_update(&local);
        let touched = cloud.aggregate(&[update]);
        // Only module (0,0) and the shared parts carry parameters.
        assert_eq!(touched, 1);
    }

    /// Every field of an update, floats as bit patterns.
    type UpdateBits = (SubModelSpec, Vec<((usize, usize), Vec<u32>)>, Vec<u32>, Vec<Vec<u32>>, usize);

    fn update_bits(u: &EdgeUpdate) -> UpdateBits {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        (
            u.spec.clone(),
            u.module_params.iter().map(|(&k, v)| (k, bits(v))).collect(),
            bits(&u.shared_params),
            u.importance.iter().map(|row| bits(row)).collect(),
            u.data_volume,
        )
    }

    #[test]
    fn recycled_update_equals_a_fresh_one_whatever_the_buffers() {
        let (cloud, synth, mut rng) = setup();
        let spec = SubModelSpec::new(vec![vec![0, 2, 3], vec![1, 2]]);
        let payload = cloud.dispatch(&spec);
        let mut client = EdgeClient::from_payload(cloud.model().config().clone(), &payload);
        let local = synth.sample(40, 0, &mut rng);
        client.adapt(&local, 2, 16, 0.05, &mut rng);
        let want = update_bits(&client.make_update(&local));

        // Its own download: same keys and lengths, so the records are
        // refilled where they are.
        let (record, shared) = (payload.module_params[&(0, 2)].as_ptr(), payload.shared_params.as_ptr());
        let (record_cap, shared_cap) =
            (payload.module_params[&(0, 2)].capacity(), payload.shared_params.capacity());
        let own = client.make_update_reusing(&local, payload);
        assert_eq!(update_bits(&own), want);
        assert_eq!(
            (own.module_params[&(0, 2)].as_ptr(), own.module_params[&(0, 2)].capacity()),
            (record, record_cap)
        );
        assert_eq!((own.shared_params.as_ptr(), own.shared_params.capacity()), (shared, shared_cap));

        // A download of some other sub-model: foreign records are dropped,
        // missing ones allocated.
        let other = cloud.dispatch(&SubModelSpec::new(vec![vec![1, 2], vec![0, 3]]));
        assert_eq!(update_bits(&client.make_update_reusing(&local, other)), want);

        // Nothing to reuse at all.
        let empty =
            SubModelPayload { spec: spec.clone(), module_params: BTreeMap::new(), shared_params: Vec::new() };
        assert_eq!(update_bits(&client.make_update_reusing(&local, empty)), want);

        // The active set shrank below what the download shipped.
        client.schedule_modules(1, &local);
        let shrunk = update_bits(&client.make_update(&local));
        let recycled = client.make_update_reusing(&local, cloud.dispatch(&spec));
        assert_eq!(recycled.module_params.len(), 2, "departed modules must not ride along");
        assert_eq!(update_bits(&recycled), shrunk);
    }

    #[test]
    fn install_swaps_submodel() {
        let (cloud, _, _) = setup();
        let p1 = cloud.dispatch(&SubModelSpec::new(vec![vec![0], vec![0]]));
        let p2 = cloud.dispatch(&SubModelSpec::new(vec![vec![1, 2], vec![3]]));
        let mut client = EdgeClient::from_payload(cloud.model().config().clone(), &p1);
        client.install(&p2);
        assert_eq!(client.spec(), &p2.spec);
    }
}
