//! An edge client holds only its installed sub-model. These tests hold
//! that representation to the one it replaced: a model with every slot
//! filled, masked to the same sub-model.

use nebula_core::{modular_config_for, EdgeClient, EdgeClientState, NebulaCloud, NebulaParams};
use nebula_data::{Dataset, Synthesizer, TaskPreset};
use nebula_modular::cost::CostModel;
use nebula_modular::{ModularConfig, ModularModel, SubModelSpec};
use nebula_nn::{cross_entropy, Layer, Mode, Optimizer, Sgd};
use nebula_tensor::NebulaRng;
use proptest::prelude::*;

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// One clipped SGD-momentum step; returns `(logit bits, pre-clip norm bits)`.
fn train_step(model: &mut ModularModel, opt: &mut Sgd, batch: &Dataset) -> (Vec<u32>, u32) {
    model.zero_grad();
    let logits = model.forward(batch.features(), Mode::Train);
    let (_, grad) = cross_entropy(&logits, batch.labels());
    model.backward(&grad);
    // Small enough that the clip actually rescales, so the norm is computed.
    let norm = model.clip_grad_norm(0.5).expect("a clip at 0.5 computes the norm");
    opt.step(model);
    (bits(logits.data()), norm.to_bits())
}

/// The trap this pins: every RNG-free model must start its gate-noise
/// stream where `ModularModel::new(cfg, 0)` leaves it, or every noisy
/// top-k draw on every device moves.
#[test]
fn rng_free_full_model_is_the_seed0_model_under_noisy_training() {
    for cfg in TaskPreset::all().into_iter().map(modular_config_for) {
        assert!(cfg.gate_noise_std > 0.0, "the comparison needs noisy gating");
        let params = ModularModel::new(cfg.clone(), 9).param_vector();
        let mut seeded = ModularModel::new(cfg.clone(), 0);
        seeded.load_param_vector(&params);
        let full = SubModelSpec::full(cfg.num_layers, cfg.modules_per_layer);
        let mut rng_free = ModularModel::for_submodel(cfg.clone(), &full);
        rng_free.load_param_vector(&params);

        let mut rng = NebulaRng::seed(3);
        let x: Vec<f32> = (0..16 * cfg.input_dim).map(|_| rng.normal_f32(0.0, 1.0)).collect();
        let labels: Vec<usize> = (0..16).map(|i| i % cfg.classes).collect();
        let batch =
            Dataset::new(nebula_tensor::Tensor::from_vec(x, &[16, cfg.input_dim]), labels, cfg.classes);
        let (mut opt_a, mut opt_b) = (Sgd::with_momentum(0.05, 0.9), Sgd::with_momentum(0.05, 0.9));
        for step in 0..3 {
            let a = train_step(&mut seeded, &mut opt_a, &batch);
            let b = train_step(&mut rng_free, &mut opt_b, &batch);
            assert_eq!(a, b, "step {step} diverged ({} layers)", cfg.num_layers);
        }
        assert_eq!(bits(&seeded.param_vector()), bits(&rng_free.param_vector()));
    }
}

fn toy_cloud() -> (ModularConfig, NebulaCloud) {
    let cfg = ModularConfig::toy(16, 4); // 2 × 4, module 3 is the bypass, noisy gating
    let cloud = NebulaCloud::new(cfg.clone(), NebulaParams::default(), 11);
    (cfg, cloud)
}

fn toy_data(n: usize, seed: u64) -> Dataset {
    let synth = Synthesizer::new(nebula_data::SynthSpec::toy(), 1);
    synth.sample(n, 0, &mut NebulaRng::seed(seed))
}

fn arb_spec(layers: usize, modules: usize) -> impl Strategy<Value = SubModelSpec> {
    proptest::collection::vec(proptest::collection::btree_set(0..modules, 1..=modules), layers..=layers)
        .prop_map(|layers| SubModelSpec::new(layers.into_iter().map(|s| s.into_iter().collect()).collect()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Never-routed modules carry exactly-zero gradients, so leaving them
    /// out changes no logit, no clip norm and no update.
    #[test]
    fn sparse_client_trains_bit_identically_to_a_masked_full_model(
        spec in arb_spec(2, 4),
        steps in 1usize..5,
        seed in 0u64..1000,
    ) {
        let (cfg, cloud) = toy_cloud();
        let payload = cloud.dispatch(&spec);
        let mut client = EdgeClient::from_payload(cfg.clone(), &payload);

        let mut full = ModularModel::for_submodel(cfg.clone(), &SubModelSpec::full(2, 4));
        for (&(l, i), params) in &payload.module_params {
            full.load_module_param_vector(l, i, params);
        }
        full.load_shared_param_vector(&payload.shared_params);
        full.set_submodel(Some(&spec));
        prop_assert!(full.param_count() >= client.model_mut().param_count());

        let batch = toy_data(16, seed);
        let (mut opt_a, mut opt_b) = (Sgd::with_momentum(0.05, 0.9), Sgd::with_momentum(0.05, 0.9));
        for _ in 0..steps {
            let sparse = train_step(client.model_mut(), &mut opt_a, &batch);
            let dense = train_step(&mut full, &mut opt_b, &batch);
            prop_assert_eq!(sparse, dense);
        }
        let sparse = client.model_mut();
        prop_assert_eq!(bits(&sparse.shared_param_vector()), bits(&full.shared_param_vector()));
        for (l, mods) in spec.layers().iter().enumerate() {
            for &i in mods {
                prop_assert_eq!(bits(&sparse.module_param_vector(l, i)), bits(&full.module_param_vector(l, i)));
            }
        }
    }

    /// The count-based gate for Fig. 8/9: what a client holds is what the
    /// payload shipped is what the cost model budgets.
    #[test]
    fn client_footprint_is_the_payload_is_the_cost_model(spec in arb_spec(2, 4)) {
        let (cfg, cloud) = toy_cloud();
        let payload = cloud.dispatch(&spec);
        let mut client = EdgeClient::from_payload(cfg.clone(), &payload);
        let held = client.model_mut().param_count() as u64;
        prop_assert_eq!(held * 4, payload.bytes());
        prop_assert_eq!(held, CostModel::new(cfg).submodel(&spec).params);
        prop_assert_eq!(client.export_state().params.len() as u64, held);
    }

    #[test]
    fn install_keeps_exactly_the_new_submodel(first in arb_spec(2, 4), second in arb_spec(2, 4)) {
        let (cfg, cloud) = toy_cloud();
        let mut client = EdgeClient::from_payload(cfg.clone(), &cloud.dispatch(&first));
        client.install(&cloud.dispatch(&second));
        prop_assert_eq!(&client.model_mut().resident_submodel(), &second);
        // Indistinguishable from a client that was built on `second`.
        let fresh = EdgeClient::from_payload(cfg, &cloud.dispatch(&second));
        prop_assert_eq!(client.export_state(), fresh.export_state());
    }
}

#[test]
fn install_to_a_disjoint_spec_leaves_no_departed_module_resident() {
    let (cfg, cloud) = toy_cloud();
    let first = SubModelSpec::new(vec![vec![0, 1], vec![2]]);
    let second = SubModelSpec::new(vec![vec![2, 3], vec![0, 1]]);
    let mut client = EdgeClient::from_payload(cfg, &cloud.dispatch(&first));
    client.install(&cloud.dispatch(&second));
    let model = client.model_mut();
    for (l, mods) in first.layers().iter().enumerate() {
        for &i in mods {
            assert!(!model.layer(l).is_resident(i), "departed module ({l}, {i}) is still held");
        }
    }
    assert_eq!(model.resident_submodel(), second);
    assert_eq!(model.param_count() as u64 * 4, cloud.dispatch(&second).bytes());
}

#[test]
#[should_panic(expected = "does not hold")]
fn routing_to_an_absent_module_is_rejected() {
    let (cfg, cloud) = toy_cloud();
    let mut client =
        EdgeClient::from_payload(cfg, &cloud.dispatch(&SubModelSpec::new(vec![vec![0], vec![1]])));
    client.model_mut().set_submodel(Some(&SubModelSpec::new(vec![vec![0, 2], vec![1]])));
}

#[test]
fn state_round_trips_in_the_compact_layout_and_rejects_bad_state() {
    let (cfg, cloud) = toy_cloud();
    let installed = SubModelSpec::new(vec![vec![0, 2, 3], vec![1]]);
    let mut client = EdgeClient::from_payload(cfg.clone(), &cloud.dispatch(&installed));
    let local = toy_data(40, 2);
    client.adapt(&local, 1, 16, 0.05, &mut NebulaRng::seed(4));
    client.schedule_modules(2, &local);

    let state = client.export_state();
    let full_model = ModularModel::new(cfg.clone(), 0).param_count();
    assert!(state.params.len() < full_model, "state still spells out the full model");
    let mut back = EdgeClient::from_state(cfg.clone(), &state).expect("own state restores");
    assert_eq!(back.export_state(), state);
    assert_eq!(back.spec(), client.spec());
    assert_eq!(back.installed_spec(), &installed);
    assert_eq!(back.accuracy(&local), client.accuracy(&local));

    let reject = |mutate: &dyn Fn(&mut EdgeClientState), why: &str| {
        let mut bad = state.clone();
        mutate(&mut bad);
        assert!(EdgeClient::from_state(cfg.clone(), &bad).is_err(), "{why} was accepted");
    };
    reject(&|s| s.params.push(0.0), "one parameter too many");
    reject(&|s| s.params.truncate(s.params.len() - 1), "one parameter too few");
    reject(&|s| s.params = vec![0.0; full_model], "the old full-model layout");
    reject(&|s| s.params[7] = f32::NAN, "a NaN parameter");
    reject(&|s| s.params[7] = f32::INFINITY, "an infinite parameter");
    reject(&|s| s.installed[0].push(4), "an out-of-range installed module");
    reject(&|s| s.active[1] = vec![9], "an out-of-range active module");
    reject(&|s| s.active[1].clear(), "an empty active layer");
    reject(&|s| s.installed.truncate(1), "a missing layer");
    reject(&|s| s.active[1] = vec![0], "an active module that is not installed");
}
