//! Cross-crate integration: cloud-model checkpointing across the
//! adaptation lifecycle (snapshot → bad round → rollback).

use nebula::core::checkpoint::{restore, snapshot};
use nebula::core::{EdgeClient, NebulaCloud, NebulaParams, ResourceProfile};
use nebula::data::{SynthSpec, Synthesizer};
use nebula::modular::ModularConfig;
use nebula::nn::Layer;
use nebula::tensor::NebulaRng;

fn cloud() -> NebulaCloud {
    let mut cfg = ModularConfig::toy(16, 4);
    cfg.gate_noise_std = 0.2;
    let mut params = NebulaParams::default();
    params.pretrain.epochs = 6;
    NebulaCloud::new(cfg, params, 11)
}

#[test]
fn rollback_restores_pre_aggregation_state() {
    let synth = Synthesizer::new(SynthSpec::toy(), 1);
    let mut rng = NebulaRng::seed(3);
    let mut c = cloud();
    c.pretrain(&synth.sample(300, 0, &mut rng), &mut rng);

    let ckpt = snapshot(c.model());
    let before = c.model().param_vector();

    // A "bad" round: a device trains on label-noise garbage and pushes
    // the update.
    let garbage = {
        let clean = synth.sample_classes(80, &[0, 1], 0, &mut rng);
        // Re-label everything as class 3.
        nebula::data::Dataset::new(clean.features().clone(), vec![3; clean.len()], 4)
    };
    let outcome = c.derive_for_data(&garbage, &ResourceProfile::unconstrained(), Some(2));
    let payload = c.dispatch(&outcome.spec);
    let mut client = EdgeClient::from_payload(c.model().config().clone(), &payload);
    client.adapt(&garbage, 5, 16, 0.1, &mut rng);
    c.aggregate(&[client.make_update(&garbage)]);
    assert_ne!(c.model().param_vector(), before, "bad round had no effect");

    // Roll back.
    restore(c.model_mut(), &ckpt).unwrap();
    assert_eq!(c.model().param_vector(), before, "rollback incomplete");
}

#[test]
fn checkpoint_survives_binary_round_trip_through_disk() {
    let synth = Synthesizer::new(SynthSpec::toy(), 1);
    let mut rng = NebulaRng::seed(5);
    let mut c = cloud();
    c.pretrain(&synth.sample(200, 0, &mut rng), &mut rng);

    let dir = std::env::temp_dir().join("nebula-integration-ckpt");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cloud.ckpt");
    nebula::core::checkpoint::save_binary(c.model(), &path).unwrap();

    let mut c2 = cloud();
    nebula::core::checkpoint::load_binary(c2.model_mut(), &path).unwrap();
    let test = synth.sample(100, 0, &mut rng);
    let a = nebula::data::evaluate_accuracy(c.model_mut(), &test, 64);
    let b = nebula::data::evaluate_accuracy(c2.model_mut(), &test, 64);
    assert_eq!(a, b, "restored cloud behaves differently");
    std::fs::remove_file(&path).ok();
}
