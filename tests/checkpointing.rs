//! Cross-crate integration: rolling back a bad aggregation round with
//! [`NebulaCloud::guarded`] across the adaptation lifecycle.

use nebula::core::{AggregateOutcome, EdgeClient, NebulaCloud, NebulaParams, ResourceProfile};
use nebula::data::{evaluate_accuracy, SynthSpec, Synthesizer};
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
    let probe = synth.sample(100, 0, &mut rng);
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
    let update = client.make_update(&garbage);

    // No accuracy clears a negative tolerance, so the guard rolls back.
    let out = c.guarded(
        |m| evaluate_accuracy(m, &probe, 64),
        -1.0,
        |c| {
            let touched = c.aggregate(&[update]);
            assert_ne!(c.model().param_vector(), before, "bad round had no effect");
            AggregateOutcome { touched, ..AggregateOutcome::default() }
        },
    );
    assert!(out.rolled_back);
    assert_eq!(c.model().param_vector(), before, "rollback incomplete");
}
