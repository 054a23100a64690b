//! Cloud operations: guarded aggregation and rollback.
//!
//! A production Nebula cloud probes its modularized model around each
//! aggregation. If a round of updates degrades the model (bad devices,
//! poisoned labels, a buggy client), the aggregation is rolled back and
//! the cloud keeps serving. This example walks that loop with
//! `NebulaCloud::guarded`.
//!
//! Run: `cargo run --release --example cloud_operations`

use nebula::core::{AggregateOutcome, EdgeClient, NebulaCloud, NebulaParams, ResourceProfile};
use nebula::data::{evaluate_accuracy, Dataset, Synthesizer, TaskPreset};
use nebula::tensor::NebulaRng;

fn main() {
    let mut rng = NebulaRng::seed(7);
    let task = TaskPreset::Cifar10;
    let synth = Synthesizer::new(task.synth_spec(), 42);

    let mut params = NebulaParams::default();
    params.pretrain.epochs = 8;
    let mut cloud = NebulaCloud::new(nebula::core::modular_config_for(task), params, 1);
    cloud.pretrain(&synth.sample(2000, 0, &mut rng), &mut rng);

    let probe = synth.sample(600, 0, &mut rng);
    let healthy = evaluate_accuracy(cloud.model_mut(), &probe, 64);
    println!("healthy cloud accuracy: {:.1}%", healthy * 100.0);

    // A compromised device pushes an update trained on mislabelled data.
    let clean = synth.sample_classes(150, &[0, 1], 0, &mut rng);
    let poisoned =
        Dataset::new(clean.features().clone(), clean.labels().iter().map(|&c| (c + 5) % 10).collect(), 10);
    let outcome = cloud.derive_for_data(&poisoned, &ResourceProfile::unconstrained(), Some(6));
    let payload = cloud.dispatch(&outcome.spec);
    let mut bad_client = EdgeClient::from_payload(cloud.model().config().clone(), &payload);
    bad_client.adapt(&poisoned, 10, 16, 0.1, &mut rng);
    let update = bad_client.make_update(&poisoned);

    // The guard probes before and after the aggregation and rolls it back
    // when accuracy drops by more than two points.
    let out = cloud.guarded(
        |m| evaluate_accuracy(m, &probe, 64),
        0.02,
        |c| AggregateOutcome { touched: c.aggregate(&[update]), ..AggregateOutcome::default() },
    );
    println!("after poisoned round:   {:.1}%", out.acc_after * 100.0);
    if out.rolled_back {
        let restored = evaluate_accuracy(cloud.model_mut(), &probe, 64);
        println!("rolled back:            {:.1}%", restored * 100.0);
        assert!((restored - healthy).abs() < 1e-6, "rollback must be exact");
    } else {
        println!("(poison was absorbed — no rollback needed this time)");
    }
}
