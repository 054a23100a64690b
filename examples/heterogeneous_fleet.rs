//! Heterogeneous fleet: resource-aware sub-model derivation.
//!
//! Samples a fleet of devices with AI-Benchmark-shaped hardware (mobile
//! SoCs vs IoT boards), derives a personalized sub-model for each under
//! its own resource profile, and shows how sub-model size, memory and
//! per-batch training latency track the hardware — including the
//! on-device module scheduling (`schedule_modules`) that reacts to runtime
//! contention.
//!
//! Run: `cargo run --release --example heterogeneous_fleet`

use nebula::core::{EdgeClient, NebulaCloud, NebulaParams};
use nebula::data::{Synthesizer, TaskPreset};
use nebula::sim::device::TEST_SAMPLES_PER_DEVICE;
use nebula::sim::latency::{adaptation_latency_ms, training_batch_latency_ms};
use nebula::sim::network::transfer_time_ms;
use nebula::sim::{DeviceClass, ResourceSampler, SimDevice};
use nebula::tensor::NebulaRng;

fn main() {
    let mut rng = NebulaRng::seed(11);
    let task = TaskPreset::SpeechCommands;
    let synth = Synthesizer::new(task.synth_spec(), 42);

    // A lightly pre-trained cloud (enough for meaningful routing).
    let mut params = NebulaParams::default();
    params.pretrain.epochs = 8;
    let mut cloud = NebulaCloud::new(nebula::core::modular_config_for(task), params, 1);
    let proxy = synth.sample(1500, 0, &mut rng);
    cloud.pretrain(&proxy, &mut rng);
    let full = cloud.cost_model().full_model();

    println!("{} fleet — full model: {} K params\n", task.name(), full.params / 1000);
    println!(
        "{:<4} {:<12} {:>7} {:>9} {:>10} {:>12} {:>12}",
        "dev", "class", "budget", "modules", "params(K)", "batch(ms)", "busy(ms)"
    );

    // Sample a mixed fleet and derive per-device sub-models.
    use nebula::data::partition::{partition, PartitionSpec, Partitioner};
    let pspec = PartitionSpec::new(8, Partitioner::LabelSkew { m: 5 });
    let parts = partition(&synth, &pspec, 9, &mut rng);
    let sampler = ResourceSampler::default();
    // A synchronous collaborative round waits for the slowest device:
    // (its transfer + local training ms, its index, its class).
    let mut straggler = (0.0f64, 0usize, DeviceClass::MobileSoc);

    for (i, part) in parts.into_iter().enumerate() {
        let hw = sampler.sample(&mut rng);
        let mut dev = SimDevice::new(i, part, hw, rng.fork(i as u64), &synth);
        let profile = dev.profile(cloud.cost_model());
        let outcome = cloud.derive_for_data(&dev.partition.data, &profile, None);
        let cost = cloud.cost_model().submodel(&outcome.spec);

        // Per-batch training latency, calm vs under contention.
        let calm = training_batch_latency_ms(&dev.resources, cost.flops, 16);
        dev.resources.background_procs = 3;
        let busy = training_batch_latency_ms(&dev.resources, cost.flops, 16);
        dev.resources.background_procs = 0;

        println!(
            "{:<4} {:<12} {:>6.0}% {:>9} {:>10} {:>12.2} {:>12.2}",
            i,
            dev.resources.class.name(),
            dev.resources.budget_ratio * 100.0,
            outcome.spec.total_modules(),
            cost.params / 1000,
            calm,
            busy
        );
        let round_ms = adaptation_latency_ms(&dev.resources, cost.flops, dev.partition.data.len(), 3, 16)
            + transfer_time_ms(2 * cost.comm_bytes, dev.resources.bandwidth_bps);
        if round_ms > straggler.0 {
            straggler = (round_ms, i, dev.resources.class);
        }

        // When contention spikes, the device shrinks its sub-model locally
        // (module scheduling) instead of querying the cloud.
        if dev.resources.class == DeviceClass::Iot && i == 7 {
            let payload = cloud.dispatch(&outcome.spec);
            let mut client = EdgeClient::from_payload(cloud.model().config().clone(), &payload);
            let before = client.spec().total_modules();
            client.schedule_modules(2, &dev.partition.data);
            let shrunk_cost = cloud.cost_model().submodel(client.spec());
            println!(
                "\n  device {i} under load: shrank {} → {} modules locally ({} K params), accuracy {:.1}% on {} local test samples",
                before,
                client.spec().total_modules(),
                shrunk_cost.params / 1000,
                client.accuracy(&dev.test) * 100.0,
                TEST_SAMPLES_PER_DEVICE,
            );
        }
    }

    let (round_ms, i, class) = straggler;
    println!(
        "\nsynchronous round over the fleet: {round_ms:.0} ms, bounded by device {i} ({})",
        class.name()
    );
}
