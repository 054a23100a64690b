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
use nebula::sim::latency::{synchronous_round_ms, training_batch_latency_ms, RoundParticipant};
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
    let mut fleet_devices = Vec::new();
    let mut fleet_work = Vec::new();

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
        fleet_devices.push(dev.resources);
        fleet_work.push(RoundParticipant {
            forward_flops_per_sample: cost.flops,
            exchange_bytes: 2 * cost.comm_bytes,
            samples: dev.partition.data.len(),
            epochs: 3,
            batch: 16,
        });

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

    // A synchronous collaborative round waits for the slowest device —
    // show who the straggler is and what the round costs end to end.
    let refs: Vec<&nebula::sim::DeviceResources> = fleet_devices.iter().collect();
    let (round_ms, straggler) = synchronous_round_ms(&refs, &fleet_work);
    println!(
        "\nsynchronous round over the fleet: {:.0} ms, bounded by device {} ({})",
        round_ms,
        straggler,
        fleet_devices[straggler].class.name()
    );
}
