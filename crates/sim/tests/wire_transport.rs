//! End-to-end wire-transport tests at the simulation level: the codecs
//! configured through `StrategyConfig::wire` must change the *measured*
//! bytes of real adaptation traffic, not just the codec unit tests.

use nebula_core::WireConfig;
use nebula_data::{PartitionSpec, Partitioner, SynthSpec, Synthesizer};
use nebula_modular::ModularConfig;
use nebula_sim::strategy::StrategyConfig;
use nebula_sim::{NebulaStrategy, ResourceSampler, SimWorld};
use nebula_tensor::NebulaRng;

fn toy_world(devices: usize, seed: u64) -> SimWorld {
    let synth = Synthesizer::new(SynthSpec::toy(), 1);
    let spec = PartitionSpec::new(devices, Partitioner::LabelSkew { m: 2 });
    SimWorld::new(synth, spec, 9, None, &ResourceSampler::default(), seed)
}

fn toy_cfg(wire: WireConfig) -> StrategyConfig {
    let mut modular = ModularConfig::toy(16, 4);
    modular.gate_noise_std = 0.3;
    let mut cfg = StrategyConfig::new(modular);
    cfg.devices_per_round = 4;
    cfg.rounds_per_step = 2;
    cfg.pretrain_epochs = 1;
    cfg.proxy_samples = 100;
    cfg.local_epochs = 1;
    cfg.wire = wire;
    cfg
}

fn round_bytes(wire: WireConfig) -> u64 {
    let mut world = toy_world(8, 5);
    let mut s = NebulaStrategy::new(toy_cfg(wire), 1);
    let mut rng = NebulaRng::seed(3);
    let mut total = 0u64;
    for _ in 0..2 {
        let out = s.single_round(&mut world, &mut rng);
        assert_eq!(out.stats.faults.lost(), 0);
        total += out.stats.comm.down_bytes + out.stats.comm.up_bytes;
    }
    total
}

/// Int8 quantization must at least halve the measured on-wire traffic of
/// identical Nebula rounds (the acceptance bar; the real ratio is ~4x
/// minus frame/header overhead).
#[test]
fn int8_rounds_halve_measured_bytes() {
    let raw = round_bytes(WireConfig::raw());
    let q8 = round_bytes(WireConfig::int8());
    assert!(raw > 0 && q8 > 0);
    assert!(q8 * 2 < raw, "int8 rounds not <=1/2 of raw: {q8} vs {raw}");
}
