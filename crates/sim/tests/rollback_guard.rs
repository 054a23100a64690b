//! The checkpoint-rollback guard, driven the way a run arms it: through
//! [`NebulaStrategy::enable_rollback`] and a real `single_round`, on the
//! flat aggregation arm and on the `edge_groups` hierarchy arm.

use nebula_data::{Dataset, PartitionSpec, Partitioner, SynthSpec, Synthesizer};
use nebula_modular::ModularConfig;
use nebula_nn::Layer;
use nebula_sim::strategy::{RoundOutcome, StrategyConfig};
use nebula_sim::{NebulaStrategy, ResourceSampler, SimWorld};
use nebula_tensor::NebulaRng;

fn probe_set() -> Dataset {
    Synthesizer::new(SynthSpec::toy(), 1).sample(60, 0, &mut NebulaRng::seed(8))
}

/// One round from a fresh strategy and world; `max_drop` arms the guard.
/// Returns the cloud parameters before and after, and the round outcome.
fn one_round(edge_groups: Option<usize>, max_drop: Option<f32>) -> (Vec<f32>, Vec<f32>, RoundOutcome) {
    let synth = Synthesizer::new(SynthSpec::toy(), 1);
    let spec = PartitionSpec::new(12, Partitioner::LabelSkew { m: 2 });
    let mut world = SimWorld::new(synth, spec, 9, None, &ResourceSampler::default(), 5);
    let mut cfg = StrategyConfig::new(ModularConfig::toy(16, 4));
    cfg.devices_per_round = 6;
    cfg.local_epochs = 2;
    cfg.edge_groups = edge_groups;
    let mut s = NebulaStrategy::new(cfg, 1);
    if let Some(max_drop) = max_drop {
        s.enable_rollback(probe_set(), max_drop);
    }
    let before = s.cloud().model().param_vector();
    let out = s.single_round(&mut world, &mut NebulaRng::seed(3));
    (before, s.cloud().model().param_vector(), out)
}

fn bits(params: &[f32]) -> Vec<u32> {
    params.iter().map(|p| p.to_bits()).collect()
}

#[test]
fn guard_rolls_back_or_keeps_the_round_on_both_aggregation_arms() {
    for edge_groups in [None, Some(3)] {
        let (before, plain_after, plain) = one_round(edge_groups, None);
        assert_ne!(
            bits(&before),
            bits(&plain_after),
            "{edge_groups:?}: the unguarded round must move the cloud"
        );
        assert_eq!(plain.stats.faults.rolled_back, 0);

        // No accuracy can clear a negative tolerance: every round is undone.
        let (before, after, out) = one_round(edge_groups, Some(-1.0));
        assert_eq!(bits(&before), bits(&after), "{edge_groups:?}: rollback must restore the snapshot");
        assert_eq!(out.stats.faults.rolled_back, 1, "{edge_groups:?}");

        // No drop can exceed 1.0: the guarded round is the unguarded one.
        let (_, after, out) = one_round(edge_groups, Some(1.0));
        assert_eq!(
            bits(&after),
            bits(&plain_after),
            "{edge_groups:?}: a kept round must equal the unguarded one"
        );
        assert_eq!(out.stats, plain.stats, "{edge_groups:?}");
        assert_eq!(out.round_time_ms.to_bits(), plain.round_time_ms.to_bits(), "{edge_groups:?}");
    }
}
