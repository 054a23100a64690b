//! Latency estimation for on-device training and inference.
//!
//! The paper's Fig. 2(c) and Fig. 9 report per-batch training latency and
//! peak memory. We estimate both from the cost model: a training step
//! costs roughly `3×` the forward MACs (forward + input-grad + weight-grad
//! products), scaled by the device's throughput and its contention
//! multiplier.

use crate::contention::contention_multiplier;
use crate::resources::DeviceResources;

/// Forward-to-training flops multiplier (fwd + two backward GEMMs).
const TRAIN_FLOPS_FACTOR: f64 = 3.0;

/// Per-batch training latency in milliseconds.
pub fn training_batch_latency_ms(dev: &DeviceResources, forward_flops_per_sample: u64, batch: usize) -> f64 {
    let flops = forward_flops_per_sample as f64 * batch as f64 * TRAIN_FLOPS_FACTOR;
    flops / dev.flops_per_sec * 1e3 * contention_multiplier(dev.background_procs)
}

/// Per-sample inference latency in milliseconds.
pub fn inference_latency_ms(dev: &DeviceResources, forward_flops_per_sample: u64) -> f64 {
    forward_flops_per_sample as f64 / dev.flops_per_sec * 1e3 * contention_multiplier(dev.background_procs)
}

/// Wall-clock for an adaptation: `epochs` over `samples` local samples in
/// batches of `batch`, in milliseconds.
pub fn adaptation_latency_ms(
    dev: &DeviceResources,
    forward_flops_per_sample: u64,
    samples: usize,
    epochs: usize,
    batch: usize,
) -> f64 {
    let batches_per_epoch = samples.div_ceil(batch.max(1));
    training_batch_latency_ms(dev, forward_flops_per_sample, batch) * (batches_per_epoch * epochs) as f64
}

/// One participant's share of a synchronous communication round.
#[derive(Clone, Copy, Debug)]
pub struct RoundParticipant {
    /// Forward MACs per sample of the model this device trains.
    pub forward_flops_per_sample: u64,
    /// Bytes exchanged with the cloud (download + upload).
    pub exchange_bytes: u64,
    /// Local samples and epochs.
    pub samples: usize,
    pub epochs: usize,
    pub batch: usize,
}

/// Wall-clock of a synchronous round: the server waits for the **slowest**
/// participant (straggler effect), each of whom pays transfer + local
/// training. Returns `(round_ms, straggler_index)`.
pub fn synchronous_round_ms(devices: &[&DeviceResources], work: &[RoundParticipant]) -> (f64, usize) {
    assert_eq!(devices.len(), work.len(), "device/work length mismatch");
    assert!(!devices.is_empty(), "round with no participants");
    let mut worst = (0.0f64, 0usize);
    for (i, (dev, w)) in devices.iter().zip(work).enumerate() {
        let t = adaptation_latency_ms(dev, w.forward_flops_per_sample, w.samples, w.epochs, w.batch)
            + crate::network::transfer_time_ms(w.exchange_bytes, dev.bandwidth_bps);
        if t > worst.0 {
            worst = (t, i);
        }
    }
    (worst.0, worst.1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::{DeviceClass, DeviceResources};

    fn dev(flops_per_sec: f64, procs: usize) -> DeviceResources {
        DeviceResources {
            class: DeviceClass::MobileSoc,
            ram_bytes: 4_000_000_000,
            flops_per_sec,
            bandwidth_bps: 2e7,
            budget_ratio: 0.5,
            background_procs: procs,
        }
    }

    #[test]
    fn training_costs_three_times_inference() {
        let d = dev(1e9, 0);
        let inf = inference_latency_ms(&d, 1_000_000);
        let train = training_batch_latency_ms(&d, 1_000_000, 1);
        assert!((train / inf - 3.0).abs() < 1e-9);
    }

    #[test]
    fn adaptation_scales_with_epochs_and_samples() {
        let d = dev(1e9, 0);
        let one = adaptation_latency_ms(&d, 1_000_000, 100, 1, 10);
        let three = adaptation_latency_ms(&d, 1_000_000, 100, 3, 10);
        assert!((three / one - 3.0).abs() < 1e-9);
        let more_data = adaptation_latency_ms(&d, 1_000_000, 200, 1, 10);
        assert!(more_data > one);
    }

    #[test]
    fn contention_inflates_latency() {
        let calm = inference_latency_ms(&dev(1e9, 0), 1_000_000);
        let busy = inference_latency_ms(&dev(1e9, 3), 1_000_000);
        assert!((busy / calm - 5.06).abs() < 0.01);
    }

    #[test]
    fn faster_device_is_faster() {
        let slow = training_batch_latency_ms(&dev(1e8, 0), 1_000_000, 16);
        let fast = training_batch_latency_ms(&dev(1e10, 0), 1_000_000, 16);
        assert!(fast < slow / 50.0);
    }

    #[test]
    fn synchronous_round_waits_for_the_straggler() {
        let fast = dev(1e10, 0);
        let slow = dev(1e8, 3); // slow hardware + contention
        let work = RoundParticipant {
            forward_flops_per_sample: 1_000_000,
            exchange_bytes: 1_000_000,
            samples: 100,
            epochs: 3,
            batch: 16,
        };
        let (round_ms, straggler) = synchronous_round_ms(&[&fast, &slow], &[work, work]);
        assert_eq!(straggler, 1, "the slow device must be the straggler");
        let slow_alone = adaptation_latency_ms(&slow, 1_000_000, 100, 3, 16)
            + crate::network::transfer_time_ms(1_000_000, slow.bandwidth_bps);
        assert!((round_ms - slow_alone).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "no participants")]
    fn synchronous_round_rejects_empty() {
        synchronous_round_ms(&[], &[]);
    }
}
