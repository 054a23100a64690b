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
}
