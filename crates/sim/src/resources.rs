//! Device hardware sampling, shaped after the paper's Fig. 2 (statistics
//! from AI Benchmark): the on-device RAM histogram, the bimodal inference-
//! speed distribution (mobile SoCs ~10–100 ms vs IoT boards ~0.1–1 s for
//! MobileNetV3), and WiFi-class bandwidth.

use nebula_tensor::NebulaRng;
use serde::{Deserialize, Serialize};

/// The two device classes of the testbed: GPU-equipped mobile-SoC boards
/// (Jetson Nano) and CPU-only IoT boards (Raspberry Pi 4B).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum DeviceClass {
    MobileSoc,
    Iot,
}

impl DeviceClass {
    pub fn name(self) -> &'static str {
        match self {
            DeviceClass::MobileSoc => "JetsonNano",
            DeviceClass::Iot => "RaspberryPi",
        }
    }
}

/// A device's sampled hardware profile.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct DeviceResources {
    pub class: DeviceClass,
    /// Installed RAM (Fig. 2a histogram).
    pub ram_bytes: u64,
    /// Sustained training/inference throughput in multiply-accumulates
    /// per second.
    pub flops_per_sec: f64,
    /// Link bandwidth to the cloud, bits per second.
    pub bandwidth_bps: f64,
    /// Fraction of the *full* cloud model this device can afford to hold
    /// and train — the scalar that converts hardware into Eq. 2 limits.
    pub budget_ratio: f32,
    /// Currently co-running background processes (inner runtime dynamic).
    pub background_procs: usize,
}

/// RAM histogram from Fig. 2(a): bucket upper bounds in GB and their
/// probabilities.
const RAM_BUCKETS_GB: [(f32, f32); 7] =
    [(2.0, 0.05), (4.0, 0.30), (6.0, 0.30), (8.0, 0.15), (10.0, 0.10), (12.0, 0.07), (16.0, 0.03)];

/// Probability a device is a mobile SoC (vs IoT board).
const MOBILE_FRACTION: f64 = 0.5;

/// Samples device populations with Fig. 2-shaped marginals.
#[derive(Clone, Debug, Default)]
pub struct ResourceSampler {}

impl ResourceSampler {
    /// Draws one device.
    pub fn sample(&self, rng: &mut NebulaRng) -> DeviceResources {
        let class = if rng.bernoulli(MOBILE_FRACTION) { DeviceClass::MobileSoc } else { DeviceClass::Iot };

        // RAM bucket, uniform within the bucket.
        let weights: Vec<f32> = RAM_BUCKETS_GB.iter().map(|&(_, p)| p).collect();
        let bucket = rng.weighted_index(&weights);
        let hi = RAM_BUCKETS_GB[bucket].0;
        let lo = if bucket == 0 { 0.5 } else { RAM_BUCKETS_GB[bucket - 1].0 };
        let ram_gb = rng.uniform_f32(lo, hi);
        let ram_bytes = (ram_gb as f64 * 1e9) as u64;

        // Inference speed: lognormal per class. MobileNetV3 at ~220 MFLOPs:
        // mobile SoCs land at 10–100 ms, IoT boards at 100 ms–1 s, giving
        // the paper's Fig. 2(b) CDF split.
        let flops_per_sec = match class {
            DeviceClass::MobileSoc => rng.lognormal_f32(22.4, 0.7) as f64, // e^22.4 ≈ 5.4 GFLOP/s
            DeviceClass::Iot => rng.lognormal_f32(20.1, 0.7) as f64,       // ≈ 0.54 GFLOP/s
        };

        // WiFi LAN bandwidth ~ 20 Mbps lognormal.
        let bandwidth_bps = rng.lognormal_f32(16.8, 0.5) as f64; // e^16.8 ≈ 20 Mb

        // Model budget: mobile devices afford bigger sub-models.
        let budget_ratio = match class {
            DeviceClass::MobileSoc => rng.uniform_f32(0.3, 0.7),
            DeviceClass::Iot => rng.uniform_f32(0.12, 0.4),
        };

        DeviceResources { class, ram_bytes, flops_per_sec, bandwidth_bps, budget_ratio, background_procs: 0 }
    }

    /// Draws a population of `n` devices from a forked stream.
    pub fn sample_population(&self, n: usize, rng: &mut NebulaRng) -> Vec<DeviceResources> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn population(n: usize) -> Vec<DeviceResources> {
        let mut rng = NebulaRng::seed(42);
        ResourceSampler::default().sample_population(n, &mut rng)
    }

    #[test]
    fn ram_histogram_has_expected_mode() {
        let pop = population(2000);
        let in_2_6: usize = pop
            .iter()
            .filter(|d| {
                let gb = d.ram_bytes as f64 / 1e9;
                (2.0..6.0).contains(&gb)
            })
            .count();
        // 60% of mass lies in 2–6 GB per the Fig. 2a histogram.
        let frac = in_2_6 as f64 / 2000.0;
        assert!((frac - 0.6).abs() < 0.06, "2–6 GB fraction {frac}");
    }

    #[test]
    fn mobile_socs_are_faster_than_iot() {
        let pop = population(2000);
        let mean = |class: DeviceClass| {
            let (sum, n) = pop
                .iter()
                .filter(|d| d.class == class)
                .fold((0.0f64, 0usize), |(s, c), d| (s + d.flops_per_sec, c + 1));
            sum / n as f64
        };
        assert!(mean(DeviceClass::MobileSoc) > 3.0 * mean(DeviceClass::Iot));
    }

    #[test]
    fn budget_ratios_are_in_range() {
        for d in population(500) {
            assert!(d.budget_ratio > 0.0 && d.budget_ratio <= 0.7);
            if d.class == DeviceClass::Iot {
                assert!(d.budget_ratio <= 0.4);
            }
        }
    }

    #[test]
    fn latency_scales_with_contention() {
        use crate::latency::inference_latency_ms;
        let mut d = population(1)[0];
        d.background_procs = 0;
        let base = inference_latency_ms(&d, 1_000_000);
        d.background_procs = 3;
        let loaded = inference_latency_ms(&d, 1_000_000);
        assert!((loaded / base - 5.06).abs() < 0.01);
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let mut a = NebulaRng::seed(7);
        let mut b = NebulaRng::seed(7);
        let s = ResourceSampler::default();
        let da = s.sample(&mut a);
        let db = s.sample(&mut b);
        assert_eq!(da.ram_bytes, db.ram_bytes);
        assert_eq!(da.budget_ratio, db.budget_ratio);
    }
}
