//! Tracked performance suite for the kernel layer and the round loop.
//!
//! Times paper-shaped GEMMs (HAR/MLP, CIFAR/ResNet18 and VGG16 im2col
//! shapes) across the kernel-backend matrix — the retained pre-blocking
//! reference kernels, the scalar blocked engine, and the best SIMD engine
//! the host supports (`KernelBackend::Auto`) — reporting each case's
//! GFLOP/s against a measured per-engine peak, plus end-to-end
//! `NebulaStrategy::single_round` throughput,
//! plus the wire transport (codec frame sizes and encode/decode
//! throughput on the CIFAR-10/ResNet18 preset, and measured per-round
//! bytes per codec), and writes machine-readable records to
//! `BENCH_KERNELS.json`, `BENCH_ROUND.json` and `BENCH_WIRE.json` at the
//! repository root.
//!
//! Usage: `perf_suite [--smoke]`. `--smoke` shrinks repetitions and the
//! round workload so CI can execute the whole suite in seconds; the
//! emitted JSON carries the mode so smoke numbers are never mistaken for
//! tracked ones.

use nebula_core::{modular_config_for, NebulaCloud, NebulaParams, ResourceProfile, WireConfig, WireContext};
use nebula_data::{PartitionSpec, Partitioner, SynthSpec, Synthesizer, TaskPreset};
use nebula_modular::ModularConfig;
use nebula_sim::strategy::{AdaptStrategy, StrategyConfig};
use nebula_sim::{FaultPlan, NebulaStrategy, ResourceSampler, SimWorld};
use nebula_telemetry::{MemorySink, NullSink, Telemetry};
use nebula_tensor::{resolved_backend, KernelBackend, NebulaRng, Tensor};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Which GEMM entry point a case exercises.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Variant {
    /// `a.matmul(b)`: (m,k)·(k,n).
    Nn,
    /// `a.matmul_nt(b)`: (m,k)·(n,k)ᵀ — the forward/im2col shape.
    Nt,
    /// `a.matmul_tn(b)`: (k,m)ᵀ·(k,n) — the weight-gradient shape.
    Tn,
}

impl Variant {
    fn label(self) -> &'static str {
        match self {
            Variant::Nn => "matmul",
            Variant::Nt => "matmul_nt",
            Variant::Tn => "matmul_tn",
        }
    }
}

struct GemmCase {
    /// Stable identifier for tracking across commits.
    name: &'static str,
    /// What paper workload this shape is taken from.
    origin: &'static str,
    variant: Variant,
    m: usize,
    n: usize,
    k: usize,
}

/// The tracked shapes. im2col turns a conv layer on a batch into one GEMM
/// of (batch · out_h · out_w) × (in_ch · kh · kw) times the weight matrix,
/// which is where the CIFAR/VGG shapes below come from.
fn gemm_cases() -> Vec<GemmCase> {
    vec![
        // HAR MLP (UCI-HAR, 561 features): batch forward + weight grad.
        GemmCase {
            name: "har_mlp_fwd",
            origin: "HAR MLP hidden layer forward, batch 32",
            variant: Variant::Nt,
            m: 32,
            n: 256,
            k: 561,
        },
        GemmCase {
            name: "har_mlp_dw",
            origin: "HAR MLP hidden layer weight grad, batch 32",
            variant: Variant::Tn,
            m: 561,
            n: 256,
            k: 32,
        },
        // CIFAR / ResNet18 3x3 conv via im2col: batch 4, 16x16 maps,
        // 64 -> 64 channels => m = 4*16*16, k = 64*9.
        GemmCase {
            name: "resnet18_conv3x3",
            origin: "ResNet18 3x3 conv (64ch, 16x16 maps, batch 4) im2col",
            variant: Variant::Nt,
            m: 1024,
            n: 64,
            k: 576,
        },
        GemmCase {
            name: "resnet18_conv3x3_dcols",
            origin: "ResNet18 3x3 conv input-gradient GEMM",
            variant: Variant::Nn,
            m: 1024,
            n: 576,
            k: 64,
        },
        // VGG16 conv3 block: 256 -> 256 channels on 28x28 maps, batch 2
        // => m = 2*28*28 = 1568, k = 256*9 = 2304.
        GemmCase {
            name: "vgg16_conv3",
            origin: "VGG16 conv3 (256ch, 28x28 maps, batch 2) im2col",
            variant: Variant::Nt,
            m: 1568,
            n: 256,
            k: 2304,
        },
        GemmCase {
            name: "vgg16_conv3_dw",
            origin: "VGG16 conv3 weight grad",
            variant: Variant::Tn,
            m: 2304,
            n: 256,
            k: 1568,
        },
    ]
}

/// Median of per-call times (seconds). Calibrates an inner-loop count so
/// each sample lasts long enough to be measurable, then takes `reps`
/// samples.
fn time_median(reps: usize, target_s: f64, mut f: impl FnMut()) -> f64 {
    // Warm-up + calibration call.
    let t0 = Instant::now();
    f();
    let once = t0.elapsed().as_secs_f64().max(1e-9);
    let inner = ((target_s / once).ceil() as usize).clamp(1, 10_000);
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        for _ in 0..inner {
            f();
        }
        samples.push(t.elapsed().as_secs_f64() / inner as f64);
    }
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

/// Measured per-engine throughput ceilings for the `pct_peak` columns.
struct Peaks {
    /// What `KernelBackend::Auto` resolves to on this host.
    simd_backend: KernelBackend,
    blocked_gflops: f64,
    simd_gflops: f64,
}

/// Calibrates each engine's peak on a hot cache-resident problem:
/// 960×256×256 — ten `MC_SIMD` row blocks swept over a single `NC`×`KC`
/// packed `B` panel, so the panel stays L2-resident and its packing cost
/// amortises away. This times the micro-kernel's sustainable FMA rate
/// rather than memory traffic. Because shared CI hosts drift over a
/// run, the final ceiling each case is scored against is the *greater*
/// of this probe and the best rate any tracked case sustained on that
/// engine (see `main`), so `pct_peak` is ≤100 by construction.
fn calibrate_peaks(target_s: f64) -> Peaks {
    let simd_backend = {
        let _g = KernelBackend::Auto.scoped();
        resolved_backend()
    };
    let probe = |backend: KernelBackend| {
        let _g = backend.scoped();
        let (m, n, k) = (960usize, 256usize, 256usize);
        let mut rng = NebulaRng::seed(7);
        let a = Tensor::from_vec((0..m * k).map(|_| rng.normal_f32(0.0, 1.0)).collect(), &[m, k]);
        let b = Tensor::from_vec((0..n * k).map(|_| rng.normal_f32(0.0, 1.0)).collect(), &[n, k]);
        let mut out = Tensor::zeros(&[m, n]);
        let t = time_median(5, target_s, || a.matmul_nt_into(&b, &mut out));
        2.0 * m as f64 * n as f64 * k as f64 / t / 1e9
    };
    Peaks { simd_backend, blocked_gflops: probe(KernelBackend::Blocked), simd_gflops: probe(simd_backend) }
}

struct KernelRow {
    name: &'static str,
    origin: &'static str,
    variant: &'static str,
    m: usize,
    n: usize,
    k: usize,
    reference_ms: f64,
    blocked_ms: f64,
    simd_ms: f64,
    /// reference / blocked — the historically tracked blocking win.
    speedup: f64,
    /// blocked / simd — what the vector engine buys over scalar blocked.
    simd_speedup: f64,
    blocked_gflops: f64,
    simd_gflops: f64,
    blocked_pct_peak: f64,
    simd_pct_peak: f64,
}

fn run_gemm_case(case: &GemmCase, reps: usize, target_s: f64) -> KernelRow {
    let (m, n, k) = (case.m, case.n, case.k);
    let mut rng = NebulaRng::seed(11);
    let fill = |r: usize, c: usize, rng: &mut NebulaRng| {
        Tensor::from_vec((0..r * c).map(|_| rng.normal_f32(0.0, 1.0)).collect(), &[r, c])
    };
    let (a, b) = match case.variant {
        Variant::Nn => (fill(m, k, &mut rng), fill(k, n, &mut rng)),
        Variant::Nt => (fill(m, k, &mut rng), fill(n, k, &mut rng)),
        Variant::Tn => (fill(k, m, &mut rng), fill(k, n, &mut rng)),
    };
    let mut out = Tensor::zeros(&[m, n]);
    let mut run = |backend: KernelBackend| {
        let _g = backend.scoped();
        time_median(reps, target_s, || match case.variant {
            Variant::Nn => a.matmul_into(&b, &mut out),
            Variant::Nt => a.matmul_nt_into(&b, &mut out),
            Variant::Tn => a.matmul_tn_into(&b, &mut out),
        })
    };
    let reference_s = run(KernelBackend::Reference);
    let blocked_s = run(KernelBackend::Blocked);
    let simd_s = run(KernelBackend::Auto);
    let flops = 2.0 * m as f64 * n as f64 * k as f64;
    let blocked_gflops = flops / blocked_s / 1e9;
    let simd_gflops = flops / simd_s / 1e9;
    KernelRow {
        name: case.name,
        origin: case.origin,
        variant: case.variant.label(),
        m,
        n,
        k,
        reference_ms: reference_s * 1e3,
        blocked_ms: blocked_s * 1e3,
        simd_ms: simd_s * 1e3,
        speedup: reference_s / blocked_s,
        simd_speedup: blocked_s / simd_s,
        blocked_gflops,
        simd_gflops,
        // Filled in by `main` once the per-engine ceilings are final.
        blocked_pct_peak: 0.0,
        simd_pct_peak: 0.0,
    }
}

fn toy_world(devices: usize, seed: u64) -> SimWorld {
    let synth = Synthesizer::new(SynthSpec::toy(), 1);
    let spec = PartitionSpec::new(devices, Partitioner::LabelSkew { m: 2 });
    SimWorld::new(synth, spec, 9, None, &ResourceSampler::default(), seed)
}

fn round_cfg(smoke: bool) -> StrategyConfig {
    let mut modular = ModularConfig::toy(16, 4);
    modular.gate_noise_std = 0.3;
    let mut cfg = StrategyConfig::new(modular);
    cfg.devices_per_round = if smoke { 3 } else { 6 };
    cfg.rounds_per_step = 2;
    cfg.pretrain_epochs = if smoke { 1 } else { 2 };
    cfg.proxy_samples = if smoke { 100 } else { 400 };
    cfg
}

/// Runs `rounds` fault-free Nebula rounds under a pinned kernel backend
/// and returns seconds per round.
fn time_rounds(rounds: usize, smoke: bool, backend: KernelBackend) -> f64 {
    let _g = backend.scoped();
    time_rounds_with(rounds, smoke, Telemetry::off())
}

/// Same round loop with a telemetry handle attached (ambient backend).
/// With a [`NullSink`] the handle disarms, so this measures the cost the
/// instrumentation seams add to an untraced round; with an armed sink it
/// measures full span/metric/event collection.
fn time_rounds_with(rounds: usize, smoke: bool, telemetry: Telemetry) -> f64 {
    let mut world = toy_world(if smoke { 6 } else { 10 }, 5);
    world.set_fault_plan(FaultPlan::none());
    let mut s = NebulaStrategy::new(round_cfg(smoke), 1);
    s.set_telemetry(telemetry);
    let mut rng = NebulaRng::seed(3);
    // One warm-up round outside the timer (first round pays pretraining).
    s.single_round(&mut world, &mut rng);
    let t = Instant::now();
    for _ in 0..rounds {
        s.single_round(&mut world, &mut rng);
    }
    t.elapsed().as_secs_f64() / rounds as f64
}

struct WireRow {
    codec: &'static str,
    /// Planning-model size of the sub-model payload (4 bytes/param).
    analytic_bytes: u64,
    /// First frame to a device with no transport state.
    cold_frame_bytes: u64,
    /// Steady-state frame once baselines are acknowledged.
    warm_frame_bytes: u64,
    reduction_cold: f64,
    reduction_warm: f64,
    encode_ms: f64,
    decode_ms: f64,
    /// Payload parameter volume moved per second of encode/decode.
    encode_mib_s: f64,
    decode_mib_s: f64,
}

/// Codec frame sizes and encode/decode throughput for the paper's
/// CIFAR-10/ResNet18 preset: an unconstrained sub-model payload cut from
/// the 4-layer, 16-modules-per-layer cloud model.
fn wire_rows(reps: usize, target_s: f64) -> Vec<WireRow> {
    let cfg = modular_config_for(TaskPreset::Cifar10);
    let cloud = NebulaCloud::new(cfg.clone(), NebulaParams::default(), 7);
    let uniform = vec![vec![1.0 / cfg.modules_per_layer as f32; cfg.modules_per_layer]; cfg.num_layers];
    let spec = cloud.derive_for_importance(&uniform, &ResourceProfile::unconstrained(), None).spec;
    let payload = cloud.dispatch(&spec);
    let analytic = payload.bytes();

    let cases: [(&'static str, WireConfig); 3] = [
        ("raw", WireConfig::raw()),
        ("delta_fp32", WireConfig::delta(0.0)),
        ("quant_int8", WireConfig::int8()),
    ];
    cases
        .iter()
        .map(|&(codec, wc)| {
            let mut ctx = WireContext::new(wc);
            ctx.commit_model(cloud.model());
            let mut buf = Vec::new();
            let cold_frame_bytes = ctx.encode_payload(0, &payload, &mut buf) as u64;
            ctx.decode_payload(0, &buf).expect("cold frame decodes");
            let warm_frame_bytes = ctx.encode_payload(0, &payload, &mut buf) as u64;
            ctx.decode_payload(0, &buf).expect("warm frame decodes");
            // Steady-state timing: repeated exchanges with the same device.
            let encode_s = time_median(reps, target_s, || {
                ctx.encode_payload(0, &payload, &mut buf);
            });
            ctx.encode_payload(0, &payload, &mut buf);
            let decode_s = time_median(reps, target_s, || {
                ctx.decode_payload(0, &buf).expect("bench frame decodes");
            });
            let mib = analytic as f64 / (1024.0 * 1024.0);
            WireRow {
                codec,
                analytic_bytes: analytic,
                cold_frame_bytes,
                warm_frame_bytes,
                reduction_cold: analytic as f64 / cold_frame_bytes.max(1) as f64,
                reduction_warm: analytic as f64 / warm_frame_bytes.max(1) as f64,
                encode_ms: encode_s * 1e3,
                decode_ms: decode_s * 1e3,
                encode_mib_s: mib / encode_s,
                decode_mib_s: mib / decode_s,
            }
        })
        .collect()
}

/// Measured down+up bytes of fault-free Nebula rounds under a codec.
fn round_wire_bytes(rounds: usize, smoke: bool, wire: WireConfig) -> u64 {
    let mut world = toy_world(if smoke { 6 } else { 10 }, 5);
    world.set_fault_plan(FaultPlan::none());
    let mut cfg = round_cfg(smoke);
    cfg.wire = wire;
    let mut s = NebulaStrategy::new(cfg, 1);
    let mut rng = NebulaRng::seed(3);
    let mut total = 0u64;
    for _ in 0..rounds {
        let out = s.single_round(&mut world, &mut rng);
        total += out.stats.comm.down_bytes + out.stats.comm.up_bytes;
    }
    total
}

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mode = if smoke { "smoke" } else { "full" };
    let (reps, target_s) = if smoke { (3, 0.01) } else { (5, 0.05) };

    let mut peaks = calibrate_peaks(target_s);
    println!("perf_suite mode={mode}");
    let mut rows: Vec<KernelRow> = gemm_cases().iter().map(|c| run_gemm_case(c, reps, target_s)).collect();
    // Final per-engine ceilings: the hot-cache probe, or the best rate a
    // tracked case sustained if the host sped up since calibration.
    for r in &rows {
        peaks.blocked_gflops = peaks.blocked_gflops.max(r.blocked_gflops);
        peaks.simd_gflops = peaks.simd_gflops.max(r.simd_gflops);
    }
    for r in &mut rows {
        r.blocked_pct_peak = 100.0 * r.blocked_gflops / peaks.blocked_gflops.max(1e-9);
        r.simd_pct_peak = 100.0 * r.simd_gflops / peaks.simd_gflops.max(1e-9);
    }
    println!(
        "simd backend: {} (peak {:.2} GF/s; blocked peak {:.2} GF/s)",
        peaks.simd_backend, peaks.simd_gflops, peaks.blocked_gflops
    );
    println!(
        "{:<24} {:>13} {:>9} {:>11} {:>9} {:>7} {:>8} {:>6}",
        "kernel", "m x n x k", "ref ms", "blocked ms", "simd ms", "simd x", "GF/s", "%peak"
    );
    for row in &rows {
        println!(
            "{:<24} {:>13} {:>9.3} {:>11.3} {:>9.3} {:>6.2}x {:>8.2} {:>5.1}%",
            row.name,
            format!("{}x{}x{}", row.m, row.n, row.k),
            row.reference_ms,
            row.blocked_ms,
            row.simd_ms,
            row.simd_speedup,
            row.simd_gflops,
            row.simd_pct_peak
        );
    }

    let kernel_json = {
        let mut items = Vec::new();
        for r in &rows {
            items.push(format!(
                concat!(
                    "    {{\"name\": \"{}\", \"origin\": \"{}\", \"variant\": \"{}\", ",
                    "\"m\": {}, \"n\": {}, \"k\": {},\n     ",
                    "\"reference_ms\": {:.4}, \"blocked_ms\": {:.4}, \"simd_ms\": {:.4}, ",
                    "\"speedup\": {:.3}, \"simd_speedup\": {:.3},\n     ",
                    "\"blocked_gflops\": {:.3}, \"simd_gflops\": {:.3}, ",
                    "\"blocked_pct_peak\": {:.1}, \"simd_pct_peak\": {:.1}}}"
                ),
                json_escape(r.name),
                json_escape(r.origin),
                r.variant,
                r.m,
                r.n,
                r.k,
                r.reference_ms,
                r.blocked_ms,
                r.simd_ms,
                r.speedup,
                r.simd_speedup,
                r.blocked_gflops,
                r.simd_gflops,
                r.blocked_pct_peak,
                r.simd_pct_peak
            ));
        }
        format!(
            concat!(
                "{{\n  \"mode\": \"{mode}\",\n  \"reps\": {reps},\n",
                "  \"simd_backend\": \"{simd}\",\n",
                "  \"peak_gflops\": {{\"blocked\": {pb:.3}, \"simd\": {ps:.3}}},\n",
                "  \"kernels\": [\n{items}\n  ]\n}}\n"
            ),
            mode = mode,
            reps = reps,
            simd = peaks.simd_backend,
            pb = peaks.blocked_gflops,
            ps = peaks.simd_gflops,
            items = items.join(",\n")
        )
    };
    let kernels_path = repo_root().join("BENCH_KERNELS.json");
    std::fs::write(&kernels_path, kernel_json).expect("write BENCH_KERNELS.json");
    println!("wrote {}", kernels_path.display());

    // End-to-end round throughput across the backend matrix.
    let rounds = if smoke { 2 } else { 6 };
    println!("timing {rounds} fault-free rounds per kernel backend...");
    let reference_s = time_rounds(rounds, smoke, KernelBackend::Reference);
    let blocked_s = time_rounds(rounds, smoke, KernelBackend::Blocked);
    let auto_s = time_rounds(rounds, smoke, KernelBackend::Auto);
    let speedup = reference_s / blocked_s;
    let simd_round_speedup = blocked_s / auto_s;
    println!(
        "round loop: reference {:.1} ms/round, blocked {:.1} ms/round, {} {:.1} ms/round ({:.2}x blocked)",
        reference_s * 1e3,
        blocked_s * 1e3,
        peaks.simd_backend,
        auto_s * 1e3,
        simd_round_speedup
    );
    // Telemetry overhead: a NullSink disarms the handle (the acceptance
    // bar is <1% vs the uninstrumented loop); an armed MemorySink prices
    // full trace collection. Longer loops than the kernel comparison, and
    // a fresh same-length baseline, keep the deltas out of timer noise.
    let trounds = rounds * 3;
    let base_s = time_rounds_with(trounds, smoke, Telemetry::off());
    let null_s = time_rounds_with(trounds, smoke, Telemetry::new(Arc::new(NullSink)));
    let armed_s = time_rounds_with(trounds, smoke, Telemetry::new(Arc::new(MemorySink::new())));
    let null_overhead_pct = (null_s / base_s - 1.0) * 100.0;
    let armed_overhead_pct = (armed_s / base_s - 1.0) * 100.0;
    println!(
        "telemetry: null-sink {:.1} ms/round ({:+.2}%), armed memory-sink {:.1} ms/round ({:+.2}%)",
        null_s * 1e3,
        null_overhead_pct,
        armed_s * 1e3,
        armed_overhead_pct
    );
    let round_json = format!(
        concat!(
            "{{\n  \"mode\": \"{}\",\n  \"rounds\": {},\n",
            "  \"blocked_ms_per_round\": {:.3},\n  \"reference_ms_per_round\": {:.3},\n",
            "  \"simd_ms_per_round\": {:.3},\n  \"simd_backend\": \"{}\",\n",
            "  \"blocked_rounds_per_s\": {:.3},\n  \"speedup\": {:.3},\n  \"simd_speedup\": {:.3},\n",
            "  \"null_telemetry_ms_per_round\": {:.3},\n  \"null_telemetry_overhead_pct\": {:.3},\n",
            "  \"armed_telemetry_ms_per_round\": {:.3},\n  \"armed_telemetry_overhead_pct\": {:.3}\n}}\n"
        ),
        mode,
        rounds,
        blocked_s * 1e3,
        reference_s * 1e3,
        auto_s * 1e3,
        peaks.simd_backend,
        1.0 / blocked_s,
        speedup,
        simd_round_speedup,
        null_s * 1e3,
        null_overhead_pct,
        armed_s * 1e3,
        armed_overhead_pct
    );
    let round_path = repo_root().join("BENCH_ROUND.json");
    std::fs::write(&round_path, round_json).expect("write BENCH_ROUND.json");
    println!("wrote {}", round_path.display());

    // Wire transport: codec frame sizes + throughput on the CIFAR-10
    // preset, and measured per-round bytes per codec.
    println!(
        "\n{:<12} {:>12} {:>11} {:>11} {:>7} {:>7} {:>10} {:>10}",
        "codec", "analytic B", "cold B", "warm B", "x cold", "x warm", "enc MiB/s", "dec MiB/s"
    );
    let wires = wire_rows(reps, target_s);
    for w in &wires {
        println!(
            "{:<12} {:>12} {:>11} {:>11} {:>6.2}x {:>6.2}x {:>10.1} {:>10.1}",
            w.codec,
            w.analytic_bytes,
            w.cold_frame_bytes,
            w.warm_frame_bytes,
            w.reduction_cold,
            w.reduction_warm,
            w.encode_mib_s,
            w.decode_mib_s
        );
    }
    let wire_round_count = if smoke { 1 } else { 3 };
    println!("measuring {wire_round_count} Nebula round(s) per codec...");
    let raw_round = round_wire_bytes(wire_round_count, smoke, WireConfig::raw());
    let delta_round = round_wire_bytes(wire_round_count, smoke, WireConfig::delta(1e-4));
    let int8_round = round_wire_bytes(wire_round_count, smoke, WireConfig::int8());
    println!(
        "round bytes: raw {raw_round}, delta {delta_round}, int8 {int8_round} ({:.2}x reduction)",
        raw_round as f64 / int8_round.max(1) as f64
    );

    let wire_json = {
        let mut items = Vec::new();
        for w in &wires {
            items.push(format!(
                concat!(
                    "    {{\"codec\": \"{}\", \"analytic_bytes\": {}, \"cold_frame_bytes\": {}, ",
                    "\"warm_frame_bytes\": {}, \"reduction_cold\": {:.3}, \"reduction_warm\": {:.3}, ",
                    "\"encode_ms\": {:.4}, \"decode_ms\": {:.4}, ",
                    "\"encode_mib_s\": {:.2}, \"decode_mib_s\": {:.2}}}"
                ),
                w.codec,
                w.analytic_bytes,
                w.cold_frame_bytes,
                w.warm_frame_bytes,
                w.reduction_cold,
                w.reduction_warm,
                w.encode_ms,
                w.decode_ms,
                w.encode_mib_s,
                w.decode_mib_s
            ));
        }
        format!(
            concat!(
                "{{\n  \"mode\": \"{}\",\n  \"preset\": \"CIFAR10/ResNet18\",\n",
                "  \"codecs\": [\n{}\n  ],\n",
                "  \"rounds\": {{\"count\": {}, \"raw_bytes\": {}, \"delta_bytes\": {}, ",
                "\"int8_bytes\": {}, \"int8_reduction\": {:.3}}}\n}}\n"
            ),
            mode,
            items.join(",\n"),
            wire_round_count,
            raw_round,
            delta_round,
            int8_round,
            raw_round as f64 / int8_round.max(1) as f64
        )
    };
    let wire_path = repo_root().join("BENCH_WIRE.json");
    std::fs::write(&wire_path, wire_json).expect("write BENCH_WIRE.json");
    println!("wrote {}", wire_path.display());
}
