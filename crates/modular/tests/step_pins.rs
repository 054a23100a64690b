//! Absolute pins for what one local train step computes.
//!
//! `sim/tests/round_golden.rs` and `core/tests/edge_client_pins.rs` digest
//! whole rounds; a train step that routes, gates or caches differently can
//! hide behind aggregation there, and when it does not, the digest says
//! only "something moved". These cases digest (FNV-1a over `f32::to_bits`)
//! the pieces themselves, on the CIFAR-10 preset's shapes (width 96,
//! hidden 24, 16 modules per layer with a bypass, top-4, batch 16):
//!
//! * one [`MoeLayer`] Train forward + backward under a 6-of-16 mask on a
//!   routing chosen to be ragged — the six allowed modules receive
//!   16 / 16 / 11 / 5 / 0 / 16 rows, and the disallowed ones carry the
//!   largest logits of all: `y`, `dx`, `dlogits`, every parameter
//!   gradient, and through the public accessors `probs`, `mean_probs`,
//!   `loads`, `load_balance_loss` and the load-balance logit gradient
//!   (the private combination weights are covered by `y`); plus the `y`
//!   of an Eval forward of the same layer;
//! * one [`ModularModel::for_submodel`] client's parameters after 5 train
//!   steps at `gate_noise_std` 0.3 and again after 5 more — a gate-noise
//!   stream left at the wrong position after a step shows in the second.
//!
//! Every constant was computed by the code these pins were first committed
//! against, once per kernel engine (the engines differ by FMA contraction,
//! so each has its own row); a change to how a step is scheduled must
//! leave all of them untouched. An engine the CPU lacks is skipped.
//!
//! One test function: the backend selection is process-global.

use nebula_modular::{ModularConfig, ModularModel, MoeLayer, SubModelSpec};
use nebula_nn::{cross_entropy, Layer, Mode, Optimizer, Sgd};
use nebula_tensor::{resolved_backend, KernelBackend, NebulaRng, Tensor};

const WIDTH: usize = 96;
const HIDDEN: usize = 24;
const MODULES: usize = 16;
const BATCH: usize = 16;
const TOP_K: usize = 4;

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn floats(&mut self, values: &[f32]) {
        self.word(values.len() as u64);
        for v in values {
            self.word(v.to_bits() as u64);
        }
    }
}

fn digest(values: &[f32]) -> u64 {
    let mut h = Fnv::new();
    h.floats(values);
    h.0
}

fn normal(rows: usize, cols: usize, std: f32, rng: &mut NebulaRng) -> Tensor {
    Tensor::from_vec((0..rows * cols).map(|_| rng.normal_f32(0.0, std)).collect(), &[rows, cols])
}

/// The CIFAR-10 preset of `nebula_core::modular_config_for`, written out
/// (this crate sits below `nebula-core`).
fn c10_config() -> ModularConfig {
    ModularConfig {
        input_dim: 96,
        classes: 10,
        width: WIDTH,
        num_layers: 4,
        modules_per_layer: MODULES,
        module_hidden: HIDDEN,
        residual_module: true,
        top_k: TOP_K,
        selector_embed: 48,
        gate_noise_std: 0.3,
        load_balance_weight: 0.02,
        conv_stem: None,
    }
}

/// Digests of the layer case, in the order the module doc lists them.
fn layer_digests() -> [u64; 11] {
    let held = [1usize, 4, 7, 10, 13, 15];
    let mut rng = NebulaRng::seed(0x57E9);
    let mut layer = MoeLayer::new(WIDTH, HIDDEN, MODULES, true, &mut rng);
    // Biases start at zero; give them values so their role shows.
    layer.visit_params(&mut |p, _| {
        if p.rank() == 1 {
            for v in p.data_mut() {
                *v = rng.normal_f32(0.0, 0.05);
            }
        }
    });
    layer.set_resident(&held);
    let mut allowed = [false; MODULES];
    for &i in &held {
        allowed[i] = true;
    }

    let x = normal(BATCH, WIDTH, 1.0, &mut rng);
    let dy = normal(BATCH, WIDTH, 1.0, &mut rng);
    // Small noise everywhere; modules 1, 4 and the bypass always win,
    // the fourth slot goes to module 7 on rows 0..11 and to module 10 on
    // rows 11..16, module 13 never wins, and every disallowed module
    // outbids all of them.
    let mut logits = normal(BATCH, MODULES, 0.1, &mut rng);
    for b in 0..BATCH {
        let row = logits.row_mut(b);
        for (i, v) in row.iter_mut().enumerate() {
            if !allowed[i] {
                *v += 5.0;
            }
        }
        row[1] += 3.0;
        row[4] += 3.0;
        row[15] += 3.0;
        row[if b < 11 { 7 } else { 10 }] += 1.5;
        row[13] -= 2.0;
    }

    let y = layer.forward(&x, &logits, &allowed, TOP_K, Mode::Train);
    let (probs, loads) = layer.lb_stats();
    let rows: Vec<usize> = held.iter().map(|&i| (loads[i] * BATCH as f32) as usize).collect();
    assert_eq!(rows, [16, 16, 11, 5, 0, 16], "the fixture's routing is not the ragged one it describes");
    let probs = digest(probs.expect("a Train forward keeps probs").data());
    let mean_probs = digest(layer.mean_probs());
    let loads = digest(loads);
    let lb_loss = layer.load_balance_loss().to_bits() as u64;

    layer.visit_params(&mut |_, g| g.zero_());
    let (dx, mut dlogits) = layer.backward(&dy);
    let task_dlogits = digest(dlogits.data());
    layer.add_load_balance_logit_grad(0.02, &mut dlogits);
    let mut grads = Fnv::new();
    layer.visit_params(&mut |_, g| grads.floats(g.data()));

    let y_eval = layer.forward(&x, &logits, &allowed, TOP_K, Mode::Eval);
    [
        digest(y.data()),
        digest(dx.data()),
        task_dlogits,
        grads.0,
        probs,
        mean_probs,
        loads,
        lb_loss,
        digest(dlogits.data()),
        digest(y_eval.data()),
        layer.load_balance_loss().to_bits() as u64,
    ]
}

/// Digests of a six-modules-per-layer client's parameters after 5 and
/// after 10 noisy train steps.
fn client_digests() -> [u64; 2] {
    let cfg = c10_config();
    let spec = SubModelSpec::new(vec![
        vec![0, 3, 6, 9, 12, 15],
        vec![1, 4, 7, 10, 13, 15],
        vec![2, 5, 8, 11, 14, 15],
        vec![0, 1, 2, 3, 4, 15],
    ]);
    let cloud = ModularModel::new(cfg.clone(), 9);
    let mut client = ModularModel::for_submodel(cfg.clone(), &spec);
    client.load_shared_param_vector(&cloud.shared_param_vector());
    for (l, layer) in spec.layers().iter().enumerate() {
        for &i in layer {
            client.load_module_param_vector(l, i, &cloud.module_param_vector(l, i));
        }
    }

    let mut rng = NebulaRng::seed(0xC11E);
    let mut opt = Sgd::with_momentum(0.02, 0.9);
    let mut out = [0u64; 2];
    for slot in &mut out {
        for _ in 0..5 {
            let x = normal(BATCH, cfg.input_dim, 1.0, &mut rng);
            let labels: Vec<usize> = (0..BATCH).map(|_| rng.below(cfg.classes)).collect();
            client.zero_grad();
            let logits = client.forward(&x, Mode::Train);
            let (_, grad) = cross_entropy(&logits, &labels);
            client.backward(&grad);
            client.clip_grad_norm(5.0);
            opt.step(&mut client);
        }
        *slot = digest(&client.param_vector());
    }
    out
}

/// `(engine, layer digests, client digests)` as the parent code computed
/// them.
const PINS: [(KernelBackend, [u64; 11], [u64; 2]); 4] = [
    (
        KernelBackend::Reference,
        [
            0xab1a923be2fc7e52,
            0x26d33b0697d9ba9e,
            0xa6d4e30a072fe073,
            0x0c281a754aceb5ae,
            0xb6820ee86b5114a6,
            0xab5231ec3b1da721,
            0x47dfa46b488eea1b,
            0x0000000040b89800,
            0xcb2314221ef1c045,
            0xab1a923be2fc7e52,
            0x0000000040b89800,
        ],
        [0x0e5a011734d16b67, 0x1935056b457663fd],
    ),
    (
        KernelBackend::Blocked,
        [
            0xd0fe5090ec079ee1,
            0x26d33b0697d9ba9e,
            0x367dc6a8b4d100a3,
            0x82a0b2b32e075970,
            0xb6820ee86b5114a6,
            0xab5231ec3b1da721,
            0x47dfa46b488eea1b,
            0x0000000040b89800,
            0x97bd63cd326f5218,
            0xd0fe5090ec079ee1,
            0x0000000040b89800,
        ],
        [0x5d6609283f0bed47, 0x8e672af356c6cb7b],
    ),
    (
        KernelBackend::Avx2,
        [
            0xce10612f5898b561,
            0x68ce6b2a0d874ef2,
            0x3cb4b2460575ce32,
            0x394c1c6b903315e0,
            0xb6820ee86b5114a6,
            0xab5231ec3b1da721,
            0x47dfa46b488eea1b,
            0x0000000040b89800,
            0xb6390b016f421ddf,
            0xce10612f5898b561,
            0x0000000040b89800,
        ],
        [0xda17ff98c9c028a2, 0xbd7fd1da1ed55b8c],
    ),
    (
        KernelBackend::Avx512,
        [
            0xce10612f5898b561,
            0x68ce6b2a0d874ef2,
            0x3cb4b2460575ce32,
            0x394c1c6b903315e0,
            0xb6820ee86b5114a6,
            0xab5231ec3b1da721,
            0x47dfa46b488eea1b,
            0x0000000040b89800,
            0xb6390b016f421ddf,
            0xce10612f5898b561,
            0x0000000040b89800,
        ],
        [0xda17ff98c9c028a2, 0xbd7fd1da1ed55b8c],
    ),
];

#[test]
fn a_train_step_keeps_its_bits_on_every_engine() {
    // Every supported engine is computed and printed before anything is
    // asserted, so one run shows the whole table.
    let (mut checked, mut moved) = (0, Vec::new());
    for (backend, layer_want, client_want) in PINS {
        let _guard = backend.scoped();
        if resolved_backend() != backend {
            println!("{backend}: not supported by this CPU, skipped");
            continue;
        }
        let (layer_got, client_got) = (layer_digests(), client_digests());
        println!("(KernelBackend::{backend:?}, {layer_got:#018x?}, {client_got:#018x?}),");
        if layer_got != layer_want {
            moved.push(format!("{backend}: MoeLayer forward / backward digests"));
        }
        if client_got != client_want {
            moved.push(format!("{backend}: client parameters after 5 / 10 train steps"));
        }
        checked += 1;
    }
    assert!(checked >= 2, "reference and blocked run on every CPU");
    assert!(moved.is_empty(), "moved: {moved:#?}");
}
