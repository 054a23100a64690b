//! A [`Module`] gathers its routed rows into its first layer's input
//! cache, computes the hidden activation in its second layer's, and reads
//! the ReLU mask back from that activation. None of that may show: on any
//! row set, in either mode, on every kernel engine, its output, its input
//! gradient and its parameter gradients must have the bits of the block
//! composed from the public layers — gather, `Linear`, `Activation::relu`,
//! `Linear`, plus the skip — each keeping its own copy of what it needs.
//!
//! One test function: the backend selection is process-global.

use nebula_modular::Module;
use nebula_nn::{Activation, Layer, Linear, Mode, Workspace};
use nebula_tensor::{resolved_backend, KernelBackend, NebulaRng, Tensor};

const WIDTH: usize = 96;
const HIDDEN: usize = 24;

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn normal(rows: usize, cols: usize, rng: &mut NebulaRng) -> Tensor {
    Tensor::from_vec((0..rows * cols).map(|_| rng.normal_f32(0.0, 1.0)).collect(), &[rows, cols])
}

#[test]
fn module_keeps_the_bits_of_the_block_composed_from_public_layers() {
    for backend in
        [KernelBackend::Reference, KernelBackend::Blocked, KernelBackend::Avx2, KernelBackend::Avx512]
    {
        let _guard = backend.scoped();
        if resolved_backend() != backend {
            println!("{backend}: not supported by this CPU, skipped");
            continue;
        }
        let mut rng = NebulaRng::seed(0xB10C);
        let mut module = Module::shrunk(WIDTH, HIDDEN, &mut rng);
        // Non-zero biases, some hidden units pushed well below zero.
        let mut params = module.param_vector();
        let b1 = WIDTH * HIDDEN;
        for (j, v) in params[b1..b1 + HIDDEN].iter_mut().enumerate() {
            *v = if j % 3 == 0 { -4.0 } else { rng.normal_f32(0.0, 0.1) };
        }
        for v in params[b1 + HIDDEN + HIDDEN * WIDTH..].iter_mut() {
            *v = rng.normal_f32(0.0, 0.1);
        }
        module.load_param_vector(&params);
        let (mut l1, mut act, mut l2) =
            (Linear::zeros(WIDTH, HIDDEN), Activation::relu(), Linear::zeros(HIDDEN, WIDTH));
        l1.load_param_vector(&params[..b1 + HIDDEN]);
        l2.load_param_vector(&params[b1 + HIDDEN..]);

        let mut ws = Workspace::new();
        let x = normal(16, WIDTH, &mut rng);
        // Row counts shrink and grow between calls, so the caches do too.
        for (count, mode) in [0usize, 1, 7, 8, 9, 16, 7, 0, 16]
            .into_iter()
            .flat_map(|count| [(count, Mode::Train), (count, Mode::Eval)])
        {
            let rows: Vec<usize> = (0..count).map(|j| (j * 7 + 3) % 16).collect();
            let mut grad = normal(count, WIDTH, &mut rng);
            if let Some(first) = grad.data_mut().first_mut() {
                *first = -0.0;
            }
            let case = format!("{backend}, {count} rows, {mode:?}");

            module.zero_grad();
            let y = module.forward(&x, &rows, mode, &mut ws);
            let dx = module.backward(&grad, &mut ws);

            for layer in [&mut l1, &mut l2] {
                layer.zero_grad();
            }
            let xg = x.gather_rows(&rows);
            let mut want_y = l2.forward(&act.forward(&l1.forward(&xg, mode), mode), mode);
            want_y.add_assign(&xg);
            let mut want_dx = l1.backward(&act.backward(&l2.backward(&grad)));
            want_dx.add_assign(&grad);
            let mut want_grads = l1.grad_vector();
            want_grads.extend(l2.grad_vector());

            assert_eq!(y.shape(), want_y.shape(), "{case}");
            assert_eq!(bits(y.data()), bits(want_y.data()), "{case}: output");
            assert_eq!(bits(dx.data()), bits(want_dx.data()), "{case}: input gradient");
            let mut grads = Vec::new();
            module.visit_params(&mut |_, g| grads.extend_from_slice(g.data()));
            assert_eq!(bits(&grads), bits(&want_grads), "{case}: parameter gradients");
            ws.recycle(y);
            ws.recycle(dx);
        }
    }
}
