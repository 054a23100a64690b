//! `Layer::clip_grad_norm` sums several gradient tensors at a time and
//! scales through the list it collected. It must return the norm, and
//! leave the gradients, of the expression it replaced — one
//! `Tensor::norm_sq` per tensor added in visit order, then a second visit
//! that calls `Tensor::scale_assign` — bit for bit, on the models a round
//! trains: the cloud's full CIFAR-10 model (64 modules, ~270 tensors) and
//! a device's six-modules-per-layer sub-model.

use nebula_core::modular_config_for;
use nebula_data::TaskPreset;
use nebula_modular::{ModularModel, SubModelSpec};
use nebula_nn::{cross_entropy, Layer, Mode};
use nebula_tensor::{NebulaRng, Tensor};

/// The two-visit form `clip_grad_norm` had before it interleaved.
fn two_visit_clip(model: &mut dyn Layer, max_norm: f32) -> f32 {
    let mut sq = 0.0f32;
    model.visit_params(&mut |_, g| sq += g.norm_sq());
    let norm = sq.sqrt();
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        model.visit_params(&mut |_, g| g.scale_assign(scale));
    }
    norm
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn clip_grad_norm_keeps_the_bits_of_the_two_visit_form() {
    let cfg = modular_config_for(TaskPreset::Cifar10);
    let held: Vec<usize> = (0..cfg.modules_per_layer).filter(|i| i % 3 == 0).collect();
    let client_spec = SubModelSpec::new(vec![held; cfg.num_layers]);
    let params = ModularModel::new(cfg.clone(), 9).param_vector();
    let mut full = ModularModel::new(cfg.clone(), 0);
    full.load_param_vector(&params);
    let mut client = ModularModel::for_submodel(cfg.clone(), &client_spec);
    client.load_param_vector(&ModularModel::new(cfg.clone(), 4).param_vector()[..client.param_count()]);

    let mut rng = NebulaRng::seed(3);
    let x: Vec<f32> = (0..16 * cfg.input_dim).map(|_| rng.normal_f32(0.0, 1.0)).collect();
    let x = Tensor::from_vec(x, &[16, cfg.input_dim]);
    let labels: Vec<usize> = (0..16).map(|i| i % cfg.classes).collect();

    let clips: [fn(&mut dyn Layer, f32) -> f32; 2] = [two_visit_clip, |m, c| m.clip_grad_norm(c)];
    for (name, model) in [("full", &mut full), ("client", &mut client)] {
        model.zero_grad();
        let logits = model.forward(&x, Mode::Train);
        let (_, grad) = cross_entropy(&logits, &labels);
        model.backward(&grad);
        let grads = model.grad_vector();
        let norm = two_visit_clip(model, f32::INFINITY);
        assert!(norm > 0.0 && norm.is_finite(), "{name}: the comparison needs real gradients");

        // A bound above the norm (nothing is scaled) and two below it.
        for max_norm in [norm * 2.0, norm * 0.37, 0.5] {
            let mut clipped = Vec::new();
            for clip in clips {
                let mut at = 0;
                model.visit_params(&mut |_, g| {
                    let next = at + g.len();
                    g.data_mut().copy_from_slice(&grads[at..next]);
                    at = next;
                });
                let norm = clip(&mut *model, max_norm);
                clipped.push((norm.to_bits(), bits(&model.grad_vector())));
            }
            assert!(clipped[0] == clipped[1], "{name} model, max_norm {max_norm}: norm or gradients differ");
        }
    }
}
