//! `Layer::clip_grad_norm` first bounds the norm through a reassociated
//! `f64` sum, and when the bound cannot rule clipping out sums several
//! gradient tensors at a time and scales through the list it collected.
//! It must leave the gradients of the expression it replaced — one
//! `Tensor::norm_sq` per tensor added in visit order, then a second visit
//! that calls `Tensor::scale_assign` — bit for bit, and return that
//! expression's norm whenever it returns one, on the models a round
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

    for (name, model) in [("full", &mut full), ("client", &mut client)] {
        model.zero_grad();
        let logits = model.forward(&x, Mode::Train);
        let (_, grad) = cross_entropy(&logits, &labels);
        model.backward(&grad);
        let grads = model.grad_vector();
        let norm = two_visit_clip(model, f32::INFINITY);
        assert!(norm > 0.0 && norm.is_finite(), "{name}: the comparison needs real gradients");

        let reset = |model: &mut ModularModel| {
            let mut at = 0;
            model.visit_params(&mut |_, g| {
                let next = at + g.len();
                g.data_mut().copy_from_slice(&grads[at..next]);
                at = next;
            });
        };
        // A bound above the norm (nothing is scaled), one at it, and two
        // below it.
        for max_norm in [norm * 2.0, norm, norm * 0.37, 0.5] {
            reset(model);
            let reference = two_visit_clip(model, max_norm);
            let reference_grads = bits(&model.grad_vector());
            reset(model);
            let returned = model.clip_grad_norm(max_norm);
            assert!(
                bits(&model.grad_vector()) == reference_grads,
                "{name} model, max_norm {max_norm}: gradients differ"
            );
            if let Some(returned) = returned {
                assert_eq!(
                    returned.to_bits(),
                    reference.to_bits(),
                    "{name} model, max_norm {max_norm}: norms differ"
                );
            }
            if max_norm == norm * 2.0 {
                assert_eq!(returned, None, "{name} model: twice the norm must be ruled out by the bound");
            }
        }
    }
}
