//! Exported run state of a strategy ([`AdaptStrategy::export_state`]):
//! parameters as `f32::to_bits` words, so the JSON round trip of a run
//! snapshot is bit-exact even for non-finite values.
//!
//! [`AdaptStrategy::export_state`]: super::AdaptStrategy::export_state

use nebula_baselines::DenseModel;
use nebula_nn::Layer;
use serde::{Deserialize, Serialize};

/// Serializable mutable state of a dense-model strategy (NA/FA/HFL):
/// the server/base parameters, stored as `f32::to_bits` words so the
/// JSON round trip is bit-exact even for non-finite values.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DenseState {
    /// `name()` of the exporting strategy, checked on import.
    pub name: String,
    pub param_bits: Vec<u32>,
}

/// Serializable state of one Nebula edge client.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ClientState {
    pub id: usize,
    pub param_bits: Vec<u32>,
    pub active: Vec<Vec<usize>>,
    pub installed: Vec<Vec<usize>>,
}

/// Serializable mutable state of [`super::NebulaStrategy`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct NebulaState {
    /// Full cloud model parameters (stem + module layers + head +
    /// unified selector), as bit patterns.
    pub cloud_param_bits: Vec<u32>,
    pub enhanced: bool,
    pub tracked: Vec<usize>,
    /// Edge clients sorted by device id (deterministic encoding).
    pub clients: Vec<ClientState>,
}

/// A strategy's exported run state (see [`super::AdaptStrategy::export_state`]).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum StrategyState {
    Dense(DenseState),
    Nebula(NebulaState),
}

pub(super) fn bits_of(params: &[f32]) -> Vec<u32> {
    params.iter().map(|p| p.to_bits()).collect()
}

pub(super) fn floats_of(bits: &[u32]) -> Vec<f32> {
    bits.iter().map(|&b| f32::from_bits(b)).collect()
}

/// Dense-strategy export shared by NA/FA/HFL.
pub(super) fn dense_export(name: &str, model: &DenseModel) -> StrategyState {
    StrategyState::Dense(DenseState { name: name.to_string(), param_bits: bits_of(&model.param_vector()) })
}

/// Dense-strategy import shared by NA/FA/HFL.
pub(super) fn dense_import(name: &str, model: &mut DenseModel, state: &StrategyState) -> Result<(), String> {
    let StrategyState::Dense(d) = state else {
        return Err(format!("{name}: expected dense strategy state"));
    };
    if d.name != name {
        return Err(format!("state belongs to strategy {}, not {name}", d.name));
    }
    if d.param_bits.len() != model.param_count() {
        return Err(format!(
            "{name}: state has {} params, model wants {}",
            d.param_bits.len(),
            model.param_count()
        ));
    }
    model.load_param_vector(&floats_of(&d.param_bits));
    Ok(())
}
