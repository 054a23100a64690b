//! Fault injection for dynamic edge environments.
//!
//! Real edge deployments lose devices mid-round, wait on stragglers,
//! retry over flaky links and occasionally receive garbage updates
//! (OOM-killed trainers, fp16 overflow, bit-flips in transit). This
//! module models those failure modes as a seeded [`FaultPlan`] attached
//! to the [`SimWorld`](crate::world::SimWorld): every strategy that runs
//! on the same world sees the *same* injected faults, so robustness
//! comparisons are apples-to-apples.
//!
//! Determinism: each device's per-round [`DeviceFate`] is drawn from a
//! dedicated RNG seeded by `hash(plan.seed, round, device)`. The world's
//! main RNG stream is never consumed, so a [`FaultPlan::none`] run is
//! bit-for-bit identical to a run without any fault plumbing.

use crate::retry::{plan_upload, UploadPlan};
use nebula_core::ModuleUpdate;
use nebula_tensor::NebulaRng;
use serde::{Deserialize, Serialize};

/// What kind of garbage a corrupted update carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CorruptionKind {
    /// Sparse NaNs poison the parameters (fp overflow / bit-flips).
    NanPoison,
    /// All parameters blown up by [`FaultPlan::explode_scale`]
    /// (diverged local training).
    Exploding,
}

/// How a malicious device perturbs its contribution before upload.
///
/// Personas model *adversaries*, not accidents: the device trains
/// normally (its update looks structurally valid and finite) and then
/// applies a targeted perturbation. Magnitudes live on the
/// [`AdversaryPlan`] (the [`FaultPlan::explode_scale`] convention), so
/// the persona itself stays a plain tag.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum AttackPersona {
    /// Upload `−scale · params`: steers the aggregate away from the
    /// honest direction (model poisoning).
    SignFlip,
    /// Add seeded gaussian noise to every parameter (stealthy poisoning).
    GaussianNoise,
    /// Upload `scale · params`: amplifies the device's own influence
    /// while staying finite (and, for modest scales, under the sanitize
    /// gate's norm-outlier radar).
    ScaledUpdate,
    /// Leave parameters untouched but inflate reported importance and
    /// data volume, capturing the importance-weighted average (the
    /// federated-MoE gate-load-gaming concern).
    GateGaming,
}

/// Seeded description of an adversarial cohort inside the population.
///
/// Malice is a *persistent role*: whether a device is malicious is drawn
/// once per device from `seed` (not per round), matching how compromised
/// clients behave in practice. `none()` disables the adversary entirely
/// and is the `Default`, so serialized plans from before this field
/// existed deserialize unchanged.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct AdversaryPlan {
    /// Seed of the adversary process, independent of the fault seed.
    pub seed: u64,
    /// Fraction of the device population that is malicious.
    pub frac: f64,
    /// What malicious devices do.
    pub persona: AttackPersona,
    /// Colluding cohort: all attackers share one per-round attack seed,
    /// so e.g. their gaussian perturbations align instead of cancelling.
    pub collude: bool,
    /// Multiplier for [`AttackPersona::ScaledUpdate`] and the magnitude
    /// of [`AttackPersona::SignFlip`].
    pub scale: f32,
    /// Noise std for [`AttackPersona::GaussianNoise`].
    pub noise_std: f32,
    /// Importance/volume multiplier for [`AttackPersona::GateGaming`].
    pub inflation: f32,
}

impl AdversaryPlan {
    /// No adversary; runs are bit-identical to an adversary-free build.
    pub fn none() -> Self {
        Self {
            seed: 0,
            frac: 0.0,
            persona: AttackPersona::ScaledUpdate,
            collude: false,
            scale: 8.0,
            noise_std: 1.0,
            inflation: 100.0,
        }
    }

    /// Whether any device can be malicious.
    pub fn is_active(&self) -> bool {
        self.frac > 0.0
    }

    /// The persistent malicious role of `device`, if any. Drawn from a
    /// dedicated RNG keyed by `(seed, device)` — rounds never reshuffle
    /// who is compromised.
    pub fn malicious(&self, device: usize) -> Option<AttackPersona> {
        if self.frac <= 0.0 {
            return None;
        }
        let mut rng = NebulaRng::seed(fate_seed(self.seed ^ 0xBAD_F00D, 0, device as u64));
        rng.bernoulli(self.frac).then_some(self.persona)
    }

    /// The seed a malicious `device` perturbs with in `round`. Colluders
    /// share one seed per round (their perturbations align); lone wolves
    /// get independent ones.
    pub fn attack_seed(&self, round: u64, device: usize) -> u64 {
        let who = if self.collude { u64::MAX } else { device as u64 };
        fate_seed(self.seed ^ 0xAD5E_AD5E, round, who)
    }
}

impl Default for AdversaryPlan {
    fn default() -> Self {
        Self::none()
    }
}

/// Seeded description of the faults a population experiences.
///
/// All probabilities are per device per round. `none()` disables every
/// fault and is the default on a fresh world.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed of the fault process, independent of the world seed.
    pub seed: u64,
    /// P(device never starts the round).
    pub dropout_prob: f64,
    /// P(device trains but crashes before uploading).
    pub crash_prob: f64,
    /// P(device straggles this round).
    pub straggler_prob: f64,
    /// Max compute slowdown of a straggler (draws uniform in `[1, this]`).
    pub straggler_slowdown: f64,
    /// P(device's link flakes: transfers retried, bandwidth collapses).
    pub link_flake_prob: f64,
    /// Bandwidth divisor while a link is flaky (≥ 1).
    pub bandwidth_collapse: f64,
    /// P(device's uploaded update is corrupted).
    pub corrupt_prob: f64,
    /// What corruption looks like.
    pub corruption: CorruptionKind,
    /// Multiplier for [`CorruptionKind::Exploding`].
    pub explode_scale: f32,
    /// P(the device's upload frame is corrupted *in transit*). Unlike
    /// [`FaultPlan::corrupt_prob`] — which garbles tensor values inside a
    /// structurally valid message — this flips bytes on the encoded
    /// `nebula-wire` frame, so the CRC check rejects it and the round
    /// loop's retry path (not the sanitize gate) handles it.
    #[serde(default)]
    pub frame_corrupt_prob: f64,
    /// The adversarial cohort, if any (defaults to none, so plans
    /// serialized before adversaries existed still deserialize).
    #[serde(default)]
    pub adversary: AdversaryPlan,
}

impl FaultPlan {
    /// No faults at all; runs are bit-identical to a fault-free build.
    pub fn none() -> Self {
        Self {
            seed: 0,
            dropout_prob: 0.0,
            crash_prob: 0.0,
            straggler_prob: 0.0,
            straggler_slowdown: 1.0,
            link_flake_prob: 0.0,
            bandwidth_collapse: 1.0,
            corrupt_prob: 0.0,
            corruption: CorruptionKind::NanPoison,
            explode_scale: 1e4,
            frame_corrupt_prob: 0.0,
            adversary: AdversaryPlan::none(),
        }
    }

    /// Whether any fault can fire.
    pub fn is_active(&self) -> bool {
        self.dropout_prob > 0.0
            || self.crash_prob > 0.0
            || self.straggler_prob > 0.0
            || self.link_flake_prob > 0.0
            || self.corrupt_prob > 0.0
            || self.frame_corrupt_prob > 0.0
            || self.adversary.is_active()
    }

    /// The deterministic fate of `device` in `round`.
    ///
    /// Uses a private RNG keyed by `(seed, round, device)`; repeated calls
    /// return the same fate and nothing else observes the draw.
    pub fn fate(&self, round: u64, device: usize) -> DeviceFate {
        let mut rng = NebulaRng::seed(fate_seed(self.seed, round, device as u64));
        // Fixed draw order so adding a fault kind later never reshuffles
        // the fates of existing kinds.
        let dropped = rng.bernoulli(self.dropout_prob);
        let crashed = rng.bernoulli(self.crash_prob);
        let straggler = rng.bernoulli(self.straggler_prob);
        let slow_u = rng.uniform_f32(0.0, 1.0) as f64;
        let flaky_link = rng.bernoulli(self.link_flake_prob);
        let extra_attempts = rng.below(3) as u32 + 1;
        let corrupt = rng.bernoulli(self.corrupt_prob);
        // New draws go after the existing ones: adding frame corruption
        // must not reshuffle fates drawn by older plans.
        let frame_corrupt = rng.bernoulli(self.frame_corrupt_prob);
        DeviceFate {
            dropped,
            crashed,
            straggler,
            slowdown: if straggler { 1.0 + slow_u * (self.straggler_slowdown - 1.0).max(0.0) } else { 1.0 },
            flaky_link,
            bandwidth_factor: if flaky_link { 1.0 / self.bandwidth_collapse.max(1.0) } else { 1.0 },
            upload_attempts: if flaky_link { 1 + extra_attempts } else { 1 },
            corruption: if corrupt { Some(self.corruption) } else { None },
            frame_corrupt,
            // Drawn from the adversary's own RNG, not the fate RNG: the
            // fixed draw order above is untouched, and roles persist
            // across rounds.
            malicious: self.adversary.malicious(device),
        }
    }
}

/// What the plan stage of a collaborative round decides for one sampled
/// device that starts the round: its fate and what its link does to the
/// upload under the retry policy.
pub(crate) struct DevicePlan {
    pub fate: DeviceFate,
    pub upload: UploadPlan,
}

impl FaultPlan {
    /// The plan stage for `device`; `None` when it never starts the round.
    /// A pure function of `(plan, policy, round, device)`: it exists
    /// before anything is derived, framed or trained, which is what lets
    /// a round gate its cohort before training it.
    pub(crate) fn plan_device(&self, policy: &RoundPolicy, round: u64, device: usize) -> Option<DevicePlan> {
        let fate = self.fate(round, device);
        let upload = plan_upload(fate.upload_attempts, fate.flaky_link, policy);
        (!fate.dropped).then_some(DevicePlan { fate, upload })
    }
}

/// SplitMix64-style mix of (plan seed, round, device) into a fate seed.
fn fate_seed(seed: u64, round: u64, device: u64) -> u64 {
    let mut z = seed ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ device.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One device's injected faults for one round.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DeviceFate {
    /// Never starts the round (offline / battery / opted out).
    pub dropped: bool,
    /// Dies before the upload lands: the download is paid, the training
    /// is never simulated.
    pub crashed: bool,
    /// Compute slowed this round.
    pub straggler: bool,
    /// Compute slowdown factor (1.0 when not straggling).
    pub slowdown: f64,
    /// Link flaky this round: transfers retried, bandwidth collapsed.
    pub flaky_link: bool,
    /// Multiplier on the device's bandwidth (1.0 when the link is clean).
    pub bandwidth_factor: f64,
    /// Attempts each transfer needs before it succeeds (1 = clean link).
    pub upload_attempts: u32,
    /// Corruption applied to the device's update, if any.
    pub corruption: Option<CorruptionKind>,
    /// The upload frame arrives with flipped bytes (CRC rejects it; the
    /// resend is clean).
    pub frame_corrupt: bool,
    /// The device's persistent malicious role, if any.
    pub malicious: Option<AttackPersona>,
}

impl DeviceFate {
    /// A clean fate (what `FaultPlan::none()` always produces).
    pub fn clean() -> Self {
        Self {
            dropped: false,
            crashed: false,
            straggler: false,
            slowdown: 1.0,
            flaky_link: false,
            bandwidth_factor: 1.0,
            upload_attempts: 1,
            corruption: None,
            frame_corrupt: false,
            malicious: None,
        }
    }
}

/// Robust-orchestration knobs of the round loop (as opposed to the faults
/// themselves): how long the server waits, how often it retries, how much
/// it trusts late arrivals.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct RoundPolicy {
    /// Round deadline as a multiple of the median predicted participant
    /// time (derived from the latency model). `None` waits forever —
    /// the seed behaviour.
    pub deadline_factor: Option<f64>,
    /// Upload/download retries before the server gives a device up.
    pub max_retries: u32,
    /// Importance multiplier for accepted-but-late (straggler) updates.
    pub staleness_discount: f32,
    /// Base of the exponential retry backoff, milliseconds.
    pub retry_backoff_base_ms: f64,
}

impl Default for RoundPolicy {
    fn default() -> Self {
        Self { deadline_factor: None, max_retries: 2, staleness_discount: 0.5, retry_backoff_base_ms: 50.0 }
    }
}

/// Exponential backoff before retry `attempt` (0-based): `base · 2^attempt`.
/// Defined in `nebula-core::retry` (shared with the serving plane);
/// re-exported here for the fault-injection call sites.
pub use nebula_core::retry::backoff_ms;

/// Per-round robustness accounting, summed over a step/run. Defined in
/// `nebula-core::stats` (with [`CommTracker`](crate::network::CommTracker)
/// and `RoundStats`) so bench bins and telemetry sinks consume one shape;
/// re-exported here for the fault-injection call sites that fill it in.
pub use nebula_core::stats::RoundReport;

/// Fraction of elements a [`CorruptionKind::NanPoison`] event poisons —
/// partial corruption, as a torn write would leave.
const NAN_POISON_FRAC: f32 = 0.2;

/// The shared corruption core: applies `f` to `ceil(frac · len)` distinct
/// seeded-random elements of `params`. A nonzero fraction always corrupts
/// at least one element, even on slices short enough that the product
/// rounds to zero — a poisoned short tensor must not silently pass clean.
fn corrupt_elements(params: &mut [f32], frac: f32, rng: &mut NebulaRng, mut f: impl FnMut(&mut f32)) {
    if params.is_empty() || frac <= 0.0 {
        return;
    }
    let k = ((frac.clamp(0.0, 1.0) * params.len() as f32).ceil() as usize).clamp(1, params.len());
    for i in rng.sample_indices(params.len(), k) {
        f(&mut params[i]);
    }
}

/// Visits every parameter tensor of an update in a deterministic order
/// (module keys in `(layer, index)` order — `module_params` is a
/// `BTreeMap` — then the shared part): corruption and attacks that
/// consume RNG draws see a stable tensor sequence.
fn for_each_tensor(update: &mut ModuleUpdate, mut f: impl FnMut(&mut [f32])) {
    for params in update.module_params.values_mut() {
        f(params);
    }
    f(&mut update.shared_params);
}

/// Applies `kind` to a module update in place (what a corrupted upload
/// looks like when it reaches the cloud). Deterministic in `seed`: call
/// sites key it by (plan seed, round, device) so a replayed round
/// corrupts identically.
pub fn corrupt_module_update(update: &mut ModuleUpdate, kind: CorruptionKind, explode_scale: f32, seed: u64) {
    match kind {
        CorruptionKind::NanPoison => {
            let mut rng = NebulaRng::seed(seed ^ 0x0150_0150_0150_0150);
            for_each_tensor(update, |params| {
                corrupt_elements(params, NAN_POISON_FRAC, &mut rng, |p| *p = f32::NAN)
            });
        }
        CorruptionKind::Exploding => {
            for_each_tensor(update, |params| {
                for p in params.iter_mut() {
                    *p *= explode_scale;
                }
            });
        }
    }
}

/// Applies a malicious persona to a device's own update before upload.
///
/// `seed` comes from [`AdversaryPlan::attack_seed`], so colluding
/// attackers perturb identically within a round while lone attackers
/// draw independently.
pub fn apply_attack(update: &mut ModuleUpdate, plan: &AdversaryPlan, seed: u64) {
    match plan.persona {
        AttackPersona::SignFlip => {
            for_each_tensor(update, |params| {
                for p in params.iter_mut() {
                    *p *= -plan.scale;
                }
            });
        }
        AttackPersona::ScaledUpdate => {
            for_each_tensor(update, |params| {
                for p in params.iter_mut() {
                    *p *= plan.scale;
                }
            });
        }
        AttackPersona::GaussianNoise => {
            let mut rng = NebulaRng::seed(seed ^ 0x6A05_6A05_6A05_6A05);
            for_each_tensor(update, |params| {
                for p in params.iter_mut() {
                    *p += rng.normal_f32(0.0, plan.noise_std);
                }
            });
        }
        AttackPersona::GateGaming => {
            // Parameters stay honest-looking; the lie is in the weights
            // the importance-weighted average trusts.
            for row in &mut update.importance {
                for w in row.iter_mut() {
                    *w *= plan.inflation;
                }
            }
            update.data_volume =
                (((update.data_volume as f32) * plan.inflation).round() as usize).max(update.data_volume);
        }
    }
}

/// Flips 1–4 bytes of an encoded wire frame in place (deterministic in
/// `seed`), modelling transit corruption. Any flip is guaranteed to make
/// `FrameView::parse` fail its CRC check, because the flipped byte always
/// differs from the original.
pub fn corrupt_frame(frame: &mut [u8], seed: u64) {
    if frame.is_empty() {
        return;
    }
    let mut rng = NebulaRng::seed(seed ^ 0xF1A6_F1A6_F1A6_F1A6);
    let flips = rng.below(4) + 1;
    for _ in 0..flips {
        let i = rng.below(frame.len());
        // XOR with a nonzero mask so the byte always changes.
        frame[i] ^= (rng.below(255) as u8) + 1;
    }
}

/// Forge a frame the way a protocol-aware attacker would: flip one body
/// byte and *recompute the CRC trailer*, so the tamper sails through an
/// integrity-only check. Against unauthenticated v1 frames this forgery
/// can decode as legitimate data; only a keyed MAC
/// ([`nebula_wire::FrameKey`]) rejects it, which is exactly what the
/// `wire.rejects_auth` telemetry measures.
pub fn forge_frame(frame: &mut [u8], seed: u64) {
    use nebula_wire::frame::{FLAG_AUTH, HEADER_LEN, MAC_LEN, TRAILER_LEN};
    if frame.len() < HEADER_LEN + TRAILER_LEN {
        return;
    }
    let authed = frame[7] & FLAG_AUTH != 0;
    let body_end = frame.len() - TRAILER_LEN - if authed { MAC_LEN } else { 0 };
    let span = body_end.saturating_sub(HEADER_LEN);
    if span == 0 {
        return;
    }
    let mut rng = NebulaRng::seed(seed ^ 0xF063_F063_F063_F063);
    let i = HEADER_LEN + rng.below(span);
    frame[i] ^= (rng.below(255) as u8) + 1;
    let crc = nebula_wire::crc32(&frame[..body_end]).to_le_bytes();
    frame[body_end..body_end + TRAILER_LEN].copy_from_slice(&crc);
}

/// Folds `frac` corrupted contributions into an already-averaged dense
/// parameter vector (FedAvg/HeteroFL have no per-update gate; a poisoned
/// client poisons the mean itself). Deterministic in `seed` — key it by
/// (plan seed, round) so a resumed run poisons the same coordinates.
pub fn poison_dense_mean(
    params: &mut [f32],
    kind: CorruptionKind,
    explode_scale: f32,
    corrupt_frac: f32,
    seed: u64,
) {
    if corrupt_frac <= 0.0 {
        return;
    }
    match kind {
        // Torn-write NaNs in the corrupted clients' vectors surface as
        // NaN at those coordinates of the mean: seeded, sparse (≥ 1 even
        // on short slices), via the shared corruption core.
        CorruptionKind::NanPoison => {
            let mut rng = NebulaRng::seed(seed ^ 0x0150_0150_0150_0150);
            corrupt_elements(params, corrupt_frac, &mut rng, |p| *p = f32::NAN);
        }
        // Mean of (1-frac) honest + frac exploded copies of the weights.
        CorruptionKind::Exploding => {
            let m = 1.0 + corrupt_frac * (explode_scale - 1.0);
            for p in params.iter_mut() {
                *p *= m;
            }
        }
    }
}

/// Folds a malicious cohort of fraction `frac` into an already-averaged
/// dense parameter vector — the persona analogue of
/// [`poison_dense_mean`] for the flat-model baselines:
///
/// * `ScaledUpdate` — mean of `(1−frac)` honest + `frac` scaled copies.
/// * `SignFlip` — attackers contribute `−scale · params`.
/// * `GaussianNoise` — attackers' noise survives the average at weight
///   `frac` (colluding attackers add the *same* noise, so it does not
///   cancel; this models that worst case).
/// * `GateGaming` — no-op: dense baselines have no gates or importance
///   weights to game.
pub fn attack_dense_mean(params: &mut [f32], plan: &AdversaryPlan, frac: f32, seed: u64) {
    if frac <= 0.0 {
        return;
    }
    match plan.persona {
        AttackPersona::ScaledUpdate => {
            let m = 1.0 + frac * (plan.scale - 1.0);
            for p in params.iter_mut() {
                *p *= m;
            }
        }
        AttackPersona::SignFlip => {
            let m = 1.0 - frac * (1.0 + plan.scale);
            for p in params.iter_mut() {
                *p *= m;
            }
        }
        AttackPersona::GaussianNoise => {
            let mut rng = NebulaRng::seed(seed ^ 0x6A05_6A05_6A05_6A05);
            for p in params.iter_mut() {
                *p += frac * rng.normal_f32(0.0, plan.noise_std);
            }
        }
        AttackPersona::GateGaming => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn plan(p: f64) -> FaultPlan {
        FaultPlan {
            seed: 7,
            dropout_prob: p,
            crash_prob: p,
            straggler_prob: p,
            straggler_slowdown: 8.0,
            link_flake_prob: p,
            bandwidth_collapse: 10.0,
            corrupt_prob: p,
            corruption: CorruptionKind::NanPoison,
            explode_scale: 1e4,
            frame_corrupt_prob: p,
            adversary: AdversaryPlan::none(),
        }
    }

    fn toy_update(n: usize) -> ModuleUpdate {
        ModuleUpdate {
            spec: nebula_modular::SubModelSpec::new(vec![vec![0]]),
            module_params: BTreeMap::from([((0, 0), vec![1.0f32; n])]),
            shared_params: vec![2.0f32; n],
            importance: vec![vec![1.0]],
            data_volume: 10,
        }
    }

    #[test]
    fn none_plan_yields_clean_fates() {
        let p = FaultPlan::none();
        assert!(!p.is_active());
        for round in 0..5 {
            for dev in 0..20 {
                assert_eq!(p.fate(round, dev), DeviceFate::clean());
            }
        }
    }

    #[test]
    fn fates_are_deterministic_and_vary_by_key() {
        let p = plan(0.5);
        assert_eq!(p.fate(3, 4), p.fate(3, 4));
        let fates: Vec<DeviceFate> = (0..40).map(|d| p.fate(0, d)).collect();
        // 40 devices at 50% rates: some of each outcome, not all equal.
        assert!(fates.iter().any(|f| f.dropped));
        assert!(fates.iter().any(|f| !f.dropped));
        assert!(fates.iter().any(|f| f.corruption.is_some()));
        // Different rounds reshuffle the fates.
        let other: Vec<DeviceFate> = (0..40).map(|d| p.fate(1, d)).collect();
        assert_ne!(fates, other);
    }

    #[test]
    fn straggler_slowdown_in_range() {
        let p = plan(1.0);
        for d in 0..30 {
            let f = p.fate(0, d);
            assert!(f.straggler);
            assert!(f.slowdown >= 1.0 && f.slowdown <= 8.0, "slowdown {}", f.slowdown);
            assert!(f.upload_attempts >= 2 && f.upload_attempts <= 4);
            assert!((f.bandwidth_factor - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn backoff_doubles() {
        assert_eq!(backoff_ms(50.0, 0), 50.0);
        assert_eq!(backoff_ms(50.0, 1), 100.0);
        assert_eq!(backoff_ms(50.0, 3), 400.0);
    }

    #[test]
    fn corruption_kinds_do_what_they_say() {
        let mut u = toy_update(10);
        let mut exploded = u.clone();
        corrupt_module_update(&mut u, CorruptionKind::NanPoison, 1e4, 99);
        assert!(u.module_params[&(0, 0)].iter().any(|p| p.is_nan()));
        assert!(u.shared_params.iter().any(|p| p.is_nan()));
        // Sparse, not total: honest values survive alongside the NaNs.
        assert!(u.shared_params.iter().any(|p| p.is_finite()));
        // Deterministic in the seed, different across seeds.
        let mut again = toy_update(10);
        corrupt_module_update(&mut again, CorruptionKind::NanPoison, 1e4, 99);
        let nan_mask =
            |u: &ModuleUpdate| -> Vec<bool> { u.shared_params.iter().map(|p| p.is_nan()).collect() };
        assert_eq!(nan_mask(&u), nan_mask(&again));
        corrupt_module_update(&mut exploded, CorruptionKind::Exploding, 1e4, 99);
        assert!(exploded.shared_params.iter().all(|p| (*p - 2e4).abs() < 1.0));
    }

    #[test]
    fn dense_poisoning_models_a_poisoned_mean() {
        let mut p = vec![1.0f32; 8];
        poison_dense_mean(&mut p, CorruptionKind::Exploding, 100.0, 0.0, 5);
        assert!(p.iter().all(|v| *v == 1.0), "zero fraction must be a no-op");
        poison_dense_mean(&mut p, CorruptionKind::Exploding, 100.0, 0.5, 5);
        assert!(p.iter().all(|v| (*v - 50.5).abs() < 1e-3));
        poison_dense_mean(&mut p, CorruptionKind::NanPoison, 100.0, 0.25, 5);
        assert_eq!(p.iter().filter(|v| v.is_nan()).count(), 2, "ceil(0.25·8) coordinates");
        assert!(p.iter().any(|v| v.is_finite()), "sparse poison leaves honest coordinates");
        // Determinism: same seed poisons the same coordinates.
        let mut q = vec![1.0f32; 8];
        poison_dense_mean(&mut q, CorruptionKind::Exploding, 100.0, 0.5, 5);
        poison_dense_mean(&mut q, CorruptionKind::NanPoison, 100.0, 0.25, 5);
        let mask = |v: &[f32]| -> Vec<bool> { v.iter().map(|x| x.is_nan()).collect() };
        assert_eq!(mask(&p), mask(&q));
    }

    #[test]
    fn short_slice_nonzero_fraction_still_corrupts() {
        // The edge case: 0.1 of 3 elements rounds to 0.3 → used to be
        // able to corrupt nothing; the core guarantees at least one.
        let mut p = vec![1.0f32; 3];
        poison_dense_mean(&mut p, CorruptionKind::NanPoison, 1.0, 0.1, 7);
        assert_eq!(p.iter().filter(|v| v.is_nan()).count(), 1);
        let mut rng = NebulaRng::seed(1);
        let mut single = vec![1.0f32];
        corrupt_elements(&mut single, 0.01, &mut rng, |v| *v = 0.0);
        assert_eq!(single, vec![0.0]);
    }

    // --- attack personas --------------------------------------------------

    fn adversary(persona: AttackPersona) -> AdversaryPlan {
        AdversaryPlan { frac: 0.3, persona, seed: 11, ..AdversaryPlan::none() }
    }

    #[test]
    fn malicious_roles_are_persistent_and_proportional() {
        let adv = adversary(AttackPersona::SignFlip);
        let roles: Vec<Option<AttackPersona>> = (0..200).map(|d| adv.malicious(d)).collect();
        let evil = roles.iter().filter(|r| r.is_some()).count();
        assert!((30..90).contains(&evil), "≈30% of 200 expected, got {evil}");
        // Role is per device, not per round: fate() reports the same
        // persona in every round.
        let plan = FaultPlan { adversary: adv, ..FaultPlan::none() };
        for d in 0..20 {
            assert_eq!(plan.fate(0, d).malicious, plan.fate(5, d).malicious);
            assert_eq!(plan.fate(0, d).malicious, adv.malicious(d));
        }
        assert!(plan.is_active());
    }

    #[test]
    fn personas_perturb_as_documented() {
        let mut flip = toy_update(6);
        apply_attack(&mut flip, &adversary(AttackPersona::SignFlip), 3);
        assert!(flip.shared_params.iter().all(|p| (*p + 16.0).abs() < 1e-5), "2 · −8 = −16");

        let mut scaled = toy_update(6);
        apply_attack(&mut scaled, &adversary(AttackPersona::ScaledUpdate), 3);
        assert!(scaled.shared_params.iter().all(|p| (*p - 16.0).abs() < 1e-5), "2 · 8 = 16");

        let mut noisy = toy_update(6);
        apply_attack(&mut noisy, &adversary(AttackPersona::GaussianNoise), 3);
        assert!(noisy.shared_params.iter().any(|p| (*p - 2.0).abs() > 1e-6));
        assert!(noisy.shared_params.iter().all(|p| p.is_finite()));
        let mut noisy2 = toy_update(6);
        apply_attack(&mut noisy2, &adversary(AttackPersona::GaussianNoise), 3);
        assert_eq!(noisy.shared_params, noisy2.shared_params, "same attack seed, same noise");

        let mut gamed = toy_update(6);
        apply_attack(&mut gamed, &adversary(AttackPersona::GateGaming), 3);
        assert_eq!(gamed.shared_params, toy_update(6).shared_params, "params stay honest");
        assert!((gamed.importance[0][0] - 100.0).abs() < 1e-5);
        assert_eq!(gamed.data_volume, 1000);
    }

    #[test]
    fn colluders_share_attack_seeds_and_lone_wolves_do_not() {
        let collusive = AdversaryPlan { collude: true, ..adversary(AttackPersona::GaussianNoise) };
        assert_eq!(collusive.attack_seed(4, 1), collusive.attack_seed(4, 2));
        assert_ne!(collusive.attack_seed(4, 1), collusive.attack_seed(5, 1), "seeds rotate per round");
        let lone = adversary(AttackPersona::GaussianNoise);
        assert_ne!(lone.attack_seed(4, 1), lone.attack_seed(4, 2));
    }

    #[test]
    fn plans_without_adversary_field_deserialize_to_none() {
        // Strip the (last-serialized) adversary field to simulate a plan
        // written before adversaries existed.
        let full = serde_json::to_string(&FaultPlan::none()).unwrap();
        let at = full.find(",\"adversary\"").expect("adversary field serialized last");
        let stripped = format!("{}}}", &full[..at]);
        let plan: FaultPlan = serde_json::from_str(&stripped).unwrap();
        assert_eq!(plan.adversary, AdversaryPlan::none());
        assert_eq!(plan, FaultPlan::none());
    }

    #[test]
    fn frame_corruption_is_deterministic_and_changes_bytes() {
        let original: Vec<u8> = (0..64).map(|i| i as u8).collect();
        let mut a = original.clone();
        let mut b = original.clone();
        corrupt_frame(&mut a, 42);
        corrupt_frame(&mut b, 42);
        assert_eq!(a, b, "same seed must corrupt identically");
        assert_ne!(a, original, "corruption must change at least one byte");
        let mut c = original.clone();
        corrupt_frame(&mut c, 43);
        // Different seeds almost surely corrupt differently (fixed seeds
        // here, so this is deterministic, not flaky).
        assert_ne!(a, c);
        // Empty frames are a no-op, not a panic.
        corrupt_frame(&mut [], 1);
    }

    #[test]
    fn frame_corrupt_fates_fire_independently_of_value_corruption() {
        let p = FaultPlan { frame_corrupt_prob: 1.0, ..FaultPlan::none() };
        for d in 0..10 {
            let f = p.fate(0, d);
            assert!(f.frame_corrupt);
            assert!(f.corruption.is_none());
        }
        assert!(p.is_active());
    }
}
