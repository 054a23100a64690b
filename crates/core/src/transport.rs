//! Module transport: turning [`SubModelPayload`] / [`ModuleUpdate`]
//! messages into real `nebula-wire` frames and back.
//!
//! The cloud owns one [`WireContext`]. Every download is encoded against
//! the registry of committed module baselines (so warm devices receive
//! deltas and cold devices transparently receive raw records), every
//! upload is decoded against the exact baseline version the device
//! acknowledged, and the returned frame lengths are the *measured* bytes
//! the simulator's `CommTracker` records.
//!
//! Codec semantics per direction:
//!
//! * downloads are **lossless** for `Raw`/`DeltaFp32` (delta threshold is
//!   forced to 0 so a warm download reconstructs the cloud parameters
//!   bit-exactly) and lossy for `QuantInt8` (per-receiver error feedback);
//! * uploads apply the configured delta threshold (sparsification) or
//!   int8 quantization with per-device error feedback.
//!
//! Frame layout notes: payload frames carry one record per module
//! (residual modules ship empty payloads), a `SHARED` record, and a
//! `META` record holding the registry version the payload was cut from —
//! the version a successful decode acknowledges. Update frames carry
//! module records, `SHARED`, one importance row per layer, and `META`
//! holding the device's data volume.

use crate::aggregate::ModuleUpdate;
use crate::cloud::SubModelPayload;
use nebula_modular::{ModularModel, SubModelSpec};
use nebula_telemetry::Telemetry;
use nebula_wire::codec::{self, CodecKind};
use nebula_wire::frame::{FrameBuilder, FrameKind, FrameView, ModuleKey};
use nebula_wire::{FrameKey, ModuleRegistry, ResidualStore, WireError};
use std::collections::BTreeMap;

/// Transport configuration, chosen per strategy/config.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WireConfig {
    /// Codec for module traffic in both directions.
    pub codec: CodecKind,
    /// Upload sparsification threshold for `DeltaFp32` (|delta| ≤
    /// threshold is dropped). Downloads always use 0 (exact).
    pub delta_threshold: f32,
    /// Master key for frame authentication. When set, every frame is cut
    /// with a per-device SipHash-2-4 MAC and every decode verifies it
    /// before the CRC; `None` speaks the v1 unauthenticated format.
    pub auth_key: Option<[u8; 16]>,
}

impl Default for WireConfig {
    fn default() -> Self {
        WireConfig { codec: CodecKind::Raw, delta_threshold: 0.0, auth_key: None }
    }
}

impl WireConfig {
    pub fn raw() -> Self {
        Self::default()
    }

    pub fn delta(threshold: f32) -> Self {
        WireConfig { codec: CodecKind::DeltaFp32, delta_threshold: threshold, auth_key: None }
    }

    pub fn int8() -> Self {
        WireConfig { codec: CodecKind::QuantInt8, delta_threshold: 0.0, auth_key: None }
    }

    /// Enable authenticated frames under `key` (shared cloud-side master;
    /// per-device keys are derived from it).
    pub fn with_auth(mut self, key: [u8; 16]) -> Self {
        self.auth_key = Some(key);
        self
    }
}

/// Cloud-side transport state: the baseline registry plus error-feedback
/// residual stores for both directions.
pub struct WireContext {
    cfg: WireConfig,
    registry: ModuleRegistry,
    /// Upload error feedback, keyed by the sending device.
    up_residuals: ResidualStore,
    /// Download error feedback, keyed by the receiving device.
    down_residuals: ResidualStore,
    /// Master MAC key when frame auth is enabled.
    master_key: Option<FrameKey>,
    /// Frame/byte/CRC-reject accounting; off by default.
    telemetry: Telemetry,
}

impl WireContext {
    /// Four retained baseline versions cover the round loop's maximum
    /// staleness (retry depth + one straggler round) with slack.
    pub fn new(cfg: WireConfig) -> Self {
        WireContext {
            cfg,
            registry: ModuleRegistry::new(4),
            up_residuals: ResidualStore::new(),
            down_residuals: ResidualStore::new(),
            master_key: cfg.auth_key.as_ref().map(FrameKey::from_bytes),
            telemetry: Telemetry::off(),
        }
    }

    /// The per-device MAC key, or `None` when auth is disabled.
    fn key_for(&self, device: u64) -> Option<FrameKey> {
        self.master_key.as_ref().map(|m| m.derive(device))
    }

    /// Attaches a telemetry handle; every encode/decode from here on
    /// counts frames, bytes and CRC rejects (`wire.*` metrics).
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    pub fn config(&self) -> WireConfig {
        self.cfg
    }

    /// Commit the cloud model's current parameters as the baselines for
    /// this round's traffic. Call once per round, after aggregation (or
    /// rollback) settles and before the first dispatch. Returns the new
    /// registry version. `Raw`/`QuantInt8` never read baselines, so the
    /// commit is skipped entirely for them.
    pub fn commit_model(&mut self, model: &ModularModel) -> u64 {
        if self.cfg.codec != CodecKind::DeltaFp32 {
            return self.registry.version();
        }
        let v = self.registry.begin_version();
        let modules_per_layer = model.config().modules_per_layer;
        for l in 0..model.num_layers() {
            for i in 0..modules_per_layer {
                self.registry.put(ModuleKey::module(l, i), v, &model.module_param_vector(l, i));
            }
        }
        self.registry.put(ModuleKey::SHARED, v, &model.shared_param_vector());
        v
    }

    /// Encode a cloud → device payload into `out` (cleared). Returns the
    /// frame length — the measured download size.
    pub fn encode_payload(&mut self, device: u64, payload: &SubModelPayload, out: &mut Vec<u8>) -> usize {
        // Registry version this payload was cut from; acked on decode.
        let version = self.registry.version();
        self.encode_frame(
            FrameKind::Payload,
            device,
            &payload.module_params,
            &payload.shared_params,
            out,
            |b| {
                b.record(ModuleKey::META, CodecKind::Raw, 0, 0, |o| {
                    o.extend_from_slice(&version.to_le_bytes())
                })
            },
        )
    }

    /// Decode a payload frame on behalf of `device`. On success the
    /// device's holdings are acknowledged at the payload's registry
    /// version, so the next download can be a delta. Any error leaves the
    /// ack state untouched (the sender retries the identical frame).
    pub fn decode_payload(&mut self, device: u64, bytes: &[u8]) -> Result<SubModelPayload, WireError> {
        let (payload, _, version) = self
            .decode_frame(device, bytes, false)
            .inspect_err(|e| self.note_decode_error("down", device, e))?;
        if version > 0 {
            for &(l, i) in payload.module_params.keys() {
                self.registry.ack(device, ModuleKey::module(l, i), version);
            }
            self.registry.ack(device, ModuleKey::SHARED, version);
        }
        Ok(payload)
    }

    /// Encode a device → cloud update into `out` (cleared). Returns the
    /// frame length — the measured upload size.
    pub fn encode_update(&mut self, device: u64, update: &ModuleUpdate, out: &mut Vec<u8>) -> usize {
        self.encode_frame(FrameKind::Update, device, &update.module_params, &update.shared_params, out, |b| {
            // Importance rows and metadata are tiny: always raw.
            for (l, row) in update.importance.iter().enumerate() {
                b.record(ModuleKey::importance(l), CodecKind::Raw, 0, row.len(), |o| {
                    codec::encode_raw(row, o)
                });
            }
            let volume = update.data_volume as u64;
            b.record(ModuleKey::META, CodecKind::Raw, 0, 0, |o| o.extend_from_slice(&volume.to_le_bytes()));
        })
    }

    /// Decode an update frame attributed to `device`, verifying its MAC
    /// under the device's derived key when auth is enabled. Stale delta
    /// uploads (baseline version already evicted) surface as
    /// [`WireError::StaleBaseline`].
    pub fn decode_update_from(&mut self, device: u64, bytes: &[u8]) -> Result<ModuleUpdate, WireError> {
        let (payload, importance, volume) = self
            .decode_frame(device, bytes, true)
            .inspect_err(|e| self.note_decode_error("up", device, e))?;
        let SubModelPayload { spec, module_params, shared_params } = payload;
        Ok(ModuleUpdate { spec, module_params, shared_params, importance, data_volume: volume as usize })
    }

    /// Cut a module frame of `kind` for `device`: the modules in key
    /// order, then `SHARED`, each under the configured codec against what
    /// the device acked, then the caller's `tail` records. A payload goes
    /// down exactly (delta threshold 0) with download residuals, an update
    /// up under the configured threshold with upload residuals.
    fn encode_frame(
        &mut self,
        kind: FrameKind,
        device: u64,
        modules: &BTreeMap<(usize, usize), Vec<f32>>,
        shared: &[f32],
        out: &mut Vec<u8>,
        tail: impl FnOnce(&mut FrameBuilder<'_>),
    ) -> usize {
        let (dir, threshold, residuals) = match kind {
            FrameKind::Payload => ("down", 0.0, &mut self.down_residuals),
            _ => ("up", self.cfg.delta_threshold, &mut self.up_residuals),
        };
        let registry = &self.registry;
        let mut b = FrameBuilder::begin(out, kind, self.cfg.codec);
        let records = modules.iter().map(|(&(l, i), v)| (ModuleKey::module(l, i), v.as_slice()));
        for (key, values) in records.chain([(ModuleKey::SHARED, shared)]) {
            let acked = registry.acked_version(device, key);
            let base = acked.and_then(|v| registry.baseline(key, v).ok().map(|base| (v, base)));
            let store = &mut *residuals;
            b.values(key, self.cfg.codec, values, base, threshold, move || {
                store.residual(device, key, values.len())
            });
        }
        tail(&mut b);
        let n = b.finish_keyed(self.key_for(device).as_ref());
        self.note_frame(dir, device, n);
        n
    }

    /// Decode a module frame from `device`: its module records, `SHARED`,
    /// with `importance` its importance rows in layer order, and the u64
    /// its `META` record carries.
    fn decode_frame(
        &self,
        device: u64,
        bytes: &[u8],
        importance: bool,
    ) -> Result<(SubModelPayload, Vec<Vec<f32>>, u64), WireError> {
        let view = FrameView::parse_keyed(bytes, self.key_for(device).as_ref())?;
        let baseline = |key, version| self.registry.baseline(key, version);
        let mut module_params = BTreeMap::new();
        let mut shared_params = Vec::new();
        let mut rows: Vec<(usize, Vec<f32>)> = Vec::new();
        let mut meta = 0u64;
        for rec in view.records() {
            if rec.key.is_module() {
                let mut values = Vec::new();
                rec.decode(baseline, &mut values)?;
                module_params.insert((rec.key.layer as usize, rec.key.module as usize), values);
            } else if rec.key.is_shared() {
                rec.decode(baseline, &mut shared_params)?;
            } else if importance && rec.key.is_importance() {
                let mut row = Vec::new();
                codec::decode_raw(rec.payload, rec.elems, &mut row)?;
                rows.push((rec.key.module as usize, row));
            } else if rec.key.is_meta() {
                let bytes: [u8; 8] = rec
                    .payload
                    .try_into()
                    .map_err(|_| WireError::LengthMismatch { expected: 8, got: rec.payload.len() })?;
                meta = u64::from_le_bytes(bytes);
            }
        }
        rows.sort_unstable_by_key(|(l, _)| *l);
        let spec = spec_from_keys(module_params.keys().copied())?;
        let payload = SubModelPayload { spec, module_params, shared_params };
        Ok((payload, rows.into_iter().map(|(_, r)| r).collect(), meta))
    }

    /// Telemetry for one encoded frame: per-direction frame/byte counters,
    /// a frame-size histogram, and a `kind = "wire"` trace event.
    fn note_frame(&self, dir: &'static str, device: u64, bytes: usize) {
        if !self.telemetry.enabled() {
            return;
        }
        self.telemetry.counter_add(&format!("wire.frames_{dir}"), 1);
        self.telemetry.counter_add(&format!("wire.bytes_{dir}"), bytes as u64);
        self.telemetry.observe(&format!("wire.frame_bytes_{dir}"), bytes as f64);
        self.telemetry.emit("wire", |e| {
            e.text.insert("dir".into(), dir.into());
            e.ints.insert("device".into(), device);
            e.ints.insert("bytes".into(), bytes as u64);
        });
    }

    /// Telemetry for a failed decode, classifying CRC rejects (transit
    /// corruption) and MAC rejects (forgery / downgrade) apart from
    /// structural/baseline errors.
    fn note_decode_error(&self, dir: &'static str, device: u64, err: &WireError) {
        if !self.telemetry.enabled() {
            return;
        }
        let class = match err {
            WireError::CrcMismatch { .. } => "crc",
            WireError::AuthMismatch { .. } | WireError::AuthMissing => "auth",
            _ => "decode",
        };
        self.telemetry.counter_add(&format!("wire.rejects_{class}"), 1);
        self.telemetry.emit("wire", |e| {
            e.text.insert("dir".into(), dir.into());
            e.text.insert("reject".into(), class.into());
            e.ints.insert("device".into(), device);
        });
    }
}

/// Rebuild a [`SubModelSpec`] from the module keys present in a frame.
/// Derivation guarantees at least one module per layer and dispatch ships
/// every spec module (residuals as empty records), so an honest frame has
/// no gap; a frame that skips a layer is rejected rather than handed to
/// [`SubModelSpec::new`], which panics on an empty layer.
fn spec_from_keys(keys: impl Iterator<Item = (usize, usize)>) -> Result<SubModelSpec, WireError> {
    let mut layers: Vec<Vec<usize>> = Vec::new();
    for (l, i) in keys {
        if layers.len() <= l {
            layers.resize_with(l + 1, Vec::new);
        }
        layers[l].push(i);
    }
    match layers.iter().position(Vec::is_empty) {
        Some(layer) => Err(WireError::EmptyLayer { layer }),
        None => Ok(SubModelSpec::new(layers)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cloud::{NebulaCloud, NebulaParams};
    use crate::edge::EdgeClient;
    use nebula_data::{SynthSpec, Synthesizer};
    use nebula_tensor::NebulaRng;

    fn cloud() -> NebulaCloud {
        let mut cfg = nebula_modular::ModularConfig::toy(16, 4);
        cfg.gate_noise_std = 0.2;
        NebulaCloud::new(cfg, NebulaParams::default(), 11)
    }

    fn spec() -> SubModelSpec {
        SubModelSpec::new(vec![vec![0, 2, 3], vec![1]])
    }

    #[test]
    fn raw_payload_round_trip_is_bit_exact() {
        let c = cloud();
        let mut wire = WireContext::new(WireConfig::raw());
        let payload = c.dispatch(&spec());
        let mut frame = Vec::new();
        let n = wire.encode_payload(7, &payload, &mut frame);
        assert_eq!(n, frame.len());
        let back = wire.decode_payload(7, &frame).unwrap();
        assert_eq!(back.spec, payload.spec);
        assert_eq!(back.shared_params, payload.shared_params);
        for (k, v) in &payload.module_params {
            assert_eq!(&back.module_params[k], v, "module {k:?} not bit-exact");
        }
    }

    #[test]
    fn raw_update_round_trip_is_bit_exact() {
        let c = cloud();
        let mut wire = WireContext::new(WireConfig::raw());
        let payload = c.dispatch(&spec());
        let synth = Synthesizer::new(SynthSpec::toy(), 1);
        let mut rng = NebulaRng::seed(3);
        let local = synth.sample(30, 0, &mut rng);
        let mut client = EdgeClient::from_payload(c.model().config().clone(), &payload);
        client.adapt(&local, 1, 16, 0.05, &mut rng);
        let update = client.make_update(&local);

        let mut frame = Vec::new();
        wire.encode_update(7, &update, &mut frame);
        let back = wire.decode_update_from(7, &frame).unwrap();
        assert_eq!(back.spec, update.spec);
        assert_eq!(back.shared_params, update.shared_params);
        assert_eq!(back.importance, update.importance);
        assert_eq!(back.data_volume, update.data_volume);
        for (k, v) in &update.module_params {
            assert_eq!(&back.module_params[k], v);
        }
    }

    #[test]
    fn delta_downloads_shrink_once_warm() {
        let c = cloud();
        let mut wire = WireContext::new(WireConfig::delta(0.0));
        wire.commit_model(c.model());
        let payload = c.dispatch(&spec());
        let mut frame = Vec::new();
        let cold = wire.encode_payload(7, &payload, &mut frame);
        let back = wire.decode_payload(7, &frame).unwrap();
        assert_eq!(back.shared_params, payload.shared_params);

        // Same parameters again: every delta is empty.
        wire.commit_model(c.model());
        let warm = wire.encode_payload(7, &payload, &mut frame);
        assert!(warm < cold / 4, "warm {warm} vs cold {cold}");
        let back = wire.decode_payload(7, &frame).unwrap();
        assert_eq!(back.shared_params, payload.shared_params);
        for (k, v) in &payload.module_params {
            assert_eq!(&back.module_params[k], v, "warm delta download must stay exact");
        }
    }

    #[test]
    fn delta_upload_against_acked_baseline() {
        let c = cloud();
        let mut wire = WireContext::new(WireConfig::delta(0.0));
        wire.commit_model(c.model());
        let payload = c.dispatch(&spec());
        let mut frame = Vec::new();
        wire.encode_payload(7, &payload, &mut frame);
        wire.decode_payload(7, &frame).unwrap();

        // Device nudges a couple of parameters and uploads.
        let mut update = ModuleUpdate {
            spec: payload.spec.clone(),
            module_params: payload.module_params.clone(),
            shared_params: payload.shared_params.clone(),
            importance: vec![vec![0.25; 4]; 2],
            data_volume: 12,
        };
        update.shared_params[0] += 1.0;
        if let Some(m) = update.module_params.get_mut(&(0, 0)) {
            m[0] += 0.5;
        }
        let raw_size: usize =
            4 * (update.shared_params.len() + update.module_params.values().map(Vec::len).sum::<usize>());
        let n = wire.encode_update(7, &update, &mut frame);
        assert!(n < raw_size / 2, "delta upload {n} not smaller than raw {raw_size}");
        let back = wire.decode_update_from(7, &frame).unwrap();
        assert_eq!(back.shared_params, update.shared_params);
        assert_eq!(back.module_params[&(0, 0)], update.module_params[&(0, 0)]);
        assert_eq!(back.data_volume, 12);
    }

    #[test]
    fn q8_round_trip_is_bounded_and_small() {
        let c = cloud();
        let mut wire = WireContext::new(WireConfig::int8());
        let payload = c.dispatch(&spec());
        let mut frame = Vec::new();
        let n = wire.encode_payload(7, &payload, &mut frame);
        let raw_size: usize =
            4 * (payload.shared_params.len() + payload.module_params.values().map(Vec::len).sum::<usize>());
        assert!(n < raw_size / 2, "q8 payload {n} not ≥2x smaller than raw {raw_size}");
        let back = wire.decode_payload(7, &frame).unwrap();
        for (k, v) in &payload.module_params {
            let max_abs = v.iter().fold(0.0f32, |m, x| m.max(x.abs()));
            let scale = max_abs / 127.0;
            for (a, b) in v.iter().zip(&back.module_params[k]) {
                assert!((a - b).abs() <= scale * 0.5 + 1e-6, "module {k:?} out of bound");
            }
        }
    }

    /// After two devices' three-round session each codec's context holds
    /// only what that codec reads: `Raw` nothing, `QuantInt8` its
    /// error-feedback carries, `DeltaFp32` committed baselines and acks.
    #[test]
    fn wire_contexts_hold_only_what_their_codec_reads() {
        let holds_residuals =
            |store: &ResidualStore| format!("{store:?}") != format!("{:?}", ResidualStore::new());
        let c = cloud();
        for cfg in [WireConfig::raw(), WireConfig::int8(), WireConfig::delta(0.0)] {
            let mut wire = WireContext::new(cfg);
            let mut frame = Vec::new();
            for round in 0..3 {
                wire.commit_model(c.model());
                for device in [3, 9] {
                    wire.encode_payload(device, &c.dispatch(&spec()), &mut frame);
                    let payload = wire.decode_payload(device, &frame).unwrap();
                    let mut update = ModuleUpdate {
                        spec: payload.spec,
                        module_params: payload.module_params,
                        shared_params: payload.shared_params,
                        importance: vec![vec![0.25; 4]; 2],
                        data_volume: 10,
                    };
                    update.shared_params[round] += 0.5;
                    wire.encode_update(device, &update, &mut frame);
                    wire.decode_update_from(device, &frame).unwrap();
                }
            }
            let (int8, delta) = (cfg.codec == CodecKind::QuantInt8, cfg.codec == CodecKind::DeltaFp32);
            assert_eq!(holds_residuals(&wire.down_residuals), int8, "{:?}", cfg.codec);
            assert_eq!(holds_residuals(&wire.up_residuals), int8, "{:?}", cfg.codec);
            assert_eq!(wire.registry.version(), if delta { 3 } else { 0 }, "{:?}", cfg.codec);
            assert_eq!(wire.registry.baseline(ModuleKey::SHARED, 3).is_ok(), delta, "{:?}", cfg.codec);
            for device in [3, 9] {
                for key in [ModuleKey::SHARED, ModuleKey::module(0, 0), ModuleKey::module(1, 1)] {
                    let acked = wire.registry.acked_version(device, key);
                    assert_eq!(acked, delta.then_some(3), "{:?} {key:?}", cfg.codec);
                }
            }
        }
    }

    #[test]
    fn corrupted_frames_are_rejected_not_misdecoded() {
        let c = cloud();
        let mut wire = WireContext::new(WireConfig::raw());
        let payload = c.dispatch(&spec());
        let mut frame = Vec::new();
        wire.encode_payload(7, &payload, &mut frame);
        for at in [0usize, 10, frame.len() / 2, frame.len() - 1] {
            let mut bad = frame.clone();
            bad[at] ^= 0x20;
            assert!(wire.decode_payload(7, &bad).is_err());
        }
        // Pristine frame still decodes after the failed attempts.
        assert!(wire.decode_payload(7, &frame).is_ok());
    }

    #[test]
    fn telemetry_counts_frames_bytes_and_crc_rejects() {
        use nebula_telemetry::{MemorySink, Telemetry};
        use std::sync::Arc;
        let c = cloud();
        let mut wire = WireContext::new(WireConfig::raw());
        let mem = Arc::new(MemorySink::new());
        let t = Telemetry::new(mem.clone());
        wire.set_telemetry(t.clone());

        let payload = c.dispatch(&spec());
        let mut frame = Vec::new();
        let n = wire.encode_payload(7, &payload, &mut frame) as u64;
        let mut bad = frame.clone();
        bad[frame.len() / 2] ^= 0xFF;
        assert!(wire.decode_payload(7, &bad).is_err());
        assert!(wire.decode_payload(7, &frame).is_ok());

        let m = t.metrics().expect("telemetry on");
        assert_eq!(m.counters["wire.frames_down"], 1);
        assert_eq!(m.counters["wire.bytes_down"], n);
        assert_eq!(m.counters["wire.rejects_crc"], 1);
        assert_eq!(m.histograms["wire.frame_bytes_down"].count, 1);
        let wire_events: Vec<_> = mem.events().into_iter().filter(|e| e.kind == "wire").collect();
        assert_eq!(wire_events.len(), 2, "one frame event + one reject event");
        assert_eq!(wire_events[1].text["reject"], "crc");
    }

    #[test]
    fn authed_round_trip_and_cross_device_rejection() {
        let c = cloud();
        let key = [0x42u8; 16];
        let mut wire = WireContext::new(WireConfig::raw().with_auth(key));
        let payload = c.dispatch(&spec());
        let mut frame = Vec::new();
        wire.encode_payload(7, &payload, &mut frame);
        let back = wire.decode_payload(7, &frame).unwrap();
        assert_eq!(back.shared_params, payload.shared_params);
        // The MAC is per-device: device 8 cannot decode device 7's frame.
        assert!(matches!(wire.decode_payload(8, &frame), Err(WireError::AuthMismatch { .. })));
        // A v1 (unauthenticated) context rejects the authed frame too.
        let mut v1 = WireContext::new(WireConfig::raw());
        assert!(matches!(v1.decode_payload(7, &frame), Err(WireError::AuthMissing)));
    }

    #[test]
    fn forged_update_with_fixed_crc_is_rejected_before_decode() {
        use nebula_telemetry::{MemorySink, Telemetry};
        use std::sync::Arc;
        let c = cloud();
        let mut wire = WireContext::new(WireConfig::raw().with_auth([0x17u8; 16]));
        let mem = Arc::new(MemorySink::new());
        let t = Telemetry::new(mem.clone());
        wire.set_telemetry(t.clone());

        let payload = c.dispatch(&spec());
        let update = ModuleUpdate {
            spec: payload.spec.clone(),
            module_params: payload.module_params.clone(),
            shared_params: payload.shared_params.clone(),
            importance: vec![vec![0.25; 4]; 2],
            data_volume: 12,
        };
        let mut frame = Vec::new();
        wire.encode_update(7, &update, &mut frame);
        assert!(wire.decode_update_from(7, &frame).is_ok());

        // Forge: flip a body byte and recompute the CRC over everything
        // before the trailer, exactly what a CRC-only check would accept.
        let mut forged = frame.clone();
        let body_end = forged.len() - nebula_wire::frame::TRAILER_LEN - nebula_wire::frame::MAC_LEN;
        forged[body_end / 2] ^= 0x01;
        let crc = nebula_wire::crc32(&forged[..body_end]).to_le_bytes();
        forged[body_end..body_end + 4].copy_from_slice(&crc);
        assert!(matches!(wire.decode_update_from(7, &forged), Err(WireError::AuthMismatch { .. })));

        let m = t.metrics().expect("telemetry on");
        assert_eq!(m.counters["wire.rejects_auth"], 1);
        assert!(!m.counters.contains_key("wire.rejects_crc"));
    }

    #[test]
    fn unauth_upload_into_keyed_cloud_is_rejected() {
        let c = cloud();
        let mut sender = WireContext::new(WireConfig::raw());
        let mut keyed = WireContext::new(WireConfig::raw().with_auth([9u8; 16]));
        let payload = c.dispatch(&spec());
        let update = ModuleUpdate {
            spec: payload.spec.clone(),
            module_params: payload.module_params.clone(),
            shared_params: payload.shared_params.clone(),
            importance: vec![vec![0.25; 4]; 2],
            data_volume: 5,
        };
        let mut frame = Vec::new();
        sender.encode_update(7, &update, &mut frame);
        // Downgrade protection: a keyed cloud never accepts v1 frames.
        assert!(matches!(keyed.decode_update_from(7, &frame), Err(WireError::AuthMissing)));
    }
}
