//! Module transport: turning [`SubModelPayload`] / [`ModuleUpdate`]
//! messages into real `nebula-wire` frames and back.
//!
//! The cloud owns one [`WireContext`]. Every download and upload is cut
//! under the configured codec, and the returned frame lengths are the
//! *measured* bytes the simulator's `CommTracker` records. A frame
//! decodes on its own: no record refers to state the receiver keeps.
//!
//! Codec semantics: `Raw` is **lossless** both ways; `QuantInt8` is
//! lossy both ways, with error feedback per receiving device for
//! downloads and per sending device for uploads.
//!
//! Only an encode reads that error feedback. So an executor's fresh
//! context decodes any payload frame to the bits the cloud's would, and
//! writes its update `Raw`; [`WireContext::upload_frame`] then re-cuts
//! that update on the cloud, under the configured codec and with the
//! sender's carry.
//!
//! Frame layout notes: payload frames carry one record per module
//! (residual modules ship empty payloads), a `SHARED` record, and a
//! `META` record holding a reserved 0. Update frames carry module
//! records, `SHARED`, one importance row per layer, and `META` holding
//! the device's data volume.

use crate::aggregate::ModuleUpdate;
use crate::cloud::SubModelPayload;
use nebula_modular::{ModularConfig, ModularModel, SubModelSpec};
use nebula_telemetry::Telemetry;
use nebula_wire::codec::{self, CodecKind};
use nebula_wire::frame::{
    FrameBuilder, FrameKind, FrameView, ModuleKey, HEADER_LEN, MAC_LEN, RECORD_HEADER_LEN, TRAILER_LEN,
};
use nebula_wire::{Channel, FrameKey, WireError};
use std::collections::{BTreeMap, HashMap};

/// Transport configuration, chosen per strategy/config.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WireConfig {
    /// Codec for module traffic in both directions.
    pub codec: CodecKind,
    /// Unread (no codec sparsifies); kept while `nebula_benchmark` names it.
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

/// Transport state: each device's link [`Channel`] for both directions
/// and the master MAC key.
pub struct WireContext {
    cfg: WireConfig,
    /// Download error feedback, per receiving device.
    down: HashMap<u64, Channel>,
    /// Upload error feedback, per sending device.
    up: HashMap<u64, Channel>,
    /// Master MAC key when frame auth is enabled.
    master_key: Option<FrameKey>,
    /// Frame/byte/CRC-reject accounting; off by default.
    telemetry: Telemetry,
}

impl WireContext {
    pub fn new(cfg: WireConfig) -> Self {
        WireContext {
            cfg,
            down: HashMap::new(),
            up: HashMap::new(),
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

    /// Does nothing and returns 0 (no codec reads a baseline); kept while
    /// `nebula_benchmark` calls it.
    pub fn commit_model(&self, _model: &ModularModel) -> u64 {
        0
    }

    /// Encode a cloud → device payload into `out` (cleared). Returns the
    /// frame length — the measured download size.
    pub fn encode_payload(&mut self, device: u64, payload: &SubModelPayload, out: &mut Vec<u8>) -> usize {
        self.encode_frame(
            FrameKind::Payload,
            device,
            &payload.module_params,
            &payload.shared_params,
            out,
            |b| b.record(ModuleKey::META, CodecKind::Raw, 0, |o| o.extend_from_slice(&0u64.to_le_bytes())),
        )
    }

    /// Decode a payload frame on behalf of `device`, verifying its MAC
    /// under the device's derived key when auth is enabled.
    pub fn decode_payload(&mut self, device: u64, bytes: &[u8]) -> Result<SubModelPayload, WireError> {
        let (payload, _, _) = self
            .decode_frame(device, bytes, false)
            .inspect_err(|e| self.note_decode_error("down", device, e))?;
        Ok(payload)
    }

    /// Encode a device → cloud update into `out` (cleared). Returns the
    /// frame length — the measured upload size.
    pub fn encode_update(&mut self, device: u64, update: &ModuleUpdate, out: &mut Vec<u8>) -> usize {
        self.encode_frame(FrameKind::Update, device, &update.module_params, &update.shared_params, out, |b| {
            // Importance rows and metadata are tiny: always raw.
            for (l, row) in update.importance.iter().enumerate() {
                b.record(ModuleKey::importance(l), CodecKind::Raw, row.len(), |o| codec::encode_raw(row, o));
            }
            let volume = update.data_volume as u64;
            b.record(ModuleKey::META, CodecKind::Raw, 0, |o| o.extend_from_slice(&volume.to_le_bytes()));
        })
    }

    /// Decode an update frame attributed to `device`, verifying its MAC
    /// under the device's derived key when auth is enabled.
    pub fn decode_update_from(&mut self, device: u64, bytes: &[u8]) -> Result<ModuleUpdate, WireError> {
        let decoded = self
            .decode_frame(device, bytes, true)
            .inspect_err(|e| self.note_decode_error("up", device, e))?;
        Ok(update_of(decoded))
    }

    /// The length of the update frame an executor answers a job for
    /// `payload` with: `Raw`, keyed as this context keys, with an
    /// importance row per layer of `cfg`. A job's payload frame is
    /// allocated at this capacity, so the executor's answer fits the
    /// caller's buffer (DESIGN §9's recycling rule).
    pub fn result_len(&self, payload: &SubModelPayload, cfg: &ModularConfig) -> usize {
        // Modules, SHARED, the importance rows, META and its u64.
        let records = payload.module_params.len() + 1 + cfg.num_layers + 1;
        let importance = 4 * cfg.num_layers * cfg.modules_per_layer;
        let mac = if self.master_key.is_some() { MAC_LEN } else { 0 };
        HEADER_LEN
            + records * RECORD_HEADER_LEN
            + payload.bytes() as usize
            + importance
            + 8
            + TRAILER_LEN
            + mac
    }

    /// The frame `device` puts on the upload link, given `result`: the
    /// `Raw` update frame an executor cut under the device's key. `result`
    /// itself stands when the codec is `Raw` and the device does not
    /// `edit` its update. Otherwise the update it decodes to, once it fits
    /// `cfg`, is edited and re-cut into `out` under the configured codec
    /// with the device's upload carry. A `result` that does not decode or
    /// fit is passed on as it came, for the receiver to refuse. Either way
    /// the frame is counted as [`Self::encode_update`] counts one.
    pub fn upload_frame<'f>(
        &mut self,
        device: u64,
        result: &'f [u8],
        cfg: &ModularConfig,
        edit: Option<impl FnOnce(&mut ModuleUpdate)>,
        out: &'f mut Vec<u8>,
    ) -> &'f [u8] {
        if self.cfg.codec != CodecKind::Raw || edit.is_some() {
            let decoded = self.decode_frame(device, result, true).ok().map(update_of);
            if let Some(mut update) = decoded.filter(|u| u.validate(cfg).is_ok()) {
                if let Some(edit) = edit {
                    edit(&mut update);
                }
                self.encode_update(device, &update, out);
                return out;
            }
        }
        self.note_frame("up", device, result.len());
        result
    }

    /// Cut a module frame of `kind` for `device`: the modules in key
    /// order, then `SHARED`, each under the configured codec, then the
    /// caller's `tail` records. A payload is cut on the device's download
    /// channel, an update on its upload channel.
    fn encode_frame(
        &mut self,
        kind: FrameKind,
        device: u64,
        modules: &BTreeMap<(usize, usize), Vec<f32>>,
        shared: &[f32],
        out: &mut Vec<u8>,
        tail: impl FnOnce(&mut FrameBuilder<'_>),
    ) -> usize {
        let (dir, links) = match kind {
            FrameKind::Payload => ("down", &mut self.down),
            _ => ("up", &mut self.up),
        };
        let link = links.entry(device).or_default();
        let mut b = FrameBuilder::begin(out, kind, self.cfg.codec);
        let records = modules.iter().map(|(&(l, i), v)| (ModuleKey::module(l, i), v.as_slice()));
        for (key, values) in records.chain([(ModuleKey::SHARED, shared)]) {
            b.values(key, self.cfg.codec, values, link);
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
        let mut module_params = BTreeMap::new();
        let mut shared_params = Vec::new();
        let mut rows: Vec<(usize, Vec<f32>)> = Vec::new();
        let mut meta = 0u64;
        for rec in view.records() {
            if rec.key.is_module() {
                let mut values = Vec::new();
                rec.decode(&mut values)?;
                module_params.insert((rec.key.layer as usize, rec.key.module as usize), values);
            } else if rec.key.is_shared() {
                rec.decode(&mut shared_params)?;
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
    /// structural errors.
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

/// The update an update frame's decoded parts make up.
fn update_of((payload, importance, volume): (SubModelPayload, Vec<Vec<f32>>, u64)) -> ModuleUpdate {
    let SubModelPayload { spec, module_params, shared_params } = payload;
    ModuleUpdate { spec, module_params, shared_params, importance, data_volume: volume as usize }
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
    /// error-feedback carries, on every device's link both ways.
    #[test]
    fn wire_contexts_hold_only_what_their_codec_reads() {
        let holds_carries = |links: &HashMap<u64, Channel>| {
            let empty = format!("{:?}", Channel::default());
            [3, 9].map(|device| format!("{:?}", links[&device]) != empty)
        };
        let c = cloud();
        for cfg in [WireConfig::raw(), WireConfig::int8()] {
            let mut wire = WireContext::new(cfg);
            let mut frame = Vec::new();
            for round in 0..3 {
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
            let int8 = cfg.codec == CodecKind::QuantInt8;
            for links in [&wire.down, &wire.up] {
                assert_eq!((links.len(), holds_carries(links)), (2, [int8; 2]), "{:?}", cfg.codec);
            }
        }
    }

    #[test]
    fn result_len_is_the_length_of_the_raw_update_frame() {
        let c = cloud();
        let cfg = c.model().config().clone();
        let payload = c.dispatch(&spec());
        let update = ModuleUpdate {
            spec: payload.spec.clone(),
            module_params: payload.module_params.clone(),
            shared_params: payload.shared_params.clone(),
            importance: vec![vec![0.25; 4]; 2],
            data_volume: 9,
        };
        let mut frame = Vec::new();
        for cfg_wire in [WireConfig::int8(), WireConfig::int8().with_auth([3u8; 16])] {
            let raw = WireConfig { codec: CodecKind::Raw, ..cfg_wire };
            let n = WireContext::new(raw).encode_update(7, &update, &mut frame);
            assert_eq!(WireContext::new(cfg_wire).result_len(&payload, &cfg), n, "{cfg_wire:?}");
        }
    }

    #[test]
    fn upload_frame_stands_only_for_an_unedited_raw_update() {
        let c = cloud();
        let cfg = c.model().config().clone();
        let payload = c.dispatch(&spec());
        let update = ModuleUpdate {
            spec: payload.spec,
            module_params: payload.module_params,
            shared_params: payload.shared_params,
            importance: vec![vec![0.25; 4]; 2],
            data_volume: 9,
        };
        let raw_frame = |update: &ModuleUpdate| {
            let mut frame = Vec::new();
            WireContext::new(WireConfig::raw()).encode_update(7, update, &mut frame);
            frame
        };
        let result = raw_frame(&update);
        let none = None::<fn(&mut ModuleUpdate)>;
        let mut out = Vec::new();

        // Raw: the result itself stands, unless the device edits it.
        let mut raw = WireContext::new(WireConfig::raw());
        assert!(std::ptr::eq(raw.upload_frame(7, &result, &cfg, none, &mut out), result.as_slice()));
        let edited =
            raw.upload_frame(7, &result, &cfg, Some(|u: &mut ModuleUpdate| u.data_volume = 3), &mut out);
        assert_eq!(raw.decode_update_from(7, edited).unwrap().data_volume, 3);

        // Int8: re-cut with the sender's carry, as the sender would cut it.
        let (mut cloud_side, mut sender) =
            (WireContext::new(WireConfig::int8()), WireContext::new(WireConfig::int8()));
        let mut want = Vec::new();
        for _ in 0..2 {
            sender.encode_update(7, &update, &mut want);
            assert_eq!(cloud_side.upload_frame(7, &result, &cfg, none, &mut out), want.as_slice());
        }

        // An update that does not fit the model goes on as it came.
        let mut short = update.clone();
        short.importance[1].pop();
        let misfit = raw_frame(&short);
        assert_eq!(cloud_side.upload_frame(7, &misfit, &cfg, none, &mut out), misfit.as_slice());
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
