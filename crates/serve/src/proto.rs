//! Job/result messages between coordinator and worker, carried as
//! `nebula-wire` control frames.
//!
//! Every serving-plane message is one [`FrameKind::Control`] frame with
//! a JSON *header record* at control slot 0 (self-describing, visible
//! to ops tooling) and zero or more *binary blob records* at higher
//! slots carrying the bulk payloads: the encoded sub-model frame or
//! dense parameter vector, the device's dataset features (f32 LE) and
//! labels (u32 LE), and — on the way back — the trained update frame or
//! parameter vector. Keeping the bulk out of the JSON keeps the header
//! cheap to parse and the floats bit-exact (they never round-trip
//! through decimal).
//!
//! When the deployment holds a master [`FrameKey`], every message is
//! MAC'd under a dedicated jobs subkey (`job_key`) — distinct from
//! both the per-device payload keys and the handshake subkey, so no
//! transcript from one plane replays into another.

use nebula_core::{DispatchJob, JobResult, JobSpec, TrainParams, TransportError};
use nebula_data::Dataset;
use nebula_tensor::Tensor;
use nebula_wire::frame::{FrameBuilder, FrameKind, FrameView, ModuleKey};
use nebula_wire::{codec, CodecKind, FrameKey};
use serde::{Deserialize, Serialize};

use crate::ServeError;

/// Domain-separation label of the jobs subkey ("NBWJOBS1").
const JOB_STREAM: u64 = 0x4E42_574A_4F42_5331;

/// Control-record slots of a serving-plane message.
const SLOT_HEADER: ModuleKey = ModuleKey { layer: 0xFFFC, module: 0 };
const SLOT_MODEL: ModuleKey = ModuleKey { layer: 0xFFFC, module: 1 };
const SLOT_FEATURES: ModuleKey = ModuleKey { layer: 0xFFFC, module: 2 };
const SLOT_LABELS: ModuleKey = ModuleKey { layer: 0xFFFC, module: 3 };

/// Derives the job-traffic MAC key from a deployment master key.
fn job_key(master: &FrameKey) -> FrameKey {
    master.derive(JOB_STREAM)
}

/// The JSON header record present in every serving-plane message. One
/// flat struct for all three message kinds — absent facets are zeroed —
/// because the vendored serde derive wants every field present anyway.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
struct Header {
    /// "job" | "result" | "shutdown".
    kind: String,
    /// Index of the job within the round's dispatch batch.
    job: u64,
    /// Dispatch attempt (0 = first send; bumped on reassignment).
    attempt: u64,
    /// Coordinator round-barrier epoch (monotonic; see [`JobTag`]).
    epoch: u64,
    round: u64,
    device: u64,
    /// Job family: "modular" | "dense" (jobs and results).
    spec: String,
    epochs: u64,
    batch: u64,
    lr: f32,
    /// Captured RNG state (4 words, exact — u64 survives the JSON shim).
    rng: Vec<u64>,
    /// Dataset geometry (jobs only).
    classes: u64,
    feature_dim: u64,
    /// Dense architecture (dense jobs only).
    input: u64,
    width: u64,
    blocks: u64,
    block_hidden: u64,
    dense_classes: u64,
    ratio: f32,
    /// Result status (results only).
    ok: bool,
    error: String,
}

/// Coordinator-stamped identity of one dispatched job copy, carried in
/// every job frame and echoed verbatim in its result. The coordinator
/// only lands a result whose epoch, attempt *and* device all still
/// match the slot's current assignment, so neither a superseded attempt
/// nor a straggler from a round that already hit the deadline barrier
/// can be mistaken for the live round's update.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JobTag {
    /// Index of the job within the round's dispatch batch.
    pub job: u64,
    /// Dispatch attempt (0 = first send; bumped on reassignment).
    pub attempt: u32,
    /// Round-barrier epoch, monotonic over the coordinator's lifetime
    /// (independent of the job's own `round` field, which the strategy
    /// controls and may repeat or zero).
    pub epoch: u64,
    /// Device the job was cut for.
    pub device: u64,
}

/// A decoded serving-plane message.
pub enum Message {
    /// A training assignment plus its identity tag.
    Job(Box<DispatchJob>, JobTag),
    /// A finished job: the echoed tag plus the outcome.
    Result(JobTag, Result<JobResult, String>),
    /// Coordinator liveness probe; a worker answers with a [`Message::Pong`]
    /// echoing the nonce from its reader thread, so a live-but-training
    /// worker still answers promptly while a frozen process stays silent.
    Ping(u64),
    /// A worker's echo of a ping nonce.
    Pong(u64),
    /// Coordinator asks the worker to drain and exit.
    Shutdown,
}

fn begin(buf: &mut Vec<u8>) -> FrameBuilder<'_> {
    FrameBuilder::begin(buf, FrameKind::Control, CodecKind::Raw)
}

fn finish(b: FrameBuilder<'_>, key: Option<&FrameKey>) -> usize {
    b.finish_keyed(key.map(job_key).as_ref())
}

fn push_header(b: &mut FrameBuilder<'_>, header: &Header) -> Result<(), ServeError> {
    let json = serde_json::to_string(header).map_err(|e| ServeError::Proto(e.to_string()))?;
    b.record(SLOT_HEADER, CodecKind::Raw, 0, 0, |o| o.extend_from_slice(json.as_bytes()));
    Ok(())
}

fn push_f32s(b: &mut FrameBuilder<'_>, slot: ModuleKey, xs: &[f32]) {
    b.record(slot, CodecKind::Raw, 0, xs.len(), |o| codec::encode_raw(xs, o));
}

fn parse_f32s(payload: &[u8]) -> Result<Vec<f32>, ServeError> {
    if !payload.len().is_multiple_of(4) {
        return Err(ServeError::Proto(format!("f32 blob of {} bytes", payload.len())));
    }
    Ok(payload.chunks_exact(4).map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])).collect())
}

/// Encodes a training job into `buf` (cleared). Returns the frame length.
pub fn encode_job(
    buf: &mut Vec<u8>,
    job: &DispatchJob,
    tag: JobTag,
    key: Option<&FrameKey>,
) -> Result<usize, ServeError> {
    let mut header = Header {
        kind: "job".into(),
        job: tag.job,
        attempt: tag.attempt as u64,
        epoch: tag.epoch,
        round: job.round as u64,
        device: job.device,
        epochs: job.train.epochs as u64,
        batch: job.train.batch_size as u64,
        lr: job.train.lr,
        rng: job.rng_state.to_vec(),
        classes: job.data.classes() as u64,
        feature_dim: job.data.feature_dim() as u64,
        ..Header::default()
    };
    let mut b = begin(buf);
    match &job.spec {
        JobSpec::Modular { frame } => {
            header.spec = "modular".into();
            push_header(&mut b, &header)?;
            b.record(SLOT_MODEL, CodecKind::Raw, 0, 0, |o| o.extend_from_slice(frame));
        }
        JobSpec::Dense { input, width, blocks, block_hidden, classes, ratio, params } => {
            header.spec = "dense".into();
            header.input = *input as u64;
            header.width = *width as u64;
            header.blocks = *blocks as u64;
            header.block_hidden = *block_hidden as u64;
            header.dense_classes = *classes as u64;
            header.ratio = *ratio;
            push_header(&mut b, &header)?;
            push_f32s(&mut b, SLOT_MODEL, params);
        }
    }
    push_f32s(&mut b, SLOT_FEATURES, job.data.features().data());
    let labels = job.data.labels();
    b.record(SLOT_LABELS, CodecKind::Raw, 0, labels.len(), |o| {
        for &y in labels {
            o.extend_from_slice(&(y as u32).to_le_bytes());
        }
    });
    Ok(finish(b, key))
}

/// Encodes a job outcome into `buf` (cleared). Returns the frame length.
pub fn encode_result(
    buf: &mut Vec<u8>,
    tag: JobTag,
    outcome: &Result<JobResult, TransportError>,
    key: Option<&FrameKey>,
) -> Result<usize, ServeError> {
    let mut header = Header {
        kind: "result".into(),
        job: tag.job,
        attempt: tag.attempt as u64,
        epoch: tag.epoch,
        device: tag.device,
        ..Header::default()
    };
    let mut b = begin(buf);
    match outcome {
        Ok(JobResult::Frame(frame)) => {
            header.spec = "modular".into();
            header.ok = true;
            push_header(&mut b, &header)?;
            b.record(SLOT_MODEL, CodecKind::Raw, 0, 0, |o| o.extend_from_slice(frame));
        }
        Ok(JobResult::Params(params)) => {
            header.spec = "dense".into();
            header.ok = true;
            push_header(&mut b, &header)?;
            push_f32s(&mut b, SLOT_MODEL, params);
        }
        Err(e) => {
            header.ok = false;
            header.error = e.to_string();
            push_header(&mut b, &header)?;
        }
    }
    Ok(finish(b, key))
}

/// Encodes a shutdown notice into `buf` (cleared). Returns the length.
pub fn encode_shutdown(buf: &mut Vec<u8>, key: Option<&FrameKey>) -> Result<usize, ServeError> {
    let header = Header { kind: "shutdown".into(), ..Header::default() };
    let mut b = begin(buf);
    push_header(&mut b, &header)?;
    Ok(finish(b, key))
}

/// Encodes a liveness probe (the nonce rides in the `job` field).
pub fn encode_ping(buf: &mut Vec<u8>, nonce: u64, key: Option<&FrameKey>) -> Result<usize, ServeError> {
    let header = Header { kind: "ping".into(), job: nonce, ..Header::default() };
    let mut b = begin(buf);
    push_header(&mut b, &header)?;
    Ok(finish(b, key))
}

/// Encodes a worker's echo of a ping nonce.
pub fn encode_pong(buf: &mut Vec<u8>, nonce: u64, key: Option<&FrameKey>) -> Result<usize, ServeError> {
    let header = Header { kind: "pong".into(), job: nonce, ..Header::default() };
    let mut b = begin(buf);
    push_header(&mut b, &header)?;
    Ok(finish(b, key))
}

/// Decodes any serving-plane message, verifying the MAC when keyed.
pub fn decode_message(bytes: &[u8], key: Option<&FrameKey>) -> Result<Message, ServeError> {
    let derived = key.map(job_key);
    let view =
        FrameView::parse_keyed(bytes, derived.as_ref()).map_err(|e| ServeError::Proto(format!("{e:?}")))?;
    if view.kind != FrameKind::Control {
        return Err(ServeError::Proto(format!("unexpected frame kind {:?}", view.kind)));
    }
    let header_rec =
        view.find(SLOT_HEADER).ok_or_else(|| ServeError::Proto("message without header record".into()))?;
    let json = std::str::from_utf8(header_rec.payload)
        .map_err(|_| ServeError::Proto("header is not UTF-8".into()))?;
    let header: Header = serde_json::from_str(json).map_err(|e| ServeError::Proto(e.to_string()))?;
    let attempt = u32::try_from(header.attempt)
        .map_err(|_| ServeError::Proto(format!("attempt {} out of range", header.attempt)))?;
    let tag = JobTag { job: header.job, attempt, epoch: header.epoch, device: header.device };
    match header.kind.as_str() {
        "shutdown" => Ok(Message::Shutdown),
        "ping" => Ok(Message::Ping(header.job)),
        "pong" => Ok(Message::Pong(header.job)),
        "result" => {
            let outcome = if header.ok {
                let rec = view
                    .find(SLOT_MODEL)
                    .ok_or_else(|| ServeError::Proto("ok result without payload".into()))?;
                match header.spec.as_str() {
                    "modular" => Ok(JobResult::Frame(rec.payload.to_vec())),
                    "dense" => Ok(JobResult::Params(parse_f32s(rec.payload)?)),
                    other => return Err(ServeError::Proto(format!("result spec '{other}'"))),
                }
            } else {
                Err(header.error.clone())
            };
            Ok(Message::Result(tag, outcome))
        }
        "job" => {
            let model =
                view.find(SLOT_MODEL).ok_or_else(|| ServeError::Proto("job without model record".into()))?;
            let spec = match header.spec.as_str() {
                "modular" => JobSpec::Modular { frame: model.payload.to_vec() },
                "dense" => JobSpec::Dense {
                    input: header.input as usize,
                    width: header.width as usize,
                    blocks: header.blocks as usize,
                    block_hidden: header.block_hidden as usize,
                    classes: header.dense_classes as usize,
                    ratio: header.ratio,
                    params: parse_f32s(model.payload)?,
                },
                other => return Err(ServeError::Proto(format!("job spec '{other}'"))),
            };
            let feats = view
                .find(SLOT_FEATURES)
                .ok_or_else(|| ServeError::Proto("job without features record".into()))?;
            let labels_rec = view
                .find(SLOT_LABELS)
                .ok_or_else(|| ServeError::Proto("job without labels record".into()))?;
            if labels_rec.payload.len() % 4 != 0 {
                return Err(ServeError::Proto("label blob not u32-aligned".into()));
            }
            let labels: Vec<usize> = labels_rec
                .payload
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]) as usize)
                .collect();
            let xs = parse_f32s(feats.payload)?;
            let dim = header.feature_dim as usize;
            if dim == 0 || labels.len().checked_mul(dim) != Some(xs.len()) {
                return Err(ServeError::Proto(format!(
                    "dataset geometry mismatch: {} features, {} labels x dim {dim}",
                    xs.len(),
                    labels.len()
                )));
            }
            let classes = header.classes as usize;
            if let Some(&y) = labels.iter().find(|&&y| y >= classes) {
                return Err(ServeError::Proto(format!("label {y} out of range for {classes} classes")));
            }
            if header.rng.len() != 4 {
                return Err(ServeError::Proto("rng state must be 4 words".into()));
            }
            let data = Dataset::new(Tensor::from_vec(xs, &[labels.len(), dim]), labels, classes);
            let job = DispatchJob {
                round: header.round as usize,
                device: header.device,
                spec,
                rng_state: [header.rng[0], header.rng[1], header.rng[2], header.rng[3]],
                train: TrainParams {
                    epochs: header.epochs as usize,
                    batch_size: header.batch as usize,
                    lr: header.lr,
                },
                data,
            };
            Ok(Message::Job(Box::new(job), tag))
        }
        other => Err(ServeError::Proto(format!("unknown message kind '{other}'"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nebula_tensor::NebulaRng;

    fn toy_data() -> Dataset {
        let xs: Vec<f32> = (0..12).map(|i| i as f32 * 0.25 - 1.0).collect();
        Dataset::new(Tensor::from_vec(xs, &[3, 4]), vec![0, 2, 1], 3)
    }

    fn toy_job(spec: JobSpec) -> DispatchJob {
        DispatchJob {
            round: 7,
            device: 42,
            spec,
            rng_state: NebulaRng::seed(0xFEED).state(),
            train: TrainParams { epochs: 2, batch_size: 8, lr: 0.05 },
            data: toy_data(),
        }
    }

    fn toy_tag(device: u64) -> JobTag {
        JobTag { job: 3, attempt: 1, epoch: 9, device }
    }

    fn round_trip(job: DispatchJob, key: Option<&FrameKey>) -> (DispatchJob, JobTag) {
        let mut buf = Vec::new();
        encode_job(&mut buf, &job, toy_tag(job.device), key).unwrap();
        match decode_message(&buf, key).unwrap() {
            Message::Job(j, tag) => (*j, tag),
            _ => panic!("expected a job message"),
        }
    }

    #[test]
    fn modular_job_round_trips_exactly() {
        let job = toy_job(JobSpec::Modular { frame: vec![9, 8, 7, 6, 5] });
        let (back, tag) = round_trip(job.clone(), None);
        assert_eq!(tag, toy_tag(job.device), "the tag must survive transit verbatim");
        assert_eq!(back.round, job.round);
        assert_eq!(back.device, job.device);
        assert_eq!(back.rng_state, job.rng_state);
        assert_eq!(back.train, job.train);
        assert_eq!(back.data.labels(), job.data.labels());
        assert_eq!(back.data.features().data(), job.data.features().data());
        match (back.spec, job.spec) {
            (JobSpec::Modular { frame: a }, JobSpec::Modular { frame: b }) => assert_eq!(a, b),
            _ => panic!("spec family changed in transit"),
        }
    }

    #[test]
    fn dense_job_round_trips_exactly_with_auth() {
        let key = FrameKey::from_bytes(&[7u8; 16]);
        let params: Vec<f32> = (0..10).map(|i| (i as f32).sin()).collect();
        let job = toy_job(JobSpec::Dense {
            input: 4,
            width: 24,
            blocks: 2,
            block_hidden: 32,
            classes: 3,
            ratio: 0.5,
            params: params.clone(),
        });
        let (back, _) = round_trip(job, Some(&key));
        match back.spec {
            JobSpec::Dense { input, width, blocks, block_hidden, classes, ratio, params: p } => {
                assert_eq!((input, width, blocks, block_hidden, classes), (4, 24, 2, 32, 3));
                assert_eq!(ratio, 0.5);
                assert_eq!(p, params);
            }
            _ => panic!("spec family changed in transit"),
        }
    }

    #[test]
    fn results_and_shutdown_round_trip() {
        let mut buf = Vec::new();
        let ok_tag = JobTag { job: 5, attempt: 2, epoch: 4, device: 11 };
        encode_result(&mut buf, ok_tag, &Ok(JobResult::Frame(vec![1, 2, 3])), None).unwrap();
        match decode_message(&buf, None).unwrap() {
            Message::Result(tag, Ok(JobResult::Frame(f))) => {
                assert_eq!(tag, ok_tag, "result tag must echo the job tag (epoch included)");
                assert_eq!(f, vec![1, 2, 3]);
            }
            _ => panic!("bad result decode"),
        }

        let err: Result<JobResult, TransportError> =
            Err(TransportError::Rejected("no modular config".into()));
        let err_tag = JobTag { job: 6, attempt: 0, epoch: 7, device: 12 };
        encode_result(&mut buf, err_tag, &err, None).unwrap();
        match decode_message(&buf, None).unwrap() {
            Message::Result(tag, Err(why)) => {
                assert_eq!(tag, err_tag);
                assert!(why.contains("no modular config"));
            }
            _ => panic!("bad error-result decode"),
        }

        encode_shutdown(&mut buf, None).unwrap();
        assert!(matches!(decode_message(&buf, None).unwrap(), Message::Shutdown));
    }

    #[test]
    fn ping_pong_round_trip_with_and_without_auth() {
        let key = FrameKey::from_bytes(&[9u8; 16]);
        let mut buf = Vec::new();
        encode_ping(&mut buf, 0xDEAD_BEEF, Some(&key)).unwrap();
        assert!(matches!(decode_message(&buf, Some(&key)).unwrap(), Message::Ping(0xDEAD_BEEF)));
        assert!(decode_message(&buf, None).is_err(), "keyed ping at an open decoder must fail");
        encode_pong(&mut buf, 7, None).unwrap();
        assert!(matches!(decode_message(&buf, None).unwrap(), Message::Pong(7)));
    }

    /// A job frame built record by record from `header` and raw label
    /// words, the way a peer that holds the key but not `encode_job`'s
    /// typed inputs could write one.
    fn hand_built_job(header: &Header, labels: &[u32], features: &[f32], key: Option<&FrameKey>) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut b = begin(&mut buf);
        push_header(&mut b, header).unwrap();
        b.record(SLOT_MODEL, CodecKind::Raw, 0, 0, |o| o.extend_from_slice(&[9, 8, 7]));
        push_f32s(&mut b, SLOT_FEATURES, features);
        b.record(SLOT_LABELS, CodecKind::Raw, 0, labels.len(), |o| {
            labels.iter().for_each(|y| o.extend_from_slice(&y.to_le_bytes()))
        });
        finish(b, key);
        buf
    }

    /// Geometry and tag fields that pass the MAC but not the decoder's
    /// checks are errors, not panics: a label at or past `classes`
    /// (`Dataset::new` asserts), a feature dimension whose product with
    /// the label count wraps to the blob's length, an attempt past `u32`.
    #[test]
    fn hostile_job_headers_are_errors_not_panics() {
        let valid = Header {
            kind: "job".into(),
            spec: "modular".into(),
            rng: vec![1, 2, 3, 4],
            classes: 3,
            feature_dim: 2,
            ..Header::default()
        };
        let key = FrameKey::from_bytes(&[5u8; 16]);
        for key in [None, Some(&key)] {
            let ok = hand_built_job(&valid, &[0, 2], &[0.5; 4], key);
            assert!(matches!(decode_message(&ok, key), Ok(Message::Job(..))));

            let label_out_of_range = hand_built_job(&valid, &[0, 3], &[0.5; 4], key);
            let wrapping_dim = Header { feature_dim: 1 << 63, ..valid.clone() };
            let wrapping_dim = hand_built_job(&wrapping_dim, &[0, 1], &[], key);
            let wide_attempt = Header { attempt: 1 << 32, ..valid.clone() };
            let wide_attempt = hand_built_job(&wide_attempt, &[0, 2], &[0.5; 4], key);
            for (what, frame) in
                [("label", label_out_of_range), ("dim", wrapping_dim), ("attempt", wide_attempt)]
            {
                assert!(
                    matches!(decode_message(&frame, key), Err(ServeError::Proto(_))),
                    "{what}, keyed {}",
                    key.is_some()
                );
            }
        }
    }

    #[test]
    fn keyed_messages_reject_wrong_or_missing_keys() {
        let key = FrameKey::from_bytes(&[3u8; 16]);
        let other = FrameKey::from_bytes(&[4u8; 16]);
        let mut buf = Vec::new();
        encode_shutdown(&mut buf, Some(&key)).unwrap();
        assert!(decode_message(&buf, Some(&other)).is_err(), "wrong key must fail the MAC");
        assert!(decode_message(&buf, None).is_err(), "keyed frame at an open decoder must fail");
        encode_shutdown(&mut buf, None).unwrap();
        assert!(decode_message(&buf, Some(&key)).is_err(), "open frame at a keyed decoder must fail");
    }
}
