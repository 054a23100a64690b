//! The benchmark-owned round drivers of the traced run.
//!
//! Each rebuilds one adaptation step from public calls only —
//! `NebulaCloud`, `WireContext`, `EdgeClient`, `Transport::round_trip`,
//! `JournalWriter`, `SnapshotStore`, `DensePool`, `Layer` — in the order
//! the real strategy issues them, with a span around every call. What the
//! real step does besides (fate and latency planning, byte accounting,
//! telemetry branches) is deliberately absent: the difference between the
//! real step and this ledger is reported as `sim.round_overhead_ms`. The
//! drivers must land on the real run's parameters bit for bit; the traced
//! run checks that digest on every invocation.

use std::collections::HashMap;
use std::path::Path;

use nebula_baselines::DenseModel;
use nebula_core::edge::update_bytes;
use nebula_core::{
    CommTracker, DispatchJob, EdgeClient, EdgeUpdate, JobResult, JobSpec, JournalWriter, NebulaCloud,
    NebulaParams, RobustAggregator, RoundReport, SanitizePolicy, SnapshotStore, SubModelPayload, TrainParams,
    Transport, WireContext,
};
use nebula_data::{Dataset, TrainConfig};
use nebula_nn::{Layer, Sgd};
use nebula_sim::durability::RUN_STATE_FORMAT;
use nebula_sim::strategy::{ClientState, NebulaState, StrategyConfig, StrategyState};
use nebula_sim::{DurabilityConfig, RoundRecord, RunState, SimWorld};
use nebula_tensor::NebulaRng;
use nebula_wire::DensePool;

use crate::trace::Tracer;

/// Bytes the driver moved, for the codec throughput and size metrics.
#[derive(Clone, Copy, Debug, Default)]
pub struct WireTally {
    /// Frame bytes and frame counts, cloud → edge and edge → cloud.
    pub down_frames: u64,
    pub up_frames: u64,
    pub downloads: u64,
    pub uploads: u64,
    /// The same traffic as plain f32 parameters (4 bytes each).
    pub raw_bytes: u64,
    /// Frame bytes this process encoded, and decoded (a served round's
    /// updates are encoded by the workers).
    pub encoded: u64,
    pub decoded: u64,
}

/// What the traced run needs of a ledger driver, whichever system it
/// rebuilds.
pub trait RoundDriver {
    /// One adaptation step, one span per public call.
    fn step(&mut self, world: &mut SimWorld, rng: &mut NebulaRng, tr: &mut Tracer);
    /// The global model's parameters.
    fn params(&self) -> Vec<f32>;
    fn tally(&mut self) -> &mut WireTally;
    /// Calls `train` with a fresh copy of the model each of the first
    /// `devices` devices would train now, and that device's data: the
    /// inputs of the train-step probe.
    fn probe_models(
        &mut self,
        world: &SimWorld,
        devices: usize,
        train: &mut dyn FnMut(&mut dyn Layer, &Dataset),
    );
}

fn bits(params: &[f32]) -> Vec<u32> {
    params.iter().map(|p| p.to_bits()).collect()
}

/// Journal and snapshot writes as `Runner::durable` issues them, with the
/// workload's own record and state sizes.
pub struct Durable {
    journal: JournalWriter,
    store: SnapshotStore,
    cfg: DurabilityConfig,
    comm: CommTracker,
    faults: RoundReport,
}

impl Durable {
    pub fn open(dir: &Path) -> Durable {
        let cfg = DurabilityConfig::new(dir);
        let store = SnapshotStore::open(&cfg.dir).expect("open the snapshot directory");
        let journal = JournalWriter::create(&cfg.dir.join(nebula_sim::durability::JOURNAL_FILE), 1)
            .expect("create the round journal");
        Durable { journal, store, cfg, comm: CommTracker::new(), faults: RoundReport::default() }
    }
}

/// One Nebula adaptation step, outside in.
pub struct NebulaDriver {
    cfg: StrategyConfig,
    cloud: NebulaCloud,
    wire: WireContext,
    frame_buf: Vec<u8>,
    clients: HashMap<usize, EdgeClient>,
    tracked: Vec<usize>,
    sanitize: SanitizePolicy,
    aggregator: RobustAggregator,
    transport: Option<Box<dyn Transport>>,
    durable: Option<Durable>,
    tally: WireTally,
    rounds: u64,
}

impl NebulaDriver {
    pub fn new(
        cfg: StrategyConfig,
        seed: u64,
        params: &[f32],
        tracked: Vec<usize>,
        transport: Option<Box<dyn Transport>>,
        durable: Option<Durable>,
    ) -> Self {
        let mut cloud_params = NebulaParams::default();
        cloud_params.pretrain.epochs = cfg.pretrain_epochs;
        cloud_params.local_epochs = cfg.local_epochs;
        cloud_params.batch_size = cfg.batch_size;
        cloud_params.local_lr = cfg.local_lr;
        let mut cloud = NebulaCloud::new(cfg.modular.clone(), cloud_params, seed);
        cloud.model_mut().load_param_vector(params);
        NebulaDriver {
            wire: WireContext::new(cfg.wire),
            aggregator: cfg.aggregator,
            cfg,
            cloud,
            frame_buf: Vec::new(),
            clients: HashMap::new(),
            tracked,
            sanitize: SanitizePolicy::default(),
            transport,
            durable,
            tally: WireTally::default(),
            rounds: 0,
        }
    }

    /// Derive → dispatch → encode → decode for one device: what both the
    /// sampled cohort and the tracked cohort do before any training.
    /// Returns the payload the device decoded and its local data.
    fn download(&mut self, world: &SimWorld, id: usize, tr: &mut Tracer) -> (SubModelPayload, Dataset) {
        let (profile, local) = tr.span("sim.device_inputs", || {
            let dev = &world.devices[id];
            (dev.profile(self.cloud.cost_model()), dev.partition.data.clone())
        });
        // `NebulaCloud::derive_for_data` is exactly these two calls.
        let importance =
            tr.span("modular.importance", || self.cloud.model_mut().importance(local.features()));
        let outcome =
            tr.span("core.derive", || self.cloud.derive_for_importance(&importance, &profile, None));
        let payload = tr.span("core.dispatch", || self.cloud.dispatch(&outcome.spec));
        let plan_bytes = payload.bytes();
        let frame_len = tr.span("wire.encode_payload", || {
            self.wire.encode_payload(id as u64, &payload, &mut self.frame_buf)
        });
        let decoded = tr.span("wire.decode_payload", || {
            self.wire.decode_payload(id as u64, &self.frame_buf).expect("a pristine frame decodes")
        });
        self.tally.down_frames += frame_len as u64;
        self.tally.downloads += 1;
        self.tally.encoded += frame_len as u64;
        self.tally.decoded += frame_len as u64;
        self.tally.raw_bytes += plan_bytes;
        (decoded, local)
    }

    /// What the run's first evaluation probe does to the tracked cohort
    /// before the first step: it creates their clients, and with a lossy
    /// codec warms their error-feedback state.
    pub fn prime_tracked(&mut self, world: &SimWorld) {
        let mut untraced = Tracer::new();
        for id in self.tracked.clone() {
            let (payload, _) = self.download(world, id, &mut untraced);
            self.clients.insert(id, EdgeClient::from_payload(self.cfg.modular.clone(), &payload));
        }
        self.tally = WireTally::default();
    }

    fn adaptation_step(&mut self, world: &mut SimWorld, rng: &mut NebulaRng, tr: &mut Tracer) {
        let step = tr.enter("step");
        let ids = tr.span("sim.sample", || world.sample_participants(self.cfg.devices_per_round));
        let round = world.next_round_index();
        tr.span("wire.commit_model", || self.wire.commit_model(self.cloud.model()));

        // Sequential phase: derive, dispatch and download per device.
        let mut jobs = Vec::with_capacity(ids.len());
        for &id in &ids {
            let dev = tr.enter("device");
            let (payload, local) = self.download(world, id, tr);
            let frame = self.transport.is_some().then(|| self.frame_buf.clone());
            jobs.push((id, payload, frame, local, rng.fork(id as u64 ^ 0xEB)));
            tr.exit(dev);
        }
        let sampled = jobs.len() as u64;

        // Local training: through the transport when one is installed,
        // otherwise in-process, client by client.
        let mut accepted: Vec<EdgeUpdate> = Vec::with_capacity(jobs.len());
        if let Some(transport) = self.transport.as_deref_mut() {
            let train = TrainParams {
                epochs: self.cfg.local_epochs,
                batch_size: self.cfg.batch_size,
                lr: self.cfg.local_lr,
            };
            let (devices, dispatch): (Vec<usize>, Vec<DispatchJob>) = jobs
                .into_iter()
                .map(|(id, _payload, frame, local, drng)| {
                    let job = DispatchJob {
                        round: round as usize,
                        device: id as u64,
                        spec: JobSpec::Modular { frame: frame.expect("remote jobs carry their frame") },
                        rng_state: drng.state(),
                        train,
                        data: local,
                    };
                    (id, job)
                })
                .unzip();
            let results = tr.span("serve.round_trip", || transport.round_trip(dispatch));
            for (id, result) in devices.into_iter().zip(results) {
                let Ok(JobResult::Frame(frame)) = result else {
                    panic!("a fault-free deployment returns every job");
                };
                let update = tr.span("wire.decode_update", || {
                    self.wire.decode_update_from(id as u64, &frame).expect("a pristine frame decodes")
                });
                self.tally.up_frames += frame.len() as u64;
                self.tally.uploads += 1;
                self.tally.decoded += frame.len() as u64;
                self.tally.raw_bytes += update_bytes(&update);
                accepted.push(update);
            }
        } else {
            for (id, payload, _frame, local, mut drng) in jobs {
                let dev = tr.enter("device");
                let update = nebula_tensor::par::sequential(|| {
                    let mut client = tr.span("core.edge_install", || {
                        EdgeClient::from_payload(self.cfg.modular.clone(), &payload)
                    });
                    tr.span("core.edge_adapt", || {
                        client.adapt(
                            &local,
                            self.cfg.local_epochs,
                            self.cfg.batch_size,
                            self.cfg.local_lr,
                            &mut drng,
                        )
                    });
                    tr.span("core.edge_make_update", || client.make_update(&local))
                });
                let enc = tr.span("wire.encode_update", || {
                    self.wire.encode_update(id as u64, &update, &mut self.frame_buf)
                });
                let decoded = tr.span("wire.decode_update", || {
                    self.wire
                        .decode_update_from(id as u64, &self.frame_buf)
                        .expect("a pristine frame decodes")
                });
                self.tally.up_frames += enc as u64;
                self.tally.uploads += 1;
                self.tally.encoded += enc as u64;
                self.tally.decoded += enc as u64;
                self.tally.raw_bytes += update_bytes(&update);
                accepted.push(decoded);
                tr.exit(dev);
            }
        }

        tr.span("core.aggregate", || {
            self.cloud.aggregate_robust_with(&accepted, &self.sanitize, self.aggregator)
        });

        // The tracked cohort refreshes from the post-aggregation model
        // and adapts on device.
        tr.span("wire.commit_model", || self.wire.commit_model(self.cloud.model()));
        for id in self.tracked.clone() {
            let dev = tr.enter("tracked_device");
            let (payload, local) = self.download(world, id, tr);
            tr.span("core.edge_install", || match self.clients.get_mut(&id) {
                Some(client) => client.install(&payload),
                None => {
                    self.clients.insert(id, EdgeClient::from_payload(self.cfg.modular.clone(), &payload));
                }
            });
            let client = self.clients.get_mut(&id).expect("tracked client was just installed");
            let mut drng = rng.fork(id as u64 ^ 0xF00D);
            tr.span("core.edge_adapt", || {
                client.adapt(&local, self.cfg.local_epochs, self.cfg.batch_size, self.cfg.local_lr, &mut drng)
            });
            tr.exit(dev);
        }
        tr.exit(step);

        self.rounds += 1;
        if self.durable.is_some() {
            self.finish_round(world, rng, sampled, tr);
        }
    }

    /// What `Runner::durable` does between steps: append the round's
    /// record to the journal, and every `snapshot_every` rounds save a
    /// full run state and prune old ones.
    fn finish_round(&mut self, world: &SimWorld, rng: &NebulaRng, sampled: u64, tr: &mut Tracer) {
        let root = tr.enter("finish_round");
        let durable = self.durable.as_mut().expect("checked by the caller");
        let comm = CommTracker {
            down_bytes: self.tally.down_frames,
            up_bytes: self.tally.up_frames,
            downloads: sampled,
            uploads: sampled,
            rounds: 1,
            ..CommTracker::new()
        };
        let faults = RoundReport { sampled, participated: sampled, ..RoundReport::default() };
        durable.comm.merge(&comm);
        durable.faults.merge(&faults);
        let record = RoundRecord { index: self.rounds, comm, faults, acc_bits: 0, time_bits: 0 };
        let bytes = tr.span("sim.record_encode", || serde_json::to_vec(&record).expect("record serializes"));
        tr.span("core.journal_append", || durable.journal.append(&bytes).expect("journal append"));
        if (self.rounds as usize).is_multiple_of(durable.cfg.snapshot_every) {
            let state = tr.span("sim.snapshot_encode", || {
                let mut clients: Vec<ClientState> = self
                    .clients
                    .iter()
                    .map(|(&id, c)| {
                        let s = c.export_state();
                        ClientState {
                            id,
                            param_bits: bits(&s.params),
                            active: s.active,
                            installed: s.installed,
                        }
                    })
                    .collect();
                clients.sort_by_key(|c| c.id);
                let state = RunState {
                    format: RUN_STATE_FORMAT,
                    run_id: 1,
                    mode: "target".to_string(),
                    rounds: self.rounds,
                    slot: 0,
                    rounds_started: world.rounds_started(),
                    harness_rng: rng.state().to_vec(),
                    world_rng: world.rng_state().to_vec(),
                    comm: durable.comm,
                    faults: durable.faults,
                    acc_bits: 0,
                    time_sum_bits: 0,
                    acc_per_slot_bits: Vec::new(),
                    plan: world.faults,
                    policy: world.policy,
                    eval_ids: self.tracked.clone(),
                    strategy_name: "Nebula".to_string(),
                    strategy: StrategyState::Nebula(NebulaState {
                        cloud_param_bits: bits(&self.cloud.model().param_vector()),
                        enhanced: true,
                        tracked: self.tracked.clone(),
                        clients,
                    }),
                };
                serde_json::to_vec(&state).expect("run state serializes")
            });
            tr.span("core.snapshot_save", || {
                durable.store.save(self.rounds, &state).expect("snapshot save");
                durable.store.prune(durable.cfg.keep_snapshots).expect("snapshot prune");
            });
        }
        tr.exit(root);
    }
}

impl RoundDriver for NebulaDriver {
    fn step(&mut self, world: &mut SimWorld, rng: &mut NebulaRng, tr: &mut Tracer) {
        self.adaptation_step(world, rng, tr)
    }

    fn params(&self) -> Vec<f32> {
        self.cloud.model().param_vector()
    }

    fn tally(&mut self) -> &mut WireTally {
        &mut self.tally
    }

    fn probe_models(
        &mut self,
        world: &SimWorld,
        devices: usize,
        train: &mut dyn FnMut(&mut dyn Layer, &Dataset),
    ) {
        let mut untraced = Tracer::new();
        for id in 0..devices {
            let (payload, local) = self.download(world, id, &mut untraced);
            let mut client = EdgeClient::from_payload(self.cfg.modular.clone(), &payload);
            train(client.model_mut(), &local);
        }
    }
}

/// One FedAvg adaptation step, outside in (the dense baseline's round:
/// per-device dense channels, full-model training, weighted average).
pub struct DenseDriver {
    cfg: StrategyConfig,
    server: DenseModel,
    pool: DensePool,
    tally: WireTally,
}

impl DenseDriver {
    pub fn new(cfg: StrategyConfig, seed: u64, params: &[f32]) -> Self {
        let mut server = cfg.dense_model(seed);
        server.load_param_vector(params);
        let pool = DensePool::new(cfg.wire.codec, cfg.wire.delta_threshold);
        DenseDriver { cfg, server, pool, tally: WireTally::default() }
    }
}

impl RoundDriver for DenseDriver {
    fn params(&self) -> Vec<f32> {
        self.server.param_vector()
    }

    fn tally(&mut self) -> &mut WireTally {
        &mut self.tally
    }

    fn probe_models(
        &mut self,
        world: &SimWorld,
        devices: usize,
        train: &mut dyn FnMut(&mut dyn Layer, &Dataset),
    ) {
        for dev in world.devices.iter().take(devices) {
            train(&mut self.server.deep_clone(), &dev.partition.data);
        }
    }

    fn step(&mut self, world: &mut SimWorld, rng: &mut NebulaRng, tr: &mut Tracer) {
        let step = tr.enter("step");
        let ids = tr.span("sim.sample", || world.sample_participants(self.cfg.devices_per_round));
        world.next_round_index();
        let server_params = tr.span("baselines.dense_params", || self.server.param_vector());
        let raw = (server_params.len() * 4) as u64;

        let mut downloads = Vec::with_capacity(ids.len());
        for &id in &ids {
            let mut decoded = Vec::new();
            let bytes = tr.span("wire.dense_down", || {
                self.pool
                    .send_down(id as u64, &server_params, &mut decoded)
                    .expect("a pristine frame decodes")
            });
            self.tally.down_frames += bytes;
            self.tally.downloads += 1;
            self.tally.raw_bytes += raw;
            downloads.push(decoded);
        }

        let rngs: Vec<NebulaRng> = (0..ids.len()).map(|k| rng.fork(k as u64)).collect();
        let mut updates: Vec<(Vec<f32>, usize)> = Vec::with_capacity(ids.len());
        for ((&id, decoded), mut drng) in ids.iter().zip(downloads).zip(rngs) {
            let dev = tr.enter("device");
            let data = &world.devices[id].partition.data;
            let update = nebula_tensor::par::sequential(|| {
                let mut local = tr.span("baselines.dense_install", || {
                    let mut local = self.server.deep_clone();
                    local.load_param_vector(&decoded);
                    local
                });
                tr.span("baselines.dense_train", || {
                    let mut opt = Sgd::with_momentum(self.cfg.local_lr, 0.9);
                    nebula_data::train_epochs(
                        &mut local,
                        &mut opt,
                        data,
                        TrainConfig {
                            epochs: self.cfg.local_epochs,
                            batch_size: self.cfg.batch_size,
                            clip_norm: Some(5.0),
                        },
                        &mut drng,
                    );
                });
                tr.span("baselines.dense_params", || local.param_vector())
            });
            updates.push((update, data.len()));
            tr.exit(dev);
        }

        let total: f32 = updates.iter().map(|u| u.1 as f32).sum();
        let mut avg = vec![0.0f32; server_params.len()];
        let mut decoded_up = Vec::new();
        for ((params, volume), &id) in updates.iter().zip(&ids) {
            let bytes = tr.span("wire.dense_up", || {
                self.pool.send_up(id as u64, params, &mut decoded_up).expect("a pristine frame decodes")
            });
            self.tally.up_frames += bytes;
            self.tally.uploads += 1;
            self.tally.raw_bytes += raw;
            tr.span("baselines.dense_average", || {
                let w = *volume as f32 / total;
                for (a, &p) in avg.iter_mut().zip(&decoded_up) {
                    *a += w * p;
                }
            });
        }
        // A dense channel encodes and decodes in one call.
        self.tally.encoded = self.tally.down_frames + self.tally.up_frames;
        tr.span("baselines.dense_average", || self.server.load_param_vector(&avg));
        tr.exit(step);
    }
}
