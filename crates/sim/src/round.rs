//! The frame both collaborative rounds — the dense FedAvg / HeteroFL round
//! and Nebula's — are written in: one order, one per-device record.
//!
//! ```text
//! Round::begin → plan → [derive + frame] → gate → train → receive → aggregate → Round::finish
//! ```
//!
//! [`Round`] is the prologue and epilogue, written once: the `round` span,
//! the sampled cohort, the round index, the world's fault plan and round
//! policy, and the [`CommTracker`] / [`RoundReport`] every stage bills.
//! [`Device`] is the one carrier: a strategy attaches what it needs to a
//! device's record (a width ratio; a payload, its data and a forked
//! stream) and every stage reads and marks that record — no stage keeps a
//! second per-device list that has to stay aligned with it.
//!
//! **The gate comes before training.** [`gate`] needs only each device's
//! fate and predicted wall-clock, and both exist once the device is planned
//! and its sub-model is known. A device the gate turns away (past the
//! deadline, or crashed before its upload) is therefore never trained:
//! nothing could observe the work — its stream was forked when its record
//! was made, so later devices' streams do not move; its download was
//! framed and billed before the gate; and the wire's upload-side state is
//! touched only for devices whose upload is due.

use crate::device::SimDevice;
use crate::faults::{DeviceFate, FaultPlan, RoundPolicy, RoundReport};
use crate::latency::adaptation_latency_ms;
use crate::network::{transfer_time_ms, CommTracker};
use crate::strategy::{RoundOutcome, StrategyConfig};
use crate::world::SimWorld;
use nebula_core::{round_deadline_ms, RoundStats};
use nebula_telemetry::{Span, Telemetry};

/// One collaborative round in flight: what the prologue fixed and what the
/// stages bill.
pub(crate) struct Round {
    pub telemetry: Telemetry,
    /// The `round` span; closes when [`Round::finish`] returns.
    span: Span,
    /// The sampled cohort, in sampling order.
    pub ids: Vec<usize>,
    pub index: u64,
    pub plan: FaultPlan,
    pub policy: RoundPolicy,
    pub comm: CommTracker,
    pub report: RoundReport,
}

impl Round {
    /// The prologue: opens the `round` span, samples the cohort, takes the
    /// next round index and the world's fault plan and policy.
    pub fn begin(telemetry: &Telemetry, world: &mut SimWorld, devices_per_round: usize) -> Self {
        let telemetry = telemetry.clone();
        let mut span = telemetry.span("round");
        let ids = world.sample_participants(devices_per_round);
        let index = world.next_round_index();
        span.int("index", index);
        let report = RoundReport { sampled: ids.len() as u64, ..Default::default() };
        Round {
            telemetry,
            span,
            ids,
            index,
            plan: world.faults,
            policy: world.policy,
            comm: CommTracker::new(),
            report,
        }
    }

    /// The epilogue: closes the round's accounting, emits the round-level
    /// telemetry and hands back what the round produced.
    pub fn finish(mut self, round_time_ms: f64) -> RoundOutcome {
        self.comm.end_round();
        note_round(&self.telemetry, self.index, &self.comm, &self.report, round_time_ms);
        self.span.num("time_ms", round_time_ms);
        RoundOutcome {
            stats: RoundStats { comm: self.comm, adapt_time_ms: 0.0, faults: self.report },
            round_time_ms,
        }
    }

    /// Per-device fate telemetry (`kind = "client"`). `time_ms` is the
    /// simulated participant wall-clock when one was derived before the
    /// device's fate resolved.
    pub fn note_client(&self, device: usize, outcome: &'static str, time_ms: Option<f64>) {
        self.telemetry.emit("client", |e| {
            e.ints.insert("device".into(), device as u64);
            e.text.insert("outcome".into(), outcome.into());
            if let Some(ms) = time_ms {
                e.num.insert("time_ms".into(), ms);
            }
        });
    }
}

/// Round-level telemetry shared by the collaborative strategies: fault
/// counters plus one `kind = "round"` event. One branch on a disarmed
/// handle.
fn note_round(t: &Telemetry, round: u64, comm: &CommTracker, report: &RoundReport, round_time_ms: f64) {
    if !t.enabled() {
        return;
    }
    t.counter_add("rounds", 1);
    t.counter_add("faults.dropped", report.dropped);
    t.counter_add("faults.crashed", report.crashed);
    t.counter_add("faults.deadline_dropped", report.deadline_dropped);
    t.counter_add("faults.link_dropped", report.link_dropped);
    t.counter_add("faults.rejected", report.rejected);
    t.counter_add("faults.retried", report.retried);
    t.counter_add("faults.stale", report.stale);
    t.counter_add("faults.rolled_back", report.rolled_back);
    t.counter_add("faults.corrupt_frames", report.corrupt_frames);
    t.observe("round.time_ms", round_time_ms);
    t.emit("round", |e| {
        e.ints.insert("index".into(), round);
        e.ints.insert("sampled".into(), report.sampled);
        e.ints.insert("participated".into(), report.participated);
        e.ints.insert("lost".into(), report.lost());
        e.ints.insert("rejected".into(), report.rejected);
        e.ints.insert("down_bytes".into(), comm.down_bytes);
        e.ints.insert("up_bytes".into(), comm.up_bytes);
        e.ints.insert("retry_bytes".into(), comm.retry_bytes);
        e.num.insert("round_time_ms".into(), round_time_ms);
    });
}

/// How a device that got its download leaves the round.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Exit {
    /// Straggled past the round deadline.
    Late,
    /// Died before its upload landed.
    Crashed,
    /// Its upload is due: the only exit that is trained.
    Reported,
}

/// One sampled device whose link delivers, from its download to the
/// cloud's door. `T` is what the strategy carries for it from stage to
/// stage.
pub(crate) struct Device<T> {
    pub id: usize,
    pub fate: DeviceFate,
    /// Predicted wall-clock ([`predicted_time_ms`]).
    pub time_ms: f64,
    /// [`Exit::Reported`] until [`gate`] says otherwise.
    pub exit: Exit,
    pub work: T,
}

impl<T> Device<T> {
    pub fn new(id: usize, fate: DeviceFate, time_ms: f64, work: T) -> Self {
        Device { id, fate, time_ms, exit: Exit::Reported, work }
    }

    /// The record carried to the next stage: `f(work)` attached for a device
    /// whose upload is due, `None` for one the gate turned away.
    pub fn advance<U>(self, f: impl FnOnce(T) -> U) -> Device<Option<U>> {
        let work = self.reports().then(|| f(self.work));
        Device { id: self.id, fate: self.fate, time_ms: self.time_ms, exit: self.exit, work }
    }

    /// Whether the device's upload is due — whether it trains at all.
    pub fn reports(&self) -> bool {
        self.exit == Exit::Reported
    }
}

/// Predicted participant wall-clock: local training of `flops` per sample
/// under the injected slowdown, plus the download, the upload and
/// `resends` re-sends of `bytes` each over the possibly-collapsed link,
/// plus backoff waits.
pub(crate) fn predicted_time_ms(
    cfg: &StrategyConfig,
    dev: &SimDevice,
    fate: &DeviceFate,
    flops: u64,
    bytes: u64,
    resends: u64,
    backoff_ms: f64,
) -> f64 {
    let bw = dev.resources.bandwidth_bps * fate.bandwidth_factor;
    adaptation_latency_ms(&dev.resources, flops, dev.volume(), cfg.local_epochs, cfg.batch_size)
        * fate.slowdown
        + transfer_time_ms(2 * bytes + resends * bytes, bw)
        + backoff_ms
}

/// The deadline/crash gate every collaborative round applies before it
/// trains anyone: the deadline comes from the latency model over the
/// whole cohort, stragglers past it drop, then crashes. Marks each
/// record's [`Exit`], counts the two losses in `report`, and returns the
/// round's predicted wall-clock (capped at the deadline when one cut in).
pub(crate) fn gate<T>(policy: &RoundPolicy, devices: &mut [Device<T>], report: &mut RoundReport) -> f64 {
    let times: Vec<f64> = devices.iter().map(|d| d.time_ms).collect();
    let deadline = round_deadline_ms(policy.deadline_factor, &times);
    let mut round_time_ms = 0.0f64;
    for d in devices {
        d.exit = match deadline {
            Some(limit) if d.time_ms > limit => {
                report.deadline_dropped += 1;
                round_time_ms = round_time_ms.max(limit);
                Exit::Late
            }
            _ if d.fate.crashed => {
                report.crashed += 1;
                Exit::Crashed
            }
            _ => {
                round_time_ms = round_time_ms.max(d.time_ms);
                Exit::Reported
            }
        };
    }
    round_time_ms
}
