//! The served round as one pure state machine.
//!
//! A round is a vector of [`Slot`]s — one record per job — owned by a
//! [`Machine`] that outlives the rounds it runs (it carries the barrier
//! epoch from one round to the next). The coordinator's threads are its
//! drivers: each locks the machine, feeds it **one event** together with
//! the ids of the workers live at that moment, unlocks, and then performs
//! what the event returned — the [`Send`]s to write and the `serve.*`
//! counters to bump ([`Step`]). Nothing in this file touches a socket, a
//! lock, a clock or a thread (CI greps for it): time arrives as `now_ms`
//! arguments, so every transition can be replayed and enumerated
//! (`tests/round_machine.rs` walks every interleaving of a small scope).
//!
//! | event | slot state | becomes | returns |
//! |---|---|---|---|
//! | `start` | — | primary on `live[j mod n]`, attempt 0, unwritten | a `Send` per slot |
//! | `on_send` | the copy is still the slot's primary or hedge | written (a primary restarts its hedge timer) | the `JobTag` to frame |
//! | `on_send` | resolved, superseded, or another epoch | unchanged | `None`: skip the write |
//! | `on_result` | tag's epoch, device and attempt match a live copy; unresolved | resolved | `results_ok` / `results_failed`, `hedge_wins` / `hedge_losses` |
//! | `on_result` | … match a live copy; already resolved | unchanged | `dup_results` |
//! | `on_result` | anything else | unchanged | `stale_results` |
//! | `on_worker_lost` | hedge on the lost worker | hedge cleared | — |
//! | `on_worker_lost` | primary lost, hedge alive | hedge promoted to primary | — (free) |
//! | `on_worker_lost` | primary lost before it was written | primary on a survivor, fresh attempt | a `Send` (free) |
//! | `on_worker_lost` | primary lost, budget left, a survivor | `retries_used + 1`, primary on a survivor, fresh attempt | a `Send`, `jobs_reassigned` |
//! | `on_worker_lost` | primary lost, budget spent or no survivor | resolved `Closed` | `results_failed` |
//! | `on_tick` | unresolved, unhedged, `hedge_after_ms` past its send | hedged; hedge on another live worker, fresh attempt | a `Send`, `jobs_hedged` |
//! | `on_deadline` | unresolved | resolved `Timeout` | `results_failed`, `round_timeouts` |
//!
//! The safety argument is in the table's `on_result` rows plus one
//! counter: every copy of a job goes out under an attempt number its slot
//! issues once ([`Slot::next_attempt`]), a slot accepts only its current
//! primary and hedge attempts under the live epoch and its own device, and
//! a resolved slot never changes again.

use nebula_core::{DispatchJob, JobResult, TransportError};

use crate::proto::JobTag;

/// How a slot ends: the worker's result, or why there is none.
pub type Outcome = Result<JobResult, TransportError>;

/// One copy of a job on its way to, or at, a worker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Flight {
    pub worker: u64,
    pub attempt: u32,
    /// The driver has handed this copy to the worker's socket. A copy
    /// lost before that was never seen by anyone and costs no retry.
    pub written: bool,
}

/// One job of the round and everything the round knows about it.
#[derive(Clone, Debug)]
pub struct Slot {
    pub job: DispatchJob,
    /// The live primary copy.
    pub primary: Flight,
    /// The speculative second copy, while it is in flight. Either copy
    /// may resolve the slot; the other is then a counted duplicate.
    pub hedge: Option<Flight>,
    /// A hedge was attempted (at most one per slot per round).
    pub hedged: bool,
    /// The attempt number the next copy goes out under. Every dispatch —
    /// first send, reassignment, hedge — takes one, so no two copies of a
    /// job share an attempt and a straggler from a superseded dispatch
    /// cannot pass for a live one.
    pub next_attempt: u32,
    /// Reassignments charged to the retry budget (hedges and copies that
    /// were never written are free).
    pub retries_used: u32,
    /// When the primary was last written; the hedge timer's zero.
    pub sent_at_ms: u64,
    pub result: Option<Outcome>,
}

impl Slot {
    /// Sends one more copy of the job, under the slot's next attempt
    /// number, as its primary or as its hedge.
    fn dispatch(&mut self, epoch: u64, job: usize, worker: u64, hedge: bool, step: &mut Step) {
        let tag = JobTag { job: job as u64, attempt: self.next_attempt, epoch, device: self.job.device };
        self.next_attempt += 1;
        let flight = Flight { worker, attempt: tag.attempt, written: false };
        if hedge {
            self.hedge = Some(flight);
        } else {
            self.primary = flight;
        }
        step.sends.push(Send { tag, worker, hedge });
    }

    /// Idempotent: a resolved slot keeps its first outcome.
    fn resolve(&mut self, outcome: Outcome, step: &mut Step) {
        if self.result.is_none() {
            step.counters.push(if outcome.is_ok() { "serve.results_ok" } else { "serve.results_failed" });
            self.result = Some(outcome);
        }
    }
}

/// "Write slot `tag.job`'s job to `worker`, framed under `tag`" — an
/// action for the driver, which asks [`Machine::on_send`] first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Send {
    pub tag: JobTag,
    pub worker: u64,
    pub hedge: bool,
}

/// What one event asks of the driver.
#[derive(Debug, Default)]
pub struct Step {
    pub sends: Vec<Send>,
    /// `serve.*` counters to bump by one each.
    pub counters: Vec<&'static str>,
    /// `on_tick` only: when the next hedge falls due, if one is pending.
    pub wake_ms: Option<u64>,
}

/// The round machine. Idle (no slots) between rounds.
#[derive(Clone, Debug)]
pub struct Machine {
    max_retries: u32,
    /// `0` disables hedging.
    hedge_after_ms: u64,
    /// Barrier epoch of the current round — monotonic across rounds, so
    /// a straggler from a round that already hit its deadline can never
    /// land in a later round's slot.
    epoch: u64,
    slots: Vec<Slot>,
}

impl Machine {
    pub fn new(max_retries: u32, hedge_after_ms: u64) -> Machine {
        Machine { max_retries, hedge_after_ms, epoch: 0, slots: Vec::new() }
    }

    pub fn slots(&self) -> &[Slot] {
        &self.slots
    }

    /// Slots of the current round without an outcome yet.
    pub fn outstanding(&self) -> usize {
        self.slots.iter().filter(|s| s.result.is_none()).count()
    }

    /// Opens the next round: a new epoch and one slot per job. A new slot
    /// sits unwritten on worker 0 — an id the registry never hands out —
    /// so first placement is the re-homing of a copy nobody has seen yet:
    /// round-robin over `live`, attempt 0, free.
    pub fn start(&mut self, jobs: Vec<DispatchJob>, live: &[u64], now_ms: u64) -> Step {
        self.epoch += 1;
        self.slots = jobs
            .into_iter()
            .map(|job| Slot {
                job,
                primary: Flight { worker: 0, attempt: 0, written: false },
                hedge: None,
                hedged: false,
                next_attempt: 0,
                retries_used: 0,
                sent_at_ms: now_ms,
                result: None,
            })
            .collect();
        self.on_worker_lost(0, live)
    }

    /// The driver is about to write `send`. `None` means the copy is no
    /// longer wanted (slot resolved, copy superseded, round over): skip
    /// it. Otherwise the copy is marked written and the job to frame
    /// under `send.tag` is returned.
    pub fn on_send(&mut self, send: &Send, now_ms: u64) -> Option<&DispatchJob> {
        let live_epoch = send.tag.epoch == self.epoch;
        let slot = self.slots.get_mut(send.tag.job as usize).filter(|s| live_epoch && s.result.is_none())?;
        let is = |f: &Flight| (f.worker, f.attempt) == (send.worker, send.tag.attempt);
        if is(&slot.primary) {
            slot.primary.written = true;
            slot.sent_at_ms = now_ms;
        } else {
            slot.hedge.as_mut().filter(|h| is(h))?.written = true;
        }
        Some(&slot.job)
    }

    /// A result came back under `tag`. It lands only when the tag names
    /// the live epoch, the slot's device and one of the slot's live
    /// attempts; the second of a hedged pair is a duplicate, anything
    /// else is stale. Neither is ever aggregated.
    pub fn on_result(&mut self, tag: JobTag, outcome: Outcome) -> Step {
        let mut step = Step::default();
        let live_epoch = tag.epoch == self.epoch;
        let slot = self.slots.get_mut(tag.job as usize).filter(|s| live_epoch && s.job.device == tag.device);
        let hedge = slot.as_ref().is_some_and(|s| s.hedge.is_some_and(|h| h.attempt == tag.attempt));
        match slot {
            Some(slot) if hedge || slot.primary.attempt == tag.attempt => {
                if slot.result.is_some() {
                    step.counters.push("serve.dup_results");
                } else if hedge {
                    step.counters.push("serve.hedge_wins");
                } else if slot.hedge.is_some() {
                    step.counters.push("serve.hedge_losses");
                }
                slot.resolve(outcome, &mut step);
            }
            _ => step.counters.push("serve.stale_results"),
        }
        step
    }

    /// Worker `dead` left the registry; `live` are the survivors. Its
    /// unresolved slots move (see the module table).
    pub fn on_worker_lost(&mut self, dead: u64, live: &[u64]) -> Step {
        let mut step = Step::default();
        let mut spread = 0;
        for (j, slot) in self.slots.iter_mut().enumerate() {
            if slot.result.is_some() {
                continue;
            }
            if slot.hedge.is_some_and(|h| h.worker == dead) {
                slot.hedge = None;
            }
            if slot.primary.worker != dead {
                continue;
            }
            if let Some(hedge) = slot.hedge.take() {
                slot.primary = hedge;
                continue;
            }
            let used = slot.retries_used + u32::from(slot.primary.written);
            if live.is_empty() || used > self.max_retries {
                let why = format!("worker {dead} lost (retry {used}/{} budget)", self.max_retries);
                slot.resolve(Err(TransportError::Closed(why)), &mut step);
                continue;
            }
            if slot.primary.written {
                slot.retries_used = used;
                step.counters.push("serve.jobs_reassigned");
            }
            slot.dispatch(self.epoch, j, live[spread % live.len()], false, &mut step);
            spread += 1;
        }
        step
    }

    /// The hedge timer: every unresolved, unhedged slot whose primary
    /// was sent `hedge_after_ms` ago gets a second copy on a live worker
    /// other than its owner (with no second worker there is nowhere to
    /// race the job, and the slot's one hedge is spent all the same).
    pub fn on_tick(&mut self, now_ms: u64, live: &[u64]) -> Step {
        let mut step = Step::default();
        let mut spread = 0;
        for (j, slot) in self.slots.iter_mut().enumerate() {
            if self.hedge_after_ms == 0 || slot.result.is_some() || slot.hedged {
                continue;
            }
            let due = slot.sent_at_ms + self.hedge_after_ms;
            if due > now_ms {
                step.wake_ms = Some(step.wake_ms.map_or(due, |w| w.min(due)));
                continue;
            }
            slot.hedged = true;
            let owner = slot.primary.worker;
            let mut others = live.iter().filter(move |&&w| w != owner);
            let n = others.clone().count().max(1);
            let Some(&worker) = others.nth(spread % n) else { continue };
            spread += 1;
            slot.dispatch(self.epoch, j, worker, true, &mut step);
            step.counters.push("serve.jobs_hedged");
        }
        step
    }

    /// The barrier's deadline passed: stragglers resolve `Timeout` — the
    /// round degrades, it does not hang.
    pub fn on_deadline(&mut self, waited_ms: u64) -> Step {
        let mut step = Step::default();
        for slot in &mut self.slots {
            slot.resolve(Err(TransportError::Timeout { waited_ms }), &mut step);
        }
        if !step.counters.is_empty() {
            step.counters.push("serve.round_timeouts");
        }
        step
    }

    /// Closes the round and hands back its outcomes in job order.
    pub fn finish(&mut self) -> Vec<Outcome> {
        let aborted = || Err(TransportError::Closed("round aborted".into()));
        std::mem::take(&mut self.slots).into_iter().map(|s| s.result.unwrap_or_else(aborted)).collect()
    }
}

/// Fixtures for the driver's unit tests (`coordinator::tests`): slots are
/// only ever written in this file, test set-up included.
#[cfg(test)]
impl Machine {
    /// A round at `epoch` with every job written to `worker` at attempt 0.
    pub(crate) fn install(&mut self, epoch: u64, jobs: Vec<DispatchJob>, worker: u64) {
        self.epoch = epoch - 1;
        for send in self.start(jobs, &[worker], 0).sends {
            self.on_send(&send, 0);
        }
    }

    /// A written hedge copy of slot `j`, its attempt number reserved the
    /// way `on_tick` reserves it.
    pub(crate) fn install_hedge(&mut self, j: usize, worker: u64, attempt: u32) {
        let slot = &mut self.slots[j];
        slot.hedged = true;
        slot.next_attempt = slot.next_attempt.max(attempt + 1);
        slot.hedge = Some(Flight { worker, attempt, written: true });
    }
}
