//! The served round as one pure state machine.
//!
//! A round is a vector of [`Slot`]s — one record per job — owned by a
//! [`Machine`] that outlives the rounds it runs (it carries the barrier
//! epoch from one round to the next). The coordinator's threads are its
//! drivers: each locks the machine, feeds it **one event** together with
//! the workers live at that moment, unlocks, and then performs what the
//! event returned — the [`Send`]s to write and the `serve.*` counters to
//! bump ([`Step`]). Nothing in this file touches a socket, a lock, a clock
//! or a thread (CI greps for it): time arrives as `now_ms` arguments, so
//! every transition can be replayed and enumerated
//! (`tests/round_machine.rs` walks every interleaving of three small
//! scopes).
//!
//! **Placement is by pull.** A live worker comes as `(id, credit)`: it may
//! hold up to `credit` unresolved copies (primaries and hedges) at once.
//! The round's unplaced slots wait in one queue, longest job first
//! ([`DispatchJob::cost`]); whenever credit frees up, the queue's front
//! goes to the live worker with the most credit to spare (the first in
//! `live` on a tie). So a worker that finishes early takes the next job,
//! and the short jobs are left to fill the end of the round.
//!
//! | event | slot state | becomes | returns |
//! |---|---|---|---|
//! | `start` | — | queued, longest first; then the queue is placed | a `Send` per placed slot |
//! | `on_send` | the copy is still the slot's primary or hedge | written (a primary restarts its hedge timer) | the `JobTag` to frame |
//! | `on_send` | resolved, superseded, or another epoch | unchanged | `None`: skip the write |
//! | `on_result` | tag's epoch, device and attempt match a live copy; unresolved | resolved; then the queue is placed | `results_ok` / `results_failed`, `hedge_wins` / `hedge_losses`; a `Send` per placed slot |
//! | `on_result` | … match a live copy; already resolved | unchanged | `dup_results` |
//! | `on_result` | anything else | unchanged | `stale_results` |
//! | `on_worker_lost` | hedge on the lost worker | hedge cleared | — |
//! | `on_worker_lost` | primary lost, hedge alive | hedge promoted to primary | — (free) |
//! | `on_worker_lost` | primary lost before it was written | back at the queue's front, free | a `Send` once placed |
//! | `on_worker_lost` | primary lost, budget left, a survivor | `retries_used + 1`, back at the queue's front | a `Send` once placed, `jobs_reassigned` |
//! | `on_worker_lost` | primary lost, budget spent or no survivor | resolved `Closed` | `results_failed` |
//! | any placing event | queued, nobody live | resolved `Closed` | `results_failed` |
//! | `on_tick` | written, unhedged, `hedge_after_ms` past its send, another worker with credit to spare | hedged; hedge on the roomiest other worker, fresh attempt | a `Send`, `jobs_hedged` |
//! | `on_tick` | otherwise unresolved and unhedged | unchanged | its due time as `wake_ms`: a hedge interval from now for a copy not yet written or one with nowhere to go |
//! | `on_deadline` | unresolved, queued or not | resolved `Timeout` | `results_failed`, `round_timeouts` |
//!
//! The safety argument is in the table's `on_result` rows plus one
//! counter: every copy of a job goes out under an attempt number its slot
//! issues once ([`Slot::next_attempt`]), a slot accepts only its current
//! primary and hedge attempts under the live epoch and its own device, and
//! a resolved slot never changes again.

use std::cmp::Reverse;
use std::collections::VecDeque;

use nebula_core::{DispatchJob, JobResult, TransportError};

use crate::proto::JobTag;

/// How a slot ends: the worker's result, or why there is none.
pub type Outcome = Result<JobResult, TransportError>;

/// One copy of a job on its way to, or at, a worker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Flight {
    pub worker: u64,
    pub attempt: u32,
    /// The driver has handed this copy to the worker's connection. A copy
    /// lost before that was never seen by anyone and costs no retry.
    pub written: bool,
}

/// One job of the round and everything the round knows about it.
#[derive(Clone, Debug)]
pub struct Slot {
    pub job: DispatchJob,
    /// The live primary copy; `None` while the slot waits in the queue.
    pub primary: Option<Flight>,
    /// The speculative second copy, while it is in flight. Either copy
    /// may resolve the slot; the other is then a counted duplicate.
    pub hedge: Option<Flight>,
    /// A hedge was sent (at most one per slot per round).
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
        let flight = Some(Flight { worker, attempt: tag.attempt, written: false });
        if hedge {
            self.hedge = flight;
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
    /// The unresolved slots without a primary, in placing order: what a
    /// lost worker handed back first, then the rest longest first.
    queue: VecDeque<usize>,
}

impl Machine {
    pub fn new(max_retries: u32, hedge_after_ms: u64) -> Machine {
        Machine { max_retries, hedge_after_ms, epoch: 0, slots: Vec::new(), queue: VecDeque::new() }
    }

    pub fn slots(&self) -> &[Slot] {
        &self.slots
    }

    /// Slots of the current round without an outcome yet.
    pub fn outstanding(&self) -> usize {
        self.slots.iter().filter(|s| s.result.is_none()).count()
    }

    /// Opens the next round: a new epoch and one slot per job, queued by
    /// descending cost (ties in job order), then placed on `live` up to
    /// each worker's credit.
    pub fn start(&mut self, jobs: Vec<DispatchJob>, live: &[(u64, u32)]) -> Step {
        self.epoch += 1;
        let n = jobs.len();
        self.slots = jobs
            .into_iter()
            .map(|job| Slot {
                job,
                primary: None,
                hedge: None,
                hedged: false,
                next_attempt: 0,
                retries_used: 0,
                sent_at_ms: 0,
                result: None,
            })
            .collect();
        self.requeue((0..n).collect());
        let mut step = Step::default();
        self.place(live, &mut step);
        step
    }

    /// The driver is about to write `send`. `None` means the copy is no
    /// longer wanted (slot resolved, copy superseded, round over): skip
    /// it. Otherwise the copy is marked written and the job to frame
    /// under `send.tag` is returned.
    pub fn on_send(&mut self, send: &Send, now_ms: u64) -> Option<&DispatchJob> {
        let live_epoch = send.tag.epoch == self.epoch;
        let slot = self.slots.get_mut(send.tag.job as usize).filter(|s| live_epoch && s.result.is_none())?;
        let is = |f: &&mut Flight| (f.worker, f.attempt) == (send.worker, send.tag.attempt);
        if let Some(primary) = slot.primary.as_mut().filter(is) {
            primary.written = true;
            slot.sent_at_ms = now_ms;
        } else {
            slot.hedge.as_mut().filter(is)?.written = true;
        }
        Some(&slot.job)
    }

    /// A result came back under `tag`. It lands only when the tag names
    /// the live epoch, the slot's device and one of the slot's live
    /// attempts; the second of a hedged pair is a duplicate, anything
    /// else is stale. Neither is ever aggregated. Whatever credit the
    /// answer freed is refilled from the queue.
    pub fn on_result(&mut self, tag: JobTag, outcome: Outcome, live: &[(u64, u32)]) -> Step {
        let mut step = Step::default();
        let live_epoch = tag.epoch == self.epoch;
        let slot = self.slots.get_mut(tag.job as usize).filter(|s| live_epoch && s.job.device == tag.device);
        let answers = |f: Option<Flight>| f.is_some_and(|f| f.attempt == tag.attempt);
        match slot {
            Some(slot) if answers(slot.primary) || answers(slot.hedge) => {
                if slot.result.is_some() {
                    step.counters.push("serve.dup_results");
                } else if answers(slot.hedge) {
                    step.counters.push("serve.hedge_wins");
                } else if slot.hedge.is_some() {
                    step.counters.push("serve.hedge_losses");
                }
                slot.resolve(outcome, &mut step);
            }
            _ => step.counters.push("serve.stale_results"),
        }
        self.place(live, &mut step);
        step
    }

    /// Worker `dead` left the registry; `live` are the survivors. Its
    /// unresolved slots move (see the module table): the ones it owned
    /// go back to the queue's front, longest first, and are placed again.
    pub fn on_worker_lost(&mut self, dead: u64, live: &[(u64, u32)]) -> Step {
        let mut step = Step::default();
        let mut back = Vec::new();
        for (j, slot) in self.slots.iter_mut().enumerate() {
            if slot.result.is_some() {
                continue;
            }
            if slot.hedge.is_some_and(|h| h.worker == dead) {
                slot.hedge = None;
            }
            let Some(primary) = slot.primary.filter(|p| p.worker == dead) else { continue };
            if let Some(hedge) = slot.hedge.take() {
                slot.primary = Some(hedge);
                continue;
            }
            let used = slot.retries_used + u32::from(primary.written);
            if live.is_empty() || used > self.max_retries {
                let why = format!("worker {dead} lost (retry {used}/{} budget)", self.max_retries);
                slot.resolve(Err(TransportError::Closed(why)), &mut step);
                continue;
            }
            if primary.written {
                slot.retries_used = used;
                step.counters.push("serve.jobs_reassigned");
            }
            slot.primary = None;
            back.push(j);
        }
        self.requeue(back);
        self.place(live, &mut step);
        step
    }

    /// The hedge timer: every unresolved, unhedged slot whose primary
    /// was written `hedge_after_ms` ago gets a second copy on the live
    /// worker, other than its owner, with the most credit to spare. A
    /// copy not yet written, or one that finds no other worker with
    /// credit to spare, is due a hedge interval from now.
    pub fn on_tick(&mut self, now_ms: u64, live: &[(u64, u32)]) -> Step {
        let mut step = Step::default();
        if self.hedge_after_ms == 0 {
            return step;
        }
        let mut spare = self.spare(live);
        let later = now_ms + self.hedge_after_ms;
        for (j, slot) in self.slots.iter_mut().enumerate() {
            if slot.result.is_some() || slot.hedged {
                continue;
            }
            let owner = slot.primary.filter(|p| p.written).map(|p| p.worker);
            let mut due = owner.map_or(later, |_| slot.sent_at_ms + self.hedge_after_ms);
            if due <= now_ms {
                if let Some(w) = roomiest(&spare, owner) {
                    slot.hedged = true;
                    spare[w].1 -= 1;
                    slot.dispatch(self.epoch, j, spare[w].0, true, &mut step);
                    step.counters.push("serve.jobs_hedged");
                    continue;
                }
                due = later;
            }
            step.wake_ms = Some(step.wake_ms.map_or(due, |w| w.min(due)));
        }
        step
    }

    /// The barrier's deadline passed: stragglers resolve `Timeout` — the
    /// round degrades, it does not hang.
    pub fn on_deadline(&mut self, waited_ms: u64) -> Step {
        let mut step = Step::default();
        self.queue.clear();
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
        self.queue.clear();
        std::mem::take(&mut self.slots).into_iter().map(|s| s.result.unwrap_or_else(aborted)).collect()
    }

    /// Puts `back` at the queue's front, longest job first (ties in job
    /// order).
    fn requeue(&mut self, mut back: Vec<usize>) {
        back.sort_by_cached_key(|&j| Reverse(self.slots[j].job.cost()));
        for &j in back.iter().rev() {
            self.queue.push_front(j);
        }
    }

    /// Each live worker's credit less the unresolved copies it holds.
    fn spare(&self, live: &[(u64, u32)]) -> Vec<(u64, u32)> {
        let mut spare = live.to_vec();
        for slot in self.slots.iter().filter(|s| s.result.is_none()) {
            for copy in [slot.primary, slot.hedge].into_iter().flatten() {
                if let Some((_, room)) = spare.iter_mut().find(|(w, _)| *w == copy.worker) {
                    *room = room.saturating_sub(1);
                }
            }
        }
        spare
    }

    /// Places the queue, front first, each slot on the live worker with
    /// the most credit to spare, until the queue or the credit runs out.
    /// With nobody live the queue resolves `Closed`.
    fn place(&mut self, live: &[(u64, u32)], step: &mut Step) {
        if live.is_empty() {
            for j in self.queue.drain(..) {
                self.slots[j].resolve(Err(TransportError::Closed("no live worker".into())), step);
            }
            return;
        }
        let mut spare = self.spare(live);
        while let Some(&j) = self.queue.front() {
            let Some(w) = roomiest(&spare, None) else { break };
            self.queue.pop_front();
            spare[w].1 -= 1;
            self.slots[j].dispatch(self.epoch, j, spare[w].0, false, step);
        }
    }
}

/// The index in `spare` of the worker, other than `except`, with the most
/// credit to spare — the first on a tie; `None` when every one is full.
fn roomiest(spare: &[(u64, u32)], except: Option<u64>) -> Option<usize> {
    let open = spare.iter().enumerate().filter(|&(_, &(w, room))| room > 0 && Some(w) != except);
    open.max_by_key(|&(i, &(_, room))| (room, Reverse(i))).map(|(i, _)| i)
}

/// Fixtures for the driver's unit tests (`coordinator::tests`): slots are
/// only ever written in this file, test set-up included.
#[cfg(test)]
impl Machine {
    /// A round at `epoch` with every job written to `worker` at attempt 0.
    pub(crate) fn install(&mut self, epoch: u64, jobs: Vec<DispatchJob>, worker: u64) {
        self.epoch = epoch - 1;
        let credit = jobs.len() as u32;
        for send in self.start(jobs, &[(worker, credit)]).sends {
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
