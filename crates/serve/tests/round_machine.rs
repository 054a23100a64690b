//! The round machine (`nebula_serve::round`) on its own: no sockets, no
//! threads, no clock. Two worked examples, then the `JobTag` safety
//! property checked by enumeration — every reachable state of 2 workers ×
//! 2 jobs × 2 consecutive rounds, under every interleaving of writes,
//! result echoes (each deliverable again and again, round 1's still
//! deliverable in round 2), worker losses, the hedge timer and the
//! deadline.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};

use nebula_core::{DispatchJob, JobResult, JobSpec, TrainParams, TransportError};
use nebula_data::Dataset;
use nebula_serve::proto::JobTag;
use nebula_serve::round::{Flight, Machine, Send, Step};

fn toy_job(device: u64) -> DispatchJob {
    DispatchJob {
        round: 0,
        device,
        spec: JobSpec::Dense {
            input: 2,
            width: 2,
            blocks: 1,
            block_hidden: 2,
            classes: 2,
            ratio: 1.0,
            params: Vec::new(),
        },
        rng_state: [1, 2, 3, 4],
        train: TrainParams { epochs: 1, batch_size: 2, lr: 0.1 },
        // Nothing here trains: the smallest job clones fastest.
        data: Dataset::empty(2, 2),
    }
}

fn jobs(devices: &[u64]) -> Vec<DispatchJob> {
    devices.iter().map(|&d| toy_job(d)).collect()
}

/// A worker's answer that says which copy it answers for.
fn payload(tag: JobTag) -> Vec<f32> {
    vec![tag.epoch as f32, tag.job as f32, tag.attempt as f32, tag.device as f32]
}

fn echo(tag: JobTag) -> Result<JobResult, TransportError> {
    Ok(JobResult::Params(payload(tag)))
}

fn primary(m: &Machine, j: usize) -> (u64, u32) {
    (m.slots()[j].primary.worker, m.slots()[j].primary.attempt)
}

/// The placement fix: worker 1's socket fails on the round's first write.
/// Job 0 was handed to that socket and is reassigned at the cost of one
/// retry; job 2 was only *planned* there — no socket ever saw it — so it
/// moves for free, and under a zero retry budget only job 0 is lost.
#[test]
fn a_job_never_written_is_not_charged_a_retry() {
    for max_retries in [2, 0] {
        let mut m = Machine::new(max_retries, 0);
        let plan = m.start(jobs(&[7, 8, 9, 10]), &[1, 2], 0);
        let workers: Vec<u64> = plan.sends.iter().map(|s| s.worker).collect();
        assert_eq!(workers, [1, 2, 1, 2], "round-robin over the live set");
        // The driver takes the first send to the socket; the write fails.
        assert!(m.on_send(&plan.sends[0], 0).is_some());
        let moved = m.on_worker_lost(1, &[2]);
        // The rest of the plan: worker 1's other send is superseded.
        assert!(m.on_send(&plan.sends[1], 0).is_some());
        assert!(m.on_send(&plan.sends[2], 0).is_none(), "a send to the lost worker must be skipped");
        assert!(m.on_send(&plan.sends[3], 0).is_some());
        for send in &moved.sends {
            assert!(m.on_send(send, 0).is_some());
        }
        let retries: Vec<u32> = m.slots().iter().map(|s| s.retries_used).collect();
        if max_retries == 0 {
            assert!(
                matches!(m.slots()[0].result, Some(Err(TransportError::Closed(_)))),
                "job 0 was written and has no budget: {:?}",
                m.slots()[0].result
            );
            assert_eq!(moved.sends.len(), 1);
            assert_eq!(retries, [0, 0, 0, 0]);
            assert_eq!(m.outstanding(), 3, "only job 0 may be lost");
            assert!(!moved.counters.contains(&"serve.jobs_reassigned"));
        } else {
            assert_eq!(primary(&m, 0), (2, 1));
            assert_eq!(retries, [1, 0, 0, 0], "only the job a socket saw is charged");
            assert_eq!(moved.counters, ["serve.jobs_reassigned"]);
            assert_eq!(m.outstanding(), 4);
        }
        assert_eq!(primary(&m, 2), (2, 1), "job 2 ends on worker 2");
        assert!(m.slots().iter().all(|s| s.result.is_some() || s.primary.written));
    }
}

/// One round end to end as the driver would run it: a hedge wins, its
/// original is a duplicate, a lost worker's job is reassigned, and the
/// deadline times out what is left.
#[test]
fn a_round_by_hand() {
    let mut m = Machine::new(1, 100);
    let plan = m.start(jobs(&[7, 8, 9]), &[1, 2], 0);
    for send in &plan.sends {
        assert!(m.on_send(send, 10).is_some());
    }
    assert_eq!(m.on_tick(50, &[1, 2]).wake_ms, Some(110), "nothing is due before 10 + 100");
    let hedges = m.on_tick(110, &[1, 2]);
    assert_eq!(hedges.counters, ["serve.jobs_hedged"; 3]);
    let to: Vec<(u64, u32, bool)> = hedges.sends.iter().map(|s| (s.worker, s.tag.attempt, s.hedge)).collect();
    assert_eq!(to, [(2, 1, true), (1, 1, true), (2, 1, true)], "each hedge goes to the other worker");
    for send in &hedges.sends {
        assert!(m.on_send(send, 110).is_some());
    }
    assert!(m.on_tick(500, &[1, 2]).sends.is_empty(), "one hedge per slot per round");

    // Slot 0: the hedge answers first, the original second.
    assert_eq!(
        m.on_result(hedges.sends[0].tag, echo(hedges.sends[0].tag)).counters,
        ["serve.hedge_wins", "serve.results_ok"]
    );
    assert_eq!(m.on_result(plan.sends[0].tag, echo(plan.sends[0].tag)).counters, ["serve.dup_results"]);
    // Worker 2 dies: slot 1 (primary there) is promoted onto its hedge on
    // worker 1; slot 2 (hedge there) just loses the hedge.
    let lost = m.on_worker_lost(2, &[1]);
    assert!(lost.sends.is_empty() && lost.counters.is_empty());
    assert_eq!((primary(&m, 1), m.slots()[1].hedge), ((1, 1), None));
    assert_eq!((primary(&m, 2), m.slots()[2].hedge), ((1, 0), None));
    // Worker 1 dies too: nobody is left.
    let lost = m.on_worker_lost(1, &[]);
    assert_eq!(lost.counters, ["serve.results_failed"; 2]);
    assert_eq!(m.outstanding(), 0);
    assert!(m.on_deadline(900).counters.is_empty(), "a deadline with nothing open times nothing out");
    let results = m.finish();
    assert!(matches!(results[..], [Ok(_), Err(TransportError::Closed(_)), Err(TransportError::Closed(_))]));
    assert!(m.slots().is_empty());
    assert_eq!(m.on_result(plan.sends[1].tag, echo(plan.sends[1].tag)).counters, ["serve.stale_results"]);
}

const MAX_RETRIES: u32 = 1;
const HEDGE_AFTER_MS: u64 = 100;
const DEVICES: [u64; 2] = [7, 8];
const ROUNDS: u64 = 2;

/// The machine plus everything around it that the driver and the network
/// would hold: the registry, the sends not yet performed (several threads
/// hold them, so any may be next), and the result frames in flight.
#[derive(Clone)]
struct World {
    m: Machine,
    /// 1-based; `ROUNDS + 1` once the last round has finished.
    round: u64,
    live: Vec<u64>,
    queue: Vec<Send>,
    /// Every result frame a worker could have sent so far, by the tag it
    /// echoes. A frame stays here once delivered: any of them may arrive
    /// at any later moment, any number of times — in a later round too.
    wire: Vec<JobTag>,
    clock: u64,
    /// Per slot, this round: attempts its sends went out under, hedges.
    attempts: Vec<Vec<u32>>,
    hedges: Vec<u32>,
}

#[derive(Clone, Copy, Debug)]
enum Event {
    Perform(usize),
    Deliver(usize),
    Lose(u64),
    Tick,
    Deadline,
    Finish,
}

impl World {
    fn new() -> World {
        let mut w = World {
            m: Machine::new(MAX_RETRIES, HEDGE_AFTER_MS),
            round: 0,
            live: vec![1, 2],
            queue: Vec::new(),
            wire: Vec::new(),
            clock: 0,
            attempts: Vec::new(),
            hedges: Vec::new(),
        };
        w.next_round();
        w
    }

    fn next_round(&mut self) {
        self.round += 1;
        self.attempts = vec![Vec::new(); DEVICES.len()];
        self.hedges = vec![0; DEVICES.len()];
        if self.round <= ROUNDS {
            let step = self.m.start(jobs(&DEVICES), &self.live, self.clock);
            self.absorb(step);
        }
    }

    /// Queues an event's sends, checking what must hold of them.
    fn absorb(&mut self, step: Step) {
        for send in step.sends {
            let j = send.tag.job as usize;
            assert!(self.live.contains(&send.worker), "a send to a worker that is not live: {send:?}");
            assert!(!self.attempts[j].contains(&send.tag.attempt), "slot {j} reuses an attempt: {send:?}");
            self.attempts[j].push(send.tag.attempt);
            self.hedges[j] += u32::from(send.hedge);
            assert!(self.hedges[j] <= 1, "slot {j} hedged twice in one round");
            assert_eq!((send.tag.epoch, send.tag.device), (self.round, DEVICES[j]));
            self.queue.push(send);
        }
    }

    fn enabled(&self) -> Vec<Event> {
        if self.round > ROUNDS {
            return Vec::new();
        }
        let mut events = Vec::new();
        events.extend((0..self.queue.len()).map(Event::Perform));
        events.extend((0..self.wire.len()).map(Event::Deliver));
        events.extend(self.live.iter().map(|&w| Event::Lose(w)));
        if self.m.slots().iter().any(|s| s.result.is_none() && !s.hedged) {
            events.push(Event::Tick);
        }
        events.push(if self.m.outstanding() == 0 { Event::Finish } else { Event::Deadline });
        events
    }

    /// The safety property, as an oracle: would a result under `tag` be
    /// allowed to resolve a slot right now?
    fn may_land(&self, tag: JobTag) -> bool {
        self.m.slots().get(tag.job as usize).is_some_and(|s| {
            let live_attempt =
                s.primary.attempt == tag.attempt || s.hedge.is_some_and(|h| h.attempt == tag.attempt);
            s.result.is_none() && tag.epoch == self.round && tag.device == s.job.device && live_attempt
        })
    }

    fn apply(&mut self, event: Event) {
        let before: Vec<(u64, u32)> =
            self.m.slots().iter().map(|s| (code(&s.result), s.next_attempt)).collect();
        let mut landing = None;
        match event {
            Event::Perform(i) => {
                let send = self.queue.remove(i);
                if self.m.on_send(&send, self.clock).is_some() {
                    if self.live.contains(&send.worker) {
                        self.wire.push(send.tag);
                    } else {
                        // The write fails: the driver loses the worker again.
                        let step = self.m.on_worker_lost(send.worker, &self.live);
                        self.absorb(step);
                    }
                }
            }
            Event::Deliver(i) => {
                let tag = self.wire[i];
                landing = Some((tag, self.may_land(tag)));
                let step = self.m.on_result(tag, echo(tag));
                assert!(step.sends.is_empty());
            }
            Event::Lose(worker) => {
                self.live.retain(|&w| w != worker);
                let step = self.m.on_worker_lost(worker, &self.live);
                self.absorb(step);
            }
            Event::Tick => {
                self.clock += HEDGE_AFTER_MS;
                let step = self.m.on_tick(self.clock, &self.live);
                self.absorb(step);
            }
            Event::Deadline => {
                let step = self.m.on_deadline(self.clock);
                assert!(step.sends.is_empty());
                assert_eq!(self.m.outstanding(), 0, "the deadline must resolve every slot");
                assert_eq!(self.m.finish().len(), DEVICES.len());
                return self.next_round();
            }
            Event::Finish => {
                assert_eq!(self.m.finish().len(), DEVICES.len());
                return self.next_round();
            }
        }
        self.check(&before, event, landing);
    }

    /// What must hold after every event inside a round; `before` is each
    /// slot's outcome code and attempt counter as the event found them.
    fn check(&self, before: &[(u64, u32)], event: Event, landing: Option<(JobTag, bool)>) {
        let open = |codes: &mut dyn Iterator<Item = u64>| codes.filter(|&c| c == 0).count();
        let (was_open, now_open) = (
            open(&mut before.iter().map(|b| b.0)),
            open(&mut self.m.slots().iter().map(|s| code(&s.result))),
        );
        assert_eq!(self.m.outstanding(), now_open);
        assert!(now_open <= was_open, "outstanding grew on {event:?}");
        for (j, (&(was, next_attempt), now)) in before.iter().zip(self.m.slots()).enumerate() {
            assert!(now.retries_used <= MAX_RETRIES, "slot {j} over budget on {event:?}");
            assert!(now.next_attempt >= next_attempt);
            if was != 0 {
                assert_eq!(was, code(&now.result), "slot {j} resolved twice on {event:?}");
                continue;
            }
            // A slot that resolved `Ok` did so through `on_result`, under
            // a tag the oracle allows, and holds that very copy's answer.
            if let Some(Ok(JobResult::Params(answer))) = &now.result {
                let (tag, allowed) = landing.expect("only a delivered result resolves a slot Ok");
                assert!(allowed && tag.job as usize == j, "slot {j} took a result it must not: {tag:?}");
                assert_eq!(answer, &payload(tag));
            }
        }
        if let Some((tag, allowed)) = landing {
            let landed = was_open - now_open;
            assert_eq!(
                landed,
                usize::from(allowed),
                "{tag:?}: the oracle says {allowed}, the machine did {landed}"
            );
        }
    }

    /// Everything that distinguishes two worlds' futures. Not the clock:
    /// a tick always advances it far enough for every open slot to be
    /// due. Not the order of the frames in flight: any may arrive next.
    fn key(&self) -> u64 {
        if self.round > ROUNDS {
            return 0;
        }
        let mut k = vec![self.round, self.live.iter().sum(), self.queue.len() as u64];
        let flight = |f: &Flight| [f.worker, f.attempt as u64, f.written as u64];
        for (j, s) in self.m.slots().iter().enumerate() {
            k.extend(flight(&s.primary));
            k.extend(s.hedge.as_ref().map_or([9, 9, 9], flight));
            k.extend([s.hedged as u64, s.next_attempt as u64, s.retries_used as u64]);
            k.push(code(&s.result));
            k.push(self.hedges[j] as u64);
            k.extend(self.attempts[j].iter().map(|&a| 100 + a as u64));
        }
        for send in &self.queue {
            k.extend([
                200 + send.tag.epoch,
                send.tag.job,
                send.tag.attempt as u64,
                send.worker,
                send.hedge as u64,
            ]);
        }
        let mut wire: Vec<u64> =
            self.wire.iter().map(|tag| (tag.epoch * 10 + tag.job) * 10 + tag.attempt as u64).collect();
        wire.sort_unstable();
        k.push(u64::MAX);
        k.extend(wire);
        let mut hasher = DefaultHasher::new();
        k.hash(&mut hasher);
        hasher.finish()
    }
}

/// A slot's outcome in one number: 0 open, 1 `Closed`, 2 `Timeout`,
/// 10 + the attempt that answered.
fn code(result: &Option<Result<JobResult, TransportError>>) -> u64 {
    match result {
        None => 0,
        Some(Ok(JobResult::Params(p))) => 10 + p[2] as u64,
        Some(Ok(JobResult::Frame(_))) => unreachable!("the toy workers answer with `Params`"),
        Some(Err(TransportError::Closed(_))) => 1,
        Some(Err(_)) => 2,
    }
}

#[test]
fn jobtag_safety_holds_in_every_reachable_state() {
    let mut seen: HashSet<u64> = HashSet::new();
    let mut stack = vec![World::new()];
    let (mut transitions, mut ended, mut deepest_wire) = (0u64, 0u64, 0usize);
    while let Some(world) = stack.pop() {
        let events = world.enabled();
        if events.is_empty() {
            ended += 1;
            continue;
        }
        for event in events {
            let mut next = world.clone();
            next.apply(event);
            transitions += 1;
            deepest_wire = deepest_wire.max(next.wire.len());
            if seen.insert(next.key()) {
                stack.push(next);
            }
        }
    }
    println!(
        "round machine: {} states, {transitions} transitions, {ended} terminal, up to {deepest_wire} result frames in flight",
        seen.len()
    );
    assert!(seen.len() >= 150_000, "the search space shrank to {} states", seen.len());
}
