//! The round machine (`nebula_serve::round`) on its own: no sockets, no
//! threads, no clock. Three worked examples, then the `JobTag` safety
//! property checked by enumeration — every reachable state of 2 jobs × 2
//! consecutive rounds on 2 workers at credit 1, on 2 at credit 2 and on 3
//! at credit 1, under every interleaving of writes, result echoes (each
//! deliverable again and again, round 1's still deliverable in round 2),
//! worker losses, the hedge timer and the deadline.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};

use nebula_core::{DispatchJob, JobResult, JobSpec, TrainParams, TransportError};
use nebula_data::Dataset;
use nebula_serve::proto::JobTag;
use nebula_serve::round::{Flight, Machine, Send, Step};
use nebula_tensor::Tensor;

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

/// Five jobs on one data row each, whose costs are their parameter
/// counts: 3, 5, 1, 4 and 2. Longest first, that is jobs 1, 3, 0, 4, 2.
fn uneven_jobs() -> Vec<DispatchJob> {
    [3, 5, 1, 4, 2]
        .into_iter()
        .enumerate()
        .map(|(j, n)| {
            let mut job = toy_job(10 + j as u64);
            if let JobSpec::Dense { params, .. } = &mut job.spec {
                *params = vec![0.0; n];
            }
            job.data = Dataset::new(Tensor::from_vec(vec![0.0, 0.0], &[1, 2]), vec![0], 2);
            job
        })
        .collect()
}

/// Each send as `(worker, job, attempt)`.
fn placed(step: &Step) -> Vec<(u64, u64, u32)> {
    step.sends.iter().map(|s| (s.worker, s.tag.job, s.tag.attempt)).collect()
}

/// A worker's answer that says which copy it answers for.
fn payload(tag: JobTag) -> Vec<f32> {
    vec![tag.epoch as f32, tag.job as f32, tag.attempt as f32, tag.device as f32]
}

fn echo(tag: JobTag) -> Result<JobResult, TransportError> {
    Ok(JobResult::Params(payload(tag)))
}

fn primary(m: &Machine, j: usize) -> (u64, u32) {
    let p = m.slots()[j].primary.expect("a placed slot");
    (p.worker, p.attempt)
}

/// Pull placement: each worker gets its credit's worth, longest job
/// first, and the worker whose answer frees credit takes the queue's
/// next job — here worker 2 twice in a row, while worker 1 is still busy.
#[test]
fn jobs_go_longest_first_and_refill_the_worker_that_answered() {
    let live = [(1, 1), (2, 1)];
    let mut m = Machine::new(0, 0);
    let write = |m: &mut Machine, step: &Step| {
        for send in &step.sends {
            assert!(m.on_send(send, 0).is_some());
        }
    };
    let step = m.start(uneven_jobs(), &live);
    assert_eq!(placed(&step), [(1, 1, 0), (2, 3, 0)], "the two longest, one per worker");
    write(&mut m, &step);
    let answer = |m: &mut Machine, j: usize| {
        let tag = JobTag { job: j as u64, attempt: 0, epoch: 1, device: 10 + j as u64 };
        m.on_result(tag, echo(tag), &live)
    };
    let step = answer(&mut m, 3);
    assert_eq!(placed(&step), [(2, 0, 0)], "worker 2 answered, so it takes job 0");
    write(&mut m, &step);
    let step = answer(&mut m, 0);
    assert_eq!(placed(&step), [(2, 4, 0)]);
    write(&mut m, &step);
    let step = answer(&mut m, 1);
    assert_eq!(placed(&step), [(1, 2, 0)], "the shortest job goes last");
    write(&mut m, &step);
    for j in [4, 2] {
        assert!(answer(&mut m, j).sends.is_empty(), "the queue is empty");
    }
    assert_eq!(m.outstanding(), 0);
    assert!(m.slots().iter().all(|s| s.retries_used == 0));
}

/// Worker 2 is lost after the round planned job 0 on it but before any
/// socket saw the copy: job 0 goes back to the queue's front for free,
/// even under a zero retry budget, and worker 1 takes it when it answers.
/// Once a written copy is lost, that is charged: one retry, or `Closed`
/// with no budget.
#[test]
fn a_job_never_written_is_not_charged_a_retry() {
    for max_retries in [2, 0] {
        let mut m = Machine::new(max_retries, 0);
        let plan = m.start(uneven_jobs(), &[(1, 1), (2, 1)]);
        for send in &plan.sends {
            assert!(m.on_send(send, 0).is_some());
        }
        let tag = plan.sends[1].tag;
        let refill = m.on_result(tag, echo(tag), &[(1, 1), (2, 1)]);
        assert_eq!(placed(&refill), [(2, 0, 0)]);
        // Worker 2's socket fails before job 0 is written.
        let lost = m.on_worker_lost(2, &[(1, 1)]);
        assert!(lost.sends.is_empty() && lost.counters.is_empty(), "worker 1 is at its credit: {lost:?}");
        assert!(m.slots()[0].primary.is_none() && m.slots()[0].result.is_none(), "job 0 waits in the queue");
        assert!(m.on_send(&refill.sends[0], 0).is_none(), "a send to the lost worker must be skipped");
        let tag = plan.sends[0].tag;
        let step = m.on_result(tag, echo(tag), &[(1, 1)]);
        assert_eq!(placed(&step), [(1, 0, 1)], "job 0 leads the queue, free");
        assert!(m.on_send(&step.sends[0], 0).is_some());
        let retries: Vec<u32> = m.slots().iter().map(|s| s.retries_used).collect();
        assert_eq!(retries, [0; 5], "a copy nobody saw is never charged");

        // Worker 1 is lost with job 0 written; worker 3 has joined.
        let moved = m.on_worker_lost(1, &[(3, 1)]);
        let retries: Vec<u32> = m.slots().iter().map(|s| s.retries_used).collect();
        if max_retries == 0 {
            assert!(
                matches!(m.slots()[0].result, Some(Err(TransportError::Closed(_)))),
                "job 0 was written and has no budget: {:?}",
                m.slots()[0].result
            );
            assert_eq!(moved.counters, ["serve.results_failed"]);
            assert_eq!(placed(&moved), [(3, 4, 0)], "the queue moves on to job 4");
            assert_eq!(retries, [0; 5]);
        } else {
            assert_eq!(moved.counters, ["serve.jobs_reassigned"]);
            assert_eq!(placed(&moved), [(3, 0, 2)], "job 0 leads the queue again");
            assert_eq!(retries, [1, 0, 0, 0, 0], "only the copy a socket saw is charged");
        }
        assert_eq!(m.outstanding(), if max_retries == 0 { 2 } else { 3 });
    }
}

/// One round end to end as the driver would run it: a hedge wins, its
/// original is a duplicate, a lost worker's job is reassigned, and the
/// deadline times out what is left.
#[test]
fn a_round_by_hand() {
    let live = [(1, 4), (2, 4)];
    let mut m = Machine::new(1, 100);
    let plan = m.start(jobs(&[7, 8, 9]), &live);
    let to: Vec<u64> = plan.sends.iter().map(|s| s.worker).collect();
    assert_eq!(to, [1, 2, 1], "equal costs: job order, each to the roomiest worker");
    for send in &plan.sends {
        assert!(m.on_send(send, 10).is_some());
    }
    assert_eq!(m.on_tick(50, &live).wake_ms, Some(110), "nothing is due before 10 + 100");
    let hedges = m.on_tick(110, &live);
    assert_eq!(hedges.counters, ["serve.jobs_hedged"; 3]);
    let to: Vec<(u64, u32, bool)> = hedges.sends.iter().map(|s| (s.worker, s.tag.attempt, s.hedge)).collect();
    assert_eq!(to, [(2, 1, true), (1, 1, true), (2, 1, true)], "each hedge goes to the other worker");
    for send in &hedges.sends {
        assert!(m.on_send(send, 110).is_some());
    }
    assert!(m.on_tick(500, &live).sends.is_empty(), "one hedge per slot per round");

    // Slot 0: the hedge answers first, the original second.
    assert_eq!(
        m.on_result(hedges.sends[0].tag, echo(hedges.sends[0].tag), &live).counters,
        ["serve.hedge_wins", "serve.results_ok"]
    );
    assert_eq!(
        m.on_result(plan.sends[0].tag, echo(plan.sends[0].tag), &live).counters,
        ["serve.dup_results"]
    );
    // Worker 2 dies: slot 1 (primary there) is promoted onto its hedge on
    // worker 1; slot 2 (hedge there) just loses the hedge.
    let lost = m.on_worker_lost(2, &[(1, 4)]);
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
    assert_eq!(
        m.on_result(plan.sends[1].tag, echo(plan.sends[1].tag), &[]).counters,
        ["serve.stale_results"]
    );
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
    /// `(id, credit)`, as the driver hands them to the machine.
    live: Vec<(u64, u32)>,
    queue: Vec<Send>,
    /// Every result frame a worker could have sent so far, by the tag it
    /// echoes. A frame stays here once delivered: any of them may arrive
    /// at any later moment, any number of times — in a later round too.
    wire: Vec<JobTag>,
    clock: u64,
    /// Per slot, this round: attempts its sends went out under, hedges,
    /// and whether a primary copy was ever written.
    attempts: Vec<Vec<u32>>,
    hedges: Vec<u32>,
    written: Vec<bool>,
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
    fn new(credit: u32, workers: u64) -> World {
        let mut w = World {
            m: Machine::new(MAX_RETRIES, HEDGE_AFTER_MS),
            round: 0,
            live: (1..=workers).map(|w| (w, credit)).collect(),
            queue: Vec::new(),
            wire: Vec::new(),
            clock: 0,
            attempts: Vec::new(),
            hedges: Vec::new(),
            written: Vec::new(),
        };
        w.next_round();
        w
    }

    fn next_round(&mut self) {
        self.round += 1;
        self.attempts = vec![Vec::new(); DEVICES.len()];
        self.hedges = vec![0; DEVICES.len()];
        self.written = vec![false; DEVICES.len()];
        if self.round <= ROUNDS {
            let step = self.m.start(jobs(&DEVICES), &self.live);
            self.absorb(step);
        }
    }

    /// Queues an event's sends, checking what must hold of them.
    fn absorb(&mut self, step: Step) {
        for send in step.sends {
            let j = send.tag.job as usize;
            assert!(self.is_live(send.worker), "a send to a worker that is not live: {send:?}");
            assert!(
                !send.hedge || self.written[j],
                "slot {j} hedged before its primary was written: {send:?}"
            );
            assert!(!self.attempts[j].contains(&send.tag.attempt), "slot {j} reuses an attempt: {send:?}");
            self.attempts[j].push(send.tag.attempt);
            self.hedges[j] += u32::from(send.hedge);
            assert!(self.hedges[j] <= 1, "slot {j} hedged twice in one round");
            assert_eq!((send.tag.epoch, send.tag.device), (self.round, DEVICES[j]));
            self.queue.push(send);
        }
    }

    fn is_live(&self, worker: u64) -> bool {
        self.live.iter().any(|&(w, _)| w == worker)
    }

    fn enabled(&self) -> Vec<Event> {
        if self.round > ROUNDS {
            return Vec::new();
        }
        let mut events = Vec::new();
        events.extend((0..self.queue.len()).map(Event::Perform));
        events.extend((0..self.wire.len()).map(Event::Deliver));
        events.extend(self.live.iter().map(|&(w, _)| Event::Lose(w)));
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
            let answers = |f: Option<Flight>| f.is_some_and(|f| f.attempt == tag.attempt);
            let live_attempt = answers(s.primary) || answers(s.hedge);
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
                    self.written[send.tag.job as usize] |= !send.hedge;
                    if self.is_live(send.worker) {
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
                let step = self.m.on_result(tag, echo(tag), &self.live);
                self.absorb(step);
            }
            Event::Lose(worker) => {
                self.live.retain(|&(w, _)| w != worker);
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
        for &(worker, credit) in &self.live {
            let on = |f: Option<Flight>| usize::from(f.is_some_and(|f| f.worker == worker));
            let held: usize = self
                .m
                .slots()
                .iter()
                .filter(|s| s.result.is_none())
                .map(|s| on(s.primary) + on(s.hedge))
                .sum();
            assert!(held <= credit as usize, "worker {worker} holds {held} copies on {event:?}");
        }
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
    /// Not the machine's queue: of two jobs at most one waits there (a
    /// worker is full only with copies of the other), and a queued slot's
    /// primary is `None`.
    fn key(&self) -> u64 {
        if self.round > ROUNDS {
            return 0;
        }
        let mut k = vec![self.round, self.live.iter().map(|&(w, _)| 1 << w).sum(), self.queue.len() as u64];
        let flight = |f: &Flight| [f.worker, f.attempt as u64, f.written as u64];
        for (j, s) in self.m.slots().iter().enumerate() {
            k.extend(s.primary.as_ref().map_or([9, 9, 9], flight));
            k.extend(s.hedge.as_ref().map_or([9, 9, 9], flight));
            k.extend([s.hedged as u64, s.next_attempt as u64, s.retries_used as u64]);
            k.push(code(&s.result));
            k.extend([self.hedges[j] as u64, self.written[j] as u64]);
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

/// Walks every state reachable with `workers` workers, each at `credit`;
/// returns how many there are.
fn explore(credit: u32, workers: u64) -> usize {
    let mut seen: HashSet<u64> = HashSet::new();
    let mut stack = vec![World::new(credit, workers)];
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
        "round machine, {workers} workers at credit {credit}: {} states, {transitions} transitions, {ended} terminal, up to \
         {deepest_wire} result frames in flight",
        seen.len()
    );
    seen.len()
}

/// Two workers at credit 1: a lost worker's job goes back to the queue
/// and waits there while the survivor is busy. Two at credit 2: either
/// worker can hold both jobs at once (a higher credit reaches no further
/// state). Three at credit 1: a hedge or a lost job has a worker to go to
/// that holds nothing of the round.
#[test]
fn jobtag_safety_holds_in_every_reachable_state() {
    for (credit, workers, floor) in [(1, 2, 2_800), (2, 2, 32_000), (1, 3, 190_000)] {
        let states = explore(credit, workers);
        assert!(
            states >= floor,
            "the search space of {workers} workers at credit {credit} shrank to {states} states"
        );
    }
}
