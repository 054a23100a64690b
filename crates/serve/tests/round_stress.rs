//! A seeded stress loop over the real driver: one Unix-socket deployment,
//! two workers whose links drop, duplicate and stall result frames, with
//! liveness eviction and hedging both on. The barrier, the hedge timer,
//! the liveness monitor, the reader threads and the rejoin loop all run
//! against each other for 40 rounds; what must hold is the round
//! machine's promise seen from outside — every `round_trip` hands back one
//! outcome per job inside its deadline, every slot is counted resolved
//! exactly once, and the deployment tears down.

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use nebula_baselines::DenseDims;
use nebula_core::{DispatchJob, JobResult, JobSpec, TrainParams, Transport};
use nebula_data::Dataset;
use nebula_nn::Layer;
use nebula_serve::worker::{run_worker, WorkerConfig};
use nebula_serve::{Coordinator, Endpoint, NetFaultPlan, ServeConfig, WorkerRunConfig};
use nebula_telemetry::{MemorySink, Telemetry};
use nebula_tensor::Tensor;

const ROUNDS: u64 = 40;
const JOBS: u64 = 6;
const DEADLINE_MS: u64 = 800;

fn dense_job(round: usize, device: u64, params: &[f32]) -> DispatchJob {
    let xs: Vec<f32> = (0..16).map(|i| (i as f32 + device as f32) * 0.125 - 1.0).collect();
    DispatchJob {
        round,
        device,
        spec: JobSpec::Dense {
            input: 4,
            width: 4,
            blocks: 1,
            block_hidden: 4,
            classes: 2,
            ratio: 1.0,
            params: params.to_vec(),
        },
        rng_state: [device + 1, 2, 3, 4],
        train: TrainParams { epochs: 1, batch_size: 2, lr: 0.05 },
        data: Dataset::new(Tensor::from_vec(xs, &[4, 4]), vec![0, 1, 1, 0], 2),
    }
}

#[test]
fn forty_faulty_rounds_resolve_every_job_once_inside_the_deadline() {
    let path = std::env::temp_dir().join(format!("nebula-serve-stress-{}.sock", std::process::id()));
    let telemetry = Telemetry::new(Arc::new(MemorySink::default()));
    let mut cfg = ServeConfig::new(WorkerRunConfig::default());
    cfg.uds = Some(path.clone());
    cfg.deadline_ms = DEADLINE_MS;
    cfg.liveness_timeout_ms = 200;
    cfg.hedge_after_ms = 60;
    cfg.telemetry = telemetry.clone();
    let coordinator = Coordinator::bind(cfg).expect("bind coordinator");

    let workers: Vec<_> = (0..2u64)
        .map(|i| {
            let mut wc = WorkerConfig::new(Endpoint::Uds(path.clone()));
            wc.name = format!("stress-w{i}");
            wc.threads = 2;
            // A session that ends at teardown must not sit out the dial budget.
            wc.connect_attempts = 4;
            // Every session of this worker: results (and pongs) dropped and
            // duplicated at random, and the link goes mute — socket open —
            // after 35 outbound frames, so liveness evicts it again and again.
            wc.chaos = Some(NetFaultPlan {
                drop_prob: 0.08,
                dup_prob: 0.15,
                stall_after: Some(35),
                ..NetFaultPlan::seeded(0x5EED + i)
            });
            thread::spawn(move || run_worker(wc))
        })
        .collect();
    assert!(coordinator.wait_for_workers(2, Duration::from_secs(20)), "workers must register");

    let params =
        DenseDims { input: 4, width: 4, blocks: 1, block_hidden: 4, classes: 2 }.build().param_vector();
    let mut transport = coordinator.transport();
    let (mut ok, mut failed) = (0u64, 0u64);
    for round in 0..ROUNDS as usize {
        // Both workers may be between sessions; a round needs one.
        assert!(coordinator.wait_for_workers(1, Duration::from_secs(20)), "round {round}: nobody rejoined");
        let jobs = (0..JOBS).map(|d| dense_job(round, d, &params)).collect();
        let started = Instant::now();
        let results = transport.round_trip(jobs);
        let took = started.elapsed();
        assert_eq!(results.len() as u64, JOBS, "round {round}: one outcome per job");
        assert!(
            took < Duration::from_millis(DEADLINE_MS + 1_000),
            "round {round} took {took:?} against a {DEADLINE_MS} ms deadline"
        );
        for result in &results {
            match result {
                Ok(JobResult::Params(p)) => {
                    assert_eq!(p.len(), params.len(), "round {round}: a foreign result")
                }
                Ok(JobResult::Frame(_)) => panic!("round {round}: a dense job answered with a frame"),
                Err(_) => {}
            }
        }
        ok += results.iter().filter(|r| r.is_ok()).count() as u64;
        failed += results.iter().filter(|r| r.is_err()).count() as u64;
    }

    let counters = telemetry.metrics().expect("telemetry armed").counters;
    let count = |name: &str| counters.get(name).copied().unwrap_or(0);
    // Every slot is resolved — and counted — exactly once, so the counters
    // agree with what `round_trip` handed back (`ok + failed` is `JOBS ×
    // ROUNDS` by the length checks above). A round that found the registry
    // empty is answered without opening a round: counted once, not per job.
    let unserved = JOBS * count("serve.rounds_unserved");
    assert_eq!(
        (count("serve.results_ok"), count("serve.results_failed") + unserved),
        (ok, failed),
        "{counters:?}"
    );
    assert!(ok > 0, "no job ever came back: {counters:?}");
    assert!(
        count("serve.workers_evicted") + count("serve.jobs_hedged") + count("serve.dup_results") > 0,
        "the fault plan never engaged: {counters:?}"
    );
    println!("stress: {ok} ok, {failed} failed; {counters:?}");

    // Orderly first; then cut whatever a mute link kept from hearing it.
    coordinator.shutdown();
    coordinator.abort();
    for worker in workers {
        // A worker caught mid-stall or mid-rejoin ends with a dial error.
        let _ = worker.join().expect("worker thread");
    }
}
