//! `nebula_benchmark check`: is the benchmark measuring the real
//! computation, and does every workload produce correct outputs?

use nebula_nn::Layer;
use nebula_sim::{AdaptStrategy, NebulaStrategy};
use nebula_tensor::NebulaRng;

use crate::deploy::Scratch;
use crate::ledger::{NebulaDriver, RoundDriver};
use crate::run::{pass, Observe};
use crate::stats::same_bits;
use crate::trace::Tracer;
use crate::workloads::{find, WORKLOADS};

/// (a) The ledger's round driver and `NebulaStrategy::single_round` land
/// on the same parameters after 3 `Raw` fault-free rounds from one seed.
fn ledger_matches_single_round(seed: u64) -> Result<(), String> {
    let w = find("c10_sim").expect("c10_sim is a workload");
    let cfg = w.strategy_config();
    let mut world = w.world(false);
    let mut rng = NebulaRng::seed(seed);
    let mut real = NebulaStrategy::new(cfg.clone(), seed);
    real.offline(&mut world, &mut rng);
    let params = real.cloud().model().param_vector();

    let mut ledger_world = w.world(false);
    ledger_world.restore_rng_state(world.rng_state()).expect("a live world's rng state is valid");
    let mut ledger_rng = NebulaRng::from_state(rng.state()).expect("a live rng's state is valid");
    // No tracked cohort: the driver's step is then one collaborative round.
    let mut driver = NebulaDriver::new(cfg, seed, &params, Vec::new(), None, None);
    let mut tracer = Tracer::new();
    for _ in 0..3 {
        real.single_round(&mut world, &mut rng);
        driver.step(&mut ledger_world, &mut ledger_rng, &mut tracer);
    }
    if same_bits(&real.cloud().model().param_vector(), &driver.params()) {
        Ok(())
    } else {
        Err("the ledger's round driver diverged from NebulaStrategy::single_round".to_string())
    }
}

/// (b) `har_serve` — socket deployment, authenticated frames, journal —
/// lands on the parameters of the same configuration run in-process.
fn served_matches_in_process(seed: u64, scratch: &Scratch) -> Result<(), String> {
    let w = find("har_serve").expect("har_serve is a workload");
    let dir = scratch.sub("check-served").map_err(|e| e.to_string())?;
    let served = pass(w, seed, 5, &dir, Observe::default());
    let in_process = pass(w, seed, 5, &dir, Observe { in_process: true, ..Observe::default() });
    if same_bits(&served.params, &in_process.params) && served.outcome.stats == in_process.outcome.stats {
        Ok(())
    } else {
        Err("har_serve's deployment diverged from the same configuration in-process".to_string())
    }
}

pub fn check(seed: u64, scratch: &Scratch) -> bool {
    let mut ok = true;
    let mut report = |what: &str, result: Result<(), String>| match result {
        Ok(()) => println!("check ok      {what}"),
        Err(why) => {
            eprintln!("check FAILED  {what}: {why}");
            ok = false;
        }
    };
    report("(a) ledger driver == single_round, 3 Raw rounds", ledger_matches_single_round(seed));
    report("(b) har_serve deployment == in-process, 5 rounds", served_matches_in_process(seed, scratch));
    // (c) finite parameters and the accuracy floor, (d) no lost job on a
    // fault-free workload and 25 jobs sampled per round: the checks every
    // run performs inline.
    for w in &WORKLOADS {
        let run = crate::run::run(w, seed, 4, scratch);
        let result = if run.correct { Ok(()) } else { Err("output checks failed (see above)".to_string()) };
        report(&format!("(c, d) {} outputs", w.name), result);
    }
    ok
}
