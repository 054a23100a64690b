//! The experiments `campaign` runs: one module per table, figure or
//! sweep, each a function from a [`Ctx`](crate::Ctx) to its rows. A name
//! is the stem of the experiment's `results/<name>.jsonl`.

mod ablations;
mod chaos;
mod fault_sweep;
mod fig1;
mod fig10_fig11;
mod fig12;
mod fig13;
mod fig2;
mod fig7;
mod fig8_fig9;
mod poison_sweep;
mod scale_sweep;
mod serve_chaos;
mod table1;

use crate::Experiment;

/// Every experiment, in the order `campaign` runs them.
pub const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("table1", table1::run),
    ("fig1", fig1::run),
    ("fig2", fig2::run),
    ("fig7", fig7::run),
    ("fig8_fig9", fig8_fig9::run),
    ("fig10_fig11", fig10_fig11::run),
    ("fig12", fig12::run),
    ("fig13", fig13::run),
    ("ablations", ablations::run),
    ("fault_sweep", fault_sweep::run),
    ("poison_sweep", poison_sweep::run),
    ("scale_sweep", scale_sweep::run),
    ("chaos", chaos::run),
    ("serve_chaos", serve_chaos::run),
];
