//! End-to-end benchmark of the Watchdog simulator.
//!
//! Three workloads, each closed-loop on one worker thread, each loading a
//! different layer the paper's mechanisms stress:
//!
//! * [`grid`] (`paper-grid`) — the Fig. 7 grid of live timed simulations:
//!   functional machine, §5.2 profile pass and timing model.
//! * [`sweep`] (`ll-sweep`) — the §4.2 LL$ sweep by trace record + replay:
//!   mostly the timing model, plus trace encode/decode.
//! * [`fuzz`] (`fuzz-diff`) — generated programs through the differential
//!   oracle plus Juliet: per-simulation set-up.
//!
//! Every output is checked: paper-grid and ll-sweep reports against the
//! golden digests in `goldens.txt` ([`goldens`]), fuzz seeds against the
//! generator's oracle, Juliet against its expected verdicts. [`run`] holds
//! the untraced run (end-to-end metrics) and the traced run (per-layer
//! metrics from [`spans`]).

pub mod fuzz;
pub mod goldens;
pub mod grid;
pub mod host;
pub mod run;
pub mod spans;
pub mod stats;
pub mod sweep;
pub mod workload;
