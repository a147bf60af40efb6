//! `fuzz-diff`: `gen::generate` + `gen::check_generated` over a contiguous
//! seed range, then the 291 Juliet cases in ISA-assisted mode. Generated
//! programs average about 45 instructions and about 11 simulations per
//! seed, so per-simulation set-up dominates: work moved into or out of
//! simulator set-up shows here and nowhere else.

use std::time::Instant;

use watchdog_core::{SimConfig, Simulator};
use watchdog_gen::{check_generated, generate, GenConfig};
use watchdog_isa::{Program, ProgramBuilder};
use watchdog_workloads::juliet::SUITE_SIZE;
use watchdog_workloads::{benign_suite_prefix, juliet_suite_prefix, JulietCase};

use crate::spans::Tracer;
use crate::workload::{guarded, mode, Options, PassOut, Size, Workload, ISA};

/// Timed simulations per seed (baseline, cons, isa): the guest
/// instructions `sim_minsts_per_s` counts are these runs' instructions,
/// taken as the conservative run's count (the baseline run, which never
/// stops at a violation, may commit a few more).
pub const TIMED_RUNS_PER_SEED: u64 = 3;

/// Spans of the traced run's per-simulation set-up probe.
pub const PROBE_TIMED: &str = "probe/Simulator::run/timed";
/// See [`PROBE_TIMED`].
pub const PROBE_FUNCTIONAL: &str = "probe/Simulator::run/functional";

/// Runs of the one-instruction program per probe flavour.
pub const PROBE_RUNS: u32 = 200;

/// Seeds checked during warm-up (they are checked again when measured).
const WARMUP_SEEDS: u64 = 48;

/// Seeds per pass (the same seeds every pass) and Juliet cases per pass,
/// by size.
fn sizes(size: Size) -> (u64, usize) {
    match size {
        Size::Full => (1000, SUITE_SIZE),
        Size::Tiny => (12, 12),
    }
}

/// The set-up fuzz-diff workload.
#[derive(Debug)]
pub struct FuzzDiff {
    cfg: GenConfig,
    first_seed: u64,
    per_pass: u64,
    juliet: Vec<(JulietCase, JulietCase)>,
    probe: Program,
    /// Last pass: (oracle mismatches, seeds, Juliet detected, Juliet false
    /// positives).
    last: (usize, usize, usize, usize),
}

impl FuzzDiff {
    /// Fixes the seed range, builds the Juliet suite and the probe program,
    /// warms up on the first seeds of the range.
    pub fn setup(opts: &Options, tr: &Tracer) -> FuzzDiff {
        let (per_pass, cases) = sizes(opts.size);
        let cfg = GenConfig::default();
        // Every pass checks the same contiguous seed range; benchmark seeds
        // pick disjoint ranges.
        let start = opts.seed.wrapping_mul(1_000_000_000);
        let bad = tr.span("juliet::build", u32::MAX, || juliet_suite_prefix(cases));
        let good = tr.span("juliet::build", u32::MAX, || benign_suite_prefix(cases));
        let probe = tr.span("ProgramBuilder::build", u32::MAX, || {
            let mut b = ProgramBuilder::new("one-instruction");
            b.halt();
            b.build().expect("a lone halt is a valid program")
        });
        for seed in start..start + WARMUP_SEEDS {
            let g = tr.span("gen::generate", u32::MAX, || generate(seed, &cfg));
            let r = tr.span("gen::check_generated", u32::MAX, || check_generated(&g));
            std::hint::black_box(r.is_ok());
        }
        FuzzDiff {
            cfg,
            first_seed: start,
            per_pass,
            juliet: bad.into_iter().zip(good).collect(),
            probe,
            last: (0, 0, 0, 0),
        }
    }

    /// Mean host µs of a one-instruction `Simulator::run` under `cfg`.
    fn probe(&self, tr: &Tracer, name: &'static str, cfg: SimConfig) -> Result<(), String> {
        let sim = Simulator::new(cfg);
        for i in 0..PROBE_RUNS {
            tr.span(name, i, || sim.run(&self.probe))
                .map_err(|e| format!("probe {name}: {e}"))?;
        }
        Ok(())
    }
}

impl Workload for FuzzDiff {
    fn pass(&mut self, tr: &Tracer, split: bool) -> PassOut {
        let mut out = PassOut::default();
        let first = self.first_seed;
        for seed in first..first + self.per_pass {
            let id = (seed - first) as u32;
            out.cells += 1;
            let t0 = Instant::now();
            let res = tr.span("cell", id, || {
                guarded(|| {
                    let g = tr.span("gen::generate", id, || generate(seed, &self.cfg));
                    tr.span("gen::check_generated", id, || check_generated(&g))
                        .map_err(|f| f.to_string())
                })
            });
            out.cell_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            match res {
                Ok(o) => {
                    out.sim_insts += TIMED_RUNS_PER_SEED * o.insts;
                    out.counts.guest_insts += o.insts;
                    out.counts.seeds += 1;
                    out.counts.sims += o.runs as u64;
                }
                Err(e) => {
                    out.cells_failed += 1;
                    out.failures.push(e);
                }
            }
        }

        let sim = Simulator::new(SimConfig::functional(mode(ISA)));
        let (mut detected, mut false_pos) = (0, 0);
        for (i, (bad, good)) in self.juliet.iter().enumerate() {
            let id = i as u32;
            out.checks += 1;
            let res = guarded(|| {
                let run = |p: &Program| {
                    tr.span("Simulator::run/functional/isa", id, || sim.run(p))
                        .map(|r| r.violation_kind())
                        .map_err(|e| format!("juliet {}: {e}", bad.name))
                };
                Ok((run(&bad.program)?, run(&good.program)?))
            });
            match res {
                Ok((d, fp)) if d == bad.expected && fp.is_none() => detected += 1,
                Ok((d, fp)) => {
                    detected += usize::from(d == bad.expected);
                    false_pos += usize::from(fp.is_some());
                    out.checks_failed += 1;
                    out.failures.push(format!(
                        "juliet {}: expected {:?}, detected {d:?}, benign twin {fp:?}",
                        bad.name, bad.expected
                    ));
                }
                Err(e) => {
                    out.checks_failed += 1;
                    out.failures.push(e);
                }
            }
        }
        self.last = (out.cells_failed, out.cells, detected, false_pos);

        if split {
            for (name, cfg) in [
                (PROBE_TIMED, SimConfig::timed(mode(ISA))),
                (PROBE_FUNCTIONAL, SimConfig::functional(mode(ISA))),
            ] {
                if let Err(e) = self.probe(tr, name, cfg) {
                    out.checks_failed += 1;
                    out.failures.push(e);
                }
            }
        }
        out
    }

    fn accuracy(&self) -> String {
        let (mismatches, seeds, detected, false_pos) = self.last;
        let cases = self.juliet.len();
        format!(
            "oracle mismatches {mismatches}/{seeds} seeds; Juliet (isa) detected {detected}/{cases}, \
             false positives {false_pos}/{cases} (paper: 291/291, 0)"
        )
    }
}
