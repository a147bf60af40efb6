//! `paper-grid`: the Fig. 7 grid — every benchmark × {baseline, cons, isa}
//! as a live timed `Simulator::run`, each program built once in set-up.
//! This is what `all --scale …` and `watchdog-cli run` pay for: about half
//! functional machine plus §5.2 profile pass, half timing model.

use std::time::Instant;

use watchdog_core::{SimConfig, Simulator};
use watchdog_isa::Program;
use watchdog_workloads::BenchSpec;

use crate::goldens::Goldens;
use crate::spans::Tracer;
use crate::workload::{guarded, mode, Options, PassOut, Workload, ISA, MODES, SCALE, SCALE_NAME};

/// Span names of the timed runs, per mode.
pub const TIMED: [&str; 3] = [
    "Simulator::run/timed/baseline",
    "Simulator::run/timed/cons",
    "Simulator::run/timed/isa",
];

/// Span names of the traced run's functional-only split calls, per mode.
pub const FUNCTIONAL: [&str; 3] = [
    "Simulator::run/functional/baseline",
    "Simulator::run/functional/cons",
    "Simulator::run/functional/isa",
];

/// Instruction limit of every simulation (the simulator's default).
pub fn max_insts() -> u64 {
    SimConfig::timed(watchdog_core::Mode::Baseline).max_insts
}

/// Builds each benchmark once, inside a `BenchSpec::build` span.
pub fn build_all(opts: &Options, tr: &Tracer) -> Vec<(BenchSpec, Program)> {
    opts.size
        .benchmarks()
        .into_iter()
        .map(|spec| {
            let p = tr.span("BenchSpec::build", u32::MAX, || spec.build(SCALE));
            (spec, p)
        })
        .collect()
}

/// Warm-up shared by the grid and the sweep: one timed ISA-assisted run of
/// the first program, so lazy allocator and page-cache set-up lands in
/// `setup_s`, not in the first cell.
pub fn warm_up(benches: &[(BenchSpec, Program)], tr: &Tracer) {
    let report = tr.span(TIMED[ISA], u32::MAX, || {
        Simulator::new(SimConfig::timed(mode(ISA))).run(&benches[0].1)
    });
    std::hint::black_box(report.expect("warm-up program simulates"));
}

/// The set-up paper-grid workload.
#[derive(Debug)]
pub struct PaperGrid {
    benches: Vec<(BenchSpec, Program)>,
    goldens: Goldens,
    cycles: Vec<[u64; 3]>,
}

impl PaperGrid {
    /// Builds the programs and warms up.
    pub fn setup(opts: &Options, tr: &Tracer) -> PaperGrid {
        let benches = build_all(opts, tr);
        warm_up(&benches, tr);
        let n = benches.len();
        PaperGrid {
            cycles: vec![[0; 3]; n],
            benches,
            goldens: opts.goldens.clone(),
        }
    }

    /// The golden table after the passes run so far (recorded digests
    /// when set up with [`Goldens::recording`]).
    pub fn into_goldens(self) -> Goldens {
        self.goldens
    }
}

impl Workload for PaperGrid {
    fn pass(&mut self, tr: &Tracer, split: bool) -> PassOut {
        let mut out = PassOut::default();
        let PaperGrid {
            benches,
            goldens,
            cycles,
        } = self;
        for cell in 0..benches.len() * MODES.len() {
            let (b, m) = (cell / MODES.len(), cell % MODES.len());
            let (spec, program) = &benches[b];
            let key = format!("paper-grid/{SCALE_NAME}/{}/{}", spec.name, MODES[m]);
            let id = cell as u32;
            out.cells += 1;
            let t0 = Instant::now();
            let res = tr.span("cell", id, || {
                guarded(|| {
                    let sim_err = |e: watchdog_core::SimError| format!("{key}: {e}");
                    let functional = if split {
                        if m == ISA {
                            tr.span("Simulator::profile", id, || {
                                Simulator::profile(program, max_insts())
                            })
                            .map_err(sim_err)?;
                        }
                        let f = tr.span(FUNCTIONAL[m], id, || {
                            Simulator::new(SimConfig::functional(mode(m))).run(program)
                        });
                        Some(f.map_err(sim_err)?)
                    } else {
                        None
                    };
                    let r = tr
                        .span(TIMED[m], id, || {
                            Simulator::new(SimConfig::timed(mode(m))).run(program)
                        })
                        .map_err(sim_err)?;
                    tr.span("bench.check", id, || {
                        if let Some(v) = r.violation {
                            return Err(format!("{key}: unexpected violation {v}"));
                        }
                        if let Some(f) = &functional {
                            f.agrees_with(&r)
                                .map_err(|e| format!("{key}: functional vs timed: {e}"))?;
                        }
                        goldens.check(&key, &r)
                    })?;
                    Ok(r)
                })
            });
            out.cell_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            match res {
                Ok(r) => {
                    out.sim_insts += r.machine.insts;
                    out.counts.add_report(&r);
                    out.counts.mode_insts[m] += r.machine.insts;
                    if split && m == ISA {
                        out.counts.profile_insts += r.machine.insts;
                    }
                    cycles[b][m] = r.cycles();
                }
                Err(e) => {
                    out.cells_failed += 1;
                    out.failures.push(e);
                    cycles[b][m] = 0;
                }
            }
        }
        out
    }

    fn accuracy(&self) -> String {
        if self.cycles.iter().any(|c| c.contains(&0)) {
            return "Fig. 7 geomean overhead: n/a (a cell failed)".into();
        }
        let over = |m: usize| -> Vec<f64> {
            self.cycles
                .iter()
                .map(|c| c[m] as f64 / c[0] as f64 - 1.0)
                .collect()
        };
        let g = watchdog_core::report::geomean_overhead;
        format!(
            "Fig. 7 geomean overhead over {} benchmarks: cons {:.1}%, isa {:.1}% (paper: 25% / 15%)",
            self.cycles.len(),
            g(&over(1)) * 100.0,
            g(&over(ISA)) * 100.0
        )
    }
}
