//! What the three workloads share: their names and sizes, the per-pass
//! result, the exact work counts read from `RunReport`s, and panic-safe
//! cell execution.

use std::panic::{self, AssertUnwindSafe};

use watchdog_core::{Mode, RunReport};
use watchdog_workloads::{all_benchmarks, BenchSpec, Category, Scale};

use crate::goldens::Goldens;
use crate::spans::Tracer;
use crate::{fuzz, grid, sweep};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Fig. 7 grid: 20 benchmarks × {baseline, cons, isa}, live timed runs.
    PaperGrid,
    /// §4.2/§9.3 LL$ sweep: record once per benchmark, replay at 5 sizes.
    LlSweep,
    /// Generated programs through the differential oracle, plus Juliet.
    FuzzDiff,
}

impl Kind {
    /// Every workload, in reporting order.
    pub const ALL: [Kind; 3] = [Kind::PaperGrid, Kind::LlSweep, Kind::FuzzDiff];

    /// Command-line and metric-prefix name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::PaperGrid => "paper-grid",
            Kind::LlSweep => "ll-sweep",
            Kind::FuzzDiff => "fuzz-diff",
        }
    }

    /// Span workload tag of this workload's set-up phase.
    pub fn setup_tag(self) -> &'static str {
        match self {
            Kind::PaperGrid => "paper-grid/setup",
            Kind::LlSweep => "ll-sweep/setup",
            Kind::FuzzDiff => "fuzz-diff/setup",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// Scale every grid and sweep program is built at. `Scale::Test` keeps a
/// grid pass at 1.7–3.4 s, so a 60 s run holds 17–35 passes for the
/// medians in [`crate::run::untraced`]; at `Scale::Small` (~6 s passes) a
/// run holds only a handful.
pub const SCALE: Scale = Scale::Test;

/// Golden-key name of [`SCALE`].
pub const SCALE_NAME: &str = "test";

/// Workload size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// All twenty benchmarks, 1000 fuzz seeds and 291 Juliet cases per
    /// pass: what the benchmark measures.
    Full,
    /// One benchmark per category and a few seeds and Juliet cases: the
    /// benchmark's own tests.
    Tiny,
}

impl Size {
    /// The benchmarks simulated: all twenty (Fp, Int and Pointer
    /// categories), or the first of each category.
    pub fn benchmarks(self) -> Vec<BenchSpec> {
        let all = all_benchmarks();
        match self {
            Size::Full => all,
            Size::Tiny => [Category::Fp, Category::Int, Category::Pointer]
                .iter()
                .filter_map(|c| all.iter().find(|b| b.category == *c).copied())
                .collect(),
        }
    }
}

/// The three timed configurations of the Fig. 7 grid.
pub const MODES: [&str; 3] = ["baseline", "cons", "isa"];

/// Index of the ISA-assisted mode in [`MODES`].
pub const ISA: usize = 2;

/// The simulator mode of `MODES[m]`.
pub fn mode(m: usize) -> Mode {
    [
        Mode::Baseline,
        Mode::watchdog_conservative(),
        Mode::watchdog(),
    ][m]
}

/// Everything a workload is built from.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload size.
    pub size: Size,
    /// Input seed: picks the fuzz-diff seed range. The grid and sweep run
    /// the fixed benchmark set in figure order.
    pub seed: u64,
    /// Golden digests the paper-grid and ll-sweep cells are checked against.
    pub goldens: Goldens,
}

/// Exact, rerun-identical work counts of one pass, read from `RunReport`s
/// and the layer calls' results.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Guest instructions committed by the timed or replayed simulations.
    pub guest_insts: u64,
    /// µops through the timing core.
    pub uops: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// L1D demand `(accesses, misses)`.
    pub l1d: (u64, u64),
    /// Lock-location cache `(accesses, misses)`.
    pub ll: (u64, u64),
    /// Data TLB `(accesses, misses)`.
    pub dtlb: (u64, u64),
    /// Crack cache `(hits, hits + misses)`.
    pub crack: (u64, u64),
    /// Paper-grid: guest instructions per mode of [`MODES`].
    pub mode_insts: [u64; 3],
    /// Instructions covered by the separate `Simulator::profile` calls.
    pub profile_insts: u64,
    /// Serialized trace bytes.
    pub trace_bytes: u64,
    /// Recorded trace events (one per committed instruction).
    pub trace_events: u64,
    /// Fuzz seeds checked.
    pub seeds: u64,
    /// Simulations the fuzz seeds ran.
    pub sims: u64,
}

impl Counts {
    /// Adds one timed or replayed report.
    pub fn add_report(&mut self, r: &RunReport) {
        self.guest_insts += r.machine.insts;
        if let Some(t) = &r.timing {
            self.uops += t.uops;
            self.cycles += t.cycles;
            let h = &t.hierarchy;
            self.l1d.0 += h.l1d.accesses;
            self.l1d.1 += h.l1d.misses;
            self.ll.0 += h.ll.accesses;
            self.ll.1 += h.ll.misses;
            self.dtlb.0 += h.dtlb.0;
            self.dtlb.1 += h.dtlb.1;
        }
        if let Some(c) = &r.crack_cache {
            self.crack.0 += c.hits;
            self.crack.1 += c.hits + c.misses;
        }
    }
}

/// What one pass over a workload produced.
#[derive(Debug, Clone, Default)]
pub struct PassOut {
    /// Host ms of each cell that ran.
    pub cell_ms: Vec<f64>,
    /// Cells attempted (including ones that never started because a
    /// shared step before them failed).
    pub cells: usize,
    /// Cells that errored, panicked or failed their output check.
    pub cells_failed: usize,
    /// Checks outside cells (Juliet cases).
    pub checks: usize,
    /// Checks that failed.
    pub checks_failed: usize,
    /// Guest instructions committed by timed or replayed simulations.
    pub sim_insts: u64,
    /// Failure messages.
    pub failures: Vec<String>,
    /// Exact work counts.
    pub counts: Counts,
}

/// A workload after set-up.
pub trait Workload {
    /// Runs every cell once. `split` adds the profile-only and
    /// functional-only calls whose cost the traced run reports.
    fn pass(&mut self, tr: &Tracer, split: bool) -> PassOut;

    /// Model-accuracy line from the last pass (printed, never gated).
    fn accuracy(&self) -> String;
}

/// Builds `kind`'s inputs and warms up: the set-up that `setup_s` times.
pub fn setup(kind: Kind, opts: &Options, tr: &Tracer) -> Box<dyn Workload> {
    match kind {
        Kind::PaperGrid => Box::new(grid::PaperGrid::setup(opts, tr)),
        Kind::LlSweep => Box::new(sweep::LlSweep::setup(opts, tr)),
        Kind::FuzzDiff => Box::new(fuzz::FuzzDiff::setup(opts, tr)),
    }
}

/// Runs a cell body, turning a panic into the cell's error.
pub fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    panic::catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("non-string panic payload");
        Err(format!("panicked: {msg}"))
    })
}
