//! The benchmark's two runs and the metrics they report.
//!
//! * [`untraced`] runs one workload with tracing off and reports the
//!   end-to-end metrics: closed-loop passes on one thread while another
//!   fits in the time, each on a fresh set-up and timing every cell once.
//! * [`traced`] sets up and runs all three workloads with spans on, plus
//!   the profile-only and functional-only split calls, and derives the
//!   per-layer metrics from span self times and exact work counts.

use std::time::Instant;

use watchdog_telemetry::JsonValue;

use crate::fuzz::{PROBE_FUNCTIONAL, PROBE_TIMED};
use crate::goldens::Goldens;
use crate::grid::{self, FUNCTIONAL, TIMED};
use crate::host::{self, Fingerprint, Usage};
use crate::spans::{self, NameTotals, Span, Tracer, STRUCTURAL};
use crate::stats::{median, tail, Tail};
use crate::sweep;
use crate::workload::{
    setup, Counts, Kind, Options, PassOut, Size, Workload, ISA, MODES, SCALE_NAME,
};

/// Fewest set-ups per untraced run (one precedes every pass, and more are
/// added to reach this); `setup_s` is the median of them.
pub const SETUP_REPS: usize = 7;

/// Failure messages printed per run.
const MAX_FAILURE_LINES: usize = 20;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// What a run reports.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// Cells and checks attempted.
    pub attempted: usize,
    /// Cells and checks failed.
    pub failed: usize,
    /// The metrics, in reporting order.
    pub metrics: Vec<Metric>,
    /// Recorded spans (traced run only).
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Whether every cell and check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                let entry = vec![
                    ("value".to_string(), JsonValue::Num(v)),
                    ("unit".to_string(), JsonValue::str(m.unit)),
                ];
                (m.name.clone(), JsonValue::Obj(entry))
            })
            .collect();
        JsonValue::Obj(vec![
            ("correct".into(), JsonValue::Bool(self.correct())),
            ("attempted".into(), JsonValue::Int(self.attempted as u64)),
            ("failed".into(), JsonValue::Int(self.failed as u64)),
            ("metrics".into(), JsonValue::Obj(metrics)),
        ])
        .render()
    }

    fn metric(&mut self, name: String, unit: &'static str, value: f64) {
        self.notes.push(format!("{name} = {value} {unit}"));
        self.metrics.push(Metric { name, unit, value });
    }

    fn tally(&mut self, out: &PassOut) {
        self.attempted += out.cells + out.checks;
        self.failed += out.cells_failed + out.checks_failed;
        let room = MAX_FAILURE_LINES.saturating_sub(self.failures_noted());
        self.notes
            .extend(out.failures.iter().take(room).map(|f| format!("FAIL {f}")));
    }

    fn failures_noted(&self) -> usize {
        self.notes.iter().filter(|n| n.starts_with("FAIL ")).count()
    }
}

fn header(what: &str, opts: &Options, seconds: f64, fp: &Fingerprint) -> Vec<String> {
    vec![
        format!(
            "simbench {what} seed={} seconds={seconds} size={:?} scale={SCALE_NAME} threads=1 \
             malloc_mmap_threshold={}",
            opts.seed,
            opts.size,
            host::MMAP_THRESHOLD,
        ),
        format!("host {fp}"),
    ]
}

fn cpu_note(phase: &str, u: &Usage) -> String {
    format!(
        "host {phase}: user_cpu_s={:.3} sys_cpu_s={:.3} sys_cpu_share={:.3} minor_faults={}",
        u.user_s,
        u.sys_s,
        u.sys_share(),
        u.minor_faults
    )
}

/// Tracing-off run of one workload: the end-to-end metrics.
///
/// Every pass runs the same cells on a fresh set-up. `wall_s` is the
/// median pass wall time, `cell_ms_p50` the median of every cell of every
/// pass, `cell_ms_tail` the median over passes of each pass's tail,
/// `setup_s` the median of the run's set-ups, and `peak_rss_mb` the peak
/// resident memory after the first set-up and pass. Set-up + pass rounds
/// rotate over the allowed CPUs: on a shared 2-vCPU Xeon KVM guest,
/// neighbouring tenants slowed one vCPU at a time by up to 2× for
/// minutes, and without pinning a run stays on one vCPU, so one slow vCPU
/// would decide a whole run.
pub fn untraced(kind: Kind, opts: &Options, seconds: f64) -> Outcome {
    let fp = Fingerprint::capture();
    let mut res = Outcome {
        notes: header(kind.name(), opts, seconds, &fp),
        ..Outcome::default()
    };
    let tr = Tracer::off();
    let mut setup_s = Vec::new();
    let set_up = |setup_s: &mut Vec<f64>| {
        let t0 = Instant::now();
        let w = setup(kind, opts, &tr);
        setup_s.push(t0.elapsed().as_secs_f64());
        w
    };

    // Each pass runs on a fresh set-up, so the set-ups are spread over the
    // run like the passes are. Successive set-up + pass rounds rotate over
    // the CPUs the thread may use (still one thread): neighbours slowed
    // one vCPU at a time, and without pinning a run stays on one.
    let cpus = host::allowed_cpus();
    let pin_next = |round: usize| host::pin_to_cpu(cpus[round % cpus.len()]);
    let u0 = host::usage();
    let t_run = Instant::now();
    let mut passes: Vec<PassOut> = Vec::new();
    let mut walls: Vec<f64> = Vec::new();
    // Read after the first pass: later passes only add the run's own
    // records, whose size grows with the number of passes that fit.
    let mut peak_rss = 0.0;
    let w = loop {
        pin_next(passes.len());
        let mut w = set_up(&mut setup_s);
        let t0 = Instant::now();
        passes.push(w.pass(&tr, false));
        let wall = t0.elapsed().as_secs_f64();
        walls.push(wall);
        if passes.len() == 1 {
            peak_rss = host::peak_rss_mib();
        }
        // Stop before a pass that would end past the deadline.
        if t_run.elapsed().as_secs_f64() + wall > seconds {
            break w;
        }
    };
    let cpu = host::usage().since(&u0);
    while setup_s.len() < SETUP_REPS {
        pin_next(setup_s.len());
        drop(set_up(&mut setup_s));
    }
    res.notes.push(cpu_note("measured phase", &cpu));
    for out in &passes {
        res.tally(out);
    }
    let sum = |f: fn(&PassOut) -> usize| passes.iter().map(f).sum::<usize>();
    res.notes.push(format!(
        "passes={} cells_attempted={} cells_failed={} checks_attempted={} checks_failed={}",
        passes.len(),
        sum(|o| o.cells),
        sum(|o| o.cells_failed),
        sum(|o| o.checks),
        sum(|o| o.checks_failed),
    ));
    res.notes.push(format!("pass wall times, s: {walls:.3?}"));
    for (i, cpu) in cpus.iter().enumerate().take(passes.len()) {
        let on_cpu: Vec<f64> = walls.iter().copied().skip(i).step_by(cpus.len()).collect();
        res.notes.push(format!(
            "cpu {cpu}: {} passes, median pass wall {:.3} s",
            on_cpu.len(),
            median(&on_cpu)
        ));
    }

    let cells: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.cell_ms.iter().copied())
        .collect();
    let tails: Vec<Tail> = passes.iter().filter_map(|p| tail(&p.cell_ms)).collect();
    let wall = median(&walls);
    let per_pass = |f: fn(&PassOut) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let insts = per_pass(|o| o.sim_insts as f64);
    let completed = per_pass(|o| (o.cells - o.cells_failed) as f64);
    res.metric("wall_s".into(), "s", wall);
    res.metric("sim_minsts_per_s".into(), "Minst/s", insts / wall / 1e6);
    res.metric("cells_per_s".into(), "cells/s", completed / wall);
    res.metric("cell_ms_p50".into(), "ms", median(&cells));
    let tail_ms = median(&tails.iter().map(|t| t.value).collect::<Vec<_>>());
    res.metric("cell_ms_tail".into(), "ms", tail_ms);
    res.metric("setup_s".into(), "s", median(&setup_s));
    res.metric("peak_rss_mb".into(), "MiB", peak_rss);

    if let Some(t) = tails.first() {
        res.notes.push(format!(
            "cell_ms_tail is the median over {} passes of each pass's p{:.2} cell time \
             ({} of {} cells beyond it)",
            tails.len(),
            t.percentile,
            t.beyond,
            t.samples
        ));
    }
    res.notes.push(format!(
        "setup_s is the median of {} set-ups: {setup_s:.4?} s",
        setup_s.len()
    ));
    res.notes.push(format!(
        "peak resident memory at the end of the run: {:.3} MiB",
        host::peak_rss_mib()
    ));
    res.notes.push(format!(
        "model accuracy (model unvalidated against hardware; printed, not gated): {}",
        w.accuracy()
    ));
    res
}

/// Per-workload record of the traced run.
struct Traced {
    kind: Kind,
    work: Box<dyn Workload>,
    passes: Vec<PassOut>,
    cpu: Usage,
}

/// Tracing-on run of every workload: the per-layer metrics. Runs rounds of
/// one pass per workload while another round fits in `seconds` (at least
/// one round).
pub fn traced(opts: &Options, seconds: f64) -> Outcome {
    let fp = Fingerprint::capture();
    let mut res = Outcome {
        notes: header("traced (all workloads)", opts, seconds, &fp),
        ..Outcome::default()
    };
    let tr = Tracer::on();
    let ns_per_span = Tracer::overhead_ns_per_span();
    let u0 = host::usage();
    let mut runs: Vec<Traced> = Kind::ALL
        .iter()
        .map(|&kind| {
            tr.set_workload(kind.setup_tag());
            let work = tr.span("setup", u32::MAX, || setup(kind, opts, &tr));
            Traced {
                kind,
                work,
                passes: Vec::new(),
                cpu: Usage::default(),
            }
        })
        .collect();
    let t_run = Instant::now();
    for round in 0u32.. {
        let t_round = Instant::now();
        for r in runs.iter_mut() {
            tr.set_workload(r.kind.name());
            let u0 = host::usage();
            let out = tr.span("pass", round, || r.work.pass(&tr, true));
            let du = host::usage().since(&u0);
            r.cpu.user_s += du.user_s;
            r.cpu.sys_s += du.sys_s;
            r.cpu.minor_faults += du.minor_faults;
            res.tally(&out);
            r.passes.push(out);
        }
        // Stop before a round that would end past the deadline.
        if t_run.elapsed().as_secs_f64() + t_round.elapsed().as_secs_f64() > seconds {
            break;
        }
    }
    res.notes
        .push(cpu_note("traced run", &host::usage().since(&u0)));
    res.spans = tr.spans();
    let totals = spans::totals(&res.spans);
    let empty = Default::default();
    for r in &runs {
        let pass_t = totals.get(r.kind.name()).unwrap_or(&empty);
        let setup_t = totals.get(r.kind.setup_tag()).unwrap_or(&empty);
        layer_metrics(&mut res, r, pass_t, setup_t, ns_per_span);
        res.notes.push(format!(
            "{}: model accuracy (unvalidated against hardware; not gated): {}",
            r.kind.name(),
            r.work.accuracy()
        ));
    }
    res
}

/// Mean over passes of an exact work count.
fn mean_count(passes: &[PassOut], f: impl Fn(&Counts) -> u64) -> f64 {
    passes.iter().map(|o| f(&o.counts)).sum::<u64>() as f64 / passes.len().max(1) as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

type NameMap = std::collections::BTreeMap<&'static str, NameTotals>;

/// The calls that exist only in the traced run, per workload.
fn split_calls(kind: Kind) -> Vec<&'static str> {
    match kind {
        Kind::PaperGrid => std::iter::once("Simulator::profile")
            .chain(FUNCTIONAL)
            .collect(),
        Kind::LlSweep => vec!["Simulator::profile"],
        Kind::FuzzDiff => vec![PROBE_TIMED, PROBE_FUNCTIONAL],
    }
}

fn layer_metrics(
    res: &mut Outcome,
    r: &Traced,
    pass_t: &NameMap,
    setup_t: &NameMap,
    ns_per_span: f64,
) {
    let w = r.kind.name();
    let n = r.passes.len().max(1) as f64;
    // Per-pass seconds of a span name's total duration.
    let s = |name: &str| pass_t.get(name).map_or(0, |t| t.total_ns) as f64 / 1e9 / n;
    let c = |f: &dyn Fn(&Counts) -> u64| mean_count(&r.passes, f);
    let mut put = |name: &str, unit: &'static str, value: f64| {
        res.metrics.push(Metric {
            name: format!("{w}.{name}"),
            unit,
            value,
        });
    };

    let wall = s("pass");
    put("wall_s", "s", wall);
    let harness_ns: u64 = STRUCTURAL
        .iter()
        .flat_map(|name| [pass_t.get(name), setup_t.get(name)])
        .flatten()
        .map(|t| t.self_ns)
        .sum();
    let root_ns = pass_t.get("pass").map_or(0, |t| t.total_ns)
        + setup_t.get("setup").map_or(0, |t| t.total_ns);
    put(
        "spans.coverage",
        "ratio",
        1.0 - ratio(harness_ns as f64, root_ns as f64),
    );
    let spans_per_pass = pass_t.values().map(|t| t.count).sum::<u64>() as f64 / n;
    let overhead = spans_per_pass * ns_per_span / 1e9;
    put("spans.overhead_s", "s", overhead);
    put("spans.overhead_share", "ratio", ratio(overhead, wall));
    let split: f64 = split_calls(r.kind).iter().map(|name| s(name)).sum();
    put("split.cost_s", "s", split);
    put("split.cost_share", "ratio", ratio(split, wall));
    put("host.user_cpu_s", "s", r.cpu.user_s / n);
    put("host.sys_cpu_s", "s", r.cpu.sys_s / n);
    put("host.sys_cpu_share", "ratio", r.cpu.sys_share());
    put("host.minor_faults", "count", r.cpu.minor_faults as f64 / n);

    let build_s = setup_t.get("BenchSpec::build").map_or(0, |t| t.total_ns) as f64 / 1e9;
    let profile = s("Simulator::profile");
    match r.kind {
        Kind::PaperGrid => {
            put("workloads.build_s", "s", build_s);
            put("core.profile_s", "s", profile);
            put(
                "core.profile_ns_per_inst",
                "ns/inst",
                ratio(profile * 1e9, c(&|k| k.profile_insts)),
            );
            let mut timing_total = 0.0;
            for (m, label) in MODES.iter().enumerate() {
                let functional = s(FUNCTIONAL[m]) - if m == ISA { profile } else { 0.0 };
                let timing = s(TIMED[m]) - s(FUNCTIONAL[m]);
                timing_total += timing;
                put(&format!("core.functional_s.{label}"), "s", functional);
                put(
                    &format!("core.functional_ns_per_inst.{label}"),
                    "ns/inst",
                    ratio(functional * 1e9, c(&|k| k.mode_insts[m])),
                );
                put(&format!("pipeline.timing_s.{label}"), "s", timing);
            }
            put(
                "pipeline.ns_per_uop",
                "ns/uop",
                ratio(timing_total * 1e9, c(&|k| k.uops)),
            );
            count_metrics(&mut put, &c);
        }
        Kind::LlSweep => {
            put("workloads.build_s", "s", build_s);
            put("core.profile_s", "s", profile);
            put(
                "core.profile_ns_per_inst",
                "ns/inst",
                ratio(profile * 1e9, c(&|k| k.profile_insts)),
            );
            put("trace.record_s", "s", s("trace::record"));
            put("trace.encode_s", "s", s("Trace::to_bytes"));
            put("trace.decode_s", "s", s("Trace::from_bytes"));
            let replay = s("trace::replay");
            put("trace.replay_s", "s", replay);
            put(
                "trace.replay_ns_per_inst",
                "ns/inst",
                ratio(replay * 1e9, c(&|k| k.guest_insts)),
            );
            put(
                "trace.bytes_per_inst",
                "B/inst",
                ratio(c(&|k| k.trace_bytes), c(&|k| k.trace_events)),
            );
            count_metrics(&mut put, &c);
        }
        Kind::FuzzDiff => {
            put("gen.generate_s", "s", s("gen::generate"));
            put("gen.check_s", "s", s("gen::check_generated"));
            put(
                "gen.sims_per_seed",
                "sims/seed",
                ratio(c(&|k| k.sims), c(&|k| k.seeds)),
            );
            let mean_us = |name: &str| {
                pass_t
                    .get(name)
                    .map_or(0.0, |t| ratio(t.total_ns as f64 / 1e3, t.count as f64))
            };
            put("core.sim_setup_us.timed", "us", mean_us(PROBE_TIMED));
            put(
                "core.sim_setup_us.functional",
                "us",
                mean_us(PROBE_FUNCTIONAL),
            );
            put("core.juliet_s", "s", s("Simulator::run/functional/isa"));
            put("core.guest_insts", "count", c(&|k| k.guest_insts));
        }
    }

    res.notes.push(format!(
        "{w}: spans cover {:.2}% of the traced wall time; per pass: wall {wall:.3} s, \
         split calls {split:.3} s, tracing overhead {overhead:.6} s ({ns_per_span:.0} ns/span)",
        100.0 * (1.0 - ratio(harness_ns as f64, root_ns as f64))
    ));
    let mut by_self: Vec<_> = pass_t.iter().collect();
    by_self.sort_by_key(|(_, t)| std::cmp::Reverse(t.self_ns));
    for (name, t) in by_self {
        res.notes.push(format!(
            "{w}: self {:>10.4} s/pass  total {:>10.4} s/pass  calls {:>8}/pass  {name}",
            t.self_ns as f64 / 1e9 / n,
            t.total_ns as f64 / 1e9 / n,
            t.count as f64 / n
        ));
    }
}

/// Mean over passes of a [`Counts`] field.
type MeanCount<'a> = dyn Fn(&dyn Fn(&Counts) -> u64) -> f64 + 'a;

/// The exact `RunReport` work counts shared by the grid and the sweep.
fn count_metrics(put: &mut impl FnMut(&str, &'static str, f64), c: &MeanCount) {
    put("core.guest_insts", "count", c(&|k| k.guest_insts));
    put("pipeline.uops", "count", c(&|k| k.uops));
    put("pipeline.cycles", "count", c(&|k| k.cycles));
    for (name, f) in [
        ("l1d", (|k: &Counts| k.l1d) as fn(&Counts) -> (u64, u64)),
        ("ll", |k| k.ll),
        ("dtlb", |k| k.dtlb),
    ] {
        let (acc, miss) = (c(&|k| f(k).0), c(&|k| f(k).1));
        put(&format!("mem.{name}_accesses"), "count", acc);
        put(&format!("mem.{name}_misses"), "count", miss);
        put(
            &format!("mem.{name}_hit_ratio"),
            "ratio",
            ratio(acc - miss, acc),
        );
    }
    let (hits, lookups) = (c(&|k| k.crack.0), c(&|k| k.crack.1));
    put("isa.crack_hits", "count", hits);
    put("isa.crack_misses", "count", lookups - hits);
    put("isa.crack_hit_ratio", "ratio", ratio(hits, lookups));
}

/// Re-records every paper-grid and ll-sweep golden digest.
///
/// # Errors
///
/// Any cell failure (a simulator error or unexpected violation), or an
/// ll-sweep Table 2 replay that differs from the live report.
pub fn regenerate() -> Result<Goldens, String> {
    let tr = Tracer::off();
    // Tiny-size keys are a subset of the full-size ones (same scale).
    let opts = |goldens| Options {
        size: Size::Full,
        seed: 0,
        goldens,
    };
    let mut g = grid::PaperGrid::setup(&opts(Goldens::recording()), &tr);
    if let Some(f) = g.pass(&tr, false).failures.first() {
        return Err(f.clone());
    }
    let mut s = sweep::LlSweep::setup(&opts(g.into_goldens()), &tr);
    if let Some(f) = s.pass(&tr, false).failures.first() {
        return Err(f.clone());
    }
    Ok(Goldens::parse(&s.into_goldens().render()).expect("rendered goldens parse"))
}
