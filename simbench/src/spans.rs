//! In-memory span recorder for the traced run.
//!
//! Every call the benchmark makes into a simulator layer is wrapped in
//! [`Tracer::span`]. A disabled tracer (the untraced run that produces the
//! end-to-end numbers) just calls the closure. An enabled one records the
//! span's name, start, end, parent span, workload and cell id, keeps them
//! in memory and writes them out at the end.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Parent index of a root span.
pub const ROOT: u32 = u32::MAX;

/// Span names that structure the run rather than time a layer call: their
/// self time is harness overhead, the part of the wall time no layer span
/// covers.
pub const STRUCTURAL: [&str; 3] = ["setup", "pass", "cell"];

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What was called, e.g. `trace::replay`.
    pub name: &'static str,
    /// Workload the span belongs to.
    pub workload: &'static str,
    /// Cell id within the workload (`u32::MAX` outside cells).
    pub cell: u32,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder; see the module docs.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    current: Cell<u32>,
    workload: Cell<&'static str>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Self::new(false)
    }

    /// A recording tracer.
    pub fn on() -> Tracer {
        Self::new(true)
    }

    fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            current: Cell::new(ROOT),
            workload: Cell::new(""),
        }
    }

    /// Tags the spans recorded from now on with `workload`.
    pub fn set_workload(&self, workload: &'static str) {
        self.workload.set(workload);
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`. The span is closed even if `f`
    /// unwinds, so a panicking cell caught further out leaves the parent
    /// chain intact.
    pub fn span<T>(&self, name: &'static str, cell: u32, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let id = {
            let mut spans = self.spans.borrow_mut();
            let id = u32::try_from(spans.len()).expect("fewer than 2^32 spans");
            spans.push(Span {
                name,
                workload: self.workload.get(),
                cell,
                parent: self.current.get(),
                start_ns: self.now_ns(),
                end_ns: 0,
            });
            id
        };
        let _guard = Close {
            tracer: self,
            id,
            parent: self.current.replace(id),
        };
        f()
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Measures the cost of recording one span (ns), on a scratch tracer,
    /// so the traced run can report its own overhead.
    pub fn overhead_ns_per_span() -> f64 {
        const N: u32 = 20_000;
        let scratch = Tracer::on();
        let t0 = Instant::now();
        for i in 0..N {
            scratch.span("calibrate", i, || std::hint::black_box(i));
        }
        t0.elapsed().as_nanos() as f64 / f64::from(N)
    }
}

struct Close<'a> {
    tracer: &'a Tracer,
    id: u32,
    parent: u32,
}

impl Drop for Close<'_> {
    fn drop(&mut self) {
        let end = self.tracer.now_ns();
        self.tracer.spans.borrow_mut()[self.id as usize].end_ns = end;
        self.tracer.current.set(self.parent);
    }
}

/// Per-name totals of one workload's spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    /// Number of spans.
    pub count: u64,
    /// Summed durations, ns.
    pub total_ns: u64,
    /// Summed self times (duration minus time covered by child spans), ns.
    pub self_ns: u64,
}

/// Span totals by workload, then by span name.
pub type Totals = BTreeMap<&'static str, BTreeMap<&'static str, NameTotals>>;

/// Aggregates spans into per-workload, per-name totals with self times.
pub fn totals(spans: &[Span]) -> Totals {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != ROOT {
            child_ns[s.parent as usize] += s.dur_ns();
        }
    }
    let mut out = Totals::new();
    for (s, child) in spans.iter().zip(child_ns) {
        let t = out
            .entry(s.workload)
            .or_default()
            .entry(s.name)
            .or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += s.dur_ns().saturating_sub(child);
    }
    out
}

/// Renders spans as tab-separated lines (header first).
pub fn to_tsv(spans: &[Span]) -> String {
    let mut out = String::from("id\tparent\tworkload\tname\tcell\tstart_ns\tend_ns\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == ROOT {
            "-".to_string()
        } else {
            s.parent.to_string()
        };
        let cell = if s.cell == u32::MAX {
            "-".to_string()
        } else {
            s.cell.to_string()
        };
        let _ = writeln!(
            out,
            "{i}\t{parent}\t{}\t{}\t{cell}\t{}\t{}",
            s.workload, s.name, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_unwinding_closes_spans() {
        let t = Tracer::on();
        t.set_workload("w");
        t.span("outer", 0, || {
            t.span("inner", 0, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                t.span("boom", 0, || panic!("expected"))
            }));
            assert!(caught.is_err());
        });
        t.span("after", 1, || ());
        let spans = t.spans();
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns && s.end_ns > 0));
        assert_eq!(spans[3].parent, ROOT, "unwinding restored the parent");
        let tot = &totals(&spans)["w"];
        let outer = tot["outer"];
        let covered = tot["inner"].total_ns + tot["boom"].total_ns;
        assert_eq!(outer.self_ns, outer.total_ns - covered);
        assert!(to_tsv(&spans).lines().count() == 5);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::off();
        assert_eq!(t.span("x", 0, || 7), 7);
        assert!(t.spans().is_empty());
    }
}
