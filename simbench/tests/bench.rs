//! The benchmark's own tests: tiny-size runs emit every metric named in
//! `BENCHMARK.json` with its unit, and the golden check fails exactly the
//! perturbed cell.

use watchdog_simbench::goldens::Goldens;
use watchdog_simbench::grid::PaperGrid;
use watchdog_simbench::run::{self, Metric};
use watchdog_simbench::spans::Tracer;
use watchdog_simbench::sweep::{LlSweep, LL_KB};
use watchdog_simbench::workload::{Kind, Options, Size, Workload};
use watchdog_telemetry::JsonValue;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// `(name, unit)` of every metric listed under `section` in
/// `BENCHMARK.json`.
fn listed(section: &str) -> Vec<(String, String)> {
    let doc = JsonValue::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let field = |m: &JsonValue, key: &str| {
        m.get(key)
            .and_then(JsonValue::as_str)
            .unwrap_or_else(|| panic!("{section} entry without {key}"))
            .to_string()
    };
    doc.get(section)
        .and_then(JsonValue::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section} array"))
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

fn emitted(metrics: &[Metric]) -> Vec<(String, String)> {
    metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

fn tiny(seed: u64) -> Options {
    Options {
        size: Size::Tiny,
        seed,
        goldens: Goldens::committed(),
    }
}

#[test]
fn tiny_untraced_runs_emit_every_end_to_end_metric() {
    let want = listed("end_to_end");
    assert_eq!(want.len(), 7);
    for kind in Kind::ALL {
        let out = run::untraced(kind, &tiny(7), 0.0);
        assert!(out.correct(), "{}: {:#?}", kind.name(), out.notes);
        assert_eq!(emitted(&out.metrics), want, "{}", kind.name());
        assert!(
            out.metrics
                .iter()
                .all(|m| m.value.is_finite() && m.value > 0.0),
            "{}: {:?}",
            kind.name(),
            out.metrics
        );
        let line = JsonValue::parse(&out.json()).expect("result line parses");
        assert_eq!(line.get("correct"), Some(&JsonValue::Bool(true)));
        assert!(line.get("attempted").and_then(JsonValue::as_u64) > Some(0));
        assert_eq!(line.get("failed").and_then(JsonValue::as_u64), Some(0));
        let setup = line.get("metrics").and_then(|m| m.get("setup_s"));
        assert!(setup.and_then(|s| s.get("value")?.as_f64()) > Some(0.0));
    }
}

#[test]
fn tiny_traced_run_emits_every_per_layer_metric_with_full_coverage() {
    let out = run::traced(&tiny(3), 0.0);
    assert!(out.correct(), "{:#?}", out.notes);
    assert_eq!(emitted(&out.metrics), listed("per_layer"));
    for kind in Kind::ALL {
        let coverage = out
            .metrics
            .iter()
            .find(|m| m.name == format!("{}.spans.coverage", kind.name()))
            .expect("coverage reported")
            .value;
        assert!(coverage >= 0.95, "{}: coverage {coverage}", kind.name());
    }
    assert!(!out.spans.is_empty());
}

#[test]
fn one_perturbed_golden_fails_exactly_one_cell() {
    let bench = Size::Tiny.benchmarks()[0].name;
    let tr = Tracer::off();
    for (key, kind) in [
        (format!("paper-grid/test/{bench}/cons"), Kind::PaperGrid),
        (
            format!("ll-sweep/test/{bench}/{}KB", LL_KB[0]),
            Kind::LlSweep,
        ),
    ] {
        let mut opts = tiny(11);
        let golden = opts.goldens.get(&key).expect("golden exists");
        opts.goldens.set(&key, golden ^ 1);
        let out = match kind {
            Kind::PaperGrid => PaperGrid::setup(&opts, &tr).pass(&tr, false),
            _ => LlSweep::setup(&opts, &tr).pass(&tr, false),
        };
        assert_eq!(out.cells_failed, 1, "{key}: {:?}", out.failures);
        assert_eq!(out.failures.len(), 1);
        assert!(out.failures[0].starts_with(&key), "{}", out.failures[0]);
    }
}
