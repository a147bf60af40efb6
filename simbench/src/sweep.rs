//! `ll-sweep`: the §4.2/§9.3 lock-location-cache sweep. Each benchmark is
//! recorded once in ISA-assisted mode (`trace::record`), round-tripped
//! through `Trace::to_bytes`/`from_bytes`, and replayed (`trace::replay`)
//! at LL$ sizes of 1–16 KB, 8-way. About 85% of the host time is the timing
//! model, so a timing-core gain shows here at full size while a
//! functional-machine gain mostly does not.

use std::time::Instant;

use watchdog_core::{SimConfig, Simulator};
use watchdog_isa::Program;
use watchdog_mem::CacheConfig;
use watchdog_trace::{record, replay, ReplayConfig, Trace};
use watchdog_workloads::BenchSpec;

use crate::goldens::{digest, Goldens};
use crate::grid::{build_all, max_insts, warm_up};
use crate::spans::Tracer;
use crate::workload::{guarded, mode, Options, PassOut, Workload, ISA, SCALE_NAME};

/// LL$ sizes replayed, KB (8-way, 64-byte lines).
pub const LL_KB: [u64; 5] = [1, 2, 4, 8, 16];

/// Index of Table 2's 4 KB LL$ in [`LL_KB`]: that replay must equal the
/// live ISA-assisted paper-grid report of the same benchmark.
pub const TABLE2: usize = 2;

/// The set-up ll-sweep workload.
#[derive(Debug)]
pub struct LlSweep {
    benches: Vec<(BenchSpec, Program)>,
    configs: Vec<ReplayConfig>,
    goldens: Goldens,
    mpk_table2: Vec<Option<f64>>,
}

impl LlSweep {
    /// Builds the programs and warms up.
    pub fn setup(opts: &Options, tr: &Tracer) -> LlSweep {
        let benches = build_all(opts, tr);
        warm_up(&benches, tr);
        let configs = LL_KB
            .iter()
            .map(|&kb| {
                let mut cfg = ReplayConfig::from_sim(&SimConfig::timed(mode(ISA)));
                cfg.hierarchy.ll = CacheConfig::new(kb * 1024, 8, 64);
                cfg
            })
            .collect();
        let n = benches.len();
        LlSweep {
            mpk_table2: vec![None; n],
            benches,
            configs,
            goldens: opts.goldens.clone(),
        }
    }

    /// The golden table after the passes run so far (recorded digests
    /// when set up with [`Goldens::recording`]).
    pub fn into_goldens(self) -> Goldens {
        self.goldens
    }
}

impl Workload for LlSweep {
    fn pass(&mut self, tr: &Tracer, split: bool) -> PassOut {
        let mut out = PassOut::default();
        let LlSweep {
            benches,
            configs,
            goldens,
            mpk_table2,
        } = self;
        for b in 0..benches.len() {
            let (spec, program) = &benches[b];
            let bench_id = (b * LL_KB.len()) as u32;
            out.cells += LL_KB.len();
            mpk_table2[b] = None;
            let traced = guarded(|| {
                let err = |what: &str, e: String| format!("ll-sweep/{}: {what}: {e}", spec.name);
                let trace = tr
                    .span("trace::record", bench_id, || {
                        record(program, mode(ISA), max_insts())
                    })
                    .map_err(|e| err("record", e.to_string()))?;
                if split {
                    tr.span("Simulator::profile", bench_id, || {
                        Simulator::profile(program, max_insts())
                    })
                    .map_err(|e| err("profile", e.to_string()))?;
                }
                let bytes = tr.span("Trace::to_bytes", bench_id, || trace.to_bytes());
                let decoded = tr
                    .span("Trace::from_bytes", bench_id, || Trace::from_bytes(&bytes))
                    .map_err(|e| err("decode", e.to_string()))?;
                Ok((bytes.len() as u64, trace.event_count(), decoded))
            });
            let trace = match traced {
                Ok((bytes, events, decoded)) => {
                    out.counts.trace_bytes += bytes;
                    out.counts.trace_events += events;
                    if split {
                        out.counts.profile_insts += events;
                    }
                    decoded
                }
                Err(e) => {
                    out.cells_failed += LL_KB.len();
                    out.failures.push(e);
                    continue;
                }
            };
            for s in 0..LL_KB.len() {
                let key = format!("ll-sweep/{SCALE_NAME}/{}/{}KB", spec.name, LL_KB[s]);
                let id = bench_id + s as u32;
                let t0 = Instant::now();
                let res = tr.span("cell", id, || {
                    guarded(|| {
                        let r = tr
                            .span("trace::replay", id, || replay(program, &trace, &configs[s]))
                            .map_err(|e| format!("{key}: {e}"))?;
                        tr.span("bench.check", id, || {
                            if let Some(v) = r.violation {
                                return Err(format!("{key}: unexpected violation {v}"));
                            }
                            goldens.check(&key, &r)?;
                            if s == TABLE2 {
                                let live = format!("paper-grid/{SCALE_NAME}/{}/isa", spec.name);
                                if goldens.get(&live) != Some(digest(&r)) {
                                    return Err(format!(
                                        "{key}: replay differs from the live report {live}"
                                    ));
                                }
                            }
                            Ok(())
                        })?;
                        Ok(r)
                    })
                });
                out.cell_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                match res {
                    Ok(r) => {
                        out.sim_insts += r.machine.insts;
                        out.counts.add_report(&r);
                        if s == TABLE2 {
                            mpk_table2[b] = r.timing.as_ref().map(|t| t.hierarchy.ll_mpk(t.insts));
                        }
                    }
                    Err(e) => {
                        out.cells_failed += 1;
                        out.failures.push(e);
                    }
                }
            }
        }
        out
    }

    fn accuracy(&self) -> String {
        let measured = self.mpk_table2.iter().flatten().count();
        let under = self
            .mpk_table2
            .iter()
            .flatten()
            .filter(|&&m| m < 1.0)
            .count();
        format!(
            "benchmarks under 1 LL$ miss per 1k instructions at 4 KB: {under}/{measured} \
             (paper: 17/20)"
        )
    }
}
