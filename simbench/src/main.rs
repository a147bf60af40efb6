//! `simbench` — see the crate docs and `simbench/README.md`.
//!
//! ```text
//! simbench --workload <paper-grid|ll-sweep|fuzz-diff> [--seed N] [--seconds S]
//!          [--trace 0|1]
//! simbench --regen-goldens
//! ```
//!
//! Prints human-readable `# ` lines, then one JSON result line
//! (`correct`, `attempted`, `failed`, `metrics`): the end-to-end metrics of
//! the named workload with `--trace 0`, the per-layer metrics of all three
//! workloads with `--trace 1` (which also writes the spans as TSV to
//! `simbench/out/spans-seed<N>.tsv`).

use std::io::Write as _;
use std::process::ExitCode;

use watchdog_simbench::goldens::{self, Goldens};
use watchdog_simbench::run;
use watchdog_simbench::spans::to_tsv;
use watchdog_simbench::workload::{Kind, Options, Size};

const USAGE: &str = "usage: simbench --workload <paper-grid|ll-sweep|fuzz-diff> [--seed N] \
[--seconds S] [--trace 0|1]\n       simbench --regen-goldens";

struct Args {
    kind: Option<Kind>,
    seed: u64,
    seconds: u64,
    trace: bool,
    regen: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        kind: None,
        seed: 1,
        seconds: 10,
        trace: false,
        regen: false,
    };
    while let Some(flag) = argv.next() {
        if flag == "--regen-goldens" {
            a.regen = true;
            continue;
        }
        if flag == "--help" || flag == "-h" {
            return Err(String::new());
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => a.kind = Some(Kind::parse(&value).ok_or_else(bad)?),
            "--seed" => a.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.kind.is_none() && !a.regen {
        return Err("--workload is required".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    watchdog_simbench::host::pin_mmap_threshold();
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("simbench: {e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.regen {
        return match run::regenerate() {
            Ok(g) => match std::fs::write(goldens::PATH, g.render()) {
                Ok(()) => {
                    println!("wrote {} digests to {}", g.len(), goldens::PATH);
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("simbench: writing {}: {e}", goldens::PATH);
                    ExitCode::FAILURE
                }
            },
            Err(e) => {
                eprintln!("simbench: regeneration failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let opts = Options {
        size: Size::Full,
        seed: args.seed,
        goldens: Goldens::committed(),
    };
    let seconds = args.seconds as f64;
    let outcome = if args.trace {
        run::traced(&opts, seconds)
    } else {
        run::untraced(args.kind.expect("checked in parse"), &opts, seconds)
    };
    if args.trace {
        let path = format!(
            "{}/out/spans-seed{}.tsv",
            env!("CARGO_MANIFEST_DIR"),
            args.seed
        );
        let written = std::fs::create_dir_all(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
            .and_then(|()| std::fs::write(&path, to_tsv(&outcome.spans)));
        if let Err(e) = written {
            eprintln!("simbench: writing spans to {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("# {} spans written to {path}", outcome.spans.len());
    }
    let mut stdout = std::io::stdout().lock();
    for note in &outcome.notes {
        let _ = writeln!(stdout, "# {note}");
    }
    let _ = writeln!(stdout, "{}", outcome.json());
    let _ = stdout.flush();
    ExitCode::SUCCESS
}
