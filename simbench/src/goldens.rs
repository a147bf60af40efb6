//! Golden report digests: the full [`RunReport`] of every paper-grid and
//! ll-sweep cell, hashed, kept in `goldens.txt` beside the benchmark.
//!
//! A change that only makes the simulator faster must leave every simulated
//! statistic identical, so any digest mismatch fails its cell. Only the
//! explicit `--regen-goldens` step rewrites the file.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use watchdog_core::RunReport;

/// The committed goldens file, compiled in.
const COMMITTED: &str = include_str!("../goldens.txt");

/// Path of the goldens file in the source tree (for regeneration).
pub const PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/goldens.txt");

/// FNV-1a 64 over the report's `Debug` rendering, which prints every
/// nested statistic (the same field-for-field view the trace equivalence
/// check compares).
pub fn digest(report: &RunReport) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in format!("{report:?}").bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Cell key → digest. In recording mode [`Goldens::check`] stores instead
/// of comparing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Goldens {
    digests: BTreeMap<String, u64>,
    recording: bool,
}

impl Goldens {
    /// The committed goldens.
    ///
    /// # Panics
    ///
    /// Panics if the compiled-in file is malformed (a broken build input).
    pub fn committed() -> Goldens {
        Self::parse(COMMITTED).expect("goldens.txt is well-formed")
    }

    /// An empty table that records every checked digest.
    pub fn recording() -> Goldens {
        Goldens {
            digests: BTreeMap::new(),
            recording: true,
        }
    }

    /// Parses `key hex-digest` lines; `#` starts a comment line.
    ///
    /// # Errors
    ///
    /// The first malformed or duplicated line.
    pub fn parse(text: &str) -> Result<Goldens, String> {
        let mut digests = BTreeMap::new();
        for (no, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let bad = || format!("goldens line {}: {line:?}", no + 1);
            let (key, hex) = line.split_once(' ').ok_or_else(bad)?;
            let d = u64::from_str_radix(hex.trim(), 16).map_err(|_| bad())?;
            if digests.insert(key.to_string(), d).is_some() {
                return Err(format!("{}: duplicate key", bad()));
            }
        }
        Ok(Goldens {
            digests,
            recording: false,
        })
    }

    /// Renders the table in the committed file's format.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "# Report digests of every paper-grid and ll-sweep cell (simbench/src/goldens.rs).\n\
             # Rewritten only by `simbench --regen-goldens`.\n",
        );
        for (k, d) in &self.digests {
            let _ = writeln!(out, "{k} {d:016x}");
        }
        out
    }

    /// The golden digest of `key`.
    pub fn get(&self, key: &str) -> Option<u64> {
        self.digests.get(key).copied()
    }

    /// Sets the digest of `key` (regeneration, and tests that perturb one).
    pub fn set(&mut self, key: &str, digest: u64) {
        self.digests.insert(key.to_string(), digest);
    }

    /// Number of digests.
    pub fn len(&self) -> usize {
        self.digests.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.digests.is_empty()
    }

    /// Checks `report` against the golden of `key` (or records it).
    ///
    /// # Errors
    ///
    /// A missing golden or a digest mismatch, naming the key.
    pub fn check(&mut self, key: &str, report: &RunReport) -> Result<(), String> {
        let d = digest(report);
        if self.recording {
            self.set(key, d);
            return Ok(());
        }
        match self.get(key) {
            Some(g) if g == d => Ok(()),
            Some(g) => Err(format!("{key}: report digest {d:016x} != golden {g:016x}")),
            None => Err(format!("{key}: no golden digest")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parse_round_trip_and_rejects_garbage() {
        let mut g = Goldens::default();
        g.set("paper-grid/small/mcf/isa", 0xdead_beef);
        g.set("ll-sweep/small/mcf/4KB", 1);
        assert_eq!(Goldens::parse(&g.render()).unwrap(), g);
        assert!(Goldens::parse("k zz").is_err());
        assert!(Goldens::parse("k 1\nk 2").is_err());
        assert!(!Goldens::committed().is_empty());
    }
}
