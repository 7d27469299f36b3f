//! Reference values the output checks compare against: flat JSON objects
//! of `"name": number`, generated once from a known-good build with
//! `--write-reference` and kept in `perfbench/reference/`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use tcam_net::json::Json;

use crate::report::{json_number, rel_diff, Outcome};

/// Relative tolerance of every circuit-level reference comparison
/// (latency, energy, retention, margins). Wide enough for a change that
/// only reorders floating-point work (a new LU ordering moves step
/// schedules by round-off), far narrower than any modelling change.
pub const REL_TOL: f64 = 0.01;

pub const PAPER_REPRO: &str = include_str!("../reference/paper_repro.json");
pub const MC_SWEEP: &str = include_str!("../reference/mc_sweep.json");

/// Named reference values.
#[derive(Debug, Clone, Default)]
pub struct Reference(pub BTreeMap<String, f64>);

impl Reference {
    /// Parses a flat `{"name": number, …}` object.
    pub fn parse(text: &str) -> Result<Self, String> {
        let Json::Object(map) = Json::parse(text)? else {
            return Err("reference is not a JSON object".into());
        };
        map.into_iter()
            .map(|(k, v)| match v {
                Json::Number(n) => Ok((k, n)),
                _ => Err(format!("reference value {k:?} is not a number")),
            })
            .collect::<Result<_, _>>()
            .map(Reference)
    }

    /// Renders the values as the flat object [`Reference::parse`] reads,
    /// one entry per line.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        for (i, (k, v)) in self.0.iter().enumerate() {
            let sep = if i + 1 == self.0.len() { "" } else { "," };
            let _ = writeln!(out, "  \"{k}\": {}{sep}", json_number(*v));
        }
        out.push_str("}\n");
        out
    }

    /// Compares every reference value under `prefix` with the measured
    /// value of the same name: within `rel_tol` relative, or exactly when
    /// `rel_tol` is 0. A name missing from `measured` is a failure too.
    pub fn check(
        &self,
        prefix: &str,
        measured: &BTreeMap<String, f64>,
        rel_tol: f64,
        out: &mut Outcome,
    ) {
        let mut any = false;
        for (name, want) in self.0.iter().filter(|(k, _)| k.starts_with(prefix)) {
            any = true;
            match measured.get(name) {
                None => out.problem(format!("{name}: not measured")),
                Some(got) => {
                    let ok = if rel_tol == 0.0 {
                        got == want
                    } else {
                        rel_diff(*got, *want) <= rel_tol
                    };
                    if !ok {
                        out.problem(format!(
                            "{name}: measured {got}, reference {want} (tolerance {rel_tol})"
                        ));
                    }
                }
            }
        }
        if !any {
            out.problem(format!("no reference values under {prefix:?}"));
        }
    }
}
