//! Golden-waveform regression fixtures for the circuit engine.
//!
//! Three reference transients are sampled at fixed instants and compared
//! with the CSV fixtures committed in `tests/golden/`:
//!
//! * `search_3t2n_16x16.csv` — `v(ml)` of the 16×16 3T2N single-bit
//!   mismatch search (the `perf_baseline` / `solver_trace_bench` run);
//! * `write_sram16t_8col.csv` — every storage node (`_d`, `_db`) of an
//!   8-column 16T-SRAM row write;
//! * `array_search_3t2n_8x16.csv` — the `v(mlN)` traces of an 8-word,
//!   16-column full-array 3T2N search.
//!
//! A sample passes when `|got - want| <= ABS_TOL + REL_TOL * |want|`, and
//! the accepted-step and Newton-iteration counts must equal the recorded
//! ones. The fixtures pin the engine's output, not its arithmetic: a change
//! that only reorders exact floating-point work (a new LU ordering, a new
//! loop schedule) must pass them unmodified, while a change to device
//! models, step control or convergence shows up as a failure.
//!
//! The fixtures are produced by this file and nothing else. After a
//! deliberate model change, regenerate them with
//!
//! ```sh
//! GOLDEN_BLESS=1 cargo test --release --test golden_waveforms -- --ignored
//! ```
//!
//! and review the diff.

use std::fmt::Write as _;
use std::path::PathBuf;

use nem_tcam::core::array_search::run_array_search;
use nem_tcam::core::bit::TernaryBit;
use nem_tcam::core::designs::{ArraySpec, Nem3t2n, Sram16t, TcamDesign};
use nem_tcam::core::experiments::{mismatch_key, pattern_word};
use nem_tcam::core::ops::{run_search, run_write};
use nem_tcam::spice::waveform::Waveform;

/// Absolute tolerance on a sampled node voltage: 1 µV.
const ABS_TOL: f64 = 1e-6;
/// Relative tolerance on a sampled node voltage: 1 ppm.
const REL_TOL: f64 = 1e-6;
/// Sample instants per fixture: `t_stop * i / SAMPLES` for `i = 0..=SAMPLES`.
const SAMPLES: usize = 64;

/// One reference run, reduced to what the fixture records.
struct Golden {
    name: &'static str,
    signals: Vec<String>,
    times: Vec<f64>,
    /// `rows[i][s]` is signal `s` at `times[i]`.
    rows: Vec<Vec<f64>>,
    steps_accepted: usize,
    nr_iterations: usize,
}

impl Golden {
    fn from_waveform(
        name: &'static str,
        wave: &Waveform,
        signals: Vec<String>,
        t_stop: f64,
    ) -> Self {
        let times: Vec<f64> = (0..=SAMPLES)
            .map(|i| t_stop * i as f64 / SAMPLES as f64)
            .collect();
        let rows = times
            .iter()
            .map(|&t| {
                signals
                    .iter()
                    .map(|s| wave.sample(s, t).expect("signal recorded"))
                    .collect()
            })
            .collect();
        let stats = wave.stats().expect("transient records solver stats");
        Self {
            name,
            signals,
            times,
            rows,
            steps_accepted: stats.steps_accepted,
            nr_iterations: stats.nr_iterations,
        }
    }

    fn path(name: &str) -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("tests/golden")
            .join(format!("{name}.csv"))
    }

    fn to_csv(&self) -> String {
        let mut s = format!("# golden waveform: {}\n", self.name);
        let _ = writeln!(s, "steps_accepted,{}", self.steps_accepted);
        let _ = writeln!(s, "nr_iterations,{}", self.nr_iterations);
        let _ = writeln!(s, "time,{}", self.signals.join(","));
        for (t, row) in self.times.iter().zip(&self.rows) {
            let _ = write!(s, "{t:.17e}");
            for v in row {
                let _ = write!(s, ",{v:.17e}");
            }
            s.push('\n');
        }
        s
    }

    fn parse(name: &'static str, text: &str) -> Self {
        let mut lines = text.lines().filter(|l| !l.starts_with('#'));
        let mut count = |key: &str| -> usize {
            let line = lines.next().expect("fixture truncated");
            let (k, v) = line.split_once(',').expect("key,value line");
            assert_eq!(k, key, "fixture {name}: expected {key}");
            v.parse().expect("integer count")
        };
        let steps_accepted = count("steps_accepted");
        let nr_iterations = count("nr_iterations");
        let header = lines.next().expect("fixture header");
        let signals: Vec<String> = header.split(',').skip(1).map(str::to_owned).collect();
        let mut times = Vec::new();
        let mut rows = Vec::new();
        for line in lines {
            let mut cols = line
                .split(',')
                .map(|c| c.parse::<f64>().expect("numeric cell"));
            times.push(cols.next().expect("time column"));
            rows.push(cols.collect::<Vec<f64>>());
        }
        Self {
            name,
            signals,
            times,
            rows,
            steps_accepted,
            nr_iterations,
        }
    }
}

fn search_3t2n_16x16() -> Golden {
    let spec = ArraySpec {
        rows: 16,
        cols: 16,
        vdd: 1.0,
    };
    let exp = Nem3t2n::default()
        .build_search(&spec, &pattern_word(16), &mismatch_key(16))
        .expect("builds");
    let (signal, t_stop) = (exp.ml_signal.clone(), exp.t_stop);
    let res = run_search(exp).expect("search converges");
    assert!(res.functional_ok);
    Golden::from_waveform("search_3t2n_16x16", &res.waveform, vec![signal], t_stop)
}

fn write_sram16t_8col() -> Golden {
    let spec = ArraySpec {
        rows: 8,
        cols: 8,
        vdd: 1.0,
    };
    let exp = Sram16t::default()
        .build_write(&spec, &pattern_word(8))
        .expect("builds");
    let t_stop = exp.t_stop;
    let res = run_write(exp).expect("write converges");
    assert!(res.all_valid);
    let signals = (0..8)
        .flat_map(|c| {
            (1..=2).flat_map(move |h| [format!("v(c{c}h{h}_d)"), format!("v(c{c}h{h}_db)")])
        })
        .collect();
    Golden::from_waveform("write_sram16t_8col", &res.waveform, signals, t_stop)
}

/// Eight 16-bit words against one key: even words match it (word 4 is
/// all-X), odd words differ in one bit each.
fn array_search_3t2n_8x16() -> Golden {
    let (n_words, cols) = (8, 16);
    let spec = ArraySpec {
        rows: n_words,
        cols,
        vdd: 1.0,
    };
    let key = pattern_word(cols);
    let words: Vec<Vec<TernaryBit>> = (0..n_words)
        .map(|r| {
            let mut w = pattern_word(cols);
            if r == 4 {
                w.fill(TernaryBit::X);
            } else if r % 2 == 1 {
                w[r] = match w[r] {
                    TernaryBit::One => TernaryBit::Zero,
                    _ => TernaryBit::One,
                };
            }
            w
        })
        .collect();
    let res = run_array_search(&Nem3t2n::default(), &spec, &words, &key).expect("search converges");
    assert!(res.functional_ok, "{:?}", res.ml_at_sense);
    let t_stop = *res.waveform.axis().last().expect("non-empty record");
    let signals = (0..n_words).map(|r| format!("v(ml{r})")).collect();
    Golden::from_waveform("array_search_3t2n_8x16", &res.waveform, signals, t_stop)
}

/// Compares a fresh run with its committed fixture, sampling the fresh
/// waveform at the fixture's instants.
fn check(got: &Golden) {
    let path = Golden::path(got.name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()));
    let want = Golden::parse(got.name, &text);
    assert_eq!(got.signals, want.signals, "{}: signal list", got.name);
    assert_eq!(
        got.times.len(),
        want.times.len(),
        "{}: sample count",
        got.name
    );
    let mut worst = (0.0_f64, String::new());
    for ((t, g_row), w_row) in want.times.iter().zip(&got.rows).zip(&want.rows) {
        for ((s, g), w) in got.signals.iter().zip(g_row).zip(w_row) {
            let err = (g - w).abs();
            let excess = err / (ABS_TOL + REL_TOL * w.abs());
            if excess > worst.0 {
                worst = (excess, format!("{s} at t={t:e}: got {g:e}, want {w:e}"));
            }
        }
    }
    assert!(
        worst.0 <= 1.0,
        "{}: sample outside tolerance ({:.2}x the bound): {}",
        got.name,
        worst.0,
        worst.1
    );
    assert_eq!(
        got.steps_accepted, want.steps_accepted,
        "{}: accepted steps",
        got.name
    );
    assert_eq!(
        got.nr_iterations, want.nr_iterations,
        "{}: Newton iterations",
        got.name
    );
}

#[test]
fn golden_search_3t2n_16x16() {
    check(&search_3t2n_16x16());
}

#[test]
fn golden_write_sram16t_8col() {
    check(&write_sram16t_8col());
}

#[test]
fn golden_array_search_3t2n_8x16() {
    check(&array_search_3t2n_8x16());
}

/// Rewrites every fixture from the current engine. Ignored by default and
/// refused without `GOLDEN_BLESS=1`, so a plain `--ignored` run cannot
/// overwrite the references by accident.
#[test]
#[ignore = "regenerates the committed fixtures; see the module docs"]
fn regenerate_golden_fixtures() {
    assert!(
        std::env::var_os("GOLDEN_BLESS").is_some(),
        "set GOLDEN_BLESS=1 to overwrite tests/golden/*.csv"
    );
    for g in [
        search_3t2n_16x16(),
        write_sram16t_8col(),
        array_search_3t2n_8x16(),
    ] {
        let path = Golden::path(g.name);
        std::fs::create_dir_all(path.parent().expect("has a parent")).expect("mkdir");
        std::fs::write(&path, g.to_csv()).expect("write fixture");
    }
}
