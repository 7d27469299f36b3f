//! Full-array parallel search at circuit level (paper Fig. 1b).
//!
//! Where [`crate::ops::run_search`] times a single matchline, this module
//! builds several complete words sharing the same search lines — the real
//! array operation — and decodes *all* matchlines at the sense instant.
//! It demonstrates what the single-ML experiments assume: the searched key
//! settles every ML independently and in parallel, and the priority
//! encoder can pick the first high ML.

use crate::bit::{word_matches, TernaryBit};
use crate::designs::{
    add_line_cap, add_ml_precharge_named, add_step_driver, check_spec, search_drive, ArraySpec,
    Nem3t2n, TcamDesign,
};
use tcam_spice::analysis::{transient, TransientSpec};
use tcam_spice::error::Result;
use tcam_spice::netlist::Circuit;
use tcam_spice::options::SimOptions;
use tcam_spice::waveform::Waveform;

/// Precharge release instant.
const T_PC_RELEASE: f64 = 0.8e-9;
/// Search drive instant.
const T_SEARCH: f64 = 1.0e-9;
/// Sense window after the search edge.
const SENSE_WINDOW: f64 = 0.6e-9;

/// Outcome of a parallel array search.
#[derive(Debug)]
pub struct ArraySearchResult {
    /// Per-word matchline state at the sense instant (`true` = ML high =
    /// match).
    pub match_flags: Vec<bool>,
    /// Matchline voltages at the sense instant.
    pub ml_at_sense: Vec<f64>,
    /// Index of the first matching word (the priority encoder output).
    pub first_match: Option<usize>,
    /// Whether every ML agrees with the ternary match semantics.
    pub functional_ok: bool,
    /// Total search energy for the whole array operation, joules.
    pub energy: f64,
    /// The simulation record (`v(ml0)`, `v(ml1)`, ... traces).
    pub waveform: Waveform,
}

/// Builds and runs a parallel search of `key` against `words` on the 3T2N
/// design: all words share the search lines; each word has its own
/// matchline and precharge network.
///
/// # Errors
///
/// Propagates netlist and simulation failures; word widths must equal
/// `spec.cols` and `words.len()` must not exceed `spec.rows`.
pub fn run_array_search(
    design: &Nem3t2n,
    spec: &ArraySpec,
    words: &[Vec<TernaryBit>],
    key: &[TernaryBit],
) -> Result<ArraySearchResult> {
    let word_refs: Vec<&[TernaryBit]> = words.iter().map(Vec::as_slice).collect();
    let mut all: Vec<&[TernaryBit]> = word_refs.clone();
    all.push(key);
    check_spec(spec, &all)?;
    if words.len() > spec.rows {
        return Err(tcam_spice::SpiceError::InvalidCircuit(format!(
            "{} words exceed the array's {} rows",
            words.len(),
            spec.rows
        )));
    }

    let mut ckt = Circuit::new();
    let gnd = ckt.gnd();
    let geom = design.geometry();
    let c_sl = geom.column_wire_cap(spec.rows);

    // Shared search lines, driven once.
    let mut sls = Vec::with_capacity(spec.cols);
    for (j, &kbit) in key.iter().enumerate() {
        let sl = ckt.node(&format!("sl{j}"));
        let slb = ckt.node(&format!("slb{j}"));
        add_line_cap(&mut ckt, &format!("csl{j}"), sl, c_sl)?;
        add_line_cap(&mut ckt, &format!("cslb{j}"), slb, c_sl)?;
        let (v_sl, v_slb) = search_drive(kbit, spec.vdd);
        add_step_driver(&mut ckt, &format!("vsl{j}"), sl, 0.0, v_sl, T_SEARCH)?;
        add_step_driver(&mut ckt, &format!("vslb{j}"), slb, 0.0, v_slb, T_SEARCH)?;
        sls.push((sl, slb));
    }

    // One matchline per stored word.
    for (r, word) in words.iter().enumerate() {
        let ml = ckt.node(&format!("ml{r}"));
        for (j, &bit) in word.iter().enumerate() {
            let (sl, slb) = sls[j];
            design.build_cell(
                &mut ckt,
                &format!("r{r}c{j}"),
                bit,
                spec.vdd,
                ml,
                gnd,
                gnd,
                gnd,
                sl,
                slb,
            )?;
        }
        add_ml_precharge_named(
            &mut ckt,
            &format!("_{r}"),
            ml,
            spec.vdd,
            geom.row_wire_cap(spec.cols),
            T_PC_RELEASE,
        )?;
    }

    let t_sense = T_SEARCH + SENSE_WINDOW;
    let wave = transient(
        &mut ckt,
        TransientSpec::to(t_sense + 0.4e-9),
        &SimOptions::default(),
    )?;

    let mut match_flags = Vec::with_capacity(words.len());
    let mut ml_at_sense = Vec::with_capacity(words.len());
    let mut functional_ok = true;
    for (r, word) in words.iter().enumerate() {
        let v = wave.sample(&format!("v(ml{r})"), t_sense)?;
        let matched = v > spec.vdd / 2.0;
        let expected = word_matches(word, key);
        if matched != expected {
            functional_ok = false;
        }
        match_flags.push(matched);
        ml_at_sense.push(v);
    }
    let first_match = match_flags.iter().position(|&m| m);
    let energy = ckt.total_sourced_energy();

    Ok(ArraySearchResult {
        match_flags,
        ml_at_sense,
        first_match,
        functional_ok,
        energy,
        waveform: wave,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bit::parse_ternary;

    fn spec() -> ArraySpec {
        ArraySpec {
            rows: 8,
            cols: 4,
            vdd: 1.0,
        }
    }

    #[test]
    fn parallel_search_decodes_every_matchline() {
        let d = Nem3t2n::default();
        let words = vec![
            parse_ternary("1010").unwrap(),
            parse_ternary("1X10").unwrap(),
            parse_ternary("0101").unwrap(),
            parse_ternary("XXXX").unwrap(),
        ];
        let key = parse_ternary("1110").unwrap();
        let res = run_array_search(&d, &spec(), &words, &key).unwrap();
        assert!(res.functional_ok, "{:?}", res.ml_at_sense);
        assert_eq!(res.match_flags, vec![false, true, false, true]);
        assert_eq!(res.first_match, Some(1));
        assert!(res.energy > 0.0);
    }

    #[test]
    fn no_match_reports_none() {
        let d = Nem3t2n::default();
        let words = vec![
            parse_ternary("1111").unwrap(),
            parse_ternary("0000").unwrap(),
        ];
        let key = parse_ternary("1001").unwrap();
        let res = run_array_search(&d, &spec(), &words, &key).unwrap();
        assert!(res.functional_ok);
        assert_eq!(res.first_match, None);
    }

    #[test]
    fn too_many_words_rejected() {
        let d = Nem3t2n::default();
        let small = ArraySpec {
            rows: 1,
            cols: 2,
            vdd: 1.0,
        };
        let words = vec![parse_ternary("10").unwrap(), parse_ternary("01").unwrap()];
        let key = parse_ternary("10").unwrap();
        assert!(run_array_search(&d, &small, &words, &key).is_err());
    }

    #[test]
    fn factor_fill_is_linear_in_words() {
        // Words couple only through the shared search lines, so with a
        // fill-reducing order the L+U size per word must not grow with
        // the word count (natural order grew it linearly: quadratic fill).
        let cols = 16;
        let per_word = |n_words: usize| {
            let spec = ArraySpec {
                rows: n_words,
                cols,
                vdd: 1.0,
            };
            let key = crate::experiments::pattern_word(cols);
            let words = vec![key.clone(); n_words];
            let res = run_array_search(&Nem3t2n::default(), &spec, &words, &key).unwrap();
            assert!(res.functional_ok);
            let stats = res.waveform.stats().expect("transient records solve stats");
            stats.factor_nnz as f64 / n_words as f64
        };
        let (small, large) = (per_word(8), per_word(32));
        assert!(
            large <= 1.5 * small && small <= 1.5 * large,
            "L+U entries per word: {small} at 8 words, {large} at 32"
        );
    }
}
