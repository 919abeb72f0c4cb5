//! Output checks. Every workload result is compared with an oracle;
//! any mismatch fails the run.

use course::assessment::AutoMarkOutcome;
use course::CellReport;
use parc_analyze::diag::Code;

/// `mark-steady`: the cell's conservation identities hold, nothing was
/// marked twice, no spot-check found a race or deadlock the lint
/// missed, and the fingerprint equals the first cell of the same seed.
#[must_use]
pub fn check_cell(cell: &CellReport, first_fingerprint: u64) -> Vec<String> {
    let mut bad = cell.violations();
    if cell.duplicates != 0 {
        bad.push(format!("{} duplicate marks", cell.duplicates));
    }
    if cell.spot_missed != 0 {
        bad.push(format!(
            "{} spot-checks found a finding the lint missed",
            cell.spot_missed
        ));
    }
    if cell.fingerprint() != first_fingerprint {
        bad.push(format!(
            "fingerprint {:#018x} differs from the seed's first cell {first_fingerprint:#018x}",
            cell.fingerprint()
        ));
    }
    bad
}

/// What the unmodified source of a `lint-unique` program lints to.
#[derive(Clone, Debug, PartialEq)]
pub struct LintRef {
    pub codes: Vec<Code>,
    pub mark: f64,
    pub parsed: bool,
}

/// `lint-unique`: a program made distinct by a trailing comment must
/// lint exactly like its unmodified source, with a mark in 0..=100.
pub fn check_lint(out: &AutoMarkOutcome, expect: &LintRef) -> Result<(), String> {
    let codes: Vec<&str> = out.notes.iter().filter_map(|n| note_code(n)).collect();
    let want: Vec<&str> = expect.codes.iter().map(|c| c.as_str()).collect();
    check_scored(&codes, &want, out.mark, out.parsed, expect)
}

/// The decomposed lint path of a traced `lint-unique` run, checked
/// against the same reference.
pub fn check_codes(
    codes: &[Code],
    mark: f64,
    parsed: bool,
    expect: &LintRef,
) -> Result<(), String> {
    let got: Vec<&str> = codes.iter().map(|c| c.as_str()).collect();
    let want: Vec<&str> = expect.codes.iter().map(|c| c.as_str()).collect();
    check_scored(&got, &want, mark, parsed, expect)
}

fn check_scored(
    got: &[&str],
    want: &[&str],
    mark: f64,
    parsed: bool,
    expect: &LintRef,
) -> Result<(), String> {
    if got != want {
        return Err(format!(
            "diagnostic codes {got:?}, unmodified source gives {want:?}"
        ));
    }
    if !(0.0..=100.0).contains(&mark) || mark != expect.mark || parsed != expect.parsed {
        return Err(format!(
            "mark {mark} parsed {parsed}, unmodified source gives mark {} parsed {}",
            expect.mark, expect.parsed
        ));
    }
    Ok(())
}

/// The diagnostic code of one `auto_mark` note (`"style: W101 (line
/// 3) — ..."`); `None` for notes that carry no code.
fn note_code(note: &str) -> Option<&str> {
    let (_, rest) = note.split_once(": ")?;
    let code = rest.split(' ').next()?;
    let is_code = code.len() == 4
        && matches!(code.as_bytes()[0], b'E' | b'W')
        && code[1..].bytes().all(|b| b.is_ascii_digit());
    is_code.then_some(code)
}

/// `projects`: a kernel's output equals its sequential reference.
pub fn check_equal<T: PartialEq>(what: &str, got: &T, want: &T) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{what}: output differs from the sequential reference"
        ))
    }
}

/// `projects`: a floating-point kernel is within `tol` of its
/// reference (maximum absolute error).
pub fn check_err(what: &str, err: f64, tol: f64) -> Result<(), String> {
    if err <= tol {
        Ok(())
    } else {
        Err(format!("{what}: error {err:e} exceeds {tol:e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use course::assessment::{auto_mark, AutoMarkRubric};

    fn reference(source: &str) -> LintRef {
        let a = parc_analyze::analyze(source);
        let s = course::assessment::score_analysis(&a, &AutoMarkRubric::default());
        LintRef {
            codes: a.diagnostics.iter().map(|d| d.code).collect(),
            mark: s.mark,
            parsed: s.parsed,
        }
    }

    #[test]
    fn lint_oracle_accepts_a_distinct_copy_and_rejects_corruption() {
        let rubric = AutoMarkRubric::default();
        for program in parc_analyze::genprog::generate(0x11, 40) {
            let expect = reference(&program.source);
            let distinct = format!("{}// submission 0-1\n", program.source);
            let out = auto_mark(&distinct, &rubric);
            assert_eq!(check_lint(&out, &expect), Ok(()), "{}", program.family);

            let mut wrong_mark = out.clone();
            wrong_mark.mark = 101.0;
            assert!(check_lint(&wrong_mark, &expect).is_err());
            let mut dropped = out.clone();
            dropped.notes.clear();
            if !expect.codes.is_empty() {
                assert!(check_lint(&dropped, &expect).is_err());
            }
        }
        let clean = reference("x = 1;\n");
        let mut extra = auto_mark("x = 1;\n", &rubric);
        extra
            .notes
            .push("correctness: E001 (line 1) — injected".into());
        assert!(check_lint(&extra, &clean).is_err());
    }

    #[test]
    fn cell_oracle_rejects_a_corrupted_report() {
        let rt = partask::TaskRuntime::builder().workers(2).build();
        let cfg = course::PipelineConfig {
            seed: 7,
            shards: 4,
            markers: 2,
            batch_per_marker: 40,
            queue_cap: 120,
            arrival_ticks: 12,
            drain_max_ticks: 10,
            spot_every: 64,
            students: 100,
            ..course::PipelineConfig::default()
        };
        let arrival = parc_loadgen::ArrivalProcess::PoissonSteady { rate: 50.0 };
        let storm = faultsim::FaultStorm::burst(0xB00);
        let mut cell = course::run_cell(
            &rt,
            &arrival,
            &storm,
            &cfg,
            &parc_trace::TraceHandle::disabled(),
        );
        rt.shutdown();
        let fp = cell.fingerprint();
        assert!(check_cell(&cell, fp).is_empty());
        assert!(
            !check_cell(&cell, fp ^ 1).is_empty(),
            "another run's fingerprint"
        );

        cell.duplicates = 1;
        assert!(!check_cell(&cell, cell.fingerprint()).is_empty());
        cell.duplicates = 0;
        cell.spot_missed = 1;
        assert!(!check_cell(&cell, cell.fingerprint()).is_empty());
        cell.spot_missed = 0;
        cell.marked -= 1;
        assert!(
            !check_cell(&cell, cell.fingerprint()).is_empty(),
            "a lost submission"
        );
    }

    #[test]
    fn note_codes_are_recognised() {
        assert_eq!(note_code("style: W101 (line 3) — race"), Some("W101"));
        assert_eq!(
            note_code("correctness: E006 (line 9) — deadlock"),
            Some("E006")
        );
        assert_eq!(note_code("submission did not parse; mark capped"), None);
    }

    #[test]
    fn projects_oracles_reject_corrupted_outputs() {
        let want: Vec<u64> = (0..100).collect();
        let mut got = want.clone();
        assert!(check_equal("sort", &got, &want).is_ok());
        got.swap(3, 4);
        assert!(check_equal("sort", &got, &want).is_err());
        assert!(check_err("fft", 1e-12, 1e-9).is_ok());
        assert!(check_err("fft", 1e-3, 1e-9).is_err());
        assert!(check_err("pi", f64::NAN, 1e-9).is_err());
    }
}
