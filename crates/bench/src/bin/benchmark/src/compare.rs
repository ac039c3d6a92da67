//! `benchmark compare PARENT CHANGE`: judge a change from two directories
//! of saved `benchmark run` outputs (stdout, one run per file).
//!
//! Runs pair up by workload and seed. Each end-to-end metric × workload is
//! reported as:
//!
//! - **unresolved** when the parent's own spread (interquartile range over
//!   median) is wider than the metric's bound, unless every change run reads
//!   better than every parent run;
//! - **regressed** when the change's median is worse than the parent's by
//!   more than the bound;
//! - **improved** when there are at least 10 pairs, the change wins at least
//!   9 in 10 of them (ties count for neither side), and the medians differ by
//!   more than the parent's interquartile range;
//! - **unchanged** otherwise.
//!
//! The command exits nonzero if anything regressed or if the change failed
//! more checks than the parent.

use crate::measure::quartiles;
use crate::spec::{Metric, Spec};
use minijson::Value;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::process::ExitCode;

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

/// One saved `run` output.
#[derive(Debug)]
struct Record {
    workload: String,
    seed: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

/// Parse a saved `benchmark run` stdout: the header line names the mode,
/// workload and seed; the last line is the result object. `None` for
/// anything else (trace outputs included).
fn parse_record(text: &str) -> Option<Record> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header = lines.next()?;
    let field = |key: &str| {
        header
            .split_whitespace()
            .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
    };
    if header.split_whitespace().next() != Some("benchmark") || field("mode")? != "run" {
        return None;
    }
    let result = Value::parse(lines.next_back()?).ok()?;
    let metrics = match result.get("metrics")? {
        Value::Obj(members) => members
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect(),
        _ => return None,
    };
    Some(Record {
        workload: field("workload")?.to_string(),
        seed: field("seed")?.parse().ok()?,
        failed: result.get("failed")?.as_u64()?,
        metrics,
    })
}

fn read_dir(dir: &Path) -> Result<Vec<Record>, String> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(|e| Some(e.ok()?.path()))
        .filter(|p| p.is_file())
        .collect();
    paths.sort();
    Ok(paths
        .iter()
        .filter_map(|p| parse_record(&std::fs::read_to_string(p).ok()?))
        .collect())
}

/// Judge one metric on one workload. `pairs` holds `(parent, change)`
/// values of runs that share a seed.
pub fn verdict(
    parent: &[f64],
    change: &[f64],
    pairs: &[(f64, f64)],
    bound: f64,
    lower_is_better: bool,
) -> Verdict {
    let better = |a: f64, b: f64| if lower_is_better { a < b } else { a > b };
    let (q1, parent_median, q3) = quartiles(parent);
    let change_median = quartiles(change).1;
    let iqr = q3 - q1;
    let every_change_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    if iqr / parent_median.abs() > bound && !every_change_better {
        return Verdict::Unresolved;
    }
    let worse_by = if lower_is_better {
        change_median - parent_median
    } else {
        parent_median - change_median
    } / parent_median.abs();
    if worse_by > bound {
        return Verdict::Regressed;
    }
    let wins = pairs.iter().filter(|&&(p, c)| better(c, p)).count();
    if pairs.len() >= 10
        && wins * 10 >= pairs.len() * 9
        && better(change_median, parent_median)
        && (change_median - parent_median).abs() > iqr
    {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

pub fn main(spec: &Spec, args: &[String]) -> ExitCode {
    let [parent_dir, change_dir] = args else {
        eprintln!("usage: benchmark compare PARENT_DIR CHANGE_DIR");
        return ExitCode::from(2);
    };
    let (parent, change) = match (
        read_dir(Path::new(parent_dir)),
        read_dir(Path::new(change_dir)),
    ) {
        (Ok(p), Ok(c)) => (p, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("benchmark compare: {e}");
            return ExitCode::from(2);
        }
    };
    let mut regressed = false;
    let mut lines = vec![format!(
        "{:<18} {:<12} {:>12} {:>12} {:>8} {:>6} {:>6}  verdict",
        "workload", "metric", "parent", "change", "delta", "pairs", "wins"
    )];
    for w in &spec.workloads {
        let p: Vec<&Record> = parent.iter().filter(|r| r.workload == w.name).collect();
        let c: Vec<&Record> = change.iter().filter(|r| r.workload == w.name).collect();
        if p.is_empty() || c.is_empty() {
            continue;
        }
        for m in &spec.end_to_end {
            if let Some((v, line)) = judge_metric(m, &p, &c) {
                regressed |= v == Verdict::Regressed;
                lines.push(line);
            }
        }
        let failed = |rs: &[&Record]| rs.iter().map(|r| r.failed).sum::<u64>();
        let (pf, cf) = (failed(&p), failed(&c));
        if cf > pf {
            lines.push(format!(
                "{:<18} failed checks: parent {pf}, change {cf}",
                w.name
            ));
            regressed = true;
        }
    }
    // A closed pipe (`compare ... | head`) only loses the report, never
    // the exit code.
    let mut out = std::io::stdout().lock();
    for line in &lines {
        let _ = writeln!(out, "{line}");
    }
    if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// The verdict for one metric on one workload's runs, with its report line.
fn judge_metric(m: &Metric, parent: &[&Record], change: &[&Record]) -> Option<(Verdict, String)> {
    let values = |rs: &[&Record]| -> Vec<f64> {
        rs.iter()
            .filter_map(|r| r.metrics.get(&m.name).copied())
            .collect()
    };
    let (pv, cv) = (values(parent), values(change));
    if pv.is_empty() || cv.is_empty() {
        return None;
    }
    let pairs: Vec<(f64, f64)> = parent
        .iter()
        .filter_map(|p| {
            let c = change.iter().find(|c| c.seed == p.seed)?;
            Some((*p.metrics.get(&m.name)?, *c.metrics.get(&m.name)?))
        })
        .collect();
    let bound = m.bound.expect("end-to-end metrics carry bounds");
    let v = verdict(&pv, &cv, &pairs, bound, m.lower_is_better);
    let wins = pairs
        .iter()
        .filter(|&&(p, c)| if m.lower_is_better { c < p } else { c > p })
        .count();
    let (pm, cm) = (quartiles(&pv).1, quartiles(&cv).1);
    let line = format!(
        "{:<18} {:<12} {:>12.5e} {:>12.5e} {:>7.1}% {:>6} {:>6}  {v:?}",
        parent[0].workload,
        m.name,
        pm,
        cm,
        100.0 * (cm - pm) / pm,
        pairs.len(),
        wins
    );
    Some((v, line))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(p: &[f64], c: &[f64]) -> Vec<(f64, f64)> {
        p.iter().copied().zip(c.iter().copied()).collect()
    }

    const PARENT: [f64; 10] = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0, 10.05];

    #[test]
    fn ten_clear_wins_beyond_the_spread_improve() {
        let change: Vec<f64> = PARENT.iter().map(|p| p * 0.8).collect();
        let v = verdict(&PARENT, &change, &pairs(&PARENT, &change), 0.1, true);
        assert_eq!(v, Verdict::Improved);
    }

    #[test]
    fn fewer_than_ten_pairs_never_improve() {
        let change: Vec<f64> = PARENT[..9].iter().map(|p| p * 0.8).collect();
        let v = verdict(
            &PARENT[..9],
            &change,
            &pairs(&PARENT[..9], &change),
            0.1,
            true,
        );
        assert_eq!(v, Verdict::Unchanged);
    }

    #[test]
    fn eight_wins_in_ten_is_not_enough() {
        let mut change: Vec<f64> = PARENT.iter().map(|p| p * 0.8).collect();
        change[0] = 11.0;
        change[1] = 11.0;
        let v = verdict(&PARENT, &change, &pairs(&PARENT, &change), 0.2, true);
        assert_eq!(v, Verdict::Unchanged);
    }

    #[test]
    fn a_gap_inside_the_parent_spread_is_unchanged() {
        // Every pair wins, but only by less than the parent's IQR.
        let change: Vec<f64> = PARENT.iter().map(|p| p - 0.01).collect();
        let v = verdict(&PARENT, &change, &pairs(&PARENT, &change), 0.1, true);
        assert_eq!(v, Verdict::Unchanged);
    }

    #[test]
    fn a_median_worse_by_more_than_the_bound_regresses() {
        let change: Vec<f64> = PARENT.iter().map(|p| p * 1.15).collect();
        let v = verdict(&PARENT, &change, &pairs(&PARENT, &change), 0.1, true);
        assert_eq!(v, Verdict::Regressed);
        // Higher-is-better metrics regress downward.
        let lower: Vec<f64> = PARENT.iter().map(|p| p * 0.85).collect();
        let v = verdict(&PARENT, &lower, &pairs(&PARENT, &lower), 0.1, false);
        assert_eq!(v, Verdict::Regressed);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0];
        let change = noisy.map(|p| p * 1.01);
        let v = verdict(&noisy, &change, &pairs(&noisy, &change), 0.1, true);
        assert_eq!(v, Verdict::Unresolved);
        // ...unless every change run beats every parent run.
        let clear = noisy.map(|_| 1.0);
        let v = verdict(&noisy, &clear, &pairs(&noisy, &clear), 0.1, true);
        assert_eq!(v, Verdict::Improved);
    }

    #[test]
    fn saved_outputs_parse_and_other_files_are_skipped() {
        let text = "benchmark mode=run workload=nas seed=7 seconds=25\npasses=2\n\
            {\"correct\":true,\"attempted\":10,\"failed\":0,\"metrics\":\
            {\"wall_s\":{\"value\":9.5,\"unit\":\"s\"}}}\n";
        let r = parse_record(text).unwrap();
        assert_eq!((r.workload.as_str(), r.seed, r.failed), ("nas", 7, 0));
        assert_eq!(r.metrics.get("wall_s"), Some(&9.5));
        assert!(parse_record(&text.replace("mode=run", "mode=trace")).is_none());
        assert!(parse_record("hello\n").is_none());
    }
}
