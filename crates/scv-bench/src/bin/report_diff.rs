//! Compare two RunReport JSONL files for performance regressions.
//!
//! ```text
//! cargo run --release -p scv-bench --bin report_diff -- \
//!     old.jsonl new.jsonl [--threshold PCT] [--json]
//! ```
//!
//! Reports are matched by `name` (e.g. `experiments/e9`, `verify/msi`)
//! together with their setup params, so two runs that share a name but
//! not a setup (`verify/msi` at 1 and at 4 threads) are never compared;
//! see [`pair`]. Every metric present in both sides of a matched pair is
//! compared under the [`scv_telemetry::direction_of`] heuristic: times and
//! waste counters regress when they grow past the threshold (default 10%),
//! throughput regresses when it shrinks, everything else is informational.
//! Exit code 1 iff any regression was flagged. Verdict changes are printed for
//! information but never flagged — correctness is the test suite's job,
//! this tool watches performance trends.
//!
//! `--json` replaces the human-readable table with one machine-readable
//! JSON document on stdout (same comparison, same exit codes).

use scv_telemetry::{parse_reports, Direction, Json, RunReport};
use std::collections::HashMap;
use std::process::ExitCode;

/// Params that record how a run ended rather than how it was set up. They
/// stay out of the matching key, so a run whose verdict changed still pairs.
const OUTCOME_PARAMS: &[&str] = &["interrupt"];

/// The identity a report is matched on: its name and its sorted setup params.
type Key = (String, Vec<(String, String)>);

fn key(r: &RunReport) -> Key {
    let mut params: Vec<(String, String)> = r
        .params
        .iter()
        .filter(|(k, _)| !OUTCOME_PARAMS.contains(&k.as_str()))
        .cloned()
        .collect();
    params.sort();
    (r.name.clone(), params)
}

/// The report's name, followed by its setup params when it has any.
fn label(r: &RunReport) -> String {
    let (name, params) = key(r);
    if params.is_empty() {
        return name;
    }
    let params: Vec<String> = params.iter().map(|(k, v)| format!("{k}={v}")).collect();
    format!("{name} [{}]", params.join(" "))
}

/// Pairs old reports with new ones of the same [`key`], returned as
/// `(pairs, unmatched old, unmatched new)` index lists. Within one key the
/// k-th last old report pairs with the k-th last new one, so a file diffed
/// against itself pairs every report with itself, and a rerun appended to
/// a file is the one its baseline is compared with.
fn pair(old: &[RunReport], new: &[RunReport]) -> (Vec<(usize, usize)>, Vec<usize>, Vec<usize>) {
    // (key, rank from the end) -> index
    let ranked = |reports: &[RunReport]| {
        let mut seen: HashMap<Key, usize> = HashMap::new();
        let mut out: Vec<(Key, usize)> = vec![Default::default(); reports.len()];
        for (i, r) in reports.iter().enumerate().rev() {
            let k = key(r);
            let rank = seen.entry(k.clone()).or_default();
            out[i] = (k, *rank);
            *rank += 1;
        }
        out
    };
    let mut new_at: HashMap<(Key, usize), usize> = ranked(new)
        .into_iter()
        .enumerate()
        .map(|(i, kr)| (kr, i))
        .collect();
    let (mut pairs, mut missing) = (Vec::new(), Vec::new());
    for (i, kr) in ranked(old).into_iter().enumerate() {
        match new_at.remove(&kr) {
            Some(j) => pairs.push((i, j)),
            None => missing.push(i),
        }
    }
    let mut added: Vec<usize> = new_at.into_values().collect();
    added.sort_unstable();
    (pairs, missing, added)
}

fn usage() -> ExitCode {
    eprintln!("usage: report_diff <old.jsonl> <new.jsonl> [--threshold PCT] [--json]");
    ExitCode::from(2)
}

fn load(path: &str) -> Result<Vec<RunReport>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_reports(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut paths = Vec::new();
    let mut threshold = 10.0f64;
    let mut json_out = false;
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json_out = true,
            "--threshold" => {
                let Some(v) = it.next() else {
                    return usage();
                };
                match v.parse::<f64>() {
                    Ok(t) if t >= 0.0 => threshold = t,
                    _ => {
                        eprintln!("error: --threshold must be a non-negative percentage");
                        return ExitCode::from(2);
                    }
                }
            }
            _ => paths.push(a.clone()),
        }
    }
    let [old_path, new_path] = paths.as_slice() else {
        return usage();
    };
    let (old, new) = match (load(old_path), load(new_path)) {
        (Ok(o), Ok(n)) => (o, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    let mut regressions = 0usize;
    let mut compared = 0usize;
    let mut report_docs: Vec<Json> = Vec::new();
    let mut missing: Vec<Json> = Vec::new();
    let (pairs, unmatched_old, unmatched_new) = pair(&old, &new);
    for &i in &unmatched_old {
        if json_out {
            missing.push(Json::Str(label(&old[i])));
        } else {
            println!("~ {}: missing from {new_path}", label(&old[i]));
        }
    }
    for &(i, j) in &pairs {
        let (o, n) = (&old[i], &new[j]);
        compared += 1;
        if !json_out {
            println!("== {} (threshold {threshold}%)", label(o));
            if o.verdict != n.verdict {
                println!("   verdict: {} -> {}", o.verdict, n.verdict);
            }
        }
        let mut metric_docs: Vec<Json> = Vec::new();
        for d in scv_telemetry::diff_reports(o, n, threshold) {
            let dir = match d.direction {
                Direction::LowerIsBetter => "↓better",
                Direction::HigherIsBetter => "↑better",
                Direction::Neutral => "info",
            };
            regressions += d.regression as usize;
            if json_out {
                metric_docs.push(Json::obj([
                    ("name".to_string(), Json::Str(d.name.clone())),
                    ("old".to_string(), Json::Num(d.old)),
                    ("new".to_string(), Json::Num(d.new)),
                    (
                        "pct".to_string(),
                        d.pct.map(Json::Num).unwrap_or(Json::Null),
                    ),
                    (
                        "direction".to_string(),
                        Json::Str(
                            match d.direction {
                                Direction::LowerIsBetter => "lower_is_better",
                                Direction::HigherIsBetter => "higher_is_better",
                                Direction::Neutral => "neutral",
                            }
                            .to_string(),
                        ),
                    ),
                    ("regression".to_string(), Json::Bool(d.regression)),
                ]));
            } else {
                let pct = d
                    .pct
                    .map(|p| format!("{p:+.1}%"))
                    .unwrap_or_else(|| "n/a".to_string());
                let flag = if d.regression { "  REGRESSION" } else { "" };
                println!(
                    "   {:<28} {:>14.2} -> {:>14.2}  {:>8} [{dir}]{flag}",
                    d.name, d.old, d.new, pct
                );
            }
        }
        if json_out {
            report_docs.push(Json::obj([
                ("name".to_string(), Json::Str(o.name.clone())),
                ("label".to_string(), Json::Str(label(o))),
                ("old_verdict".to_string(), Json::Str(o.verdict.clone())),
                ("new_verdict".to_string(), Json::Str(n.verdict.clone())),
                ("metrics".to_string(), Json::Arr(metric_docs)),
            ]));
        }
    }
    let mut added: Vec<Json> = Vec::new();
    for &j in &unmatched_new {
        if json_out {
            added.push(Json::Str(label(&new[j])));
        } else {
            println!("+ {}: new in {new_path}", label(&new[j]));
        }
    }
    if compared == 0 {
        eprintln!("error: no reports in common");
        return ExitCode::from(2);
    }
    if json_out {
        let doc = Json::obj([
            ("schema".to_string(), Json::Num(1.0)),
            ("threshold_pct".to_string(), Json::Num(threshold)),
            ("compared".to_string(), Json::Num(compared as f64)),
            ("regressions".to_string(), Json::Num(regressions as f64)),
            ("reports".to_string(), Json::Arr(report_docs)),
            ("missing".to_string(), Json::Arr(missing)),
            ("added".to_string(), Json::Arr(added)),
        ]);
        println!("{}", doc.to_string_compact());
    } else if regressions > 0 {
        println!("\n{regressions} regression(s) beyond {threshold}%");
    } else {
        println!("\nno regressions beyond {threshold}%");
    }
    if regressions > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(threads: u32, secs: f64) -> RunReport {
        RunReport::new("verify/msi")
            .param("threads", threads)
            .metric("elapsed_secs", secs)
    }

    #[test]
    fn reports_sharing_a_name_pair_by_setup() {
        // The same name at two setups, in a different order on each side:
        // each report pairs with its own setup, never with the other one.
        let old = [run(1, 1.0), run(4, 9.0), RunReport::new("experiments/e9")];
        let new = [run(4, 9.0), RunReport::new("experiments/e9"), run(1, 1.0)];
        let (pairs, missing, added) = pair(&old, &new);
        assert_eq!(pairs, [(0, 2), (1, 0), (2, 1)]);
        assert!(missing.is_empty() && added.is_empty());
        for (i, j) in pairs {
            assert_eq!(key(&old[i]), key(&new[j]));
        }
    }

    #[test]
    fn a_file_diffed_against_itself_pairs_every_report_with_itself() {
        let reports = [run(1, 1.0), run(1, 2.0), run(2, 3.0), run(1, 4.0)];
        let (pairs, missing, added) = pair(&reports, &reports);
        assert_eq!(pairs, [(0, 0), (1, 1), (2, 2), (3, 3)]);
        assert!(missing.is_empty() && added.is_empty());
    }

    #[test]
    fn a_rerun_appended_to_the_new_file_is_the_one_compared() {
        let old = [run(1, 1.0)];
        let new = [run(1, 1.0), run(1, 1.5)];
        let (pairs, missing, added) = pair(&old, &new);
        assert_eq!(pairs, [(0, 1)]);
        assert!(missing.is_empty());
        assert_eq!(added, [0]);
    }

    #[test]
    fn outcome_params_do_not_split_a_pair() {
        // A run that was cut by its budget still pairs with one that finished.
        let old = [run(1, 1.0).param("interrupt", "state cap reached")];
        let new = [run(1, 1.0)];
        let (pairs, missing, added) = pair(&old, &new);
        assert_eq!(pairs, [(0, 0)]);
        assert!(missing.is_empty() && added.is_empty());
        assert_eq!(label(&old[0]), "verify/msi [threads=1]");
    }

    #[test]
    fn unmatched_setups_are_missing_and_added() {
        let (pairs, missing, added) = pair(&[run(1, 1.0)], &[run(2, 1.0)]);
        assert!(pairs.is_empty());
        assert_eq!((missing, added), (vec![0], vec![0]));
    }
}
