//! `--compare a.jsonl b.jsonl`: two sets of runs (files written by
//! `--out`, one run per line) judged by the bounds in `BENCHMARK.json`
//! (read from the working directory, the repository root).
//!
//! For every end-to-end metric on every workload, `b`'s median may be
//! worse than `a`'s by at most the metric's bound. Where either side's
//! own spread — first to third quartile over its median — is wider than
//! the bound, the pair is *unresolved*, not passed, unless every run of
//! `b` reads better than every run of `a`.

use std::collections::BTreeMap;
use std::process::ExitCode;

use crate::json::Json;
use crate::stats::{median, quartiles};

#[derive(Debug, PartialEq)]
pub enum Verdict {
    Pass,
    Unresolved,
    Regressed,
}

/// Quartile distance over the median; 0 with fewer than two runs.
fn spread(values: &[f64]) -> f64 {
    quartiles(values).map_or(0.0, |(q1, q3)| (q3 - q1) / median(values).abs())
}

pub fn judge(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let sign = if higher_is_better { -1.0 } else { 1.0 };
    let worse_by = sign * (median(b) - median(a)) / median(a).abs();
    if spread(a) > bound || spread(b) > bound {
        let worst_b = b.iter().map(|v| sign * v).fold(f64::MIN, f64::max);
        let best_a = a.iter().map(|v| sign * v).fold(f64::MAX, f64::min);
        return if worst_b < best_a {
            Verdict::Pass
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Pass
    }
}

/// `workload -> metric -> values` of the untraced runs in a `--out` file.
fn load(path: &str) -> Result<BTreeMap<String, BTreeMap<String, Vec<f64>>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let doc = Json::parse(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        if doc.get("trace").and_then(Json::as_f64) != Some(0.0) {
            continue;
        }
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}:{}: no workload", n + 1))?;
        for (name, m) in doc.get("metrics").map_or(&[][..], Json::as_obj) {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                runs.entry(workload.to_string())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(runs)
}

fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let manifest = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let manifest = Json::parse(&manifest).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut all_pass = true;
    println!(
        "{:<12} {:<20} {:>12} {:>8} {:>12} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "a median", "a iqr%", "b median", "b iqr%", "worse%", "bound%"
    );
    for (workload, a_metrics) in &a {
        for def in manifest.get("end_to_end").map_or(&[][..], Json::as_arr) {
            let name = def.get("name").and_then(Json::as_str).unwrap_or("");
            let bound = def.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let higher = def.get("better").and_then(Json::as_str) == Some("higher");
            let (Some(av), Some(bv)) = (
                a_metrics.get(name),
                b.get(workload).and_then(|m| m.get(name)),
            ) else {
                println!("{workload:<12} {name:<20} missing on one side");
                all_pass = false;
                continue;
            };
            let verdict = judge(av, bv, higher, bound);
            let sign = if higher { -1.0 } else { 1.0 };
            println!(
                "{:<12} {:<20} {:>12.4} {:>8.2} {:>12.4} {:>8.2} {:>8.2} {:>6.0}  {}",
                workload,
                name,
                median(av),
                100.0 * spread(av),
                median(bv),
                100.0 * spread(bv),
                100.0 * sign * (median(bv) - median(av)) / median(av).abs(),
                100.0 * bound,
                match verdict {
                    Verdict::Pass => "pass",
                    Verdict::Unresolved => "unresolved",
                    Verdict::Regressed => "REGRESSED",
                }
            );
            all_pass &= verdict == Verdict::Pass;
        }
    }
    Ok(all_pass && !a.is_empty())
}

pub fn run(a: &str, b: &str) -> ExitCode {
    match compare(a, b) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("hector_benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_runs_pass_within_the_bound_and_regress_beyond_it() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.05];
        assert_eq!(
            judge(&a, &[10.5, 10.6, 10.4, 10.5, 10.55], false, 0.10),
            Verdict::Pass
        );
        assert_eq!(
            judge(&a, &[11.5, 11.6, 11.4, 11.5, 11.55], false, 0.10),
            Verdict::Regressed
        );
        // Higher is better: a drop of 15 % regresses, a rise never does.
        assert_eq!(
            judge(&a, &[8.5, 8.6, 8.4, 8.5, 8.55], true, 0.10),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&a, &[12.0, 12.1, 11.9, 12.0, 12.05], true, 0.10),
            Verdict::Pass
        );
    }

    #[test]
    fn noisy_runs_are_unresolved_unless_every_run_is_better() {
        let noisy = [8.0, 12.0, 9.0, 11.0, 10.0];
        assert_eq!(
            judge(&noisy, &[9.0, 11.5, 10.0, 12.5, 8.5], false, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&noisy, &[5.0, 7.0, 6.0, 7.5, 5.5], false, 0.10),
            Verdict::Pass
        );
    }
}
