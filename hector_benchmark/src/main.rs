//! `hector_benchmark`: the repository's benchmark (see README.md beside
//! this package and `BENCHMARK.json` at the repository root).
//!
//! ```text
//! hector_benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                  [--out runs.jsonl] [--trace-out trace.json] [--quick]
//! hector_benchmark --workload all ...      one process per workload, both metric sets
//! hector_benchmark --compare a.jsonl b.jsonl
//! ```
//!
//! One workload per process, so peak memory belongs to that workload.
//! The last line on stdout is the result object the driver reads.

mod catalog;
mod compare;
mod json;
mod phases;
mod run;
mod spans;
mod stats;

use std::io::Write;
use std::process::ExitCode;

use catalog::{MetricDef, Workload, END_TO_END, PER_LAYER, WORKLOADS};
use json::Json;

const USAGE: &str = "usage: hector_benchmark --workload <name|all> --seed <u64> [--seconds <n>] \
[--trace <0|1>] [--out <runs.jsonl>] [--trace-out <trace.json>] [--quick]\n       \
hector_benchmark --compare <a.jsonl> <b.jsonl>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
    trace_out: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 20.0,
        trace: false,
        out: None,
        trace_out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            args.seconds = 2.0;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: cannot read '{value}'");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err(format!("--seconds must be in (0, 60], got {value}"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => args.out = Some(value.clone()),
            "--trace-out" => args.trace_out = Some(value.clone()),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // The library reads HECTOR_THREADS, HECTOR_BACKEND, HECTOR_TRACE and
    // friends as defaults; a stray one would silently reconfigure what
    // is measured.
    if let Some((name, _)) =
        std::env::vars_os().find(|(k, _)| k.to_string_lossy().starts_with("HECTOR_"))
    {
        eprintln!(
            "hector_benchmark: refusing to run with {} set; the benchmark states its \
             configuration itself, unset every HECTOR_* variable",
            name.to_string_lossy()
        );
        return ExitCode::from(2);
    }
    if argv.first().map(String::as_str) == Some("--compare") {
        return match argv.as_slice() {
            [_, a, b] => compare::run(a, b),
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hector_benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(w) = catalog::workload(&args.workload) else {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "hector_benchmark: no workload '{}' (have: all, {})",
            args.workload,
            names.join(", ")
        );
        return ExitCode::from(2);
    };
    match run_one(w, &args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("hector_benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs one workload in this process and prints the report; `Ok(false)`
/// when a correctness check failed.
fn run_one(w: &Workload, args: &Args) -> Result<bool, String> {
    let outcome = run::run(w, args.seed, args.seconds, args.trace).map_err(|e| e.to_string())?;
    let table: &[MetricDef] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let correct = outcome.tally.mismatches.is_empty();

    println!("why: {}", w.why);
    println!(
        "workload {} seed {} seconds {} trace {} | nproc {} matmul {:.2} GFLOP/s stream {:.2} GB/s",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        outcome.host.nproc,
        outcome.host.matmul_gflops,
        outcome.host.stream_gbps
    );
    println!(
        "training rounds {} | requests {} | operations attempted {} failed {}",
        outcome.rounds, outcome.requests, outcome.tally.attempted, outcome.tally.failed
    );
    for m in table {
        let better = if m.higher { "higher" } else { "lower" };
        match outcome.metrics.get(m.name) {
            Some(v) => println!(
                "{:<36} {v:>14.4} {:<8} ({better} is better)",
                m.name, m.unit
            ),
            None => println!("{:<36} {:>14} (not measured on this workload)", m.name, "-"),
        }
    }
    println!("samples behind the medians (n, q1, median, q3):");
    for (name, values) in &outcome.samples {
        if let Some((q1, q3)) = stats::quartiles(values) {
            println!(
                "  {:<34} n={:<5} {:>10.3} {:>10.3} {:>10.3}",
                name,
                values.len(),
                q1,
                stats::median(values),
                q3
            );
        }
    }
    if args.trace {
        println!("benchmark-side spans (count, total ms, self ms):");
        for (name, (count, total, own)) in spans::by_name(&outcome.spans) {
            println!("  {name:<42} {count:>6} {total:>12.2} {own:>12.2}");
        }
    }
    for m in &outcome.tally.mismatches {
        println!("MISMATCH: {m}");
    }

    // The driver wants every metric of the set in every result; one that
    // was not measured (the table above says which) reads 0 there.
    let metrics = Json::Obj(
        table
            .iter()
            .map(|m| {
                let value = Json::Num(outcome.metrics.get(m.name).unwrap_or(0.0));
                (
                    m.name.to_string(),
                    Json::obj([("value", value), ("unit", Json::str(m.unit))]),
                )
            })
            .collect(),
    );
    let result = [
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(outcome.tally.attempted as f64)),
        ("failed", Json::Num(outcome.tally.failed as f64)),
        ("metrics", metrics),
    ];
    if let Some(path) = &args.out {
        let mut doc = vec![
            ("workload".to_string(), Json::str(w.name)),
            ("seed".to_string(), Json::Str(args.seed.to_string())),
            ("seconds".to_string(), Json::Num(args.seconds)),
            (
                "trace".to_string(),
                Json::Num(f64::from(u8::from(args.trace))),
            ),
            ("nproc".to_string(), Json::Num(outcome.host.nproc as f64)),
            ("rounds".to_string(), Json::Num(outcome.rounds as f64)),
            (
                "tensor.matmul_gflops".to_string(),
                Json::Num(outcome.host.matmul_gflops),
            ),
            (
                "host.stream_gbps".to_string(),
                Json::Num(outcome.host.stream_gbps),
            ),
        ];
        doc.extend(result.iter().map(|(k, v)| (k.to_string(), v.clone())));
        append_line(path, &Json::Obj(doc).render())?;
    }
    if let (true, Some(path)) = (args.trace, &args.trace_out) {
        std::fs::write(path, spans::chrome_trace(&outcome.spans).render())
            .map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{}", Json::obj(result).render());
    Ok(correct)
}

fn append_line(path: &str, line: &str) -> Result<(), String> {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("{path}: {e}"))?;
    writeln!(f, "{line}").map_err(|e| format!("{path}: {e}"))
}

/// `--workload all`: this executable once per workload and metric set,
/// each in a process of its own, then every metric by name and unit.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("hector_benchmark: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    let mut rows = Vec::new();
    for w in &WORKLOADS {
        for trace in ["0", "1"] {
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["--workload", w.name, "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()]);
            if let Some(out) = &args.out {
                cmd.args(["--out", out]);
            }
            eprintln!("running {} --trace {trace} ...", w.name);
            let text = cmd
                .output()
                .map(|o| String::from_utf8_lossy(&o.stdout).into_owned())
                .unwrap_or_default();
            let Some(result) = text.lines().last().and_then(|l| Json::parse(l).ok()) else {
                eprintln!(
                    "hector_benchmark: {} --trace {trace} printed no result",
                    w.name
                );
                ok = false;
                continue;
            };
            ok &= result.get("correct") == Some(&Json::Bool(true));
            let count = |key| result.get(key).and_then(Json::as_f64).unwrap_or(0.0);
            rows.push(format!(
                "{:<12} {:<36} {} of {}",
                w.name,
                "operations failed",
                count("failed"),
                count("attempted")
            ));
            // The child's own metric table, which also says what it did
            // not measure.
            let is_metric = |line: &&str| {
                let name = line.split(' ').next().unwrap_or("");
                END_TO_END.iter().chain(&PER_LAYER).any(|m| m.name == name)
            };
            for line in text.lines().filter(is_metric) {
                rows.push(format!("{:<12} {line}", w.name));
            }
        }
    }
    for row in rows {
        println!("{row}");
    }
    println!(
        "{}",
        if ok {
            "all correctness checks passed"
        } else {
            "FAILED"
        }
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_arguments_parse() {
        let a = parse_args(&argv(
            "--workload full_gemm --seed 7 --seconds 20 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("full_gemm", 7, 20.0, true)
        );
        assert_eq!(
            parse_args(&argv("--workload x --quick")).unwrap().seconds,
            2.0
        );
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(parse_args(&argv("--seed 1")).is_err());
        assert!(parse_args(&argv("--workload x --trace 2")).is_err());
        assert!(parse_args(&argv("--workload x --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload x --seed")).is_err());
        assert!(parse_args(&argv("--workload x --bogus 1")).is_err());
    }
}
