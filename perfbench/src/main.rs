//! The DIADS benchmark: two workloads over seeded fault-plan tenants,
//! five end-to-end metrics each, and a traced run for the per-layer metrics.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <periodic|cold|all> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics untraced, the
//! per-layer metrics with `--trace 1`. The line before it describes the run:
//! sample counts, host-noise readings, failed checks. `--workload all` runs
//! each workload in a child process of its own (so each has its own peak
//! RSS) and prints their results under `<workload>.<metric>`.

mod cold;
mod host;
mod measure;
mod periodic;
mod record;
mod tenants;
mod trace;
mod workload;

use std::process::{Command, ExitCode};

use diads_core::jsonio::Json;

use workload::{Args, Report, Workload, TENANTS};

const USAGE: &str = "usage: perfbench --workload <periodic|cold|all> --seed <n> --seconds <n> --trace <0|1>";

/// Parsed command line: `None` as the workload means all of them.
struct Cli {
    workload: Option<Workload>,
    args: Args,
}

fn parse(argv: &[String]) -> Result<Cli, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" if value == "all" => workload = Some(None),
            "--workload" => workload = Some(Some(Workload::parse(value).ok_or_else(bad)?)),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Cli {
        workload: workload.ok_or("--workload is required")?,
        args: Args {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        },
    })
}

fn run_one(workload: Workload, args: &Args) {
    let probe = host::Probe::start();
    let mut report: Report = match workload {
        Workload::Periodic => periodic::run(args),
        Workload::Cold => cold::run(args),
    };
    if !args.trace {
        report.end_to_end();
    }
    let trace_file = report.trace.as_ref().and_then(|rec| {
        let dir = std::env::current_exe().ok()?.parent()?.join("perfbench-traces");
        let path = dir.join(format!("{}-seed{}.json", workload.name(), args.seed));
        match rec.tracer.write_json(&path) {
            Ok(()) => Some(path.display().to_string()),
            Err(e) => {
                eprintln!("perfbench: could not write the trace: {e}");
                None
            }
        }
    });
    for note in &report.notes {
        eprintln!("perfbench: {note}");
    }
    let quote = |s: &str| format!("{s:?}");
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"tenants\": {TENANTS}, \"fresh_samples\": {}, \"trace_file\": {}, \"problems\": [{}], \"host\": {}}}",
        workload.name(),
        args.seed,
        u8::from(args.trace),
        quote(&report.fresh_samples),
        trace_file.as_deref().map_or("null".to_string(), quote),
        report.out.problems.iter().map(|p| quote(p)).collect::<Vec<_>>().join(", "),
        probe.finish(),
    );
    println!("{}", report.out.to_json());
}

/// Runs every workload in a child process and merges their result lines,
/// prefixing each metric with its workload's name.
fn run_all(argv: &[String]) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all = measure::Outcome::default();
    let mut correct = true;
    for w in Workload::ALL {
        let mut child_args = argv.to_vec();
        let at = child_args.iter().position(|a| a == "--workload").expect("parsed") + 1;
        child_args[at] = w.name().to_string();
        let output = Command::new(&exe).args(&child_args).output().map_err(|e| e.to_string())?;
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        if !output.status.success() {
            return Err(format!("{} exited with {}", w.name(), output.status));
        }
        let stdout = String::from_utf8_lossy(&output.stdout);
        let lines: Vec<&str> = stdout.lines().collect();
        let [.., info, result] = lines[..] else { return Err(format!("{} printed no result", w.name())) };
        println!("{info}\n{result}");
        let doc = Json::parse(result)?;
        let count = |key| doc.get(key).and_then(Json::as_f64).map_or(0, |v| v as u64);
        correct &= doc.get("correct").and_then(Json::as_bool) == Some(true);
        all.attempted += count("attempted");
        all.failed += count("failed");
        let Some(Json::Obj(metrics)) = doc.get("metrics") else { return Err("no metrics".into()) };
        for (name, m) in metrics {
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            all.push(
                &format!("{}.{name}", w.name()),
                value,
                m.get("unit").and_then(Json::as_str).unwrap_or(""),
            );
        }
    }
    if !correct {
        all.problem("a workload was incorrect".into());
    }
    println!("{}", all.to_json());
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&argv) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match cli.workload {
        Some(w) => run_one(w, &cli.args),
        None => {
            if let Err(e) = run_all(&argv) {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let cli = parse(&argv("--workload periodic --seed 42 --seconds 10 --trace 1")).expect("valid");
        assert_eq!(cli.workload, Some(Workload::Periodic));
        assert_eq!((cli.args.seed, cli.args.seconds, cli.args.trace), (42, 10.0, true));
        assert_eq!(
            parse(&argv("--workload all --seed 1 --seconds 1 --trace 0")).expect("valid").workload,
            None
        );
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload cold --seed -1 --seconds 1 --trace 0",
            "--workload cold --seed 1 --seconds 0 --trace 0",
            "--workload cold --seed 1 --seconds 1 --trace 2",
            "--workload cold --seed 1 --seconds 1",
            "--workload cold --seed 1 --seconds 1 --trace 0 --extra 1",
        ] {
            assert!(parse(&argv(bad)).is_err(), "{bad}");
        }
    }
}

#[cfg(test)]
mod benchmark_json {
    use super::*;
    use measure::{valid_name, valid_unit, Outcome};
    use record::{OpCounts, Recorder};

    fn entries(doc: &Json, key: &str) -> Vec<(String, String)> {
        let list =
            doc.get(key).and_then(Json::as_array).unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"));
        list.iter()
            .map(|m| {
                let field = |f| m.get(f).and_then(Json::as_str).unwrap_or_default().to_string();
                (field("name"), field(if key == "workloads" { "why" } else { "unit" }))
            })
            .collect()
    }

    fn emitted(out: &Outcome) -> Vec<(String, String)> {
        out.metrics.iter().map(|m| (m.name.clone(), m.unit.clone())).collect()
    }

    #[test]
    fn names_are_valid_and_match_what_the_benchmark_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
            .expect("valid JSON");

        let workloads = entries(&doc, "workloads");
        let end_to_end = entries(&doc, "end_to_end");
        let per_layer = entries(&doc, "per_layer");
        for (name, why) in &workloads {
            assert!(valid_name(name) && !why.is_empty() && why.len() <= 200 && !why.contains('\n'), "{name}");
        }
        for (name, unit) in end_to_end.iter().chain(&per_layer) {
            assert!(valid_name(name) && valid_unit(unit), "{name} {unit}");
        }
        let mut all: Vec<&String> =
            workloads.iter().chain(&end_to_end).chain(&per_layer).map(|(n, _)| n).collect();
        let count = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), count, "every name is used once");

        let names: Vec<&str> = workloads.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, Workload::ALL.map(Workload::name));

        let mut report = Report::new(1.0);
        report.end_to_end();
        assert_eq!(emitted(&report.out), end_to_end);

        let mut out = Outcome::default();
        Recorder::new(true).per_layer(&mut out, &OpCounts::default(), 0.0, 0.0);
        assert_eq!(emitted(&out), per_layer);
    }
}
