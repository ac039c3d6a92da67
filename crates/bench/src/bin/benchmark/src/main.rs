//! `benchmark` — the repository benchmark: whole-catalog workloads timed end
//! to end, per-layer probes, and a comparison rule for judging a change.
//!
//! ```text
//! benchmark [run|trace] --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! benchmark compare PARENT_DIR CHANGE_DIR
//!
//!   run      untraced passes for S seconds (default: run_seconds in
//!            BENCHMARK.json); prints the end-to-end metrics
//!   trace    one traced pass plus the layer probes (same as --trace 1);
//!            prints the per-layer metrics and writes a Chrome trace file
//!   compare  judge saved `run` outputs of a change against its parent
//!   --seed N inputs for this run; 0 also checks every output against the
//!            checked-in goldens
//! ```
//!
//! The last line of `run` and `trace` output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. The exit code is nonzero
//! if any output failed its checks, and 2 on bad usage.
//!
//! Workload names, metrics and bounds come from the repository's
//! `BENCHMARK.json`; what each workload runs comes from `workloads.json`
//! in this directory. Both are compiled in.

mod compare;
mod measure;
mod probes;
mod spec;
mod trace;
mod workload;

use std::process::ExitCode;

const USAGE: &str = "usage: benchmark [run|trace] --workload NAME [--seed N] [--seconds S] \
                     [--trace 0|1]\n       benchmark compare PARENT_DIR CHANGE_DIR";

/// A parsed `run` / `trace` command line.
pub struct Cli {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_cli(args: &[String], spec: &spec::Spec) -> Result<Cli, String> {
    let mut args = args.iter().map(String::as_str).peekable();
    let mut trace = match args.peek() {
        Some(&"run") => {
            args.next();
            false
        }
        Some(&"trace") => {
            args.next();
            true
        }
        _ => false,
    };
    let (mut workload, mut seed, mut seconds, mut trace_flag) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let slot = match flag {
            "--workload" => &mut workload,
            "--seed" => &mut seed,
            "--seconds" => &mut seconds,
            "--trace" => &mut trace_flag,
            other => return Err(format!("unknown argument {other:?}")),
        };
        if slot.is_some() {
            return Err(format!("duplicate flag {flag}"));
        }
        *slot = Some(args.next().ok_or(format!("{flag} needs a value"))?);
    }
    let workload = workload.ok_or("--workload is required")?;
    if spec.workload(workload).is_none() {
        let names: Vec<&str> = spec.workloads.iter().map(|w| w.name.as_str()).collect();
        return Err(format!(
            "unknown workload {workload:?} (one of {})",
            names.join(", ")
        ));
    }
    match trace_flag {
        None | Some("0") => {}
        Some("1") => trace = true,
        Some(other) => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    }
    let seconds = match seconds {
        None => spec.run_seconds as f64,
        Some(s) => s
            .parse::<f64>()
            .ok()
            .filter(|s| s.is_finite() && *s >= 0.0)
            .ok_or(format!("--seconds: not a duration: {s:?}"))?,
    };
    let seed = match seed {
        None => 0,
        Some(s) => s
            .parse()
            .map_err(|_| format!("--seed: not a number: {s:?}"))?,
    };
    Ok(Cli {
        workload: workload.to_string(),
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let spec = match spec::Spec::load() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("benchmark: bad embedded definition: {e}");
            return ExitCode::FAILURE;
        }
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare::main(&spec, &args[1..]);
    }
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    match parse_cli(&args, &spec) {
        Ok(cli) => workload::main(&spec, &cli),
        Err(msg) => {
            eprintln!("benchmark: {msg}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Cli, String> {
        let args: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        parse_cli(&args, &spec::Spec::load().unwrap())
    }

    #[test]
    fn flag_and_subcommand_forms_parse() {
        let c = parse("--workload nas --seed 3 --seconds 25 --trace 1").unwrap();
        assert_eq!(
            (c.workload.as_str(), c.seed, c.seconds, c.trace),
            ("nas", 3, 25.0, true)
        );
        let c = parse("run --workload repro-quick").unwrap();
        assert_eq!((c.seed, c.trace), (0, false));
        assert!(parse("trace --workload repro-quick").unwrap().trace);
    }

    #[test]
    fn bad_command_lines_are_rejected() {
        for bad in [
            "",
            "--workload nope",
            "--workload nas --seed x",
            "--workload nas --trace 2",
            "--workload nas --seed 1 --seed 2",
            "--workload nas --serial",
            "--workload",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} accepted");
        }
    }
}
