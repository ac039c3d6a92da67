//! `ibwan-sim` — run declarative cluster-of-clusters experiments from JSON
//! scenario files.
//!
//! ```text
//! ibwan-sim scenario1.json [scenario2.json ...]   # run scenarios
//! ibwan-sim --sweep scenario.json                  # rerun across the paper's
//!                                                  # delay sweep (0..10 ms)
//! ibwan-sim --example                              # print a sample scenario
//! ibwan-sim --json scenario.json                   # emit results as JSON
//! ibwan-sim --no-coalescing scenario.json          # per-fragment, per-hop wire path
//! ibwan-sim --seed N scenario.json                 # offset scenario seeds
//! ```
//!
//! All flags are parsed into one [`RunConfig`] before any scenario runs —
//! flag order never matters, and `--no-coalescing` is a plain config field
//! (results are identical either way; timing A/B only).
//! Unknown or duplicate flags, a scenario file that cannot be read and one
//! the parser rejects exit 2.

use ibwan_core::runner;
use ibwan_core::scenario::{example_scenario, Scenario};
use ibwan_core::RunConfig;

fn bad_usage(msg: &str) -> ! {
    eprintln!("ibwan-sim: {msg}");
    eprintln!("usage: ibwan-sim [--json] [--sweep] [--no-coalescing] [--seed N] SCENARIO.json ...");
    eprintln!("       ibwan-sim --example   # print a sample scenario file");
    std::process::exit(2);
}

fn main() {
    let mut cfg = RunConfig::default();
    let mut as_json = false;
    let mut sweep = false;
    let mut example = false;
    let mut files: Vec<String> = Vec::new();
    let mut seen: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1).peekable();
    if args.peek().is_none() {
        bad_usage("no scenario files given (try --example)");
    }
    let once = |seen: &mut Vec<String>, flag: &str| {
        if seen.iter().any(|s| s == flag) {
            bad_usage(&format!("duplicate flag {flag}"));
        }
        seen.push(flag.to_string());
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => {
                once(&mut seen, "--json");
                as_json = true;
            }
            "--sweep" => {
                once(&mut seen, "--sweep");
                sweep = true;
            }
            "--no-coalescing" => {
                once(&mut seen, "--no-coalescing");
                cfg.coalescing = false;
            }
            "--seed" => {
                once(&mut seen, "--seed");
                let v = args
                    .next()
                    .unwrap_or_else(|| bad_usage("--seed needs a number"));
                cfg.seed = v
                    .parse()
                    .unwrap_or_else(|_| bad_usage(&format!("--seed: not a number: {v:?}")));
            }
            "--example" => {
                once(&mut seen, "--example");
                example = true;
            }
            "--help" | "-h" => {
                println!(
                    "usage: ibwan-sim [--json] [--sweep] [--no-coalescing] [--seed N] SCENARIO.json ..."
                );
                println!("       ibwan-sim --example   # print a sample scenario file");
                return;
            }
            other if other.starts_with('-') => bad_usage(&format!("unknown flag {other:?}")),
            other => files.push(other.to_string()),
        }
    }
    if example {
        println!("{}", example_scenario().to_json());
        return;
    }
    if files.is_empty() {
        bad_usage("no scenario files given (try --example)");
    }

    let mut results = Vec::new();
    for file in &files {
        let text = std::fs::read_to_string(file).unwrap_or_else(|e| {
            eprintln!("ibwan-sim: cannot read {file}: {e}");
            std::process::exit(2);
        });
        let scenario = Scenario::from_json(&text).unwrap_or_else(|e| {
            eprintln!("ibwan-sim: cannot parse {file}: {e}");
            std::process::exit(2);
        });
        let variants: Vec<Scenario> = if sweep {
            ibwan_core::PAPER_DELAYS_US
                .iter()
                .map(|&d| {
                    let mut v = scenario.clone();
                    v.name = format!("{}@{}us", scenario.name, d);
                    v.topology.delay_us = d;
                    v
                })
                .collect()
        } else {
            vec![scenario]
        };
        for v in variants {
            // Same tally capture + provenance stamp as `repro --json`.
            let (result, prov) = runner::run_scenario(&v, &cfg);
            if as_json {
                let mut value = result.to_value();
                if let minijson::Value::Obj(members) = &mut value {
                    members.push(("provenance".into(), prov.to_value()));
                }
                results.push(value);
            } else {
                println!(
                    "{:<36} {:>14} = {:>12.2} {:<8} ({:.2}s wall)",
                    result.name, result.metric, result.value, result.unit, prov.wall_secs
                );
            }
        }
    }
    if as_json {
        let arr = minijson::Value::Arr(results);
        println!("{}", arr.to_pretty());
    }
}
