//! The benchmark's definition, embedded at build time from two files:
//!
//! - the repository's `BENCHMARK.json`: workload names and reasons, metric
//!   names, units, directions and regression bounds;
//! - `workloads.json` beside this crate: what each workload runs (catalog
//!   experiments or scenario points), its fidelity and set-up shape, the
//!   experiments no Full workload times (each with the reason), and the
//!   scenario probes `trace` times.
//!
//! Parsing validates both against each other and against the experiment
//! catalog, so a renamed experiment or a workload missing on either side
//! fails before anything runs.

use ibwan_core::scenario::Scenario;
use ibwan_core::Fidelity;
use minijson::Value;

const BENCHMARK_JSON: &str = include_str!("../../../../../../BENCHMARK.json");
const WORKLOADS_JSON: &str = include_str!("../workloads.json");

/// One metric declared in `BENCHMARK.json`.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// A golden value for a scenario: the point at `x` of series `series` in
/// the Full golden `results/<figure>.json`.
#[derive(Clone, Debug)]
pub struct GoldenPoint {
    pub figure: String,
    pub series: String,
    pub x: f64,
}

/// A scenario point, optionally tied to the golden figure it reproduces.
#[derive(Clone, Debug)]
pub struct ScenarioJob {
    pub scenario: Scenario,
    pub golden: Option<GoldenPoint>,
}

/// What one pass of a workload runs.
#[derive(Clone, Debug)]
pub enum Jobs {
    /// Catalog experiments, regenerated through the runner like `repro`.
    Experiments(Vec<String>),
    /// Scenario points, run one after another through `run_scenario`.
    Scenarios(Vec<ScenarioJob>),
}

/// The fabric `setup_s` constructs (and never runs).
#[derive(Copy, Clone, Debug)]
pub enum Setup {
    /// `MpiJob::build` of `n + n` ranks with the NAS FT program.
    MpiFt { ranks_per_cluster: usize },
    /// A two-site verbs RC pair with its queue pair connected.
    RcPair,
}

#[derive(Clone, Debug)]
pub struct Workload {
    pub name: String,
    pub fidelity: Fidelity,
    pub setup: Setup,
    pub jobs: Jobs,
}

/// A scenario `trace` times on its own, reported as `<name>.<suffix>`.
#[derive(Clone, Debug)]
pub struct Probe {
    pub name: String,
    pub job: ScenarioJob,
}

#[derive(Clone, Debug)]
pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<Workload>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub probes: Vec<Probe>,
}

impl Spec {
    /// The embedded definition.
    pub fn load() -> Result<Spec, String> {
        Spec::parse(BENCHMARK_JSON, WORKLOADS_JSON)
    }

    pub fn parse(benchmark_json: &str, workloads_json: &str) -> Result<Spec, String> {
        let bench = Value::parse(benchmark_json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let defs = Value::parse(workloads_json).map_err(|e| format!("workloads.json: {e}"))?;
        let run_seconds = bench
            .get("run_seconds")
            .and_then(Value::as_u64)
            .ok_or("BENCHMARK.json: missing run_seconds")?;
        let metrics = |key: &str| -> Result<Vec<Metric>, String> {
            array(&bench, key, "BENCHMARK.json")?
                .iter()
                .map(|m| {
                    Ok(Metric {
                        name: string(m, "name", key)?,
                        unit: string(m, "unit", key)?,
                        lower_is_better: match string(m, "better", key)?.as_str() {
                            "lower" => true,
                            "higher" => false,
                            other => return Err(format!("{key}: bad \"better\" {other:?}")),
                        },
                        bound: m.get("bound").and_then(Value::as_f64),
                    })
                })
                .collect()
        };
        let workload_defs = defs
            .get("workloads")
            .ok_or("workloads.json: missing \"workloads\"")?;
        let mut workloads = Vec::new();
        for w in array(&bench, "workloads", "BENCHMARK.json")? {
            let name = string(w, "name", "workloads")?;
            let def = workload_defs
                .get(&name)
                .ok_or_else(|| format!("workloads.json: no definition for {name:?}"))?;
            workloads.push(parse_workload(&name, def).map_err(|e| format!("{name}: {e}"))?);
        }
        if let Value::Obj(members) = workload_defs {
            for (name, _) in members {
                if !workloads.iter().any(|w| &w.name == name) {
                    return Err(format!("workloads.json: {name:?} is not in BENCHMARK.json"));
                }
            }
        }
        let probes = match defs.get("probes") {
            Some(Value::Obj(members)) => members
                .iter()
                .map(|(name, p)| {
                    Ok(Probe {
                        name: name.clone(),
                        job: parse_scenario_job(p).map_err(|e| format!("probe {name}: {e}"))?,
                    })
                })
                .collect::<Result<_, String>>()?,
            _ => return Err("workloads.json: missing \"probes\" object".into()),
        };
        untimed_at_full(&defs)?;
        Ok(Spec {
            run_seconds,
            workloads,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
            probes,
        })
    }

    pub fn workload(&self, name: &str) -> Option<&Workload> {
        self.workloads.iter().find(|w| w.name == name)
    }
}

/// The catalog ids `workloads.json` lists as regenerated by no Full
/// workload: too slow at Full for a pass short enough to repeat many times
/// in a run. Each maps to the reason.
fn untimed_at_full(defs: &Value) -> Result<Vec<String>, String> {
    let ids: Vec<String> = match defs.get("untimed_at_full") {
        None => Vec::new(),
        Some(Value::Obj(members)) => members.iter().map(|(id, _)| id.clone()).collect(),
        Some(_) => {
            return Err("workloads.json: \"untimed_at_full\" must map ids to reasons".into())
        }
    };
    let catalog: Vec<&str> = ibwan_core::catalog().iter().map(|e| e.id).collect();
    match ids.iter().find(|id| !catalog.contains(&id.as_str())) {
        Some(id) => Err(format!("untimed_at_full: unknown experiment id {id:?}")),
        None => Ok(ids),
    }
}

fn array<'a>(v: &'a Value, key: &str, file: &str) -> Result<&'a [Value], String> {
    v.get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{file}: missing array {key:?}"))
}

fn string(v: &Value, key: &str, ctx: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("{ctx}: missing string {key:?}"))
}

fn parse_workload(name: &str, def: &Value) -> Result<Workload, String> {
    let fidelity = match string(def, "fidelity", name)?.as_str() {
        "quick" => Fidelity::Quick,
        "full" => Fidelity::Full,
        other => return Err(format!("unknown fidelity {other:?}")),
    };
    let setup_def = def.get("setup").ok_or("missing \"setup\"")?;
    let setup = match string(setup_def, "kind", "setup")?.as_str() {
        "mpi_ft" => Setup::MpiFt {
            ranks_per_cluster: setup_def
                .get("ranks_per_cluster")
                .and_then(Value::as_u64)
                .filter(|&n| n > 0)
                .ok_or("setup: missing ranks_per_cluster")? as usize,
        },
        "rc_pair" => Setup::RcPair,
        other => return Err(format!("unknown setup kind {other:?}")),
    };
    let catalog: Vec<&str> = ibwan_core::catalog().iter().map(|e| e.id).collect();
    let jobs = match (def.get("experiments"), def.get("scenarios")) {
        (Some(Value::Str(all)), None) if all == "all" => {
            Jobs::Experiments(catalog.iter().map(|id| id.to_string()).collect())
        }
        (Some(Value::Arr(ids)), None) => {
            let ids = ids
                .iter()
                .map(|id| {
                    id.as_str()
                        .map(str::to_string)
                        .ok_or("non-string experiment id")
                })
                .collect::<Result<Vec<_>, _>>()?;
            for (i, id) in ids.iter().enumerate() {
                if !catalog.contains(&id.as_str()) {
                    return Err(format!("unknown experiment id {id:?}"));
                }
                if ids[..i].contains(id) {
                    return Err(format!("experiment {id:?} listed twice"));
                }
            }
            Jobs::Experiments(ids)
        }
        (None, Some(Value::Arr(points))) => Jobs::Scenarios(
            points
                .iter()
                .map(parse_scenario_job)
                .collect::<Result<Vec<_>, _>>()?,
        ),
        _ => return Err("needs \"experiments\" (array or \"all\") or \"scenarios\"".into()),
    };
    Ok(Workload {
        name: name.to_string(),
        fidelity,
        setup,
        jobs,
    })
}

fn parse_scenario_job(v: &Value) -> Result<ScenarioJob, String> {
    let scenario = Scenario::from_json(
        &v.get("scenario")
            .ok_or("missing \"scenario\"")?
            .to_compact(),
    )?;
    let golden = match v.get("golden") {
        None => None,
        Some(g) => match g.as_array() {
            Some([figure, series, x]) => Some(GoldenPoint {
                figure: figure.as_str().ok_or("golden: figure id")?.to_string(),
                series: series.as_str().ok_or("golden: series label")?.to_string(),
                x: x.as_f64().ok_or("golden: x value")?,
            }),
            _ => return Err("golden must be [figure, series, x]".into()),
        },
    };
    Ok(ScenarioJob { scenario, golden })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn embedded_definition_parses() {
        let spec = Spec::load().unwrap();
        assert!(spec.workloads.len() >= 2);
        assert!(spec.end_to_end.iter().all(|m| m.bound.is_some()));
        assert!(spec.end_to_end.iter().any(|m| m.name == "setup_s"));
    }

    /// Every registered experiment is either regenerated by exactly one Full
    /// workload or listed, with its reason, as untimed at Full, so a newly
    /// registered experiment fails here until it is assigned.
    #[test]
    fn full_workloads_and_untimed_list_partition_the_catalog() {
        let spec = Spec::load().unwrap();
        let untimed = untimed_at_full(&Value::parse(WORKLOADS_JSON).unwrap()).unwrap();
        let mut covered: Vec<&str> = spec
            .workloads
            .iter()
            .filter(|w| w.fidelity == Fidelity::Full)
            .flat_map(|w| match &w.jobs {
                Jobs::Experiments(ids) => ids.as_slice(),
                Jobs::Scenarios(_) => &[],
            })
            .chain(&untimed)
            .map(String::as_str)
            .collect();
        covered.sort_unstable();
        let mut catalog: Vec<&str> = ibwan_core::catalog().iter().map(|e| e.id).collect();
        catalog.sort_unstable();
        assert_eq!(covered, catalog);
    }

    #[test]
    fn mismatched_workload_names_are_rejected() {
        let bench = r#"{"run_seconds": 1, "workloads": [{"name": "a", "why": "x"}],
            "end_to_end": [], "per_layer": []}"#;
        let defs = r#"{"workloads": {"b": {}}, "probes": {}}"#;
        let err = Spec::parse(bench, defs).unwrap_err();
        assert!(err.contains("no definition for \"a\""), "{err}");
    }

    #[test]
    fn unknown_experiment_ids_are_rejected() {
        let bench = r#"{"run_seconds": 1, "workloads": [{"name": "a", "why": "x"}],
            "end_to_end": [], "per_layer": []}"#;
        let defs = r#"{"workloads": {"a": {"fidelity": "quick",
            "setup": {"kind": "rc_pair"}, "experiments": ["fig99"]}}, "probes": {}}"#;
        let err = Spec::parse(bench, defs).unwrap_err();
        assert!(err.contains("fig99"), "{err}");
        let defs = r#"{"workloads": {"a": {"fidelity": "quick",
            "setup": {"kind": "rc_pair"}, "experiments": ["fig3"]}}, "probes": {},
            "untimed_at_full": {"fig98": "gone"}}"#;
        let err = Spec::parse(bench, defs).unwrap_err();
        assert!(err.contains("fig98"), "{err}");
    }
}
