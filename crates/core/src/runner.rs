//! The unified experiment runner: schedules registry entries across a
//! bounded worker pool, stamps every result with provenance, and checks
//! regenerated figures, and the work that produced them, against recorded
//! goldens.
//!
//! Both binaries (`repro`, `ibwan_sim`) go through this module instead of
//! rolling their own loops, so progress reporting, worker counts, shape
//! checks, and the provenance block are identical everywhere. The runner's
//! pool is a [`crate::sweep::parallel_map`] pool, so it and the
//! per-experiment sweeps inside it share one sizing rule.

use crate::config::RunConfig;
use crate::registry::Experiment;
use crate::results::Figure;
use crate::sweep::parallel_map;
use ibfabric::fabric::{self, RunTally};
use minijson::Value;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Where one figure came from: the run context and engine evidence stamped
/// into every emitted JSON document.
#[derive(Clone, Debug)]
pub struct Provenance {
    /// [`RunConfig::digest`] of the producing config.
    pub config_digest: String,
    /// [`RunConfig::describe`] — the digest preimage, human-readable.
    pub config: String,
    /// The config's seed offset (0 = canonical golden trajectory).
    pub seed: u64,
    /// Fidelity name ("quick" / "full").
    pub fidelity: &'static str,
    /// Wall-clock seconds spent regenerating the figure.
    pub wall_secs: f64,
    /// Engine statistics accumulated while the figure ran (merged across
    /// every sweep worker the experiment used).
    pub tally: RunTally,
}

impl Provenance {
    /// Capture provenance for a run that just finished under `cfg`.
    pub fn capture(cfg: &RunConfig, wall_secs: f64, tally: RunTally) -> Self {
        Provenance {
            config_digest: cfg.digest(),
            config: cfg.describe(),
            seed: cfg.seed,
            fidelity: cfg.fidelity.name(),
            wall_secs,
            tally,
        }
    }

    /// The JSON block `stamped_value` appends under the `"provenance"` key.
    pub fn to_value(&self) -> Value {
        let c = &self.tally.counters;
        let num = |n: u64| Value::Num(n as f64);
        Value::Obj(vec![
            (
                "config_digest".into(),
                Value::from(self.config_digest.clone()),
            ),
            ("config".into(), Value::from(self.config.clone())),
            ("seed".into(), num(self.seed)),
            ("fidelity".into(), Value::from(self.fidelity)),
            ("wall_secs".into(), Value::Num(self.wall_secs)),
            (
                "engine".into(),
                Value::Obj(vec![
                    ("events_processed".into(), num(c.events_processed)),
                    ("events_allocated".into(), num(c.events_allocated)),
                    ("pool_hits".into(), num(c.pool_hits)),
                    ("peak_queue_len".into(), num(c.peak_queue_len)),
                    ("trains_emitted".into(), num(c.trains_emitted)),
                    ("fragments_coalesced".into(), num(c.fragments_coalesced)),
                    ("control_trains".into(), num(c.control_trains)),
                    ("control_coalesced".into(), num(c.control_coalesced)),
                    ("cal_fallback_hits".into(), num(c.cal_fallback_hits)),
                    (
                        "cal_bucket_occupancy".into(),
                        Value::Arr(c.cal_bucket_occupancy.iter().map(|&b| num(b)).collect()),
                    ),
                    ("runs".into(), num(self.tally.runs)),
                    ("topos_built".into(), num(self.tally.topos_built)),
                    // 16-hex-digit string: u64 digests overflow f64 precision.
                    (
                        "topo_digest".into(),
                        Value::from(format!("{:016x}", self.tally.topo_digest)),
                    ),
                    ("max_nodes".into(), num(self.tally.max_nodes)),
                ]),
            ),
        ])
    }
}

/// One regenerated figure plus the evidence of how it was produced.
pub struct RunOutcome {
    /// The experiment's catalog id.
    pub id: &'static str,
    /// The regenerated figure.
    pub figure: Figure,
    /// How it was produced.
    pub provenance: Provenance,
}

/// The figure's JSON tree with the provenance block appended. Readers that
/// predate provenance ([`Figure::from_json`]) ignore the extra key, so
/// stamped documents still round-trip.
pub fn stamped_value(figure: &Figure, prov: &Provenance) -> Value {
    let mut v = figure.to_value();
    if let Value::Obj(members) = &mut v {
        members.push(("provenance".into(), prov.to_value()));
    }
    v
}

/// Run one experiment under `cfg`: reset the engine tally, regenerate the
/// figure, verify its shape check, and capture provenance.
///
/// Panics if the experiment's shape check fails — a malformed figure means
/// a bug in the experiment, not bad user input.
pub fn run_one(e: &Experiment, cfg: &RunConfig) -> RunOutcome {
    fabric::reset_run_tally();
    let t0 = Instant::now();
    let figure = (e.run)(cfg);
    let wall_secs = t0.elapsed().as_secs_f64();
    let tally = fabric::take_run_tally();
    if let Some(check) = e.check {
        if let Err(msg) = check(&figure) {
            panic!("{}: shape check failed: {msg}", e.id);
        }
    }
    RunOutcome {
        id: e.id,
        figure,
        provenance: Provenance::capture(cfg, wall_secs, tally),
    }
}

/// Run one declarative [`crate::scenario::Scenario`] with the same tally
/// capture and provenance stamp as catalog experiments — `ibwan_sim` goes
/// through here so scenario JSON output is auditable exactly like
/// `repro --json` output.
pub fn run_scenario(
    s: &crate::scenario::Scenario,
    cfg: &RunConfig,
) -> (crate::scenario::ScenarioResult, Provenance) {
    fabric::reset_run_tally();
    let t0 = Instant::now();
    let result = s.run(cfg);
    let prov = Provenance::capture(cfg, t0.elapsed().as_secs_f64(), fabric::take_run_tally());
    (result, prov)
}

/// Run a set of experiments across a bounded worker pool.
///
/// Scheduling is cost-descending (the slowest experiment never starts
/// last), but results come back in input order. `progress` is called once
/// per completed experiment with a one-line summary — binaries stream it
/// to stderr so `--json`/stdout output stays machine-readable. The pool is
/// a [`parallel_map`] pool, sized by the same rule as every experiment's
/// own sweep. Worker panics re-raise the first payload in the caller after
/// every worker joins.
pub fn run_jobs<F>(jobs: Vec<Experiment>, cfg: &RunConfig, progress: F) -> Vec<RunOutcome>
where
    F: Fn(&str) + Sync,
{
    let n = jobs.len();
    // Claim order: indices sorted by declared cost, most expensive first.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(jobs[i].cost));
    let done = AtomicUsize::new(0);
    let mut outcomes = parallel_map(cfg, order, |i| {
        let out = run_one(&jobs[i], cfg);
        let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
        let points: usize = out.figure.series.iter().map(|s| s.points.len()).sum();
        progress(&format!(
            "[{finished}/{n}] {id}: {ns} series, {points} points in {secs:.2}s",
            id = out.id,
            ns = out.figure.series.len(),
            secs = out.provenance.wall_secs,
        ));
        (i, out)
    });
    outcomes.sort_unstable_by_key(|&(i, _)| i);
    outcomes.into_iter().map(|(_, out)| out).collect()
}

/// Compare a regenerated figure against a recorded golden, returning one
/// human-readable line per discrepancy (empty = bit-identical data).
///
/// Comparison is exact: the JSON number printer is round-trip exact, and
/// the simulation is deterministic, so any difference at all means the
/// config or code changed. Metadata (title, axis labels) is compared too —
/// a renamed series or relabeled axis is a golden change even if the
/// numbers agree.
pub fn diff_figures(expected: &Figure, got: &Figure) -> Vec<String> {
    let mut diffs = Vec::new();
    let id = &expected.id;
    if expected.id != got.id {
        diffs.push(format!("id: expected {:?}, got {:?}", expected.id, got.id));
    }
    if expected.title != got.title {
        diffs.push(format!(
            "{id}: title: expected {:?}, got {:?}",
            expected.title, got.title
        ));
    }
    if expected.x_label != got.x_label {
        diffs.push(format!(
            "{id}: x_label: expected {:?}, got {:?}",
            expected.x_label, got.x_label
        ));
    }
    if expected.y_label != got.y_label {
        diffs.push(format!(
            "{id}: y_label: expected {:?}, got {:?}",
            expected.y_label, got.y_label
        ));
    }
    for e in &expected.series {
        let Some(g) = got.series(&e.label) else {
            diffs.push(format!("{id}/{}: series missing from result", e.label));
            continue;
        };
        if e.points.len() != g.points.len() {
            diffs.push(format!(
                "{id}/{}: expected {} points, got {}",
                e.label,
                e.points.len(),
                g.points.len()
            ));
        }
        for (&(ex, ey), &(gx, gy)) in e.points.iter().zip(&g.points) {
            if ex != gx {
                diffs.push(format!(
                    "{id}/{}: x grid diverges: expected x={ex}, got x={gx}",
                    e.label
                ));
                break; // every later point would repeat the same story
            }
            if ey != gy {
                diffs.push(format!(
                    "{id}/{}: at x={ex}: expected {ey}, got {gy}",
                    e.label
                ));
            }
        }
    }
    for g in &got.series {
        if expected.series(&g.label).is_none() {
            diffs.push(format!("{id}/{}: unexpected extra series", g.label));
        }
    }
    diffs
}

/// The provenance `engine` counters that [`check_against`] compares with a
/// golden stamped under the run's own config: the work a figure's
/// simulations did, exact on any host and under any worker count. The
/// queue-internal counters (`peak_queue_len`, `cal_fallback_hits`, bucket
/// occupancy) say how the engine stored that work, not how much there was,
/// so they stay out of the check.
pub const WORK_COUNTERS: [&str; 5] = [
    "events_processed",
    "trains_emitted",
    "fragments_coalesced",
    "control_trains",
    "control_coalesced",
];

/// Compare the [`WORK_COUNTERS`] of a golden document with a regenerated
/// outcome, one line per counter that differs. Empty unless the golden
/// carries a provenance block whose `config_digest` is the outcome's: a
/// golden recorded under another config (`--no-coalescing`, another seed)
/// did different work for the same figure.
fn diff_work(golden: &Value, outcome: &RunOutcome) -> Vec<String> {
    let run = outcome.provenance.to_value();
    let same_config = |p: &&Value| p.get("config_digest") == run.get("config_digest");
    let Some(recorded) = golden.get("provenance").filter(same_config) else {
        return Vec::new();
    };
    let (expected, got) = (recorded.get("engine"), run.get("engine"));
    let show = |v: Option<&Value>| v.map_or_else(|| "no value".into(), Value::to_compact);
    WORK_COUNTERS
        .iter()
        .filter_map(|&name| {
            let e = expected.and_then(|v| v.get(name));
            let g = got.and_then(|v| v.get(name));
            (e != g).then(|| {
                let id = &outcome.figure.id;
                format!("{id}: {name}: expected {}, got {}", show(e), show(g))
            })
        })
        .collect()
}

/// Golden-check one outcome against `dir/<figure id>.json` — the same
/// filename `repro --json` writes (the figure id, which for extension
/// experiments is longer than the catalog id).
///
/// Figure data is always compared ([`diff_figures`]). When the golden was
/// stamped under the run's config, its [`WORK_COUNTERS`] are compared too,
/// so a change that turns fragment trains off or inflates the event count
/// fails even when every figure point survives it.
///
/// Returns the discrepancy lines (empty = pass). A missing or unparsable
/// golden file is itself a discrepancy, not a panic — `repro --check`
/// reports it and exits nonzero.
pub fn check_against(dir: &std::path::Path, outcome: &RunOutcome) -> Vec<String> {
    let path = dir.join(format!("{}.json", outcome.figure.id));
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            return vec![format!(
                "{}: cannot read golden {}: {e}",
                outcome.id,
                path.display()
            )]
        }
    };
    let parsed = Value::parse(&text).and_then(|v| Figure::from_value(&v).map(|f| (v, f)));
    let (golden, expected) = match parsed {
        Ok(g) => g,
        Err(e) => {
            return vec![format!(
                "{}: golden {} is malformed: {e}",
                outcome.id,
                path.display()
            )]
        }
    };
    let mut diffs = diff_figures(&expected, &outcome.figure);
    diffs.extend(diff_work(&golden, outcome));
    diffs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry;
    use crate::results::Series;
    use std::sync::Mutex;

    fn fig(id: &str, points: &[(f64, f64)]) -> Figure {
        let mut f = Figure::new(id, "t", "x", "y");
        let mut s = Series::new("s");
        for &(x, y) in points {
            s.push(x, y);
        }
        f.series.push(s);
        f
    }

    #[test]
    fn identical_figures_diff_clean() {
        let a = fig("f", &[(1.0, 2.0), (2.0, 4.0)]);
        assert!(diff_figures(&a, &a.clone()).is_empty());
    }

    #[test]
    fn perturbed_point_is_named_with_series_and_x() {
        let a = fig("f", &[(1.0, 2.0), (2.0, 4.0)]);
        let mut b = a.clone();
        b.series[0].points[1].1 = 4.5;
        let d = diff_figures(&a, &b);
        assert_eq!(d.len(), 1);
        assert!(d[0].contains("f/s"), "{d:?}");
        assert!(d[0].contains("x=2"), "{d:?}");
        assert!(d[0].contains("expected 4"), "{d:?}");
        assert!(d[0].contains("got 4.5"), "{d:?}");
    }

    #[test]
    fn missing_and_extra_series_are_reported() {
        let a = fig("f", &[(1.0, 2.0)]);
        let mut b = a.clone();
        b.series[0].label = "renamed".into();
        let d = diff_figures(&a, &b);
        assert!(d.iter().any(|l| l.contains("f/s") && l.contains("missing")));
        assert!(d
            .iter()
            .any(|l| l.contains("renamed") && l.contains("extra")));
    }

    #[test]
    fn metadata_changes_are_diffs() {
        let a = fig("f", &[(1.0, 2.0)]);
        let mut b = a.clone();
        b.y_label = "GB/s".into();
        let d = diff_figures(&a, &b);
        assert_eq!(d.len(), 1);
        assert!(d[0].contains("y_label"), "{d:?}");
    }

    #[test]
    fn run_one_captures_provenance_and_stamps_round_trippable_json() {
        let cfg = RunConfig::default();
        let e = registry::find("table1").unwrap();
        let out = run_one(&e, &cfg);
        assert_eq!(out.id, "table1");
        assert_eq!(out.provenance.config_digest, cfg.digest());
        assert_eq!(out.provenance.fidelity, "quick");
        let json = stamped_value(&out.figure, &out.provenance).to_pretty();
        assert!(json.contains("\"provenance\""));
        assert!(json.contains("\"config_digest\""));
        // Pre-provenance readers ignore the extra key.
        let back = Figure::from_json(&json).unwrap();
        assert!(diff_figures(&out.figure, &back).is_empty());
    }

    #[test]
    fn check_against_passes_on_identical_and_fails_on_perturbed_golden() {
        let cfg = RunConfig::default();
        let e = registry::find("table1").unwrap();
        let out = run_one(&e, &cfg);
        let dir = std::env::temp_dir().join("ibwan-runner-golden-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("table1.json");

        // Bit-identical golden (with provenance stamped) passes.
        let json = stamped_value(&out.figure, &out.provenance).to_pretty();
        std::fs::write(&path, &json).unwrap();
        assert!(check_against(&dir, &out).is_empty());
        let engine = out.provenance.to_value();
        let engine = engine.get("engine").unwrap();
        for name in WORK_COUNTERS {
            assert!(engine.get(name).is_some(), "{name} missing from provenance");
        }

        // Same config, one work counter changed: exactly one line naming the
        // figure, the counter, and both values.
        let mut recorded = out.provenance.clone();
        recorded.tally.counters.trains_emitted += 7;
        std::fs::write(&path, stamped_value(&out.figure, &recorded).to_pretty()).unwrap();
        let expected = recorded.tally.counters.trains_emitted;
        let got = out.provenance.tally.counters.trains_emitted;
        let line = format!("table1: trains_emitted: expected {expected}, got {got}");
        assert_eq!(check_against(&dir, &out), [line]);

        // A run under another config did other work: data-only check.
        let nocoal = RunConfig {
            coalescing: false,
            ..cfg
        };
        assert!(check_against(&dir, &run_one(&e, &nocoal)).is_empty());

        // A golden without provenance is checked on data alone.
        std::fs::write(&path, out.figure.to_json()).unwrap();
        assert!(check_against(&dir, &out).is_empty());

        // Perturb one y value: the check must fail with a readable line.
        let mut golden = out.figure.clone();
        golden.series[0].points[0].1 += 1.0;
        std::fs::write(&path, golden.to_json()).unwrap();
        let d = check_against(&dir, &out);
        assert!(!d.is_empty());
        assert!(d[0].contains("table1/"), "{d:?}");

        // Missing golden is a reported discrepancy, not a panic.
        std::fs::remove_file(&path).unwrap();
        let d = check_against(&dir, &out);
        assert_eq!(d.len(), 1);
        assert!(d[0].contains("cannot read golden"), "{d:?}");
    }

    /// The work check only fires on a golden stamped under the run's own
    /// config, so a golden regenerated under any other config would turn it
    /// off without a word: pin every recorded golden to the config its
    /// `repro --check` leg runs.
    #[test]
    fn every_golden_is_stamped_under_the_config_its_check_runs() {
        let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        for (dir, cfg) in [
            (results.clone(), RunConfig::full()),
            (results.join("quick"), RunConfig::default()),
        ] {
            let mut goldens = 0;
            for entry in std::fs::read_dir(&dir).unwrap() {
                let path = entry.unwrap().path();
                if path.extension().is_none_or(|x| x != "json") {
                    continue;
                }
                let v = Value::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
                let digest = v
                    .get("provenance")
                    .and_then(|p| p.get("config_digest"))
                    .and_then(Value::as_str);
                assert_eq!(
                    digest,
                    Some(cfg.digest().as_str()),
                    "{} is not stamped under {}",
                    path.display(),
                    cfg.describe()
                );
                goldens += 1;
            }
            assert_eq!(goldens, registry::catalog().len(), "{}", dir.display());
        }
    }

    /// `benchmark trace` derives its per-layer metrics from these engine
    /// keys, and leaves out a metric whose key is missing.
    #[test]
    fn scenario_provenance_carries_every_engine_key_the_benchmark_reads() {
        let s = crate::scenario::Scenario::from_json(
            r#"{ "name": "is-2+2", "topology": { "delay_us": 100 },
                 "workload": { "kind": "nas", "benchmark": "is", "ranks_per_cluster": 2 } }"#,
        )
        .unwrap();
        let (_, prov) = run_scenario(&s, &RunConfig::default());
        let value = prov.to_value();
        let engine = value.get("engine").unwrap();
        for key in [
            "events_processed",
            "peak_queue_len",
            "cal_fallback_hits",
            "trains_emitted",
            "fragments_coalesced",
            "control_trains",
            "control_coalesced",
        ] {
            assert!(
                engine.get(key).and_then(Value::as_f64).is_some(),
                "{key} missing from {}",
                engine.to_compact()
            );
        }
        assert!(prov.tally.counters.events_processed > 0);
    }

    #[test]
    fn run_jobs_returns_input_order_and_streams_progress() {
        let cfg = RunConfig::default();
        // Two cheap real catalog entries; input order must survive the
        // cost-descending schedule (fig3 costs more than table1).
        let jobs: Vec<Experiment> = ["table1", "fig3"]
            .iter()
            .map(|id| registry::find(id).unwrap())
            .collect();
        let lines = Mutex::new(Vec::new());
        let outs = run_jobs(jobs, &cfg, |l| lines.lock().unwrap().push(l.to_string()));
        assert_eq!(outs[0].id, "table1");
        assert_eq!(outs[1].id, "fig3");
        let lines = lines.into_inner().unwrap();
        assert_eq!(lines.len(), 2);
        assert!(lines.iter().any(|l| l.contains("table1")), "{lines:?}");
        assert!(lines.iter().all(|l| l.contains("series")), "{lines:?}");
    }
}
