//! `benchmark run` and `benchmark trace` on one workload.
//!
//! A pass regenerates the workload's figures exactly as `repro` does (one
//! `run_jobs` call over its experiments at its fidelity), or runs its
//! scenario points one after another through `run_scenario`. `run` times
//! whole passes, untraced, for `--seconds`; `trace` runs one pass call by
//! call with a span around each, then the layer probes.
//!
//! Every output is checked: a figure or point fails if it panics, if it
//! differs from the checked-in golden (seed 0 only; other seeds have none),
//! or if its digest differs from the first pass of the same run.

use crate::measure::{
    cpu_seconds, host_probe_s, median, peak_rss_mb, quartiles, REFERENCE_PROBE_S,
};
use crate::probes::{timer_probe, TIMER_PROBES};
use crate::spec::{GoldenPoint, Jobs, Metric, ScenarioJob, Setup, Spec, Workload};
use crate::trace::Tracer;
use crate::Cli;
use ibfabric::perftest::{rc_qp_pair, BwConfig, BwPeer};
use ibfabric::qp::QpConfig;
use ibwan_core::runner::{check_against, run_jobs, run_scenario, Provenance, RunOutcome};
use ibwan_core::scenario::ScenarioResult;
use ibwan_core::topo::build_pair;
use ibwan_core::{Experiment, Fidelity, Figure, RunConfig, TopoSpec};
use minijson::{obj, Value};
use mpisim::world::{JobSpec, MpiJob};
use nasbench::NasBenchmark;
use simcore::Dur;
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// The repository root, fixed at build time: goldens are read from its
/// `results/`, trace files are written to its `benchmark-trace/`.
const REPO_ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../..");

/// Fabrics built for `setup_s` before each timed pass; the metric is the
/// median over all of them.
const SETUP_BUILDS: u64 = 21;

/// Metric values by name; a metric that could not be measured is absent.
pub type Values = BTreeMap<String, f64>;

/// One regenerated figure or scenario point.
struct Item {
    id: String,
    /// FNV-1a of the output with provenance left out; `None` if it panicked.
    digest: Option<u64>,
    /// Golden and sanity discrepancies.
    problems: Vec<String>,
    /// The provenance block's engine counters.
    engine: Option<Value>,
    /// The program's own wall time for the call.
    program_wall_s: f64,
}

struct Pass {
    wall_s: f64,
    cpu_s: Option<f64>,
    items: Vec<Item>,
}

/// The outcome of a run or trace, ready to print.
pub struct Report {
    /// Human-readable lines printed before the result line.
    pub lines: Vec<String>,
    pub values: Values,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and the `metrics` among `declared` that were measured.
    pub fn result_line(&self, declared: &[Metric]) -> String {
        let metrics = declared
            .iter()
            .filter_map(|m| {
                let v = *self.values.get(&m.name)?;
                v.is_finite().then(|| {
                    (
                        m.name.clone(),
                        obj([
                            ("value", Value::Num(v)),
                            ("unit", Value::from(m.unit.as_str())),
                        ]),
                    )
                })
            })
            .collect();
        obj([
            ("correct", Value::from(self.failed == 0)),
            ("attempted", Value::from(self.attempted)),
            ("failed", Value::from(self.failed)),
            ("metrics", Value::Obj(metrics)),
        ])
        .to_compact()
    }
}

/// Run or trace `cli.workload`, print the report, and exit nonzero on any
/// failed check.
pub fn main(spec: &Spec, cli: &Cli) -> ExitCode {
    let w = spec
        .workload(&cli.workload)
        .expect("workload names are validated when parsing");
    let cfg = RunConfig {
        fidelity: w.fidelity,
        seed: cli.seed,
        ..RunConfig::default()
    };
    let mode = if cli.trace { "trace" } else { "run" };
    println!(
        "benchmark mode={mode} workload={} seed={} seconds={}",
        w.name, cli.seed, cli.seconds
    );
    let (report, declared) = if cli.trace {
        (trace(spec, w, &cfg), &spec.per_layer)
    } else {
        (run(w, &cfg, cli.seconds), &spec.end_to_end)
    };
    for line in &report.lines {
        println!("{line}");
    }
    for m in declared {
        match report.values.get(&m.name) {
            Some(v) => println!("{} = {v} {}", m.name, m.unit),
            None => println!("{} = (not measured)", m.name),
        }
    }
    println!("{}", report.result_line(declared));
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "benchmark: {} of {} checked outputs failed",
            report.failed, report.attempted
        );
        ExitCode::FAILURE
    }
}

/// One untraced warm-up pass, then timed passes until `seconds` have gone
/// by since the start (at least two; after that, none starts that the
/// previous one's duration says would overrun), then the end-to-end
/// metrics: the median timed pass's wall and CPU time, the median set-up
/// time, and peak RSS after the warm-up pass.
///
/// Every timed pass, with the set-up builds before it, sits between two
/// host speed probes, and its times are scaled by the reference probe time
/// over their mean: the reference machine's host slows it by up to 2× for
/// minutes at a time, and the scaled times read as the quiet reference
/// machine's seconds. The raw times are printed alongside.
pub fn run(w: &Workload, cfg: &RunConfig, seconds: f64) -> Report {
    let mut checker = Checker::default();
    let start = Instant::now();
    build_fabric(w.setup, cfg.seed); // untimed warm-up of the builders
    let warm_up = timed_pass(w, cfg);
    checker.record(&warm_up.items);
    // Read before any probe runs: the probe's table would set the
    // high-water mark of workloads smaller than it.
    let peak_rss = peak_rss_mb();

    let mut passes: Vec<Pass> = Vec::new();
    let mut scales = Vec::new();
    let mut setup_samples = Vec::new();
    loop {
        let lap = Instant::now();
        let probe_before = host_probe_s();
        let first = cfg.seed.wrapping_add(setup_samples.len() as u64);
        let builds: Vec<f64> = (0..SETUP_BUILDS)
            .map(|i| build_fabric(w.setup, first.wrapping_add(i)))
            .collect();
        let pass = timed_pass(w, cfg);
        let scale = REFERENCE_PROBE_S / ((probe_before + host_probe_s()) / 2.0);
        checker.record(&pass.items);
        setup_samples.extend(builds.iter().map(|b| b * scale));
        passes.push(pass);
        scales.push(scale);
        // Two timed passes at least, so the median has two samples.
        let lap_s = lap.elapsed().as_secs_f64();
        if passes.len() >= 2 && start.elapsed().as_secs_f64() + lap_s > seconds {
            break;
        }
    }

    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let scaled = |v: &[f64]| -> Vec<f64> { v.iter().zip(&scales).map(|(t, s)| t * s).collect() };
    let cpus: Option<Vec<f64>> = passes.iter().map(|p| p.cpu_s).collect();
    let n = passes.len();
    let wall_s = median(&scaled(&walls));
    let cpu_s = cpus.as_deref().map(|c| median(&scaled(c)));
    let mut values = Values::new();
    values.insert("wall_s".into(), wall_s);
    if let Some(c) = cpu_s {
        values.insert("cpu_s".into(), c);
    }
    if let Some(rss) = peak_rss {
        values.insert("peak_rss_mb".into(), rss);
    }
    values.insert("setup_s".into(), median(&setup_samples));

    let (q1, med, q3) = quartiles(&walls);
    let (s1, smed, s3) = quartiles(&scales);
    let mut layers = Values::new();
    let raw_cpu = cpus.as_deref().map(median);
    insert_layer_values(&passes[0].items, med, raw_cpu, &mut layers);
    let list = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let mut lines = vec![
        format!(
            "passes={n} (after one warm-up) outputs_per_pass={} nproc={}",
            passes[0].items.len(),
            nproc()
        ),
        format!("outputs={}", output_ids(&passes[0].items)),
        format!("figures_digest={:016x}", figures_digest(&passes[0].items)),
        format!("raw pass wall_s: median {med:.4}, quartiles {q1:.4} .. {q3:.4}"),
        format!("raw pass walls: {}", list(&walls)),
        format!("speed scale: median {smed:.3}, quartiles {s1:.3} .. {s3:.3}"),
        format!("speed scales: {}", list(&scales)),
        format!(
            "setup_s: median of {} scaled builds of {:?}",
            setup_samples.len(),
            w.setup
        ),
    ];
    lines.extend(layers.iter().map(|(k, v)| format!("layer {k} = {v}")));
    Report {
        lines,
        values,
        attempted: checker.attempted,
        failed: checker.failed,
    }
}

/// One traced pass (a span per figure or point), then the engine and
/// scenario probes; writes the spans to `benchmark-trace/` and returns the
/// per-layer metrics.
pub fn trace(spec: &Spec, w: &Workload, cfg: &RunConfig) -> Report {
    let mut tracer = Tracer::new();
    let mut checker = Checker::default();
    let mut values = Values::new();
    let mut lines = Vec::new();
    tracer.begin(format!("benchmark.trace.{}", w.name));

    tracer.begin("pass");
    let clock = Clock::start();
    let mut items = Vec::new();
    let mut spans = Vec::new();
    let golden = (cfg.seed == 0).then(|| golden_dir(w.fidelity));
    match &w.jobs {
        Jobs::Experiments(ids) => {
            for e in experiments(ids) {
                let id = e.id;
                tracer.begin(format!("core.exp.{id}"));
                // A one-job pool rather than a bare `run_one`: nested sweeps
                // and the engine's Auto mode consult the worker claim and
                // thread allowance the runner grants, so this reproduces the
                // untraced pass exactly whenever that pass runs one worker
                // (fewer than 4 cores).
                let item = match catch_unwind(AssertUnwindSafe(|| run_jobs(vec![e], cfg, |_| {}))) {
                    Ok(outs) => experiment_item(&outs[0], golden.as_deref()),
                    Err(_) => panicked(id),
                };
                spans.push((
                    format!("core.exp.{id}.wall_s"),
                    tracer.end(item_args(&item)),
                ));
                items.push(item);
            }
        }
        Jobs::Scenarios(jobs) => {
            for job in jobs {
                tracer.begin(format!("core.point.{}", job.scenario.name));
                let item = scenario_item(job, run_scenario_caught(job, cfg), cfg.seed == 0);
                let name = format!("core.point.{}.wall_s", job.scenario.name);
                spans.push((name, tracer.end(item_args(&item))));
                items.push(item);
            }
        }
    }
    let (wall_s, cpu_s) = clock.stop();
    checker.record(&items);
    insert_layer_values(&items, wall_s, cpu_s, &mut values);
    let mut pass_args = item_totals(&items);
    pass_args.extend(cpu_s.map(|c| ("cpu_s".to_string(), c)));
    tracer.end(pass_args);
    let traced: f64 = spans.iter().map(|(_, s)| s).sum();
    let program: f64 = items.iter().map(|i| i.program_wall_s).sum();
    if program > 0.0 {
        values.insert("trace.overhead_share".into(), traced / program - 1.0);
    }
    for (name, secs) in &spans {
        lines.push(format!(
            "{name} = {secs:.4} s ({:.1}% of pass)",
            100.0 * secs / wall_s
        ));
    }

    tracer.begin("probes");
    for (name, residents, rto_one_in, events) in TIMER_PROBES {
        tracer.begin(name);
        let ns = timer_probe(residents, rto_one_in, events, cfg.seed);
        tracer.end(vec![
            ("residents".into(), residents as f64),
            ("ns_per_event".into(), ns),
        ]);
        values.insert(format!("{name}.ns_per_event"), ns);
    }
    let probe_cfg = RunConfig {
        seed: cfg.seed,
        ..RunConfig::default()
    };
    for probe in &spec.probes {
        tracer.begin(probe.name.clone());
        let item = scenario_item(
            &probe.job,
            run_scenario_caught(&probe.job, &probe_cfg),
            cfg.seed == 0,
        );
        let secs = tracer.end(item_args(&item));
        let one = std::slice::from_ref(&item);
        checker.record(one);
        let p = &probe.name;
        values.insert(format!("{p}.wall_ms"), secs * 1e3);
        if let Some(events) = engine_total(one, "events_processed").filter(|&e| e > 0.0) {
            values.insert(format!("{p}.events"), events);
            values.insert(format!("{p}.ns_per_event"), secs * 1e9 / events);
            if let Some(hits) = engine_total(one, "cal_fallback_hits") {
                values.insert(format!("{p}.cal_fallback_share"), hits / events);
            }
        }
    }
    tracer.end(Vec::new());
    tracer.end(Vec::new());

    let dir = Path::new(REPO_ROOT).join("benchmark-trace");
    let file = format!("{}-seed{}.json", w.name, cfg.seed);
    match std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join(&file), tracer.chrome_json()))
    {
        Ok(()) => lines.push(format!("trace written to benchmark-trace/{file}")),
        Err(e) => eprintln!("benchmark: cannot write benchmark-trace/{file}: {e}"),
    }
    Report {
        lines,
        values,
        attempted: checker.attempted,
        failed: checker.failed,
    }
}

/// One untraced pass: the whole workload through one public call (or its
/// scenario points in order). Checks run after the clocks stop.
fn timed_pass(w: &Workload, cfg: &RunConfig) -> Pass {
    let clock = Clock::start();
    match &w.jobs {
        Jobs::Experiments(ids) => {
            let outcomes =
                catch_unwind(AssertUnwindSafe(|| run_jobs(experiments(ids), cfg, |_| {})));
            let (wall_s, cpu_s) = clock.stop();
            let golden = (cfg.seed == 0).then(|| golden_dir(w.fidelity));
            let items = match outcomes {
                Ok(outs) => outs
                    .iter()
                    .map(|o| experiment_item(o, golden.as_deref()))
                    .collect(),
                // The runner re-raises a worker's panic without naming the
                // experiment, so the whole pass counts as failed.
                Err(_) => ids.iter().map(|id| panicked(id)).collect(),
            };
            Pass {
                wall_s,
                cpu_s,
                items,
            }
        }
        Jobs::Scenarios(jobs) => {
            let outcomes: Vec<_> = jobs.iter().map(|j| run_scenario_caught(j, cfg)).collect();
            let (wall_s, cpu_s) = clock.stop();
            let items = jobs
                .iter()
                .zip(outcomes)
                .map(|(job, out)| scenario_item(job, out, cfg.seed == 0))
                .collect();
            Pass {
                wall_s,
                cpu_s,
                items,
            }
        }
    }
}

/// Wall and process-CPU time since `start`.
struct Clock {
    t0: Instant,
    cpu0: Option<f64>,
}

impl Clock {
    fn start() -> Clock {
        Clock {
            cpu0: cpu_seconds(),
            t0: Instant::now(),
        }
    }

    fn stop(&self) -> (f64, Option<f64>) {
        let wall = self.t0.elapsed().as_secs_f64();
        let cpu = cpu_seconds().zip(self.cpu0).map(|(now, then)| now - then);
        (wall, cpu)
    }
}

fn golden_dir(fidelity: Fidelity) -> PathBuf {
    let results = Path::new(REPO_ROOT).join("results");
    match fidelity {
        Fidelity::Quick => results.join("quick"),
        Fidelity::Full => results,
    }
}

/// The catalog entries for `ids`, in that order.
fn experiments(ids: &[String]) -> Vec<Experiment> {
    let mut catalog = ibwan_core::catalog();
    ids.iter()
        .map(|id| {
            let i = catalog
                .iter()
                .position(|e| e.id == id)
                .expect("experiment ids are validated when parsing");
            catalog.swap_remove(i)
        })
        .collect()
}

fn run_scenario_caught(
    job: &ScenarioJob,
    cfg: &RunConfig,
) -> std::thread::Result<(ScenarioResult, Provenance)> {
    catch_unwind(AssertUnwindSafe(|| run_scenario(&job.scenario, cfg)))
}

fn panicked(id: &str) -> Item {
    Item {
        id: id.to_string(),
        digest: None,
        problems: vec!["panicked".into()],
        engine: None,
        program_wall_s: 0.0,
    }
}

fn experiment_item(o: &RunOutcome, golden: Option<&Path>) -> Item {
    Item {
        id: o.id.to_string(),
        digest: Some(fnv1a(o.figure.to_json().as_bytes())),
        problems: golden.map(|d| check_against(d, o)).unwrap_or_default(),
        engine: o.provenance.to_value().get("engine").cloned(),
        program_wall_s: o.provenance.wall_secs,
    }
}

fn scenario_item(
    job: &ScenarioJob,
    out: std::thread::Result<(ScenarioResult, Provenance)>,
    check_golden: bool,
) -> Item {
    let Ok((result, prov)) = out else {
        return panicked(&job.scenario.name);
    };
    let mut problems = Vec::new();
    if !(result.value.is_finite() && result.value > 0.0) {
        problems.push(format!("{} is {}", result.metric, result.value));
    }
    if let (true, Some(g)) = (check_golden, &job.golden) {
        if let Err(e) = check_point(g, result.value) {
            problems.push(e);
        }
    }
    Item {
        id: job.scenario.name.clone(),
        digest: Some(fnv1a(result.to_value().to_compact().as_bytes())),
        problems,
        engine: prov.to_value().get("engine").cloned(),
        program_wall_s: prov.wall_secs,
    }
}

/// Compare a scenario's value with the golden figure point it reproduces.
fn check_point(g: &GoldenPoint, value: f64) -> Result<(), String> {
    let path = golden_dir(Fidelity::Full).join(format!("{}.json", g.figure));
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read golden {}: {e}", path.display()))?;
    let expected = Figure::from_json(&text)?
        .series(&g.series)
        .and_then(|s| s.y_at(g.x))
        .ok_or_else(|| format!("golden {} has no {} point at {}", g.figure, g.series, g.x))?;
    if expected == value {
        Ok(())
    } else {
        Err(format!(
            "{}@{}: golden {expected}, got {value}",
            g.series, g.x
        ))
    }
}

/// Counts outputs and failures across passes. The first pass of a run
/// fixes each output's digest; a later pass that differs fails.
#[derive(Default)]
struct Checker {
    reference: HashMap<String, u64>,
    attempted: u64,
    failed: u64,
}

impl Checker {
    fn record(&mut self, items: &[Item]) {
        for item in items {
            self.attempted += 1;
            let mut problems = item.problems.clone();
            if let Some(d) = item.digest {
                match self.reference.get(&item.id) {
                    Some(&first) if first != d => {
                        problems.push("output digest differs from the first pass".into())
                    }
                    Some(_) => {}
                    None => {
                        self.reference.insert(item.id.clone(), d);
                    }
                }
            }
            if !problems.is_empty() {
                self.failed += 1;
                for p in problems {
                    eprintln!("FAIL {}: {p}", item.id);
                }
            }
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
    })
}

/// FNV-1a over every output digest of a pass, in workload order: equal
/// across commits exactly when every figure's data is.
fn figures_digest(items: &[Item]) -> u64 {
    let bytes: Vec<u8> = items
        .iter()
        .flat_map(|i| i.digest.unwrap_or(0).to_le_bytes())
        .collect();
    fnv1a(&bytes)
}

fn output_ids(items: &[Item]) -> String {
    items
        .iter()
        .map(|i| i.id.as_str())
        .collect::<Vec<_>>()
        .join(",")
}

fn engine_total(items: &[Item], key: &str) -> Option<f64> {
    items
        .iter()
        .map(|i| i.engine.as_ref()?.get(key)?.as_f64())
        .sum()
}

fn engine_max(items: &[Item], key: &str) -> Option<f64> {
    items
        .iter()
        .map(|i| i.engine.as_ref()?.get(key)?.as_f64())
        .try_fold(0.0, |acc: f64, v| Some(acc.max(v?)))
}

/// The engine and runner metrics of a pass, from its provenance counters
/// and host times.
fn insert_layer_values(items: &[Item], wall_s: f64, cpu_s: Option<f64>, v: &mut Values) {
    let events = engine_total(items, "events_processed");
    let per_event = |x: f64| events.filter(|&e| e > 0.0).map(|e| x / e);
    let mut put = |k: &str, x: Option<f64>| {
        if let Some(x) = x {
            v.insert(k.to_string(), x);
        }
    };
    put("simcore.events", events);
    put("simcore.peak_queue", engine_max(items, "peak_queue_len"));
    put(
        "simcore.cal_fallback_share",
        engine_total(items, "cal_fallback_hits").and_then(per_event),
    );
    put(
        "simcore.ns_per_event",
        cpu_s.and_then(|c| per_event(c * 1e9)),
    );
    // Data-path and control-path (ACK) trains together.
    let both = |data: &str, control: &str| {
        Some(engine_total(items, data)? + engine_total(items, control)?)
    };
    put(
        "ibfabric.coalescing_ratio",
        both("fragments_coalesced", "control_coalesced")
            .zip(events)
            .filter(|(c, e)| c + e > 0.0)
            .map(|(c, e)| c / (c + e)),
    );
    put("ibfabric.trains", both("trains_emitted", "control_trains"));
    put("runner.parallelism", cpu_s.map(|c| c / wall_s));
}

fn item_args(item: &Item) -> Vec<(String, f64)> {
    let mut args = item_totals(std::slice::from_ref(item));
    args.push(("program_wall_s".into(), item.program_wall_s));
    args
}

fn item_totals(items: &[Item]) -> Vec<(String, f64)> {
    [
        "events_processed",
        "peak_queue_len",
        "cal_fallback_hits",
        "trains_emitted",
        "fragments_coalesced",
    ]
    .iter()
    .filter_map(|k| Some((k.to_string(), engine_total(items, k)?)))
    .collect()
}

/// Seconds to construct, without running, the workload's largest fabric
/// shape through the public builders.
fn build_fabric(setup: Setup, seed: u64) -> f64 {
    let delay = Dur::from_us(1000);
    match setup {
        Setup::MpiFt {
            ranks_per_cluster: n,
        } => {
            let spec = JobSpec::two_clusters(n, n, delay).with_seed(seed);
            let t0 = Instant::now();
            let job = MpiJob::build(spec, |rank, nranks| {
                nasbench::program(NasBenchmark::Ft, rank, nranks)
            });
            let secs = t0.elapsed().as_secs_f64();
            black_box(job);
            secs
        }
        Setup::RcPair => {
            let t0 = Instant::now();
            let (mut fabric, a, b) = build_pair(
                &RunConfig::default(),
                seed,
                &TopoSpec::two_site(delay),
                Box::new(BwPeer::sender(BwConfig::new(65536, 64))),
                Box::new(BwPeer::receiver()),
            );
            let qps = rc_qp_pair(&mut fabric, a, b, QpConfig::rc());
            let secs = t0.elapsed().as_secs_f64();
            black_box((fabric, qps));
            secs
        }
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_smoke() -> Workload {
        Workload {
            name: "smoke".into(),
            fidelity: Fidelity::Quick,
            setup: Setup::MpiFt {
                ranks_per_cluster: 2,
            },
            jobs: Jobs::Experiments(vec!["table1".into(), "fig3".into()]),
        }
    }

    /// A Quick `run` of two cheap figures reports every end-to-end metric
    /// with its unit, and nothing fails against the Quick goldens.
    #[test]
    fn quick_run_reports_every_end_to_end_metric() {
        let spec = Spec::load().unwrap();
        let report = run(&quick_smoke(), &RunConfig::default(), 0.0);
        assert_eq!(report.failed, 0);
        assert_eq!(
            report.attempted, 6,
            "two figures, a warm-up pass and two timed passes"
        );
        let line = Value::parse(&report.result_line(&spec.end_to_end)).unwrap();
        let keys: Vec<&str> = match &line {
            Value::Obj(m) => m.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("result line is not an object"),
        };
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct").unwrap().as_bool(), Some(true));
        let metrics = line.get("metrics").unwrap();
        for m in &spec.end_to_end {
            let entry = metrics
                .get(&m.name)
                .unwrap_or_else(|| panic!("{} missing", m.name));
            // CPU time counts 10 ms ticks, which this tiny pass may not
            // reach; every workload's pass takes seconds.
            let value = entry.get("value").unwrap().as_f64().unwrap();
            assert!(
                value > 0.0 || (m.name == "cpu_s" && value == 0.0),
                "{}",
                m.name
            );
            assert_eq!(entry.get("unit").unwrap().as_str(), Some(m.unit.as_str()));
        }
    }

    #[test]
    fn a_changed_digest_or_golden_diff_fails_the_output() {
        let item = |digest, problems: &[&str]| Item {
            id: "fig3".into(),
            digest,
            problems: problems.iter().map(|p| p.to_string()).collect(),
            engine: None,
            program_wall_s: 0.0,
        };
        let mut c = Checker::default();
        c.record(&[item(Some(1), &[])]);
        c.record(&[item(Some(1), &[])]);
        assert_eq!((c.attempted, c.failed), (2, 0));
        c.record(&[item(Some(2), &[])]);
        c.record(&[item(Some(1), &["golden differs"])]);
        c.record(&[item(None, &["panicked"])]);
        assert_eq!((c.attempted, c.failed), (5, 3));
    }

    /// `trace` reports exactly the per-layer metrics `BENCHMARK.json`
    /// declares: one per pass-level layer value, per timer probe, and four
    /// per scenario probe.
    #[test]
    fn declared_per_layer_metrics_match_what_trace_reports() {
        let spec = Spec::load().unwrap();
        let mut reported: Vec<String> = [
            "simcore.events",
            "simcore.peak_queue",
            "simcore.cal_fallback_share",
            "simcore.ns_per_event",
            "ibfabric.coalescing_ratio",
            "ibfabric.trains",
            "runner.parallelism",
            "trace.overhead_share",
        ]
        .map(String::from)
        .to_vec();
        reported.extend(
            TIMER_PROBES
                .iter()
                .map(|(n, ..)| format!("{n}.ns_per_event")),
        );
        for p in &spec.probes {
            for suffix in ["wall_ms", "events", "ns_per_event", "cal_fallback_share"] {
                reported.push(format!("{}.{suffix}", p.name));
            }
        }
        let mut declared: Vec<String> = spec.per_layer.iter().map(|m| m.name.clone()).collect();
        reported.sort();
        declared.sort();
        assert_eq!(reported, declared);
    }

    /// Without `/proc` the CPU-derived metrics are left out, not zeroed.
    #[test]
    fn missing_cpu_time_leaves_cpu_metrics_absent() {
        let engine = obj([("events_processed", Value::from(10u64))]);
        let items = [Item {
            id: "x".into(),
            digest: Some(0),
            problems: Vec::new(),
            engine: Some(engine),
            program_wall_s: 1.0,
        }];
        let mut v = Values::new();
        insert_layer_values(&items, 1.0, None, &mut v);
        assert_eq!(v.get("simcore.events"), Some(&10.0));
        assert!(!v.contains_key("simcore.ns_per_event"));
        assert!(!v.contains_key("runner.parallelism"));
        assert!(
            !v.contains_key("simcore.peak_queue"),
            "key absent from provenance"
        );
    }
}
