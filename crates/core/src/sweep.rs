//! Parallel parameter sweeps: simulations are deterministic and independent
//! per configuration, so sweeps fan out across a bounded worker pool. Every
//! figure is a `grid`: one series per key, one point per x, each point one
//! simulation.
//!
//! Pools nest. The experiment runner ([`crate::runner::run_jobs`]) runs
//! its experiments through [`parallel_map`], and an experiment's own sweep
//! opens a second pool on the runner's worker thread. Every pool claims its
//! workers in one process-wide count while it runs, and a pool opened inside
//! another subtracts that claim from the process's budget (the machine's
//! cores, capped by [`RunConfig::workers`]) before sizing itself, so nested
//! pools share the budget instead of multiplying it.

use crate::config::RunConfig;
use crate::results::{Figure, Series};
use ibfabric::fabric::{self, RunTally};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Workers claimed by every pool now running, process-wide.
static CLAIMED: AtomicUsize = AtomicUsize::new(0);

/// A pool's claim on `count`, released on drop — also during a panic
/// unwind, so a failed sweep cannot shrink every later pool in the process.
struct Claim<'a> {
    count: &'a AtomicUsize,
    workers: usize,
}

impl<'a> Claim<'a> {
    fn new(count: &'a AtomicUsize, workers: usize) -> Self {
        count.fetch_add(workers, Ordering::SeqCst);
        Claim { count, workers }
    }
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        self.count.fetch_sub(self.workers, Ordering::SeqCst);
    }
}

/// Workers for a pool over `inputs` inputs on a machine with `cores` cores,
/// `claimed` of the process's workers being held by enclosing pools:
/// `min(inputs, free)`, where `free` is `min(cores, workers) - claimed`
/// and at least 1.
///
/// The default runs one simulation per free core. Each worker holds one
/// simulation in memory, so [`RunConfig::workers`] (`--workers 1`) is how
/// to run them one at a time in the least memory: it caps the whole
/// process, nested pools included.
fn pool_size(cores: usize, claimed: usize, workers: Option<usize>, inputs: usize) -> usize {
    let budget = workers.map_or(cores, |w| w.min(cores));
    budget.saturating_sub(claimed).min(inputs).max(1)
}

/// Map `f` over `inputs` in parallel, preserving order.
///
/// Runs on a pool of scoped worker threads that self-schedule inputs from a
/// shared index in input order. The pool has `min(inputs, free)` threads,
/// where `free` is what no enclosing pool holds of the process's budget:
/// the cores, capped by [`RunConfig::workers`] (at least 1). Each worker
/// accumulates engine stats into its own thread-local
/// [`ibfabric::fabric::RunTally`]; the pool merges them back into the
/// calling thread on join, so per-experiment tallies survive the fan-out.
/// Results come back in input order. If any worker panics, the first panic
/// payload is re-raised in the caller once the scope joins, so the original
/// assertion message (not a generic wrapper) reaches the user.
pub fn parallel_map<I, T, F>(cfg: &RunConfig, inputs: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    let n = inputs.len();
    if n == 0 {
        return Vec::new();
    }
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let workers = pool_size(cores, CLAIMED.load(Ordering::SeqCst), cfg.workers, n);
    let _claim = Claim::new(&CLAIMED, workers);

    // Each input slot is claimed exactly once via the shared counter; the
    // Mutex<Option<I>> wrappers hand inputs to whichever worker claims them.
    let slots: Vec<Mutex<Option<I>>> = inputs.into_iter().map(|i| Mutex::new(Some(i))).collect();
    let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let merged = Mutex::new(RunTally::default());
    let first_panic = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let input = slots[i].lock().unwrap().take().expect("slot claimed once");
                        let out = f(input);
                        *results[i].lock().unwrap() = Some(out);
                    }
                    // Hand this worker's engine stats to the caller. A panic
                    // skips this, which only under-counts the doomed sweep.
                    let tally = fabric::take_run_tally();
                    merged.lock().unwrap().merge(&tally);
                })
            })
            .collect();
        // Join every handle (a dropped panicked handle would make the scope
        // itself panic with a generic message), keeping the first payload.
        let mut first = None;
        for h in handles {
            if let Err(payload) = h.join() {
                first.get_or_insert(payload);
            }
        }
        first
    });
    if let Some(payload) = first_panic {
        // Surface the worker's own panic message to the caller.
        std::panic::resume_unwind(payload);
    }
    fabric::merge_run_tally(&merged.into_inner().unwrap());
    results
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("missing result"))
        .collect()
}

/// A sweep's x value: each point takes it as is, and the figure plots it as
/// an `f64`.
pub(crate) trait Coord: Copy + Send + Sync {
    /// The value on the figure's x axis.
    fn plot(self) -> f64;
}

impl Coord for u32 {
    fn plot(self) -> f64 {
        f64::from(self)
    }
}

impl Coord for u64 {
    fn plot(self) -> f64 {
        self as f64
    }
}

impl Coord for usize {
    fn plot(self) -> f64 {
        self as f64
    }
}

/// Sweep a grid into `figure`: one series per `(label, key)` of `series`,
/// in order, and in each one point per `x` of `xs`, measured by
/// `point(&key, x)`.
///
/// Every point of the grid runs through one [`parallel_map`] pool, in
/// series-major order.
pub(crate) fn grid<L, K, X, F>(
    cfg: &RunConfig,
    mut figure: Figure,
    series: impl IntoIterator<Item = (L, K)>,
    xs: &[X],
    point: F,
) -> Figure
where
    L: Into<String>,
    K: Sync,
    X: Coord,
    F: Fn(&K, X) -> f64 + Sync,
{
    let series: Vec<(String, K)> = series.into_iter().map(|(l, k)| (l.into(), k)).collect();
    let points = (0..series.len())
        .flat_map(|s| xs.iter().map(move |&x| (s, x)))
        .collect();
    let mut ys = parallel_map(cfg, points, |(s, x)| point(&series[s].1, x)).into_iter();
    for (label, _) in series {
        let mut s = Series::new(label);
        for &x in xs {
            s.push(x.plot(), ys.next().expect("one measurement per point"));
        }
        figure.series.push(s);
    }
    figure
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_size_runs_one_simulation_per_core_by_default() {
        // (cores, claimed by enclosing pools, --workers, inputs) -> workers
        let table = [
            ((2, 0, None, 100), 2, "2 cores, default"),
            ((2, 0, Some(1), 100), 1, "2 cores, --workers 1"),
            ((2, 0, Some(2), 100), 2, "2 cores, --workers 2"),
            ((2, 2, None, 100), 1, "nested under a 2-worker claim"),
            ((2, 2, Some(2), 100), 1, "nested, --workers 2"),
            ((2, 1, None, 100), 1, "nested under a 1-worker claim"),
            ((8, 0, None, 100), 8, "8 cores, default"),
            ((8, 0, Some(16), 100), 8, "never more workers than cores"),
            ((1, 0, None, 100), 1, "1 core, default"),
            ((1, 0, Some(1), 100), 1, "1 core, --workers 1"),
            ((1, 0, Some(4), 100), 1, "1 core, --workers 4"),
            ((1, 3, Some(1), 100), 1, "1 core, over-claimed"),
            ((8, 0, None, 3), 3, "never more workers than inputs"),
            ((8, 0, Some(6), 2), 2, "never more workers than inputs"),
            ((8, 2, Some(2), 100), 1, "--workers 2 caps nested pools too"),
            ((8, 1, Some(2), 100), 1, "--workers 2 caps nested pools too"),
        ];
        for ((cores, claimed, workers, inputs), want, case) in table {
            assert_eq!(pool_size(cores, claimed, workers, inputs), want, "{case}");
        }
    }

    #[test]
    fn claims_release_on_unwind() {
        let count = AtomicUsize::new(0);
        {
            let _outer = Claim::new(&count, 3);
            assert_eq!(count.load(Ordering::SeqCst), 3);
            let r = std::panic::catch_unwind(|| {
                let _inner = Claim::new(&count, 2);
                panic!("boom");
            });
            assert!(r.is_err());
            assert_eq!(count.load(Ordering::SeqCst), 3, "inner claim released");
        }
        assert_eq!(count.load(Ordering::SeqCst), 0, "claims must release");
    }

    #[test]
    fn workers_claim_cores_while_sweeping() {
        // Sibling tests may sweep concurrently, so only the in-flight claim
        // is asserted.
        let cfg = RunConfig::default();
        let seen = parallel_map(&cfg, vec![(), (), ()], |_| CLAIMED.load(Ordering::SeqCst));
        assert!(
            seen.iter().all(|&w| w >= 1),
            "jobs must see the sweep's claim: {seen:?}"
        );
    }

    #[test]
    fn config_sets_worker_count() {
        let cfg = RunConfig {
            workers: Some(1),
            ..RunConfig::default()
        };
        // With a single worker the pool is one thread claiming each input in
        // turn; correctness (order, completeness) must be unaffected.
        let out = parallel_map(&cfg, (0..16).collect(), |x: i32| x * 2);
        assert_eq!(out, (0..16).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn worker_tallies_merge_into_caller() {
        // Each job runs a tiny fabric on a worker thread; its engine stats
        // must land in the caller's thread-local tally after the join.
        fn probe_run() {
            let mut b = ibfabric::fabric::FabricBuilder::new(7);
            let _n = b.add_hca(Box::new(ibfabric::ulp::NullUlp));
            b.finish().run();
        }
        let cfg = RunConfig::default();
        ibfabric::fabric::reset_run_tally();
        parallel_map(&cfg, vec![(), ()], |_| probe_run());
        let tally = ibfabric::fabric::run_tally();
        assert_eq!(
            tally.runs, 2,
            "both workers' runs must merge back: {tally:?}"
        );
    }

    #[test]
    fn grid_sweeps_series_major_into_labelled_series() {
        let cfg = RunConfig {
            workers: Some(1),
            ..RunConfig::default()
        };
        let order = Mutex::new(Vec::new());
        let fig = grid(
            &cfg,
            Figure::new("g", "t", "x", "y"),
            [("ones", 1u64), ("tens", 10)],
            &[1u32, 2, 3],
            |&k, x| {
                order.lock().unwrap().push((k, x));
                (k * u64::from(x)) as f64
            },
        );
        let labels: Vec<&str> = fig.series.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(labels, ["ones", "tens"]);
        assert_eq!(fig.series[0].points, [(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]);
        assert_eq!(
            fig.series[1].points,
            [(1.0, 10.0), (2.0, 20.0), (3.0, 30.0)]
        );
        let keys: Vec<u64> = order.into_inner().unwrap().iter().map(|p| p.0).collect();
        assert_eq!(
            keys,
            [1, 1, 1, 10, 10, 10],
            "one worker runs the points in input order"
        );
    }

    #[test]
    fn preserves_order() {
        let cfg = RunConfig::default();
        let out = parallel_map(&cfg, (0..32).collect(), |x: i32| x * x);
        assert_eq!(out, (0..32).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn handles_more_inputs_than_workers() {
        // Far more inputs than any realistic core count: exercises the
        // self-scheduling loop rather than one-thread-per-input.
        let cfg = RunConfig::default();
        let out = parallel_map(&cfg, (0..1000).collect(), |x: i32| x + 1);
        assert_eq!(out, (1..1001).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_is_fine() {
        let cfg = RunConfig::default();
        let out: Vec<i32> = parallel_map(&cfg, Vec::<i32>::new(), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn propagates_panics() {
        let cfg = RunConfig::default();
        parallel_map(&cfg, vec![1], |_: i32| -> i32 { panic!("boom") });
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn propagates_panics_from_pooled_workers() {
        let cfg = RunConfig::default();
        parallel_map(&cfg, (0..64).collect(), |x: i32| {
            if x == 33 {
                panic!("boom");
            }
            x
        });
    }
}
