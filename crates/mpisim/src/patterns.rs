//! Synthetic communication-pattern generator: parameterized SPMD workloads
//! beyond the NAS skeletons, for studying how a pattern's *shape* determines
//! its WAN tolerance (the paper's central application-level lesson).
//!
//! Every pattern compiles to per-rank [`Op`] scripts via [`Pattern::ops`],
//! so they run on the same engine, can be profiled with the same traffic
//! matrix, and can be described in scenario JSON.

use crate::coll::{self, TagAlloc};
use crate::script::Op;
use simcore::Dur;

/// A parameterized SPMD communication pattern.
#[derive(Clone, Debug)]
pub enum Pattern {
    /// 2-D nearest-neighbor halo exchange on a `rows x cols` process grid
    /// (stencil codes: WRF-like weather, CFD).
    Halo2d {
        /// Process-grid rows.
        rows: usize,
        /// Process-grid columns.
        cols: usize,
        /// Halo face size in bytes.
        face_bytes: u32,
        /// Iterations.
        iters: u32,
        /// Compute per iteration, microseconds.
        compute_us: u64,
    },
    /// Master-worker task farming: rank 0 scatters tasks, workers return
    /// results (parameter sweeps, rendering).
    MasterWorker {
        /// Task payload bytes (master → worker).
        task_bytes: u32,
        /// Result payload bytes (worker → master).
        result_bytes: u32,
        /// Tasks per worker.
        tasks_per_worker: u32,
        /// Worker compute time per task, microseconds.
        compute_us: u64,
    },
    /// Ring shift: every rank passes a block to its right neighbor each
    /// iteration (pipelines, systolic patterns).
    Ring {
        /// Block size in bytes.
        block_bytes: u32,
        /// Iterations.
        iters: u32,
    },
    /// Bulk-synchronous random sparse exchange: each rank exchanges with
    /// `degree` deterministic pseudo-random partners per superstep, then
    /// barriers (graph analytics).
    SparseRandom {
        /// Partners per superstep.
        degree: usize,
        /// Message bytes per partner.
        msg_bytes: u32,
        /// Supersteps.
        supersteps: u32,
        /// Pattern seed (same seed → same partner graph on every rank).
        seed: u64,
    },
}

impl Pattern {
    /// Human label.
    pub fn name(&self) -> &'static str {
        match self {
            Pattern::Halo2d { .. } => "halo2d",
            Pattern::MasterWorker { .. } => "master_worker",
            Pattern::Ring { .. } => "ring",
            Pattern::SparseRandom { .. } => "sparse_random",
        }
    }

    /// Ranks this pattern requires, if it constrains the count.
    pub fn required_ranks(&self) -> Option<usize> {
        match self {
            Pattern::Halo2d { rows, cols, .. } => Some(rows * cols),
            _ => None,
        }
    }

    /// Serialize to a JSON value: `{"pattern": "<name>", ...fields}` — the
    /// internally-tagged layout scenario files use.
    pub fn to_value(&self) -> minijson::Value {
        use minijson::{obj, Value};
        match *self {
            Pattern::Halo2d {
                rows,
                cols,
                face_bytes,
                iters,
                compute_us,
            } => obj([
                ("pattern", Value::from("halo2d")),
                ("rows", Value::from(rows)),
                ("cols", Value::from(cols)),
                ("face_bytes", Value::from(face_bytes)),
                ("iters", Value::from(iters)),
                ("compute_us", Value::from(compute_us)),
            ]),
            Pattern::MasterWorker {
                task_bytes,
                result_bytes,
                tasks_per_worker,
                compute_us,
            } => obj([
                ("pattern", Value::from("master_worker")),
                ("task_bytes", Value::from(task_bytes)),
                ("result_bytes", Value::from(result_bytes)),
                ("tasks_per_worker", Value::from(tasks_per_worker)),
                ("compute_us", Value::from(compute_us)),
            ]),
            Pattern::Ring { block_bytes, iters } => obj([
                ("pattern", Value::from("ring")),
                ("block_bytes", Value::from(block_bytes)),
                ("iters", Value::from(iters)),
            ]),
            Pattern::SparseRandom {
                degree,
                msg_bytes,
                supersteps,
                seed,
            } => obj([
                ("pattern", Value::from("sparse_random")),
                ("degree", Value::from(degree)),
                ("msg_bytes", Value::from(msg_bytes)),
                ("supersteps", Value::from(supersteps)),
                ("seed", Value::from(seed)),
            ]),
        }
    }

    /// Parse the tagged JSON layout produced by [`Pattern::to_value`].
    pub fn from_value(v: &minijson::Value) -> Result<Pattern, String> {
        let field = |name: &str| {
            v.get(name)
                .and_then(|f| f.as_u64())
                .ok_or_else(|| format!("pattern: missing or non-integer field {name:?}"))
        };
        // Fields a run holds as `u32` (and the grid sides, whose product
        // counts ranks): refuse what would wrap.
        let field32 = |name: &str| {
            let n = field(name)?;
            u32::try_from(n)
                .map_err(|_| format!("pattern: field {name:?} is {n}: the limit is {}", u32::MAX))
        };
        let tag = v
            .get("pattern")
            .and_then(|t| t.as_str())
            .ok_or("pattern: missing \"pattern\" tag")?;
        match tag {
            "halo2d" => Ok(Pattern::Halo2d {
                rows: field32("rows")? as usize,
                cols: field32("cols")? as usize,
                face_bytes: field32("face_bytes")?,
                iters: field32("iters")?,
                compute_us: field("compute_us")?,
            }),
            "master_worker" => Ok(Pattern::MasterWorker {
                task_bytes: field32("task_bytes")?,
                result_bytes: field32("result_bytes")?,
                tasks_per_worker: field32("tasks_per_worker")?,
                compute_us: field("compute_us")?,
            }),
            "ring" => Ok(Pattern::Ring {
                block_bytes: field32("block_bytes")?,
                iters: field32("iters")?,
            }),
            "sparse_random" => Ok(Pattern::SparseRandom {
                degree: field("degree")? as usize,
                msg_bytes: field32("msg_bytes")?,
                supersteps: field32("supersteps")?,
                seed: field("seed")?,
            }),
            other => Err(format!("unknown pattern kind {other:?}")),
        }
    }

    /// Compile the per-rank script (wrapped in start/end marks 0/1).
    pub fn ops(&self, rank: usize, nranks: usize) -> Vec<Op> {
        let mut tags = TagAlloc::default();
        let mut ops = vec![Op::Mark { id: 0 }];
        ops.extend(coll::barrier(nranks, rank, tags.take()));
        match *self {
            Pattern::Halo2d {
                rows,
                cols,
                face_bytes,
                iters,
                compute_us,
            } => {
                assert_eq!(rows * cols, nranks, "halo2d needs rows*cols ranks");
                let (r, c) = (rank / cols, rank % cols);
                let at = |rr: usize, cc: usize| rr * cols + cc;
                let up = at((r + rows - 1) % rows, c);
                let down = at((r + 1) % rows, c);
                let left = at(r, (c + cols - 1) % cols);
                let right = at(r, (c + 1) % cols);
                for _ in 0..iters {
                    if compute_us > 0 {
                        ops.push(Op::Compute {
                            dur: Dur::from_us(compute_us),
                        });
                    }
                    let t = tags.take();
                    // Vertical then horizontal exchange (torus).
                    if rows > 1 {
                        ops.push(Op::Concurrent(vec![
                            Op::Exchange {
                                to: up,
                                from: down,
                                len: face_bytes,
                                tag: t,
                                count: 1,
                            },
                            Op::Exchange {
                                to: down,
                                from: up,
                                len: face_bytes,
                                tag: t + 1,
                                count: 1,
                            },
                        ]));
                    }
                    if cols > 1 {
                        ops.push(Op::Concurrent(vec![
                            Op::Exchange {
                                to: left,
                                from: right,
                                len: face_bytes,
                                tag: t + 2,
                                count: 1,
                            },
                            Op::Exchange {
                                to: right,
                                from: left,
                                len: face_bytes,
                                tag: t + 3,
                                count: 1,
                            },
                        ]));
                    }
                }
            }
            Pattern::MasterWorker {
                task_bytes,
                result_bytes,
                tasks_per_worker,
                compute_us,
            } => {
                assert!(nranks >= 2, "master-worker needs at least one worker");
                for round in 0..tasks_per_worker {
                    let tag = 10_000 + round;
                    if rank == 0 {
                        // Scatter this round's tasks, then collect results.
                        let sends: Vec<Op> = (1..nranks)
                            .map(|w| Op::Send {
                                to: w,
                                len: task_bytes,
                                tag,
                            })
                            .collect();
                        ops.push(Op::Concurrent(sends));
                        let recvs: Vec<Op> = (1..nranks)
                            .map(|w| Op::Recv {
                                from: w,
                                tag: tag + 100_000,
                            })
                            .collect();
                        ops.push(Op::Concurrent(recvs));
                    } else {
                        ops.push(Op::Recv { from: 0, tag });
                        if compute_us > 0 {
                            ops.push(Op::Compute {
                                dur: Dur::from_us(compute_us),
                            });
                        }
                        ops.push(Op::Send {
                            to: 0,
                            len: result_bytes,
                            tag: tag + 100_000,
                        });
                    }
                }
            }
            Pattern::Ring { block_bytes, iters } => {
                let right = (rank + 1) % nranks;
                let left = (rank + nranks - 1) % nranks;
                for _ in 0..iters {
                    let t = tags.take();
                    ops.push(Op::Exchange {
                        to: right,
                        from: left,
                        len: block_bytes,
                        tag: t,
                        count: 1,
                    });
                }
            }
            Pattern::SparseRandom {
                degree,
                msg_bytes,
                supersteps,
                seed,
            } => {
                for step in 0..supersteps {
                    // Deterministic partner set, identical on all ranks:
                    // partner k of rank r in step s is r xor h(s, k).
                    let children: Vec<Op> = (0..degree)
                        .filter_map(|k| {
                            let h = splitmix(seed ^ ((step as u64) << 32) ^ k as u64);
                            let offset = 1 + (h as usize) % (nranks - 1);
                            let partner = (rank + offset) % nranks;
                            let back = (rank + nranks - offset) % nranks;
                            (partner != rank).then_some(Op::Exchange {
                                to: partner,
                                from: back,
                                len: msg_bytes,
                                tag: 50_000 + step * 64 + k as u32,
                                count: 1,
                            })
                        })
                        .collect();
                    ops.push(Op::Concurrent(children));
                    ops.extend(coll::barrier(nranks, rank, tags.take()));
                }
            }
        }
        ops.push(Op::Mark { id: 1 });
        ops
    }
}

/// SplitMix64 — deterministic hash for partner selection.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{JobSpec, MpiJob};

    fn run_pattern(p: &Pattern, ranks_a: usize, ranks_b: usize) -> f64 {
        let spec = JobSpec::two_clusters(ranks_a, ranks_b, Dur::from_us(100));
        let mut job = MpiJob::build(spec, |rank, n| p.ops(rank, n));
        job.run();
        let n = ranks_a + ranks_b;
        let t0 = (0..n)
            .map(|r| job.process(r).runner.mark(0).unwrap())
            .min()
            .unwrap();
        let t1 = (0..n)
            .map(|r| job.process(r).runner.mark(1).unwrap())
            .max()
            .unwrap();
        t1.since(t0).as_secs_f64()
    }

    #[test]
    fn halo2d_completes_and_balances() {
        let p = Pattern::Halo2d {
            rows: 4,
            cols: 4,
            face_bytes: 16384,
            iters: 5,
            compute_us: 100,
        };
        let t = run_pattern(&p, 8, 8);
        assert!(t > 0.0);
    }

    #[test]
    fn master_worker_completes() {
        let p = Pattern::MasterWorker {
            task_bytes: 65536,
            result_bytes: 1024,
            tasks_per_worker: 3,
            compute_us: 500,
        };
        let t = run_pattern(&p, 4, 4);
        assert!(t > 0.0);
    }

    #[test]
    fn ring_and_sparse_complete() {
        let ring = Pattern::Ring {
            block_bytes: 32768,
            iters: 10,
        };
        assert!(run_pattern(&ring, 3, 3) > 0.0);
        let sparse = Pattern::SparseRandom {
            degree: 3,
            msg_bytes: 4096,
            supersteps: 4,
            seed: 7,
        };
        assert!(run_pattern(&sparse, 4, 4) > 0.0);
    }

    #[test]
    fn sparse_partner_graph_is_consistent_across_ranks() {
        // Exchange symmetry: if rank r sends to p at (step, k), then p's
        // receive-partner arithmetic must name r.
        let p = Pattern::SparseRandom {
            degree: 4,
            msg_bytes: 64,
            supersteps: 3,
            seed: 99,
        };
        // Just run it on the engine — MpiJob::run panics on any mismatch.
        assert!(run_pattern(&p, 5, 5) > 0.0);
    }

    #[test]
    fn required_ranks_enforced() {
        let p = Pattern::Halo2d {
            rows: 2,
            cols: 3,
            face_bytes: 64,
            iters: 1,
            compute_us: 0,
        };
        assert_eq!(p.required_ranks(), Some(6));
    }

    #[test]
    fn json_round_trip() {
        let p = Pattern::Ring {
            block_bytes: 100,
            iters: 2,
        };
        let j = p.to_value().to_compact();
        let back = Pattern::from_value(&minijson::Value::parse(&j).unwrap()).unwrap();
        assert_eq!(back.name(), "ring");
        match back {
            Pattern::Ring { block_bytes, iters } => {
                assert_eq!((block_bytes, iters), (100, 2));
            }
            other => panic!("wrong variant {other:?}"),
        }
    }
}
