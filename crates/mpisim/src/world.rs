//! MPI job construction: lays ranks across the cluster-of-clusters topology
//! and wires the QP mesh.

use crate::proto::{MpiConfig, P2p, TOKEN_COPY};
use crate::script::{Op, ScriptRunner, TOKEN_COMPUTE};
use ibfabric::fabric::{Fabric, NodeHandle};
use ibfabric::hca::HcaCore;
use ibfabric::perftest::rc_qp_pair;
use ibfabric::qp::QpConfig;
use ibfabric::ulp::Ulp;
use ibfabric::verbs::Completion;
use ibtopo::TopoSpec;
use simcore::{Ctx, Dur, Time};

/// Transport parameters for the per-peer RC QPs.
const PEER_QP: QpConfig = QpConfig::rc();

/// One MPI rank: protocol engine + script interpreter, running as a ULP.
pub struct MpiProcess {
    /// This process's rank.
    pub rank: usize,
    /// Point-to-point engine.
    pub proto: P2p,
    /// Script interpreter.
    pub runner: ScriptRunner,
    finished_at: Option<Time>,
}

impl MpiProcess {
    /// A rank executing `ops`.
    pub fn new(rank: usize, nranks: usize, cfg: MpiConfig, ops: Vec<Op>) -> Self {
        MpiProcess {
            rank,
            proto: P2p::new(rank, nranks, cfg),
            runner: ScriptRunner::new(ops),
            finished_at: None,
        }
    }

    /// Virtual time at which this rank's script completed.
    pub fn finished_at(&self) -> Option<Time> {
        self.finished_at
    }

    fn pump(&mut self, hca: &mut HcaCore, ctx: &mut Ctx<'_>) {
        for ev in self.proto.take_events() {
            self.runner.note_done(ev.req);
        }
        self.runner.advance(&mut self.proto, hca, ctx);
        if self.runner.finished() && self.finished_at.is_none() {
            self.finished_at = Some(ctx.now());
        }
    }
}

impl Ulp for MpiProcess {
    fn start(&mut self, hca: &mut HcaCore, ctx: &mut Ctx<'_>) {
        self.proto.setup_recv_pools(hca);
        self.pump(hca, ctx);
    }

    fn on_completion(&mut self, hca: &mut HcaCore, ctx: &mut Ctx<'_>, c: Completion) {
        self.proto.on_completion(hca, ctx, c);
        self.pump(hca, ctx);
    }

    fn on_timer(&mut self, hca: &mut HcaCore, ctx: &mut Ctx<'_>, token: u64) {
        match token {
            TOKEN_COMPUTE => self.runner.on_compute_done(),
            TOKEN_COPY => self.proto.on_copy_timer(),
            other => panic!("unknown timer token {other}"),
        }
        self.pump(hca, ctx);
    }
}

/// Where a job's ranks live and how far apart the clusters are.
#[derive(Copy, Clone, Debug)]
pub struct JobSpec {
    /// Ranks on cluster A (ranks `0..ranks_a`).
    pub ranks_a: usize,
    /// Ranks on cluster B (ranks `ranks_a..ranks_a+ranks_b`); 0 = single
    /// cluster, no WAN link.
    pub ranks_b: usize,
    /// One-way WAN wire delay emulated by the Longbow pair.
    pub delay: Dur,
    /// MPI library configuration.
    pub mpi: MpiConfig,
    /// Engine seed.
    pub seed: u64,
    /// Fragment-train coalescing on the wire path.
    pub coalescing: bool,
}

impl JobSpec {
    /// A two-cluster job with `ranks_a + ranks_b` ranks and default stacks.
    pub fn two_clusters(ranks_a: usize, ranks_b: usize, delay: Dur) -> Self {
        JobSpec {
            ranks_a,
            ranks_b,
            delay,
            mpi: MpiConfig::default(),
            seed: 42,
            coalescing: true,
        }
    }

    /// Total rank count.
    pub fn nranks(&self) -> usize {
        self.ranks_a + self.ranks_b
    }

    /// Replace the MPI configuration.
    pub fn with_mpi(mut self, mpi: MpiConfig) -> Self {
        self.mpi = mpi;
        self
    }

    /// Replace the engine seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// A built MPI job, ready to run.
pub struct MpiJob {
    /// The underlying fabric (exposes the engine).
    pub fabric: Fabric,
    nodes: Vec<NodeHandle>,
}

impl MpiJob {
    /// Build the job: one node per rank, block rank distribution across the
    /// two clusters, Longbow pair between the cluster switches, full RC QP
    /// mesh. `program(rank, nranks)` produces each rank's script. The
    /// topology is the declarative [`TopoSpec::clusters`] shape; jobs on
    /// arbitrary generated fabrics go through [`MpiJob::build_on_topo`].
    pub fn build<F: Fn(usize, usize) -> Vec<Op>>(spec: JobSpec, program: F) -> Self {
        let topo = TopoSpec::clusters(spec.ranks_a, spec.ranks_b, spec.delay);
        Self::build_on_topo(&topo, spec.mpi, spec.seed, spec.coalescing, program)
    }

    /// Build an MPI job on any declarative topology: rank `r` runs on host
    /// `r` of `topo` (site-major order), with a full RC QP mesh over all
    /// ranks. This is how generated fabrics (multi-site chains, stars,
    /// fat-trees) host MPI workloads.
    pub fn build_on_topo<F: Fn(usize, usize) -> Vec<Op>>(
        topo: &TopoSpec,
        mpi: MpiConfig,
        seed: u64,
        coalescing: bool,
        program: F,
    ) -> Self {
        let n = topo.total_hosts();
        assert!(n >= 1, "need at least one rank");
        let (mut fabric, nodes) = topo.build(seed, coalescing, |rank| {
            Box::new(MpiProcess::new(rank, n, mpi, program(rank, n))) as Box<dyn Ulp>
        });
        // Full RC mesh: one connected QP pair per rank pair.
        for i in 0..n {
            for j in (i + 1)..n {
                let (qi, qj) = rc_qp_pair(&mut fabric, nodes[i], nodes[j], PEER_QP);
                fabric
                    .hca_mut(nodes[i])
                    .ulp_mut::<MpiProcess>()
                    .proto
                    .set_peer_qp(j, qi);
                fabric
                    .hca_mut(nodes[j])
                    .ulp_mut::<MpiProcess>()
                    .proto
                    .set_peer_qp(i, qj);
            }
        }
        MpiJob { fabric, nodes }
    }

    /// Run to completion; returns the final virtual time and asserts every
    /// rank's script finished (deadlock check).
    pub fn run(&mut self) -> Time {
        let t = self.fabric.run();
        for (rank, node) in self.nodes.iter().enumerate() {
            let p = self.fabric.hca(*node).ulp::<MpiProcess>();
            assert!(
                p.runner.finished(),
                "rank {rank} deadlocked at op {} of its script",
                p.runner.pc()
            );
        }
        t
    }

    /// Borrow a rank's process state (marks, counters) after a run.
    pub fn process(&self, rank: usize) -> &MpiProcess {
        self.fabric.hca(self.nodes[rank]).ulp::<MpiProcess>()
    }

    /// The job's communication matrix: `matrix[i][j]` = payload bytes rank
    /// `i` sent to rank `j` (the profiling view the paper uses to explain
    /// application WAN behaviour).
    pub fn traffic_matrix(&self) -> Vec<Vec<u64>> {
        (0..self.nodes.len())
            .map(|r| self.process(r).proto.bytes_to_peers().to_vec())
            .collect()
    }

    /// Bytes that crossed the WAN link (sender and receiver on different
    /// clusters), given the rank split.
    pub fn wan_bytes(&self, split: usize) -> u64 {
        self.traffic_matrix()
            .iter()
            .enumerate()
            .flat_map(|(i, row)| {
                row.iter()
                    .enumerate()
                    .filter(move |(j, _)| (i < split) != (*j < split))
                    .map(|(_, &b)| b)
            })
            .sum()
    }

    /// Latest finish time across ranks (job completion).
    pub fn job_finished_at(&self) -> Time {
        (0..self.nodes.len())
            .filter_map(|r| self.process(r).finished_at())
            .max()
            .unwrap_or(Time::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::script::repeat;

    #[test]
    fn two_rank_ping_pong_runs() {
        let spec = JobSpec::two_clusters(1, 1, Dur::from_us(10));
        let mut job = MpiJob::build(spec, |rank, _| {
            let body = if rank == 0 {
                vec![
                    Op::Send {
                        to: 1,
                        len: 8,
                        tag: 1,
                    },
                    Op::Recv { from: 1, tag: 2 },
                ]
            } else {
                vec![
                    Op::Recv { from: 0, tag: 1 },
                    Op::Send {
                        to: 0,
                        len: 8,
                        tag: 2,
                    },
                ]
            };
            repeat(&body, 10)
        });
        let t = job.run();
        // 10 round trips across a 10 us WAN: at least 200 us.
        assert!(t >= Time::from_us(200), "finished too fast: {t}");
        assert_eq!(job.process(0).proto.msgs_sent(), 10);
    }

    #[test]
    fn rendezvous_send_crosses_threshold() {
        let spec = JobSpec::two_clusters(1, 1, Dur::ZERO);
        let mut job = MpiJob::build(spec, |rank, _| {
            if rank == 0 {
                vec![Op::Send {
                    to: 1,
                    len: 1 << 20,
                    tag: 1,
                }]
            } else {
                vec![Op::Recv { from: 0, tag: 1 }]
            }
        });
        job.run();
        assert_eq!(job.process(1).proto.msgs_sent(), 0);
        assert_eq!(job.process(0).proto.bytes_sent(), 1 << 20);
    }

    #[test]
    fn single_cluster_without_wan() {
        let spec = JobSpec::two_clusters(4, 0, Dur::ZERO);
        let mut job = MpiJob::build(spec, |rank, n| crate::coll::barrier(n, rank, 10));
        job.run();
        // Note: the engine's final event is the (idle) RC retransmission
        // timer, so measure the job's completion time instead.
        let t = job.job_finished_at();
        assert!(t < Time::from_ms(1), "LAN barrier should be fast: {t}");
    }

    #[test]
    fn compute_op_advances_time() {
        let spec = JobSpec::two_clusters(1, 0, Dur::ZERO);
        let mut job = MpiJob::build(spec, |_, _| {
            vec![
                Op::Mark { id: 0 },
                Op::Compute {
                    dur: Dur::from_ms(3),
                },
                Op::Mark { id: 1 },
            ]
        });
        job.run();
        let p = job.process(0);
        let d = p.runner.mark(1).unwrap() - p.runner.mark(0).unwrap();
        assert_eq!(d, Dur::from_ms(3));
    }

    #[test]
    fn collective_bcast_end_to_end() {
        // 8+8 ranks, 128 KB bcast: hierarchical must beat flat at 1 ms delay.
        fn bcast_time(hier: bool) -> Dur {
            let spec = JobSpec::two_clusters(8, 8, Dur::from_ms(1));
            let mut job = MpiJob::build(spec, |rank, n| {
                let mut ops = vec![Op::Mark { id: 0 }];
                if hier {
                    ops.extend(crate::coll::bcast_hierarchical(n, rank, 0, 8, 131072, 100));
                } else {
                    let members: Vec<usize> = (0..n).collect();
                    ops.extend(crate::coll::bcast(&members, rank, 0, 131072, 100));
                }
                ops.push(Op::Mark { id: 1 });
                ops
            });
            job.run();
            // Completion = when the slowest rank finishes.
            (0..16)
                .map(|r| {
                    let p = job.process(r);
                    p.runner.mark(1).unwrap() - p.runner.mark(0).unwrap()
                })
                .max()
                .unwrap()
        }
        let flat = bcast_time(false);
        let hier = bcast_time(true);
        assert!(
            hier < flat,
            "hierarchical ({hier}) must beat flat ({flat}) at 1 ms delay"
        );
    }

    #[test]
    fn traffic_matrix_counts_wan_bytes() {
        let spec = JobSpec::two_clusters(2, 2, Dur::from_us(10));
        let mut job = MpiJob::build(spec, |rank, _| {
            if rank == 0 {
                vec![
                    Op::Send {
                        to: 1,
                        len: 100,
                        tag: 1,
                    }, // intra-cluster
                    Op::Send {
                        to: 2,
                        len: 200,
                        tag: 2,
                    }, // WAN
                ]
            } else if rank == 1 {
                vec![Op::Recv { from: 0, tag: 1 }]
            } else if rank == 2 {
                vec![Op::Recv { from: 0, tag: 2 }]
            } else {
                vec![]
            }
        });
        job.run();
        let m = job.traffic_matrix();
        assert_eq!(m[0][1], 100);
        assert_eq!(m[0][2], 200);
        assert_eq!(job.wan_bytes(2), 200);
    }

    #[test]
    #[should_panic(expected = "deadlocked")]
    fn deadlock_is_detected() {
        let spec = JobSpec::two_clusters(2, 0, Dur::ZERO);
        let mut job = MpiJob::build(spec, |rank, _| {
            if rank == 0 {
                vec![Op::Recv { from: 1, tag: 9 }]
            } else {
                vec![]
            }
        });
        job.run();
    }
}
