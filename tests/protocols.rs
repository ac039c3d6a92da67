//! Protocol-invariant tests on the properties DESIGN.md calls out:
//! RC delivers every byte exactly once and in order under arbitrary
//! message schedules and WAN delays; TCP over IPoIB delivers exact byte
//! counts; collectives terminate for arbitrary shapes; simulations replay
//! deterministically.
//!
//! Formerly proptest-driven; the hermetic build vendors no proptest, so
//! each property now walks a seeded deterministic case grid (same coverage
//! envelope, bit-reproducible failures).

use bytes::Bytes;
use ibwan_repro::ibfabric::hca::HcaCore;
use ibwan_repro::ibfabric::perftest::rc_qp_pair;
use ibwan_repro::ibfabric::qp::{QpConfig, Qpn};
use ibwan_repro::ibfabric::ulp::Ulp;
use ibwan_repro::ibfabric::verbs::{Completion, RecvWr, SendWr};
use ibwan_repro::ibfabric::{Fabric, NodeHandle};
use ibwan_repro::ibwan_core::{build_pair, RunConfig, TopoSpec};
use ibwan_repro::ipoib::node::{IpoibConfig, IpoibMode, IpoibNode};
use ibwan_repro::mpisim::coll;
use ibwan_repro::mpisim::world::{JobSpec, MpiJob};
use ibwan_repro::simcore::{Ctx, Dur};
use ibwan_repro::tcpstack::TcpConfig;

/// SplitMix64: the deterministic case generator replacing proptest draws.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// A deterministic pseudo-random vector of message sizes in `[1, max)`.
fn random_sizes(seed: u64, count: usize, max: u32) -> Vec<u32> {
    (0..count)
        .map(|i| 1 + (splitmix(seed ^ (i as u64) << 17) % (max as u64 - 1)) as u32)
        .collect()
}

/// Deterministic payload pattern for message `i` of length `len`.
fn pattern(i: usize, len: usize) -> Bytes {
    (0..len)
        .map(|j| ((i * 131 + j * 7) % 251) as u8)
        .collect::<Vec<u8>>()
        .into()
}

/// Posts a list of integrity-checked messages on start.
struct IntegritySender {
    qpn: Qpn,
    sizes: Vec<u32>,
}

impl Ulp for IntegritySender {
    fn start(&mut self, hca: &mut HcaCore, ctx: &mut Ctx<'_>) {
        for (i, &len) in self.sizes.iter().enumerate() {
            let wr = SendWr::send(i as u64, len, i as u64).with_data(pattern(i, len as usize));
            hca.post_send(ctx, self.qpn, wr);
        }
    }
    fn on_completion(&mut self, _h: &mut HcaCore, _c: &mut Ctx<'_>, _x: Completion) {}
}

/// Collects received messages with payloads.
struct IntegrityReceiver {
    qpn: Qpn,
    got: Vec<(u32, u64, Option<Bytes>)>,
}

impl Ulp for IntegrityReceiver {
    fn start(&mut self, hca: &mut HcaCore, _ctx: &mut Ctx<'_>) {
        for _ in 0..4096 {
            hca.post_recv(self.qpn, RecvWr { wr_id: 0 });
        }
    }
    fn on_completion(&mut self, _h: &mut HcaCore, _c: &mut Ctx<'_>, c: Completion) {
        if let Completion::RecvDone { len, imm, data, .. } = c {
            self.got.push((len, imm, data));
        }
    }
}

fn integrity_fabric(sizes: &[u32], delay_us: u64) -> (Fabric, NodeHandle, NodeHandle) {
    let (mut f, a, b) = build_pair(
        &RunConfig::default(),
        9,
        &TopoSpec::two_site(Dur::from_us(delay_us)),
        Box::new(IntegritySender {
            qpn: Qpn(0),
            sizes: sizes.to_vec(),
        }),
        Box::new(IntegrityReceiver {
            qpn: Qpn(0),
            got: Vec::new(),
        }),
    );
    let (qa, qb) = rc_qp_pair(&mut f, a, b, QpConfig::rc());
    f.hca_mut(a).ulp_mut::<IntegritySender>().qpn = qa;
    f.hca_mut(b).ulp_mut::<IntegrityReceiver>().qpn = qb;
    (f, a, b)
}

fn assert_intact(sizes: &[u32], got: &[(u32, u64, Option<Bytes>)], what: &str) {
    assert_eq!(got.len(), sizes.len(), "{what}: exactly-once delivery");
    for (i, (&expected, (len, imm, data))) in sizes.iter().zip(got.iter()).enumerate() {
        assert_eq!(*len, expected, "{what}: length of message {i}");
        assert_eq!(*imm, i as u64, "{what}: ordering of message {i}");
        let d = data.as_ref().expect("payload must arrive");
        assert_eq!(
            d,
            &pattern(i, expected as usize),
            "{what}: bytes of message {i}"
        );
    }
}

/// RC delivers every message exactly once, in order, bytes intact,
/// regardless of sizes (multi-fragment included) and WAN delay.
#[test]
fn rc_delivers_in_order_and_intact() {
    for (case, &delay_us) in [0u64, 50, 1000, 10_000].iter().enumerate() {
        for round in 0..4u64 {
            let seed = 100 * case as u64 + round;
            let count = 1 + (splitmix(seed) % 15) as usize;
            let sizes = random_sizes(seed ^ 0xA5A5, count, 12_000);
            let (mut f, _a, b) = integrity_fabric(&sizes, delay_us);
            f.run();
            let got = &f.hca(b).ulp::<IntegrityReceiver>().got;
            assert_intact(&sizes, got, &format!("delay={delay_us}us seed={seed}"));
        }
    }
}

/// TCP over IPoIB delivers exactly the bytes the application sent, for
/// any transfer size, stream count, window, and mode.
#[test]
fn tcp_over_ipoib_delivers_exact_byte_counts() {
    let cases: &[(u64, usize, u64, bool, u64)] = &[
        // (total, streams, window_kb, rc_mode, delay_us)
        (1, 1, 16, false, 0),
        (399_999, 4, 1024, true, 200),
        (65_537, 2, 64, true, 0),
        (100_000, 3, 16, false, 200),
        (250_000, 1, 1024, false, 0),
        (8_192, 4, 64, true, 200),
        (77_777, 2, 16, true, 0),
        (123_456, 3, 1024, false, 200),
    ];
    for &(total, streams, window_kb, rc_mode, delay_us) in cases {
        let cfg = if rc_mode {
            IpoibConfig::rc(65536)
        } else {
            IpoibConfig::ud()
        };
        let tcp = TcpConfig::for_mtu(cfg.mtu).with_window(window_kb << 10);
        let tx = Box::new(IpoibNode::sender(cfg, tcp, streams, total));
        let rx = Box::new(IpoibNode::receiver(cfg, tcp, streams, total));
        let (mut f, a, b) = build_pair(
            &RunConfig::default(),
            13,
            &TopoSpec::two_site(Dur::from_us(delay_us)),
            tx,
            rx,
        );
        let qa = f.hca_mut(a).core_mut().create_qp(cfg.qp_config());
        let qb = f.hca_mut(b).core_mut().create_qp(cfg.qp_config());
        if cfg.mode == IpoibMode::Rc {
            f.hca_mut(a).core_mut().connect(qa, (b.lid, qb));
            f.hca_mut(b).core_mut().connect(qb, (a.lid, qa));
        }
        {
            let u = f.hca_mut(a).ulp_mut::<IpoibNode>();
            u.port.qpn = qa;
            u.port.peer = Some((b.lid, qb));
        }
        {
            let u = f.hca_mut(b).ulp_mut::<IpoibNode>();
            u.port.qpn = qb;
            u.port.peer = Some((a.lid, qa));
        }
        f.run();
        assert_eq!(
            f.hca(b).ulp::<IpoibNode>().delivered(),
            total * streams as u64,
            "total={total} streams={streams} window={window_kb}K rc={rc_mode} delay={delay_us}"
        );
    }
}

/// Every collective terminates on the real engine for arbitrary rank
/// counts, roots, and sizes (power-of-two where the algorithm needs it).
#[test]
fn collectives_terminate_on_engine() {
    for log_n in 1u32..4 {
        for &(root_pick, len, delay_us) in &[
            (0usize, 16u32, 0u64),
            (3, 8192, 100),
            (5, 65536, 0),
            (7, 8192, 100),
        ] {
            let n = 1usize << log_n;
            let root = root_pick % n;
            let half = (n / 2).max(1);
            let spec = JobSpec::two_clusters(n - half, half, Dur::from_us(delay_us));
            let mut job = MpiJob::build(spec, |rank, nr| {
                let members: Vec<usize> = (0..nr).collect();
                let mut ops = coll::bcast(&members, rank, root, len, 100);
                ops.extend(coll::barrier(nr, rank, 8000));
                ops.extend(coll::allreduce(nr, rank, 8, 16000));
                ops.extend(coll::alltoall(nr, rank, 256, 24000));
                ops
            });
            // MpiJob::run asserts every rank finished (deadlock check).
            job.run();
        }
    }
}

/// Even with WAN packet loss, RC delivers every message exactly once,
/// in order, with its bytes intact (go-back-N retransmission).
#[test]
fn rc_is_reliable_under_wan_loss() {
    for (case, &loss_ppm) in [5_000u32, 20_000, 50_000].iter().enumerate() {
        for round in 0..3u64 {
            let seed = 1 + 7 * case as u64 + round;
            let count = 1 + (splitmix(seed ^ 0x10F) % 9) as usize;
            let sizes = random_sizes(seed ^ 0xBEEF, count, 8_000);
            let (mut f, a, b) = build_pair(
                &RunConfig::default(),
                seed,
                &TopoSpec::two_site_lossy(Dur::from_us(100), loss_ppm),
                Box::new(IntegritySender {
                    qpn: Qpn(0),
                    sizes: sizes.to_vec(),
                }),
                Box::new(IntegrityReceiver {
                    qpn: Qpn(0),
                    got: Vec::new(),
                }),
            );
            // Tight RTO so the retry storm converges quickly in virtual time.
            let qp = ibwan_repro::ibfabric::qp::QpConfig {
                rto: Dur::from_ms(2),
                ..ibwan_repro::ibfabric::qp::QpConfig::rc()
            };
            let (qa, qb) = rc_qp_pair(&mut f, a, b, qp);
            f.hca_mut(a).ulp_mut::<IntegritySender>().qpn = qa;
            f.hca_mut(b).ulp_mut::<IntegrityReceiver>().qpn = qb;
            f.run();
            let got = &f.hca(b).ulp::<IntegrityReceiver>().got;
            assert_intact(&sizes, got, &format!("loss={loss_ppm}ppm seed={seed}"));
        }
    }
}

/// Subnet-manager routing: on a pseudo-random tree of switches with HCAs
/// hanging off pseudo-random switches, every pair of endpoints can exchange
/// a message (BFS forwarding tables are complete and loop-free).
#[test]
fn random_tree_topologies_route_all_pairs() {
    use ibwan_repro::ibfabric::fabric::FabricBuilder;
    use ibwan_repro::ibfabric::link::LinkConfig;

    for seed in 0..12u64 {
        let n_switches = 1 + (splitmix(seed) % 5) as usize;
        let n_nodes = 2 + (splitmix(seed ^ 1) % 6) as usize;
        let attach: Vec<usize> = (0..n_nodes)
            .map(|i| (splitmix(seed ^ (i as u64) << 8) % 6) as usize)
            .collect();
        let src = (splitmix(seed ^ 2) as usize) % n_nodes;
        let dst_raw = (splitmix(seed ^ 3) as usize) % n_nodes;
        let dst = if dst_raw == src {
            (src + 1) % n_nodes
        } else {
            dst_raw
        };
        let size = 1 + (splitmix(seed ^ 4) % 8999) as u32;

        let mut b = FabricBuilder::new(3);
        let mut nodes = Vec::new();
        for i in 0..n_nodes {
            let ulp: Box<dyn Ulp> = if i == src {
                Box::new(IntegritySender {
                    qpn: Qpn(0),
                    sizes: vec![size],
                })
            } else if i == dst {
                Box::new(IntegrityReceiver {
                    qpn: Qpn(0),
                    got: Vec::new(),
                })
            } else {
                // Bystander nodes own no QPs.
                Box::new(ibwan_repro::ibfabric::NullUlp)
            };
            nodes.push(b.add_hca(ulp));
        }
        let switches: Vec<_> = (0..n_switches).map(|_| b.add_switch()).collect();
        // Random tree over switches: switch k links to a parent among 0..k.
        for k in 1..n_switches {
            let p = (splitmix(seed ^ (k as u64) << 16) as usize) % k;
            b.link(switches[k], switches[p], LinkConfig::ddr_lan());
        }
        for (i, node) in nodes.iter().enumerate() {
            let sw = switches[attach[i] % n_switches];
            b.link(node.actor, sw, LinkConfig::ddr_lan());
        }
        let mut f = b.finish();
        let (qa, qb) = rc_qp_pair(&mut f, nodes[src], nodes[dst], QpConfig::rc());
        f.hca_mut(nodes[src]).ulp_mut::<IntegritySender>().qpn = qa;
        f.hca_mut(nodes[dst]).ulp_mut::<IntegrityReceiver>().qpn = qb;
        f.run();
        let got = &f.hca(nodes[dst]).ulp::<IntegrityReceiver>().got;
        assert_eq!(
            got.len(),
            1,
            "seed {seed}: message must arrive across the tree"
        );
        assert_eq!(got[0].0, size, "seed {seed}");
    }
}

/// SDP delivers exactly the bytes sent, for any message size mix
/// straddling the BCopy/ZCopy threshold, at any delay.
#[test]
fn sdp_delivers_exact_bytes() {
    use ibwan_repro::sdp::SdpNode;
    let cases: &[(u32, u64, u64)] = &[
        // (msg_size, count, delay_us)
        (1, 39, 0),
        (4096, 17, 500),
        (32768, 8, 0),
        (65536, 4, 500),
        (262_144, 2, 0),
        (262_144, 1, 500),
    ];
    for &(msg_size, count, delay_us) in cases {
        let tx = Box::new(SdpNode::sender(msg_size, count));
        let rx = Box::new(SdpNode::receiver());
        let (mut f, a, b) = build_pair(
            &RunConfig::default(),
            21,
            &TopoSpec::two_site(Dur::from_us(delay_us)),
            tx,
            rx,
        );
        let (qa, qb) = rc_qp_pair(&mut f, a, b, QpConfig::rc());
        f.hca_mut(a).ulp_mut::<SdpNode>().socket.qpn = qa;
        f.hca_mut(b).ulp_mut::<SdpNode>().socket.qpn = qb;
        f.run();
        assert_eq!(
            f.hca(b).ulp::<SdpNode>().delivered(),
            msg_size as u64 * count,
            "size={msg_size} count={count} delay={delay_us}"
        );
    }
}

/// Every synthetic pattern terminates on the engine for arbitrary
/// parameters (deadlock freedom of the generated scripts).
#[test]
fn patterns_terminate() {
    use ibwan_repro::mpisim::patterns::Pattern;
    for which in 0usize..4 {
        for &(per_cluster, msg, reps) in &[(2usize, 64u32, 1u32), (3, 8192, 3), (4, 65536, 2)] {
            let n = 2 * per_cluster;
            let p = match which {
                0 => Pattern::Halo2d {
                    rows: 2,
                    cols: n / 2,
                    face_bytes: msg,
                    iters: reps,
                    compute_us: 10,
                },
                1 => Pattern::MasterWorker {
                    task_bytes: msg,
                    result_bytes: 64,
                    tasks_per_worker: reps,
                    compute_us: 10,
                },
                2 => Pattern::Ring {
                    block_bytes: msg,
                    iters: reps,
                },
                _ => Pattern::SparseRandom {
                    degree: 2,
                    msg_bytes: msg,
                    supersteps: reps,
                    seed: 11,
                },
            };
            let spec = JobSpec::two_clusters(per_cluster, per_cluster, Dur::from_us(50));
            let mut job = MpiJob::build(spec, |rank, nr| p.ops(rank, nr));
            job.run(); // asserts all ranks finished
        }
    }
}

/// Same seed, same configuration: bit-identical virtual end times.
#[test]
fn deterministic_replay() {
    for seed in 0..6u64 {
        let delay_us = splitmix(seed ^ 0x77) % 2_000;
        let count = 1 + (splitmix(seed ^ 0x99) % 7) as usize;
        let sizes = random_sizes(seed, count, 5_000);
        let run = |sizes: &[u32]| {
            let (mut f, _a, _b) = integrity_fabric(sizes, delay_us);
            f.run().as_ns()
        };
        assert_eq!(run(&sizes), run(&sizes), "seed {seed}");
    }
}
