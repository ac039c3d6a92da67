//! Fabric construction: topology building, cable wiring, and subnet-manager
//! route computation.
//!
//! [`FabricBuilder`] accumulates HCAs, switches (among them the two-port
//! switches the `obsidian` crate configures as Longbow XR units), and
//! cables; [`FabricBuilder::finish`] wires egress ports, folding each
//! lossless two-port switch into the ports that feed it, runs the subnet
//! manager (BFS shortest-path LID routing, which is how a real SM programs
//! linear forwarding tables), and schedules every ULP's `start` callback at
//! time zero.

use crate::hca::{HcaActor, HcaCore, START_TOKEN};
use crate::link::{EgressPort, LinkConfig};
use crate::switch::Switch;
use crate::types::Lid;
use crate::ulp::Ulp;
use simcore::{Actor, ActorId, Engine, EngineCounters, Time};
use std::cell::RefCell;
use std::collections::VecDeque;

/// Engine work accumulated by every [`Fabric::run`] on the current thread
/// since the last [`reset_run_tally`]. Experiment constructors bury their
/// fabrics, so the provenance-stamping runner reads per-experiment engine
/// stats from here. The tally is **thread-local**: sweep workers each
/// accumulate their own and `sweep::parallel_map` merges them back into the
/// calling thread, so concurrent experiments never bleed counters into each
/// other the way the old process-wide atomics did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunTally {
    /// Summed engine-counter deltas across runs (`peak_queue_len` is a max).
    pub counters: EngineCounters,
    /// `Fabric::run` calls.
    pub runs: u64,
    /// Fabrics lowered from a declarative `TopoSpec` (via [`note_topo`]).
    pub topos_built: u64,
    /// XOR of every noted `TopoSpec` digest — order-independent, so sweep
    /// workers lowering the same specs in any schedule merge to the same
    /// fingerprint. 0 when no spec was noted.
    pub topo_digest: u64,
    /// Largest endpoint count across all runs (the fabric's scale).
    pub max_nodes: u64,
}

impl RunTally {
    /// Fold another tally (e.g. a sweep worker's) into this one.
    pub fn merge(&mut self, other: &RunTally) {
        self.counters += other.counters;
        self.runs += other.runs;
        self.topos_built += other.topos_built;
        self.topo_digest ^= other.topo_digest;
        self.max_nodes = self.max_nodes.max(other.max_nodes);
    }
}

thread_local! {
    static RUN_TALLY: RefCell<RunTally> = RefCell::new(RunTally::default());
}

/// Reset the current thread's run tally (call before an experiment).
pub fn reset_run_tally() {
    RUN_TALLY.with(|t| *t.borrow_mut() = RunTally::default());
}

/// Take the current thread's run tally, leaving it reset.
pub fn take_run_tally() -> RunTally {
    RUN_TALLY.with(|t| std::mem::take(&mut *t.borrow_mut()))
}

/// A snapshot of the current thread's run tally.
pub fn run_tally() -> RunTally {
    RUN_TALLY.with(|t| t.borrow().clone())
}

/// Fold a tally captured on another thread (a finished sweep worker) into
/// the current thread's tally.
pub fn merge_run_tally(other: &RunTally) {
    RUN_TALLY.with(|t| t.borrow_mut().merge(other));
}

/// Record that a fabric was lowered from a declarative `TopoSpec` with the
/// given digest. Called by the topology layer's lowering pass; the runner
/// reads the accumulated fingerprint back out of the run tally and threads
/// it into every figure's provenance block.
pub fn note_topo(digest: u64) {
    RUN_TALLY.with(|t| {
        let mut t = t.borrow_mut();
        t.topos_built += 1;
        t.topo_digest ^= digest;
    });
}

/// Per-run engine-counter delta: monotonic fields subtract; the queue
/// high-water mark is not differentiable, so the run inherits the engine's
/// lifetime peak.
fn counters_delta(after: &EngineCounters, before: &EngineCounters) -> EngineCounters {
    EngineCounters {
        events_processed: after.events_processed - before.events_processed,
        events_allocated: after.events_allocated - before.events_allocated,
        pool_hits: after.pool_hits - before.pool_hits,
        peak_queue_len: after.peak_queue_len,
        trains_emitted: after.trains_emitted - before.trains_emitted,
        fragments_coalesced: after.fragments_coalesced - before.fragments_coalesced,
        control_trains: after.control_trains - before.control_trains,
        control_coalesced: after.control_coalesced - before.control_coalesced,
        cal_bucket_occupancy: std::array::from_fn(|b| {
            after.cal_bucket_occupancy[b] - before.cal_bucket_occupancy[b]
        }),
        cal_fallback_hits: after.cal_fallback_hits - before.cal_fallback_hits,
    }
}

/// A fabric endpoint: the actor id of its HCA and its assigned LID.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct NodeHandle {
    /// Engine actor id of the [`HcaActor`].
    pub actor: ActorId,
    /// Subnet-manager-assigned LID.
    pub lid: Lid,
}

enum Kind {
    Endpoint,
    Switch,
}

/// Builds a fabric on top of a fresh [`Engine`].
pub struct FabricBuilder {
    engine: Engine,
    kinds: Vec<Kind>,
    /// adjacency: for each actor, (peer actor, local port idx, link cfg).
    adj: Vec<Vec<(ActorId, usize, LinkConfig)>>,
    ports_used: Vec<usize>,
    next_lid: u16,
    nodes: Vec<NodeHandle>,
    /// Fragment-train coalescing on the wire path, where the topology can
    /// carry trains exactly, and two-port switches folded into the ports
    /// that feed them (see [`FabricBuilder::finish`]). It changes wall clock
    /// only: every virtual-time observable is the same either way.
    coalescing: bool,
}

impl FabricBuilder {
    /// Start building with a deterministic seed, coalescing on.
    pub fn new(seed: u64) -> Self {
        FabricBuilder {
            engine: Engine::new(seed),
            kinds: Vec::new(),
            adj: Vec::new(),
            ports_used: Vec::new(),
            next_lid: 1,
            nodes: Vec::new(),
            coalescing: true,
        }
    }

    /// Force the per-fragment, per-hop path for this fabric: no trains, and
    /// every switch forwards as an event of its own. For
    /// `repro --no-coalescing`, and components that introduce per-fragment
    /// divergence trains cannot express (e.g. random per-fragment loss
    /// injection).
    pub fn disable_coalescing(&mut self) {
        self.coalescing = false;
    }

    fn register(&mut self, actor: Box<dyn Actor>, kind: Kind) -> ActorId {
        let id = self.engine.add_actor(actor);
        debug_assert_eq!(id, self.kinds.len());
        self.kinds.push(kind);
        self.adj.push(Vec::new());
        self.ports_used.push(0);
        id
    }

    /// Add a compute node: an HCA running `ulp`. A LID is assigned.
    pub fn add_hca(&mut self, ulp: Box<dyn Ulp>) -> NodeHandle {
        let lid = Lid(self.next_lid);
        self.next_lid += 1;
        let core = HcaCore::new(lid);
        let actor = self.register(Box::new(HcaActor::new(core, ulp)), Kind::Endpoint);
        let handle = NodeHandle { actor, lid };
        self.nodes.push(handle);
        handle
    }

    /// Add a switch with the default forwarding latency.
    pub fn add_switch(&mut self) -> ActorId {
        self.add_switch_with(Switch::new())
    }

    /// Add a configured switch (e.g. a Longbow XR unit from the `obsidian`
    /// crate). The subnet manager routes it like any other.
    pub fn add_switch_with(&mut self, switch: Switch) -> ActorId {
        self.register(Box::new(switch), Kind::Switch)
    }

    /// Cable two fabric entities together with symmetric link parameters.
    pub fn link(&mut self, a: ActorId, b: ActorId, cfg: LinkConfig) {
        for &(id, peer) in &[(a, b), (b, a)] {
            let port = self.ports_used[id];
            if let Kind::Endpoint = self.kinds[id] {
                assert_eq!(port, 0, "HCAs take exactly one cable");
            }
            self.ports_used[id] += 1;
            self.adj[id].push((peer, port, cfg));
        }
    }

    /// Switches folded into the ports that feed them
    /// ([`EgressPort::fold`]). A switch folds when its fabric coalesces, it
    /// drops nothing, and it has exactly two cables, to two different peers,
    /// neither credited: each of its egresses then has one feeder, the port
    /// on its other cable. A chain of them stays unfolded when its receiver
    /// also has a credited cable straight to the chain's head: seeing the
    /// head as the sender, it would return a credit it does not owe.
    fn folded(&self) -> Vec<bool> {
        let uncredited = |&(_, _, cfg): &(ActorId, usize, LinkConfig)| cfg.credit_packets.is_none();
        let mut folded: Vec<bool> = (0..self.kinds.len())
            .map(|id| {
                self.coalescing
                    && matches!(self.kinds[id], Kind::Switch)
                    && self.engine.actor::<Switch>(id).loss_per_million == 0
                    && matches!(&self.adj[id][..], [a, b] if a.0 != b.0 && uncredited(a) && uncredited(b))
            })
            .collect();
        // Unfolded switches have no credited cable, so unfolding a chain
        // makes no new triangle: one pass finds them all.
        for head in 0..folded.len() {
            if folded[head] || self.adj[head].iter().all(uncredited) {
                continue;
            }
            for &(first, _, _) in &self.adj[head] {
                let (hops, end) = self.chain(&folded, head, first);
                if self.adj[head].iter().any(|a| a.0 == end && !uncredited(a)) {
                    for (sw, _) in hops {
                        folded[sw] = false;
                    }
                }
            }
        }
        folded
    }

    /// The folded switches a packet crosses leaving `head` on its cable to
    /// `first`, in order, each with its outgoing cable, and the first actor
    /// past them that is not folded.
    fn chain(
        &self,
        folded: &[bool],
        head: ActorId,
        first: ActorId,
    ) -> (Vec<(ActorId, LinkConfig)>, ActorId) {
        let (mut prev, mut cur) = (head, first);
        let mut hops = Vec::new();
        while folded[cur] {
            let &(next, _, out) = self.adj[cur]
                .iter()
                .find(|&&(peer, _, _)| peer != prev)
                .expect("a folded switch has two peers");
            hops.push((cur, out));
            (prev, cur) = (cur, next);
        }
        (hops, cur)
    }

    /// Wire ports, run the subnet manager, schedule ULP starts, and return
    /// the runnable fabric.
    pub fn finish(mut self) -> Fabric {
        // Attach egress ports for every adjacency entry of an actor that is
        // not folded, each with its own delivery stream to the first actor
        // past the switches folded into it, and give each HCA a stream to
        // itself. Folded switches keep their routes but get no port.
        let folded = self.folded();
        self.engine
            .reserve_streams(self.adj.iter().map(Vec::len).sum::<usize>() + self.nodes.len());
        for (id, adj) in self.adj.iter().enumerate() {
            if folded[id] {
                continue;
            }
            for &(peer, port, cfg) in adj {
                let (hops, end) = self.chain(&folded, id, peer);
                let mut egress = EgressPort::new(peer, cfg, self.engine.open_stream(id, end));
                for (sw, out) in hops {
                    egress.fold(self.engine.actor::<Switch>(sw).fwd_latency, out);
                }
                match self.kinds[id] {
                    Kind::Endpoint => {
                        let redelivery = self.engine.open_stream(id, id);
                        self.engine
                            .actor_mut::<HcaActor>(id)
                            .core_mut()
                            .attach_port(egress, redelivery)
                    }
                    Kind::Switch => self
                        .engine
                        .actor_mut::<Switch>(id)
                        .attach_port(port, egress),
                }
            }
        }

        // Subnet manager: BFS from every endpoint; each switch routes the
        // endpoint's LID out the port it was discovered through.
        let n = self.adj.len();
        for &NodeHandle { actor: end, lid } in &self.nodes {
            let mut seen = vec![false; n];
            let mut queue = VecDeque::new();
            seen[end] = true;
            queue.push_back(end);
            while let Some(u) = queue.pop_front() {
                // `adj`, `kinds` and `engine` are disjoint fields, so the
                // neighbor list is read in place while switches are routed.
                for &(v, _, _) in &self.adj[u] {
                    if seen[v] {
                        continue;
                    }
                    seen[v] = true;
                    // v was discovered via u: v's route to `lid` is its port
                    // facing u.
                    if matches!(self.kinds[v], Kind::Switch) {
                        let port_to_u = self.adj[v]
                            .iter()
                            .find(|&&(p, _, _)| p == u)
                            .map(|&(_, port, _)| port)
                            .expect("adjacency must be symmetric");
                        self.engine
                            .actor_mut::<Switch>(v)
                            .set_route(lid.0, port_to_u);
                    }
                    queue.push_back(v);
                }
            }
        }

        // Fragment trains are only exact when no switch can merge competing
        // flows onto one egress port mid-train: a >2-port switch may
        // interleave two flows' fragments on shared egress, which per-train
        // reservation cannot reproduce. Pipeline topologies (HCA–HCA,
        // HCA–switch–HCA, a Longbow pair's two-port units) are safe.
        let safe = self
            .kinds
            .iter()
            .enumerate()
            .filter(|(_, k)| matches!(k, Kind::Switch))
            .all(|(id, _)| self.ports_used[id] <= 2);
        let coalesce = self.coalescing && safe;
        for &NodeHandle { actor, .. } in &self.nodes {
            self.engine
                .actor_mut::<HcaActor>(actor)
                .core_mut()
                .set_coalescing(coalesce);
        }

        // Kick every ULP at time zero.
        for &NodeHandle { actor, .. } in &self.nodes {
            self.engine.schedule_timer(Time::ZERO, actor, START_TOKEN);
        }

        let switches = self
            .kinds
            .iter()
            .enumerate()
            .filter(|(_, k)| matches!(k, Kind::Switch))
            .map(|(id, _)| id)
            .collect();
        Fabric {
            engine: self.engine,
            nodes: self.nodes,
            switches,
        }
    }
}

/// A wired, runnable fabric.
pub struct Fabric {
    /// The underlying engine; run it with [`Engine::run`] or step manually.
    pub engine: Engine,
    nodes: Vec<NodeHandle>,
    switches: Vec<ActorId>,
}

impl Fabric {
    /// All endpoints in creation order.
    pub fn nodes(&self) -> &[NodeHandle] {
        &self.nodes
    }

    /// Borrow a node's [`HcaActor`].
    pub fn hca(&self, node: NodeHandle) -> &HcaActor {
        self.engine.actor::<HcaActor>(node.actor)
    }

    /// Mutably borrow a node's [`HcaActor`].
    pub fn hca_mut(&mut self, node: NodeHandle) -> &mut HcaActor {
        self.engine.actor_mut::<HcaActor>(node.actor)
    }

    /// Run the simulation to quiescence; returns final virtual time. The
    /// run's engine-counter delta is added to the current thread's
    /// [`RunTally`].
    pub fn run(&mut self) -> Time {
        let before = self.engine.counters();
        let t = self.engine.run();
        let after = self.engine.counters();
        RUN_TALLY.with(|tally| {
            let mut tally = tally.borrow_mut();
            tally.runs += 1;
            tally.counters += counters_delta(&after, &before);
            tally.max_nodes = tally.max_nodes.max(self.nodes.len() as u64);
        });
        t
    }

    /// All switch actor ids (creation order).
    pub fn switches(&self) -> &[ActorId] {
        &self.switches
    }

    /// Aggregate traffic statistics across the fabric — post-run diagnosis
    /// of who moved what.
    pub fn report(&self) -> FabricReport {
        let mut r = FabricReport::default();
        // A folded switch's packets count in the ports that feed it.
        for &node in &self.nodes {
            let core = self.hca(node).core();
            r.hca_packets_sent += core.packets_sent();
            r.hca_packets_received += core.packets_received();
            r.switch_packets_forwarded += core.port.as_ref().map_or(0, EgressPort::hops_forwarded);
        }
        for &sw in &self.switches {
            let sw = self.engine.actor::<Switch>(sw);
            let hops: u64 = sw
                .ports
                .iter()
                .flatten()
                .map(EgressPort::hops_forwarded)
                .sum();
            r.switch_packets_forwarded += sw.forwarded() + hops;
        }
        r.nodes = self.nodes.len();
        r.switches = self.switches.len();
        r.engine_counters = self.engine.counters();
        r
    }
}

/// Fabric-wide traffic totals from [`Fabric::report`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FabricReport {
    /// Endpoint count.
    pub nodes: usize,
    /// Switch count, Longbow XR units included (each is a two-port switch).
    pub switches: usize,
    /// Packets emitted by all HCAs (data + ACKs + retransmissions).
    pub hca_packets_sent: u64,
    /// Packets delivered to all HCAs.
    pub hca_packets_received: u64,
    /// Packets forwarded across all switches, Longbow XR units included.
    pub switch_packets_forwarded: u64,
    /// Event-engine hot-path counters (allocations, pool hits, queue depth).
    pub engine_counters: simcore::EngineCounters,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qp::QpConfig;
    use crate::ulp::NullUlp;
    use crate::verbs::{Completion, RecvWr, SendWr};
    use simcore::Ctx;

    /// ULP that sends one message to a peer on start and records receptions.
    struct OneShot {
        peer: Option<(Lid, crate::qp::Qpn)>,
        len: u32,
        got: Vec<(u32, u64)>,
        send_done_at: Option<Time>,
        recv_done_at: Option<Time>,
    }

    impl OneShot {
        fn new() -> Self {
            OneShot {
                peer: None,
                len: 0,
                got: vec![],
                send_done_at: None,
                recv_done_at: None,
            }
        }
    }

    impl Ulp for OneShot {
        fn start(&mut self, hca: &mut HcaCore, ctx: &mut Ctx<'_>) {
            // Both sides made QP 0 during setup (test harness below).
            if let Some(peer) = self.peer {
                let qpn = crate::qp::Qpn(0);
                hca.connect(qpn, peer);
                hca.post_send(ctx, qpn, SendWr::send(1, self.len, 99));
            }
        }
        fn on_completion(&mut self, _hca: &mut HcaCore, ctx: &mut Ctx<'_>, c: Completion) {
            match c {
                Completion::SendDone { .. } => self.send_done_at = Some(ctx.now()),
                Completion::RecvDone { len, imm, .. } => {
                    self.got.push((len, imm));
                    self.recv_done_at = Some(ctx.now());
                }
                Completion::WriteArrived { .. } => {}
            }
        }
    }

    fn two_nodes_via_switch(len: u32) -> (Fabric, NodeHandle, NodeHandle) {
        let mut b = FabricBuilder::new(7);
        let n1 = b.add_hca(Box::new(OneShot::new()));
        let n2 = b.add_hca(Box::new(OneShot::new()));
        let sw = b.add_switch();
        b.link(n1.actor, sw, LinkConfig::ddr_lan());
        b.link(n2.actor, sw, LinkConfig::ddr_lan());
        let mut f = b.finish();
        one_shot(&mut f, n1, n2, len);
        (f, n1, n2)
    }

    /// Create QPs and connect: `n1` sends one `len`-byte message to `n2`.
    fn one_shot(f: &mut Fabric, n1: NodeHandle, n2: NodeHandle, len: u32) {
        let q1 = f.hca_mut(n1).core_mut().create_qp(QpConfig::rc());
        let q2 = f.hca_mut(n2).core_mut().create_qp(QpConfig::rc());
        f.hca_mut(n2).core_mut().connect(q2, (n1.lid, q1));
        f.hca_mut(n2).core_mut().post_recv(q2, RecvWr { wr_id: 0 });
        let ulp = f.hca_mut(n1).ulp_mut::<OneShot>();
        ulp.peer = Some((n2.lid, q2));
        ulp.len = len;
    }

    #[test]
    fn end_to_end_send_through_switch() {
        let (mut f, n1, n2) = two_nodes_via_switch(4096);
        f.run();
        let rx = f.hca(n2).ulp::<OneShot>();
        assert_eq!(rx.got, vec![(4096, 99)]);
        let tx = f.hca(n1).ulp::<OneShot>();
        // Sender completes only after the ACK returns: later than receiver.
        assert!(tx.send_done_at.unwrap() > rx.recv_done_at.unwrap() - simcore::Dur::from_us(1));
    }

    #[test]
    fn lids_are_unique_and_dense() {
        let mut b = FabricBuilder::new(1);
        let n1 = b.add_hca(Box::new(NullUlp));
        let n2 = b.add_hca(Box::new(NullUlp));
        let n3 = b.add_hca(Box::new(NullUlp));
        assert_eq!((n1.lid, n2.lid, n3.lid), (Lid(1), Lid(2), Lid(3)));
    }

    #[test]
    fn routing_across_two_switches() {
        // n1 - sw1 - sw2 - n2: the SM must install routes on both switches.
        // Per hop, so that both forward by them instead of folding.
        let mut b = FabricBuilder::new(7);
        b.disable_coalescing();
        let n1 = b.add_hca(Box::new(OneShot::new()));
        let n2 = b.add_hca(Box::new(OneShot::new()));
        let sw1 = b.add_switch();
        let sw2 = b.add_switch();
        b.link(n1.actor, sw1, LinkConfig::ddr_lan());
        b.link(sw1, sw2, LinkConfig::ddr_lan());
        b.link(n2.actor, sw2, LinkConfig::ddr_lan());
        let mut f = b.finish();
        let q1 = f.hca_mut(n1).core_mut().create_qp(QpConfig::rc());
        let q2 = f.hca_mut(n2).core_mut().create_qp(QpConfig::rc());
        f.hca_mut(n2).core_mut().connect(q2, (n1.lid, q1));
        f.hca_mut(n2).core_mut().post_recv(q2, RecvWr { wr_id: 0 });
        let ulp = f.hca_mut(n1).ulp_mut::<OneShot>();
        ulp.peer = Some((n2.lid, q2));
        ulp.len = 100;
        f.run();
        assert_eq!(f.hca(n2).ulp::<OneShot>().got, vec![(100, 99)]);
    }

    #[test]
    fn report_counts_traffic() {
        let (mut f, _n1, _n2) = two_nodes_via_switch(4096);
        f.run();
        let r = f.report();
        assert_eq!(r.nodes, 2);
        assert_eq!(r.switches, 1);
        // 2 data fragments + 1 ACK, each crossing the switch once.
        assert_eq!(r.hca_packets_sent, 3);
        assert_eq!(r.hca_packets_received, 3);
        assert_eq!(r.switch_packets_forwarded, 3);
    }

    /// The switch between the two nodes, and packets it forwarded itself.
    fn own_forwards(f: &Fabric) -> u64 {
        f.engine.actor::<Switch>(f.switches()[0]).forwarded()
    }

    /// A lossless, uncredited two-port switch takes no event, and the
    /// report still counts what crossed it.
    #[test]
    fn a_two_port_switch_folds_into_the_ports_that_feed_it() {
        let (mut f, _, _) = two_nodes_via_switch(4096);
        f.run();
        assert_eq!(own_forwards(&f), 0);
        assert_eq!(f.report().switch_packets_forwarded, 3);
    }

    /// A credited two-port switch, a three-port switch and every switch of
    /// a fabric without trains still take their events.
    #[test]
    fn switches_that_do_not_fold_forward_their_own_packets() {
        // (case, first cable credited, a third node on the switch, trains)
        for (case, credited, third, coalescing) in [
            ("credited", true, false, true),
            ("three ports", false, true, true),
            ("no coalescing", false, false, false),
        ] {
            let mut b = FabricBuilder::new(7);
            if !coalescing {
                b.disable_coalescing();
            }
            let n1 = b.add_hca(Box::new(OneShot::new()));
            let n2 = b.add_hca(Box::new(OneShot::new()));
            let sw = b.add_switch();
            let ddr = LinkConfig::ddr_lan();
            b.link(
                n1.actor,
                sw,
                if credited { ddr.with_credits(4) } else { ddr },
            );
            b.link(n2.actor, sw, ddr);
            if third {
                let n3 = b.add_hca(Box::new(NullUlp));
                b.link(n3.actor, sw, ddr);
            }
            let mut f = b.finish();
            one_shot(&mut f, n1, n2, 4096);
            f.run();
            assert_eq!(f.hca(n2).ulp::<OneShot>().got, vec![(4096, 99)], "{case}");
            assert_eq!(own_forwards(&f), 3, "{case}");
            assert_eq!(f.report().switch_packets_forwarded, 3, "{case}");
        }
    }

    /// A chain of two-port switches whose far end also has a credited
    /// cable straight to the chain's head stays unfolded; the chain beside
    /// it folds.
    #[test]
    fn a_chain_beside_a_credited_cable_to_its_head_stays_unfolded() {
        let mut b = FabricBuilder::new(1);
        let n1 = b.add_hca(Box::new(NullUlp));
        let n2 = b.add_hca(Box::new(NullUlp));
        let (head, hop, end) = (b.add_switch(), b.add_switch(), b.add_switch());
        let (lan_hop, lan_end) = (b.add_switch(), b.add_switch());
        b.link(n1.actor, head, LinkConfig::ddr_lan());
        b.link(head, hop, LinkConfig::ddr_lan());
        b.link(hop, end, LinkConfig::ddr_lan());
        b.link(head, end, LinkConfig::ddr_lan().with_credits(4));
        b.link(end, lan_hop, LinkConfig::ddr_lan());
        b.link(lan_hop, lan_end, LinkConfig::ddr_lan());
        b.link(lan_end, n2.actor, LinkConfig::ddr_lan());
        let folded = b.folded();
        assert!(!folded[hop], "the head's credited peer ends the chain");
        assert!(folded[lan_hop] && folded[lan_end]);
        assert!(!folded[head] && !folded[end], "three cables");
    }

    #[test]
    #[should_panic(expected = "exactly one cable")]
    fn hca_cannot_take_two_cables() {
        let mut b = FabricBuilder::new(1);
        let n1 = b.add_hca(Box::new(NullUlp));
        let s1 = b.add_switch();
        let s2 = b.add_switch();
        b.link(n1.actor, s1, LinkConfig::ddr_lan());
        b.link(n1.actor, s2, LinkConfig::ddr_lan());
    }
}
