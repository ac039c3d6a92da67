//! SPMD operation scripts: each rank executes a flat list of operations,
//! advancing as its nonblocking requests complete.

use crate::proto::{P2p, ReqId};
use ibfabric::hca::HcaCore;
use simcore::{Ctx, Dur, Time};
use std::collections::HashSet;

/// Timer token the owning ULP must route to [`ScriptRunner::on_compute_done`].
pub const TOKEN_COMPUTE: u64 = 1;

/// One operation in a rank's script. Collectives are pre-expanded into these
/// by [`crate::coll`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// Blocking send: completes when the buffer is reusable (eager: after
    /// the local copy; rendezvous: when the transfer is ACKed).
    Send {
        /// Destination rank.
        to: usize,
        /// Payload bytes.
        len: u32,
        /// Match tag.
        tag: u32,
    },
    /// Blocking receive.
    Recv {
        /// Source rank.
        from: usize,
        /// Match tag.
        tag: u32,
    },
    /// `count` isends followed by a waitall (the OSU bandwidth-test window).
    SendWindow {
        /// Destination rank.
        to: usize,
        /// Payload bytes per message.
        len: u32,
        /// Match tag.
        tag: u32,
        /// Messages in the window.
        count: u32,
    },
    /// `count` irecvs followed by a waitall.
    RecvWindow {
        /// Source rank.
        from: usize,
        /// Match tag.
        tag: u32,
        /// Messages in the window.
        count: u32,
    },
    /// `count` isends to `to` **and** `count` irecvs from `from`, issued
    /// together then waited together — the deadlock-free exchange used by
    /// collectives and the bidirectional bandwidth test.
    Exchange {
        /// Destination rank for the sends.
        to: usize,
        /// Source rank for the receives.
        from: usize,
        /// Payload bytes per message.
        len: u32,
        /// Match tag.
        tag: u32,
        /// Messages per direction.
        count: u32,
    },
    /// Issue every child operation's requests at once, then wait for all of
    /// them (children must be request-issuing ops, not `Compute`/`Mark`).
    /// Used for alltoall, where MVAPICH2 posts all isend/irecv pairs and
    /// waits — overlapping every rendezvous handshake.
    Concurrent(Vec<Op>),
    /// Spin the CPU for a fixed time (models application compute phases).
    Compute {
        /// Virtual compute time.
        dur: Dur,
    },
    /// Record the current virtual time under `id` (benchmark timestamps).
    Mark {
        /// Marker id.
        id: u32,
    },
}

/// Executes a rank's script against the protocol engine.
pub struct ScriptRunner {
    ops: Vec<Op>,
    pc: usize,
    waiting: HashSet<ReqId>,
    computing: bool,
    /// Timestamps recorded by [`Op::Mark`], in execution order.
    pub marks: Vec<(u32, Time)>,
}

impl ScriptRunner {
    /// Runner for the given operation list.
    pub fn new(ops: Vec<Op>) -> Self {
        ScriptRunner {
            ops,
            pc: 0,
            waiting: HashSet::new(),
            computing: false,
            marks: Vec::new(),
        }
    }

    /// True once every operation has completed.
    pub fn finished(&self) -> bool {
        self.pc >= self.ops.len() && self.waiting.is_empty() && !self.computing
    }

    /// Index of the next unissued operation (diagnostics).
    pub fn pc(&self) -> usize {
        self.pc
    }

    /// Timestamp recorded for marker `id` (first occurrence).
    pub fn mark(&self, id: u32) -> Option<Time> {
        self.marks.iter().find(|(m, _)| *m == id).map(|&(_, t)| t)
    }

    /// A request completed.
    pub fn note_done(&mut self, req: ReqId) {
        let was = self.waiting.remove(&req);
        debug_assert!(was, "completion for request we are not waiting on");
    }

    /// The [`Op::Compute`] timer fired.
    pub fn on_compute_done(&mut self) {
        debug_assert!(self.computing);
        self.computing = false;
    }

    /// Issue operations until one blocks or the script ends.
    pub fn advance(&mut self, proto: &mut P2p, hca: &mut HcaCore, ctx: &mut Ctx<'_>) {
        while self.waiting.is_empty() && !self.computing && self.pc < self.ops.len() {
            let op = self.ops[self.pc].clone();
            self.pc += 1;
            match op {
                Op::Compute { dur } => {
                    self.computing = true;
                    ctx.timer(dur, TOKEN_COMPUTE);
                }
                Op::Mark { id } => {
                    self.marks.push((id, ctx.now()));
                }
                other => self.issue(proto, hca, ctx, other),
            }
        }
    }

    /// Issue a request-bearing op's requests into the waiting set.
    fn issue(&mut self, proto: &mut P2p, hca: &mut HcaCore, ctx: &mut Ctx<'_>, op: Op) {
        match op {
            Op::Send { to, len, tag } => {
                let r = proto.isend(hca, ctx, to, tag, len);
                self.waiting.insert(r);
            }
            Op::Recv { from, tag } => {
                let r = proto.irecv(hca, ctx, from, tag);
                self.waiting.insert(r);
            }
            Op::SendWindow {
                to,
                len,
                tag,
                count,
            } => {
                for _ in 0..count {
                    let r = proto.isend(hca, ctx, to, tag, len);
                    self.waiting.insert(r);
                }
            }
            Op::RecvWindow { from, tag, count } => {
                for _ in 0..count {
                    let r = proto.irecv(hca, ctx, from, tag);
                    self.waiting.insert(r);
                }
            }
            Op::Exchange {
                to,
                from,
                len,
                tag,
                count,
            } => {
                for _ in 0..count {
                    let r = proto.irecv(hca, ctx, from, tag);
                    self.waiting.insert(r);
                    let s = proto.isend(hca, ctx, to, tag, len);
                    self.waiting.insert(s);
                }
            }
            Op::Concurrent(children) => {
                for child in children {
                    assert!(
                        !matches!(
                            child,
                            Op::Compute { .. } | Op::Mark { .. } | Op::Concurrent(_)
                        ),
                        "Concurrent children must be request-issuing ops"
                    );
                    self.issue(proto, hca, ctx, child);
                }
            }
            Op::Compute { .. } | Op::Mark { .. } => unreachable!("handled in advance"),
        }
    }
}

/// Repeat a block of ops `times` times (flattened).
pub fn repeat(body: &[Op], times: usize) -> Vec<Op> {
    let mut v = Vec::with_capacity(body.len() * times);
    for _ in 0..times {
        v.extend_from_slice(body);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeat_flattens() {
        let body = [
            Op::Mark { id: 1 },
            Op::Compute {
                dur: Dur::from_us(1),
            },
        ];
        let v = repeat(&body, 3);
        assert_eq!(v.len(), 6);
        assert_eq!(v[4], Op::Mark { id: 1 });
    }

    #[test]
    fn finished_accounts_for_waits() {
        let mut r = ScriptRunner::new(vec![]);
        assert!(r.finished());
        r.waiting.insert(7);
        assert!(!r.finished());
        r.note_done(7);
        assert!(r.finished());
    }
}
