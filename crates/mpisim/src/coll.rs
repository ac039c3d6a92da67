//! Collective communication algorithms, expanded statically into per-rank
//! point-to-point operation scripts.
//!
//! MVAPICH2-style broadcast: binomial tree for small messages, binomial
//! scatter + ring allgather (van de Geijn) for large ones. Over a block
//! rank distribution (ranks 0..split on cluster A, the rest on cluster B)
//! the ring repeatedly drags the WAN link into the critical path — the
//! paper's motivation for the **hierarchical** (WAN-aware) broadcast that
//! crosses the WAN exactly once and runs the regular algorithm inside each
//! cluster ([`bcast_hierarchical`], Figure 11).

use crate::script::Op;

/// Message size at which broadcast switches from binomial to
/// scatter+allgather (MVAPICH2-like).
pub const BCAST_LARGE_THRESHOLD: u32 = 8192;

/// Tag stride reserved per collective instance; callers hand out bases via
/// [`TagAlloc`].
pub const TAG_STRIDE: u32 = 4096;

/// Simple allocator for collective tag ranges, advanced identically on every
/// rank (SPMD scripts execute the same collective sequence).
#[derive(Clone, Copy, Debug)]
pub struct TagAlloc {
    next: u32,
}

impl TagAlloc {
    /// Start allocating at `base` (keep user tags below it).
    pub fn new(base: u32) -> Self {
        TagAlloc { next: base }
    }

    /// Reserve a fresh tag range for one collective instance.
    pub fn take(&mut self) -> u32 {
        let t = self.next;
        self.next += TAG_STRIDE;
        t
    }
}

impl Default for TagAlloc {
    fn default() -> Self {
        TagAlloc::new(1 << 20)
    }
}

fn index_of(members: &[usize], rank: usize) -> usize {
    members
        .iter()
        .position(|&m| m == rank)
        .expect("rank not in collective member list")
}

/// Binomial-tree broadcast over `members` rooted at `root` (global ranks).
/// Returns the ops for `me`. The farthest subtree is served first, so a
/// block two-cluster layout incurs exactly one WAN crossing.
pub fn bcast_binomial(members: &[usize], me: usize, root: usize, len: u32, tag: u32) -> Vec<Op> {
    let n = members.len();
    let vroot = index_of(members, root);
    let vme = (index_of(members, me) + n - vroot) % n;
    let mut ops = Vec::new();
    // Receive phase: find the bit at which we receive.
    let mut mask = 1usize;
    while mask < n {
        if vme & mask != 0 {
            let from = members[(vme - mask + vroot) % n];
            ops.push(Op::Recv { from, tag });
            break;
        }
        mask <<= 1;
    }
    // Send phase: descending masks below our receive bit.
    mask >>= 1;
    while mask > 0 {
        if vme + mask < n {
            let to = members[(vme + mask + vroot) % n];
            ops.push(Op::Send { to, len, tag });
        }
        mask >>= 1;
    }
    ops
}

/// Scatter + ring-allgather broadcast (MVAPICH2's large-message algorithm):
/// a [`scatter`] of `len / n`-byte chunks, then an [`allgather_ring`] of
/// them. Requires a power-of-two member count (all the paper's
/// configurations are).
pub fn bcast_scatter_ring(
    members: &[usize],
    me: usize,
    root: usize,
    len: u32,
    tag: u32,
) -> Vec<Op> {
    let n = members.len();
    assert!(
        n.is_power_of_two(),
        "scatter+ring requires power-of-two ranks"
    );
    let chunk = len.div_ceil(n as u32).max(1);
    let mut ops = scatter(members, me, root, chunk, tag);
    ops.extend(allgather_ring(members, me, chunk, tag + 32));
    ops
}

/// Size-adaptive broadcast over `members` (binomial below
/// [`BCAST_LARGE_THRESHOLD`], scatter+ring at or above it).
pub fn bcast(members: &[usize], me: usize, root: usize, len: u32, tag: u32) -> Vec<Op> {
    if len < BCAST_LARGE_THRESHOLD || !members.len().is_power_of_two() {
        bcast_binomial(members, me, root, len, tag)
    } else {
        bcast_scatter_ring(members, me, root, len, tag)
    }
}

/// WAN-aware hierarchical broadcast (the paper's Figure 11 optimization):
/// the root forwards the full message to the remote cluster's leader over
/// the WAN exactly once, then each cluster broadcasts internally.
///
/// `split` is the first rank of cluster B (ranks `0..split` are cluster A).
pub fn bcast_hierarchical(
    nranks: usize,
    me: usize,
    root: usize,
    split: usize,
    len: u32,
    tag: u32,
) -> Vec<Op> {
    assert!(root < nranks && me < nranks && split > 0 && split < nranks);
    let cluster_a: Vec<usize> = (0..split).collect();
    let cluster_b: Vec<usize> = (split..nranks).collect();
    let root_in_a = root < split;
    let (my_cluster, remote_leader) = if root_in_a {
        (if me < split { &cluster_a } else { &cluster_b }, split)
    } else {
        (if me < split { &cluster_a } else { &cluster_b }, 0)
    };
    let mut ops = Vec::new();
    // One WAN crossing: root -> remote leader.
    if me == root {
        ops.push(Op::Send {
            to: remote_leader,
            len,
            tag,
        });
    } else if me == remote_leader {
        ops.push(Op::Recv { from: root, tag });
    }
    // Intra-cluster broadcast; the local root is the paper's leader.
    let local_root = if (me < split) == root_in_a {
        root
    } else {
        remote_leader
    };
    ops.extend(bcast(my_cluster, me, local_root, len, tag + 1024));
    ops
}

/// Dissemination barrier over all `nranks` (4-byte tokens).
pub fn barrier(nranks: usize, me: usize, tag: u32) -> Vec<Op> {
    let mut ops = Vec::new();
    let mut k = 1usize;
    let mut round = 0u32;
    while k < nranks {
        let to = (me + k) % nranks;
        let from = (me + nranks - k) % nranks;
        ops.push(Op::Exchange {
            to,
            from,
            len: 4,
            tag: tag + round,
            count: 1,
        });
        k <<= 1;
        round += 1;
    }
    ops
}

/// Recursive-doubling allreduce of `len` bytes (power-of-two ranks). With a
/// block two-cluster layout, the top round crosses the WAN on every rank —
/// which is what makes small-allreduce-heavy codes (CG) delay-sensitive.
pub fn allreduce(nranks: usize, me: usize, len: u32, tag: u32) -> Vec<Op> {
    assert!(
        nranks.is_power_of_two(),
        "recursive doubling needs 2^k ranks"
    );
    let mut ops = Vec::new();
    let mut k = 1usize;
    let mut round = 0u32;
    while k < nranks {
        let partner = me ^ k;
        ops.push(Op::Exchange {
            to: partner,
            from: partner,
            len,
            tag: tag + round,
            count: 1,
        });
        k <<= 1;
        round += 1;
    }
    ops
}

/// Binomial-tree reduce to `root`: the mirror image of the binomial
/// broadcast (leaves send first, interior ranks combine and forward).
pub fn reduce_binomial(members: &[usize], me: usize, root: usize, len: u32, tag: u32) -> Vec<Op> {
    let n = members.len();
    let vroot = index_of(members, root);
    let vme = (index_of(members, me) + n - vroot) % n;
    let mut ops = Vec::new();
    // Receive phase (children arrive smallest-mask first), then one send to
    // the parent — exactly the bcast schedule reversed.
    let mut mask = 1usize;
    while mask < n {
        if vme & mask != 0 {
            let parent = members[(vme - mask + vroot) % n];
            ops.push(Op::Send {
                to: parent,
                len,
                tag,
            });
            break;
        }
        if vme + mask < n {
            let child = members[(vme + mask + vroot) % n];
            ops.push(Op::Recv { from: child, tag });
        }
        mask <<= 1;
    }
    ops
}

/// Binomial scatter from `root`: each rank ends with `chunk` bytes
/// (power-of-two ranks; the scatter half of the large-message broadcast,
/// exposed as a standalone collective).
pub fn scatter(members: &[usize], me: usize, root: usize, chunk: u32, tag: u32) -> Vec<Op> {
    let n = members.len();
    assert!(n.is_power_of_two(), "binomial scatter needs 2^k ranks");
    let vroot = index_of(members, root);
    let vme = (index_of(members, me) + n - vroot) % n;
    let at = |v: usize| members[(v + vroot) % n];
    let mut ops = Vec::new();
    // Recursive halving: at step `m`, holders (vrank % 2m == 0) ship the
    // upper half of their range (m chunks) to vrank + m.
    let mut m = n / 2;
    while m >= 1 {
        let step_tag = tag + (n / 2 / m).trailing_zeros();
        if vme.is_multiple_of(2 * m) {
            ops.push(Op::Send {
                to: at(vme + m),
                len: chunk * m as u32,
                tag: step_tag,
            });
        } else if vme % (2 * m) == m {
            ops.push(Op::Recv {
                from: at(vme - m),
                tag: step_tag,
            });
        }
        m /= 2;
    }
    ops
}

/// Binomial gather to `root` (the reverse of [`scatter`]).
pub fn gather(members: &[usize], me: usize, root: usize, chunk: u32, tag: u32) -> Vec<Op> {
    let n = members.len();
    assert!(n.is_power_of_two(), "binomial gather needs 2^k ranks");
    let vroot = index_of(members, root);
    let vme = (index_of(members, me) + n - vroot) % n;
    let at = |v: usize| members[(v + vroot) % n];
    let mut ops = Vec::new();
    let mut m = 1usize;
    while m < n {
        let step_tag = tag + m.trailing_zeros();
        if vme % (2 * m) == m {
            ops.push(Op::Send {
                to: at(vme - m),
                len: chunk * m as u32,
                tag: step_tag,
            });
            break;
        } else if vme.is_multiple_of(2 * m) {
            ops.push(Op::Recv {
                from: at(vme + m),
                tag: step_tag,
            });
        }
        m <<= 1;
    }
    ops
}

/// Ring allgather: `chunk` bytes contributed per rank, `n-1` steps of
/// simultaneous send-right / receive-left.
pub fn allgather_ring(members: &[usize], me: usize, chunk: u32, tag: u32) -> Vec<Op> {
    let n = members.len();
    if n <= 1 {
        return Vec::new();
    }
    let vme = index_of(members, me);
    let right = members[(vme + 1) % n];
    let left = members[(vme + n - 1) % n];
    (0..(n - 1) as u32)
        .map(|step| Op::Exchange {
            to: right,
            from: left,
            len: chunk,
            tag: tag + step,
            count: 1,
        })
        .collect()
}

/// Recursive-doubling allgather: message doubles each round (power-of-two
/// ranks). Fewer, larger transfers than the ring — better over high-latency
/// links, another WAN-relevant algorithm choice.
pub fn allgather_rd(members: &[usize], me: usize, chunk: u32, tag: u32) -> Vec<Op> {
    let n = members.len();
    assert!(n.is_power_of_two(), "recursive doubling needs 2^k ranks");
    let vme = index_of(members, me);
    let mut ops = Vec::new();
    let mut k = 1usize;
    let mut round = 0u32;
    while k < n {
        let partner = members[vme ^ k];
        ops.push(Op::Exchange {
            to: partner,
            from: partner,
            len: chunk * k as u32,
            tag: tag + round,
            count: 1,
        });
        k <<= 1;
        round += 1;
    }
    ops
}

/// WAN-aware hierarchical allreduce (the paper's stated future work on
/// collectives, implemented here): binomial reduce to each cluster's
/// leader, a single leader-to-leader WAN exchange, then an intra-cluster
/// broadcast — two WAN messages total instead of one per rank.
pub fn allreduce_hierarchical(
    nranks: usize,
    me: usize,
    split: usize,
    len: u32,
    tag: u32,
) -> Vec<Op> {
    assert!(split > 0 && split < nranks);
    let cluster_a: Vec<usize> = (0..split).collect();
    let cluster_b: Vec<usize> = (split..nranks).collect();
    let (my_cluster, my_leader, other_leader) = if me < split {
        (&cluster_a, 0usize, split)
    } else {
        (&cluster_b, split, 0usize)
    };
    let mut ops = reduce_binomial(my_cluster, me, my_leader, len, tag);
    if me == my_leader {
        ops.push(Op::Exchange {
            to: other_leader,
            from: other_leader,
            len,
            tag: tag + 512,
            count: 1,
        });
    }
    ops.extend(bcast_binomial(my_cluster, me, my_leader, len, tag + 1024));
    ops
}

/// Pairwise-exchange alltoall: `len_per_pair` bytes to every other rank
/// (power-of-two ranks). Heavy WAN serialization with a block layout —
/// the communication core of the IS and FT skeletons.
pub fn alltoall(nranks: usize, me: usize, len_per_pair: u32, tag: u32) -> Vec<Op> {
    assert!(
        nranks.is_power_of_two(),
        "pairwise exchange needs 2^k ranks"
    );
    let mut children = Vec::new();
    for step in 1..nranks {
        let partner = me ^ step;
        children.push(Op::Exchange {
            to: partner,
            from: partner,
            len: len_per_pair,
            tag: tag + step as u32,
            count: 1,
        });
    }
    // All pairs posted at once (MVAPICH2 posts every isend/irecv and waits),
    // so rendezvous handshakes to different partners overlap — one WAN RTT
    // per alltoall rather than one per partner.
    vec![Op::Concurrent(children)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// Abstract executor: runs per-rank scripts with buffered sends and
    /// blocking receives; returns true if all scripts finish (no deadlock,
    /// full matching).
    fn run_abstract(scripts: &[Vec<Op>]) -> bool {
        let n = scripts.len();
        let mut pc = vec![0usize; n];
        // In-flight bag: (from, to, tag) -> queued message count.
        let mut bag: HashMap<(usize, usize, u32), u32> = HashMap::new();
        // For Exchange ops partially satisfied: remaining recvs per rank.
        let mut want: Vec<Option<(usize, u32, u32)>> = vec![None; n];
        loop {
            let mut progress = false;
            for r in 0..n {
                loop {
                    if let Some((from, tag, remaining)) = want[r] {
                        let mut rem = remaining;
                        while rem > 0 {
                            let e = bag.entry((from, r, tag)).or_default();
                            if *e == 0 {
                                break;
                            }
                            *e -= 1;
                            rem -= 1;
                        }
                        if rem == 0 {
                            want[r] = None;
                            progress = true;
                        } else {
                            want[r] = Some((from, tag, rem));
                            break;
                        }
                    }
                    if pc[r] >= scripts[r].len() {
                        break;
                    }
                    match scripts[r][pc[r]].clone() {
                        Op::Send { to, tag, .. } => {
                            *bag.entry((r, to, tag)).or_default() += 1;
                        }
                        Op::SendWindow { to, tag, count, .. } => {
                            *bag.entry((r, to, tag)).or_default() += count;
                        }
                        Op::Recv { from, tag } => {
                            want[r] = Some((from, tag, 1));
                        }
                        Op::RecvWindow { from, tag, count } => {
                            want[r] = Some((from, tag, count));
                        }
                        Op::Exchange {
                            to,
                            from,
                            tag,
                            count,
                            ..
                        } => {
                            *bag.entry((r, to, tag)).or_default() += count;
                            want[r] = Some((from, tag, count));
                        }
                        Op::Compute { .. } | Op::Mark { .. } => {}
                        Op::Concurrent(_) => {
                            unreachable!("scripts are flattened before run_abstract")
                        }
                    }
                    pc[r] += 1;
                    progress = true;
                }
            }
            if pc
                .iter()
                .enumerate()
                .all(|(r, &p)| p >= scripts[r].len() && want[r].is_none())
            {
                return bag.values().all(|&v| v == 0);
            }
            if !progress {
                return false;
            }
        }
    }

    /// Flatten `Concurrent` groups for the abstract executor: sequential
    /// processing is sound here because every group's pairings are
    /// symmetric per step on all ranks.
    fn flatten(ops: Vec<Op>) -> Vec<Op> {
        let mut v = Vec::with_capacity(ops.len());
        for op in ops {
            match op {
                Op::Concurrent(children) => v.extend(children),
                other => v.push(other),
            }
        }
        v
    }

    fn scripts_for<F: Fn(usize) -> Vec<Op>>(n: usize, f: F) -> Vec<Vec<Op>> {
        (0..n).map(|r| flatten(f(r))).collect()
    }

    #[test]
    fn binomial_bcast_completes_all_roots() {
        for n in [2usize, 3, 5, 8, 16, 64] {
            let members: Vec<usize> = (0..n).collect();
            for root in [0, n / 2, n - 1] {
                let s = scripts_for(n, |r| bcast_binomial(&members, r, root, 1024, 5));
                assert!(run_abstract(&s), "binomial n={n} root={root}");
            }
        }
    }

    #[test]
    fn binomial_bcast_every_nonroot_receives_once() {
        let n = 32;
        let members: Vec<usize> = (0..n).collect();
        for r in 0..n {
            let ops = bcast_binomial(&members, r, 3, 64, 9);
            let recvs = ops.iter().filter(|o| matches!(o, Op::Recv { .. })).count();
            assert_eq!(recvs, usize::from(r != 3), "rank {r}");
        }
    }

    #[test]
    fn scatter_ring_completes() {
        for n in [2usize, 4, 8, 32, 128] {
            let members: Vec<usize> = (0..n).collect();
            let s = scripts_for(n, |r| bcast_scatter_ring(&members, r, 0, 1 << 17, 100));
            assert!(run_abstract(&s), "scatter_ring n={n}");
        }
    }

    #[test]
    fn scatter_ring_nonzero_root_completes() {
        let n = 16;
        let members: Vec<usize> = (0..n).collect();
        let s = scripts_for(n, |r| bcast_scatter_ring(&members, r, 5, 1 << 16, 100));
        assert!(run_abstract(&s));
    }

    #[test]
    fn hierarchical_bcast_completes() {
        for (n, split) in [(8usize, 4usize), (128, 64), (16, 8)] {
            for root in [0, split, n - 1] {
                let s = scripts_for(n, |r| bcast_hierarchical(n, r, root, split, 131072, 7));
                assert!(run_abstract(&s), "hier n={n} split={split} root={root}");
            }
        }
    }

    #[test]
    fn hierarchical_crosses_wan_once() {
        let n = 128;
        let split = 64;
        let mut wan_messages = 0;
        for r in 0..n {
            for op in bcast_hierarchical(n, r, 0, split, 131072, 7) {
                if let Op::Send { to, .. } = op {
                    if (r < split) != (to < split) {
                        wan_messages += 1;
                    }
                }
                if let Op::Exchange { to, .. } = op {
                    if (r < split) != (to < split) {
                        wan_messages += 1;
                    }
                }
            }
        }
        assert_eq!(
            wan_messages, 1,
            "hierarchical bcast must cross the WAN once"
        );
    }

    #[test]
    fn flat_large_bcast_crosses_wan_many_times() {
        let n = 128;
        let split = 64;
        let members: Vec<usize> = (0..n).collect();
        let mut wan_messages = 0;
        for r in 0..n {
            for op in bcast_scatter_ring(&members, r, 0, 131072, 7) {
                match op {
                    Op::Send { to, .. } if (r < split) != (to < split) => wan_messages += 1,
                    Op::Exchange { to, .. } if (r < split) != (to < split) => wan_messages += 1,
                    _ => {}
                }
            }
        }
        assert!(
            wan_messages > 50,
            "ring allgather should cross the WAN repeatedly, got {wan_messages}"
        );
    }

    #[test]
    fn barrier_completes() {
        for n in [2usize, 3, 7, 8, 64] {
            let s = scripts_for(n, |r| barrier(n, r, 50));
            assert!(run_abstract(&s), "barrier n={n}");
        }
    }

    #[test]
    fn allreduce_completes() {
        for n in [2usize, 4, 64] {
            let s = scripts_for(n, |r| allreduce(n, r, 8, 60));
            assert!(run_abstract(&s), "allreduce n={n}");
        }
    }

    #[test]
    fn alltoall_completes_and_is_symmetric() {
        let n = 16;
        let s = scripts_for(n, |r| alltoall(n, r, 1 << 15, 70));
        assert!(run_abstract(&s));
        // Every rank exchanges with every other exactly once.
        for (r, ops) in s.iter().enumerate() {
            let partners: Vec<usize> = ops
                .iter()
                .filter_map(|o| match o {
                    Op::Exchange { to, .. } => Some(*to),
                    _ => None,
                })
                .collect();
            let mut sorted = partners.clone();
            sorted.sort_unstable();
            let expect: Vec<usize> = (0..n).filter(|&x| x != r).collect();
            assert_eq!(sorted, expect);
        }
    }

    #[test]
    fn reduce_completes_all_roots() {
        for n in [2usize, 3, 8, 17, 64] {
            let members: Vec<usize> = (0..n).collect();
            for root in [0, n / 2, n - 1] {
                let s = scripts_for(n, |r| reduce_binomial(&members, r, root, 1024, 5));
                assert!(run_abstract(&s), "reduce n={n} root={root}");
            }
        }
    }

    #[test]
    fn reduce_root_sends_nothing() {
        let members: Vec<usize> = (0..16).collect();
        let ops = reduce_binomial(&members, 3, 3, 64, 9);
        assert!(ops.iter().all(|o| matches!(o, Op::Recv { .. })));
    }

    #[test]
    fn scatter_and_gather_complete() {
        for n in [2usize, 8, 32] {
            let members: Vec<usize> = (0..n).collect();
            for root in [0, n - 1] {
                let s = scripts_for(n, |r| scatter(&members, r, root, 4096, 5));
                assert!(run_abstract(&s), "scatter n={n} root={root}");
                let g = scripts_for(n, |r| gather(&members, r, root, 4096, 5));
                assert!(run_abstract(&g), "gather n={n} root={root}");
            }
        }
    }

    #[test]
    fn allgathers_complete() {
        for n in [2usize, 4, 16] {
            let members: Vec<usize> = (0..n).collect();
            let ring = scripts_for(n, |r| allgather_ring(&members, r, 1024, 5));
            assert!(run_abstract(&ring), "ring n={n}");
            let rd = scripts_for(n, |r| allgather_rd(&members, r, 1024, 5));
            assert!(run_abstract(&rd), "rd n={n}");
        }
        // Odd counts work for the ring.
        let members: Vec<usize> = (0..5).collect();
        let ring = scripts_for(5, |r| allgather_ring(&members, r, 1024, 5));
        assert!(run_abstract(&ring));
    }

    #[test]
    fn allgather_rd_moves_fewer_messages_than_ring() {
        let members: Vec<usize> = (0..16).collect();
        let ring_msgs = allgather_ring(&members, 0, 1024, 5).len();
        let rd_msgs = allgather_rd(&members, 0, 1024, 5).len();
        assert_eq!(ring_msgs, 15);
        assert_eq!(rd_msgs, 4);
    }

    #[test]
    fn hierarchical_allreduce_completes_and_crosses_twice() {
        for (n, split) in [(8usize, 4usize), (16, 8), (64, 32)] {
            let s = scripts_for(n, |r| allreduce_hierarchical(n, r, split, 8, 7));
            assert!(run_abstract(&s), "hier allreduce n={n}");
        }
        // Exactly one cross-WAN exchange per leader (2 WAN messages total).
        let n = 16;
        let split = 8;
        let mut wan = 0;
        for r in 0..n {
            for op in allreduce_hierarchical(n, r, split, 8, 7) {
                match op {
                    Op::Send { to, .. } if (r < split) != (to < split) => wan += 1,
                    Op::Exchange { to, .. } if (r < split) != (to < split) => wan += 1,
                    _ => {}
                }
            }
        }
        assert_eq!(wan, 2, "one leader exchange each way");
    }

    #[test]
    fn flat_allreduce_crosses_wan_per_rank() {
        let n = 16;
        let split = 8;
        let mut wan = 0;
        for r in 0..n {
            for op in allreduce(n, r, 8, 7) {
                if let Op::Exchange { to, .. } = op {
                    if (r < split) != (to < split) {
                        wan += 1;
                    }
                }
            }
        }
        assert_eq!(wan, n, "recursive doubling crosses once per rank");
    }

    #[test]
    fn tag_alloc_strides() {
        let mut t = TagAlloc::new(1000);
        assert_eq!(t.take(), 1000);
        assert_eq!(t.take(), 1000 + TAG_STRIDE);
    }

    #[test]
    fn adaptive_bcast_picks_algorithm() {
        let members: Vec<usize> = (0..8).collect();
        // Small: binomial (root sends log n messages max).
        let small = bcast(&members, 0, 0, 64, 5);
        assert!(small.len() <= 3);
        // Large: scatter+ring (root does scatter sends + 7 ring exchanges).
        let large = bcast(&members, 0, 0, 1 << 20, 5);
        assert!(large.iter().any(|o| matches!(o, Op::Exchange { .. })));
    }
}
