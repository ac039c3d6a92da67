//! # nasbench — NAS Parallel Benchmark communication skeletons
//!
//! Class-B-shaped communication skeletons for the three NAS codes the paper
//! runs across the WAN in Section 3.5 (Figure 12): **IS**, **FT**, and
//! **CG**, on 64 ranks split 32+32 across the two clusters.
//!
//! The paper attributes the WAN behaviour of each code entirely to its
//! message-size mix, which it obtained by profiling:
//!
//! * **IS** — bucket-count allreduce + key alltoall: ~100% large messages;
//!   bandwidth-bound, tolerant of delay.
//! * **FT** — transpose alltoall dominates (~83% large messages); tolerant.
//! * **CG** — row-group reductions and transpose exchanges, all messages
//!   under 1 MB with many small ones; latency-bound, degrades markedly.
//!
//! The skeletons reproduce those mixes over the simulated MPI. Problem
//! sizes are scaled down from true class B by a constant factor
//! ([`DATA_SCALE`]) to keep packet-level simulation tractable; the scaling
//! preserves each code's message-size *class* and its compute:communication
//! ratio, which are what determine the figure's shape.

use mpisim::coll::{self, TagAlloc};
use mpisim::script::Op;
use mpisim::world::{JobSpec, MpiJob};
use simcore::{Dur, Time};

/// Divisor applied to the true class-B data volumes (documented
/// substitution: keeps simulations packet-level yet fast; compute times are
/// scaled identically so ratios are preserved).
pub const DATA_SCALE: u32 = 4;

/// ```
/// use nasbench::{profile, NasBenchmark};
///
/// // CG's message mix is dominated by small messages (paper Section 3.5).
/// let p = profile(NasBenchmark::Cg, 2, 2);
/// assert!(p.small > 0.5);
/// ```
#[doc(hidden)]
pub struct _DoctestAnchor;

/// Which NAS code to run.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum NasBenchmark {
    /// Integer Sort.
    Is,
    /// 3-D FFT.
    Ft,
    /// Conjugate Gradient.
    Cg,
    /// Embarrassingly Parallel (extension; not in the paper's Figure 12).
    Ep,
    /// MultiGrid V-cycle (extension; not in the paper's Figure 12).
    Mg,
}

impl NasBenchmark {
    /// The paper's three codes, figure order.
    pub const ALL: [NasBenchmark; 3] = [NasBenchmark::Is, NasBenchmark::Ft, NasBenchmark::Cg];

    /// All five implemented codes (paper's three + EP and MG extensions).
    pub const ALL_EXTENDED: [NasBenchmark; 5] = [
        NasBenchmark::Is,
        NasBenchmark::Ft,
        NasBenchmark::Cg,
        NasBenchmark::Ep,
        NasBenchmark::Mg,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            NasBenchmark::Is => "IS",
            NasBenchmark::Ft => "FT",
            NasBenchmark::Cg => "CG",
            NasBenchmark::Ep => "EP",
            NasBenchmark::Mg => "MG",
        }
    }
}

/// Per-code class-B-shaped parameters (after [`DATA_SCALE`]).
#[derive(Copy, Clone, Debug)]
pub struct NasParams {
    /// Timed iterations.
    pub iterations: u32,
    /// Alltoall payload per rank pair (IS keys / FT transpose), bytes.
    pub alltoall_per_pair: u32,
    /// Allreduce payload (IS bucket counts / CG dot products), bytes.
    pub allreduce_len: u32,
    /// Allreduces per iteration.
    pub allreduces_per_iter: u32,
    /// Transpose point-to-point exchange length (CG), bytes; 0 = none.
    pub exchange_len: u32,
    /// Exchanges per iteration (CG).
    pub exchanges_per_iter: u32,
    /// MG-style multilevel halo exchange: finest-level message size
    /// (halves per level down to 64 B); 0 = none.
    pub halo_base_len: u32,
    /// Grid levels for the halo exchange (MG).
    pub halo_levels: u32,
    /// Compute time per iteration.
    pub compute_per_iter: Dur,
}

impl NasParams {
    /// Class-B-shaped parameters for `bench` on 64 ranks (scaled by
    /// [`DATA_SCALE`]).
    pub fn class_b(bench: NasBenchmark) -> Self {
        match bench {
            // IS class B: 2^25 keys * 4 B across 64 ranks => 2 MB/rank,
            // 32 KB per pair; 1 KB-bucket allreduce; light compute.
            NasBenchmark::Is => NasParams {
                iterations: 10,
                alltoall_per_pair: 32_768 / DATA_SCALE,
                allreduce_len: 4096,
                allreduces_per_iter: 1,
                exchange_len: 0,
                exchanges_per_iter: 0,
                halo_base_len: 0,
                halo_levels: 0,
                compute_per_iter: Dur::from_ms(60 / DATA_SCALE as u64),
            },
            // FT class B: 512x256x256 complex grid => 8 MB/rank transpose,
            // 128 KB per pair; heavy FFT compute.
            NasBenchmark::Ft => NasParams {
                iterations: 6,
                alltoall_per_pair: 524_288 / DATA_SCALE, // scaled 128 KB
                allreduce_len: 16,
                allreduces_per_iter: 1,
                exchange_len: 0,
                exchanges_per_iter: 0,
                halo_base_len: 0,
                halo_levels: 0,
                compute_per_iter: Dur::from_ms(400 / DATA_SCALE as u64),
            },
            // CG class B: 75000-row matrix on an 8x8 grid => ~75 KB row
            // segments exchanged with the transpose partner + two 8-byte
            // dot-product allreduces per iteration.
            NasBenchmark::Cg => NasParams {
                iterations: 25,
                alltoall_per_pair: 0,
                allreduce_len: 8,
                allreduces_per_iter: 2,
                exchange_len: 300_000 / DATA_SCALE, // scaled 75 KB
                exchanges_per_iter: 2,
                halo_base_len: 0,
                halo_levels: 0,
                compute_per_iter: Dur::from_ms(40 / DATA_SCALE as u64),
            },
            // EP class B: pure compute; one tiny reduction at the end
            // (modeled as one per "iteration" with a single iteration).
            NasBenchmark::Ep => NasParams {
                iterations: 1,
                alltoall_per_pair: 0,
                allreduce_len: 64,
                allreduces_per_iter: 1,
                exchange_len: 0,
                exchanges_per_iter: 0,
                halo_base_len: 0,
                halo_levels: 0,
                compute_per_iter: Dur::from_ms(2000 / DATA_SCALE as u64),
            },
            // MG class B: V-cycles with nearest-neighbor halo exchanges
            // whose sizes halve per grid level, plus a residual-norm
            // allreduce — a mix of medium and small messages.
            NasBenchmark::Mg => NasParams {
                iterations: 12,
                alltoall_per_pair: 0,
                allreduce_len: 8,
                allreduces_per_iter: 1,
                exchange_len: 0,
                exchanges_per_iter: 0,
                halo_base_len: 131_072 / DATA_SCALE, // finest-level face
                halo_levels: 8,
                compute_per_iter: Dur::from_ms(60 / DATA_SCALE as u64),
            },
        }
    }
}

/// CG's transpose partner on a `side x side` process grid.
fn transpose_partner(rank: usize, side: usize) -> usize {
    let (row, col) = (rank / side, rank % side);
    col * side + row
}

/// Whether [`program`] can run `bench` on `nranks` ranks: every code's
/// recursive-doubling allreduce needs a power of two, and CG's transpose
/// exchange a square process grid.
pub fn check_ranks(bench: NasBenchmark, nranks: usize) -> Result<(), String> {
    let p = NasParams::class_b(bench);
    let name = bench.name();
    if p.allreduces_per_iter > 0 && !nranks.is_power_of_two() {
        return Err(format!(
            "{name} needs a power-of-two rank count, not {nranks}"
        ));
    }
    let side = (nranks as f64).sqrt() as usize;
    if p.exchange_len > 0 && side * side != nranks {
        return Err(format!("{name} needs a square rank count, not {nranks}"));
    }
    Ok(())
}

/// Build the per-rank script for `bench` on `nranks` ranks. Panics when
/// [`check_ranks`] rejects `nranks`.
pub fn program(bench: NasBenchmark, rank: usize, nranks: usize) -> Vec<Op> {
    if let Err(e) = check_ranks(bench, nranks) {
        panic!("{e}");
    }
    let p = NasParams::class_b(bench);
    let mut tags = TagAlloc::default();
    let mut ops = vec![Op::Mark { id: 0 }];
    // Startup barrier (NPB does a warm-up + barrier before timing).
    ops.extend(coll::barrier(nranks, rank, tags.take()));
    for _ in 0..p.iterations {
        if !p.compute_per_iter.is_zero() {
            ops.push(Op::Compute {
                dur: p.compute_per_iter,
            });
        }
        for _ in 0..p.allreduces_per_iter {
            ops.extend(coll::allreduce(nranks, rank, p.allreduce_len, tags.take()));
        }
        if p.alltoall_per_pair > 0 {
            ops.extend(coll::alltoall(
                nranks,
                rank,
                p.alltoall_per_pair,
                tags.take(),
            ));
        }
        if p.halo_base_len > 0 {
            // 1-D ring halo: exchange with both neighbors at every level of
            // the V-cycle, message size halving per level (MG).
            let right = (rank + 1) % nranks;
            let left = (rank + nranks - 1) % nranks;
            for level in 0..p.halo_levels {
                let len = (p.halo_base_len >> level).max(64);
                let tag = tags.take();
                ops.push(Op::Exchange {
                    to: right,
                    from: left,
                    len,
                    tag,
                    count: 1,
                });
                ops.push(Op::Exchange {
                    to: left,
                    from: right,
                    len,
                    tag: tag + 1,
                    count: 1,
                });
            }
        }
        if p.exchange_len > 0 {
            let side = (nranks as f64).sqrt() as usize;
            let partner = transpose_partner(rank, side);
            for _ in 0..p.exchanges_per_iter {
                let tag = tags.take();
                if partner == rank {
                    // Diagonal ranks exchange with themselves: local copy.
                    continue;
                }
                ops.push(Op::Exchange {
                    to: partner,
                    from: partner,
                    len: p.exchange_len,
                    tag,
                    count: 1,
                });
            }
        }
    }
    ops.push(Op::Mark { id: 1 });
    ops
}

/// The message-size mix a code sends — the paper's Section 3.5 profiling,
/// which explains each benchmark's WAN tolerance.
#[derive(Copy, Clone, Debug, Default)]
pub struct SizeProfile {
    /// Fraction of messages under 1 KB.
    pub small: f64,
    /// Fraction between 1 KB and 16 KB.
    pub medium: f64,
    /// Fraction at or above 16 KB.
    pub large: f64,
    /// Total messages profiled.
    pub messages: u64,
}

/// Profile the message-size distribution of `bench` on a LAN run of
/// `ranks_a + ranks_b` ranks (rank 0's sends, like the paper's profiling).
pub fn profile(bench: NasBenchmark, ranks_a: usize, ranks_b: usize) -> SizeProfile {
    let spec = JobSpec::two_clusters(ranks_a, ranks_b, Dur::ZERO);
    let mut job = MpiJob::build(spec, |rank, n| program(bench, rank, n));
    job.run();
    let hist = *job.process(0).proto.send_size_histogram();
    let small: u64 = hist[..10].iter().sum();
    let medium: u64 = hist[10..14].iter().sum();
    let large: u64 = hist[14..].iter().sum();
    let total = (small + medium + large).max(1);
    SizeProfile {
        small: small as f64 / total as f64,
        medium: medium as f64 / total as f64,
        large: large as f64 / total as f64,
        messages: total,
    }
}

/// Result of one NAS run.
#[derive(Copy, Clone, Debug)]
pub struct NasResult {
    /// Which code ran.
    pub benchmark: NasBenchmark,
    /// One-way WAN delay emulated.
    pub delay_us: u64,
    /// Timed-section execution time, seconds (max across ranks).
    pub time_secs: f64,
}

/// Run `bench` on `ranks_a + ranks_b` ranks across the WAN with the given
/// one-way delay, using the default job spec (seed 42, coalescing on).
pub fn run(bench: NasBenchmark, ranks_a: usize, ranks_b: usize, delay: Dur) -> NasResult {
    run_spec(bench, JobSpec::two_clusters(ranks_a, ranks_b, delay))
}

/// Run `bench` on an explicit [`JobSpec`] — callers threading a run context
/// set the spec's seed and coalescing before passing it in.
pub fn run_spec(bench: NasBenchmark, spec: JobSpec) -> NasResult {
    let delay = spec.delay;
    let n = spec.nranks();
    let mut job = MpiJob::build(spec, |rank, n| program(bench, rank, n));
    job.run();
    let t0 = (0..n)
        .map(|r| job.process(r).runner.mark(0).unwrap())
        .min()
        .unwrap_or(Time::ZERO);
    let t1 = (0..n)
        .map(|r| job.process(r).runner.mark(1).unwrap())
        .max()
        .unwrap_or(Time::ZERO);
    NasResult {
        benchmark: bench,
        delay_us: delay.as_ns() / 1000,
        time_secs: t1.since(t0).as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transpose_partner_is_involutive() {
        for side in [2usize, 4, 8] {
            for r in 0..side * side {
                assert_eq!(transpose_partner(transpose_partner(r, side), side), r);
            }
        }
    }

    #[test]
    fn programs_complete_on_lan() {
        // Small 8-rank single-cluster runs of all three codes.
        for bench in NasBenchmark::ALL {
            if bench == NasBenchmark::Cg {
                continue; // CG needs a square grid; 9 is not a power of two.
            }
            let res = run(bench, 8, 0, Dur::ZERO);
            assert!(res.time_secs > 0.0, "{bench:?}");
        }
        // CG with 4 ranks (2x2 grid).
        let res = run(NasBenchmark::Cg, 4, 0, Dur::ZERO);
        assert!(res.time_secs > 0.0);
    }

    #[test]
    fn is_messages_are_large_cg_messages_small() {
        // Profile the message-size mix (the paper's Section 3.5 analysis).
        let spec = JobSpec::two_clusters(8, 8, Dur::ZERO);
        let mut job = MpiJob::build(spec, |rank, n| program(NasBenchmark::Is, rank, n));
        job.run();
        let hist = *job.process(0).proto.send_size_histogram();
        let big: u64 = hist[14..].iter().sum(); // >= 16 KB
        let small: u64 = hist[..8].iter().sum(); // < 256 B
        assert!(big > 0, "IS must send large messages");
        // IS: alltoall dominates; small messages only from barrier/allreduce.
        let large_bytes_dominate = big >= small;
        assert!(large_bytes_dominate, "IS mix: big {big} small {small}");

        let spec = JobSpec::two_clusters(8, 8, Dur::ZERO);
        let mut job = MpiJob::build(spec, |rank, n| program(NasBenchmark::Cg, rank, n));
        job.run();
        let hist = *job.process(0).proto.send_size_histogram();
        let small: u64 = hist[..8].iter().sum();
        assert!(
            small > 20,
            "CG must be dominated by small messages: {small}"
        );
        let over_1m: u64 = hist[20..].iter().sum();
        assert_eq!(over_1m, 0, "CG sends nothing at or above 1 MB");
    }

    #[test]
    fn profiles_match_paper_characterization() {
        // "IS and FT involve a high percentage of large messages while CG
        // has a high percentage of small and medium messages."
        let is = profile(NasBenchmark::Is, 8, 8);
        let ft = profile(NasBenchmark::Ft, 8, 8);
        let cg = profile(NasBenchmark::Cg, 4, 0);
        assert!(is.large > 0.3, "IS large fraction {}", is.large);
        assert!(ft.large > 0.3, "FT large fraction {}", ft.large);
        assert!(cg.small > 0.5, "CG small fraction {}", cg.small);
        assert!(
            (is.small + is.medium + is.large - 1.0).abs() < 1e-9,
            "fractions sum to 1"
        );
    }

    #[test]
    fn ep_is_delay_immune_and_mg_sits_between() {
        let ep0 = run(NasBenchmark::Ep, 4, 4, Dur::ZERO).time_secs;
        let ep10 = run(NasBenchmark::Ep, 4, 4, Dur::from_ms(10)).time_secs;
        assert!(
            ep10 / ep0 < 1.15,
            "EP must be nearly delay-immune: {}x",
            ep10 / ep0
        );

        let mg0 = run(NasBenchmark::Mg, 8, 8, Dur::ZERO).time_secs;
        let mg1 = run(NasBenchmark::Mg, 8, 8, Dur::from_ms(1)).time_secs;
        let cg0 = run(NasBenchmark::Cg, 8, 8, Dur::ZERO).time_secs;
        let cg1 = run(NasBenchmark::Cg, 8, 8, Dur::from_ms(1)).time_secs;
        let mg_slow = mg1 / mg0;
        let cg_slow = cg1 / cg0;
        assert!(mg_slow > 1.05, "MG halos feel the WAN: {mg_slow}x");
        assert!(
            mg_slow < cg_slow * 1.5,
            "MG ({mg_slow}x) should not degrade wildly beyond CG ({cg_slow}x)"
        );
    }

    #[test]
    fn cg_degrades_more_than_ft_with_delay() {
        // 8+8 ranks keeps this test quick; the full 32+32 figure runs in the
        // bench harness.
        let cg0 = run(NasBenchmark::Cg, 8, 8, Dur::ZERO).time_secs;
        let cg10 = run(NasBenchmark::Cg, 8, 8, Dur::from_ms(10)).time_secs;
        let ft0 = run(NasBenchmark::Ft, 8, 8, Dur::ZERO).time_secs;
        let ft10 = run(NasBenchmark::Ft, 8, 8, Dur::from_ms(10)).time_secs;
        let cg_slowdown = cg10 / cg0;
        let ft_slowdown = ft10 / ft0;
        assert!(
            cg_slowdown > 2.0 * ft_slowdown,
            "CG ({cg_slowdown:.2}x) must degrade far more than FT ({ft_slowdown:.2}x)"
        );
    }

    #[test]
    fn is_and_ft_tolerate_moderate_delay() {
        for bench in [NasBenchmark::Is, NasBenchmark::Ft] {
            let t0 = run(bench, 8, 8, Dur::ZERO).time_secs;
            let t1ms = run(bench, 8, 8, Dur::from_us(1000)).time_secs;
            assert!(
                t1ms < 1.5 * t0,
                "{} should tolerate 1 ms (200 km): {t0:.3}s -> {t1ms:.3}s",
                bench.name()
            );
        }
    }
}
