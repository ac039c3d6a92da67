//! MPI experiments: Figures 8–11.

use crate::config::RunConfig;
use crate::results::Figure;
use crate::sweep::grid;
use crate::{delay_label, Fidelity, PAPER_DELAYS_US};
use mpisim::bench::{msg_rate, osu_bcast, osu_bibw, osu_bw, wan_pair_with};
use mpisim::proto::MpiConfig;
use mpisim::world::JobSpec;
use simcore::Dur;

/// Message sizes for the Figure 8 bandwidth sweep.
pub const MPI_BW_SIZES: [u32; 10] = [
    64,
    256,
    1024,
    4096,
    8192,
    16384,
    65536,
    262_144,
    1 << 20,
    4 << 20,
];

fn bw_params(fidelity: Fidelity, size: u32) -> (u32, u32) {
    // (window, iters): keep the byte budget bounded for huge messages.
    let window = ((8u32 << 20) / size.max(1)).clamp(2, 64);
    let iters = fidelity.iters(3, 12) as u32;
    (window, iters)
}

/// One OSU bandwidth point: `osu_bibw` when `bidir`, else `osu_bw`.
fn bw_point(cfg: &RunConfig, spec: JobSpec, size: u32, bidir: bool) -> f64 {
    let (window, iters) = bw_params(cfg.fidelity, size);
    let spec = cfg.apply(spec);
    if bidir {
        osu_bibw(spec, size, window, iters)
    } else {
        osu_bw(spec, size, window, iters)
    }
}

/// Figure 8: MPI bandwidth (a) / bidirectional bandwidth (b) vs message
/// size, one series per WAN delay. MVAPICH2 defaults (8 KB rendezvous
/// threshold).
pub fn fig8_mpi_bandwidth(cfg: &RunConfig, bidir: bool) -> Figure {
    let (id, title) = if bidir {
        ("fig8b", "MPI bidirectional bandwidth (MVAPICH2 defaults)")
    } else {
        ("fig8a", "MPI bandwidth (MVAPICH2 defaults)")
    };
    let fig = Figure::new(id, title, "msg_bytes", "MillionBytes/s");
    let series = PAPER_DELAYS_US.map(|d| (format!("MVAPICH-{}", delay_label(d)), d));
    grid(cfg, fig, series, &MPI_BW_SIZES, |&d, size| {
        let spec = wan_pair_with(Dur::from_us(d), MpiConfig::default());
        bw_point(cfg, spec, size, bidir)
    })
}

/// Sizes for the Figure 9 threshold-tuning comparison.
pub const FIG9_SIZES: [u32; 7] = [1024, 2048, 4096, 8192, 16384, 32768, 65536];

/// Figure 9: MPI bandwidth (a) / bidirectional bandwidth (b) at 10 ms delay
/// with the default 8 KB rendezvous threshold versus the WAN-tuned 64 KB
/// threshold.
pub fn fig9_threshold_tuning(cfg: &RunConfig, bidir: bool) -> Figure {
    let (id, title) = if bidir {
        ("fig9b", "MPI bidir bandwidth at 10 ms: threshold 8K vs 64K")
    } else {
        ("fig9a", "MPI bandwidth at 10 ms: threshold 8K vs 64K")
    };
    let fig = Figure::new(id, title, "msg_bytes", "MillionBytes/s");
    let series = [
        ("thresh-8k-original", MpiConfig::default()),
        ("thresh-64k-tuned", MpiConfig::wan_tuned()),
    ];
    grid(cfg, fig, series, &FIG9_SIZES, |&mpi, size| {
        bw_point(cfg, wan_pair_with(Dur::from_ms(10), mpi), size, bidir)
    })
}

/// Pair counts for the Figure 10 message-rate sweep.
pub const FIG10_PAIRS: [usize; 3] = [4, 8, 16];
/// Message sizes for Figure 10.
pub const FIG10_SIZES: [u32; 7] = [1, 16, 256, 1024, 4096, 16384, 32768];
/// The three delays of Figure 10's panels.
pub const FIG10_DELAYS_US: [u64; 3] = [10, 1000, 10000];

/// Figure 10, one panel: aggregate multi-pair message rate vs message size
/// at the given delay, one series per pair count.
pub fn fig10_message_rate(cfg: &RunConfig, delay_us: u64) -> Figure {
    let fig = Figure::new(
        format!("fig10-{delay_us}us"),
        format!("Multi-pair message rate, {delay_us} us delay"),
        "msg_bytes",
        "MillionMessages/s",
    );
    let iters = cfg.fidelity.iters(2, 8) as u32;
    let series = FIG10_PAIRS.map(|p| (format!("{p}-pairs"), p));
    grid(cfg, fig, series, &FIG10_SIZES, |&pairs, size| {
        let spec = JobSpec::two_clusters(pairs, pairs, Dur::from_us(delay_us));
        msg_rate(cfg.apply(spec), pairs, size, 64, iters)
    })
}

/// Broadcast message sizes for Figure 11.
pub const FIG11_SIZES: [u32; 7] = [256, 2048, 8192, 16384, 32768, 65536, 131_072];
/// The three delays of Figure 11's panels.
pub const FIG11_DELAYS_US: [u64; 3] = [10, 100, 1000];

/// Figure 11, one panel: broadcast latency of the original (flat MVAPICH2)
/// algorithm vs the WAN-aware hierarchical one, at the given delay.
/// The paper uses 64 processes per cluster; `Quick` fidelity uses 16+16.
pub fn fig11_bcast(cfg: &RunConfig, delay_us: u64) -> Figure {
    let per_cluster = match cfg.fidelity {
        Fidelity::Quick => 16,
        Fidelity::Full => 64,
    };
    let fig = Figure::new(
        format!("fig11-{delay_us}us"),
        format!(
            "MPI_Bcast latency over IB WAN, {delay_us} us delay, {} procs",
            2 * per_cluster
        ),
        "msg_bytes",
        "latency_us",
    );
    let iters = cfg.fidelity.iters(2, 6) as u32;
    let series = [("original", false), ("modified", true)];
    grid(cfg, fig, series, &FIG11_SIZES, |&hier, size| {
        let spec = JobSpec::two_clusters(per_cluster, per_cluster, Dur::from_us(delay_us));
        osu_bcast(cfg.apply(spec), size, iters, hier)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8_peak_and_rendezvous_dip() {
        let f = fig8_mpi_bandwidth(&RunConfig::default(), false);
        let peak = f.series("MVAPICH-no-delay").unwrap().peak();
        assert!(peak > 900.0, "MPI peak {peak}");
        // Medium messages above the 8 KB threshold are hit hard at 10 ms.
        let d = f.series("MVAPICH-10000us-delay").unwrap();
        let k16 = d.y_at(16384.0).unwrap();
        assert!(k16 < 50.0, "16K at 10ms should be depressed: {k16}");
    }

    #[test]
    fn fig9_tuning_improves_medium_sizes() {
        let f = fig9_threshold_tuning(&RunConfig::default(), false);
        let orig = f.series("thresh-8k-original").unwrap();
        let tuned = f.series("thresh-64k-tuned").unwrap();
        let o16 = orig.y_at(16384.0).unwrap();
        let t16 = tuned.y_at(16384.0).unwrap();
        assert!(
            t16 > 1.2 * o16,
            "tuned ({t16}) must beat original ({o16}) at 16K"
        );
        // Below the original threshold both configurations agree.
        let o1 = orig.y_at(1024.0).unwrap();
        let t1 = tuned.y_at(1024.0).unwrap();
        assert!((o1 - t1).abs() / o1 < 0.1, "1K: {o1} vs {t1}");
    }

    #[test]
    fn fig10_rate_scales_with_pairs() {
        let f = fig10_message_rate(&RunConfig::default(), 10);
        let r4 = f.series("4-pairs").unwrap().y_at(1.0).unwrap();
        let r16 = f.series("16-pairs").unwrap().y_at(1.0).unwrap();
        assert!(r16 > 2.0 * r4, "16 pairs {r16} vs 4 pairs {r4}");
    }

    #[test]
    fn fig11_hierarchical_wins_large_messages() {
        let f = fig11_bcast(&RunConfig::default(), 100);
        let orig = f.series("original").unwrap();
        let modi = f.series("modified").unwrap();
        let o = orig.y_at(131072.0).unwrap();
        let m = modi.y_at(131072.0).unwrap();
        assert!(m < o, "modified ({m}) must beat original ({o}) at 128K");
        // Small messages comparable (both binomial, one WAN crossing).
        let o_small = orig.y_at(256.0).unwrap();
        let m_small = modi.y_at(256.0).unwrap();
        let ratio = o_small / m_small;
        assert!((0.5..2.0).contains(&ratio), "small: {o_small} vs {m_small}");
    }
}
