//! Golden determinism tests: the simulation must be bit-reproducible.
//!
//! Running the same experiment twice with the same config must produce
//! byte-identical tables/JSON **and** dispatch exactly the same number of
//! engine events. This pins the engine's `(time, seq)` ordering contract and
//! the event-pool refactor: any hidden nondeterminism (hash-map iteration,
//! pointer-keyed ordering, pool-dependent dispatch order) breaks these tests.
//!
//! Engine knobs are plain [`RunConfig`] values now — each A/B leg builds its
//! own config, so there are no process-wide flags to serialize on and the
//! legs cannot leak state into each other or into concurrent tests.

use bench::find;
use ibfabric::fabric::{reset_run_tally, take_run_tally};
use ibfabric::perftest::{rc_qp_pair, BwConfig, BwPeer};
use ibfabric::qp::QpConfig;
use ibwan_core::topo::build_pair;
use ibwan_core::{RunConfig, TopoSpec};

use simcore::{Dur, EngineCounters};

/// Run a catalog experiment twice at Quick fidelity and demand bit-identical
/// output.
fn assert_golden(id: &str) {
    let cfg = RunConfig::default();
    let e = find(id).unwrap_or_else(|| panic!("experiment {id} missing from catalog"));
    let first = (e.run)(&cfg);
    let second = (e.run)(&cfg);
    assert_eq!(
        first.to_table(),
        second.to_table(),
        "{id}: table drifted between identically-seeded runs"
    );
    assert_eq!(
        first.to_json(),
        second.to_json(),
        "{id}: JSON drifted between identically-seeded runs"
    );
}

/// Run a catalog experiment with fragment coalescing on and off and demand
/// bit-identical output: trains are a pure event-count optimization, so
/// every table cell and JSON byte must survive the A/B flip. Returns the
/// coalesced leg's engine counters.
fn assert_coalescing_invisible(id: &str) -> EngineCounters {
    coalescing_legs(id).0
}

/// As [`assert_coalescing_invisible`], returning both legs' engine
/// counters: the coalesced leg's, then the per-fragment one's.
fn coalescing_legs(id: &str) -> (EngineCounters, EngineCounters) {
    let e = find(id).unwrap_or_else(|| panic!("experiment {id} missing from catalog"));
    reset_run_tally();
    let coalesced = (e.run)(&RunConfig::default());
    let counters = take_run_tally().counters;
    let per_fragment = (e.run)(&RunConfig {
        coalescing: false,
        ..RunConfig::default()
    });
    let per_fragment_counters = take_run_tally().counters;
    assert_eq!(
        coalesced.to_table(),
        per_fragment.to_table(),
        "{id}: table changed when coalescing was disabled"
    );
    assert_eq!(
        coalesced.to_json(),
        per_fragment.to_json(),
        "{id}: JSON changed when coalescing was disabled"
    );
    (counters, per_fragment_counters)
}

#[test]
fn rc_verbs_figure_is_bit_identical_across_runs() {
    assert_golden("fig5a");
}

#[test]
fn nfs_figure_is_bit_identical_across_runs() {
    assert_golden("fig13a");
}

#[test]
fn rc_verbs_figure_is_identical_with_and_without_coalescing() {
    assert_coalescing_invisible("fig5a");
}

#[test]
fn mpi_figure_is_identical_with_and_without_coalescing() {
    assert_coalescing_invisible("fig8a");
}

#[test]
fn nfs_figure_is_identical_with_and_without_coalescing() {
    assert_coalescing_invisible("fig13a");
}

/// ACK/control-path coalescing A/B: the return path (cumulative-ACK runs
/// riding as one event) must be exactly as invisible as the forward path —
/// and must actually engage on the message-rate figure, so the A/B is not
/// vacuously comparing two identical per-fragment runs. The engine tally
/// proves fig13a's coalesced leg dispatched control trains (fig8a's MPI
/// rendezvous pattern never forms back-to-back ACK runs, so only the
/// invisibility half applies there); the figure comparison proves the
/// trains changed nothing observable.
#[test]
fn ack_run_coalescing_is_invisible_and_exercised() {
    for id in ["fig8a", "fig13a"] {
        let e = find(id).unwrap_or_else(|| panic!("experiment {id} missing from catalog"));
        reset_run_tally();
        let coalesced = (e.run)(&RunConfig::default());
        let c = take_run_tally().counters;
        assert!(
            id != "fig13a" || (c.control_trains > 0 && c.control_coalesced > 0),
            "{id}: coalesced leg dispatched no ACK trains — A/B is vacuous: {c:?}"
        );
        let per_fragment = (e.run)(&RunConfig {
            coalescing: false,
            ..RunConfig::default()
        });
        assert_eq!(
            coalesced.to_json(),
            per_fragment.to_json(),
            "{id}: JSON changed when ACK-path coalescing was disabled"
        );
    }
}

/// UD datagram super-trains A/B: fig4a's and fig4b's datagram bursts ride
/// as one event per hop and their receivers replay each datagram, so both
/// figures must come out byte-identical without trains — and their
/// coalesced legs must actually dispatch trains, so the A/B does not
/// compare two per-datagram runs. extD sends the same bursts into a credited
/// WAN, which splits them back into datagrams at the Longbow.
#[test]
fn ud_figures_are_identical_with_and_without_coalescing() {
    for id in ["fig4a", "fig4b", "extD"] {
        let c = assert_coalescing_invisible(id);
        assert!(
            id == "extD" || c.trains_emitted > 0,
            "{id}: coalesced leg dispatched no trains — A/B is vacuous: {c:?}"
        );
    }
}

/// Headers in trains A/B: IPoIB-UD's TCP segments (fig6a), IPoIB-RC's
/// 64 KiB segments (fig7b) and NFS over IPoIB (fig13b) carry a ULP header
/// with every message, and ride in trains with their headers at each
/// message's tail. All three must come out byte-identical without trains,
/// and each coalesced leg must dispatch trains, so no A/B compares two
/// per-message runs.
#[test]
fn headered_figures_are_identical_with_and_without_coalescing() {
    for id in ["fig6a", "fig7b", "fig13b"] {
        let c = assert_coalescing_invisible(id);
        assert!(
            c.trains_emitted > 0,
            "{id}: coalesced leg dispatched no trains — A/B is vacuous: {c:?}"
        );
    }
}

/// Folded hops A/B on a fabric without trains: fig10a's clusters hang off
/// switches of more than two ports, so no train forms, and the two-port
/// Longbow units folded into the ports that feed them are the only work
/// the coalesced leg saves. Its figure must come out byte-identical, in
/// fewer events than the per-fragment, per-hop leg.
#[test]
fn folded_hops_are_invisible_without_trains() {
    let (folded, per_hop) = coalescing_legs("fig10a");
    assert_eq!(
        folded.trains_emitted, 0,
        "fig10a forms no train: {folded:?}"
    );
    assert!(
        folded.events_processed < per_hop.events_processed,
        "folding saved no event: {} against {}",
        folded.events_processed,
        per_hop.events_processed
    );
}

/// The seed offset must shift the whole run onto a different deterministic
/// trajectory — and back: offset 0 is the identity.
#[test]
fn seed_offset_is_deterministic_and_zero_is_identity() {
    let e = find("fig5a").expect("fig5a missing from catalog");
    let base = (e.run)(&RunConfig::default());
    let zero = (e.run)(&RunConfig {
        seed: 0,
        ..RunConfig::default()
    });
    assert_eq!(
        base.to_json(),
        zero.to_json(),
        "seed 0 must be the identity"
    );
    let shifted_cfg = RunConfig {
        seed: 7,
        ..RunConfig::default()
    };
    let shifted_a = (e.run)(&shifted_cfg);
    let shifted_b = (e.run)(&shifted_cfg);
    assert_eq!(
        shifted_a.to_json(),
        shifted_b.to_json(),
        "a shifted seed must still be deterministic"
    );
}

/// Whole-fabric report equality, including the engine's event counters: two
/// identically-seeded WAN RC streams must dispatch event-for-event the same
/// schedule, not merely converge to the same figures.
#[test]
fn fabric_reports_and_event_counts_are_identical() {
    // 256 messages: long enough that steady-state pool reuse dominates the
    // cold-start allocations even now that send super-trains + ACK runs
    // collapse the per-message event count by ~8x.
    let first = wan_stream_report(256);
    let second = wan_stream_report(256);
    assert_eq!(first, second, "fabric reports diverged across runs");
    assert!(
        first.engine_counters.events_processed > 0,
        "probe must actually run events"
    );
    // Steady-state streams must be served from the event pool, not malloc.
    assert!(
        first.engine_counters.pool_hit_rate() > 0.9,
        "pool hit rate collapsed: {:?}",
        first.engine_counters
    );
}

/// An 8 MiB WAN RC stream (128 × 64 KiB messages) is the best case for
/// fragment trains: long contiguous runs of Middle fragments under a wide
/// ACK window. The bulk of hop events must ride inside trains.
#[test]
fn wan_rc_stream_coalesces_most_fragments() {
    let report = wan_stream_report(128);
    let c = &report.engine_counters;
    assert!(
        c.trains_emitted > 0,
        "no trains on a contiguous RC stream: {c:?}"
    );
    assert!(
        c.coalescing_ratio() >= 0.5,
        "coalescing ratio collapsed on the 8 MiB WAN RC stream: \
         {:.3} ({c:?})",
        c.coalescing_ratio()
    );
}

/// One WAN RC stream of `msgs` 64 KiB messages over a 100 µs link.
fn wan_stream_report(msgs: u64) -> ibfabric::fabric::FabricReport {
    let (mut f, a, b) = build_pair(
        &RunConfig::default(),
        42,
        &TopoSpec::two_site(Dur::from_us(100)),
        Box::new(BwPeer::sender(BwConfig::new(65536, msgs))),
        Box::new(BwPeer::receiver()),
    );
    let (qa, qb) = rc_qp_pair(&mut f, a, b, QpConfig::rc());
    f.hca_mut(a).ulp_mut::<BwPeer>().qpn = qa;
    f.hca_mut(b).ulp_mut::<BwPeer>().qpn = qb;
    f.run();
    f.report()
}
