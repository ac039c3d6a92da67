//! The explicit run context threaded from the CLI down to the engine.
//!
//! A [`RunConfig`] carries every run knob: fidelity, fragment-train
//! coalescing, a seed offset, and the worker count. Binaries parse their
//! flags into one config up front, and everything below — registry
//! entries, `Scenario::run`, the topology helpers — takes it as an
//! argument, and hands `FabricBuilder` its coalescing flag, directly or,
//! for a setup that builds its own fabric, through `RunConfig::apply`.
//! Flag order cannot matter and concurrent runs with different configs
//! cannot interfere.

use crate::Fidelity;
use mpisim::world::JobSpec;
use nfssim::NfsSetup;
use pfs::PfsSetup;

/// Everything that parameterizes one experiment run.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct RunConfig {
    /// Iteration-count scale (`Quick` for CI, `Full` for recorded numbers).
    pub fidelity: Fidelity,
    /// Fragment trains on the wire path, and two-port switches folded into
    /// the ports that feed them (`--no-coalescing` clears it, forcing the
    /// per-fragment, per-hop path). A/B-invisible in every virtual-time
    /// observable.
    pub coalescing: bool,
    /// Additive offset applied to every experiment's canonical engine seed
    /// via [`RunConfig::seed_for`]; the default `0` reproduces the recorded
    /// goldens bit-for-bit. The engine RNG draws only for a lossy Longbow,
    /// so the offset moves `ibwan_sim` scenarios with `loss_ppm > 0`
    /// (`ibwan_sim --seed N`) and no registered experiment, none of which
    /// has loss. It is part of [`RunConfig::digest`], and the repo benchmark
    /// sets it per run.
    pub seed: u64,
    /// Simulations to run at once (`--workers`), across every pool of the
    /// process, nested ones included. `None` runs one per free core, and
    /// `Some(1)` one at a time in the least memory; either way a pool never
    /// runs more workers than it has free cores or inputs (see
    /// [`crate::sweep::parallel_map`]).
    pub workers: Option<usize>,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            fidelity: Fidelity::Quick,
            coalescing: true,
            seed: 0,
            workers: None,
        }
    }
}

impl RunConfig {
    /// The default config at `Full` fidelity.
    pub fn full() -> Self {
        RunConfig {
            fidelity: Fidelity::Full,
            ..RunConfig::default()
        }
    }

    /// Offset an experiment's canonical seed by the config's seed. With the
    /// default `seed: 0` this is the identity, so the historical hardcoded
    /// seeds (and therefore the golden outputs) are preserved exactly.
    pub fn seed_for(&self, canonical: u64) -> u64 {
        canonical.wrapping_add(self.seed)
    }

    /// `setup` under this run's context: the config's coalescing flag, and
    /// the setup's canonical seed offset by [`RunConfig::seed_for`].
    pub(crate) fn apply<S: OwnFabric>(&self, mut setup: S) -> S {
        let (coalescing, seed) = setup.engine();
        *coalescing = self.coalescing;
        *seed = self.seed_for(*seed);
        setup
    }

    /// Canonical one-line description, the digest input. Excludes `workers`:
    /// the worker budget affects wall clock only, never results, so two runs
    /// differing only in `workers` share a digest.
    pub fn describe(&self) -> String {
        format!(
            "fidelity={} coalescing={} seed={}",
            self.fidelity.name(),
            self.coalescing,
            self.seed,
        )
    }

    /// FNV-1a 64-bit digest of [`RunConfig::describe`], hex-encoded. Stamped
    /// into every figure's provenance block so a golden mismatch can be
    /// traced to a config mismatch at a glance.
    pub fn digest(&self) -> String {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x100_0000_01b3;
        let mut hash = FNV_OFFSET;
        for byte in self.describe().bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(FNV_PRIME);
        }
        format!("{hash:016x}")
    }
}

/// A workload setup that builds its own fabric, from a coalescing flag and
/// a canonical seed; [`RunConfig::apply`] sets both from the run context.
pub(crate) trait OwnFabric {
    /// The setup's coalescing flag and engine seed.
    fn engine(&mut self) -> (&mut bool, &mut u64);
}

impl OwnFabric for JobSpec {
    fn engine(&mut self) -> (&mut bool, &mut u64) {
        (&mut self.coalescing, &mut self.seed)
    }
}

impl OwnFabric for NfsSetup {
    fn engine(&mut self) -> (&mut bool, &mut u64) {
        (&mut self.coalescing, &mut self.seed)
    }
}

impl OwnFabric for PfsSetup {
    fn engine(&mut self) -> (&mut bool, &mut u64) {
        (&mut self.coalescing, &mut self.seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_preserves_canonical_seeds() {
        let cfg = RunConfig::default();
        assert_eq!(cfg.seed_for(42), 42);
        assert_eq!(cfg.seed_for(17), 17);
        let offset = RunConfig {
            seed: 5,
            ..RunConfig::default()
        };
        assert_eq!(offset.seed_for(42), 47);
    }

    #[test]
    fn apply_sets_coalescing_and_offsets_the_canonical_seed() {
        let cfg = RunConfig {
            coalescing: false,
            seed: 5,
            ..RunConfig::default()
        };
        let job = cfg.apply(JobSpec::two_clusters(1, 1, simcore::Dur::ZERO));
        assert_eq!((job.coalescing, job.seed), (false, 47));
        let nfs = cfg.apply(NfsSetup::scaled(nfssim::Transport::Rdma, 1, None));
        assert_eq!((nfs.coalescing, nfs.seed), (false, 22));
        let pfs = cfg.apply(PfsSetup::quick(1, None));
        assert_eq!((pfs.coalescing, pfs.seed), (false, 72));
    }

    #[test]
    fn digest_distinguishes_configs_but_not_workers() {
        let base = RunConfig::default();
        let shifted = RunConfig { seed: 1, ..base };
        let nocoal = RunConfig {
            coalescing: false,
            ..base
        };
        let budgeted = RunConfig {
            workers: Some(3),
            ..base
        };
        assert_ne!(base.digest(), shifted.digest());
        assert_ne!(base.digest(), nocoal.digest());
        assert_ne!(shifted.digest(), nocoal.digest());
        assert_eq!(
            base.digest(),
            budgeted.digest(),
            "workers is wall-clock only"
        );
        assert_eq!(base.digest().len(), 16, "fixed-width hex");
    }
}
