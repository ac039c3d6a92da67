//! The explicit run context threaded from the CLI down to the engine.
//!
//! A [`RunConfig`] carries every run knob: fidelity, fragment-train
//! coalescing, a seed offset, and the worker count. Binaries parse their
//! flags into one config up front, and everything below — registry
//! entries, `Scenario::run`, the topology helpers — takes it as an
//! argument, and hands `FabricBuilder` its coalescing flag. Flag order
//! cannot matter and concurrent runs with different configs cannot
//! interfere.

use crate::Fidelity;

/// Everything that parameterizes one experiment run.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct RunConfig {
    /// Iteration-count scale (`Quick` for CI, `Full` for recorded numbers).
    pub fidelity: Fidelity,
    /// Fragment-train coalescing on the wire path (`--no-coalescing` clears
    /// it). A/B-invisible in every virtual-time observable.
    pub coalescing: bool,
    /// Additive offset applied to every experiment's canonical seed via
    /// [`RunConfig::seed_for`]. The default `0` reproduces the recorded
    /// goldens bit-for-bit; any other value shifts the whole run onto a
    /// different deterministic trajectory.
    pub seed: u64,
    /// Simulations to run at once (`--workers`). `None` runs one per free
    /// core, and `Some(1)` one at a time in the least memory; either way a
    /// pool never runs more workers than it has free cores or inputs (see
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
