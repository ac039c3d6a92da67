//! # bench — regeneration harness for every table and figure
//!
//! The experiment catalog lives in [`ibwan_core::registry`] (re-exported
//! here): every table/figure of the paper mapped to the experiment that
//! regenerates it, with paper references and cost estimates.
//! The `repro` binary runs entries through the unified
//! [`ibwan_core::runner`] and golden-checks them; `ibwan_sim` runs
//! scenario JSON through the same runner.

pub use ibwan_core::registry::{catalog, find, Experiment};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reexported_catalog_is_the_registry() {
        // The bench-facing names must stay wired to the core registry: the
        // binaries select by id through this crate.
        assert_eq!(catalog().len(), 32);
        assert!(find("fig5a").is_some());
        assert!(find("topoA-3site-bw").is_some());
    }
}
