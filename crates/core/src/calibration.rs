//! Calibration suite: verifies every constant this reproduction anchors to
//! the paper's prose numbers, by measurement. Run it after touching any
//! timing constant; `examples/` and CI tests call it too.

use crate::config::RunConfig;
use crate::topo::TopoSpec;
use crate::verbs::{bandwidth, latency};
use ibfabric::perftest::LatMode;
use mpisim::bench::{osu_bw, wan_pair};
use simcore::Dur;

/// One calibration check: a measured value against the paper's number.
#[derive(Clone, Debug)]
pub struct Check {
    /// What is being verified.
    pub name: String,
    /// The paper's value.
    pub paper: f64,
    /// What the simulation measures.
    pub measured: f64,
    /// Acceptable relative deviation (fraction).
    pub tolerance: f64,
    /// Unit for display.
    pub unit: String,
}

impl Check {
    /// True if the measured value is within tolerance of the paper's.
    pub fn ok(&self) -> bool {
        if self.paper == 0.0 {
            return self.measured == 0.0;
        }
        ((self.measured - self.paper) / self.paper).abs() <= self.tolerance
    }

    /// One-line rendering.
    pub fn render(&self) -> String {
        format!(
            "{:<44} paper {:>9.1} {unit:<5} measured {:>9.1} {unit:<5} [{}]",
            self.name,
            self.paper,
            self.measured,
            if self.ok() { "ok" } else { "OFF" },
            unit = self.unit,
        )
    }
}

/// Run every calibration check.
pub fn run_calibration(cfg: &RunConfig) -> Vec<Check> {
    let fidelity = cfg.fidelity;
    let iters = fidelity.iters(1000, 5000);
    let wan = TopoSpec::two_site(Dur::ZERO);
    let send_latency = |spec| {
        let iters = fidelity.iters(50, 300) as u32;
        latency(cfg, 62, spec, LatMode::SendRc, 4, iters)
    };
    vec![
        Check {
            name: "verbs UD peak @2KB over WAN".into(),
            paper: 967.0,
            measured: bandwidth(cfg, 61, &wan, true, 2048, iters, false),
            tolerance: 0.02,
            unit: "MB/s".into(),
        },
        Check {
            name: "verbs RC peak over WAN".into(),
            paper: 980.0,
            measured: bandwidth(cfg, 61, &wan, false, 65536, iters.min(1500), false),
            tolerance: 0.02,
            unit: "MB/s".into(),
        },
        Check {
            name: "Longbow pair added latency".into(),
            paper: 5.0,
            measured: send_latency(&wan) - send_latency(&TopoSpec::lan_pair()),
            tolerance: 0.40,
            unit: "us".into(),
        },
        Check {
            name: "delay per km (Table 1)".into(),
            paper: 5.0,
            measured: obsidian::wire_delay_for_km(1).as_us_f64(),
            tolerance: 0.0,
            unit: "us/km".into(),
        },
        Check {
            name: "MPI peak bandwidth".into(),
            paper: 969.0,
            measured: osu_bw(
                cfg.apply(wan_pair(Dur::ZERO)),
                1 << 20,
                8,
                fidelity.iters(4, 12) as u32,
            ),
            tolerance: 0.02,
            unit: "MB/s".into(),
        },
    ]
}

/// Render all checks, one per line.
pub fn render(checks: &[Check]) -> String {
    checks
        .iter()
        .map(Check::render)
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_calibration_checks_pass() {
        let checks = run_calibration(&RunConfig::default());
        for c in &checks {
            assert!(c.ok(), "calibration drifted: {}", c.render());
        }
        assert!(checks.len() >= 5);
    }

    #[test]
    fn check_logic() {
        let c = Check {
            name: "x".into(),
            paper: 100.0,
            measured: 101.0,
            tolerance: 0.02,
            unit: "u".into(),
        };
        assert!(c.ok());
        let bad = Check {
            measured: 110.0,
            ..c
        };
        assert!(!bad.ok());
        assert!(bad.render().contains("OFF"));
    }
}
