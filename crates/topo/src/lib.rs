//! # ibtopo — the declarative topology layer
//!
//! Every fabric in this reproduction used to be hand-wired: each experiment
//! called `add_hca`/`add_switch`/`link`/`LongbowPair::insert` in its own
//! order, which hard-coded the paper's two-cluster testbed shape and made
//! larger WAN fabrics (3+ sites, generated fat-trees) a copy-paste affair.
//! This crate replaces the hand wiring with a small IR:
//!
//! * [`TopoSpec`] — sites (host counts + intra-site wiring) plus WAN cables
//!   (delay / loss / credit / path-MTU attributes), fully declarative and
//!   digestable;
//! * generators — [`TopoSpec::two_site`], [`TopoSpec::clusters`],
//!   [`TopoSpec::multi_site`], [`TopoSpec::star`], [`TopoSpec::fat_tree`] —
//!   that produce specs instead of fabrics;
//! * one lowering pass — [`TopoSpec::lower`] — that compiles any spec into
//!   a [`FabricBuilder`] call sequence.
//!
//! The lowering is **canonical**: hosts are created first in site-major
//! order (so LIDs and actor ids depend only on the spec, never on wiring
//! style), then each site's switches and LAN cables in site order, then the
//! WAN cables in declaration order. For the two-site shapes the paper uses,
//! this emits the same builder call sequence as the old hand-rolled
//! helpers, so every recorded figure stays bit-identical — enforced by the
//! golden suites in `bench`.
//!
//! WAN cables come in three styles ([`WanStyle`]): Longbow range-extender
//! pairs (optionally lossy), shallow-buffered Longbows whose emulated
//! distance is true wire propagation against a bounded credit pool, and
//! bare switch-to-switch WAN cables (no bridges) lowered through
//! [`FabricBuilder::link`] like any LAN cable.

use ibfabric::fabric::{note_topo, Fabric, FabricBuilder, NodeHandle};
use ibfabric::hca::HcaConfig;
use ibfabric::link::LinkConfig;
use ibfabric::ulp::Ulp;
use obsidian::{LongbowConfig, LongbowPair};
use simcore::{ActorId, Dur, Rate};
use std::collections::VecDeque;

/// How a site's hosts are wired together.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Wiring {
    /// One crossbar switch, every host cabled to it. The switch is the
    /// site's WAN attachment point.
    Switched,
    /// Exactly two hosts cabled back-to-back — no switch, so the site
    /// cannot take a WAN cable (the paper's Figure 3 baseline).
    Direct,
    /// A two-stage spine/leaf fat-tree: hosts are block-distributed over
    /// `leaves` edge switches, every leaf cables to every spine. The first
    /// spine is the site's WAN attachment point.
    FatTree {
        /// Edge switches; must divide the site's host count.
        leaves: usize,
        /// Core switches, each connected to every leaf.
        spines: usize,
    },
}

/// One site: a host count plus intra-site wiring.
#[derive(Copy, Clone, Debug)]
pub struct SiteSpec {
    /// Hosts (HCAs) at this site.
    pub hosts: usize,
    /// Intra-site wiring style.
    pub wiring: Wiring,
    /// LAN cable parameters (default: DDR, [`LinkConfig::ddr_lan`]).
    pub lan: LinkConfig,
}

impl SiteSpec {
    /// A switched site with `hosts` hosts on one DDR crossbar.
    pub fn switched(hosts: usize) -> Self {
        SiteSpec {
            hosts,
            wiring: Wiring::Switched,
            lan: LinkConfig::ddr_lan(),
        }
    }

    /// A two-host back-to-back site (no switch).
    pub fn direct() -> Self {
        SiteSpec {
            hosts: 2,
            wiring: Wiring::Direct,
            lan: LinkConfig::ddr_lan(),
        }
    }

    /// Replace the LAN cable parameters.
    pub fn with_lan(mut self, lan: LinkConfig) -> Self {
        self.lan = lan;
        self
    }
}

/// What kind of WAN cable joins two sites.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum WanStyle {
    /// An Obsidian Longbow pair: each unit injects `delay/2` per forwarded
    /// packet (router-emulated distance), deep buffers. `loss_ppm` > 0
    /// injects random per-packet WAN loss — which pins the fabric to the
    /// per-fragment wire path (shared-RNG draw order).
    Longbow {
        /// Random per-packet loss, parts per million.
        loss_ppm: u32,
    },
    /// A shallow-buffered Longbow pair: the emulated distance rides the WAN
    /// cable as true propagation, against `credits` link-level receive
    /// buffers per direction — the BDP wall of extension experiment D.
    Shallow {
        /// Receive-buffer credits per direction.
        credits: usize,
    },
    /// A bare switch-to-switch WAN cable (no range extenders): SDR rate,
    /// distance as true propagation, deep buffers.
    Plain,
}

/// One WAN cable between two sites' attachment switches.
#[derive(Copy, Clone, Debug)]
pub struct WanSpec {
    /// Index of the site the cable leaves (its bridge pair's A side).
    pub from: usize,
    /// Index of the site the cable enters.
    pub to: usize,
    /// One-way emulated WAN wire delay.
    pub delay: Dur,
    /// Cable style: Longbow pair, shallow-buffered, or bare.
    pub style: WanStyle,
    /// Declared path MTU clamp for flows crossing this cable, bytes.
    /// `None` = no clamp. The fabric model carries MTU per QP, so this is
    /// advisory IR metadata: experiment wiring reads it back through
    /// [`TopoSpec::path_mtu`] when configuring QPs.
    pub mtu: Option<u32>,
}

impl WanSpec {
    /// A deep-buffered lossless Longbow cable `from -> to` at `delay`.
    pub fn longbow(from: usize, to: usize, delay: Dur) -> Self {
        WanSpec {
            from,
            to,
            delay,
            style: WanStyle::Longbow { loss_ppm: 0 },
            mtu: None,
        }
    }
}

/// A declarative fabric description: sites plus the WAN cables that join
/// them. Compile it with [`TopoSpec::lower`] or [`TopoSpec::build`].
#[derive(Clone, Debug)]
pub struct TopoSpec {
    /// The sites, in host-id order (hosts are numbered site-major).
    pub sites: Vec<SiteSpec>,
    /// WAN cables between site attachment switches, in wiring order.
    pub wans: Vec<WanSpec>,
}

impl TopoSpec {
    // --- generators -----------------------------------------------------

    /// The paper's testbed: two single-host sites joined by a Longbow pair
    /// at `delay` (hand-wired as `wan_node_pair` before this layer).
    pub fn two_site(delay: Dur) -> Self {
        TopoSpec::two_site_lossy(delay, 0)
    }

    /// [`TopoSpec::two_site`] with random WAN packet loss (ppm).
    pub fn two_site_lossy(delay: Dur, loss_ppm: u32) -> Self {
        TopoSpec {
            sites: vec![SiteSpec::switched(1), SiteSpec::switched(1)],
            wans: vec![WanSpec {
                from: 0,
                to: 1,
                delay,
                style: WanStyle::Longbow { loss_ppm },
                mtu: None,
            }],
        }
    }

    /// [`TopoSpec::two_site`] with a bounded Longbow buffer: `Some(n)` uses
    /// the shallow-buffered pair (distance as true propagation against `n`
    /// credits), `None` the shipped deep-buffered unit.
    pub fn two_site_credits(delay: Dur, credits: Option<usize>) -> Self {
        let style = match credits {
            Some(credits) => WanStyle::Shallow { credits },
            None => WanStyle::Longbow { loss_ppm: 0 },
        };
        TopoSpec {
            sites: vec![SiteSpec::switched(1), SiteSpec::switched(1)],
            wans: vec![WanSpec {
                from: 0,
                to: 1,
                delay,
                style,
                mtu: None,
            }],
        }
    }

    /// Two hosts cabled back-to-back (no switch, no WAN) — the Figure 3
    /// latency baseline.
    pub fn lan_pair() -> Self {
        TopoSpec {
            sites: vec![SiteSpec::direct()],
            wans: Vec::new(),
        }
    }

    /// A single switched site with `hosts` hosts (LAN baselines).
    pub fn single_switch(hosts: usize) -> Self {
        TopoSpec {
            sites: vec![SiteSpec::switched(hosts)],
            wans: Vec::new(),
        }
    }

    /// The cluster-of-clusters fabric: `hosts_a` + `hosts_b` hosts on two
    /// switched sites joined by a Longbow pair. `hosts_b == 0` degenerates
    /// to a single cluster with no WAN cable.
    pub fn clusters(hosts_a: usize, hosts_b: usize, delay: Dur) -> Self {
        if hosts_b == 0 {
            return TopoSpec::single_switch(hosts_a);
        }
        TopoSpec {
            sites: vec![SiteSpec::switched(hosts_a), SiteSpec::switched(hosts_b)],
            wans: vec![WanSpec::longbow(0, 1, delay)],
        }
    }

    /// An `n`-site chain (site `i` cabled to site `i+1`), `hosts` hosts per
    /// site, every hop a Longbow pair at `delay` — the multi-site WAN
    /// data-grid template.
    pub fn multi_site(n: usize, hosts: usize, delay: Dur) -> Self {
        TopoSpec {
            sites: (0..n).map(|_| SiteSpec::switched(hosts)).collect(),
            wans: (0..n.saturating_sub(1))
                .map(|i| WanSpec::longbow(i, i + 1, delay))
                .collect(),
        }
    }

    /// A hub-and-spoke WAN: site 0 is the hub, `leaves` leaf sites each
    /// cabled to it, `hosts` hosts per site.
    pub fn star(leaves: usize, hosts: usize, delay: Dur) -> Self {
        TopoSpec {
            sites: (0..=leaves).map(|_| SiteSpec::switched(hosts)).collect(),
            wans: (1..=leaves)
                .map(|leaf| WanSpec::longbow(0, leaf, delay))
                .collect(),
        }
    }

    /// A single-site two-stage fat-tree: `k` leaf switches with `k` hosts
    /// each (`k²` hosts total) over `max(k/2, 1)` spines.
    pub fn fat_tree(k: usize) -> Self {
        TopoSpec {
            sites: vec![SiteSpec {
                hosts: k * k,
                wiring: Wiring::FatTree {
                    leaves: k,
                    spines: (k / 2).max(1),
                },
                lan: LinkConfig::ddr_lan(),
            }],
            wans: Vec::new(),
        }
    }

    // --- inspection -----------------------------------------------------

    /// Total host count across all sites (hosts are numbered site-major).
    pub fn total_hosts(&self) -> usize {
        self.sites.iter().map(|s| s.hosts).sum()
    }

    /// The site a host id belongs to.
    pub fn site_of(&self, host: usize) -> usize {
        let mut base = 0;
        for (i, s) in self.sites.iter().enumerate() {
            base += s.hosts;
            if host < base {
                return i;
            }
        }
        panic!("host {host} out of range ({} hosts)", self.total_hosts());
    }

    /// The tightest declared path-MTU clamp on any direct WAN cable between
    /// the two sites (`None` = unclamped).
    pub fn path_mtu(&self, site_a: usize, site_b: usize) -> Option<u32> {
        self.wans
            .iter()
            .filter(|w| (w.from, w.to) == (site_a, site_b) || (w.from, w.to) == (site_b, site_a))
            .filter_map(|w| w.mtu)
            .min()
    }

    /// Structural validation: every WAN endpoint exists, is switched (a
    /// Direct site has no attachment point), and no cable loops a site to
    /// itself; Direct sites have exactly two hosts; fat-tree stages are
    /// consistent; every site has at least one host; and the WAN cables
    /// connect every site to site 0 (the subnet manager cannot route
    /// between disconnected sites).
    pub fn validate(&self) -> Result<(), String> {
        if self.sites.is_empty() {
            return Err("spec has no sites".into());
        }
        for (i, s) in self.sites.iter().enumerate() {
            if s.hosts == 0 {
                return Err(format!("site {i} has no hosts"));
            }
            match s.wiring {
                Wiring::Direct if s.hosts != 2 => {
                    return Err(format!(
                        "site {i}: Direct wiring needs exactly 2 hosts, has {}",
                        s.hosts
                    ));
                }
                Wiring::FatTree { leaves, spines } => {
                    if leaves == 0 || spines == 0 {
                        return Err(format!("site {i}: fat-tree needs >=1 leaf and spine"));
                    }
                    if s.hosts % leaves != 0 {
                        return Err(format!(
                            "site {i}: {} hosts not divisible by {leaves} leaves",
                            s.hosts
                        ));
                    }
                }
                _ => {}
            }
        }
        for (i, w) in self.wans.iter().enumerate() {
            for end in [w.from, w.to] {
                let Some(site) = self.sites.get(end) else {
                    return Err(format!("wan {i}: site {end} does not exist"));
                };
                if site.wiring == Wiring::Direct {
                    return Err(format!(
                        "wan {i}: site {end} is Direct-wired and has no switch to attach to"
                    ));
                }
            }
            if w.from == w.to {
                return Err(format!("wan {i}: loops site {} to itself", w.from));
            }
            if let Some(mtu) = w.mtu {
                if mtu < 256 {
                    return Err(format!("wan {i}: path MTU {mtu} below the IB minimum"));
                }
            }
        }
        // Breadth-first search over the WAN cables from site 0.
        let mut reached = vec![false; self.sites.len()];
        reached[0] = true;
        let mut frontier = VecDeque::from([0]);
        while let Some(site) = frontier.pop_front() {
            for w in &self.wans {
                for (here, there) in [(w.from, w.to), (w.to, w.from)] {
                    if here == site && !reached[there] {
                        reached[there] = true;
                        frontier.push_back(there);
                    }
                }
            }
        }
        if let Some(site) = reached.iter().position(|&r| !r) {
            return Err(format!(
                "site {site} is not connected to site 0 by any WAN cable"
            ));
        }
        Ok(())
    }

    /// Canonical human-readable description — the digest preimage. Stable
    /// across runs: every attribute that affects the lowered fabric (and the
    /// advisory MTU clamp) is included, in declaration order.
    pub fn describe(&self) -> String {
        use std::fmt::Write;
        let mut out = String::from("topo{sites=[");
        for (i, s) in self.sites.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let wiring = match s.wiring {
                Wiring::Switched => "switched".to_string(),
                Wiring::Direct => "direct".to_string(),
                Wiring::FatTree { leaves, spines } => format!("fattree({leaves}x{spines})"),
            };
            let _ = write!(
                out,
                "{}@{wiring}:lan={:?}/{}ns/{:?}",
                s.hosts,
                s.lan.rate,
                s.lan.latency.as_ns(),
                s.lan.credit_packets
            );
        }
        out.push_str("];wans=[");
        for (i, w) in self.wans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let style = match w.style {
                WanStyle::Longbow { loss_ppm } => format!("longbow(loss={loss_ppm}ppm)"),
                WanStyle::Shallow { credits } => format!("shallow(credits={credits})"),
                WanStyle::Plain => "plain".to_string(),
            };
            let _ = write!(
                out,
                "{}->{}:{style}:delay={}ns:mtu={:?}",
                w.from,
                w.to,
                w.delay.as_ns(),
                w.mtu
            );
        }
        out.push_str("]}");
        out
    }

    /// FNV-1a digest of [`TopoSpec::describe`] — the stable topology
    /// fingerprint threaded into every figure's provenance block.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.describe().bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    // --- lowering -------------------------------------------------------

    /// Compile the spec into builder calls: all hosts first in site-major
    /// order (`ulp_for(host)` supplies each host's ULP), then per site its
    /// switches and LAN cables, then the WAN cables in declaration order.
    /// Returns the host handles in host-id order.
    pub fn lower<F>(&self, b: &mut FabricBuilder, hca: HcaConfig, mut ulp_for: F) -> Vec<NodeHandle>
    where
        F: FnMut(usize) -> Box<dyn Ulp>,
    {
        if let Err(e) = self.validate() {
            panic!("invalid TopoSpec: {e}");
        }
        let total = self.total_hosts();
        let mut nodes = Vec::with_capacity(total);
        for host in 0..total {
            nodes.push(b.add_hca(hca, ulp_for(host)));
        }

        // Per-site wiring; remember each site's WAN attachment switch.
        let mut attach: Vec<Option<ActorId>> = vec![None; self.sites.len()];
        let mut base = 0;
        for (s, site) in self.sites.iter().enumerate() {
            let hosts = &nodes[base..base + site.hosts];
            match site.wiring {
                Wiring::Direct => {
                    b.link(hosts[0].actor, hosts[1].actor, site.lan);
                }
                Wiring::Switched => {
                    let sw = b.add_switch();
                    for h in hosts {
                        b.link(h.actor, sw, site.lan);
                    }
                    attach[s] = Some(sw);
                }
                Wiring::FatTree { leaves, spines } => {
                    let per_leaf = site.hosts / leaves;
                    let leaf_ids: Vec<ActorId> = (0..leaves)
                        .map(|l| {
                            let sw = b.add_switch();
                            for h in &hosts[l * per_leaf..(l + 1) * per_leaf] {
                                b.link(h.actor, sw, site.lan);
                            }
                            sw
                        })
                        .collect();
                    let mut first_spine = None;
                    for _ in 0..spines {
                        let sp = b.add_switch();
                        first_spine.get_or_insert(sp);
                        for &leaf in &leaf_ids {
                            b.link(leaf, sp, site.lan);
                        }
                    }
                    attach[s] = first_spine;
                }
            }
            base += site.hosts;
        }

        // WAN cables, in declaration order.
        for w in &self.wans {
            let sa = attach[w.from].expect("validated: WAN endpoints are switched");
            let sb = attach[w.to].expect("validated: WAN endpoints are switched");
            match w.style {
                WanStyle::Longbow { loss_ppm: 0 } => {
                    LongbowPair::insert(b, sa, sb, w.delay);
                }
                WanStyle::Longbow { loss_ppm } => {
                    LongbowPair::insert_with(
                        b,
                        sa,
                        sb,
                        LongbowConfig {
                            injected_delay: w.delay / 2,
                            loss_per_million: loss_ppm,
                            ..LongbowConfig::default()
                        },
                    );
                }
                WanStyle::Shallow { credits } => {
                    LongbowPair::insert_shallow(b, sa, sb, w.delay, credits);
                }
                WanStyle::Plain => {
                    // A bare long-haul cable: SDR rate, distance as true
                    // propagation, deep (uncredited) buffers, no bridges.
                    let cable = LinkConfig {
                        rate: Rate::from_gbps(8),
                        latency: Dur::from_ns(100) + w.delay,
                        credit_packets: None,
                    };
                    b.link(sa, sb, cable);
                }
            }
        }
        note_topo(self.digest());
        nodes
    }

    /// Lower onto a fresh builder and finish it: the one-call path for
    /// experiments. Returns the runnable fabric plus host handles.
    /// `coalescing: false` forces the per-fragment wire path
    /// ([`FabricBuilder::disable_coalescing`]).
    pub fn build<F>(
        &self,
        seed: u64,
        coalescing: bool,
        hca: HcaConfig,
        ulp_for: F,
    ) -> (Fabric, Vec<NodeHandle>)
    where
        F: FnMut(usize) -> Box<dyn Ulp>,
    {
        let mut b = FabricBuilder::new(seed);
        if !coalescing {
            b.disable_coalescing();
        }
        let nodes = self.lower(&mut b, hca, ulp_for);
        (b.finish(), nodes)
    }

    /// [`TopoSpec::build`] for the common two-endpoint experiments: the
    /// spec must have exactly two hosts; returns their handles directly.
    pub fn build_pair(
        &self,
        seed: u64,
        coalescing: bool,
        hca: HcaConfig,
        ulp_a: Box<dyn Ulp>,
        ulp_b: Box<dyn Ulp>,
    ) -> (Fabric, NodeHandle, NodeHandle) {
        assert_eq!(self.total_hosts(), 2, "build_pair needs a two-host spec");
        let (f, nodes) = self.build(seed, coalescing, hca, ulp_list(vec![ulp_a, ulp_b]));
        (f, nodes[0], nodes[1])
    }
}

/// Adapt an explicit per-host ULP list into the `ulp_for` closure
/// [`TopoSpec::lower`] expects. Panics if a host index exceeds the list.
pub fn ulp_list(ulps: Vec<Box<dyn Ulp>>) -> impl FnMut(usize) -> Box<dyn Ulp> {
    let mut slots: Vec<Option<Box<dyn Ulp>>> = ulps.into_iter().map(Some).collect();
    move |host| {
        slots
            .get_mut(host)
            .and_then(Option::take)
            .unwrap_or_else(|| panic!("no ULP supplied for host {host}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibfabric::ulp::NullUlp;

    fn null(_: usize) -> Box<dyn Ulp> {
        Box::new(NullUlp)
    }

    #[test]
    fn generators_produce_expected_host_counts() {
        assert_eq!(TopoSpec::two_site(Dur::ZERO).total_hosts(), 2);
        assert_eq!(TopoSpec::lan_pair().total_hosts(), 2);
        assert_eq!(TopoSpec::clusters(3, 2, Dur::ZERO).total_hosts(), 5);
        assert_eq!(TopoSpec::multi_site(3, 2, Dur::ZERO).total_hosts(), 6);
        assert_eq!(TopoSpec::star(4, 1, Dur::ZERO).total_hosts(), 5);
        assert_eq!(TopoSpec::fat_tree(2).total_hosts(), 4);
    }

    #[test]
    fn site_of_is_site_major() {
        let t = TopoSpec::clusters(3, 2, Dur::ZERO);
        assert_eq!(t.site_of(0), 0);
        assert_eq!(t.site_of(2), 0);
        assert_eq!(t.site_of(3), 1);
        assert_eq!(t.site_of(4), 1);
    }

    #[test]
    fn validation_rejects_malformed_specs() {
        // WAN out of range.
        let mut t = TopoSpec::two_site(Dur::ZERO);
        t.wans[0].to = 7;
        assert!(t.validate().is_err());
        // WAN into a Direct site.
        let mut t = TopoSpec::lan_pair();
        t.wans.push(WanSpec::longbow(0, 0, Dur::ZERO));
        assert!(t.validate().is_err());
        // Direct site with wrong host count.
        let t = TopoSpec {
            sites: vec![SiteSpec {
                hosts: 3,
                ..SiteSpec::direct()
            }],
            wans: vec![],
        };
        assert!(t.validate().is_err());
        // Fat-tree with indivisible hosts.
        let t = TopoSpec {
            sites: vec![SiteSpec {
                hosts: 5,
                wiring: Wiring::FatTree {
                    leaves: 2,
                    spines: 1,
                },
                lan: LinkConfig::ddr_lan(),
            }],
            wans: vec![],
        };
        assert!(t.validate().is_err());
        // Tiny path MTU.
        let mut t = TopoSpec::two_site(Dur::ZERO);
        t.wans[0].mtu = Some(64);
        assert!(t.validate().is_err());
        // Two switched sites and no WAN cable between them.
        let t = TopoSpec {
            sites: vec![SiteSpec::switched(1), SiteSpec::switched(1)],
            wans: vec![],
        };
        assert_eq!(
            t.validate(),
            Err("site 1 is not connected to site 0 by any WAN cable".into())
        );
        // A three-site chain missing its second hop.
        let mut t = TopoSpec::multi_site(3, 1, Dur::ZERO);
        t.wans.pop();
        assert!(t.validate().is_err());
    }

    #[test]
    fn digest_is_stable_and_attribute_sensitive() {
        let a = TopoSpec::two_site(Dur::from_us(100));
        assert_eq!(a.digest(), TopoSpec::two_site(Dur::from_us(100)).digest());
        assert_ne!(a.digest(), TopoSpec::two_site(Dur::from_us(200)).digest());
        assert_ne!(
            a.digest(),
            TopoSpec::two_site_lossy(Dur::from_us(100), 5).digest()
        );
        assert_ne!(
            a.digest(),
            TopoSpec::two_site_credits(Dur::from_us(100), Some(16)).digest()
        );
        let mut m = TopoSpec::two_site(Dur::from_us(100));
        m.wans[0].mtu = Some(2048);
        assert_ne!(a.digest(), m.digest());
    }

    #[test]
    fn path_mtu_reads_the_tightest_clamp() {
        let mut t = TopoSpec::multi_site(3, 1, Dur::ZERO);
        t.wans[0].mtu = Some(2048);
        assert_eq!(t.path_mtu(0, 1), Some(2048));
        assert_eq!(t.path_mtu(1, 0), Some(2048));
        assert_eq!(t.path_mtu(1, 2), None);
    }

    #[test]
    fn fat_tree_lowers_and_routes() {
        let (f, nodes) = TopoSpec::fat_tree(2).build(1, true, HcaConfig::default(), null);
        assert_eq!(nodes.len(), 4);
        // 2 leaves + 1 spine.
        assert_eq!(f.report().switches, 3);
    }
}
