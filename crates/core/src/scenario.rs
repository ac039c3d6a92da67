//! Declarative experiment scenarios: a JSON-serializable description of a
//! cluster-of-clusters topology plus a workload, runnable with one call —
//! the `ibwan-sim` binary's input format.
//!
//! ```
//! use ibwan_core::scenario::{Scenario, Topology, Workload};
//! use ibwan_core::RunConfig;
//!
//! let s = Scenario {
//!     name: "quick-check".into(),
//!     seed: 1,
//!     topology: Topology { delay_us: 1000, loss_ppm: 0 },
//!     workload: Workload::MpiLatency { size: 4, iters: 10 },
//! };
//! let r = s.run(&RunConfig::default());
//! assert_eq!(r.unit, "us");
//! assert!(r.value > 1000.0); // one-way latency exceeds the wire delay
//! ```

use crate::config::RunConfig;
use crate::topo::TopoSpec;
use crate::{ipoib_exp, verbs};
use ibfabric::perftest::LatMode;
use ibfabric::types::DEFAULT_MTU;
use ipoib::node::{IpoibConfig, IpoibMode, MAX_IP_PACKET};
use mpisim::bench as mpibench;
use mpisim::proto::{MpiConfig, RndvProtocol};
use mpisim::world::JobSpec;
use nasbench::NasBenchmark;
use nfssim::{run_read_experiment, NfsSetup, Transport as NfsTransport};
use simcore::Dur;
use tcpstack::TCP_IP_HEADER;

/// The WAN separating the two clusters.
#[derive(Copy, Clone, Debug)]
pub struct Topology {
    /// One-way emulated wire delay in microseconds (5 µs ≈ 1 km).
    pub delay_us: u64,
    /// WAN packet loss, parts per million, below 1,000,000 (RC verbs
    /// workloads only: see [`Workload::tolerates_loss`]).
    pub loss_ppm: u32,
}

/// Which benchmark to run across the WAN.
#[derive(Clone, Debug)]
pub enum Workload {
    /// Verbs-level ping-pong latency (`ib_send_lat`-style).
    VerbsLatency {
        /// "send_rc", "send_ud", or "write_rc".
        mode: String,
        /// Message size in bytes.
        size: u32,
        /// Ping-pong rounds.
        iters: u32,
    },
    /// Verbs-level streaming bandwidth (`ib_send_bw`-style).
    VerbsBandwidth {
        /// "rc" or "ud".
        transport: String,
        /// Message size.
        size: u32,
        /// Messages to stream.
        iters: u64,
    },
    /// IPoIB/TCP throughput (iperf-style).
    Ipoib {
        /// "ud" or "rc".
        mode: String,
        /// IP MTU (2048 for UD; up to 65536 for RC).
        mtu: u32,
        /// TCP window bytes.
        window: u64,
        /// Parallel TCP streams.
        streams: usize,
        /// Bytes per stream.
        bytes_per_stream: u64,
    },
    /// MPI one-way latency.
    MpiLatency {
        /// Message size.
        size: u32,
        /// Rounds.
        iters: u32,
    },
    /// MPI streaming bandwidth with a tunable rendezvous setup.
    MpiBandwidth {
        /// Message size.
        size: u32,
        /// Messages per window.
        window: u32,
        /// Windows.
        iters: u32,
        /// Eager/rendezvous threshold in bytes (0 = MVAPICH2 default 8 K).
        eager_threshold: u32,
        /// "rput" (default), "rget", or "r3".
        rndv_protocol: String,
    },
    /// MPI broadcast latency across two clusters.
    MpiBcast {
        /// Ranks per cluster.
        ranks_per_cluster: usize,
        /// Message size.
        size: u32,
        /// Iterations.
        iters: u32,
        /// Use the WAN-aware hierarchical algorithm.
        hierarchical: bool,
    },
    /// Multi-pair aggregate message rate.
    MessageRate {
        /// Communicating pairs (one rank per cluster each).
        pairs: usize,
        /// Message size.
        size: u32,
        /// Window per pair.
        window: u32,
        /// Iterations.
        iters: u32,
    },
    /// A NAS class-B skeleton across the two clusters.
    Nas {
        /// "is", "ft", or "cg".
        benchmark: String,
        /// Ranks per cluster.
        ranks_per_cluster: usize,
    },
    /// A parameterized synthetic communication pattern (see
    /// [`mpisim::patterns::Pattern`]).
    MpiPattern {
        /// Ranks per cluster.
        ranks_per_cluster: usize,
        /// The pattern description.
        spec: mpisim::patterns::Pattern,
    },
    /// NFS read/write throughput.
    Nfs {
        /// "rdma", "ipoib_rc", or "ipoib_ud".
        transport: String,
        /// Client threads.
        threads: usize,
        /// File size in MiB.
        file_mib: u64,
        /// Write instead of read.
        write: bool,
    },
}

/// The names a string-valued workload field accepts, and what each means.
struct Names<T: 'static> {
    field: &'static str,
    what: &'static str,
    table: &'static [(&'static str, T)],
}

impl<T: Copy> Names<T> {
    /// The meaning of `value`, or an error naming the field.
    fn get(&self, value: &str) -> Result<T, String> {
        self.table
            .iter()
            .find(|(name, _)| *name == value)
            .map(|&(_, v)| v)
            .ok_or_else(|| {
                let (field, what) = (self.field, self.what);
                format!("workload: unknown {what} {value:?} in field {field:?}")
            })
    }

    /// `value`, once [`Names::get`] accepts it.
    fn check(&self, value: String) -> Result<String, String> {
        self.get(&value).map(|_| value)
    }

    /// [`Names::get`] for [`Scenario::run`]: a `Workload` built in code
    /// skips the parser, so a bad name still panics there.
    fn must(&self, value: &str) -> T {
        self.get(value).unwrap_or_else(|e| panic!("{e}"))
    }
}

const LATENCY_MODES: Names<LatMode> = Names {
    field: "mode",
    what: "latency mode",
    table: &[
        ("send_rc", LatMode::SendRc),
        ("send_ud", LatMode::SendUd),
        ("write_rc", LatMode::WriteRc),
    ],
};
/// Maps each verbs transport to "is it UD".
const VERBS_TRANSPORTS: Names<bool> = Names {
    field: "transport",
    what: "transport",
    table: &[("ud", true), ("rc", false)],
};
const IPOIB_MODES: Names<IpoibMode> = Names {
    field: "mode",
    what: "IPoIB mode",
    table: &[("ud", IpoibMode::Ud), ("rc", IpoibMode::Rc)],
};
/// The empty name is the default, RPUT.
const RNDV_PROTOCOLS: Names<RndvProtocol> = Names {
    field: "rndv_protocol",
    what: "rendezvous protocol",
    table: &[
        ("", RndvProtocol::Rput),
        ("rput", RndvProtocol::Rput),
        ("rget", RndvProtocol::Rget),
        ("r3", RndvProtocol::R3),
    ],
};
const NAS_BENCHMARKS: Names<NasBenchmark> = Names {
    field: "benchmark",
    what: "NAS benchmark",
    table: &[
        ("is", NasBenchmark::Is),
        ("ft", NasBenchmark::Ft),
        ("cg", NasBenchmark::Cg),
        ("ep", NasBenchmark::Ep),
        ("mg", NasBenchmark::Mg),
    ],
};
const NFS_TRANSPORTS: Names<NfsTransport> = Names {
    field: "transport",
    what: "NFS transport",
    table: &[
        ("rdma", NfsTransport::Rdma),
        ("ipoib_rc", NfsTransport::IpoibRc),
        ("ipoib_ud", NfsTransport::IpoibUd),
    ],
};

impl Workload {
    /// Whether [`Scenario::run`] can run this workload on a lossy WAN. Only
    /// the RC verbs benchmarks recover from drops (go-back-N
    /// retransmission); every other workload models a pristine WAN.
    pub fn tolerates_loss(&self) -> bool {
        match self {
            Workload::VerbsLatency { mode, .. } => {
                matches!(
                    LATENCY_MODES.get(mode),
                    Ok(LatMode::SendRc | LatMode::WriteRc)
                )
            }
            Workload::VerbsBandwidth { transport, .. } => {
                VERBS_TRANSPORTS.get(transport) == Ok(false)
            }
            _ => false,
        }
    }

    /// Serialize to the internally-tagged JSON layout (`"kind"` tag,
    /// snake_case variant names) scenario files use.
    pub fn to_value(&self) -> minijson::Value {
        use minijson::{obj, Value};
        match self {
            Workload::VerbsLatency { mode, size, iters } => obj([
                ("kind", Value::from("verbs_latency")),
                ("mode", Value::from(mode.clone())),
                ("size", Value::from(*size)),
                ("iters", Value::from(*iters)),
            ]),
            Workload::VerbsBandwidth {
                transport,
                size,
                iters,
            } => obj([
                ("kind", Value::from("verbs_bandwidth")),
                ("transport", Value::from(transport.clone())),
                ("size", Value::from(*size)),
                ("iters", Value::from(*iters)),
            ]),
            Workload::Ipoib {
                mode,
                mtu,
                window,
                streams,
                bytes_per_stream,
            } => obj([
                ("kind", Value::from("ipoib")),
                ("mode", Value::from(mode.clone())),
                ("mtu", Value::from(*mtu)),
                ("window", Value::from(*window)),
                ("streams", Value::from(*streams)),
                ("bytes_per_stream", Value::from(*bytes_per_stream)),
            ]),
            Workload::MpiLatency { size, iters } => obj([
                ("kind", Value::from("mpi_latency")),
                ("size", Value::from(*size)),
                ("iters", Value::from(*iters)),
            ]),
            Workload::MpiBandwidth {
                size,
                window,
                iters,
                eager_threshold,
                rndv_protocol,
            } => obj([
                ("kind", Value::from("mpi_bandwidth")),
                ("size", Value::from(*size)),
                ("window", Value::from(*window)),
                ("iters", Value::from(*iters)),
                ("eager_threshold", Value::from(*eager_threshold)),
                ("rndv_protocol", Value::from(rndv_protocol.clone())),
            ]),
            Workload::MpiBcast {
                ranks_per_cluster,
                size,
                iters,
                hierarchical,
            } => obj([
                ("kind", Value::from("mpi_bcast")),
                ("ranks_per_cluster", Value::from(*ranks_per_cluster)),
                ("size", Value::from(*size)),
                ("iters", Value::from(*iters)),
                ("hierarchical", Value::from(*hierarchical)),
            ]),
            Workload::MessageRate {
                pairs,
                size,
                window,
                iters,
            } => obj([
                ("kind", Value::from("message_rate")),
                ("pairs", Value::from(*pairs)),
                ("size", Value::from(*size)),
                ("window", Value::from(*window)),
                ("iters", Value::from(*iters)),
            ]),
            Workload::Nas {
                benchmark,
                ranks_per_cluster,
            } => obj([
                ("kind", Value::from("nas")),
                ("benchmark", Value::from(benchmark.clone())),
                ("ranks_per_cluster", Value::from(*ranks_per_cluster)),
            ]),
            Workload::MpiPattern {
                ranks_per_cluster,
                spec,
            } => obj([
                ("kind", Value::from("mpi_pattern")),
                ("ranks_per_cluster", Value::from(*ranks_per_cluster)),
                ("spec", spec.to_value()),
            ]),
            Workload::Nfs {
                transport,
                threads,
                file_mib,
                write,
            } => obj([
                ("kind", Value::from("nfs")),
                ("transport", Value::from(transport.clone())),
                ("threads", Value::from(*threads)),
                ("file_mib", Value::from(*file_mib)),
                ("write", Value::from(*write)),
            ]),
        }
    }

    /// Parse the tagged JSON layout produced by [`Workload::to_value`].
    pub fn from_value(v: &minijson::Value) -> Result<Workload, String> {
        let num = |key: &str| {
            v.get(key)
                .and_then(|f| f.as_u64())
                .ok_or_else(|| format!("workload: missing or non-integer field {key:?}"))
        };
        // Counts a run divides by or needs at least one of.
        let count = |key: &str| match num(key)? {
            0 => Err(format!("workload: field {key:?} must be at least 1")),
            n => Ok(n),
        };
        let num_or = |key: &str, default: u64| match v.get(key) {
            None => Ok(default),
            Some(f) => f
                .as_u64()
                .ok_or_else(|| format!("workload: bad field {key:?}")),
        };
        // Fields a run holds as `u32`: refuse what would wrap.
        let narrow = |key: &str, n: u64| {
            u32::try_from(n)
                .map_err(|_| format!("workload: field {key:?} is {n}: the limit is {}", u32::MAX))
        };
        let num32 = |key: &str| narrow(key, num(key)?);
        let count32 = |key: &str| narrow(key, count(key)?);
        let text = |key: &str| {
            v.get(key)
                .and_then(|f| f.as_str())
                .map(str::to_string)
                .ok_or_else(|| format!("workload: missing string field {key:?}"))
        };
        let flag = |key: &str| match v.get(key) {
            None => Ok(false),
            Some(f) => f
                .as_bool()
                .ok_or_else(|| format!("workload: bad flag {key:?}")),
        };
        let kind = v
            .get("kind")
            .and_then(|k| k.as_str())
            .ok_or("workload: missing \"kind\" tag")?;
        match kind {
            "verbs_latency" => {
                let mode = text("mode")?;
                let size = num32("size")?;
                if LATENCY_MODES.get(&mode)? == LatMode::SendUd {
                    ud_fits(size)?;
                }
                Ok(Workload::VerbsLatency {
                    mode,
                    size,
                    iters: count32("iters")?,
                })
            }
            "verbs_bandwidth" => {
                let transport = text("transport")?;
                let size = num32("size")?;
                if VERBS_TRANSPORTS.get(&transport)? {
                    ud_fits(size)?;
                }
                Ok(Workload::VerbsBandwidth {
                    transport,
                    size,
                    iters: count("iters")?,
                })
            }
            "ipoib" => {
                let mode = text("mode")?;
                let mtu = num32("mtu")?;
                let problem = match IPOIB_MODES.get(&mode)? {
                    // Datagram mode sends each IP packet as one UD datagram.
                    IpoibMode::Ud if mtu != IpoibConfig::ud().mtu => Some(format!(
                        "datagram mode carries IP packets in {}-byte datagrams",
                        IpoibConfig::ud().mtu
                    )),
                    // Connected mode carries TCP in the configured MTU,
                    // which must leave room for the TCP/IP headers.
                    IpoibMode::Rc if mtu <= TCP_IP_HEADER => Some(format!(
                        "connected mode needs more than the {TCP_IP_HEADER} bytes of \
                         TCP/IP headers"
                    )),
                    IpoibMode::Rc if mtu > MAX_IP_PACKET => Some(format!(
                        "connected mode carries IP packets of at most {MAX_IP_PACKET} bytes"
                    )),
                    _ => None,
                };
                if let Some(problem) = problem {
                    return Err(format!("workload: field \"mtu\" is {mtu}: {problem}"));
                }
                Ok(Workload::Ipoib {
                    mode,
                    mtu,
                    window: count("window")?,
                    streams: count("streams")? as usize,
                    bytes_per_stream: count("bytes_per_stream")?,
                })
            }
            "mpi_latency" => Ok(Workload::MpiLatency {
                size: num32("size")?,
                iters: count32("iters")?,
            }),
            "mpi_bandwidth" => Ok(Workload::MpiBandwidth {
                size: num32("size")?,
                window: count32("window")?,
                iters: count32("iters")?,
                eager_threshold: narrow("eager_threshold", num_or("eager_threshold", 0)?)?,
                rndv_protocol: match v.get("rndv_protocol") {
                    None => String::new(),
                    Some(_) => RNDV_PROTOCOLS.check(text("rndv_protocol")?)?,
                },
            }),
            "mpi_bcast" => Ok(Workload::MpiBcast {
                ranks_per_cluster: count("ranks_per_cluster")? as usize,
                size: num32("size")?,
                iters: count32("iters")?,
                hierarchical: flag("hierarchical")?,
            }),
            "message_rate" => Ok(Workload::MessageRate {
                pairs: count("pairs")? as usize,
                size: num32("size")?,
                window: count32("window")?,
                iters: count32("iters")?,
            }),
            "nas" => {
                let benchmark = text("benchmark")?;
                let bench = NAS_BENCHMARKS.get(&benchmark)?;
                let ranks_per_cluster = num("ranks_per_cluster")? as usize;
                nasbench::check_ranks(bench, 2 * ranks_per_cluster).map_err(|e| {
                    format!("workload: field \"ranks_per_cluster\" is {ranks_per_cluster}: {e}")
                })?;
                Ok(Workload::Nas {
                    benchmark,
                    ranks_per_cluster,
                })
            }
            "mpi_pattern" => {
                let ranks_per_cluster = count("ranks_per_cluster")? as usize;
                let spec = mpisim::patterns::Pattern::from_value(
                    v.get("spec").ok_or("workload: missing \"spec\"")?,
                )?;
                if let Some(req) = spec
                    .required_ranks()
                    .filter(|&r| r != 2 * ranks_per_cluster)
                {
                    return Err(format!(
                        "workload: field \"spec\": pattern {} needs exactly {req} ranks, \
                         and \"ranks_per_cluster\" {ranks_per_cluster} makes {}",
                        spec.name(),
                        2 * ranks_per_cluster
                    ));
                }
                Ok(Workload::MpiPattern {
                    ranks_per_cluster,
                    spec,
                })
            }
            "nfs" => Ok(Workload::Nfs {
                transport: NFS_TRANSPORTS.check(text("transport")?)?,
                threads: count("threads")? as usize,
                file_mib: count("file_mib")?,
                write: flag("write")?,
            }),
            other => Err(format!("unknown workload kind {other:?}")),
        }
    }
}

/// A UD message is one datagram, so it must fit the UD QP's MTU.
fn ud_fits(size: u32) -> Result<(), String> {
    if size > DEFAULT_MTU {
        return Err(format!(
            "workload: field \"size\" is {size}: a UD message must fit the {DEFAULT_MTU}-byte MTU"
        ));
    }
    Ok(())
}

/// A complete runnable experiment description.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Display name.
    pub name: String,
    /// Deterministic engine seed.
    pub seed: u64,
    /// The WAN configuration.
    pub topology: Topology,
    /// The benchmark.
    pub workload: Workload,
}

fn default_seed() -> u64 {
    42
}

/// The scalar outcome of a scenario.
#[derive(Clone, Debug)]
pub struct ScenarioResult {
    /// Scenario name.
    pub name: String,
    /// What was measured ("latency", "bandwidth", ...).
    pub metric: String,
    /// The value.
    pub value: f64,
    /// The unit ("us", "MB/s", "Mmsg/s", "s").
    pub unit: String,
}

impl ScenarioResult {
    /// Serialize to a JSON value (for `ibwan-sim --json`).
    pub fn to_value(&self) -> minijson::Value {
        use minijson::{obj, Value};
        obj([
            ("name", Value::from(self.name.clone())),
            ("metric", Value::from(self.metric.clone())),
            ("value", Value::Num(self.value)),
            ("unit", Value::from(self.unit.clone())),
        ])
    }
}

impl Scenario {
    /// Parse a scenario from JSON. Missing `seed` defaults to 42; missing
    /// topology fields default to 0 — the same defaults the original
    /// serde-derived format accepted.
    pub fn from_json(json: &str) -> Result<Self, String> {
        let v = minijson::Value::parse(json)?;
        let name = v
            .get("name")
            .and_then(|n| n.as_str())
            .ok_or_else(|| "scenario: missing \"name\"".to_string())?
            .to_string();
        let seed = match v.get("seed") {
            None => default_seed(),
            Some(s) => s.as_u64().ok_or_else(|| "scenario: bad seed".to_string())?,
        };
        let topo = v
            .get("topology")
            .ok_or_else(|| "scenario: missing \"topology\"".to_string())?;
        let opt_u64 = |obj: &minijson::Value, key: &str| -> Result<u64, String> {
            match obj.get(key) {
                None => Ok(0),
                Some(f) => f
                    .as_u64()
                    .ok_or_else(|| format!("scenario: bad field {key:?}")),
            }
        };
        let loss_ppm = opt_u64(topo, "loss_ppm")?;
        // At 1,000,000 every packet drops, and an RC run retransmits forever.
        let loss_ppm = u32::try_from(loss_ppm)
            .ok()
            .filter(|&ppm| ppm < 1_000_000)
            .ok_or_else(|| {
                format!("scenario: field \"loss_ppm\" is {loss_ppm}: the limit is 999999")
            })?;
        let topology = Topology {
            delay_us: opt_u64(topo, "delay_us")?,
            loss_ppm,
        };
        let workload = Workload::from_value(
            v.get("workload")
                .ok_or_else(|| "scenario: missing \"workload\"".to_string())?,
        )?;
        if loss_ppm > 0 && !workload.tolerates_loss() {
            return Err(format!(
                "scenario: field \"loss_ppm\" is {loss_ppm}: only the RC verbs workloads \
                 (verbs_latency send_rc or write_rc, verbs_bandwidth rc) run on a lossy WAN"
            ));
        }
        Ok(Scenario {
            name,
            seed,
            topology,
            workload,
        })
    }

    /// Serialize to pretty JSON (for `ibwan-sim --example`).
    pub fn to_json(&self) -> String {
        use minijson::{obj, Value};
        obj([
            ("name", Value::from(self.name.clone())),
            ("seed", Value::from(self.seed)),
            (
                "topology",
                obj([
                    ("delay_us", Value::from(self.topology.delay_us)),
                    ("loss_ppm", Value::from(self.topology.loss_ppm)),
                ]),
            ),
            ("workload", self.workload.to_value()),
        ])
        .to_pretty()
    }

    /// Run the scenario and return its headline number.
    ///
    /// The config supplies fragment-train coalescing (invisible in every
    /// result) and the seed offset.
    pub fn run(&self, cfg: &RunConfig) -> ScenarioResult {
        let delay = Dur::from_us(self.topology.delay_us);
        let loss = self.topology.loss_ppm;
        assert!(
            loss == 0 || self.workload.tolerates_loss(),
            "{}: loss_ppm is {loss}, but only the RC verbs workloads run on a lossy WAN",
            self.name
        );
        let spec = TopoSpec::two_site_lossy(delay, loss);
        // The workloads that build their own fabric (MPI, NAS, NFS) run on
        // their setup's canonical seed, not the scenario's, so their
        // recorded outputs stay bit-identical.
        let two_clusters = |ranks| cfg.apply(JobSpec::two_clusters(ranks, ranks, delay));
        let (metric, value, unit) = match &self.workload {
            Workload::VerbsLatency { mode, size, iters } => {
                let mode = LATENCY_MODES.must(mode);
                let us = verbs::latency(cfg, self.seed, &spec, mode, *size, *iters);
                ("latency", us, "us")
            }
            Workload::VerbsBandwidth {
                transport,
                size,
                iters,
            } => {
                let ud = VERBS_TRANSPORTS.must(transport);
                let mbs = verbs::bandwidth(cfg, self.seed, &spec, ud, *size, *iters, false);
                ("bandwidth", mbs, "MB/s")
            }
            Workload::Ipoib {
                mode,
                mtu,
                window,
                streams,
                bytes_per_stream,
            } => {
                let ipoib = match IPOIB_MODES.must(mode) {
                    IpoibMode::Ud => IpoibConfig::ud(),
                    IpoibMode::Rc => IpoibConfig::rc(*mtu),
                };
                let mbs = ipoib_exp::throughput(
                    cfg,
                    self.seed,
                    &spec,
                    ipoib,
                    *window,
                    *streams,
                    *bytes_per_stream,
                );
                ("throughput", mbs, "MB/s")
            }
            Workload::MpiLatency { size, iters } => {
                let us = mpibench::osu_latency(two_clusters(1), *size, *iters);
                ("latency", us, "us")
            }
            Workload::MpiBandwidth {
                size,
                window,
                iters,
                eager_threshold,
                rndv_protocol,
            } => {
                let mut mpi = MpiConfig::default();
                if *eager_threshold > 0 {
                    mpi.eager_threshold = *eager_threshold;
                }
                mpi.rndv_protocol = RNDV_PROTOCOLS.must(rndv_protocol);
                let spec = two_clusters(1).with_mpi(mpi);
                let mbs = mpibench::osu_bw(spec, *size, *window, *iters);
                ("bandwidth", mbs, "MB/s")
            }
            Workload::MpiBcast {
                ranks_per_cluster,
                size,
                iters,
                hierarchical,
            } => {
                let spec = two_clusters(*ranks_per_cluster);
                let us = mpibench::osu_bcast(spec, *size, *iters, *hierarchical);
                ("bcast_latency", us, "us")
            }
            Workload::MessageRate {
                pairs,
                size,
                window,
                iters,
            } => {
                let rate = mpibench::msg_rate(two_clusters(*pairs), *pairs, *size, *window, *iters);
                ("message_rate", rate, "Mmsg/s")
            }
            Workload::Nas {
                benchmark,
                ranks_per_cluster,
            } => {
                let bench = NAS_BENCHMARKS.must(benchmark);
                let r = nasbench::run_spec(bench, two_clusters(*ranks_per_cluster));
                ("time", r.time_secs, "s")
            }
            Workload::MpiPattern {
                ranks_per_cluster,
                spec,
            } => {
                if let Some(req) = spec.required_ranks() {
                    assert_eq!(
                        req,
                        2 * ranks_per_cluster,
                        "pattern {} needs exactly {req} ranks",
                        spec.name()
                    );
                }
                let js = two_clusters(*ranks_per_cluster);
                let mut job = mpisim::world::MpiJob::build(js, |rank, n| spec.ops(rank, n));
                job.run();
                let n = 2 * ranks_per_cluster;
                let t0 = (0..n)
                    .filter_map(|r| job.process(r).runner.mark(0))
                    .min()
                    .expect("pattern records marks");
                let t1 = (0..n)
                    .filter_map(|r| job.process(r).runner.mark(1))
                    .max()
                    .expect("pattern records marks");
                ("time", t1.since(t0).as_secs_f64(), "s")
            }
            Workload::Nfs {
                transport,
                threads,
                file_mib,
                write,
            } => {
                let t = NFS_TRANSPORTS.must(transport);
                let mut s = NfsSetup::scaled(t, *threads, Some(delay));
                s.file_size = file_mib << 20;
                s.write = *write;
                ("throughput", run_read_experiment(cfg.apply(s)).mbs, "MB/s")
            }
        };
        ScenarioResult {
            name: self.name.clone(),
            metric: metric.into(),
            value,
            unit: unit.into(),
        }
    }
}

/// A ready-made example scenario (what `ibwan-sim --example` prints).
pub fn example_scenario() -> Scenario {
    Scenario {
        name: "mpi-bw-200km-tuned".into(),
        seed: 42,
        topology: Topology {
            delay_us: 1000,
            loss_ppm: 0,
        },
        workload: Workload::MpiBandwidth {
            size: 16384,
            window: 64,
            iters: 4,
            eager_threshold: 65536,
            rndv_protocol: "rput".into(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trip() {
        let s = example_scenario();
        let j = s.to_json();
        let back = Scenario::from_json(&j).unwrap();
        assert_eq!(back.name, s.name);
        assert_eq!(back.topology.delay_us, 1000);
    }

    #[test]
    fn defaults_fill_in() {
        let j = r#"{
            "name": "minimal",
            "topology": { "delay_us": 10 },
            "workload": { "kind": "mpi_latency", "size": 4, "iters": 5 }
        }"#;
        let s = Scenario::from_json(j).unwrap();
        assert_eq!(s.seed, 42);
        assert_eq!(s.topology.loss_ppm, 0);
        let r = s.run(&RunConfig::default());
        assert_eq!(r.unit, "us");
        assert!(r.value > 10.0 && r.value < 40.0, "{}", r.value);
    }

    /// The lossy Longbow is the only draw on the engine RNG, so these runs
    /// are the first to show a change in dispatch order. Each case pins
    /// `value` and `events_processed` at seed offsets 0 and 3.
    #[test]
    fn lossy_rc_scenarios_are_pinned() {
        let latency = |mode: &str| Workload::VerbsLatency {
            mode: mode.into(),
            size: 4096,
            iters: 500,
        };
        let bandwidth = |size, iters| Workload::VerbsBandwidth {
            transport: "rc".into(),
            size,
            iters,
        };
        let cases = [
            (
                42,
                100,
                5_000,
                bandwidth(65_536, 200),
                [(2.0803916161989195, 180_279), (1.4759552557416842, 240_074)],
            ),
            (
                42,
                50,
                20_000,
                latency("send_rc"),
                [(9727.19578, 17_860), (10506.929660000007, 18_018)],
            ),
            (
                42,
                50,
                20_000,
                latency("write_rc"),
                [(9726.796580000004, 17_860), (10506.532060000007, 18_018)],
            ),
            (
                7,
                50,
                10_000,
                bandwidth(4096, 100),
                [(0.8531153090521637, 2_076), (0.5687919809551337, 2_387)],
            ),
        ];
        for (seed, delay_us, loss_ppm, workload, pinned) in cases {
            let s = Scenario {
                name: format!("{workload:?} at {delay_us} us, {loss_ppm} ppm"),
                seed,
                topology: Topology { delay_us, loss_ppm },
                workload,
            };
            for (offset, (value, events)) in [0, 3].into_iter().zip(pinned) {
                let cfg = RunConfig {
                    seed: offset,
                    ..RunConfig::default()
                };
                let (r, prov) = crate::runner::run_scenario(&s, &cfg);
                let got = (r.value, prov.tally.counters.events_processed);
                assert_eq!(got, (value, events), "{}, seed offset {offset}", s.name);
            }
        }
    }

    #[test]
    fn nfs_scenario_runs() {
        let s = Scenario {
            name: "nfs".into(),
            seed: 1,
            topology: Topology {
                delay_us: 100,
                loss_ppm: 0,
            },
            workload: Workload::Nfs {
                transport: "rdma".into(),
                threads: 4,
                file_mib: 8,
                write: false,
            },
        };
        let r = s.run(&RunConfig::default());
        assert_eq!(r.unit, "MB/s");
        assert!(r.value > 10.0);
    }

    #[test]
    fn pattern_scenario_runs_from_json() {
        let j = r#"{
            "name": "halo",
            "topology": { "delay_us": 100 },
            "workload": {
                "kind": "mpi_pattern",
                "ranks_per_cluster": 4,
                "spec": {
                    "pattern": "halo2d",
                    "rows": 2, "cols": 4,
                    "face_bytes": 8192, "iters": 3, "compute_us": 50
                }
            }
        }"#;
        let s = Scenario::from_json(j).unwrap();
        let r = s.run(&RunConfig::default());
        assert_eq!(r.unit, "s");
        assert!(r.value > 0.0);
    }

    /// One instance of every [`Workload`] variant, for the round-trip sweep.
    fn every_workload_variant() -> Vec<Workload> {
        vec![
            Workload::VerbsLatency {
                mode: "send_rc".into(),
                size: 4,
                iters: 50,
            },
            Workload::VerbsBandwidth {
                transport: "ud".into(),
                size: 2048,
                iters: 1000,
            },
            Workload::Ipoib {
                mode: "rc".into(),
                mtu: 16384,
                window: 1 << 20,
                streams: 4,
                bytes_per_stream: 8 << 20,
            },
            Workload::MpiLatency {
                size: 64,
                iters: 20,
            },
            Workload::MpiBandwidth {
                size: 65536,
                window: 32,
                iters: 8,
                eager_threshold: 1 << 17,
                rndv_protocol: "rget".into(),
            },
            Workload::MpiBcast {
                ranks_per_cluster: 8,
                size: 4096,
                iters: 10,
                hierarchical: true,
            },
            Workload::MessageRate {
                pairs: 3,
                size: 128,
                window: 64,
                iters: 100,
            },
            Workload::Nas {
                benchmark: "ft".into(),
                ranks_per_cluster: 8,
            },
            Workload::MpiPattern {
                ranks_per_cluster: 4,
                spec: mpisim::patterns::Pattern::Halo2d {
                    rows: 2,
                    cols: 4,
                    face_bytes: 8192,
                    iters: 3,
                    compute_us: 50,
                },
            },
            Workload::Nfs {
                transport: "ipoib_rc".into(),
                threads: 16,
                file_mib: 256,
                write: true,
            },
            Workload::Ipoib {
                mode: "ud".into(),
                mtu: 2048,
                window: 1 << 20,
                streams: 4,
                bytes_per_stream: 8 << 20,
            },
        ]
    }

    /// Every workload kind runs at 100 µs with and without coalescing: the
    /// two values must be equal, and the coalesced run's `value` and
    /// `events_processed` are pinned. No golden runs the scenario path, so
    /// this is where a changed model constant on it shows.
    #[test]
    fn every_workload_kind_is_pinned_with_and_without_coalescing() {
        let pinned = [
            (107.084, 404),
            (967.9178706563032, 47),
            (862.8635499437374, 17_661),
            (107.748, 244),
            (875.0489754073565, 1_844),
            (247.60500000000002, 1_972),
            (0.22309647119015832, 195_018),
            (0.656587527, 274_540),
            (0.000942288, 2_110),
            (472.4106739517647, 43_252),
            (469.5827275046823, 72_700),
        ];
        let workloads = every_workload_variant();
        assert_eq!(workloads.len(), pinned.len());
        for (workload, (value, events)) in workloads.into_iter().zip(pinned) {
            let s = Scenario {
                name: format!("{workload:?} at 100 us"),
                seed: 42,
                topology: Topology {
                    delay_us: 100,
                    loss_ppm: 0,
                },
                workload,
            };
            let (r, prov) = crate::runner::run_scenario(&s, &RunConfig::default());
            let per_hop = RunConfig {
                coalescing: false,
                ..RunConfig::default()
            };
            let (r2, _) = crate::runner::run_scenario(&s, &per_hop);
            assert_eq!(r.value, r2.value, "{}: coalescing moved the value", s.name);
            let got = (r.value, prov.tally.counters.events_processed);
            assert_eq!(got, (value, events), "{}", s.name);
        }
    }

    /// Property-style sweep: every variant must survive
    /// `to_value → print → parse → from_value` with an identical printed
    /// form (printed JSON is the canonical comparison — field order is
    /// insertion order, so equality is exact, and `Workload` itself has no
    /// `PartialEq`).
    #[test]
    fn every_workload_variant_round_trips_through_json() {
        for w in every_workload_variant() {
            let printed = w.to_value().to_pretty();
            let parsed = minijson::Value::parse(&printed)
                .unwrap_or_else(|e| panic!("unparsable print of {w:?}: {e}"));
            let back = Workload::from_value(&parsed)
                .unwrap_or_else(|e| panic!("round-trip rejected {w:?}: {e}"));
            assert_eq!(
                back.to_value().to_pretty(),
                printed,
                "round trip changed the serialized form of {w:?}"
            );
        }
    }

    /// A whole scenario wrapping each variant must round-trip through
    /// `Scenario::to_json`/`from_json` the same way.
    #[test]
    fn every_scenario_round_trips_through_json() {
        for (i, w) in every_workload_variant().into_iter().enumerate() {
            let s = Scenario {
                name: format!("variant-{i}"),
                seed: 10 + i as u64,
                topology: Topology {
                    delay_us: 100 * i as u64,
                    loss_ppm: if w.tolerates_loss() { 500 } else { 0 },
                },
                workload: w,
            };
            let j = s.to_json();
            let back = Scenario::from_json(&j).unwrap_or_else(|e| panic!("{j}\nrejected: {e}"));
            assert_eq!(back.to_json(), j, "scenario {i} changed across round trip");
            assert_eq!(back.seed, s.seed);
            assert_eq!(back.topology.delay_us, s.topology.delay_us);
            assert_eq!(back.topology.loss_ppm, s.topology.loss_ppm);
        }
    }

    /// Malformed workloads must come back as readable `Err`s naming the
    /// offending field — never panics, never silent defaults for required
    /// fields.
    #[test]
    fn malformed_workloads_are_rejected_with_field_names() {
        let cases: &[(&str, &str)] = &[
            // No kind tag at all.
            (r#"{ "size": 4 }"#, "kind"),
            // Unknown kind.
            (r#"{ "kind": "quantum_teleport" }"#, "quantum_teleport"),
            // Missing required numeric field.
            (r#"{ "kind": "mpi_latency", "size": 4 }"#, "iters"),
            // Wrong type: string where a number is required.
            (
                r#"{ "kind": "mpi_latency", "size": "big", "iters": 5 }"#,
                "size",
            ),
            // Wrong type: number where a string is required.
            (
                r#"{ "kind": "verbs_latency", "mode": 7, "size": 4, "iters": 5 }"#,
                "mode",
            ),
            // Wrong type: non-boolean flag.
            (
                r#"{ "kind": "nfs", "transport": "rdma", "threads": 1, "file_mib": 8, "write": "yes" }"#,
                "write",
            ),
            // Negative numbers are not valid u64 fields.
            (
                r#"{ "kind": "mpi_latency", "size": -4, "iters": 5 }"#,
                "size",
            ),
            // mpi_pattern without its spec.
            (
                r#"{ "kind": "mpi_pattern", "ranks_per_cluster": 4 }"#,
                "spec",
            ),
            // mpi_pattern with a bogus pattern name inside the spec.
            (
                r#"{ "kind": "mpi_pattern", "ranks_per_cluster": 4, "spec": { "pattern": "moebius" } }"#,
                "moebius",
            ),
            // mpi_pattern with no ranks, a halo grid that is not the job's
            // rank count (3x3 on 2+2 ranks, an empty grid), and a block size
            // that would wrap to 1 byte.
            (
                r#"{ "kind": "mpi_pattern", "ranks_per_cluster": 0, "spec": { "pattern": "ring", "block_bytes": 64, "iters": 2 } }"#,
                r#""ranks_per_cluster""#,
            ),
            (
                r#"{ "kind": "mpi_pattern", "ranks_per_cluster": 2, "spec": { "pattern": "halo2d", "rows": 3, "cols": 3, "face_bytes": 64, "iters": 2, "compute_us": 0 } }"#,
                "needs exactly 9 ranks",
            ),
            (
                r#"{ "kind": "mpi_pattern", "ranks_per_cluster": 2, "spec": { "pattern": "halo2d", "rows": 0, "cols": 2, "face_bytes": 64, "iters": 2, "compute_us": 0 } }"#,
                "needs exactly 0 ranks",
            ),
            (
                r#"{ "kind": "mpi_pattern", "ranks_per_cluster": 2, "spec": { "pattern": "ring", "block_bytes": 4294967297, "iters": 2 } }"#,
                r#""block_bytes" is 4294967297: the limit is 4294967295"#,
            ),
            // Names no run accepts.
            (
                r#"{ "kind": "verbs_latency", "mode": "send_xrc", "size": 4, "iters": 5 }"#,
                r#""mode""#,
            ),
            (
                r#"{ "kind": "verbs_bandwidth", "transport": "uc", "size": 4, "iters": 5 }"#,
                r#""transport""#,
            ),
            (
                r#"{ "kind": "ipoib", "mode": "cm", "mtu": 2048, "window": 65536, "streams": 1, "bytes_per_stream": 1024 }"#,
                r#""mode""#,
            ),
            (
                r#"{ "kind": "mpi_bandwidth", "size": 4, "window": 1, "iters": 1, "rndv_protocol": "rdma" }"#,
                r#""rndv_protocol""#,
            ),
            (
                r#"{ "kind": "nas", "benchmark": "lu", "ranks_per_cluster": 4 }"#,
                r#""benchmark""#,
            ),
            (
                r#"{ "kind": "nfs", "transport": "udp", "threads": 1, "file_mib": 8 }"#,
                r#""transport""#,
            ),
            // NAS rank counts the skeletons cannot run: none at all, a
            // total that is not a power of two (recursive-doubling
            // allreduce), and CG on a grid that is not square (16+16).
            (
                r#"{ "kind": "nas", "benchmark": "is", "ranks_per_cluster": 0 }"#,
                r#""ranks_per_cluster""#,
            ),
            (
                r#"{ "kind": "nas", "benchmark": "ft", "ranks_per_cluster": 3 }"#,
                r#""ranks_per_cluster""#,
            ),
            (
                r#"{ "kind": "nas", "benchmark": "cg", "ranks_per_cluster": 16 }"#,
                r#""ranks_per_cluster""#,
            ),
            // A UD message larger than the MTU, which a UD QP cannot send.
            (
                r#"{ "kind": "verbs_bandwidth", "transport": "ud", "size": 4096, "iters": 5 }"#,
                r#""size""#,
            ),
            (
                r#"{ "kind": "verbs_latency", "mode": "send_ud", "size": 4096, "iters": 5 }"#,
                r#""size""#,
            ),
            // Connected-mode IPoIB with no room for the TCP/IP headers, or
            // an IP packet over 64 KiB.
            (
                r#"{ "kind": "ipoib", "mode": "rc", "mtu": 52, "window": 65536, "streams": 1, "bytes_per_stream": 1024 }"#,
                r#""mtu""#,
            ),
            (
                r#"{ "kind": "ipoib", "mode": "rc", "mtu": 100000, "window": 65536, "streams": 1, "bytes_per_stream": 1024 }"#,
                r#""mtu" is 100000"#,
            ),
            // IPoIB with nothing to carry: no stream, no window, no bytes.
            (
                r#"{ "kind": "ipoib", "mode": "ud", "mtu": 2048, "window": 65536, "streams": 0, "bytes_per_stream": 1024 }"#,
                r#""streams""#,
            ),
            (
                r#"{ "kind": "ipoib", "mode": "rc", "mtu": 65536, "window": 0, "streams": 1, "bytes_per_stream": 1024 }"#,
                r#""window""#,
            ),
            (
                r#"{ "kind": "ipoib", "mode": "ud", "mtu": 2048, "window": 65536, "streams": 1, "bytes_per_stream": 0 }"#,
                r#""bytes_per_stream""#,
            ),
            // Datagram mode sends one IP packet per 2048-byte datagram, so
            // no other MTU would change the run.
            (
                r#"{ "kind": "ipoib", "mode": "ud", "mtu": 512, "window": 65536, "streams": 1, "bytes_per_stream": 1024 }"#,
                r#""mtu" is 512"#,
            ),
            // Windows of no messages, and an NFS file of no records: each
            // would measure nothing and print 0.
            (
                r#"{ "kind": "mpi_bandwidth", "size": 8, "window": 0, "iters": 1 }"#,
                r#""window""#,
            ),
            (
                r#"{ "kind": "message_rate", "pairs": 1, "size": 8, "window": 0, "iters": 2 }"#,
                r#""window""#,
            ),
            (
                r#"{ "kind": "nfs", "transport": "rdma", "threads": 1, "file_mib": 0 }"#,
                r#""file_mib""#,
            ),
            // Jobs with no ranks, and NFS with no client threads.
            (
                r#"{ "kind": "mpi_bcast", "ranks_per_cluster": 0, "size": 64, "iters": 2 }"#,
                r#""ranks_per_cluster""#,
            ),
            (
                r#"{ "kind": "message_rate", "pairs": 0, "size": 8, "window": 4, "iters": 2 }"#,
                r#""pairs""#,
            ),
            (
                r#"{ "kind": "nfs", "transport": "rdma", "threads": 0, "file_mib": 1 }"#,
                r#""threads""#,
            ),
            // Zero iterations: the mean of no samples is NaN.
            (
                r#"{ "kind": "mpi_bcast", "ranks_per_cluster": 2, "size": 64, "iters": 0 }"#,
                r#""iters""#,
            ),
            (
                r#"{ "kind": "mpi_latency", "size": 8, "iters": 0 }"#,
                r#""iters""#,
            ),
            (
                r#"{ "kind": "mpi_bandwidth", "size": 8, "window": 4, "iters": 0 }"#,
                r#""iters""#,
            ),
            (
                r#"{ "kind": "message_rate", "pairs": 1, "size": 8, "window": 4, "iters": 0 }"#,
                r#""iters""#,
            ),
            (
                r#"{ "kind": "verbs_latency", "mode": "send_rc", "size": 8, "iters": 0 }"#,
                r#""iters""#,
            ),
            (
                r#"{ "kind": "verbs_bandwidth", "transport": "rc", "size": 8, "iters": 0 }"#,
                r#""iters""#,
            ),
            // Numbers a run holds as u32 must not wrap: 2^32 iterations would
            // become 0 (a NaN mean), and 2^32 + 2048 bytes a UD message that
            // passes the MTU check.
            (
                r#"{ "kind": "mpi_latency", "size": 8, "iters": 4294967296 }"#,
                r#""iters" is 4294967296: the limit is 4294967295"#,
            ),
            (
                r#"{ "kind": "verbs_bandwidth", "transport": "ud", "size": 4294969344, "iters": 5 }"#,
                r#""size" is 4294969344"#,
            ),
            (
                r#"{ "kind": "mpi_bandwidth", "size": 8, "window": 4, "iters": 1, "eager_threshold": 4294967296 }"#,
                r#""eager_threshold""#,
            ),
        ];
        for (json, expect) in cases {
            let v = minijson::Value::parse(json).expect("test JSON must parse");
            match Workload::from_value(&v) {
                Ok(w) => panic!("malformed workload accepted: {json} -> {w:?}"),
                Err(e) => assert!(
                    e.contains(expect),
                    "error for {json} should name {expect:?}, got: {e}"
                ),
            }
        }
        // The largest IP packet connected mode carries is accepted.
        let v = minijson::Value::parse(
            r#"{ "kind": "ipoib", "mode": "rc", "mtu": 65536, "window": 65536, "streams": 1, "bytes_per_stream": 1024 }"#,
        )
        .expect("test JSON must parse");
        assert!(Workload::from_value(&v).is_ok());
    }

    /// Malformed scenario envelopes fail the same way.
    #[test]
    fn malformed_scenarios_are_rejected() {
        let missing_name =
            r#"{ "topology": {}, "workload": { "kind": "mpi_latency", "size": 4, "iters": 5 } }"#;
        assert!(Scenario::from_json(missing_name)
            .unwrap_err()
            .contains("name"));
        let missing_topology =
            r#"{ "name": "x", "workload": { "kind": "mpi_latency", "size": 4, "iters": 5 } }"#;
        assert!(Scenario::from_json(missing_topology)
            .unwrap_err()
            .contains("topology"));
        let bad_seed = r#"{ "name": "x", "seed": "abc", "topology": {}, "workload": { "kind": "mpi_latency", "size": 4, "iters": 5 } }"#;
        assert!(Scenario::from_json(bad_seed).unwrap_err().contains("seed"));
        let wrapping_loss = r#"{ "name": "x", "topology": { "loss_ppm": 4294967296 }, "workload": { "kind": "mpi_latency", "size": 4, "iters": 5 } }"#;
        assert!(Scenario::from_json(wrapping_loss)
            .unwrap_err()
            .contains(r#""loss_ppm" is 4294967296"#));
        // Every packet drops: an RC run would retransmit forever.
        let total_loss = r#"{ "name": "x", "topology": { "delay_us": 10, "loss_ppm": 1000000 }, "workload": { "kind": "verbs_bandwidth", "transport": "rc", "size": 4096, "iters": 4 } }"#;
        assert!(Scenario::from_json(total_loss)
            .unwrap_err()
            .contains(r#""loss_ppm" is 1000000"#));
        // Only the RC verbs workloads retransmit.
        for workload in [
            r#"{ "kind": "mpi_latency", "size": 4, "iters": 5 }"#,
            r#"{ "kind": "verbs_latency", "mode": "send_ud", "size": 4, "iters": 5 }"#,
            r#"{ "kind": "verbs_bandwidth", "transport": "ud", "size": 4, "iters": 5 }"#,
        ] {
            let lossy = format!(
                r#"{{ "name": "x", "topology": {{ "loss_ppm": 100 }}, "workload": {workload} }}"#
            );
            assert!(Scenario::from_json(&lossy)
                .unwrap_err()
                .contains(r#""loss_ppm" is 100"#));
        }
        for workload in [
            r#"{ "kind": "verbs_latency", "mode": "send_rc", "size": 4, "iters": 5 }"#,
            r#"{ "kind": "verbs_latency", "mode": "write_rc", "size": 4, "iters": 5 }"#,
            r#"{ "kind": "verbs_bandwidth", "transport": "rc", "size": 4, "iters": 5 }"#,
        ] {
            let lossy = format!(
                r#"{{ "name": "x", "topology": {{ "loss_ppm": 999999 }}, "workload": {workload} }}"#
            );
            assert_eq!(
                Scenario::from_json(&lossy).unwrap().topology.loss_ppm,
                999_999
            );
        }
        assert!(Scenario::from_json("not json at all").is_err());
    }

    /// A scenario and a figure measure a point with the same runner, so a
    /// scenario at a figure point's parameters reads that point's recorded
    /// value exactly.
    #[test]
    fn scenarios_reproduce_their_figure_points() {
        let quick = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/quick");
        let cases = [
            (
                0,
                Workload::VerbsLatency {
                    mode: "send_rc".into(),
                    size: 4,
                    iters: 50,
                },
                ("fig3", "SendRecv/RC", 4.0),
            ),
            (
                1000,
                Workload::VerbsBandwidth {
                    transport: "rc".into(),
                    size: 65536,
                    iters: 128,
                },
                ("fig5a", "1000us-delay", 65536.0),
            ),
            (
                100,
                Workload::VerbsBandwidth {
                    transport: "ud".into(),
                    size: 2048,
                    iters: 2000,
                },
                ("fig4a", "100us-delay", 2048.0),
            ),
            (
                1000,
                Workload::Ipoib {
                    mode: "ud".into(),
                    mtu: 2048,
                    window: 65536,
                    streams: 1,
                    bytes_per_stream: 6 << 20,
                },
                ("fig6a", "64k-window", 1000.0),
            ),
        ];
        for (delay_us, workload, (id, label, x)) in cases {
            let json = std::fs::read_to_string(quick.join(format!("{id}.json"))).unwrap();
            let fig = crate::Figure::from_json(&json).unwrap();
            let want = fig.series(label).and_then(|s| s.y_at(x)).unwrap();
            let s = Scenario {
                name: format!("{id}/{label}@{x}"),
                seed: 42,
                topology: Topology {
                    delay_us,
                    loss_ppm: 0,
                },
                workload,
            };
            assert_eq!(s.run(&RunConfig::default()).value, want, "{}", s.name);
        }
    }

    #[test]
    #[should_panic(expected = "only the RC verbs workloads run on a lossy WAN")]
    fn loss_on_a_lossless_workload_panics() {
        let s = Scenario {
            name: "lossy-ud".into(),
            seed: 1,
            topology: Topology {
                delay_us: 10,
                loss_ppm: 100,
            },
            workload: Workload::VerbsBandwidth {
                transport: "ud".into(),
                size: 2048,
                iters: 10,
            },
        };
        s.run(&RunConfig::default());
    }

    #[test]
    #[should_panic(expected = "unknown NAS benchmark")]
    fn bad_benchmark_name_panics() {
        let s = Scenario {
            name: "bad".into(),
            seed: 1,
            topology: Topology {
                delay_us: 0,
                loss_ppm: 0,
            },
            workload: Workload::Nas {
                benchmark: "lu".into(),
                ranks_per_cluster: 4,
            },
        };
        s.run(&RunConfig::default());
    }
}
