//! Simulator configuration (§VII-A6 parameters).

use crate::engine::TimePs;
use fatpaths_telemetry::TelemetryConfig;

/// NDP payload bytes per packet: 9 KB jumbo frames (§VII-A6).
const NDP_MTU_PAYLOAD: u32 = 9000;
/// One-way latency of every link, in ps: the paper's fixed 1 µs
/// (§VII-A6). Links are homogeneous, so it is also the lookahead of the
/// sharded window driver.
pub(crate) const LINK_LATENCY: TimePs = 1_000_000;
/// TCP maximum segment size in payload bytes (§VII-A6).
const TCP_MSS: u32 = 1460;

/// Transport family. Its constants are §VII-A6's and sit beside the
/// code that reads them: NDP uses 9 KB jumbo frames, an 8-packet window
/// and 8-packet queues; TCP uses 1460-byte segments, 100-packet
/// tail-drop queues with ECN marking at 33, fast retransmit at 3
/// dup-acks and a 200 µs minimum RTO.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Transport {
    /// The FatPaths "purified" receiver-driven transport (NDP-derived):
    /// line-rate first window, payload trimming, priority queues for
    /// trimmed headers and retransmissions, paced pulls (§III-C).
    Ndp,
    /// TCP family with per-ACK clocking (§VII-C / §VIII-A).
    Tcp {
        /// Congestion-control variant.
        variant: TcpVariant,
    },
}

impl Transport {
    /// The paper's TCP of the given variant.
    pub fn tcp_default(variant: TcpVariant) -> Transport {
        Transport::Tcp { variant }
    }

    /// Payload bytes per full packet.
    pub fn payload(&self) -> u32 {
        match self {
            Transport::Ndp => NDP_MTU_PAYLOAD,
            Transport::Tcp { .. } => TCP_MSS,
        }
    }
}

/// TCP congestion-control variants (§VIII-A).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TcpVariant {
    /// Classic Reno (loss-driven).
    Reno,
    /// DCTCP: fractional window reduction by the marked fraction α.
    Dctcp,
}

/// Load-balancing / path-selection scheme (§VII-A3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoadBalancing {
    /// Flow-hash ECMP over minimal paths (static; the lower-bound
    /// baseline).
    EcmpFlow,
    /// Per-packet spraying over minimal paths (NDP's oblivious LB).
    PacketSpray,
    /// LetFlow: per-flowlet random re-pick over minimal paths.
    LetFlow,
    /// FatPaths: per-flowlet layer selection at the endpoint + NDP
    /// trim-feedback layer change (§V-F).
    FatPathsLayers,
}

/// Flowlet-boundary path selection policy: what a sender consults when
/// a flowlet boundary (gap, RTO, or TCP window reduction) re-picks the
/// path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdaptiveMode {
    /// Hash-based re-pick, oblivious to congestion (the paper's default
    /// data plane): a new layer (FatPaths) or nonce (LetFlow) is drawn
    /// uniformly from the flowlet counter.
    Oblivious,
    /// CONGA/LetFlow-style local congestion awareness: the sender reads
    /// the **live queue depths of its attachment router's output
    /// ports** — shard-local by construction, endpoints live on their
    /// router's shard — and steers the flowlet to the least-loaded
    /// candidate (layer for FatPaths-family schemes, minimal-path port
    /// for LetFlow/ECMP). Ties break by a deterministic hash of
    /// `(flow, flowlet counter)`, so results stay byte-identical at any
    /// shard and thread count.
    QueueDepth,
}

/// Full simulator configuration.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Link rate in Gbit/s (all links homogeneous, §II-A).
    pub link_gbps: f64,
    /// Transport family and constants.
    pub transport: Transport,
    /// Load-balancing scheme.
    pub lb: LoadBalancing,
    /// Flowlet-boundary path selection policy (congestion-oblivious
    /// hashing vs. local queue-depth awareness).
    pub adaptive: AdaptiveMode,
    /// RNG seed (full determinism).
    pub seed: u64,
    /// Stop simulating at this time even if flows remain (0 = run to
    /// completion).
    pub horizon: TimePs,
    /// Fault detection delay: how long after a link-state change the
    /// routing repairs itself (the control plane's reaction time).
    /// `None` (the default) means failures are never detected — routing
    /// stays as built and recovery is purely end-to-end (§V-G), which is
    /// the FatPaths story: preprovisioned layers mask failures without
    /// any control-plane help.
    pub detection_delay: Option<TimePs>,
    /// Number of event-loop shards (intra-simulation parallelism):
    /// routers and their endpoints are partitioned into this many
    /// regions, each stepped on its own event queue in conservative-
    /// lookahead windows. `0` (the default) resolves from the
    /// `FATPATHS_SHARDS` environment variable, falling back to 1.
    /// Results are bit-identical for every value — sharding trades
    /// memory and window overhead for wall-clock only.
    pub shards: u32,
    /// In-simulation telemetry (time-series probes + flow spans; see
    /// `fatpaths-telemetry`). Disabled by default — the hot loop then
    /// pays exactly one `Option` check per hook and allocates nothing.
    /// Exported traces are byte-identical across thread counts for a
    /// fixed shard count, same contract as the results themselves.
    pub telemetry: TelemetryConfig,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            link_gbps: 10.0,
            transport: Transport::Ndp,
            lb: LoadBalancing::FatPathsLayers,
            adaptive: AdaptiveMode::Oblivious,
            seed: 1,
            horizon: 0,
            detection_delay: None,
            shards: 0,
            telemetry: TelemetryConfig::disabled(),
        }
    }
}

impl SimConfig {
    /// Serialization time of `bytes` on a link, in ps.
    #[inline]
    pub fn ser_time(&self, bytes: u32) -> TimePs {
        // 8 bits/byte at link_gbps·1e9 bit/s → bytes·8000/gbps ps.
        (bytes as f64 * 8000.0 / self.link_gbps) as TimePs
    }

    /// Sets the number of event-loop shards (see [`SimConfig::shards`]).
    pub fn shards(mut self, k: u32) -> Self {
        self.shards = k;
        self
    }

    /// The shard count actually used: the explicit setting, else the
    /// `FATPATHS_SHARDS` environment variable, else 1.
    pub(crate) fn resolved_shards(&self) -> usize {
        if self.shards > 0 {
            return self.shards as usize;
        }
        std::env::var("FATPATHS_SHARDS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&k| k > 0)
            .unwrap_or(1)
    }
}

/// Wire header bytes added to every packet (Ethernet + IP + transport).
pub const HDR_BYTES: u32 = 64;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_time_10g() {
        let c = SimConfig::default();
        // 9064 B at 10 Gb/s = 7.2512 µs.
        assert_eq!(c.ser_time(9064), 7_251_200);
    }

    #[test]
    fn defaults_match_paper() {
        use crate::shard::{FLOWLET_GAP, NDP_QUEUE_PKTS, TCP_ECN_THRESHOLD, TCP_QUEUE_PKTS};
        assert_eq!(Transport::Ndp.payload(), 9000);
        assert_eq!((NDP_QUEUE_PKTS, crate::ndp::INITIAL_WINDOW), (8, 8));
        assert_eq!(Transport::tcp_default(TcpVariant::Dctcp).payload(), 1460);
        assert_eq!((TCP_QUEUE_PKTS, TCP_ECN_THRESHOLD), (100, 33));
        assert_eq!(crate::tcp::MIN_RTO, 200_000_000);
        assert_eq!(FLOWLET_GAP, 50_000_000);
    }
}
