//! Deterministic in-simulation telemetry: time-series probes, flow
//! spans, and trace export.
//!
//! The simulator (`fatpaths-sim`) collects telemetry **shard-locally**
//! during window execution — per-link and per-layer wire bytes, queue
//! depths, arena occupancy — plus optional per-flow event timelines
//! ("spans"), and merges everything into a [`Trace`] in canonical shard
//! order after the run. The determinism contract of the sharded engine
//! extends to every exported artifact: for a fixed shard count, the
//! NDJSON trace and the CSV time series are **byte-identical at any
//! thread count**. Three rules make that hold:
//!
//! * collectors are written only by the shard that owns the state, at
//!   canonical event times — never across shards mid-run;
//! * sampling intervals close in the serial driver section between
//!   windows, where the global clock (`t0`) is already deterministic;
//! * every exported quantity is an integer (bytes, counts, picoseconds)
//!   and every merge sorts by a canonical key — no float reductions, no
//!   hash-map iteration order.
//!
//! Span sampling is seeded, not random: a flow is sampled iff a hash of
//! `(flow, seed)` lands in the `1 / span_every` bucket, so the sampled
//! set is a pure function of the config — identical at any shard and
//! thread count.
//!
//! The `fatpaths-trace` binary in this crate parses an NDJSON trace and
//! prints top-loaded links, the per-layer utilization timeline, span
//! waterfalls, and the repair convergence timeline.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

/// Number of queue-depth histogram bins: `[0, 1, 2, ≤4, ≤8, ≤16, ≤32, >32]`.
const QBINS: usize = 8;

/// Bin index for a queue depth (packets).
#[inline]
fn qbin(depth: u32) -> usize {
    match depth {
        0 => 0,
        1 => 1,
        2 => 2,
        3..=4 => 3,
        5..=8 => 4,
        9..=16 => 5,
        17..=32 => 6,
        _ => 7,
    }
}

/// Telemetry knobs, embedded by value in the simulator's `SimConfig`.
///
/// `Copy` and allocation-free by design: the disabled path must cost the
/// hot loop exactly one pointer-null check (the shard holds
/// `Option<Box<ShardTelemetry>>`, `None` when disabled).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Master switch. When false, no collector is allocated and no hook
    /// does any work.
    pub enabled: bool,
    /// Sampling-interval length in picoseconds. Intervals close at
    /// window boundaries in the serial driver, so the effective
    /// resolution is `max(interval_ps, window length)`. Rows are
    /// attributed by window start, and windows start at the earliest
    /// pending event, so an engine change in the event schedule moves
    /// rows between intervals even when every outcome stays put.
    pub interval_ps: u64,
    /// Span sampling rate: flows are sampled 1-in-`span_every` by a
    /// seeded hash of the flow id (`0` disables spans entirely,
    /// `1` samples every flow).
    pub span_every: u32,
    /// Seed folded into the span-sampling hash, so two runs can sample
    /// disjoint flow sets deterministically.
    pub seed: u64,
}

impl TelemetryConfig {
    /// Default sampling interval: 100 µs.
    const DEFAULT_INTERVAL_PS: u64 = 100_000_000;
    /// Default span sampling: 1 in 8 flows.
    const DEFAULT_SPAN_EVERY: u32 = 8;

    /// Telemetry off (the `SimConfig` default): zero hot-loop work.
    pub const fn disabled() -> Self {
        TelemetryConfig {
            enabled: false,
            interval_ps: Self::DEFAULT_INTERVAL_PS,
            span_every: Self::DEFAULT_SPAN_EVERY,
            seed: 0,
        }
    }

    /// Telemetry on at the default sampling knobs.
    pub const fn on() -> Self {
        TelemetryConfig {
            enabled: true,
            ..Self::disabled()
        }
    }

    /// True iff spans for `flow` are recorded under this config — a pure
    /// function of `(flow, seed, span_every)`, so sender- and
    /// receiver-side shards agree without communicating.
    #[inline]
    pub fn flow_sampled(&self, flow: u32) -> bool {
        match self.span_every {
            0 => false,
            1 => true,
            n => fnv1a64(self.seed ^ fnv1a64(flow as u64)).is_multiple_of(n as u64),
        }
    }
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

/// FNV-1a over the 8 bytes of `x` — the same construction
/// `fatpaths_sim::cell_seed` uses for coordinate-derived seeds.
#[inline]
fn fnv1a64(x: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in x.to_le_bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Span event kinds, in canonical (tie-break) order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum SpanKind {
    /// Flow injected (start event dispatched).
    Inject = 0,
    /// First data packet handed to the fabric.
    FirstData = 1,
    /// First payload trim (NDP) seen by the receiver.
    FirstTrim = 2,
    /// First retransmission queued at the sender.
    FirstRetx = 3,
    /// Layer (or LetFlow-nonce) switch at a flowlet boundary;
    /// `a` = old layer, `b` = new layer.
    LayerSwitch = 4,
    /// Retransmission timeout fired at the sender.
    Rto = 5,
    /// Flow completed (receiver side); `a` = packets received,
    /// `b` = trims the receiver saw.
    Finish = 6,
    /// Flow aborted against a dead endpoint.
    Abort = 7,
}

impl SpanKind {
    /// Stable wire name (NDJSON `kind` field).
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Inject => "inject",
            SpanKind::FirstData => "first_data",
            SpanKind::FirstTrim => "first_trim",
            SpanKind::FirstRetx => "first_retx",
            SpanKind::LayerSwitch => "layer_switch",
            SpanKind::Rto => "rto",
            SpanKind::Finish => "finish",
            SpanKind::Abort => "abort",
        }
    }

    /// Inverse of [`name`](SpanKind::name).
    fn from_name(s: &str) -> Option<SpanKind> {
        Some(match s {
            "inject" => SpanKind::Inject,
            "first_data" => SpanKind::FirstData,
            "first_trim" => SpanKind::FirstTrim,
            "first_retx" => SpanKind::FirstRetx,
            "layer_switch" => SpanKind::LayerSwitch,
            "rto" => SpanKind::Rto,
            "finish" => SpanKind::Finish,
            "abort" => SpanKind::Abort,
            _ => return None,
        })
    }
}

/// One span event on a sampled flow's timeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// Flow id.
    pub flow: u32,
    /// Event time (ps).
    pub t: u64,
    /// What happened.
    pub kind: SpanKind,
    /// Kind-specific detail (e.g. old layer).
    pub a: u32,
    /// Kind-specific detail (e.g. new layer).
    pub b: u32,
}

/// Per-(interval, shard) occupancy sample.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardSample {
    /// Interval index (`t / interval_ps`).
    pub iv: u64,
    /// Shard id.
    pub shard: u32,
    /// Events pending in the shard's queue at flush time.
    pub events: u64,
    /// Live packets in the shard's slab at flush time.
    pub live: u64,
    /// Slab capacity (slots) at flush time.
    pub cap: u64,
    /// Queue-depth histogram over the shard's output ports, bins
    /// `[0, 1, 2, ≤4, ≤8, ≤16, ≤32, >32]`.
    pub qhist: [u64; QBINS],
}

/// Wire bytes serialized onto one output port (directed link) during one
/// interval. Ports are owned by exactly one shard, so rows never need
/// cross-shard summing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkSample {
    /// Interval index.
    pub iv: u64,
    /// Global output-port id (a directed link).
    pub port: u32,
    /// Wire bytes serialized in the interval.
    pub bytes: u64,
}

/// Wire bytes carried by one routing layer during one interval (summed
/// across shards in canonical order).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LayerSample {
    /// Interval index.
    pub iv: u64,
    /// Layer id.
    pub layer: u32,
    /// Wire bytes serialized in the interval.
    pub bytes: u64,
}

/// Cross-shard mailbox traffic during one interval (driver-level).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MailboxSample {
    /// Interval index.
    pub iv: u64,
    /// Messages merged.
    pub msgs: u64,
    /// Payload bytes merged.
    pub bytes: u64,
}

/// One control-plane repair pass (mirrors the simulator's repair log).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RepairSample {
    /// Repair time (ps).
    pub at: u64,
    /// Routing rows touched.
    pub rows: u64,
    /// FIB rows rewritten (compiled schemes only).
    pub fib_rows: u64,
}

/// Run-level metadata, first line of every NDJSON trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct TraceMeta {
    /// Shard count of the run.
    pub shards: u32,
    /// Sampling interval (ps).
    pub interval_ps: u64,
    /// Span sampling rate (1-in-N, 0 = off).
    pub span_every: u32,
    /// Span sampling seed.
    pub seed: u64,
    /// Simulated end time (ps).
    pub end_time: u64,
    /// Number of routing layers (width of the per-layer series).
    pub n_layers: u32,
}

/// The shard-local collector. Owned by one shard, written only from that
/// shard's event execution; flushed at interval boundaries from the
/// serial driver section. Accumulators are dense arrays indexed by the
/// shard's **local** port index / layer id — writes are O(1) and
/// allocation-free after construction (the touched-port list grows to at
/// most the owned-port count and is reused across intervals). Exported
/// rows translate local indices back to global port ids through
/// `owned_ports`.
#[derive(Debug)]
pub struct ShardTelemetry {
    cfg: TelemetryConfig,
    shard: u32,
    /// Local port index → global port id (ascending: shards receive
    /// their ports in global-id order).
    owned_ports: Vec<u32>,
    /// Dense per-local-port byte accumulator for the current interval.
    link_bytes: Vec<u64>,
    /// Local indices with nonzero bytes this interval (sparse flush).
    touched: Vec<u32>,
    /// Dense per-layer byte accumulator for the current interval.
    layer_bytes: Vec<u64>,
    /// Per-sampled-flow "first X already recorded" bitmask.
    span_seen: HashMap<u32, u8>,
    /// Completed samples.
    shard_rows: Vec<ShardSample>,
    link_rows: Vec<LinkSample>,
    layer_rows: Vec<LayerSample>,
    spans: Vec<SpanEvent>,
}

impl ShardTelemetry {
    /// A collector for `shard` with `n_layers` routing layers.
    /// `owned_ports` maps the shard's local port indices to global port
    /// ids, in local-index order.
    pub fn new(cfg: TelemetryConfig, shard: u32, owned_ports: Vec<u32>, n_layers: usize) -> Self {
        let n_local = owned_ports.len();
        ShardTelemetry {
            cfg,
            shard,
            owned_ports,
            link_bytes: vec![0; n_local],
            touched: Vec::new(),
            layer_bytes: vec![0; n_layers.max(1)],
            span_seen: HashMap::new(),
            shard_rows: Vec::new(),
            link_rows: Vec::new(),
            layer_rows: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Records `bytes` serialized onto the shard's local port index
    /// `local` under `layer`.
    #[inline]
    pub fn on_wire(&mut self, local: u32, layer: u8, bytes: u32) {
        let slot = &mut self.link_bytes[local as usize];
        if *slot == 0 {
            self.touched.push(local);
        }
        *slot += bytes as u64;
        let l = (layer as usize).min(self.layer_bytes.len() - 1);
        self.layer_bytes[l] += bytes as u64;
    }

    /// True iff spans for `flow` are recorded (delegates to the config).
    #[inline]
    pub fn flow_sampled(&self, flow: u32) -> bool {
        self.cfg.flow_sampled(flow)
    }

    /// Appends a span event unconditionally (caller checks
    /// [`flow_sampled`](ShardTelemetry::flow_sampled)).
    #[inline]
    pub fn span(&mut self, flow: u32, t: u64, kind: SpanKind, a: u32, b: u32) {
        self.spans.push(SpanEvent {
            flow,
            t,
            kind,
            a,
            b,
        });
    }

    /// Appends a span event only the first time `kind` fires for `flow`
    /// (the "first trim / first retx / first data" events).
    #[inline]
    pub fn span_once(&mut self, flow: u32, t: u64, kind: SpanKind, a: u32, b: u32) {
        let bit = 1u8 << (kind as u8 & 7);
        let seen = self.span_seen.entry(flow).or_insert(0);
        if *seen & bit == 0 {
            *seen |= bit;
            self.spans.push(SpanEvent {
                flow,
                t,
                kind,
                a,
                b,
            });
        }
    }

    /// Closes interval `iv`: emits sparse link rows and per-layer rows
    /// from the accumulators, plus one occupancy sample. `depth_of`
    /// reports the current queue depth (packets) of a **local** port
    /// index.
    pub fn flush<F: Fn(u32) -> u32>(
        &mut self,
        iv: u64,
        depth_of: F,
        events: u64,
        live: u64,
        cap: u64,
    ) {
        // Canonical row order within the interval: ascending port id
        // (local index order == global order, `owned_ports` ascending).
        self.touched.sort_unstable();
        for &l in &self.touched {
            let bytes = std::mem::take(&mut self.link_bytes[l as usize]);
            let port = self.owned_ports[l as usize];
            self.link_rows.push(LinkSample { iv, port, bytes });
        }
        self.touched.clear();
        for (layer, slot) in self.layer_bytes.iter_mut().enumerate() {
            if *slot != 0 {
                self.layer_rows.push(LayerSample {
                    iv,
                    layer: layer as u32,
                    bytes: std::mem::take(slot),
                });
            }
        }
        let mut qhist = [0u64; QBINS];
        for l in 0..self.owned_ports.len() as u32 {
            qhist[qbin(depth_of(l))] += 1;
        }
        self.shard_rows.push(ShardSample {
            iv,
            shard: self.shard,
            events,
            live,
            cap,
            qhist,
        });
    }
}

/// A fully merged run trace: every probe series plus spans and the
/// repair timeline, in canonical order. Byte-identical NDJSON/CSV
/// exports across thread counts are the crate's contract (see the
/// module docs).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Trace {
    /// Run-level metadata.
    pub meta: TraceMeta,
    /// Per-(interval, shard) occupancy samples, sorted `(iv, shard)`.
    pub shard_rows: Vec<ShardSample>,
    /// Per-(interval, port) wire bytes, sorted `(iv, port)`.
    pub link_rows: Vec<LinkSample>,
    /// Per-(interval, layer) wire bytes, sorted `(iv, layer)`.
    pub layer_rows: Vec<LayerSample>,
    /// Per-interval mailbox traffic, ascending interval.
    pub mailbox_rows: Vec<MailboxSample>,
    /// Span events, sorted `(flow, t, kind, a, b)` (stable across the
    /// canonical shard concatenation).
    pub spans: Vec<SpanEvent>,
    /// Repair passes in execution order.
    pub repairs: Vec<RepairSample>,
}

impl Trace {
    /// Merges per-shard collectors (in canonical shard order) with the
    /// driver-level mailbox series and the repair log.
    pub fn assemble(
        meta: TraceMeta,
        collectors: Vec<ShardTelemetry>,
        mailbox_rows: Vec<MailboxSample>,
        repairs: Vec<RepairSample>,
    ) -> Trace {
        let mut shard_rows = Vec::new();
        let mut link_rows = Vec::new();
        let mut layers: BTreeMap<(u64, u32), u64> = BTreeMap::new();
        let mut spans = Vec::new();
        for c in collectors {
            shard_rows.extend(c.shard_rows);
            link_rows.extend(c.link_rows);
            for r in c.layer_rows {
                *layers.entry((r.iv, r.layer)).or_insert(0) += r.bytes;
            }
            spans.extend(c.spans);
        }
        shard_rows.sort_unstable_by_key(|r: &ShardSample| (r.iv, r.shard));
        link_rows.sort_unstable_by_key(|r: &LinkSample| (r.iv, r.port));
        // Stable over the shard-order concatenation: ties within one
        // flow at one instant keep canonical shard order.
        spans.sort_by_key(|s: &SpanEvent| (s.flow, s.t, s.kind, s.a, s.b));
        let layer_rows = layers
            .into_iter()
            .map(|((iv, layer), bytes)| LayerSample { iv, layer, bytes })
            .collect();
        Trace {
            meta,
            shard_rows,
            link_rows,
            layer_rows,
            mailbox_rows,
            spans,
            repairs,
        }
    }

    /// Serializes the trace as NDJSON: one `{"type": …}` object per
    /// line, meta first, then shard / layer / link / mailbox / span /
    /// repair rows in canonical order. Integer-only — the byte-identity
    /// contract needs no float formatting rules.
    pub fn to_ndjson(&self) -> String {
        let m = &self.meta;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"type\":\"meta\",\"shards\":{},\"interval_ps\":{},\"span_every\":{},\
             \"seed\":{},\"end_time\":{},\"n_layers\":{}}}",
            m.shards, m.interval_ps, m.span_every, m.seed, m.end_time, m.n_layers
        );
        for r in &self.shard_rows {
            let _ = write!(
                out,
                "{{\"type\":\"shard\",\"iv\":{},\"shard\":{},\"events\":{},\"live\":{},\
                 \"cap\":{},\"qhist\":[",
                r.iv, r.shard, r.events, r.live, r.cap
            );
            for (i, q) in r.qhist.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{q}");
            }
            out.push_str("]}\n");
        }
        for r in &self.layer_rows {
            let _ = writeln!(
                out,
                "{{\"type\":\"layer\",\"iv\":{},\"layer\":{},\"bytes\":{}}}",
                r.iv, r.layer, r.bytes
            );
        }
        for r in &self.link_rows {
            let _ = writeln!(
                out,
                "{{\"type\":\"link\",\"iv\":{},\"port\":{},\"bytes\":{}}}",
                r.iv, r.port, r.bytes
            );
        }
        for r in &self.mailbox_rows {
            let _ = writeln!(
                out,
                "{{\"type\":\"mailbox\",\"iv\":{},\"msgs\":{},\"bytes\":{}}}",
                r.iv, r.msgs, r.bytes
            );
        }
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"type\":\"span\",\"flow\":{},\"t\":{},\"kind\":\"{}\",\"a\":{},\"b\":{}}}",
                s.flow,
                s.t,
                s.kind.name(),
                s.a,
                s.b
            );
        }
        for r in &self.repairs {
            let _ = writeln!(
                out,
                "{{\"type\":\"repair\",\"at\":{},\"rows\":{},\"fib_rows\":{}}}",
                r.at, r.rows, r.fib_rows
            );
        }
        out
    }

    /// Serializes the per-interval aggregate time series as CSV:
    /// `interval,start_ps,wire_bytes,active_links,peak_link_bytes,`
    /// `live_packets,events,mailbox_msgs,mailbox_bytes` plus one
    /// `layer<i>_bytes` column per routing layer.
    pub fn to_timeseries_csv(&self) -> String {
        let nl = self.meta.n_layers.max(1) as usize;
        let mut out = String::from(
            "interval,start_ps,wire_bytes,active_links,peak_link_bytes,\
             live_packets,events,mailbox_msgs,mailbox_bytes",
        );
        for l in 0..nl {
            let _ = write!(out, ",layer{l}_bytes");
        }
        out.push('\n');
        // Interval index → aggregate row, in ascending interval order.
        #[derive(Default, Clone)]
        struct Row {
            wire: u64,
            links: u64,
            peak: u64,
            live: u64,
            events: u64,
            mb_msgs: u64,
            mb_bytes: u64,
            layers: Vec<u64>,
        }
        let mut rows: BTreeMap<u64, Row> = BTreeMap::new();
        fn row(rows: &mut BTreeMap<u64, Row>, iv: u64, nl: usize) -> &mut Row {
            rows.entry(iv).or_insert_with(|| Row {
                layers: vec![0; nl],
                ..Row::default()
            })
        }
        for r in &self.link_rows {
            let e = row(&mut rows, r.iv, nl);
            e.wire += r.bytes;
            e.links += 1;
            e.peak = e.peak.max(r.bytes);
        }
        for r in &self.layer_rows {
            let e = row(&mut rows, r.iv, nl);
            if (r.layer as usize) < nl {
                e.layers[r.layer as usize] += r.bytes;
            }
        }
        for r in &self.shard_rows {
            let e = row(&mut rows, r.iv, nl);
            e.live += r.live;
            e.events += r.events;
        }
        for r in &self.mailbox_rows {
            let e = row(&mut rows, r.iv, nl);
            e.mb_msgs += r.msgs;
            e.mb_bytes += r.bytes;
        }
        for (iv, r) in rows {
            let _ = write!(
                out,
                "{},{},{},{},{},{},{},{},{}",
                iv,
                iv * self.meta.interval_ps,
                r.wire,
                r.links,
                r.peak,
                r.live,
                r.events,
                r.mb_msgs,
                r.mb_bytes
            );
            for l in &r.layers {
                let _ = write!(out, ",{l}");
            }
            out.push('\n');
        }
        out
    }

    /// Parses a trace previously written by
    /// [`to_ndjson`](Trace::to_ndjson). The parser accepts exactly the
    /// layout this crate emits (no serde — the workspace builds
    /// offline); unknown record types are rejected.
    pub fn parse_ndjson(text: &str) -> Result<Trace, String> {
        let mut tr = Trace::default();
        let mut saw_meta = false;
        for (ln, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let err = |what: &str| format!("line {}: {what}", ln + 1);
            let ty = sfield(line, "type").ok_or_else(|| err("missing type"))?;
            match ty.as_str() {
                "meta" => {
                    tr.meta = TraceMeta {
                        shards: ufield(line, "shards").ok_or_else(|| err("meta.shards"))? as u32,
                        interval_ps: ufield(line, "interval_ps")
                            .ok_or_else(|| err("meta.interval_ps"))?,
                        span_every: ufield(line, "span_every")
                            .ok_or_else(|| err("meta.span_every"))?
                            as u32,
                        seed: ufield(line, "seed").ok_or_else(|| err("meta.seed"))?,
                        end_time: ufield(line, "end_time").ok_or_else(|| err("meta.end_time"))?,
                        n_layers: ufield(line, "n_layers").ok_or_else(|| err("meta.n_layers"))?
                            as u32,
                    };
                    saw_meta = true;
                }
                "shard" => {
                    let qs = alist(line, "qhist").ok_or_else(|| err("shard.qhist"))?;
                    if qs.len() != QBINS {
                        return Err(err("shard.qhist width"));
                    }
                    let mut qhist = [0u64; QBINS];
                    qhist.copy_from_slice(&qs);
                    tr.shard_rows.push(ShardSample {
                        iv: ufield(line, "iv").ok_or_else(|| err("shard.iv"))?,
                        shard: ufield(line, "shard").ok_or_else(|| err("shard.shard"))? as u32,
                        events: ufield(line, "events").ok_or_else(|| err("shard.events"))?,
                        live: ufield(line, "live").ok_or_else(|| err("shard.live"))?,
                        cap: ufield(line, "cap").ok_or_else(|| err("shard.cap"))?,
                        qhist,
                    });
                }
                "layer" => tr.layer_rows.push(LayerSample {
                    iv: ufield(line, "iv").ok_or_else(|| err("layer.iv"))?,
                    layer: ufield(line, "layer").ok_or_else(|| err("layer.layer"))? as u32,
                    bytes: ufield(line, "bytes").ok_or_else(|| err("layer.bytes"))?,
                }),
                "link" => tr.link_rows.push(LinkSample {
                    iv: ufield(line, "iv").ok_or_else(|| err("link.iv"))?,
                    port: ufield(line, "port").ok_or_else(|| err("link.port"))? as u32,
                    bytes: ufield(line, "bytes").ok_or_else(|| err("link.bytes"))?,
                }),
                "mailbox" => tr.mailbox_rows.push(MailboxSample {
                    iv: ufield(line, "iv").ok_or_else(|| err("mailbox.iv"))?,
                    msgs: ufield(line, "msgs").ok_or_else(|| err("mailbox.msgs"))?,
                    bytes: ufield(line, "bytes").ok_or_else(|| err("mailbox.bytes"))?,
                }),
                "span" => {
                    let kind = sfield(line, "kind")
                        .and_then(|k| SpanKind::from_name(&k))
                        .ok_or_else(|| err("span.kind"))?;
                    tr.spans.push(SpanEvent {
                        flow: ufield(line, "flow").ok_or_else(|| err("span.flow"))? as u32,
                        t: ufield(line, "t").ok_or_else(|| err("span.t"))?,
                        kind,
                        a: ufield(line, "a").ok_or_else(|| err("span.a"))? as u32,
                        b: ufield(line, "b").ok_or_else(|| err("span.b"))? as u32,
                    });
                }
                "repair" => tr.repairs.push(RepairSample {
                    at: ufield(line, "at").ok_or_else(|| err("repair.at"))?,
                    rows: ufield(line, "rows").ok_or_else(|| err("repair.rows"))?,
                    fib_rows: ufield(line, "fib_rows").ok_or_else(|| err("repair.fib_rows"))?,
                }),
                other => return Err(err(&format!("unknown record type {other:?}"))),
            }
        }
        if !saw_meta {
            return Err("no meta record".into());
        }
        Ok(tr)
    }

    /// Total wire bytes across all links and intervals.
    pub fn total_wire_bytes(&self) -> u64 {
        self.link_rows.iter().map(|r| r.bytes).sum()
    }

    /// Peak per-layer utilization across all intervals, in Gb/s
    /// (`bytes · 8 / interval`). Deterministic: one division of two
    /// canonical integers.
    pub fn peak_layer_gbps(&self) -> f64 {
        let peak = self.layer_rows.iter().map(|r| r.bytes).max().unwrap_or(0);
        if self.meta.interval_ps == 0 {
            return 0.0;
        }
        // bytes·8 bits / (interval_ps·1e-12 s) / 1e9 = bytes·8·1e3 / interval_ps.
        peak as f64 * 8_000.0 / self.meta.interval_ps as f64
    }

    /// Time from the last repair pass to network quiescence (the end of
    /// the last interval that carried wire bytes), in picoseconds; 0
    /// when the run had no repairs or no traffic after the last one.
    pub fn time_to_quiescence_ps(&self) -> u64 {
        let Some(last_repair) = self.repairs.iter().map(|r| r.at).max() else {
            return 0;
        };
        let last_active = self
            .link_rows
            .iter()
            .map(|r| (r.iv + 1) * self.meta.interval_ps)
            .max()
            .unwrap_or(0);
        last_active.saturating_sub(last_repair)
    }

    /// The `n` ports carrying the most total wire bytes, descending
    /// (ties by ascending port id).
    pub fn top_links(&self, n: usize) -> Vec<(u32, u64)> {
        let mut totals: BTreeMap<u32, u64> = BTreeMap::new();
        for r in &self.link_rows {
            *totals.entry(r.port).or_insert(0) += r.bytes;
        }
        let mut v: Vec<(u32, u64)> = totals.into_iter().collect();
        v.sort_by_key(|&(port, bytes)| (std::cmp::Reverse(bytes), port));
        v.truncate(n);
        v
    }
}

/// Extracts an unsigned integer field `"key":123` from one NDJSON line.
fn ufield(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let at = line.find(&pat)? + pat.len();
    let rest = &line[at..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extracts a string field `"key":"value"` from one NDJSON line.
fn sfield(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":\"");
    let at = line.find(&pat)? + pat.len();
    let rest = &line[at..];
    Some(rest[..rest.find('"')?].to_string())
}

/// Extracts an integer-array field `"key":[1,2,3]` from one NDJSON line.
fn alist(line: &str, key: &str) -> Option<Vec<u64>> {
    let pat = format!("\"{key}\":[");
    let at = line.find(&pat)? + pat.len();
    let rest = &line[at..];
    let body = &rest[..rest.find(']')?];
    if body.is_empty() {
        return Some(Vec::new());
    }
    body.split(',').map(|x| x.trim().parse().ok()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        let cfg = TelemetryConfig {
            enabled: true,
            interval_ps: 1_000,
            span_every: 1,
            seed: 7,
        };
        let mut a = ShardTelemetry::new(cfg, 0, vec![0, 1], 3);
        let mut b = ShardTelemetry::new(cfg, 1, vec![2, 3], 3);
        a.on_wire(0, 0, 100);
        a.on_wire(0, 0, 50);
        a.on_wire(1, 2, 10);
        // Local index 1 on shard 1 is global port 3.
        b.on_wire(1, 1, 999);
        a.span(5, 10, SpanKind::Inject, 0, 0);
        a.span_once(5, 12, SpanKind::FirstData, 0, 0);
        a.span_once(5, 13, SpanKind::FirstData, 0, 0); // suppressed
        b.span(5, 11, SpanKind::FirstTrim, 0, 0);
        a.flush(0, |_| 3, 7, 2, 16);
        b.flush(0, |_| 0, 1, 0, 16);
        Trace::assemble(
            TraceMeta {
                shards: 2,
                interval_ps: 1_000,
                span_every: 1,
                seed: 7,
                end_time: 2_000,
                n_layers: 3,
            },
            vec![a, b],
            vec![MailboxSample {
                iv: 0,
                msgs: 4,
                bytes: 256,
            }],
            vec![RepairSample {
                at: 500,
                rows: 3,
                fib_rows: 0,
            }],
        )
    }

    #[test]
    fn assemble_merges_in_canonical_order() {
        let tr = sample_trace();
        assert_eq!(tr.link_rows.len(), 3);
        assert_eq!(tr.link_rows[0].port, 0);
        assert_eq!(tr.link_rows[0].bytes, 150);
        assert_eq!(tr.layer_rows.len(), 3);
        // span_once suppressed the duplicate; sort is (flow, t, kind).
        assert_eq!(tr.spans.len(), 3);
        assert_eq!(tr.spans[0].kind, SpanKind::Inject);
        assert_eq!(tr.spans[1].kind, SpanKind::FirstTrim);
        assert_eq!(tr.spans[2].kind, SpanKind::FirstData);
    }

    #[test]
    fn ndjson_round_trips() {
        let tr = sample_trace();
        let text = tr.to_ndjson();
        let back = Trace::parse_ndjson(&text).expect("parse");
        assert_eq!(tr, back);
        // Serialization is deterministic byte-for-byte.
        assert_eq!(text, back.to_ndjson());
    }

    #[test]
    fn csv_has_one_row_per_interval_plus_header() {
        let tr = sample_trace();
        let csv = tr.to_timeseries_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("interval,start_ps,wire_bytes"));
        assert!(lines[0].ends_with("layer2_bytes"));
        // wire total = 150 + 10 + 999.
        assert!(lines[1].starts_with("0,0,1159,3,999,"));
    }

    #[test]
    fn flow_sampling_is_a_pure_function() {
        let cfg = TelemetryConfig {
            enabled: true,
            interval_ps: 1,
            span_every: 8,
            seed: 42,
        };
        let picked: Vec<u32> = (0..10_000).filter(|&f| cfg.flow_sampled(f)).collect();
        let again: Vec<u32> = (0..10_000).filter(|&f| cfg.flow_sampled(f)).collect();
        assert_eq!(picked, again);
        // Roughly 1-in-8 (hash quality, not exactness).
        assert!(
            picked.len() > 700 && picked.len() < 1_900,
            "{}",
            picked.len()
        );
        // span_every = 0 disables, 1 samples everything.
        let off = TelemetryConfig {
            span_every: 0,
            ..cfg
        };
        assert!(!(0..100).any(|f| off.flow_sampled(f)));
        let all = TelemetryConfig {
            span_every: 1,
            ..cfg
        };
        assert!((0..100).all(|f| all.flow_sampled(f)));
    }

    #[test]
    fn summaries() {
        let tr = sample_trace();
        assert_eq!(tr.total_wire_bytes(), 1159);
        assert_eq!(tr.top_links(2), vec![(3, 999), (0, 150)]);
        // Peak layer bytes = 999 in a 1000 ps interval.
        assert!((tr.peak_layer_gbps() - 999.0 * 8.0).abs() < 1e-9);
        // Last active interval ends at 1000 ps, last repair at 500 ps.
        assert_eq!(tr.time_to_quiescence_ps(), 500);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Trace::parse_ndjson("{\"type\":\"nope\"}").is_err());
        assert!(Trace::parse_ndjson("").is_err());
    }

    #[test]
    fn qbin_edges() {
        assert_eq!(qbin(0), 0);
        assert_eq!(qbin(1), 1);
        assert_eq!(qbin(2), 2);
        assert_eq!(qbin(4), 3);
        assert_eq!(qbin(5), 4);
        assert_eq!(qbin(33), 7);
    }
}
