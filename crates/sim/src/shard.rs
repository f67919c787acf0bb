//! The sharded execution core: per-region event queues, packet arenas,
//! and network state, synchronized by conservative lookahead.
//!
//! The topology's routers (and their endpoints) are partitioned into K
//! shards ([`partition_routers`]: whole `Topology::domains` where they
//! cover the network, a BFS-balanced split otherwise). Each [`Shard`]
//! owns the output ports, flow halves, and event queue for its region
//! and runs windows of `[t0, t0 + L)` where the lookahead `L` is the
//! minimum cross-shard link latency (links are homogeneous, so `L =
//! SimConfig::link_latency`): every packet handoff takes at least
//! serialization + latency ≥ L, so events a shard processes inside a
//! window cannot be affected by any other shard's events in the same
//! window. Cross-shard packets go through per-shard-pair mailboxes
//! ([`deliver_mailboxes`]) merged deterministically by `(time,
//! src_shard, seq)` — never by arrival order — and the queues order
//! equal-time events by canonical content keys (see `crate::engine`),
//! so results are bit-identical at any shard and thread count.
//!
//! Every per-object queue of a shard is a [`Fifo`] through one of its
//! two [`Slab`]s: a port's data and priority queues through the packet
//! slab (`Shard::packets`), pull credits and retransmissions through
//! one `Slab<u32>` (`Shard::pending`).
//!
//! Flow state is split by side so no hot-path read ever crosses a
//! shard: [`FlowMeta`] (immutable) is shared read-only, [`TxFlow`]
//! lives on the sender's shard, [`RxFlow`] on the receiver's. Fault
//! state (down links, dead routers, repair overlay) is *shared, not
//! replicated*: every fault event derives statically from the
//! `FaultPlan`, so a single writer (`crate::faults::FaultWriter`)
//! replays the plan once before the run and publishes a timeline of
//! immutable [`FaultEpoch`]s, each stamped with the time it takes
//! effect. A shard's queue holds traffic only: before it dispatches an
//! event at `t`, [`Shard::run_window`] moves the shard's cursor
//! `Shard::fault_epoch` past every epoch taking effect at or before
//! `t`, and every hot-path read goes through the shared snapshot
//! `cx.faults.epochs[fault_epoch]`. One copy of the fault state
//! regardless of K, zero synchronization.

use crate::config::{AdaptiveMode, LoadBalancing, SimConfig, Transport, HDR_BYTES};
use crate::engine::{
    grow_step, least_loaded, EvKind, EventQueue, Fifo, Packet, PktKind, Slab, TimePs,
};
use crate::faults::{FaultEpoch, FaultTimeline};
use crate::metrics::EventCounts;
use fatpaths_core::fwd::fnv1a;
use fatpaths_core::scheme::{PortSet, RoutingScheme};
use fatpaths_net::topo::Topology;
use fatpaths_telemetry::{ShardTelemetry, SpanKind};
use fatpaths_workloads::arrivals::FlowSpec;
use std::collections::VecDeque;

/// An output port: serializer + queues, owned by exactly one shard.
///
/// The data and priority queues are [`Fifo`]s through the owning
/// shard's packet [`Slab`], not heap-allocated deques: at fat-tree
/// scale the port array is hundreds of thousands of entries, and
/// per-port deque buffers were the single largest static *and*
/// transient allocation of a run.
///
/// The serializer is a time, not a flag: it runs until `free_at`. A
/// serializer turn (`EvKind::PortPop`) is scheduled only while a
/// packet waits behind a running transmission, so a port's queues are
/// non-empty exactly while one turn for it is pending, at `free_at`.
pub(crate) struct Port {
    /// Far-end id (bits 0..30) and `to_is_router` (bit 30; bit 31 is
    /// unused) — packed because the port array is the largest static
    /// allocation and ids stay far below 2³⁰.
    to_flags: u32,
    data: Fifo,
    prio: Fifo,
    /// Queue depths. `u16` is ample: data queues are policy-capped at
    /// the transport's `queue_pkts` (≤ 100), priority queues at 1024
    /// (`push_prio_bounded`), and NIC queues are window-bounded. The
    /// increments are checked all the same — a wrap would corrupt the
    /// queue policy silently.
    pub data_len: u16,
    pub prio_len: u16,
    /// When the serializer frees: the port is busy while `now < free_at`.
    free_at: TimePs,
}
const _: () = assert!(std::mem::size_of::<Port>() == 32);

const PORT_TO_ROUTER: u32 = 1 << 30;
const QUEUE_LEN_OVERFLOW: &str = "port queue holds more than u16::MAX packets";

impl Port {
    pub(crate) fn new(to_is_router: bool, to: u32) -> Self {
        debug_assert!(to < PORT_TO_ROUTER);
        Port {
            to_flags: to | if to_is_router { PORT_TO_ROUTER } else { 0 },
            data: Fifo::default(),
            prio: Fifo::default(),
            data_len: 0,
            prio_len: 0,
            free_at: 0,
        }
    }

    /// Far-end id.
    #[inline]
    pub(crate) fn to(&self) -> u32 {
        self.to_flags & (PORT_TO_ROUTER - 1)
    }

    /// Whether the far end is a router (vs. an endpoint NIC).
    #[inline]
    pub(crate) fn to_is_router(&self) -> bool {
        self.to_flags & PORT_TO_ROUTER != 0
    }

    /// Queue depth: data plus priority packets.
    #[inline]
    pub(crate) fn depth(&self) -> u32 {
        self.data_len as u32 + self.prio_len as u32
    }

    /// Queues `pid` on the data (`data = true`) or priority FIFO and
    /// counts it: at the head when `front` (retransmissions jump the
    /// data queue), else at the tail.
    pub(crate) fn enqueue(&mut self, slab: &mut Slab<Packet>, data: bool, front: bool, pid: u32) {
        let (q, len) = if data {
            (&mut self.data, &mut self.data_len)
        } else {
            (&mut self.prio, &mut self.prio_len)
        };
        if front {
            q.push_front(slab, pid);
        } else {
            q.push_back(slab, pid);
        }
        *len = len.checked_add(1).expect(QUEUE_LEN_OVERFLOW);
    }

    /// Unlinks the next packet to serialize: priority before data.
    pub(crate) fn dequeue(&mut self, slab: &Slab<Packet>) -> Option<u32> {
        if let Some(pid) = self.prio.pop_front(slab) {
            self.prio_len -= 1;
            return Some(pid);
        }
        let pid = self.data.pop_front(slab)?;
        self.data_len -= 1;
        Some(pid)
    }
}

/// Where a sharded object lives: which shard (high byte) and at which
/// local index (low 24 bits). Four of these maps cover every flow and
/// every port, so the packing matters: 8 → 4 bytes halves several MB of
/// always-resident lookup tables at the 119k-endpoint scale.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SlotRef(u32);
const _: () = assert!(std::mem::size_of::<SlotRef>() == 4);

impl SlotRef {
    const IDX_BITS: u32 = 24;

    pub fn new(shard: u32, idx: u32) -> Self {
        let fits = shard < 1 << (32 - Self::IDX_BITS) && idx < 1 << Self::IDX_BITS;
        assert!(fits, "slot {shard}/{idx} is beyond the 24-bit index limit");
        SlotRef(shard << Self::IDX_BITS | idx)
    }

    #[inline]
    pub fn shard(self) -> u32 {
        self.0 >> Self::IDX_BITS
    }

    #[inline]
    pub fn idx(self) -> u32 {
        self.0 & ((1 << Self::IDX_BITS) - 1)
    }
}

/// Immutable per-flow facts, shared read-only by every shard. The
/// attachment routers are *not* stored — `Ctx::ep_router` derives them
/// from the endpoint ids on the rare paths that need them — because
/// this table is resident for the whole run at one entry per flow.
pub(crate) struct FlowMeta {
    pub src_ep: u32,
    pub dst_ep: u32,
    pub size: u64,
    pub start: TimePs,
    pub num_pkts: u32,
    /// MPTCP subflow: layer is pinned, never re-picked.
    pub pinned_layer: Option<u8>,
    /// Congestion-avoidance increase factor (LIA coupling: 1/k).
    pub ca_scale: f64,
    pub init_nonce: u64,
    pub init_layer: u8,
}

impl FlowMeta {
    pub(crate) fn new(
        spec: &FlowSpec,
        payload: u32,
        init_nonce: u64,
        init_layer: u8,
        pinned_layer: Option<u8>,
        ca_scale: f64,
    ) -> Self {
        FlowMeta {
            src_ep: spec.src,
            dst_ep: spec.dst,
            size: spec.size,
            start: spec.start,
            num_pkts: spec.size.div_ceil(payload as u64).max(1) as u32,
            pinned_layer,
            ca_scale,
            init_nonce,
            init_layer,
        }
    }

    pub(crate) fn payload_of(&self, seq: u32, payload: u32) -> u32 {
        if seq + 1 == self.num_pkts {
            (self.size - (self.num_pkts as u64 - 1) * payload as u64) as u32
        } else {
            payload
        }
    }
}

/// A per-sequence bitmap that stays allocation-free for flows of ≤ 64
/// packets — the common case at scale, where a 16 KiB flow is a
/// handful of MTUs — spilling to the heap only for larger transfers.
#[derive(Debug, Default)]
pub(crate) struct SeqBits {
    inline: u64,
    /// Boxed, not a `Vec`: the word count is fixed at flow creation, so
    /// the slice never grows and the thinner header is worth 8 bytes on
    /// every flow half.
    spill: Box<[u64]>,
}

impl SeqBits {
    pub(crate) fn new(bits: u32) -> Self {
        SeqBits {
            inline: 0,
            spill: if bits <= 64 {
                Box::default()
            } else {
                vec![0u64; bits.div_ceil(64) as usize].into_boxed_slice()
            },
        }
    }

    #[inline]
    pub(crate) fn test(&self, i: u32) -> bool {
        if self.spill.is_empty() {
            debug_assert!(i < 64);
            self.inline >> i & 1 == 1
        } else {
            self.spill[(i / 64) as usize] >> (i % 64) & 1 == 1
        }
    }

    /// Sets bit `i`; returns whether it was previously clear.
    #[inline]
    pub(crate) fn set(&mut self, i: u32) -> bool {
        let w = if self.spill.is_empty() {
            debug_assert!(i < 64);
            &mut self.inline
        } else {
            &mut self.spill[(i / 64) as usize]
        };
        let bit = 1u64 << (i % 64);
        if *w & bit != 0 {
            return false;
        }
        *w |= bit;
        true
    }

    /// Capacity in bits (an upper bound on valid indices).
    #[inline]
    pub(crate) fn bits(&self) -> u32 {
        if self.spill.is_empty() {
            64
        } else {
            (self.spill.len() * 64) as u32
        }
    }
}

/// [`TxFlow::rto_event_at`] when the flow has no `RtoTimer` queued.
const NO_RTO_EVENT: TimePs = TimePs::MAX;

/// Sender-side flow state, owned by the source router's shard.
///
/// TCP congestion state lives in the parallel [`TcpState`] array
/// (`Shard::tcp`), populated only when the run's transport is TCP, so
/// NDP runs at endpoint scale do not carry ~100 bytes of dead
/// congestion fields per flow.
pub(crate) struct TxFlow {
    pub started: bool,
    pub next_new: u32,
    /// Pending retransmissions: sequence numbers in `Shard::pending`.
    pub retxq: Fifo,
    pub cum_ack: u32,
    /// Per-sequence ack bitmap (NDP): the sender's own view of what the
    /// receiver holds — replaces the pre-shard read of the receiver's
    /// `received` bitmap, which may live on another shard.
    pub acked: SeqBits,
    pub acked_count: u32,
    // load balancing
    pub layer: u8,
    pub nonce: u64,
    pub last_tx: TimePs,
    pub flowlet_ctr: u32,
    /// Transmission counter feeding the packet uid (`Packet::salt`).
    pub uid_ctr: u32,
    // counters
    pub retx_count: u32,
    /// Deadline of the one lazy timer behind retransmission, both
    /// transports': progress moves it without touching the event queue,
    /// and a timer event firing before it re-queues at the deadline
    /// ([`Shard::arm_rto`], `Shard::on_rto`). One live `RtoTimer` event
    /// per flow instead of one per ack — at 100k+ flows the difference
    /// is tens of MB of event-heap high-water.
    pub rto_deadline: TimePs,
    /// Time of this flow's queued `RtoTimer` event, or [`NO_RTO_EVENT`].
    /// An event firing at any other time was superseded.
    pub rto_event_at: TimePs,
    /// The flow was never injected: its source or destination host sat
    /// behind a dead router at start time.
    pub host_dead: bool,
    /// RTOs burned while an endpoint was dead (only tracked when
    /// `SimConfig::abort_on_host_death` is set).
    pub dead_rtos: u32,
    /// Aborted mid-transfer (dead-RTO budget exhausted): terminal.
    pub aborted: bool,
}
const _: () = assert!(std::mem::size_of::<TxFlow>() == 96);

impl TxFlow {
    pub(crate) fn new(m: &FlowMeta) -> Self {
        TxFlow {
            started: false,
            next_new: 0,
            retxq: Fifo::default(),
            cum_ack: 0,
            acked: SeqBits::new(m.num_pkts),
            acked_count: 0,
            layer: m.init_layer,
            nonce: m.init_nonce,
            last_tx: 0,
            flowlet_ctr: 0,
            uid_ctr: 0,
            retx_count: 0,
            rto_deadline: 0,
            rto_event_at: NO_RTO_EVENT,
            host_dead: false,
            dead_rtos: 0,
            aborted: false,
        }
    }

    /// Records a per-sequence ack; returns whether it was new.
    pub(crate) fn mark_acked(&mut self, seq: u32) -> bool {
        if !self.acked.set(seq) {
            return false;
        }
        self.acked_count += 1;
        true
    }

    pub(crate) fn is_acked(&self, seq: u32) -> bool {
        self.acked.test(seq)
    }

    /// The next sequence to transmit, `(seq, retx)`: pending
    /// retransmissions (held in `pending`) first, then new data while
    /// any of the flow's `num_pkts` remain unsent.
    pub(crate) fn next_seq(
        &mut self,
        pending: &mut Slab<u32>,
        num_pkts: u32,
    ) -> Option<(u32, bool)> {
        if let Some(id) = self.retxq.pop_front(pending) {
            Some((pending.release(id), true))
        } else if self.next_new < num_pkts {
            self.next_new += 1;
            Some((self.next_new - 1, false))
        } else {
            None
        }
    }
}

/// TCP congestion/RTT state, parallel to [`TxFlow`] by local index.
/// Allocated only for TCP transports — NDP's receiver-driven pull loop
/// uses none of it.
pub(crate) struct TcpState {
    pub cwnd: f64,
    pub ssthresh: f64,
    pub srtt: f64,
    pub rttvar: f64,
    pub inflight: u32,
    pub dup_acks: u32,
    pub in_recovery: bool,
    pub recovery_until: u32,
    pub timed: Option<(u32, TimePs)>,
    pub backoff: u32,
    // ECN / DCTCP
    pub ce_marked: u32,
    pub ce_total: u32,
    pub alpha: f64,
    pub window_end: u32,
    pub cwr: bool,
    /// A window reduction requested a path switch; applied once the
    /// pipe is nearly empty (reorder-safe) or at a flowlet gap.
    pub want_switch: bool,
}

impl TcpState {
    pub(crate) fn new() -> Self {
        TcpState {
            cwnd: 4.0,
            ssthresh: 1e9,
            srtt: 0.0,
            rttvar: 0.0,
            inflight: 0,
            dup_acks: 0,
            in_recovery: false,
            recovery_until: 0,
            timed: None,
            backoff: 0,
            ce_marked: 0,
            ce_total: 0,
            alpha: 0.0,
            window_end: 0,
            cwr: false,
            want_switch: false,
        }
    }
}

/// Receiver-side flow state, owned by the destination router's shard.
pub(crate) struct RxFlow {
    pub received: SeqBits,
    pub rcv_count: u32,
    pub rcv_next: u32,
    /// Completion time, `TimePs::MAX` while in flight (a packed
    /// `Option`: no transfer can complete at the end of time, and the
    /// niche-less `Option<u64>` doubled the field).
    finished: TimePs,
    pub trims: u32,
    pub rx_suggest: u8,
    /// Layer the receiver last saw data on; control packets ride it
    /// back (a layer the forward direction proved alive).
    pub rx_last_layer: u8,
    /// Nonce of the last data packet seen: control packets echo it so
    /// LetFlow hashing of the reverse path tracks the sender's flowlet
    /// without a cross-shard read of the live sender nonce.
    pub last_nonce: u64,
    /// Receiver-side transmission counter feeding control-packet uids.
    pub uid_ctr: u32,
}

impl RxFlow {
    #[inline]
    pub(crate) fn is_finished(&self) -> bool {
        self.finished != TimePs::MAX
    }

    /// Completion time as the `Option` the public records expose.
    #[inline]
    pub(crate) fn finish_time(&self) -> Option<TimePs> {
        self.is_finished().then_some(self.finished)
    }

    pub(crate) fn new(m: &FlowMeta) -> Self {
        RxFlow {
            received: SeqBits::new(m.num_pkts),
            rcv_count: 0,
            rcv_next: 0,
            finished: TimePs::MAX,
            trims: 0,
            rx_suggest: 0xff,
            rx_last_layer: 0,
            last_nonce: m.init_nonce,
            uid_ctr: 0,
        }
    }

    pub(crate) fn mark_received(&mut self, seq: u32) -> bool {
        if !self.received.set(seq) {
            return false;
        }
        self.rcv_count += 1;
        while self.rcv_next < self.received.bits() && self.received.test(self.rcv_next) {
            self.rcv_next += 1;
        }
        true
    }
}

/// A boundary packet in a per-shard-pair mailbox: 40 bytes, not 48 —
/// the arrival time is a `u32` ps offset from the sender's window base
/// (a boundary hop lands at most one window + serialization + latency
/// past it; `Simulator::new` rejects link latencies for which that
/// overflows, ≈ 2.1 ms) and the router/endpoint discriminator rides the
/// high bit of the far-end id.
pub(crate) struct OutMsg {
    dt: u32,
    to_flags: u32,
    pub pkt: Packet,
}
const _: () = assert!(std::mem::size_of::<OutMsg>() == 40);

impl OutMsg {
    pub(crate) fn new(at: TimePs, base: TimePs, to: u32, to_is_router: bool, pkt: Packet) -> Self {
        debug_assert!(at >= base && at - base <= u32::MAX as u64);
        debug_assert!(to < PORT_TO_ROUTER);
        OutMsg {
            dt: (at - base) as u32,
            to_flags: to | if to_is_router { PORT_TO_ROUTER } else { 0 },
            pkt,
        }
    }

    #[inline]
    pub(crate) fn at(&self, base: TimePs) -> TimePs {
        base + self.dt as TimePs
    }

    #[inline]
    pub(crate) fn to(&self) -> u32 {
        self.to_flags & (PORT_TO_ROUTER - 1)
    }

    #[inline]
    pub(crate) fn to_is_router(&self) -> bool {
        self.to_flags & PORT_TO_ROUTER != 0
    }
}

/// Read-only context shared by every shard during a run: topology,
/// scheme, config, flow metadata, the global→local index maps, and the
/// pre-computed fault timeline. `Sync` by construction (all shared
/// references; `RoutingScheme` requires `Sync`), so one `&Ctx` is
/// captured by all shard workers.
pub(crate) struct Ctx<'a, R: ?Sized> {
    pub topo: &'a Topology,
    pub scheme: &'a R,
    pub cfg: SimConfig,
    pub meta: &'a [FlowMeta],
    pub tx_home: &'a [SlotRef],
    pub rx_home: &'a [SlotRef],
    /// Global first-port id of each router's net ports.
    pub net_base: &'a [u32],
    /// Global first-port id of each router's endpoint down-ports.
    pub down_base: &'a [u32],
    /// Global first-port id of the endpoint NIC up-ports.
    pub up_base: u32,
    /// Global port id → owning shard + local index.
    pub port_home: &'a [SlotRef],
    /// Endpoint id → owning shard + local pull-queue index.
    pub ep_home: &'a [SlotRef],
    /// Endpoint id → attached router: the packet no longer carries its
    /// destination router (32-byte packing), so routing derives it from
    /// `dst_ep` through this flat map (the topology's own lookup is a
    /// binary search — too slow for a per-hop read).
    pub ep_router: &'a [u32],
    /// Router id → owning shard.
    pub router_shard: &'a [u32],
    /// Cached `scheme.num_layers()`.
    pub n_layers: usize,
    /// The shared fault timeline: one immutable epoch per fault event or
    /// repair pass, indexed by each shard's `fault_epoch` cursor.
    pub faults: &'a FaultTimeline,
}

impl<R: ?Sized> Ctx<'_, R> {
    #[inline]
    pub(crate) fn meta(&self, flow: u32) -> &FlowMeta {
        &self.meta[flow as usize]
    }

    #[inline]
    pub(crate) fn tx_idx(&self, flow: u32) -> usize {
        self.tx_home[flow as usize].idx() as usize
    }

    #[inline]
    pub(crate) fn rx_idx(&self, flow: u32) -> usize {
        self.rx_home[flow as usize].idx() as usize
    }

    #[inline]
    pub(crate) fn port_idx(&self, port: u32) -> usize {
        self.port_home[port as usize].idx() as usize
    }

    #[inline]
    pub(crate) fn ep_idx(&self, ep: u32) -> usize {
        self.ep_home[ep as usize].idx() as usize
    }

    /// The router a packet is headed for (derived, see
    /// [`Ctx::ep_router`]).
    #[inline]
    pub(crate) fn dst_router_of(&self, p: &Packet) -> u32 {
        self.ep_router[p.dst_ep as usize]
    }
}

/// One region's simulation state: event queue, packet arena, ports,
/// flow halves, and an epoch cursor into the shared fault timeline.
pub(crate) struct Shard {
    pub id: u32,
    pub now: TimePs,
    /// Start of the window currently executing: the base outgoing
    /// mailbox messages encode their arrival-time deltas against.
    pub window_base: TimePs,
    /// Time of the last event this shard processed (for `end_time`).
    pub last_t: TimePs,
    pub events: EventQueue,
    pub packets: Slab<Packet>,
    /// This shard's output ports, in global-id order.
    pub ports: Vec<Port>,
    /// Sender-side flow halves owned here.
    pub tx: Vec<TxFlow>,
    /// TCP congestion state, parallel to `tx` (empty for NDP runs).
    pub tcp: Vec<TcpState>,
    /// Receiver-side flow halves owned here.
    pub rx: Vec<RxFlow>,
    /// Queued pull credits (flow ids, in `pulls`) and retransmissions
    /// (sequence numbers, in `TxFlow::retxq`).
    pub pending: Slab<u32>,
    /// NDP receiver pull-credit queues, for endpoints owned here.
    pub pulls: Vec<Fifo>,
    pub pull_ready: Vec<TimePs>,
    // counters
    pub drops: u64,
    pub trim_count: u64,
    pub unroutable: u64,
    pub host_dead: u64,
    /// Events dispatched, per class: the run's work count.
    pub dispatched: EventCounts,
    /// Flows resolved this window (completed, aborted, or host-dead);
    /// drained by the driver into its global termination bitset.
    pub resolved: Vec<u32>,
    /// Outgoing boundary packets, one mailbox per destination shard.
    pub outbox: Vec<Vec<OutMsg>>,
    /// Reusable scratch indices (RTO missing-sequence collection).
    pub scratch: Vec<u32>,
    /// Reusable scratch queue-depth snapshot for adaptive flowlet
    /// decisions. Separate from `scratch`: an NDP RTO holds `scratch`
    /// across its `send_data` calls, and the first of those can itself
    /// hit a flowlet boundary.
    pub depth_scratch: Vec<u32>,
    /// Index into `Ctx::faults.epochs`: the latest epoch in force at
    /// `now`. Window boundaries are global, so between windows every
    /// shard's cursor is at the same epoch.
    pub fault_epoch: u32,
    /// Shard-local telemetry collector (`None` when telemetry is off —
    /// every hook is then a single pointer-null check). Installed by the
    /// driver before the run, flushed at interval boundaries in the
    /// serial driver section, harvested after the loop. Writes are
    /// strictly shard-local, so the determinism contract extends to the
    /// collected series.
    pub tel: Option<Box<ShardTelemetry>>,
}

/// The candidate-port row router `r` forwards `(layer, dst_router)` on:
/// a repaired row (installed one detection delay after link-state
/// changes) shadows the scheme's original tables. `scheme_row` is the
/// caller's scratch — it owns the row when the scheme supplies it, so
/// the returned slice can outlive this call.
#[inline]
fn resolve_row<'a, R: RoutingScheme + ?Sized>(
    fe: &'a FaultEpoch,
    scheme: &R,
    layer: u8,
    r: u32,
    dst_router: u32,
    scheme_row: &'a mut Option<PortSet>,
) -> &'a [u16] {
    if !fe.repair.is_empty() {
        if let Some(e) = fe.repair.lookup(layer, r, dst_router) {
            return e;
        }
    }
    scheme_row
        .insert(scheme.candidate_ports(layer, r, dst_router))
        .as_slice()
}

/// The per-hop flow-hash pick: which of `len` candidates router `r`
/// takes for a packet carrying `nonce`.
#[inline]
fn nonce_pick(nonce: u64, r: u32, len: usize) -> usize {
    (fnv1a(nonce ^ ((r as u64) << 20)) % len as u64) as usize
}

impl Shard {
    pub(crate) fn new(id: u32, n_shards: usize) -> Self {
        Shard {
            id,
            now: 0,
            window_base: 0,
            last_t: 0,
            events: EventQueue::default(),
            packets: Slab::default(),
            ports: Vec::new(),
            tx: Vec::new(),
            tcp: Vec::new(),
            rx: Vec::new(),
            pending: Slab::default(),
            pulls: Vec::new(),
            pull_ready: Vec::new(),
            drops: 0,
            trim_count: 0,
            unroutable: 0,
            host_dead: 0,
            dispatched: EventCounts::default(),
            resolved: Vec::new(),
            outbox: (0..n_shards).map(|_| Vec::new()).collect(),
            scratch: Vec::new(),
            depth_scratch: Vec::new(),
            fault_epoch: 0,
            tel: None,
        }
    }

    /// Records a span event for `flow` if telemetry is on and the flow
    /// is sampled — the one-branch disabled path every span site shares.
    #[inline]
    pub(crate) fn span(&mut self, flow: u32, kind: SpanKind, a: u32, b: u32) {
        if let Some(tel) = self.tel.as_deref_mut() {
            if tel.flow_sampled(flow) {
                tel.span(flow, self.now, kind, a, b);
            }
        }
    }

    /// Like [`Shard::span`] but deduplicated per `(flow, kind)` — the
    /// "first data / first trim / first retx" events.
    #[inline]
    pub(crate) fn span_once(&mut self, flow: u32, kind: SpanKind, a: u32, b: u32) {
        if let Some(tel) = self.tel.as_deref_mut() {
            if tel.flow_sampled(flow) {
                tel.span_once(flow, self.now, kind, a, b);
            }
        }
    }

    /// Drops the run-time arenas — event queue, slabs, ports,
    /// mailboxes, pull queues — while keeping the flow halves and
    /// counters the driver reads during result assembly. Called once
    /// the event loop finishes so the per-flow record vector is not
    /// stacked on top of tens of MB of dead arena capacity (the
    /// process high-water mark would record the sum).
    pub(crate) fn release_arenas(&mut self) {
        self.events = EventQueue::default();
        self.packets = Slab::default();
        self.ports = Vec::new();
        self.tcp = Vec::new();
        self.pending = Slab::default();
        self.pulls = Vec::new();
        self.pull_ready = Vec::new();
        self.resolved = Vec::new();
        self.outbox = Vec::new();
        self.scratch = Vec::new();
        self.depth_scratch = Vec::new();
    }

    /// The fault snapshot this shard currently sees: immutable, shared
    /// by every shard at the same cursor position.
    #[inline]
    pub(crate) fn faults<'c, R: ?Sized>(&self, cx: &Ctx<'c, R>) -> &'c FaultEpoch {
        &cx.faults.epochs[self.fault_epoch as usize]
    }

    /// Runs this shard's events in `[peek, w_end)`, stopping at the
    /// horizon. Window boundaries are exclusive so every shard agrees on
    /// which events belong to which window. Fault epochs taking effect
    /// in the window are passed in time order, each before any event at
    /// its instant; the ones after the window's last event count as
    /// executed there (`last_t`), as they do for every shard.
    pub(crate) fn run_window<R: RoutingScheme + ?Sized>(
        &mut self,
        cx: &Ctx<R>,
        w_end: TimePs,
        horizon: TimePs,
    ) {
        let mut next_fault = cx.faults.next_at(self.fault_epoch).unwrap_or(TimePs::MAX);
        while let Some(t) = self.events.peek_time() {
            if t >= w_end || (horizon > 0 && t > horizon) {
                break;
            }
            if t >= next_fault {
                next_fault = self.advance_faults(cx.faults, t);
            }
            let (t, ev) = self.events.pop().expect("peeked");
            self.now = t;
            self.last_t = t;
            self.dispatch(cx, ev);
        }
        if next_fault < w_end {
            self.advance_faults(cx.faults, w_end - 1);
            self.last_t = cx.faults.epochs[self.fault_epoch as usize].at;
        }
    }

    /// Moves the fault cursor past every epoch taking effect at or
    /// before `t`; returns when the next one does (`TimePs::MAX`: never).
    fn advance_faults(&mut self, tl: &FaultTimeline, t: TimePs) -> TimePs {
        while let Some(at) = tl.next_at(self.fault_epoch) {
            if at > t {
                return at;
            }
            self.fault_epoch += 1;
        }
        TimePs::MAX
    }

    pub(crate) fn dispatch<R: RoutingScheme + ?Sized>(&mut self, cx: &Ctx<R>, ev: EvKind) {
        let n = &mut self.dispatched;
        match ev {
            EvKind::FlowStart { flow } => {
                n.flow_starts += 1;
                self.on_flow_start(cx, flow);
            }
            EvKind::PortPop { port } => {
                n.serializer_turns += 1;
                debug_assert_eq!(cx.port_home[port as usize].shard(), self.id);
                let q = &mut self.ports[cx.port_idx(port)];
                debug_assert!(
                    self.now >= q.free_at && q.depth() > 0,
                    "a serializer turn needs a free serializer and a waiting packet"
                );
                let pid = q.dequeue(&self.packets).expect("a packet waits");
                self.port_start(cx, port, pid);
            }
            EvKind::ArriveRouter { pkt, router } => {
                n.router_arrivals += 1;
                self.on_router_arrive(cx, router, pkt);
            }
            EvKind::ArriveEndpoint { pkt, ep } => {
                n.endpoint_arrivals += 1;
                self.on_endpoint_arrive(cx, ep, pkt);
            }
            EvKind::PullTick { ep } => {
                n.pull_ticks += 1;
                self.ndp_pull_tick(cx, ep);
            }
            EvKind::RtoTimer { flow } => {
                n.timers += 1;
                self.on_rto(cx, flow);
            }
        }
    }

    fn on_flow_start<R: RoutingScheme + ?Sized>(&mut self, cx: &Ctx<R>, flow: u32) {
        let fe = self.faults(cx);
        if fe.dead_router_count != 0 {
            let m = cx.meta(flow);
            if fe.router_is_dead(cx.ep_router[m.src_ep as usize])
                || fe.router_is_dead(cx.ep_router[m.dst_ep as usize])
            {
                // Workload filtering for whole-node failures: a flow
                // whose host is dead at start time is excluded and
                // accounted `host_dead` — it is not the network's
                // failure to deliver (`unroutable`), the host itself is
                // gone.
                self.tx[cx.tx_idx(flow)].host_dead = true;
                self.host_dead += 1;
                self.resolved.push(flow);
                self.span(flow, SpanKind::Abort, 0, 0);
                return;
            }
        }
        self.tx[cx.tx_idx(flow)].started = true;
        self.span(flow, SpanKind::Inject, 0, 0);
        match cx.cfg.transport {
            Transport::Ndp { initial_window, .. } => self.ndp_start(cx, flow, initial_window),
            Transport::Tcp { .. } => self.tcp_start(cx, flow),
        }
    }

    // ---- link layer -----------------------------------------------------

    /// Enqueues a packet at a router output port, applying the queue
    /// policy (trim / drop / mark). `port` is a global id owned here. A
    /// dropped packet schedules nothing.
    pub(crate) fn router_enqueue<R: RoutingScheme + ?Sized>(
        &mut self,
        cx: &Ctx<R>,
        port: u32,
        pid: u32,
    ) {
        match cx.cfg.transport {
            Transport::Ndp { queue_pkts, .. } => {
                let (is_data, is_retx) = {
                    let p = self.packets.get(pid);
                    (p.kind() == PktKind::Data && !p.trimmed(), p.retx())
                };
                let li = cx.port_idx(port);
                if is_data {
                    if (self.ports[li].data_len as u32) < queue_pkts {
                        // Retransmissions jump the data queue (they unblock
                        // stalled receivers, §III-C) but still count against
                        // the shallow limit — a payload is a payload.
                        self.port_enqueue(cx, port, true, is_retx, pid);
                    } else {
                        // Trim: drop payload, keep the header, prioritize.
                        let p = self.packets.get_mut(pid);
                        p.set_trimmed();
                        p.wire_bytes = HDR_BYTES;
                        self.trim_count += 1;
                        self.push_prio_bounded(cx, port, pid);
                    }
                } else {
                    self.push_prio_bounded(cx, port, pid);
                }
            }
            Transport::Tcp {
                queue_pkts,
                ecn_threshold,
                ..
            } => {
                let li = cx.port_idx(port);
                let depth = self.ports[li].data_len as u32;
                if depth >= queue_pkts {
                    self.drops += 1;
                    self.packets.release(pid);
                    return;
                }
                if depth >= ecn_threshold {
                    self.packets.get_mut(pid).set_ecn_ce();
                }
                self.port_enqueue(cx, port, true, false, pid);
            }
        }
    }

    fn push_prio_bounded<R: RoutingScheme + ?Sized>(&mut self, cx: &Ctx<R>, port: u32, pid: u32) {
        if self.ports[cx.port_idx(port)].prio_len >= 1024 {
            self.drops += 1;
            self.packets.release(pid);
        } else {
            self.port_enqueue(cx, port, false, false, pid);
        }
    }

    /// Enqueues onto an endpoint NIC (no drops: window-bounded).
    pub(crate) fn nic_enqueue<R: RoutingScheme + ?Sized>(
        &mut self,
        cx: &Ctx<R>,
        ep: u32,
        pid: u32,
    ) {
        let port = cx.up_base + ep;
        debug_assert_eq!(cx.port_home[port as usize].shard(), self.id);
        let is_control = self.packets.get(pid).kind() != PktKind::Data;
        self.port_enqueue(cx, port, !is_control, false, pid);
    }

    /// Hands `pid` to `port` (a global id owned here) on the data
    /// (`data = true`) or priority queue, at its head when `front`. A
    /// packet with nothing ahead of it takes a free serializer at once;
    /// the first to wait behind a running transmission schedules the
    /// serializer's next turn at `free_at`; any later one joins the
    /// queue the pending turn will drain.
    fn port_enqueue<R: RoutingScheme + ?Sized>(
        &mut self,
        cx: &Ctx<R>,
        port: u32,
        data: bool,
        front: bool,
        pid: u32,
    ) {
        let q = &mut self.ports[cx.port_idx(port)];
        if q.depth() == 0 && self.now >= q.free_at {
            return self.port_start(cx, port, pid);
        }
        q.enqueue(&mut self.packets, data, front, pid);
        if q.depth() == 1 {
            self.events.push(q.free_at, EvKind::PortPop { port });
        }
    }

    /// Serializes `pid` on `port`, whose serializer is free, until
    /// `free_at`, scheduling the next turn if packets still wait. The
    /// arrival is pushed locally when the far end is on this shard,
    /// otherwise the packet is copied into the destination shard's
    /// mailbox (its local slab slot is released — slab ids are
    /// shard-private).
    fn port_start<R: RoutingScheme + ?Sized>(&mut self, cx: &Ctx<R>, port: u32, pid: u32) {
        let li = cx.port_idx(port);
        let (bytes, layer) = {
            let p = self.packets.get(pid);
            (p.wire_bytes, p.layer)
        };
        if let Some(tel) = self.tel.as_deref_mut() {
            tel.on_wire(li as u32, layer, bytes);
        }
        let ser = cx.cfg.ser_time(bytes);
        let q = &mut self.ports[li];
        q.free_at = self.now + ser;
        if q.depth() != 0 {
            self.events.push(q.free_at, EvKind::PortPop { port });
        }
        let (to_is_router, to) = (q.to_is_router(), q.to());
        let arrive = q.free_at + cx.cfg.link_latency;
        let tshard = if to_is_router {
            cx.router_shard[to as usize]
        } else {
            cx.ep_home[to as usize].shard()
        };
        if tshard == self.id {
            let uid = self.packets.get(pid).salt;
            let kind = if to_is_router {
                EvKind::ArriveRouter {
                    pkt: pid,
                    router: to,
                }
            } else {
                EvKind::ArriveEndpoint { pkt: pid, ep: to }
            };
            self.events.push_arrival(arrive, kind, uid);
        } else {
            let pkt = self.packets.release(pid);
            let ob = &mut self.outbox[tshard as usize];
            if ob.len() == ob.capacity() {
                ob.reserve_exact(grow_step(ob.capacity(), 256));
            }
            ob.push(OutMsg::new(arrive, self.window_base, to, to_is_router, pkt));
        }
    }

    // ---- routing ---------------------------------------------------------

    fn on_router_arrive<R: RoutingScheme + ?Sized>(&mut self, cx: &Ctx<R>, r: u32, pid: u32) {
        debug_assert_eq!(cx.router_shard[r as usize], self.id);
        let fe = self.faults(cx);
        if fe.dead_router_count != 0 && fe.router_is_dead(r) {
            // The router died while this packet was in flight toward it
            // (or a local endpoint is still draining its NIC): a dead
            // router forwards nothing.
            self.drops += 1;
            self.packets.release(pid);
            return;
        }
        let (dst_router, dst_ep, layer) = {
            let p = self.packets.get(pid);
            (cx.dst_router_of(p), p.dst_ep, p.layer)
        };
        let port = if dst_router == r {
            let first = cx.topo.router_endpoints(r).start;
            cx.down_base[r as usize] + (dst_ep - first)
        } else {
            // Per-hop layer rewrite (Valiant phase switch; identity for
            // single-phase schemes).
            let nl = cx.scheme.update_layer(layer, r, dst_router);
            if nl != layer {
                self.packets.get_mut(pid).layer = nl;
            }
            let Some(sel) = self.select_port(cx, r, pid, nl, dst_router) else {
                // No live candidate port: the destination is unreachable
                // from here in the degraded network.
                self.unroutable += 1;
                self.packets.release(pid);
                return;
            };
            let port = cx.net_base[r as usize] + sel as u32;
            if fe.down_count != 0 && fe.is_port_down(port) {
                // Link down (not yet repaired, or the scheme cannot
                // repair): the packet is lost; end-to-end recovery
                // redirects the flow to another layer (§V-G).
                self.drops += 1;
                self.packets.release(pid);
                return;
            }
            port
        };
        self.router_enqueue(cx, port, pid);
    }

    fn select_port<R: RoutingScheme + ?Sized>(
        &self,
        cx: &Ctx<R>,
        r: u32,
        pid: u32,
        layer: u8,
        dst_router: u32,
    ) -> Option<u16> {
        let fe = self.faults(cx);
        let mut scheme_row = None;
        let cands = resolve_row(fe, cx.scheme, layer, r, dst_router, &mut scheme_row);
        debug_assert!(
            !cands.is_empty() || fe.down_count != 0 || !fe.repair.is_empty(),
            "destination unreachable on a healthy network"
        );
        if cands.is_empty() {
            return None;
        }
        if cands.len() == 1 {
            // Single-path layer (FatPaths tables, SPAIN, PAST, …): load
            // balancing happens across layers, not candidates.
            return Some(cands[0]);
        }
        let len = cands.len() as u64;
        let p = self.packets.get(pid);
        Some(match cx.cfg.lb {
            // NDP's spraying cycles each flow round-robin over the
            // candidate ports (per hop, offset by a flow/router hash):
            // smooth arrivals keep 8-packet queues stable at ρ→1,
            // where random spraying would trim persistently.
            // Retransmissions re-roll on their salt so a packet
            // never re-walks into a failed or congested port.
            LoadBalancing::PacketSpray => {
                if p.retx() {
                    cands[(fnv1a(p.salt ^ r as u64) % len) as usize]
                } else {
                    let off = fnv1a(((p.flow() as u64) << 32) ^ r as u64);
                    cands[((p.seq as u64 + off) % len) as usize]
                }
            }
            _ => cands[nonce_pick(p.nonce, r, cands.len())],
        })
    }

    /// Congestion-aware flowlet-boundary decision
    /// ([`AdaptiveMode::QueueDepth`]): consult the live queue depths of
    /// the flow's attachment router and steer the new flowlet to the
    /// least-loaded candidate — the layer for FatPaths-family schemes,
    /// the minimal-path port for LetFlow/ECMP (CONGA/LetFlow-style local
    /// adaptivity). Reads are shard-local by construction: the sender's
    /// `TxFlow` lives on the source router's shard, and so do that
    /// router's output ports — no cross-shard state is touched, which
    /// (together with the canonical event order making the port state
    /// identical at the decision instant for every K) keeps adaptive
    /// runs byte-identical at any shard and thread count.
    ///
    /// Returns `true` when a decision was applied; `false` defers to the
    /// caller's oblivious hash (spraying, pinned MPTCP subflows,
    /// same-router pairs, single-candidate rows, or every candidate
    /// down). Cost is O(candidates) per boundary with no allocation
    /// (`depth_scratch` is reused across decisions).
    pub(crate) fn adaptive_repick<R: RoutingScheme + ?Sized>(
        &mut self,
        cx: &Ctx<R>,
        flow: u32,
    ) -> bool {
        let m = cx.meta(flow);
        if m.pinned_layer.is_some() {
            return false;
        }
        let r = cx.ep_router[m.src_ep as usize];
        let dst_router = cx.ep_router[m.dst_ep as usize];
        if r == dst_router {
            return false; // no network hop: nothing to steer
        }
        debug_assert_eq!(cx.router_shard[r as usize], self.id);
        let ti = cx.tx_idx(flow);
        let ctr = self.tx[ti].flowlet_ctr;
        match cx.cfg.lb {
            LoadBalancing::FatPathsLayers => {
                if cx.n_layers <= 1 {
                    return false;
                }
                let nonce = self.tx[ti].nonce;
                let mut depths = std::mem::take(&mut self.depth_scratch);
                depths.clear();
                for l in 0..cx.n_layers {
                    depths.push(self.first_hop_depth(cx, r, dst_router, l as u8, nonce));
                }
                let pick = least_loaded(&depths, flow, ctr);
                self.depth_scratch = depths;
                match pick {
                    Some(l) => {
                        self.tx[ti].layer = l as u8;
                        true
                    }
                    None => false,
                }
            }
            LoadBalancing::LetFlow | LoadBalancing::EcmpFlow => {
                let mut scheme_row = None;
                let cands =
                    self.first_hop_row(cx, r, dst_router, self.tx[ti].layer, &mut scheme_row);
                if cands.len() <= 1 {
                    return false; // port selection has no choice to make
                }
                let mut depths = std::mem::take(&mut self.depth_scratch);
                depths.clear();
                depths.extend(cands.iter().map(|&sel| self.port_depth(cx, r, sel)));
                let pick = least_loaded(&depths, flow, ctr);
                self.depth_scratch = depths;
                let Some(j) = pick else { return false };
                // Routers hash the flow nonce per hop (`select_port`),
                // so the sender steers by *searching* for a nonce that
                // lands on the chosen port at this first hop: a bounded
                // deterministic trial sequence — 8·len draws hit a 1/len
                // target with probability 1 − (1−1/len)^(8·len) ≈
                // 1 − e⁻⁸. On the rare exhaustion the first draw stands:
                // an oblivious re-pick, never a stale path.
                let len = cands.len();
                let base = ((flow as u64) << 21) ^ 0xC0A6 ^ ((ctr as u64) << 8);
                let mut nonce = fnv1a(base);
                for t in 0..(8 * len as u64).max(16) {
                    let cand = fnv1a(base ^ t);
                    if nonce_pick(cand, r, len) == j {
                        nonce = cand;
                        break;
                    }
                }
                self.tx[ti].nonce = nonce;
                true
            }
            // Spraying re-balances per packet already; there is no
            // flowlet decision to make.
            _ => false,
        }
    }

    /// The candidate row a packet tagged `layer` leaves its first hop
    /// `r` on, mirroring the forwarding path: per-hop layer rewrite, then
    /// the repair-overlay shadow ([`resolve_row`], `scheme_row` its
    /// scratch).
    fn first_hop_row<'a, R: RoutingScheme + ?Sized>(
        &self,
        cx: &'a Ctx<R>,
        r: u32,
        dst_router: u32,
        layer: u8,
        scheme_row: &'a mut Option<PortSet>,
    ) -> &'a [u16] {
        let layer = cx.scheme.update_layer(layer, r, dst_router);
        resolve_row(self.faults(cx), cx.scheme, layer, r, dst_router, scheme_row)
    }

    /// Queue depth of router `r`'s port `sel`; `u32::MAX` when the port is
    /// down, so a dead port's empty queue never attracts flowlets.
    fn port_depth<R: RoutingScheme + ?Sized>(&self, cx: &Ctx<R>, r: u32, sel: u16) -> u32 {
        let fe = self.faults(cx);
        let port = cx.net_base[r as usize] + sel as u32;
        if fe.down_count != 0 && fe.is_port_down(port) {
            return u32::MAX;
        }
        debug_assert_eq!(cx.port_home[port as usize].shard(), self.id);
        self.ports[cx.port_idx(port)].depth()
    }

    /// Queue depth of the first-hop port a packet of this flow tagged
    /// `layer` would leave router `r` on: the first-hop row, then the
    /// nonce-hash candidate pick of `select_port`. `u32::MAX` marks
    /// unusable candidates (unreachable rows, down ports) so
    /// `least_loaded` never steers into them.
    fn first_hop_depth<R: RoutingScheme + ?Sized>(
        &self,
        cx: &Ctx<R>,
        r: u32,
        dst_router: u32,
        layer: u8,
        nonce: u64,
    ) -> u32 {
        let mut scheme_row = None;
        let cands = self.first_hop_row(cx, r, dst_router, layer, &mut scheme_row);
        let sel = match *cands {
            [] => return u32::MAX,
            [only] => only,
            _ => cands[nonce_pick(nonce, r, cands.len())],
        };
        self.port_depth(cx, r, sel)
    }

    // ---- shared endpoint helpers ------------------------------------------

    /// Applies source-side flowlet logic before a data transmission:
    /// after a gap > `flowlet_gap`, re-pick the path.
    ///
    /// A ≥ gap pause implies the pipe has drained (the gap exceeds the
    /// RTT), so switching paths at a gap cannot reorder — LetFlow's core
    /// argument, which also protects the TCP modes from spurious
    /// dup-ACK retransmissions after a layer change.
    pub(crate) fn flowlet_update<R: RoutingScheme + ?Sized>(&mut self, cx: &Ctx<R>, flow: u32) {
        let ti = cx.tx_idx(flow);
        let last = self.tx[ti].last_tx;
        if last != 0 && self.now.saturating_sub(last) > cx.cfg.flowlet_gap {
            self.repick_path(cx, flow, 20, 0);
        }
        self.tx[ti].last_tx = self.now;
    }

    /// The one flowlet-boundary re-pick, shared by the gap boundary and
    /// TCP's window-reduction and timeout boundaries, which salt the
    /// hash differently (`shift`, `mix`). Pinned MPTCP subflows own
    /// their layer. Otherwise the flowlet counter advances and the path
    /// is steered ([`AdaptiveMode::QueueDepth`]) or hashed: a new layer
    /// for FatPaths, a new nonce for LetFlow. ECMP keeps everything
    /// static; spraying has no flowlets.
    pub(crate) fn repick_path<R: RoutingScheme + ?Sized>(
        &mut self,
        cx: &Ctx<R>,
        flow: u32,
        shift: u32,
        mix: u64,
    ) {
        if cx.meta(flow).pinned_layer.is_some() {
            return;
        }
        let ti = cx.tx_idx(flow);
        let old = self.tx[ti].layer;
        self.tx[ti].flowlet_ctr += 1;
        if !(cx.cfg.adaptive == AdaptiveMode::QueueDepth && self.adaptive_repick(cx, flow)) {
            let f = &mut self.tx[ti];
            let ctr = f.flowlet_ctr as u64;
            match cx.cfg.lb {
                LoadBalancing::FatPathsLayers => {
                    let key = ((flow as u64) << shift) ^ mix ^ ctr;
                    f.layer = (fnv1a(key) % cx.n_layers as u64) as u8;
                }
                LoadBalancing::LetFlow => {
                    f.nonce = fnv1a(((flow as u64) << (shift + 1)) ^ mix ^ ctr);
                }
                _ => {}
            }
        }
        let new = self.tx[ti].layer;
        if new != old {
            self.span(flow, SpanKind::LayerSwitch, old as u32, new as u32);
        }
    }

    /// Crafts and sends one data packet of `flow` with sequence `seq`
    /// (sender side — `flow`'s TxFlow lives on this shard).
    pub(crate) fn send_data<R: RoutingScheme + ?Sized>(
        &mut self,
        cx: &Ctx<R>,
        flow: u32,
        seq: u32,
        retx: bool,
    ) {
        self.flowlet_update(cx, flow);
        if self.tel.is_some() {
            let kind = if retx {
                SpanKind::FirstRetx
            } else {
                SpanKind::FirstData
            };
            self.span_once(flow, kind, seq, 0);
        }
        let payload = cx.cfg.transport.payload();
        let m = cx.meta(flow);
        let f = &mut self.tx[cx.tx_idx(flow)];
        f.uid_ctr += 1;
        // Canonical transmission id: (flow, per-sender counter, dir=0).
        let salt = ((flow as u64) << 33) | ((f.uid_ctr as u64) << 1);
        let pkt = Packet::new(
            PktKind::Data,
            seq,
            m.payload_of(seq, payload) + HDR_BYTES,
            f.layer,
            m.dst_ep,
            f.nonce,
            salt,
            0xff,
        )
        .with_retx(retx);
        let pid = self.packets.alloc(pkt);
        self.nic_enqueue(cx, m.src_ep, pid);
    }

    /// Crafts and sends a control packet from the receiver side toward
    /// the sender (`Ack`, `Nack`, `Pull` — control is always
    /// receiver-originated). Rides the layer the data last arrived on
    /// (proven alive in the forward direction) and echoes the last data
    /// nonce so reverse-path LetFlow hashing tracks the sender's
    /// flowlet without a cross-shard read.
    pub(crate) fn send_control<R: RoutingScheme + ?Sized>(
        &mut self,
        cx: &Ctx<R>,
        flow: u32,
        kind: PktKind,
        seq: u32,
        ecn_echo: bool,
        suggest: u8,
    ) {
        let m = cx.meta(flow);
        let f = &mut self.rx[cx.rx_idx(flow)];
        f.uid_ctr += 1;
        // Canonical transmission id: (flow, per-receiver counter, dir=1).
        let salt = ((flow as u64) << 33) | ((f.uid_ctr as u64) << 1) | 1;
        let pkt = Packet::new(
            kind,
            seq,
            HDR_BYTES,
            f.rx_last_layer,
            m.src_ep,
            f.last_nonce,
            salt,
            suggest,
        )
        .with_ecn_echo(ecn_echo);
        let pid = self.packets.alloc(pkt);
        self.nic_enqueue(cx, m.dst_ep, pid);
    }

    /// Marks a flow complete (receiver got every byte) and reports it
    /// to the driver's termination set.
    pub(crate) fn complete_flow<R: RoutingScheme + ?Sized>(&mut self, cx: &Ctx<R>, flow: u32) {
        let f = &mut self.rx[cx.rx_idx(flow)];
        if !f.is_finished() {
            f.finished = self.now;
            let (rcv, trims) = (f.rcv_count, f.trims);
            self.resolved.push(flow);
            self.span(flow, SpanKind::Finish, rcv, trims);
        }
    }

    /// True when the sender has proof the transfer is done (every
    /// sequence acked for NDP, cumulative ack at the end for TCP) —
    /// the sender-side stand-in for the receiver's `finished`, which
    /// may live on another shard.
    pub(crate) fn tx_done<R: RoutingScheme + ?Sized>(&self, cx: &Ctx<R>, flow: u32) -> bool {
        let f = &self.tx[cx.tx_idx(flow)];
        match cx.cfg.transport {
            Transport::Ndp { .. } => f.acked_count >= cx.meta(flow).num_pkts,
            Transport::Tcp { .. } => f.cum_ack >= cx.meta(flow).num_pkts,
        }
    }

    /// A packet reaches its endpoint. Data arrives on the receiver's
    /// shard, which records the layer and nonce its control packets
    /// echo. Control arrives on the sender's shard: an aborted sender
    /// ignores it, and any other sender takes it as proof of life. The
    /// transports see only what is left.
    fn on_endpoint_arrive<R: RoutingScheme + ?Sized>(&mut self, cx: &Ctx<R>, ep: u32, pid: u32) {
        let pkt = *self.packets.get(pid);
        self.packets.release(pid);
        let flow = pkt.flow();
        if pkt.kind() == PktKind::Data {
            debug_assert_eq!(ep, pkt.dst_ep);
            let f = &mut self.rx[cx.rx_idx(flow)];
            f.rx_last_layer = pkt.layer;
            f.last_nonce = pkt.nonce;
            match cx.cfg.transport {
                Transport::Ndp { .. } => self.ndp_on_data(cx, flow, pkt),
                Transport::Tcp { .. } => self.tcp_on_data(cx, flow, pkt),
            }
        } else {
            if self.tx[cx.tx_idx(flow)].aborted {
                return;
            }
            self.reset_dead_rtos(cx, flow);
            match cx.cfg.transport {
                Transport::Ndp { .. } => self.ndp_on_control(cx, flow, pkt),
                Transport::Tcp { .. } => self.tcp_on_ack(cx, flow, pkt.seq, pkt.ecn_echo()),
            }
        }
    }

    /// Arms the flow's one lazy retransmission timer, both transports'
    /// (a finished or aborted flow arms nothing): the deadline moves to
    /// `at`, and an event is queued only when none is, or when `at` is
    /// earlier than the queued one. NDP's deadline only moves later;
    /// TCP's can move earlier, when a new ACK resets the backoff after a
    /// timeout or the first RTT sample replaces the initial RTO.
    pub(crate) fn arm_rto<R: RoutingScheme + ?Sized>(
        &mut self,
        cx: &Ctx<R>,
        flow: u32,
        at: TimePs,
    ) {
        let ti = cx.tx_idx(flow);
        if self.tx[ti].aborted || self.tx_done(cx, flow) {
            return;
        }
        let f = &mut self.tx[ti];
        f.rto_deadline = at;
        if at < f.rto_event_at {
            f.rto_event_at = at;
            self.events.push(at, EvKind::RtoTimer { flow });
        }
    }

    /// A retransmission timer fires, one rule for both transports. An
    /// event firing at any other time than the flow's recorded one was
    /// superseded by an earlier event and does nothing. One firing
    /// before the deadline (progress moved it on) re-queues at the
    /// deadline. Only one firing at the deadline is a timeout, so the
    /// timeout instant is last arming + RTO, as if every arming had
    /// queued its own event.
    fn on_rto<R: RoutingScheme + ?Sized>(&mut self, cx: &Ctx<R>, flow: u32) {
        let ti = cx.tx_idx(flow);
        if self.now != self.tx[ti].rto_event_at {
            return;
        }
        self.tx[ti].rto_event_at = NO_RTO_EVENT;
        let f = &self.tx[ti];
        if f.aborted || !f.started || self.tx_done(cx, flow) {
            return;
        }
        if self.now < f.rto_deadline {
            let at = f.rto_deadline;
            self.arm_rto(cx, flow, at);
            return;
        }
        if self.abort_if_host_dead(cx, flow) {
            return;
        }
        match cx.cfg.transport {
            Transport::Ndp { initial_window, .. } => self.ndp_on_rto(cx, flow, initial_window),
            Transport::Tcp { .. } => self.tcp_on_rto(cx, flow),
        }
    }

    /// Mid-flow host-death semantics
    /// ([`SimConfig::abort_on_host_death`]): when an endpoint of an
    /// in-flight flow is dead at RTO time, the timeout counts against
    /// the flow's dead-RTO budget; exhausting it aborts the transfer (a
    /// connection reset — the real-stack outcome, instead of silently
    /// outwaiting the reboot). Called for live timers only. Returns
    /// `true` when the flow was aborted (the timer must not be re-armed
    /// or the transport consulted).
    fn abort_if_host_dead<R: RoutingScheme + ?Sized>(&mut self, cx: &Ctx<R>, flow: u32) -> bool {
        let Some(budget) = cx.cfg.abort_on_host_death else {
            return false;
        };
        let m = cx.meta(flow);
        let ti = cx.tx_idx(flow);
        let fe = self.faults(cx);
        let endpoint_dead = fe.dead_router_count != 0
            && (fe.router_is_dead(cx.ep_router[m.src_ep as usize])
                || fe.router_is_dead(cx.ep_router[m.dst_ep as usize]));
        let f = &mut self.tx[ti];
        if !endpoint_dead {
            // The budget counts *consecutive* RTOs against a dead
            // endpoint (one outage), so a timeout with both hosts alive
            // clears it — separate survivable outages must not sum to
            // an abort (`reset_dead_rtos` clears it on receiver-side
            // evidence too).
            f.dead_rtos = 0;
            return false;
        }
        f.dead_rtos += 1;
        if f.dead_rtos < budget.max(1) {
            return false; // keep retrying: the transport re-arms the timer
        }
        f.aborted = true;
        self.resolved.push(flow);
        self.span(flow, SpanKind::Abort, 0, 0);
        true
    }

    /// Clears the consecutive-dead-RTO budget on proof of life: any
    /// receiver-originated packet reaching the sender means the
    /// endpoint is (back) up, so a later outage starts a fresh count.
    #[inline]
    pub(crate) fn reset_dead_rtos<R: RoutingScheme + ?Sized>(&mut self, cx: &Ctx<R>, flow: u32) {
        if cx.cfg.abort_on_host_death.is_some() {
            self.tx[cx.tx_idx(flow)].dead_rtos = 0;
        }
    }
}

/// Drains every shard's outboxes into the destination shards' queues in
/// the canonical merge order `(time, src_shard, seq)`: destination
/// shards iterate sources in ascending shard id, each source's messages
/// sorted by time. The sort need not be stable: the event queue orders
/// equal-time arrivals by the canonical transmission id regardless of
/// push order (pinned by `order_is_push_sequence_independent`), so an
/// unstable sort — which avoids merge sort's temporary buffer — changes
/// nothing observable. The packet is re-allocated in the destination's
/// arena and its arrival keyed by the canonical transmission id, so
/// where a packet was buffered never shows in the event order.
///
/// Returns `(messages, wire_bytes)` crossed, for the run profile.
pub(crate) fn deliver_mailboxes(shards: &mut [Shard]) -> (u64, u64) {
    let k = shards.len();
    let (mut n_msgs, mut n_bytes) = (0u64, 0u64);
    for d in 0..k {
        for s in 0..k {
            if s == d || shards[s].outbox[d].is_empty() {
                continue;
            }
            // All of a mailbox's messages were posted during the same
            // window, so the sender's window base rebases their time
            // deltas (and ordering by delta is ordering by time).
            let base = shards[s].window_base;
            let mut msgs = std::mem::take(&mut shards[s].outbox[d]);
            let before = n_msgs as usize;
            msgs.sort_unstable_by_key(|m| m.dt);
            let dst = &mut shards[d];
            dst.packets.reserve(msgs.len());
            for m in msgs.drain(..) {
                n_msgs += 1;
                n_bytes += m.pkt.wire_bytes as u64;
                let uid = m.pkt.salt;
                let (at, to, to_is_router) = (m.at(base), m.to(), m.to_is_router());
                let pid = dst.packets.alloc(m.pkt);
                let kind = if to_is_router {
                    EvKind::ArriveRouter {
                        pkt: pid,
                        router: to,
                    }
                } else {
                    EvKind::ArriveEndpoint { pkt: pid, ep: to }
                };
                dst.events.push_arrival(at, kind, uid);
            }
            // Hand the emptied buffer back so its capacity is reused —
            // trimmed toward this window's demand (the buffer is empty,
            // so shrinking is a free realloc, no copy): boundary
            // traffic peaks in a handful of windows, and a mailbox
            // sized for its all-time busiest window otherwise holds
            // that peak for the rest of the run.
            let used = n_msgs as usize - before;
            if msgs.capacity() > 1024 && msgs.capacity() / 2 > used {
                msgs.shrink_to((used + used / 2).max(1024));
            }
            shards[s].outbox[d] = msgs;
        }
    }
    (n_msgs, n_bytes)
}

/// Assigns every router to one of `k` shards (clamped to the router
/// count). Topologies that publish `Topology::domains` (pods, dragonfly
/// groups) keep whole domains together — routers outside every domain
/// (e.g. a fat tree's core) become singleton groups — and the groups
/// are walked in router-id order and cut into `k` balanced chunks.
/// Without domains, a BFS order from router 0 is cut into `k` balanced
/// contiguous chunks, which keeps each shard a connected region on any
/// topology the BFS can reach.
///
/// Deterministic: repeated calls with the same inputs produce the same
/// assignment (the simulator's bit-reproducibility depends on it).
pub fn partition_routers(topo: &Topology, k: usize) -> Vec<u32> {
    let nr = topo.num_routers();
    let k = k.clamp(1, nr.max(1));
    let mut assign = vec![0u32; nr];
    if k <= 1 {
        return assign;
    }
    let mut in_domain = vec![false; nr];
    for d in &topo.domains {
        for r in d.start..d.end {
            in_domain[r as usize] = true;
        }
    }
    let mut groups: Vec<(u32, u32)> = topo.domains.iter().map(|d| (d.start, d.end)).collect();
    for r in 0..nr as u32 {
        if !in_domain[r as usize] {
            groups.push((r, r + 1));
        }
    }
    groups.sort_unstable_by_key(|g| g.0);
    if !topo.domains.is_empty() && groups.len() >= k {
        let mut idx = 0usize;
        for (s, e) in groups {
            let shard = (idx * k / nr) as u32;
            for r in s..e {
                assign[r as usize] = shard;
            }
            idx += (e - s) as usize;
        }
    } else {
        let order = bfs_order(topo);
        for (i, &r) in order.iter().enumerate() {
            assign[r as usize] = (i * k / nr) as u32;
        }
    }
    assign
}

/// Deterministic BFS visit order over the router graph, restarting from
/// the lowest unvisited id for disconnected components.
fn bfs_order(topo: &Topology) -> Vec<u32> {
    let nr = topo.num_routers();
    let mut seen = vec![false; nr];
    let mut order = Vec::with_capacity(nr);
    let mut q = VecDeque::new();
    for seed in 0..nr as u32 {
        if seen[seed as usize] {
            continue;
        }
        seen[seed as usize] = true;
        q.push_back(seed);
        while let Some(r) = q.pop_front() {
            order.push(r);
            for &nb in topo.graph.neighbors(r) {
                if !seen[nb as usize] {
                    seen[nb as usize] = true;
                    q.push_back(nb);
                }
            }
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use fatpaths_net::topo::fattree::fat_tree;
    use fatpaths_net::topo::slimfly::slim_fly;

    #[test]
    fn partition_covers_and_balances_on_bfs_topologies() {
        // Slim fly publishes no domains, so the BFS path is exercised.
        let topo = slim_fly(5, 1).unwrap();
        assert!(topo.domains.is_empty());
        let k = 4;
        let assign = partition_routers(&topo, k);
        assert_eq!(assign.len(), topo.num_routers());
        let mut counts = vec![0usize; k];
        for &s in &assign {
            assert!((s as usize) < k);
            counts[s as usize] += 1;
        }
        let (lo, hi) = (*counts.iter().min().unwrap(), *counts.iter().max().unwrap());
        assert!(hi - lo <= 1, "BFS chunks must balance: {counts:?}");
    }

    #[test]
    fn partition_keeps_domains_whole() {
        // Fat trees publish per-pod domains.
        let topo = fat_tree(8, 1);
        assert!(!topo.domains.is_empty());
        let assign = partition_routers(&topo, 4);
        for d in &topo.domains {
            let first = assign[d.start as usize];
            for r in d.start..d.end {
                assert_eq!(assign[r as usize], first, "domain {d:?} split");
            }
        }
    }

    #[test]
    fn partition_clamps_to_router_count() {
        let topo = slim_fly(5, 1).unwrap();
        let nr = topo.num_routers();
        let assign = partition_routers(&topo, nr + 100);
        let used = assign.iter().map(|&s| s as usize + 1).max().unwrap();
        assert!(used <= nr);
        assert_eq!(partition_routers(&topo, 1), vec![0u32; nr]);
    }

    #[test]
    fn seqbits_inline_and_spilled_agree() {
        // ≤ 64 packets stays allocation-free; > 64 spills. Both must
        // behave identically at the seam.
        let mut small = SeqBits::new(64);
        assert_eq!(small.bits(), 64);
        assert!(small.set(0) && small.set(63));
        assert!(!small.set(63), "double-set must report already-set");
        assert!(small.test(0) && small.test(63) && !small.test(1));

        let mut big = SeqBits::new(65);
        assert_eq!(big.bits(), 128);
        assert!(big.set(64) && big.set(7));
        assert!(!big.set(64));
        assert!(big.test(64) && big.test(7) && !big.test(63));
    }

    #[test]
    fn intrusive_port_queues_are_fifo_with_head_insert() {
        let mut slab = Slab::default();
        let mut port = Port::new(true, 0);
        let mk = |slab: &mut Slab<Packet>, salt: u64| {
            slab.alloc(Packet::new(PktKind::Data, 0, 64, 0, 0, 0, salt, 0xff))
        };
        let (a, b, c) = (mk(&mut slab, 1), mk(&mut slab, 2), mk(&mut slab, 3));
        port.enqueue(&mut slab, true, false, a);
        port.enqueue(&mut slab, true, false, b);
        port.enqueue(&mut slab, true, true, c); // retx jumps the queue
        assert_eq!(port.data_len, 3);
        assert_eq!(port.dequeue(&slab), Some(c));
        assert_eq!(port.dequeue(&slab), Some(a));
        // The two queues chain through the same slab independently, and
        // the priority queue drains first.
        let d = mk(&mut slab, 4);
        port.enqueue(&mut slab, false, false, d);
        assert_eq!((port.data_len, port.prio_len), (1, 1));
        assert_eq!(port.dequeue(&slab), Some(d));
        assert_eq!(port.dequeue(&slab), Some(b));
        assert_eq!(port.dequeue(&slab), None);
        assert_eq!((port.data_len, port.prio_len), (0, 0));
        assert!(port.data.is_empty() && port.prio.is_empty());
    }

    /// A NIC queue has no policy cap, so its `u16` depth counter is the
    /// only bound: it must count exactly up to the limit and refuse the
    /// next packet loudly instead of wrapping to an "empty" queue.
    #[test]
    #[should_panic(expected = "port queue holds more than u16::MAX packets")]
    fn nic_queue_depth_panics_past_the_u16_limit() {
        let mut slab = Slab::default();
        let mut nic = Port::new(true, 0);
        let pkt = Packet::new(PktKind::Data, 0, 64, 0, 0, 0, 0, 0xff);
        for _ in 0..u16::MAX {
            let pid = slab.alloc(pkt);
            nic.enqueue(&mut slab, true, false, pid);
        }
        assert_eq!(nic.data_len, u16::MAX);
        let pid = slab.alloc(pkt);
        nic.enqueue(&mut slab, true, false, pid);
    }

    #[test]
    fn mailbox_merge_orders_by_time_src_shard_seq() {
        // Two source shards post into shard 0's mailbox with interleaved
        // times; the merged queue must order by (time, src_shard, seq),
        // realized through the canonical per-packet uids.
        let mut shards: Vec<Shard> = (0..3).map(|i| Shard::new(i, 3)).collect();
        let mk = |salt: u64| Packet::new(PktKind::Ack, 0, 64, 0, 0, 0, salt, 0xff);
        // src shard 2 posts first (push order must not matter), with a
        // message earlier in time than src shard 1's first.
        for (src, at, salt) in [(2u32, 10u64, 7u64), (2, 30, 5), (1, 20, 9), (1, 30, 3)] {
            shards[src as usize].outbox[0].push(OutMsg::new(at, 0, 0, false, mk(salt)));
        }
        let (n, bytes) = deliver_mailboxes(&mut shards);
        assert_eq!((n, bytes), (4, 4 * 64));
        assert!(shards[1].outbox[0].is_empty() && shards[2].outbox[0].is_empty());
        let mut got = Vec::new();
        while let Some((t, ev)) = shards[0].events.pop() {
            let EvKind::ArriveEndpoint { pkt, .. } = ev else {
                panic!("unexpected event {ev:?}");
            };
            got.push((t, shards[0].packets.get(pkt).salt));
        }
        // Time dominates; at t=30 the uid (content key) decides, and the
        // uids were assigned in (src_shard, seq) send order upstream.
        assert_eq!(got, vec![(10, 7), (20, 9), (30, 3), (30, 5)]);
    }
}
