//! The "purified" receiver-driven transport (§III-C), derived from NDP
//! (Handley et al., SIGCOMM'17):
//!
//! * senders push the first window at line rate (no probing);
//! * congested router queues **trim payloads** — headers always arrive, so
//!   the receiver has complete congestion information;
//! * trimmed headers and retransmissions travel in **priority queues**;
//! * the receiver **pulls** further packets, paced at its access-link
//!   rate, and — the FatPaths addition — requests a **layer change** when
//!   trims reveal congestion on the current layer (§V-F), providing the
//!   flowlet-elasticity that implements LetFlow adaptivity.
//!
//! Only the protocol rules live here. The endpoint skeleton both
//! transports share lives in `crate::shard`: the arrival split
//! (`Shard::on_endpoint_arrive`: receiver echo state, the aborted-sender
//! drop, the dead-RTO reset), the one lazy timer behind retransmission
//! (`Shard::arm_rto`, `Shard::on_rto`) and the flowlet-boundary re-pick
//! (`Shard::repick_path`).
//!
//! Sharding note: handlers touch only the flow half that lives on the
//! executing shard — data arrivals the [`RxFlow`](crate::shard::RxFlow),
//! control arrivals the [`TxFlow`](crate::shard::TxFlow). The receiver
//! acks *every* data arrival (duplicates included) so the sender can
//! prove completion from its own ack bitmap without ever reading the
//! receiver's state across the shard boundary.

use crate::config::{AdaptiveMode, LoadBalancing, HDR_BYTES};
use crate::engine::{EvKind, Packet, PktKind, TimePs};
use crate::shard::{Ctx, Shard};
use fatpaths_core::fwd::fnv1a;
use fatpaths_core::scheme::RoutingScheme;
use fatpaths_telemetry::SpanKind;

/// Fixed NDP sender retransmission timeout (a rare safety net: payload
/// trimming means losses are announced, not inferred).
const NDP_RTO: TimePs = 2_000_000_000; // 2 ms

impl Shard {
    pub(crate) fn ndp_start<R: RoutingScheme + ?Sized>(
        &mut self,
        cx: &Ctx<R>,
        flow: u32,
        initial_window: u32,
    ) {
        for _ in 0..cx.meta(flow).num_pkts.min(initial_window) {
            self.ndp_send_next(cx, flow);
        }
        self.arm_rto(cx, flow, self.now + NDP_RTO);
    }

    /// Receiver side: a data packet (full or trimmed) arrived.
    pub(crate) fn ndp_on_data<R: RoutingScheme + ?Sized>(
        &mut self,
        cx: &Ctx<R>,
        flow: u32,
        pkt: Packet,
    ) {
        let ri = cx.rx_idx(flow);
        if pkt.trimmed() {
            // Header-only arrival: the payload was cut. Record the
            // congestion, suggest a different layer, request a
            // retransmission (NACK) and schedule a pull credit.
            let nl = cx.n_layers as u64;
            let f = &mut self.rx[ri];
            f.trims += 1;
            if nl > 1 {
                let pick = fnv1a(((flow as u64) << 24) ^ 0xBEEF ^ f.trims as u64) % nl;
                f.rx_suggest = pick as u8;
            }
            let suggest = f.rx_suggest;
            self.span_once(flow, SpanKind::FirstTrim, pkt.seq, 0);
            self.send_control(cx, flow, PktKind::Nack, pkt.seq, false, suggest);
            self.ndp_queue_pull(cx, flow);
        } else {
            let newly = self.rx[ri].mark_received(pkt.seq);
            let done = self.rx[ri].rcv_count == cx.meta(flow).num_pkts;
            // Ack every arrival, duplicates included: the sender's
            // completion proof is its own ack bitmap, so a lost ack
            // must be replaced by the retransmission's ack.
            let suggest = self.rx[ri].rx_suggest;
            self.send_control(cx, flow, PktKind::Ack, pkt.seq, false, suggest);
            if done {
                self.complete_flow(cx, flow);
            } else if newly {
                self.ndp_queue_pull(cx, flow);
            }
        }
    }

    /// Sender side: an ack, nack or pull arrived. Each adopts the
    /// receiver's layer suggestion and keeps the safety timer fresh.
    pub(crate) fn ndp_on_control<R: RoutingScheme + ?Sized>(
        &mut self,
        cx: &Ctx<R>,
        flow: u32,
        pkt: Packet,
    ) {
        self.ndp_adopt_suggestion(cx, flow, pkt.suggest_layer);
        let f = &mut self.tx[cx.tx_idx(flow)];
        match pkt.kind() {
            PktKind::Ack => {
                f.mark_acked(pkt.seq);
                if pkt.seq >= f.cum_ack {
                    f.cum_ack = pkt.seq + 1;
                }
            }
            PktKind::Nack => {
                f.retx_count += 1;
                let id = self.pending.alloc(pkt.seq);
                f.retxq.push_back(&mut self.pending, id);
            }
            PktKind::Pull => self.ndp_send_next(cx, flow),
            PktKind::Data => unreachable!("data is not control"),
        }
        self.arm_rto(cx, flow, self.now + NDP_RTO);
    }

    fn ndp_adopt_suggestion<R: RoutingScheme + ?Sized>(
        &mut self,
        cx: &Ctx<R>,
        flow: u32,
        suggest: u8,
    ) {
        if suggest != 0xff {
            let ti = cx.tx_idx(flow);
            let old = self.tx[ti].layer;
            self.tx[ti].layer = suggest;
            if old != suggest {
                self.span(flow, SpanKind::LayerSwitch, old as u32, suggest as u32);
            }
        }
    }

    /// One pull credit = one packet: retransmissions first, then new data.
    fn ndp_send_next<R: RoutingScheme + ?Sized>(&mut self, cx: &Ctx<R>, flow: u32) {
        let num_pkts = cx.meta(flow).num_pkts;
        let f = &mut self.tx[cx.tx_idx(flow)];
        if let Some((seq, retx)) = f.next_seq(&mut self.pending, num_pkts) {
            self.send_data(cx, flow, seq, retx);
        }
    }

    /// Queues a pull credit toward the sender, paced at the receiver's
    /// access-link rate (one full-size packet interval per pull). The
    /// pull queue lives on the receiving endpoint's shard.
    fn ndp_queue_pull<R: RoutingScheme + ?Sized>(&mut self, cx: &Ctx<R>, flow: u32) {
        let ep = cx.meta(flow).dst_ep;
        let li = cx.ep_idx(ep);
        let was_empty = self.pulls[li].is_empty();
        let id = self.pending.alloc(flow);
        self.pulls[li].push_back(&mut self.pending, id);
        let at = self.now.max(self.pull_ready[li]);
        if was_empty {
            self.events.push(at, EvKind::PullTick { ep });
        }
    }

    pub(crate) fn ndp_pull_tick<R: RoutingScheme + ?Sized>(&mut self, cx: &Ctx<R>, ep: u32) {
        let li = cx.ep_idx(ep);
        if self.now < self.pull_ready[li] {
            let at = self.pull_ready[li];
            self.events.push(at, EvKind::PullTick { ep });
            return;
        }
        let Some(id) = self.pulls[li].pop_front(&self.pending) else {
            return;
        };
        let flow = self.pending.release(id);
        let f = &self.rx[cx.rx_idx(flow)];
        if !f.is_finished() {
            let suggest = f.rx_suggest;
            self.send_control(cx, flow, PktKind::Pull, 0, false, suggest);
        }
        // Pace: one pull per full-payload serialization interval.
        let interval = cx.cfg.ser_time(cx.cfg.transport.payload() + HDR_BYTES);
        self.pull_ready[li] = self.now + interval;
        if !self.pulls[li].is_empty() {
            self.events
                .push(self.pull_ready[li], EvKind::PullTick { ep });
        }
    }

    /// Safety net: if the flow has stalled (all credits or announcements
    /// lost — rare under trimming, routine under link failures), re-pick
    /// the routing layer (§V-G fault tolerance: redirect to one of the
    /// preprovisioned alternate layers) and re-push every sent-but-
    /// unacked sequence at line rate.
    ///
    /// The full re-push matters under link and router failures: a packet
    /// dropped on a *down port* is silent — unlike a trim, nothing
    /// announces it to the receiver, so the lost sequences sit in no
    /// retransmission queue and the timeout is their only recovery path.
    /// Resending one packet per 2 ms RTO would stretch a lost w-packet
    /// window to w timeouts; resending the window mirrors the line-rate
    /// first window of §III-C (receiver-side dedup makes spurious copies
    /// harmless). `Shard::on_rto` calls this only at the flow's deadline,
    /// last progress + RTO; `window` is the transport's initial window.
    pub(crate) fn ndp_on_rto<R: RoutingScheme + ?Sized>(
        &mut self,
        cx: &Ctx<R>,
        flow: u32,
        window: u32,
    ) {
        let ti = cx.tx_idx(flow);
        self.span(flow, SpanKind::Rto, 0, 0);
        let nl = cx.n_layers as u64;
        let adaptive = cx.cfg.adaptive == AdaptiveMode::QueueDepth;
        // A timeout is a flowlet boundary. Obliviously only a layer
        // re-pick applies (single-layer schemes have nothing to redraw);
        // adaptive LetFlow/ECMP also re-steers the minimal-path nonce.
        if nl > 1
            || (adaptive && matches!(cx.cfg.lb, LoadBalancing::LetFlow | LoadBalancing::EcmpFlow))
        {
            self.tx[ti].flowlet_ctr += 1;
            if !(adaptive && self.adaptive_repick(cx, flow)) && nl > 1 {
                let f = &mut self.tx[ti];
                f.layer = (fnv1a(((flow as u64) << 26) ^ 0xFA11 ^ f.flowlet_ctr as u64) % nl) as u8;
            }
        }
        // Collect into the shard's scratch buffer: RTOs fire per flow,
        // and a fresh Vec per firing is an allocation storm at scale.
        let mut missing = std::mem::take(&mut self.scratch);
        missing.clear();
        {
            let f = &self.tx[ti];
            missing.extend(
                (0..cx.meta(flow).num_pkts)
                    .filter(|&s| !f.is_acked(s))
                    .take(window as usize),
            );
        }
        self.tx[ti].retx_count += missing.len() as u32;
        for &seq in &missing {
            self.send_data(cx, flow, seq, true);
        }
        self.scratch = missing;
        self.arm_rto(cx, flow, self.now + NDP_RTO);
    }
}
