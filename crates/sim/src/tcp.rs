//! TCP-family endpoint logic (§VII-C, §VIII-A): Reno slow start /
//! congestion avoidance / fast retransmit, ECN-Reno (RFC 3168 echo), and
//! DCTCP's fractional window reduction. Receivers ACK every segment
//! (low-latency datacenter stacks disable delayed ACKs); ACKs carry the
//! data packet's CE mark as ECE. Window reductions are flowlet boundaries
//! for FatPaths layer re-selection (§VIII-A1).
//!
//! Only the protocol rules live here. The endpoint skeleton both
//! transports share lives in `crate::shard`: the arrival split
//! (`Shard::on_endpoint_arrive`: receiver echo state, the aborted-sender
//! drop, the dead-RTO reset), the one lazy timer behind retransmission
//! (`Shard::arm_rto`, `Shard::on_rto`) and the flowlet-boundary re-pick
//! (`Shard::repick_path`), which TCP's window-reduction and timeout
//! boundaries salt with their own hash.
//!
//! Sharding note: data arrivals run on the receiver's shard against the
//! [`RxFlow`](crate::shard::RxFlow), ACKs on the sender's shard against
//! the [`TxFlow`](crate::shard::TxFlow); the cumulative-ACK protocol
//! already carries everything the sender needs, so no state is read
//! across the shard boundary. Congestion state lives in the parallel
//! [`TcpState`](crate::shard::TcpState) array (`Shard::tcp`, same local
//! index as `Shard::tx`), allocated only for TCP transports.

use crate::config::{SimConfig, TcpVariant, Transport};
use crate::engine::{Packet, PktKind, TimePs};
use crate::shard::{Ctx, Shard};
use fatpaths_core::scheme::RoutingScheme;
use fatpaths_telemetry::SpanKind;

/// DCTCP's EWMA gain g = 1/16.
const DCTCP_G: f64 = 1.0 / 16.0;
/// Initial RTO before the first RTT sample.
const INITIAL_RTO: TimePs = 1_000_000_000; // 1 ms
/// Hash salt (shift, mix) of the window-reduction and timeout re-picks
/// (`Shard::repick_path`); the gap boundary uses (20, 0).
const REPICK_SHIFT: u32 = 22;
const REPICK_MIX: u64 = 0xACED;

fn tcp_params(cfg: &SimConfig) -> (TcpVariant, TimePs) {
    match cfg.transport {
        Transport::Tcp {
            variant, min_rto, ..
        } => (variant, min_rto),
        _ => unreachable!("tcp handler in non-tcp mode"),
    }
}

impl Shard {
    pub(crate) fn tcp_start<R: RoutingScheme + ?Sized>(&mut self, cx: &Ctx<R>, flow: u32) {
        self.tcp_try_send(cx, flow);
        self.tcp_arm_rto(cx, flow);
    }

    /// Sends while the window allows: retransmissions first, then new data.
    fn tcp_try_send<R: RoutingScheme + ?Sized>(&mut self, cx: &Ctx<R>, flow: u32) {
        let ti = cx.tx_idx(flow);
        let num_pkts = cx.meta(flow).num_pkts;
        loop {
            let (seq, retx) = {
                let now = self.now;
                let (txs, tcps) = (&mut self.tx, &mut self.tcp);
                let f = &mut txs[ti];
                let c = &mut tcps[ti];
                if f.cum_ack >= num_pkts || f.aborted {
                    return;
                }
                let window = c.cwnd.floor().max(1.0) as u32;
                if c.inflight >= window {
                    return;
                }
                let Some((seq, retx)) = f.next_seq(&mut self.pending, num_pkts) else {
                    return;
                };
                c.inflight += 1;
                if !retx {
                    if c.timed.is_none() {
                        c.timed = Some((seq, now));
                    }
                    if c.window_end <= seq && c.window_end == 0 {
                        c.window_end = c.cwnd as u32 + 1;
                    }
                }
                (seq, retx)
            };
            self.send_data(cx, flow, seq, retx);
        }
    }

    /// Receiver side: ACK every segment, echoing its CE mark.
    pub(crate) fn tcp_on_data<R: RoutingScheme + ?Sized>(
        &mut self,
        cx: &Ctx<R>,
        flow: u32,
        pkt: Packet,
    ) {
        let f = &mut self.rx[cx.rx_idx(flow)];
        f.mark_received(pkt.seq);
        let cum = f.rcv_next;
        let done = f.rcv_count == cx.meta(flow).num_pkts;
        self.send_control(cx, flow, PktKind::Ack, cum, pkt.ecn_ce(), 0xff);
        if done {
            self.complete_flow(cx, flow);
        }
    }

    pub(crate) fn tcp_on_ack<R: RoutingScheme + ?Sized>(
        &mut self,
        cx: &Ctx<R>,
        flow: u32,
        cum: u32,
        ece: bool,
    ) {
        let (variant, _) = tcp_params(&cx.cfg);
        let ti = cx.tx_idx(flow);
        let num_pkts = cx.meta(flow).num_pkts;
        let ca_scale = cx.meta(flow).ca_scale;
        let mut became_boundary = false; // cwnd reduction = flowlet boundary
        {
            let now = self.now;
            let (txs, tcps) = (&mut self.tx, &mut self.tcp);
            let f = &mut txs[ti];
            let c = &mut tcps[ti];
            if f.cum_ack >= num_pkts {
                return;
            }
            // DCTCP mark bookkeeping counts every ACK.
            c.ce_total += 1;
            if ece {
                c.ce_marked += 1;
            }
            if cum > f.cum_ack {
                let delta = cum - f.cum_ack;
                f.cum_ack = cum;
                c.inflight = c.inflight.saturating_sub(delta);
                c.dup_acks = 0;
                c.backoff = 0;
                // RTT sample (Karn: only when the timed packet is covered
                // and was not retransmitted — retx clears `timed`).
                if let Some((seq, t)) = c.timed {
                    if cum > seq {
                        let rtt = (now - t) as f64;
                        if c.srtt == 0.0 {
                            c.srtt = rtt;
                            c.rttvar = rtt / 2.0;
                        } else {
                            let err = rtt - c.srtt;
                            c.srtt += 0.125 * err;
                            c.rttvar += 0.25 * (err.abs() - c.rttvar);
                        }
                        c.timed = None;
                    }
                }
                if c.in_recovery && cum >= c.recovery_until {
                    c.in_recovery = false;
                    c.cwnd = c.ssthresh.max(2.0);
                }
                if !c.in_recovery {
                    if c.cwnd < c.ssthresh {
                        c.cwnd += delta as f64; // slow start
                    } else {
                        // Congestion avoidance; ca_scale couples MPTCP
                        // subflows (1/k aggressiveness each).
                        c.cwnd += ca_scale * delta as f64 / c.cwnd;
                    }
                }
                // Window rollover: apply per-window ECN reactions.
                if cum >= c.window_end {
                    match variant {
                        TcpVariant::Dctcp => {
                            let frac = if c.ce_total > 0 {
                                c.ce_marked as f64 / c.ce_total as f64
                            } else {
                                0.0
                            };
                            c.alpha = (1.0 - DCTCP_G) * c.alpha + DCTCP_G * frac;
                            if c.ce_marked > 0 {
                                c.cwnd = (c.cwnd * (1.0 - c.alpha / 2.0)).max(2.0);
                                c.ssthresh = c.cwnd;
                                became_boundary = true;
                            }
                        }
                        TcpVariant::EcnReno => {
                            c.cwr = false;
                        }
                        TcpVariant::Reno => {}
                    }
                    c.ce_marked = 0;
                    c.ce_total = 0;
                    c.window_end = cum + (c.cwnd as u32).max(1);
                }
                // ECN-Reno reacts at most once per window, immediately.
                if variant == TcpVariant::EcnReno && ece && !c.cwr {
                    c.ssthresh = (c.cwnd / 2.0).max(2.0);
                    c.cwnd = c.ssthresh;
                    c.cwr = true;
                    became_boundary = true;
                }
            } else {
                // Duplicate ACK.
                c.dup_acks += 1;
                if c.dup_acks == 3 && !c.in_recovery {
                    // Fast retransmit.
                    let id = self.pending.alloc(f.cum_ack);
                    f.retxq.push_front(&mut self.pending, id);
                    f.retx_count += 1;
                    c.timed = None;
                    c.ssthresh = (c.cwnd / 2.0).max(2.0);
                    c.cwnd = c.ssthresh + 3.0;
                    c.in_recovery = true;
                    c.recovery_until = f.next_new;
                    c.inflight = c.inflight.saturating_sub(1);
                    became_boundary = true;
                } else if c.dup_acks > 3 && c.in_recovery {
                    c.cwnd += 1.0; // window inflation
                }
            }
        }
        // Congestion-window reductions mark flowlet boundaries (§VIII-A1).
        // The switch itself is deferred until the pipe is nearly empty
        // (≤ 3 packets can produce at most 2 dup-ACKs — under the fast-
        // retransmit threshold), so path changes never masquerade as loss.
        if became_boundary {
            self.tcp[ti].want_switch = true;
        }
        let (want, inflight) = {
            let c = &self.tcp[ti];
            (c.want_switch, c.inflight)
        };
        if want && inflight <= 3 {
            self.tcp[ti].want_switch = false;
            self.repick_path(cx, flow, REPICK_SHIFT, REPICK_MIX);
        }
        self.tcp_arm_rto(cx, flow);
        self.tcp_try_send(cx, flow);
    }

    /// Arms the flow's timer one RTO from now: the smoothed estimate
    /// (the initial RTO before the first sample), floored at `min_rto`
    /// and doubled per backoff.
    fn tcp_arm_rto<R: RoutingScheme + ?Sized>(&mut self, cx: &Ctx<R>, flow: u32) {
        let (_, min_rto) = tcp_params(&cx.cfg);
        let c = &self.tcp[cx.tx_idx(flow)];
        let base = if c.srtt == 0.0 {
            INITIAL_RTO
        } else {
            (c.srtt + 4.0 * c.rttvar) as TimePs
        };
        self.arm_rto(cx, flow, self.now + (base.max(min_rto) << c.backoff.min(6)));
    }

    /// A timeout (`Shard::on_rto` has found the deadline reached):
    /// collapse the window and re-pick the path, which is safe now that
    /// the pipe is empty.
    pub(crate) fn tcp_on_rto<R: RoutingScheme + ?Sized>(&mut self, cx: &Ctx<R>, flow: u32) {
        let ti = cx.tx_idx(flow);
        {
            let (txs, tcps) = (&mut self.tx, &mut self.tcp);
            let f = &mut txs[ti];
            let c = &mut tcps[ti];
            // Timeout: collapse to slow start and go back to cum_ack.
            c.ssthresh = (c.cwnd / 2.0).max(2.0);
            c.cwnd = 1.0;
            c.inflight = 0;
            c.dup_acks = 0;
            c.in_recovery = false;
            f.retxq.clear(&mut self.pending);
            let id = self.pending.alloc(f.cum_ack);
            f.retxq.push_back(&mut self.pending, id);
            f.retx_count += 1;
            c.timed = None;
            c.backoff += 1;
        }
        self.span(flow, SpanKind::Rto, 0, 0);
        self.repick_path(cx, flow, REPICK_SHIFT, REPICK_MIX);
        self.tcp_arm_rto(cx, flow);
        self.tcp_try_send(cx, flow);
    }
}
