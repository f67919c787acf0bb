//! Discrete-event core: a deterministic time-ordered event queue, and
//! the one [`Slab`] and [`Fifo`] every per-object queue of a shard —
//! port queues, pull credits, retransmissions — is built from.
//!
//! Events are ordered by a **canonical key**, not by push sequence:
//! `(time, class, key)` where `class` ranks event kinds (flow starts
//! before packet motion before timers) and `key` is derived from the
//! event's *content* (global port/endpoint/flow ids; for packet
//! arrivals, the packet's unique transmission id). Two queues that hold
//! the same set of events therefore pop them in the same order no matter
//! how the pushes interleaved — this is what makes the sharded engine
//! (`crate::shard`) bit-identical to the single-queue run at any shard
//! count: a shard's queue sees exactly the events for its region, and
//! the canonical order is independent of whether a packet arrived via a
//! local push or a cross-shard mailbox.
//!
//! Faults are not queue events. Link and router state changes and
//! repair passes live in the shared fault timeline (`crate::faults`),
//! which a shard reads by time: an epoch taking effect at `t` is in
//! force before the shard dispatches any event at `t`.

use fatpaths_core::fwd::fnv1a;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Simulation time in picoseconds.
pub type TimePs = u64;

/// Exclusive upper bound on the timestamps the queue can hold: it packs
/// them into 56 bits (see `EvEntry`).
const ENCODING_LIMIT_PS: TimePs = 1 << 56;

/// Exclusive upper bound on the times a caller may supply — flow
/// starts, fault events with their detection delay, the horizon — which
/// the simulator checks once, on entry. It is half the encodable range:
/// the times the engine derives from them (serialization, latency,
/// backed-off timers) are only debug-asserted on the hot path, and the
/// other half is their headroom — ten more simulated hours.
pub(crate) const TIME_LIMIT_PS: TimePs = 1 << 55;

/// Panics unless `t` is below [`TIME_LIMIT_PS`]. `what` names the
/// offending input in the message.
pub(crate) fn assert_schedulable(t: TimePs, what: &str) {
    assert!(
        t < TIME_LIMIT_PS,
        "{what} {t} ps is beyond the 2^55 ps (~10 h) limit on scheduled times"
    );
}

/// Kinds of events the simulator processes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EvKind {
    /// A flow's start time arrived.
    FlowStart {
        /// Flow index.
        flow: u32,
    },
    /// A serializer turn: a port's transmission ended with a packet
    /// waiting behind it; start the next one. A transmission nothing
    /// waits behind schedules no turn.
    PortPop {
        /// Port index.
        port: u32,
    },
    /// A packet arrives at a router (after link latency).
    ArriveRouter {
        /// Packet slab id.
        pkt: u32,
        /// Router id.
        router: u32,
    },
    /// A packet arrives at an endpoint.
    ArriveEndpoint {
        /// Packet slab id.
        pkt: u32,
        /// Endpoint id.
        ep: u32,
    },
    /// The endpoint may emit its next paced NDP PULL.
    PullTick {
        /// Endpoint id.
        ep: u32,
    },
    /// A flow's retransmission timer (both transports).
    RtoTimer {
        /// Flow index.
        flow: u32,
    },
}

/// Flat heap entry. Ordering is the derived lexicographic order on
/// `(tcls, key, a, b)` where `tcls` packs the timestamp (high 56 bits)
/// over the class rank (low 8 bits) — identical to ordering by
/// `(t, cls, …)` while keeping the entry at 24 bytes instead of 32,
/// which is tens of MB of heap high-water at fat-tree scale. 2^56 ps
/// is ~20 hours of simulated time, far beyond any run; the simulator
/// rejects start times, fault times and horizons past half of it on
/// entry ([`assert_schedulable`]) and `encode` debug-asserts the bound.
/// `a`/`b` are the raw `EvKind` payload words and only break ties
/// between *distinct* events whose canonical key collides. For packet
/// arrivals `key` is the globally unique transmission id, so the slab
/// id in `a` — which *does* differ between shard layouts — is never
/// consulted.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct EvEntry {
    tcls: u64,
    key: u64,
    a: u32,
    b: u32,
}
const _: () = assert!(std::mem::size_of::<EvEntry>() == 24);

/// Canonical class ranks: flow starts before packet motion, and timers
/// last (an ACK and an RTO at the same instant: the ACK first moves the
/// deadline of the flow's one lazy timer, so the timer only defers —
/// matching the pre-shard push-order behavior where timers were armed
/// after sends). Fault epochs are not ranked here: they rank before
/// every class, because a shard moves its fault cursor past `t` before
/// it dispatches anything at `t` (a link that dies at `t` drops packets
/// forwarded at `t`).
const CLS_FLOW_START: u8 = 0;
const CLS_PORT_POP: u8 = 1;
const CLS_ARRIVE_ROUTER: u8 = 2;
const CLS_ARRIVE_EP: u8 = 3;
const CLS_PULL_TICK: u8 = 4;
const CLS_RTO: u8 = 5;

impl EvEntry {
    fn encode(t: TimePs, kind: EvKind, uid: Option<u64>) -> Self {
        let (cls, key, a, b) = match kind {
            EvKind::FlowStart { flow } => (CLS_FLOW_START, flow as u64, flow, 0),
            EvKind::PortPop { port } => (CLS_PORT_POP, port as u64, port, 0),
            EvKind::ArriveRouter { pkt, router } => {
                let uid = uid.expect("router arrivals must be pushed with push_arrival");
                (CLS_ARRIVE_ROUTER, uid, pkt, router)
            }
            EvKind::ArriveEndpoint { pkt, ep } => {
                let uid = uid.expect("endpoint arrivals must be pushed with push_arrival");
                (CLS_ARRIVE_EP, uid, pkt, ep)
            }
            EvKind::PullTick { ep } => (CLS_PULL_TICK, ep as u64, ep, 0),
            EvKind::RtoTimer { flow } => (CLS_RTO, flow as u64, flow, 0),
        };
        debug_assert!(
            t < ENCODING_LIMIT_PS,
            "timestamp exceeds the 56-bit encoding"
        );
        EvEntry {
            tcls: (t << 8) | cls as u64,
            key,
            a,
            b,
        }
    }

    #[inline]
    fn t(&self) -> TimePs {
        self.tcls >> 8
    }

    fn decode(self) -> (TimePs, EvKind) {
        let kind = match self.tcls as u8 {
            CLS_FLOW_START => EvKind::FlowStart { flow: self.a },
            CLS_PORT_POP => EvKind::PortPop { port: self.a },
            CLS_ARRIVE_ROUTER => EvKind::ArriveRouter {
                pkt: self.a,
                router: self.b,
            },
            CLS_ARRIVE_EP => EvKind::ArriveEndpoint {
                pkt: self.a,
                ep: self.b,
            },
            CLS_PULL_TICK => EvKind::PullTick { ep: self.a },
            CLS_RTO => EvKind::RtoTimer { flow: self.a },
            _ => unreachable!("corrupt event class"),
        };
        (self.t(), kind)
    }
}

/// Near-future bucket width, `2^BUCKET_SHIFT` ps (4.096 ns), and ring
/// length. Together the ring spans 16.8 µs, twice a jumbo frame's
/// serialization plus one link latency at the default 10 Gbit/s / 1 µs
/// (7.25 µs + 1 µs), the largest delta the packet path schedules. The
/// slack is for the sharded engine: a mailbox delivery is timed from
/// the sender's clock, which runs up to a lookahead window ahead of the
/// cursor an idle receiver left behind, so an arrival can lie more than
/// one such delta past it. So serializer, arrival and pull-pacing
/// events are O(1) appends, and a bucket holds tens of entries even
/// with 100 k events in flight. These are tuning constants only: an
/// event further out than the ring takes the far heap, and the pop
/// order is the same for any values.
const BUCKET_SHIFT: u32 = 12;
const RING_BUCKETS: usize = 4096;
const RING_MASK: usize = RING_BUCKETS - 1;
const RING_WORDS: usize = RING_BUCKETS / 64;

/// Sentinel for "no slot": the end of a chain or of a free list, in the
/// event ring and in every [`Slab`].
const NO_SLOT: u32 = u32::MAX;

/// The low half of `EvEntry::tcls`: the timestamp's low 24 bits over
/// the class rank. The entries of one bucket agree on every timestamp
/// bit above `BUCKET_SHIFT`, so the high half is the same for all of
/// them and can be rebuilt from the bucket number — while an entry sits
/// in the slab, that half holds its chain link instead, and the slab
/// needs no link vector beside it.
const SUB_MASK: u64 = u32::MAX as u64;
const _: () = assert!(BUCKET_SHIFT <= 24, "a bucket must fix tcls' high half");

type MinHeap = BinaryHeap<Reverse<EvEntry>>;

/// The one growth rule for every buffer a shard pushes into (event
/// heaps, slabs, mailboxes): when full, an exact step of ⅛ of its
/// `capacity`, at least `floor`. A doubling realloc of a multi-MB buffer
/// would permanently raise the process high-water mark past the peak.
#[inline]
pub(crate) fn grow_step(capacity: usize, floor: usize) -> usize {
    (capacity / 8).max(floor)
}

#[inline]
fn push_bounded(heap: &mut MinHeap, e: EvEntry) {
    if heap.len() == heap.capacity() {
        heap.reserve_exact(grow_step(heap.capacity(), 1024));
    }
    heap.push(Reverse(e));
}

/// Shrinks a heap to 1.5× its live count once that is at most half of
/// its capacity, so oscillating load cannot thrash, and never below a
/// floor.
fn shrink_heap(heap: &mut MinHeap) {
    let (len, cap) = (heap.len(), heap.capacity());
    if len * 2 <= cap && cap > SHRINK_FLOOR {
        heap.shrink_to((len + len / 2).max(SHRINK_FLOOR));
    }
}

/// Capacity (in entries) below which no buffer is shrunk.
const SHRINK_FLOOR: usize = 8192;

/// The deterministic event queue: a calendar ring in front of a binary
/// heap, popping in exactly the derived `EvEntry` order.
///
/// Time is cut into buckets of `2^BUCKET_SHIFT` ps, and the pending
/// entries are split by bucket relative to the `cursor`, the first
/// bucket not yet drained:
///
/// * the ring — the `RING_BUCKETS` buckets from the cursor on, slot
///   `b & RING_MASK` for bucket `b`, each an unsorted chain. A push
///   into one is an O(1) append.
/// * `far` — a binary heap of everything past the ring (RTO timers,
///   late flow starts). Its minimum competes with the
///   ring whenever the cursor moves, and its entries join their bucket
///   when the cursor reaches it.
/// * the current bucket — when the cursor reaches a bucket (tens of
///   entries), its chain is sorted once, by relinking, and popped from
///   the head (`cur`); an event scheduled behind the cursor (into the
///   bucket being drained, or before it) goes to the small binary heap
///   `spill`, and a pop takes the smaller of the two fronts.
///
/// Every entry in the current bucket and in `spill` precedes every
/// entry in the ring and in `far` (buckets partition time and the
/// timestamp is the high bits of the order), so the smaller of their
/// fronts is the global minimum: the pop sequence is that of one binary
/// heap over all entries.
///
/// The buckets are intrusive chains through one slab rather than a
/// `Vec` per bucket: per-bucket vectors keep their peak capacity
/// forever, which measured tens of MiB of resident memory at fat-tree
/// scale. This slab is not a [`Slab`]: its chain and free-list links
/// live in the entries themselves (see `SUB_MASK`), so a pending event
/// costs the 24 bytes it cost in a single heap and the slab is one
/// buffer — the side link vector a [`Slab`] keeps, growing in step
/// beside the entries, measured over the 119k-endpoint RSS gate. It is
/// also compacted mid-run (`compact_slab`), which a [`Slab`] is not:
/// events hold packet ids, so packets never move. The current bucket
/// is sorted in place because a synchronized workload puts 100 k events
/// on one timestamp — copying such a bucket out to drain it, or even
/// listing its ids, is a per-wave buffer at the moment the process
/// high-water mark forms.
#[derive(Debug)]
pub struct EventQueue {
    /// Head of the current bucket's chain, sorted ascending.
    cur: u32,
    spill: MinHeap,
    /// First bucket not yet drained; the ring covers
    /// `cursor..cursor + RING_BUCKETS`.
    cursor: u64,
    /// Chain head per ring slot ([`NO_SLOT`] = empty bucket).
    heads: Box<[u32]>,
    /// One bit per ring slot: the bucket is non-empty.
    occupied: [u64; RING_WORDS],
    /// Ring and current-bucket entries, each with its chain / free-list
    /// successor in the high half of `tcls`.
    slab: Vec<EvEntry>,
    free: u32,
    /// Entries living in the slab: every ring bucket plus the current.
    slab_len: usize,
    far: MinHeap,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue {
            cur: NO_SLOT,
            spill: MinHeap::new(),
            cursor: 0,
            heads: vec![NO_SLOT; RING_BUCKETS].into_boxed_slice(),
            occupied: [0; RING_WORDS],
            slab: Vec::new(),
            free: NO_SLOT,
            slab_len: 0,
            far: MinHeap::new(),
        }
    }
}

/// Which of the two structures behind the cursor holds the next event.
enum Front {
    Bucket,
    Spill,
}

impl EventQueue {
    /// Schedules a non-arrival event at absolute time `at`. Packet
    /// arrivals carry slab ids that are not canonical across shard
    /// layouts — they must go through `push_arrival` with the
    /// packet's transmission id instead.
    pub fn push(&mut self, at: TimePs, kind: EvKind) {
        debug_assert!(
            !matches!(
                kind,
                EvKind::ArriveRouter { .. } | EvKind::ArriveEndpoint { .. }
            ),
            "arrival events need push_arrival(at, kind, uid)"
        );
        self.insert(EvEntry::encode(at, kind, None));
    }

    /// Schedules a packet arrival ordered by the packet's unique
    /// transmission id (`Packet::salt`), which is stable across shard
    /// layouts — unlike the slab id embedded in the `EvKind`.
    pub(crate) fn push_arrival(&mut self, at: TimePs, kind: EvKind, uid: u64) {
        debug_assert!(
            matches!(
                kind,
                EvKind::ArriveRouter { .. } | EvKind::ArriveEndpoint { .. }
            ),
            "push_arrival is for packet arrivals only"
        );
        self.insert(EvEntry::encode(at, kind, Some(uid)));
    }

    #[inline]
    fn insert(&mut self, e: EvEntry) {
        let bucket = e.t() >> BUCKET_SHIFT;
        if bucket < self.cursor {
            push_bounded(&mut self.spill, e);
        } else if bucket - self.cursor < RING_BUCKETS as u64 {
            self.ring_push(bucket as usize & RING_MASK, e);
        } else {
            push_bounded(&mut self.far, e);
        }
    }

    /// Prepends `e` to ring slot `slot`'s chain (order within a bucket
    /// is irrelevant — the bucket is sorted when the cursor arrives).
    #[inline]
    fn ring_push(&mut self, slot: usize, e: EvEntry) {
        let e = EvEntry {
            tcls: (self.heads[slot] as u64) << 32 | e.tcls & SUB_MASK,
            ..e
        };
        let id = if self.free != NO_SLOT {
            let id = self.free;
            self.free = self.link(id);
            self.slab[id as usize] = e;
            id
        } else {
            if self.slab.len() == self.slab.capacity() {
                self.slab
                    .reserve_exact(grow_step(self.slab.capacity(), 1024));
            }
            self.slab.push(e);
            (self.slab.len() - 1) as u32
        };
        self.heads[slot] = id;
        self.occupied[slot >> 6] |= 1 << (slot & 63);
        self.slab_len += 1;
    }

    /// Successor of slab slot `id` in its chain or in the free list.
    #[inline]
    fn link(&self, id: u32) -> u32 {
        (self.slab[id as usize].tcls >> 32) as u32
    }

    /// The entry in slab slot `id` of the current bucket, with the
    /// timestamp bits its link displaced put back.
    #[inline]
    fn bucket_entry(&self, id: u32) -> EvEntry {
        let e = self.slab[id as usize];
        let high = (self.cursor - 1) >> (24 - BUCKET_SHIFT);
        EvEntry {
            tcls: high << 32 | e.tcls & SUB_MASK,
            ..e
        }
    }

    #[inline]
    fn set_link(&mut self, id: u32, to: u32) {
        let e = &mut self.slab[id as usize];
        e.tcls = (to as u64) << 32 | e.tcls & SUB_MASK;
    }

    /// Sort key of slab slot `id` among the entries of its bucket: the
    /// derived `EvEntry` order with `tcls` cut to its low half.
    #[inline]
    fn rank(&self, id: u32) -> (u32, u64, u32, u32) {
        let e = &self.slab[id as usize];
        (e.tcls as u32, e.key, e.a, e.b)
    }

    /// Merges two ascending chains into one.
    fn merge(&mut self, mut a: u32, mut b: u32) -> u32 {
        let (mut head, mut tail) = (NO_SLOT, NO_SLOT);
        while a != NO_SLOT && b != NO_SLOT {
            let from = if self.rank(a) <= self.rank(b) {
                &mut a
            } else {
                &mut b
            };
            let take = *from;
            *from = self.link(take);
            if tail == NO_SLOT {
                head = take;
            } else {
                self.set_link(tail, take);
            }
            tail = take;
        }
        let rest = if a != NO_SLOT { a } else { b };
        if tail == NO_SLOT {
            return rest;
        }
        self.set_link(tail, rest);
        head
    }

    /// Sorts a chain ascending by relinking it. Up to `CHUNK` entries
    /// at a time are sorted as an array of ids — a bucket is usually
    /// one such chunk — and a longer chain is a bottom-up merge sort of
    /// its sorted chunks, `pending[i]` holding `2^i` of them merged, or
    /// nothing. No buffer grows with the chain.
    fn sort_chain(&mut self, mut id: u32) -> u32 {
        const CHUNK: usize = 64;
        if id == NO_SLOT || self.link(id) == NO_SLOT {
            return id;
        }
        let mut pending = [NO_SLOT; 32];
        let mut levels = 0;
        while id != NO_SLOT {
            let mut ids = [NO_SLOT; CHUNK];
            let mut n = 0;
            while id != NO_SLOT && n < CHUNK {
                ids[n] = id;
                n += 1;
                id = self.link(id);
            }
            // Descending array → ascending chain, linked back to front.
            ids[..n].sort_unstable_by_key(|&id| Reverse(self.rank(id)));
            let mut run = NO_SLOT;
            for &i in &ids[..n] {
                self.set_link(i, run);
                run = i;
            }
            let mut i = 0;
            while pending[i] != NO_SLOT {
                run = self.merge(pending[i], run);
                pending[i] = NO_SLOT;
                i += 1;
            }
            pending[i] = run;
            levels = levels.max(i + 1);
        }
        let mut sorted = NO_SLOT;
        for &run in &pending[..levels] {
            sorted = self.merge(run, sorted);
        }
        sorted
    }

    /// Bucket index of the first non-empty ring bucket, from the
    /// cursor's on.
    fn next_ring_bucket(&self) -> Option<u64> {
        // Circular scan of the occupancy bitmap from the cursor's slot.
        // The first word is masked to the bits at or after the start;
        // the last step revisits it for the bits before (by then the
        // only ones that can be set).
        let start = self.cursor as usize & RING_MASK;
        let (w0, b0) = (start >> 6, start & 63);
        for i in 0..=RING_WORDS {
            let w = (w0 + i) % RING_WORDS;
            let mut word = self.occupied[w];
            if i == 0 {
                word &= !0u64 << b0;
            }
            if word != 0 {
                let slot = w * 64 + word.trailing_zeros() as usize;
                let ahead = slot.wrapping_sub(start) & RING_MASK;
                return Some(self.cursor + ahead as u64);
            }
        }
        None
    }

    /// Moves the cursor to the earliest non-empty bucket — the nearer
    /// of the ring's next bucket and the far heap's minimum — and sorts
    /// that bucket's chain into `cur`. Returns false when nothing is
    /// pending.
    fn advance(&mut self) -> bool {
        debug_assert!(self.cur == NO_SLOT && self.spill.is_empty());
        let ring = if self.slab_len == 0 {
            None
        } else {
            self.next_ring_bucket()
        };
        let far = self.far.peek().map(|Reverse(e)| e.t() >> BUCKET_SHIFT);
        let bucket = match (ring, far) {
            (None, None) => return false,
            (Some(r), Some(f)) => r.min(f),
            (Some(b), None) | (None, Some(b)) => b,
        };
        // Every earlier bucket is empty, so the ring's window can start
        // at `bucket` and the far entries of that bucket fit its slot:
        // they join the chain instead of being copied aside.
        let slot = bucket as usize & RING_MASK;
        while let Some(Reverse(e)) = self.far.peek() {
            if e.t() >> BUCKET_SHIFT != bucket {
                break;
            }
            let Reverse(e) = self.far.pop().expect("peeked");
            self.ring_push(slot, e);
        }
        let chain = std::mem::replace(&mut self.heads[slot], NO_SLOT);
        self.occupied[slot >> 6] &= !(1 << (slot & 63));
        self.cur = self.sort_chain(chain);
        self.cursor = bucket + 1;
        true
    }

    /// Makes sure the next event, if any, is at the front of the current
    /// bucket or of `spill`, and says which.
    #[inline]
    fn front(&mut self) -> Option<Front> {
        loop {
            match (self.cur != NO_SLOT, self.spill.peek()) {
                (true, None) => return Some(Front::Bucket),
                (true, Some(Reverse(e))) => {
                    return Some(if self.bucket_entry(self.cur) <= *e {
                        Front::Bucket
                    } else {
                        Front::Spill
                    });
                }
                (false, Some(_)) => return Some(Front::Spill),
                (false, None) => {
                    if !self.advance() {
                        return None;
                    }
                }
            }
        }
    }

    /// Pops the earliest event (canonical order within a timestamp).
    pub fn pop(&mut self) -> Option<(TimePs, EvKind)> {
        let e = match self.front()? {
            Front::Bucket => {
                let id = self.cur;
                let e = self.bucket_entry(id);
                self.cur = self.link(id);
                self.set_link(id, self.free);
                self.free = id;
                self.slab_len -= 1;
                e
            }
            Front::Spill => self.spill.pop().expect("front is in spill").0,
        };
        Some(e.decode())
    }

    /// Timestamp of the earliest pending event. Takes `&mut self`
    /// because finding it may move the cursor to the next bucket.
    pub(crate) fn peek_time(&mut self) -> Option<TimePs> {
        Some(match self.front()? {
            Front::Bucket => self.bucket_entry(self.cur).t(),
            Front::Spill => self.spill.peek().expect("front is in spill").0.t(),
        })
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.slab_len + self.spill.len() + self.far.len()
    }

    /// True iff no events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pre-sizes the slab so `n` further near-future events need no
    /// growth (free slots count toward the budget; growth is exact, not
    /// amortized). The slab is where a run's events live, and growing
    /// it in steps *during* the start burst — interleaved with the
    /// packet arena doing the same, on whichever pool thread steps the
    /// shard — fragments the allocator's heap at the moment the process
    /// high-water mark forms. Capacity reserved but never touched is
    /// not resident, so over-reserving is cheap.
    pub(crate) fn reserve(&mut self, n: usize) {
        let free = self.slab.len() - self.slab_len;
        self.slab.reserve_exact(n.saturating_sub(free));
    }

    /// Releases memory the queue no longer needs. Event demand is
    /// front-loaded — the flow-start burst can need twice the
    /// steady-state population — so without this the burst-sized
    /// buffers would be carried through the late-run memory plateau
    /// where the process high-water mark actually forms.
    pub(crate) fn shrink_excess(&mut self) {
        shrink_heap(&mut self.spill);
        shrink_heap(&mut self.far);
        // The slab is judged by the slots it has touched, not by its
        // capacity — a reservation the burst never reached costs
        // nothing — and on a tighter rule than the heaps: a heap's spare
        // capacity past its high-water length was never written, but
        // every free slot of the slab has been, and stays resident.
        let (live, touched) = (self.slab_len, self.slab.len());
        if live * 4 <= touched * 3 && touched > SHRINK_FLOOR {
            self.compact_slab((live + live / 8).max(SHRINK_FLOOR));
        }
    }

    /// Packs the slab's live entries into its first `slab_len` slots
    /// and cuts it down to capacity `cap`. Live entries sit at arbitrary
    /// ids, so the tail cannot simply be truncated: every entry beyond
    /// the cut moves into a free slot below it and the link that named
    /// it (a chain link, a bucket head or `cur`) is rewritten. In place,
    /// because freeing a multi-MB buffer mid-run is precisely what
    /// makes the allocator stop handing such buffers back to the OS —
    /// the shrink has to be a `realloc`, like the heaps'. (The slab
    /// cannot do without: never shrunk, it measured 4 MB more peak RSS
    /// on the 8-shard 119k-endpoint run, over that test's budget.)
    fn compact_slab(&mut self, cap: usize) {
        // No entry has class byte 0xff, so this marks free slots apart.
        const FREE_MARK: u64 = u64::MAX;
        let live = self.slab_len;
        let mut id = self.free;
        while id != NO_SLOT {
            let next = self.link(id);
            self.slab[id as usize].tcls = FREE_MARK;
            id = next;
        }
        // As many entries sit beyond the cut as slots are free below
        // it, so the scan for the next hole never passes the cut.
        let mut hole = 0;
        let mut settle = |slab: &mut [EvEntry], id: u32| {
            if (id as usize) < live {
                return id;
            }
            while slab[hole].tcls != FREE_MARK {
                hole += 1;
            }
            slab[hole] = slab[id as usize];
            hole as u32
        };
        let slab = &mut self.slab[..];
        for head in std::iter::once(&mut self.cur).chain(self.heads.iter_mut()) {
            if *head == NO_SLOT {
                continue;
            }
            *head = settle(slab, *head);
            let mut at = *head;
            loop {
                let next = (slab[at as usize].tcls >> 32) as u32;
                if next == NO_SLOT {
                    break;
                }
                let next = settle(slab, next);
                let e = &mut slab[at as usize];
                e.tcls = (next as u64) << 32 | e.tcls & SUB_MASK;
                at = next;
            }
        }
        self.slab.truncate(live);
        self.slab.shrink_to(cap);
        self.free = NO_SLOT;
    }
}

/// What a packet is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum PktKind {
    /// Payload-carrying data packet.
    Data = 0,
    /// Acknowledgment (TCP cumulative; NDP per-packet).
    Ack = 1,
    /// NDP "payload was trimmed" notification.
    Nack = 2,
    /// NDP receiver-paced credit.
    Pull = 3,
}

/// A packet in flight, packed to 32 bytes — at the 119k-endpoint scale
/// each shard's slab peaks in the hundreds of thousands of slots, so
/// every byte here is hundreds of kilobytes of arena high-water mark.
///
/// Two fields of the logical packet are *derived*, not stored:
///
/// * the owning flow is the top bits of [`salt`](Packet::salt)
///   (`Packet::flow`);
/// * the destination router is a flat lookup from
///   [`dst_ep`](Packet::dst_ep) (`Ctx::ep_router`).
///
/// Kind and flag bits share one byte behind accessors.
#[derive(Clone, Copy, Debug)]
pub struct Packet {
    /// Packet index within the flow (data), or the cumulative-ack /
    /// sequence payload for control packets.
    pub seq: u32,
    /// Bytes on the wire (payload + header, or header only).
    pub wire_bytes: u32,
    /// Destination endpoint.
    pub dst_ep: u32,
    /// Kind (low 2 bits) and flag bits; see the `F_*` constants.
    meta: u8,
    /// Routing layer tag (FatPaths); 0 = minimal layer.
    pub layer: u8,
    /// Receiver's suggested layer carried on PULL/NACK (0xff = none).
    pub suggest_layer: u8,
    /// Flowlet nonce (LetFlow router hashing).
    pub nonce: u64,
    /// Unique per-transmission id: `(flow << 33) | (counter << 1) | dir`
    /// where `dir` distinguishes sender-emitted (0) from
    /// receiver-emitted (1) packets, each side counting independently.
    /// Doubles as the spraying salt *and* the canonical arrival-order
    /// key in the event queue, so the id — unlike a globally-sequenced
    /// counter — must not depend on event interleaving across flows.
    pub salt: u64,
}
const _: () = assert!(std::mem::size_of::<Packet>() == 32);

/// Payload was trimmed by a congested NDP queue.
const F_TRIMMED: u8 = 1 << 2;
/// ECN congestion-experienced mark.
const F_ECN_CE: u8 = 1 << 3;
/// ECE echo on ACKs.
const F_ECN_ECHO: u8 = 1 << 4;
/// Retransmission (NDP prioritizes these).
const F_RETX: u8 = 1 << 5;

impl Packet {
    /// Builds a packet with all flag bits clear; set flags with
    /// [`Packet::with_retx`] / [`Packet::with_ecn_echo`] at the source
    /// and the `set_*` mutators in flight.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        kind: PktKind,
        seq: u32,
        wire_bytes: u32,
        layer: u8,
        dst_ep: u32,
        nonce: u64,
        salt: u64,
        suggest_layer: u8,
    ) -> Packet {
        Packet {
            seq,
            wire_bytes,
            dst_ep,
            meta: kind as u8,
            layer,
            suggest_layer,
            nonce,
            salt,
        }
    }

    /// Marks the packet a retransmission.
    pub(crate) fn with_retx(mut self, retx: bool) -> Packet {
        self.meta |= if retx { F_RETX } else { 0 };
        self
    }

    /// Sets the ACK's ECE echo bit.
    pub(crate) fn with_ecn_echo(mut self, echo: bool) -> Packet {
        self.meta |= if echo { F_ECN_ECHO } else { 0 };
        self
    }

    /// Owning flow index (the top bits of the transmission id).
    #[inline]
    pub(crate) fn flow(&self) -> u32 {
        (self.salt >> 33) as u32
    }

    /// Kind.
    #[inline]
    pub(crate) fn kind(&self) -> PktKind {
        match self.meta & 0b11 {
            0 => PktKind::Data,
            1 => PktKind::Ack,
            2 => PktKind::Nack,
            _ => PktKind::Pull,
        }
    }

    /// Payload was trimmed by a congested NDP queue.
    #[inline]
    pub(crate) fn trimmed(&self) -> bool {
        self.meta & F_TRIMMED != 0
    }

    /// Records a payload trim (the caller also rewrites `wire_bytes`).
    #[inline]
    pub(crate) fn set_trimmed(&mut self) {
        self.meta |= F_TRIMMED;
    }

    /// ECN congestion-experienced mark.
    #[inline]
    pub(crate) fn ecn_ce(&self) -> bool {
        self.meta & F_ECN_CE != 0
    }

    /// Applies the ECN congestion-experienced mark.
    #[inline]
    pub(crate) fn set_ecn_ce(&mut self) {
        self.meta |= F_ECN_CE;
    }

    /// ECE echo on ACKs.
    #[inline]
    pub(crate) fn ecn_echo(&self) -> bool {
        self.meta & F_ECN_ECHO != 0
    }

    /// Retransmission (NDP prioritizes these).
    #[inline]
    pub(crate) fn retx(&self) -> bool {
        self.meta & F_RETX != 0
    }
}

/// A shard's arena: slots with id reuse (last released, first reused),
/// a successor link per slot, and a free list threaded through those
/// links. Each per-object queue of a shard is a [`Fifo`] through one, so
/// no port, endpoint or flow owns a heap buffer: at fat-tree scale a
/// deque per object was a dominant share of the run's transient memory.
#[derive(Debug)]
pub struct Slab<T> {
    slots: Vec<T>,
    /// A slot's successor in its [`Fifo`] or in the free list.
    next: Vec<u32>,
    free: u32,
    live: usize,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab {
            slots: Vec::new(),
            next: Vec::new(),
            free: NO_SLOT,
            live: 0,
        }
    }
}

impl<T: Copy> Slab<T> {
    /// Stores `v`, returning its id.
    pub(crate) fn alloc(&mut self, v: T) -> u32 {
        self.live += 1;
        if self.free != NO_SLOT {
            let id = self.free;
            self.free = self.next[id as usize];
            self.slots[id as usize] = v;
            id
        } else {
            if self.slots.len() == self.slots.capacity() {
                let step = grow_step(self.slots.capacity(), 1024);
                self.slots.reserve_exact(step);
                self.next.reserve_exact(step);
            }
            self.slots.push(v);
            self.next.push(NO_SLOT);
            (self.slots.len() - 1) as u32
        }
    }

    /// Frees `id` for reuse, returning what it held.
    pub(crate) fn release(&mut self, id: u32) -> T {
        self.live -= 1;
        self.next[id as usize] = self.free;
        self.free = id;
        self.slots[id as usize]
    }

    /// Immutable access.
    pub(crate) fn get(&self, id: u32) -> &T {
        &self.slots[id as usize]
    }

    /// Mutable access.
    pub(crate) fn get_mut(&mut self, id: u32) -> &mut T {
        &mut self.slots[id as usize]
    }

    /// Slots currently allocated.
    pub(crate) fn live(&self) -> usize {
        self.live
    }

    /// Slot capacity.
    pub(crate) fn capacity(&self) -> usize {
        self.slots.capacity()
    }

    /// Pre-sizes the slab so `n` further [`Slab::alloc`] calls need no
    /// growth. Free slots count toward that budget, and growth is exact:
    /// per-window bulk reserves (mailbox delivery) must not inflate the
    /// arena past its true high-water mark.
    pub(crate) fn reserve(&mut self, n: usize) {
        let fresh = n.saturating_sub(self.slots.len() - self.live);
        self.slots.reserve_exact(fresh);
        self.next.reserve_exact(fresh);
    }
}

/// A FIFO of [`Slab`] ids chained through the slab's links: eight bytes
/// however long. One slab serves any number of FIFOs.
#[derive(Clone, Copy, Debug)]
pub struct Fifo {
    head: u32,
    tail: u32,
}

impl Default for Fifo {
    fn default() -> Self {
        Fifo {
            head: NO_SLOT,
            tail: NO_SLOT,
        }
    }
}

impl Fifo {
    /// True iff the FIFO holds no id.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.head == NO_SLOT
    }

    /// Appends `id`.
    pub(crate) fn push_back<T>(&mut self, slab: &mut Slab<T>, id: u32) {
        slab.next[id as usize] = NO_SLOT;
        if self.tail == NO_SLOT {
            self.head = id;
        } else {
            slab.next[self.tail as usize] = id;
        }
        self.tail = id;
    }

    /// Head-inserts `id`.
    pub(crate) fn push_front<T>(&mut self, slab: &mut Slab<T>, id: u32) {
        slab.next[id as usize] = self.head;
        if self.tail == NO_SLOT {
            self.tail = id;
        }
        self.head = id;
    }

    /// Unlinks and returns the head id, if any (it stays allocated).
    pub(crate) fn pop_front<T>(&mut self, slab: &Slab<T>) -> Option<u32> {
        let id = self.head;
        if id == NO_SLOT {
            return None;
        }
        self.head = slab.next[id as usize];
        if self.head == NO_SLOT {
            self.tail = NO_SLOT;
        }
        Some(id)
    }

    /// Releases every id it holds back to `slab`.
    pub(crate) fn clear<T: Copy>(&mut self, slab: &mut Slab<T>) {
        while let Some(id) = self.pop_front(slab) {
            slab.release(id);
        }
    }
}

/// The congestion-aware flowlet-boundary decision
/// ([`AdaptiveMode::QueueDepth`](crate::config::AdaptiveMode)): given a
/// snapshot of local queue depths (one entry per candidate — layer or
/// port — with `u32::MAX` marking dead/unusable candidates), returns
/// the index of the least-loaded candidate. Ties break by a
/// deterministic hash of `(flow, flowlet counter)` so repeated
/// boundaries of one flow spread over equally idle candidates instead
/// of herding onto the first.
///
/// This is a pure function of exactly `(depths, flow, ctr)` — no clock,
/// no RNG, no global state — which is what keeps adaptive runs
/// byte-identical at any shard and thread count (the shard-parity
/// proptests pin this contract). Returns `None` when every candidate is
/// unusable; the caller falls back to the oblivious hash. Cost is two
/// passes over `depths`, no allocation.
pub fn least_loaded(depths: &[u32], flow: u32, ctr: u32) -> Option<usize> {
    let min = *depths.iter().min()?;
    if min == u32::MAX {
        return None;
    }
    let ties = depths.iter().filter(|&&d| d == min).count() as u64;
    let k = (fnv1a(((flow as u64) << 32) ^ 0xADA7 ^ ctr as u64) % ties) as usize;
    depths
        .iter()
        .enumerate()
        .filter(|&(_, &d)| d == min)
        .nth(k)
        .map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    #[test]
    fn least_loaded_picks_a_minimum_and_is_deterministic() {
        let depths = [4, 1, 7, 1, 1];
        let pick = least_loaded(&depths, 9, 3).unwrap();
        assert_eq!(depths[pick], 1);
        assert_eq!(least_loaded(&depths, 9, 3), Some(pick));
        // A unique minimum is always chosen regardless of the tie-break.
        for ctr in 0..32 {
            assert_eq!(least_loaded(&[5, 0, 9], 1, ctr), Some(1));
        }
        // All-dead snapshots defer to the oblivious fallback.
        assert_eq!(least_loaded(&[u32::MAX, u32::MAX], 1, 1), None);
        assert_eq!(least_loaded(&[], 1, 1), None);
    }

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::default();
        q.push(30, EvKind::PortPop { port: 3 });
        q.push(10, EvKind::PortPop { port: 1 });
        q.push(20, EvKind::PortPop { port: 2 });
        let order: Vec<TimePs> = std::iter::from_fn(|| q.pop().map(|(t, _)| t)).collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn equal_times_pop_in_canonical_order_not_push_order() {
        // Push flow starts in descending id order; they must pop in
        // ascending id order — the canonical key, not the push sequence.
        let mut q = EventQueue::default();
        for i in (0..10u32).rev() {
            q.push(5, EvKind::FlowStart { flow: i });
        }
        let flows: Vec<u32> = std::iter::from_fn(|| {
            q.pop().map(|(_, k)| match k {
                EvKind::FlowStart { flow } => flow,
                _ => unreachable!(),
            })
        })
        .collect();
        assert_eq!(flows, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn equal_time_classes_rank_starts_before_motion_before_timers() {
        let mut q = EventQueue::default();
        q.push(7, EvKind::RtoTimer { flow: 0 });
        q.push(7, EvKind::PullTick { ep: 0 });
        q.push_arrival(7, EvKind::ArriveEndpoint { pkt: 4, ep: 1 }, 7);
        q.push_arrival(7, EvKind::ArriveRouter { pkt: 9, router: 2 }, 42);
        q.push(7, EvKind::PortPop { port: 6 });
        q.push(7, EvKind::FlowStart { flow: 3 });
        let kinds: Vec<EvKind> = std::iter::from_fn(|| q.pop().map(|(_, k)| k)).collect();
        assert_eq!(
            kinds,
            vec![
                EvKind::FlowStart { flow: 3 },
                EvKind::PortPop { port: 6 },
                EvKind::ArriveRouter { pkt: 9, router: 2 },
                EvKind::ArriveEndpoint { pkt: 4, ep: 1 },
                EvKind::PullTick { ep: 0 },
                EvKind::RtoTimer { flow: 0 },
            ]
        );
    }

    #[test]
    fn arrivals_order_by_transmission_id_not_slab_id() {
        // Two arrivals at the same instant: the one with the smaller
        // transmission id pops first even though its slab id is larger.
        let mut q = EventQueue::default();
        q.push_arrival(5, EvKind::ArriveEndpoint { pkt: 1, ep: 0 }, 200);
        q.push_arrival(5, EvKind::ArriveEndpoint { pkt: 7, ep: 0 }, 100);
        let pkts: Vec<u32> = std::iter::from_fn(|| {
            q.pop().map(|(_, k)| match k {
                EvKind::ArriveEndpoint { pkt, .. } => pkt,
                _ => unreachable!(),
            })
        })
        .collect();
        assert_eq!(pkts, vec![7, 1]);
    }

    #[test]
    fn order_is_push_sequence_independent() {
        // The same event set pushed in two different interleavings pops
        // identically — the invariant the sharded engine relies on.
        let evs = [
            (9, EvKind::PortPop { port: 4 }),
            (9, EvKind::PortPop { port: 2 }),
            (3, EvKind::PullTick { ep: 8 }),
            (9, EvKind::FlowStart { flow: 1 }),
            (3, EvKind::RtoTimer { flow: 6 }),
        ];
        let mut fwd = EventQueue::default();
        let mut rev = EventQueue::default();
        for &(t, k) in evs.iter() {
            fwd.push(t, k);
        }
        for &(t, k) in evs.iter().rev() {
            rev.push(t, k);
        }
        let a: Vec<_> = std::iter::from_fn(|| fwd.pop()).collect();
        let b: Vec<_> = std::iter::from_fn(|| rev.pop()).collect();
        assert_eq!(a, b);
    }

    /// The queue this module had before the calendar ring — one binary
    /// heap over every pending entry — kept as the oracle the three-tier
    /// queue must match pop for pop.
    #[derive(Default)]
    struct ReferenceHeap {
        heap: BinaryHeap<Reverse<EvEntry>>,
    }

    impl ReferenceHeap {
        fn insert(&mut self, e: EvEntry) {
            self.heap.push(Reverse(e));
        }
        fn pop(&mut self) -> Option<(TimePs, EvKind)> {
            self.heap.pop().map(|Reverse(e)| e.decode())
        }
        fn peek_time(&self) -> Option<TimePs> {
            self.heap.peek().map(|Reverse(e)| e.t())
        }
    }

    const RING_SPAN_PS: TimePs = (RING_BUCKETS as TimePs) << BUCKET_SHIFT;

    /// The benchmark's delta mix (header / jumbo serialization, the same
    /// plus link latency, the RTO, "now") plus the seams of the tiers:
    /// same bucket, next bucket, last ring bucket, first far bucket, and
    /// just past the ring.
    const DELTAS: [TimePs; 11] = [
        0,
        51_200,
        7_250_000,
        8_250_000,
        2_000_000_000,
        1,
        1 << BUCKET_SHIFT,
        RING_SPAN_PS - (1 << BUCKET_SHIFT),
        RING_SPAN_PS - 1,
        RING_SPAN_PS,
        RING_SPAN_PS + 700_000,
    ];

    /// An event from a deliberately tiny key space, so equal timestamps
    /// meet equal classes, equal keys and outright duplicates.
    fn small_event(sel: u32) -> (EvKind, Option<u64>) {
        let k = sel / 8 % 3;
        match sel % 8 {
            0 => (EvKind::PortPop { port: k }, None),
            1 => (EvKind::PullTick { ep: k }, None),
            2 => (EvKind::RtoTimer { flow: k }, None),
            3 => (EvKind::FlowStart { flow: k }, None),
            // Equal uids under different slab ids: ties run down to the
            // payload words, as between any two distinct entries.
            4 => (
                EvKind::ArriveRouter {
                    pkt: sel,
                    router: k,
                },
                Some(k as u64),
            ),
            5 => (EvKind::ArriveEndpoint { pkt: sel, ep: k }, Some(k as u64)),
            // The same two events over and over: outright duplicates.
            6 => (EvKind::FlowStart { flow: 0 }, None),
            _ => (EvKind::PullTick { ep: 0 }, None),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        // Random interleavings of every queue operation, with events
        // scheduled relative to the last popped time as the simulator
        // does: the calendar queue and the single heap must agree on
        // every pop, every peek and every length. Pushes and pops
        // balance, so the population random-walks: buckets fill with
        // ties, the cursor sweeps the ring many times over (wrap-around),
        // and each return to near-empty jumps it to the 2 ms timers
        // (far-heap migration). A peek on a sparse queue moves the
        // cursor ahead of `now`, so later pushes land behind it and
        // spill. The clock starts anywhere in the 56-bit range: a slab
        // entry keeps only the low timestamp bits.
        #[test]
        fn calendar_queue_pops_exactly_the_reference_heap_sequence(
            ops in prop::collection::vec((0u8..9, 0usize..DELTAS.len(), 0u32..24), 0..600),
            start in 0usize..3,
        ) {
            let mut q = EventQueue::default();
            let mut oracle = ReferenceHeap::default();
            let mut now: TimePs = [0, (1 << 40) - 5_000_000, ENCODING_LIMIT_PS - (1 << 41)][start];
            for (op, delta, sel) in ops {
                match op {
                    0..=4 => {
                        let at = now + DELTAS[delta];
                        let (kind, uid) = small_event(sel);
                        match uid {
                            Some(uid) => q.push_arrival(at, kind, uid),
                            None => q.push(at, kind),
                        }
                        oracle.insert(EvEntry::encode(at, kind, uid));
                    }
                    5..=6 => {
                        // A burst of pops, as a window drains.
                        for _ in 0..=sel % 4 {
                            let got = q.pop();
                            prop_assert_eq!(got, oracle.pop());
                            if let Some((t, _)) = got {
                                prop_assert!(t >= now, "time ran backwards");
                                now = t;
                            }
                        }
                    }
                    7 => prop_assert_eq!(q.peek_time(), oracle.peek_time()),
                    _ => q.shrink_excess(),
                }
                prop_assert_eq!(q.len(), oracle.heap.len());
                prop_assert_eq!(q.is_empty(), oracle.heap.is_empty());
            }
            while let Some(want) = oracle.pop() {
                prop_assert_eq!(q.peek_time(), Some(want.0));
                prop_assert_eq!(q.pop(), Some(want));
            }
            prop_assert_eq!(q.pop(), None);
            prop_assert_eq!(q.peek_time(), None);
            prop_assert_eq!(q.len(), 0);
        }
    }

    #[test]
    fn pushes_land_in_the_tier_their_delta_selects() {
        // (current bucket's run, spill heap, slab incl. run, far heap)
        let tiers = |q: &EventQueue| {
            let some = |id: u32| (id != NO_SLOT).then_some(id);
            let run = std::iter::successors(some(q.cur), |&id| some(q.link(id))).count();
            (run, q.spill.len(), q.slab_len, q.far.len())
        };
        const BUCKET: TimePs = 1 << BUCKET_SHIFT;
        let mut q = EventQueue::default();
        q.push(0, EvKind::PortPop { port: 0 });
        q.push(BUCKET - 1, EvKind::PortPop { port: 1 });
        q.push(BUCKET, EvKind::PortPop { port: 2 });
        q.push(RING_SPAN_PS - 1, EvKind::PortPop { port: 3 });
        assert_eq!(tiers(&q), (0, 0, 4, 0), "RING_BUCKETS buckets are ring");
        q.push(RING_SPAN_PS, EvKind::PortPop { port: 4 });
        assert_eq!(tiers(&q), (0, 0, 4, 1), "a delta beyond the ring goes far");
        // The first peek sorts bucket 0 into the run; its entries stay
        // in the slab until popped.
        assert_eq!(q.peek_time(), Some(0));
        assert_eq!(tiers(&q), (2, 0, 4, 1));
        assert_eq!(q.pop().unwrap().0, 0);
        // A push into the bucket being drained, or behind it, spills —
        // and still pops in order.
        q.push(5, EvKind::PortPop { port: 5 });
        assert_eq!(tiers(&q), (1, 1, 3, 1));
        assert_eq!(q.pop().unwrap().0, 5);
        assert_eq!(q.pop().unwrap().0, BUCKET - 1);
        // Draining on moves the cursor; the far entry is now inside the
        // ring's span but stays put until the cursor reaches its bucket,
        // where it joins the slab rather than being copied aside.
        assert_eq!(q.peek_time(), Some(BUCKET));
        assert_eq!(tiers(&q), (1, 0, 2, 1));
        assert_eq!(q.pop().unwrap().0, BUCKET);
        assert_eq!(q.pop().unwrap().0, RING_SPAN_PS - 1);
        assert_eq!(q.peek_time(), Some(RING_SPAN_PS));
        assert_eq!(tiers(&q), (1, 0, 1, 0));
        assert_eq!(q.pop().unwrap().0, RING_SPAN_PS);
        assert_eq!((q.pop(), q.len()), (None, 0));
        // Freed slots are reused, not leaked.
        assert_eq!(q.slab.len(), 4);
        q.push(RING_SPAN_PS + BUCKET, EvKind::PortPop { port: 6 });
        assert_eq!((tiers(&q), q.slab.len()), ((0, 0, 1, 0), 4));
    }

    /// A burst far above the shrink floor, drained to a quarter: the
    /// slab is compacted into a smaller one mid-bucket, and neither the
    /// entries that moved (ring chains and the half-drained run) nor the
    /// ones pushed into the fresh slab afterwards may change the pop
    /// sequence.
    #[test]
    fn slab_compaction_keeps_the_pop_sequence() {
        let mut q = EventQueue::default();
        let mut oracle = ReferenceHeap::default();
        let schedule = |q: &mut EventQueue, o: &mut ReferenceHeap, at: TimePs, port: u32| {
            q.push(at, EvKind::PortPop { port });
            o.insert(EvEntry::encode(at, EvKind::PortPop { port }, None));
        };
        for i in 0..40_000u64 {
            // Scattered over half the ring, several to a timestamp, and
            // many to a bucket so the drain stops inside a run.
            let at = (i * 7_919 % (RING_SPAN_PS / 2)) & !0x7ff;
            schedule(&mut q, &mut oracle, at, (i % 5) as u32);
        }
        assert_eq!(q.slab_len, 40_000);
        let mut now = 0;
        for _ in 0..30_000 {
            let got = q.pop();
            assert_eq!(got, oracle.pop());
            now = got.unwrap().0;
        }
        assert!(q.cur != NO_SLOT, "the drain must stop mid-bucket");
        q.shrink_excess();
        assert_eq!(q.len(), 10_000);
        assert_eq!((q.slab.len(), q.slab.capacity()), (10_000, 11_250));
        for i in 0..5_000u64 {
            let at = now + DELTAS[(i % 11) as usize];
            schedule(&mut q, &mut oracle, at, (i % 3) as u32);
        }
        while let Some(want) = oracle.pop() {
            assert_eq!(q.pop(), Some(want));
        }
        assert_eq!(q.pop(), None);
    }

    /// A synchronized wave: far more events on one timestamp than the
    /// bucket sort handles as one array, plus stragglers elsewhere in
    /// the same bucket, so the chain is merged from many sorted chunks.
    #[test]
    fn a_bucket_longer_than_a_sort_chunk_pops_in_order() {
        let mut q = EventQueue::default();
        let mut oracle = ReferenceHeap::default();
        for i in 0..5_000u32 {
            // 4099 is prime: the keys arrive thoroughly out of order.
            let kind = EvKind::PortPop {
                port: i * 4099 % 5_000,
            };
            let at = 7_250_000 + if i % 50 == 0 { i as TimePs % 4096 } else { 0 };
            q.push(at, kind);
            oracle.insert(EvEntry::encode(at, kind, None));
        }
        while let Some(want) = oracle.pop() {
            assert_eq!(q.pop(), Some(want));
        }
        assert_eq!((q.pop(), q.len()), (None, 0));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        // Three FIFOs chained through one slab, against `VecDeque`
        // models: random pushes at either end, pops that release or
        // keep the id, clears, and allocations and releases of ids held
        // outside any FIFO. Every pop must match its model, `live()`
        // must count every id not yet released, and a fresh allocation
        // must reuse the most recently released id — the order a free
        // `Vec` popped in.
        #[test]
        fn fifos_sharing_a_slab_match_vecdeque_models(
            ops in prop::collection::vec((0u8..10, 0usize..3, any::<u32>()), 0..400),
        ) {
            let mut slab = Slab::<u32>::default();
            let mut fifos = [Fifo::default(); 3];
            let mut models: [VecDeque<(u32, u32)>; 3] = Default::default();
            let mut loose: Vec<(u32, u32)> = Vec::new();
            let mut freed: Vec<u32> = Vec::new();
            let mut fresh = 0u32;
            let mut alloc = |slab: &mut Slab<u32>, freed: &mut Vec<u32>, v: u32| {
                let id = slab.alloc(v);
                let want = freed.pop().unwrap_or_else(|| {
                    fresh += 1;
                    fresh - 1
                });
                assert_eq!(id, want, "ids are reused last-released first");
                id
            };
            for (op, f, v) in ops {
                match op {
                    0 | 1 => {
                        let id = alloc(&mut slab, &mut freed, v);
                        fifos[f].push_back(&mut slab, id);
                        models[f].push_back((id, v));
                    }
                    2 => {
                        let id = alloc(&mut slab, &mut freed, v);
                        fifos[f].push_front(&mut slab, id);
                        models[f].push_front((id, v));
                    }
                    3 | 4 => {
                        let got = fifos[f].pop_front(&slab);
                        let want = models[f].pop_front();
                        prop_assert_eq!(got, want.map(|(id, _)| id));
                        if let Some((id, v)) = want {
                            prop_assert_eq!(slab.release(id), v);
                            freed.push(id);
                        }
                    }
                    5 => {
                        let got = fifos[f].pop_front(&slab);
                        let want = models[f].pop_front();
                        prop_assert_eq!(got, want.map(|(id, _)| id));
                        loose.extend(want);
                    }
                    6 => {
                        if let Some((id, v)) = loose.pop() {
                            prop_assert_eq!(slab.release(id), v);
                            freed.push(id);
                        }
                    }
                    7 => {
                        fifos[f].clear(&mut slab);
                        freed.extend(models[f].drain(..).map(|(id, _)| id));
                    }
                    _ => {
                        let id = alloc(&mut slab, &mut freed, v);
                        loose.push((id, v));
                    }
                }
                for (fifo, model) in fifos.iter().zip(&models) {
                    prop_assert_eq!(fifo.is_empty(), model.is_empty());
                }
                let queued: usize = models.iter().map(VecDeque::len).sum();
                prop_assert_eq!(slab.live(), queued + loose.len());
            }
            for (fifo, model) in fifos.iter_mut().zip(&models) {
                for &(id, v) in model {
                    prop_assert_eq!(fifo.pop_front(&slab), Some(id));
                    prop_assert_eq!(*slab.get(id), v);
                }
                prop_assert_eq!(fifo.pop_front(&slab), None);
            }
        }
    }
}
