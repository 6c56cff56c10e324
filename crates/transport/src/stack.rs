//! The per-VM connection stack: demultiplexes packets to connections,
//! accepts incoming connections on listening ports, and multiplexes
//! transmissions fairly (round-robin) across connections — the guest-kernel
//! role in the simulated VM.
//!
//! A VM holds many connections and almost all of them are idle, so the
//! stack never walks them. It keeps two indexes over `conns`;
//! [`TcpStack::touch`] after every mutation of a connection feeds both:
//!
//! * the **tx-ready set**, one bit per connection. Invariant: a connection
//!   outside the set polls to `None` without changing. Readiness depends on
//!   the connection's state and the poll's `seg_limit` — never on `now`,
//!   which [`TcpConn::poll_transmit`] only stamps into deadlines — so a bit
//!   can stay clear for as long as nothing is fed to the connection. (A
//!   pacing feature that makes a connection sendable by the passage of time
//!   would have to wake it through the timer index.)
//! * the **timer index**, which is *lazy*: a mutation only marks its
//!   connection timer-dirty. The dirty set is settled when somebody asks
//!   about timers ([`TcpStack::has_timers`], [`TcpStack::timer_floor`],
//!   [`TcpStack::next_timer`], [`TcpStack::on_timer`]), from each dirty
//!   connection's `next_timer()` *at that moment*. Invariant, once settled:
//!   the has-timer bit and `deadline` of every connection equal its
//!   `next_timer()`, `n_timers` counts the bits, and `floor` is no later
//!   than any deadline. `floor` is a bound, not the minimum: a deadline
//!   that moves later (every segment pushes its connection's RTO out)
//!   leaves it alone, a settled deadline below it lowers it, and only the
//!   exact [`TcpStack::next_timer`] raises it, to the minimum it just
//!   found. Settling at the question rather than at the mutation matters:
//!   a delayed-ACK deadline armed by `on_packet` and cleared by the reply
//!   later in the same guest turn never existed as far as the index is
//!   concerned, so it cannot drag `floor` below the armed RTO and force the
//!   exact scan on every turn.
//!
//! Every path that changes a connection goes through the stack (there is no
//! `&mut TcpConn` accessor), which is what keeps both invariants.

use fastrak_sim::time::SimTime;
use fastrak_sim::{FxHashMap, FxHashSet};
use std::collections::VecDeque;

use fastrak_net::flow::FlowKey;
use fastrak_net::headers::{ecn, tcp_flags};
use fastrak_net::packet::{L4Meta, Packet};

use crate::tcp::{Segment, SegmentPlan, TcpConfig, TcpConn, TcpState};

/// Identifier of a connection within one stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConnId(pub u32);

/// Socket-level events the application layer consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SockEvent {
    /// An outgoing connection completed its handshake.
    Connected(ConnId),
    /// A listening port accepted a new connection.
    Accepted {
        /// The new connection.
        conn: ConnId,
        /// The listening port that accepted it.
        port: u16,
    },
    /// In-order bytes arrived on a connection.
    Delivered {
        /// The connection.
        conn: ConnId,
        /// Newly delivered byte count.
        bytes: u64,
    },
    /// The peer's FIN was consumed: no more data will arrive. The local
    /// side may keep sending (half-close) until it calls close itself.
    PeerClosed(ConnId),
    /// The connection fully left the state machine (LAST_ACK's final ACK
    /// arrived, TIME_WAIT expired, or an RST tore it down).
    Closed(ConnId),
    /// The peer reset the connection.
    Reset(ConnId),
}

/// A VM's TCP stack.
#[derive(Debug, Clone)]
pub struct TcpStack {
    cfg: TcpConfig,
    conns: Vec<TcpConn>,
    by_flow: FxHashMap<FlowKey, usize>,
    listeners: FxHashSet<u16>,
    events: VecDeque<SockEvent>,
    rr_cursor: usize,
    /// Tx-ready set: bit `i` of word `i / 64` is connection `i`.
    ready: Vec<u64>,
    /// `seg_limit` of the latest poll: a connection blocked on a whole
    /// chunk fitting its window may be sendable under a different limit.
    seg_limit: u32,
    /// Timer-dirty set: the connections mutated since the index was last
    /// settled, as a list and (so that each is listed once) a bitset.
    dirty: Vec<u32>,
    dirty_bits: Vec<u64>,
    /// The settled timer index: which connections hold a deadline, how many
    /// do, each one's deadline (meaningful under a set bit only), and a
    /// lower bound on all of them.
    has_timer: Vec<u64>,
    n_timers: usize,
    deadline: Vec<SimTime>,
    floor: SimTime,
    /// Scratch for [`TcpStack::on_timer`]'s due list.
    due: Vec<u32>,
}

/// The indices of the set bits of `words`, ascending.
fn set_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(w, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                w * 64 + bit
            })
        })
    })
}

impl TcpStack {
    /// An empty stack with the given TCP configuration.
    pub fn new(cfg: TcpConfig) -> TcpStack {
        TcpStack {
            cfg,
            conns: Vec::new(),
            by_flow: FxHashMap::default(),
            listeners: FxHashSet::default(),
            events: VecDeque::new(),
            rr_cursor: 0,
            ready: Vec::new(),
            seg_limit: 0,
            dirty: Vec::new(),
            dirty_bits: Vec::new(),
            has_timer: Vec::new(),
            n_timers: 0,
            deadline: Vec::new(),
            floor: SimTime::ZERO,
            due: Vec::new(),
        }
    }

    /// Start accepting connections on `port`.
    pub fn listen(&mut self, port: u16) {
        self.listeners.insert(port);
    }

    /// Open a client connection with the given outgoing flow key. The SYN is
    /// emitted by the next [`TcpStack::poll_transmit`].
    pub fn connect(&mut self, flow: FlowKey) -> ConnId {
        debug_assert!(
            !self.by_flow.contains_key(&flow),
            "duplicate connection for {flow:?}"
        );
        ConnId(self.push_conn(TcpConn::client(flow, &self.cfg)) as u32)
    }

    /// Append a connection and index it.
    fn push_conn(&mut self, conn: TcpConn) -> usize {
        let idx = self.conns.len();
        self.by_flow.insert(conn.flow, idx);
        self.conns.push(conn);
        self.deadline.push(SimTime::ZERO);
        if idx / 64 == self.ready.len() {
            self.ready.push(0);
            self.dirty_bits.push(0);
            self.has_timer.push(0);
        }
        self.touch(idx);
        idx
    }

    /// Connection `idx` was (or may have been) mutated: it re-enters the
    /// ready set and its deadline is looked at again at the next question.
    fn touch(&mut self, idx: usize) {
        self.mark_ready(idx);
        self.mark_timer_dirty(idx);
    }

    fn mark_ready(&mut self, idx: usize) {
        self.ready[idx / 64] |= 1 << (idx % 64);
    }

    fn mark_timer_dirty(&mut self, idx: usize) {
        let (w, bit) = (idx / 64, 1 << (idx % 64));
        if self.dirty_bits[w] & bit == 0 {
            self.dirty_bits[w] |= bit;
            self.dirty.push(idx as u32);
        }
    }

    /// Bring the timer index up to date with every dirty connection's
    /// deadline as it stands now.
    fn settle_timers(&mut self) {
        while let Some(idx) = self.dirty.pop() {
            let idx = idx as usize;
            let (w, bit) = (idx / 64, 1 << (idx % 64));
            self.dirty_bits[w] &= !bit;
            let had = self.has_timer[w] & bit != 0;
            match self.conns[idx].next_timer() {
                Some((t, _)) => {
                    self.deadline[idx] = t;
                    self.floor = self.floor.min(t);
                    if !had {
                        self.has_timer[w] |= bit;
                        self.n_timers += 1;
                    }
                }
                None if had => {
                    self.has_timer[w] &= !bit;
                    self.n_timers -= 1;
                }
                None => {}
            }
        }
    }

    /// Queue an application write on `conn`; false when the send buffer is
    /// full.
    pub fn app_send(&mut self, conn: ConnId, bytes: u64) -> bool {
        let idx = conn.0 as usize;
        let accepted = self.conns[idx].app_send(bytes);
        if accepted {
            self.touch(idx);
        }
        accepted
    }

    /// Graceful close: a FIN follows any queued data. The connection keeps
    /// receiving until the peer closes too (half-close semantics).
    pub fn close(&mut self, conn: ConnId) {
        self.conns[conn.0 as usize].close();
        self.touch(conn.0 as usize);
    }

    /// Abortive close: emit an RST and discard all state immediately.
    pub fn abort(&mut self, conn: ConnId) {
        self.conns[conn.0 as usize].abort();
        self.touch(conn.0 as usize);
    }

    /// Access a connection (stats, state).
    pub fn conn(&self, id: ConnId) -> &TcpConn {
        &self.conns[id.0 as usize]
    }

    /// All connection ids.
    pub fn conn_ids(&self) -> impl Iterator<Item = ConnId> {
        (0..self.conns.len() as u32).map(ConnId)
    }

    /// Number of connection slots. A slot outlives its connection: a
    /// closed one stays (and is counted) until a fresh SYN on the same flow
    /// key reuses it.
    pub fn len(&self) -> usize {
        self.conns.len()
    }

    /// True when no connections exist.
    pub fn is_empty(&self) -> bool {
        self.conns.is_empty()
    }

    /// The connection id owning an outgoing flow key.
    pub fn conn_by_flow(&self, flow: &FlowKey) -> Option<ConnId> {
        self.by_flow.get(flow).map(|&i| ConnId(i as u32))
    }

    /// Feed a received packet into the stack.
    pub fn on_packet(&mut self, now: SimTime, pkt: &Packet) {
        let L4Meta::Tcp { seq, ack, flags } = pkt.l4 else {
            return; // non-TCP is dropped by this stack
        };
        // The sender's flow reversed is our outgoing flow key.
        let ours = pkt.flow.reverse();
        let slot = self.by_flow.get(&ours).copied();
        // A bare SYN to a listening port opens a connection: in a new slot,
        // or over the finished (TIME_WAIT / CLOSED) incarnation of its flow
        // key — the simulated equivalent of SO_REUSEADDR + sequence
        // validation.
        let is_bare_syn = flags & tcp_flags::SYN != 0 && flags & tcp_flags::ACK == 0;
        let finished =
            |i: usize| matches!(self.conns[i].state(), TcpState::TimeWait | TcpState::Closed);
        if is_bare_syn && self.listeners.contains(&pkt.flow.dst_port) && slot.is_none_or(finished) {
            let mut conn = TcpConn::server(ours, &self.cfg);
            conn.set_peer_ecn_request(flags & tcp_flags::ECE != 0 && flags & tcp_flags::CWR != 0);
            let idx = match slot {
                Some(idx) => {
                    self.conns[idx] = conn;
                    // Drops the old incarnation's TIME_WAIT deadline from the index.
                    self.touch(idx);
                    idx
                }
                None => self.push_conn(conn),
            };
            self.events.push_back(SockEvent::Accepted {
                conn: ConnId(idx as u32),
                port: pkt.flow.dst_port,
            });
            return; // the SYN itself carries no data
        }
        let Some(idx) = slot else {
            return; // no connection, no listener: drop (RST not modelled)
        };
        let seg = Segment {
            seq,
            ack,
            flags,
            len: pkt.payload as u64,
            ce: pkt.ecn == ecn::CE,
            sack: pkt.sack,
        };
        let out = self.conns[idx].on_segment(&self.cfg, now, seg);
        self.touch(idx);
        if out.connected {
            self.events
                .push_back(SockEvent::Connected(ConnId(idx as u32)));
        }
        if out.delivered > 0 {
            self.events.push_back(SockEvent::Delivered {
                conn: ConnId(idx as u32),
                bytes: out.delivered,
            });
        }
        if out.peer_fin {
            self.events
                .push_back(SockEvent::PeerClosed(ConnId(idx as u32)));
        }
        if out.reset {
            self.events.push_back(SockEvent::Reset(ConnId(idx as u32)));
        }
        if out.closed {
            self.events.push_back(SockEvent::Closed(ConnId(idx as u32)));
        }
    }

    /// The first ready connection in `from..`, if any.
    fn next_ready(&self, from: usize) -> Option<usize> {
        let mut w = from / 64;
        let mut word = *self.ready.get(w)? & (!0 << (from % 64));
        while word == 0 {
            w += 1;
            word = *self.ready.get(w)?;
        }
        Some(w * 64 + word.trailing_zeros() as usize)
    }

    /// Produce the next segment any connection wants to send, round-robin
    /// across connections for fairness (netperf's threads share the link).
    pub fn poll_transmit(&mut self, now: SimTime, seg_limit: u32) -> Option<(ConnId, SegmentPlan)> {
        let n = self.conns.len();
        if seg_limit != self.seg_limit {
            self.seg_limit = seg_limit;
            (0..n).for_each(|idx| self.mark_ready(idx));
        }
        // The order a scan of every connection from the cursor would poll
        // in — `rr_cursor..n`, then `0..rr_cursor` — visiting only the ready.
        let start = self.rr_cursor;
        for (lo, hi) in [(start, n), (0, start)] {
            let mut from = lo;
            while let Some(idx) = self.next_ready(from).filter(|&i| i < hi) {
                let plan = self.conns[idx].poll_transmit(&self.cfg, now, seg_limit);
                if plan.is_none() && self.conns[idx].poll_is_settled() {
                    self.ready[idx / 64] &= !(1 << (idx % 64));
                }
                // A transmission arms the RTO and clears the delayed ACK.
                self.mark_timer_dirty(idx);
                if let Some(plan) = plan {
                    self.rr_cursor = (idx + 1) % n;
                    return Some((ConnId(idx as u32), plan));
                }
                from = idx + 1;
            }
        }
        None
    }

    /// Does any connection hold a timer deadline? O(1) once settled.
    pub fn has_timers(&mut self) -> bool {
        self.settle_timers();
        self.n_timers > 0
    }

    /// A time no connection's deadline is earlier than — O(1) once settled,
    /// and enough to know that a timer armed at or before it still fires
    /// first. It may be well below the earliest deadline; ask
    /// [`TcpStack::next_timer`] for that.
    pub fn timer_floor(&mut self) -> SimTime {
        self.settle_timers();
        self.floor
    }

    /// Earliest timer deadline across all connections, exactly: a walk over
    /// the connections that hold one. Tightens the floor to what it found.
    pub fn next_timer(&mut self) -> Option<SimTime> {
        self.settle_timers();
        let earliest = set_bits(&self.has_timer)
            .map(|idx| self.deadline[idx])
            .min()?;
        self.floor = earliest;
        Some(earliest)
    }

    /// Fire all timers due at `now`. Follow with [`TcpStack::poll_transmit`].
    pub fn on_timer(&mut self, now: SimTime) {
        self.settle_timers();
        let mut due = std::mem::take(&mut self.due);
        // Connection order, not deadline order: it is the order `Closed`
        // events are queued in.
        due.extend(
            set_bits(&self.has_timer)
                .filter(|&idx| self.deadline[idx] <= now)
                .map(|idx| idx as u32),
        );
        for &idx in &due {
            let c = &mut self.conns[idx as usize];
            let was_closed = c.is_closed();
            while let Some((deadline, which)) = c.next_timer() {
                if deadline > now {
                    break;
                }
                c.on_timer(now, which);
                // on_timer may not clear the deadline if stale; guard against
                // an infinite loop by breaking when nothing changed.
                if c.next_timer().map(|(t, _)| t) == Some(deadline) {
                    break;
                }
            }
            if !was_closed && c.is_closed() {
                // TIME_WAIT expiry (2·MSL) released the connection.
                self.events.push_back(SockEvent::Closed(ConnId(idx)));
            }
            self.touch(idx as usize);
        }
        due.clear();
        self.due = due;
    }

    /// Drain pending socket events.
    pub fn drain_events(&mut self) -> Vec<SockEvent> {
        self.events.drain(..).collect()
    }

    /// Take the oldest pending socket event.
    pub fn pop_event(&mut self) -> Option<SockEvent> {
        self.events.pop_front()
    }

    /// Number of pending socket events.
    pub fn events_len(&self) -> usize {
        self.events.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastrak_net::addr::{Ip, TenantId};
    use fastrak_net::flow::Proto;

    fn flow(src_port: u16) -> FlowKey {
        FlowKey {
            tenant: TenantId(1),
            src_ip: Ip::new(10, 0, 0, 1),
            dst_ip: Ip::new(10, 0, 0, 2),
            proto: Proto::Tcp,
            src_port,
            dst_port: 7000,
        }
    }

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    /// The index invariants of the module docs, checked against every
    /// connection once the dirty set is settled.
    fn assert_indexed(s: &mut TcpStack) {
        s.settle_timers();
        assert!(s.dirty.is_empty() && s.dirty_bits.iter().all(|&w| w == 0));
        let mut deadlines = Vec::new();
        for (idx, conn) in s.conns.iter().enumerate() {
            let deadline = conn.next_timer().map(|(t, _)| t);
            let has = s.has_timer[idx / 64] & (1 << (idx % 64)) != 0;
            assert_eq!(has.then(|| s.deadline[idx]), deadline, "conn {idx}");
            deadlines.extend(deadline);
            if s.ready[idx / 64] & (1 << (idx % 64)) == 0 {
                let mut polled = conn.clone();
                assert_eq!(polled.poll_transmit(&s.cfg, t(0), s.seg_limit), None);
                assert_eq!(format!("{polled:?}"), format!("{conn:?}"), "conn {idx}");
            }
        }
        assert_eq!(s.n_timers, deadlines.len());
        assert_eq!(s.has_timers(), !deadlines.is_empty());
        assert!(deadlines.iter().all(|&t| s.timer_floor() <= t), "floor");
        // The exact answer is the brute-force minimum, and becomes the floor.
        let earliest = deadlines.iter().copied().min();
        assert_eq!(s.next_timer(), earliest);
        assert!(earliest.is_none_or(|t| s.floor == t));
    }

    /// Shuttle packets between two stacks until quiescent.
    fn pump(a: &mut TcpStack, b: &mut TcpStack, now_us: &mut u64) {
        assert_indexed(a);
        assert_indexed(b);
        loop {
            let mut moved = false;
            while let Some((id, plan)) = a.poll_transmit(t(*now_us), 65_000) {
                let pkt = mk_pkt(a.conn(id).flow, plan);
                b.on_packet(t(*now_us + 10), &pkt);
                *now_us += 10;
                moved = true;
            }
            while let Some((id, plan)) = b.poll_transmit(t(*now_us), 65_000) {
                let pkt = mk_pkt(b.conn(id).flow, plan);
                a.on_packet(t(*now_us + 10), &pkt);
                *now_us += 10;
                moved = true;
            }
            if !moved {
                break;
            }
        }
        assert_indexed(a);
        assert_indexed(b);
    }

    fn mk_pkt(flow: FlowKey, plan: SegmentPlan) -> Packet {
        let mut pkt = Packet::new(
            0,
            flow,
            L4Meta::Tcp {
                seq: plan.seq,
                ack: plan.ack,
                flags: plan.flags,
            },
            plan.len,
            t(0),
        );
        pkt.ecn = plan.ecn;
        pkt.sack = plan.sack;
        pkt
    }

    #[test]
    fn listen_accept_connect_deliver() {
        let mut client = TcpStack::new(TcpConfig::default());
        let mut server = TcpStack::new(TcpConfig::default());
        server.listen(7000);
        let c = client.connect(flow(40_000));
        let mut now = 0;
        pump(&mut client, &mut server, &mut now);
        let cli_events = client.drain_events();
        assert!(cli_events.contains(&SockEvent::Connected(c)));
        let srv_events = server.drain_events();
        assert!(matches!(
            srv_events[0],
            SockEvent::Accepted { port: 7000, .. }
        ));

        // Send data and observe delivery.
        client.app_send(c, 5000);
        pump(&mut client, &mut server, &mut now);
        let delivered: u64 = server
            .drain_events()
            .iter()
            .filter_map(|e| match e {
                SockEvent::Delivered { bytes, .. } => Some(*bytes),
                _ => None,
            })
            .sum();
        assert_eq!(delivered, 5000);
    }

    #[test]
    fn syn_to_closed_port_dropped() {
        let mut client = TcpStack::new(TcpConfig::default());
        let mut server = TcpStack::new(TcpConfig::default());
        // No listener installed.
        let _c = client.connect(flow(40_001));
        let mut now = 0;
        pump(&mut client, &mut server, &mut now);
        assert!(server.is_empty());
        assert!(client.drain_events().is_empty());
    }

    #[test]
    fn two_connections_round_robin() {
        let mut client = TcpStack::new(TcpConfig::default());
        let mut server = TcpStack::new(TcpConfig::default());
        server.listen(7000);
        let c1 = client.connect(flow(40_002));
        let c2 = client.connect(flow(40_003));
        let mut now = 0;
        pump(&mut client, &mut server, &mut now);
        client.drain_events();
        client.app_send(c1, 100);
        client.app_send(c2, 100);
        let (id_a, _) = client.poll_transmit(t(now), 65_000).unwrap();
        let (id_b, _) = client.poll_transmit(t(now), 65_000).unwrap();
        assert_ne!(id_a, id_b, "round robin must alternate connections");
    }

    #[test]
    fn conn_by_flow_resolves() {
        let mut client = TcpStack::new(TcpConfig::default());
        let c = client.connect(flow(40_004));
        assert_eq!(client.conn_by_flow(&flow(40_004)), Some(c));
        assert_eq!(client.conn_by_flow(&flow(1)), None);
    }

    #[test]
    fn close_lifecycle_emits_events_and_reuses_time_wait_flow() {
        let mut client = TcpStack::new(TcpConfig::default());
        let mut server = TcpStack::new(TcpConfig::default());
        server.listen(7000);
        let c = client.connect(flow(40_010));
        let mut now = 0;
        pump(&mut client, &mut server, &mut now);
        let srv_conn = server
            .drain_events()
            .iter()
            .find_map(|e| match e {
                SockEvent::Accepted { conn, .. } => Some(*conn),
                _ => None,
            })
            .unwrap();
        client.drain_events();

        // Client closes; server sees the peer FIN.
        client.close(c);
        pump(&mut client, &mut server, &mut now);
        assert!(server
            .drain_events()
            .contains(&SockEvent::PeerClosed(srv_conn)));
        assert_eq!(server.conn(srv_conn).state(), TcpState::CloseWait);

        // Server closes too; its final ACK retires it, the client enters
        // TIME_WAIT and expires 2·MSL later.
        server.close(srv_conn);
        pump(&mut client, &mut server, &mut now);
        assert!(server.drain_events().contains(&SockEvent::Closed(srv_conn)));
        assert!(client.drain_events().contains(&SockEvent::PeerClosed(c)));
        assert_eq!(client.conn(c).state(), TcpState::TimeWait);
        let deadline = client.next_timer().unwrap();
        client.on_timer(deadline);
        assert!(client.drain_events().contains(&SockEvent::Closed(c)));
        assert!(client.conn(c).is_closed());

        // A fresh SYN on the server's finished flow key replaces the stale
        // incarnation in place (TIME_WAIT/CLOSED reuse).
        let mut client2 = TcpStack::new(TcpConfig::default());
        let c2 = client2.connect(flow(40_010));
        pump(&mut client2, &mut server, &mut now);
        let evs = server.drain_events();
        assert!(evs.contains(&SockEvent::Accepted {
            conn: srv_conn,
            port: 7000
        }));
        assert!(client2.drain_events().contains(&SockEvent::Connected(c2)));
        assert!(server.conn(srv_conn).is_established());
    }

    #[test]
    fn abort_resets_the_peer() {
        let mut client = TcpStack::new(TcpConfig::default());
        let mut server = TcpStack::new(TcpConfig::default());
        server.listen(7000);
        let c = client.connect(flow(40_011));
        let mut now = 0;
        pump(&mut client, &mut server, &mut now);
        let srv_conn = server
            .drain_events()
            .iter()
            .find_map(|e| match e {
                SockEvent::Accepted { conn, .. } => Some(*conn),
                _ => None,
            })
            .unwrap();
        client.abort(c);
        pump(&mut client, &mut server, &mut now);
        assert!(server.drain_events().contains(&SockEvent::Reset(srv_conn)));
        assert!(server.conn(srv_conn).is_closed());
        assert!(client.conn(c).is_closed());
    }

    #[test]
    fn ecn_negotiates_through_the_stack() {
        let cfg = TcpConfig {
            ecn: true,
            ..TcpConfig::default()
        };
        let mut client = TcpStack::new(cfg);
        let mut server = TcpStack::new(cfg);
        server.listen(7000);
        let c = client.connect(flow(40_012));
        let mut now = 0;
        pump(&mut client, &mut server, &mut now);
        let srv_conn = server
            .drain_events()
            .iter()
            .find_map(|e| match e {
                SockEvent::Accepted { conn, .. } => Some(*conn),
                _ => None,
            })
            .unwrap();
        assert!(client.conn(c).ecn_active());
        assert!(server.conn(srv_conn).ecn_active());

        // A non-ECN client against an ECN-capable server: not negotiated.
        let mut plain = TcpStack::new(TcpConfig::default());
        let p = plain.connect(flow(40_013));
        pump(&mut plain, &mut server, &mut now);
        assert!(!plain.conn(p).ecn_active());
    }

    #[test]
    fn stack_timer_aggregates_connections() {
        let mut client = TcpStack::new(TcpConfig::default());
        let _ = client.connect(flow(40_005));
        // SYN not yet sent: no timer.
        assert!(client.next_timer().is_none());
        let _ = client.poll_transmit(t(0), 65_000).unwrap(); // SYN out
        assert!(client.next_timer().is_some());
    }
    /// The sender's segments, carried to `to` at `now`.
    fn carry(from: &mut TcpStack, to: &mut TcpStack, now: SimTime) {
        while let Some((id, plan)) = from.poll_transmit(now, 65_000) {
            to.on_packet(now, &mk_pkt(from.conn(id).flow, plan));
        }
    }

    #[test]
    fn a_deadline_armed_and_cleared_between_two_questions_never_reaches_the_floor() {
        let cfg = TcpConfig::default();
        let mut client = TcpStack::new(cfg);
        let mut server = TcpStack::new(cfg);
        server.listen(7000);
        let c = client.connect(flow(40_020));
        let mut now = 0;
        pump(&mut client, &mut server, &mut now);
        let s = ConnId(0);
        // Request and reply; the reply's RTO is the server's only deadline.
        client.app_send(c, 100);
        carry(&mut client, &mut server, t(1_000));
        server.app_send(s, 100);
        carry(&mut server, &mut client, t(1_010));
        let rto = server.next_timer().expect("reply in flight");
        assert_eq!(server.timer_floor(), rto);
        // The next request acknowledges the reply and, being data, arms the
        // server's delayed ACK — 5 ms out, far earlier than the old RTO...
        client.app_send(c, 100);
        carry(&mut client, &mut server, t(2_000));
        let mut asked_mid_turn = server.clone();
        assert_eq!(asked_mid_turn.timer_floor(), t(2_000) + cfg.delack);
        // ... which the reply, later in the same turn, clears: a stack not
        // asked in between never saw it.
        server.app_send(s, 100);
        carry(&mut server, &mut client, t(2_010));
        assert_eq!(server.timer_floor(), rto);
        assert!(server.next_timer().unwrap() > rto);
        assert_indexed(&mut server);
        assert_indexed(&mut asked_mid_turn);
    }
}
