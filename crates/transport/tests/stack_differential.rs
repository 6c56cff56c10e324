//! Differential test of the indexed [`TcpStack`] against a full-scan
//! reference.
//!
//! `TcpStack` finds the connections that want to transmit through a ready
//! set and the connections whose timers are due through a timer index.
//! [`ScanStack`] below is the stack as it was before those indexes: the same
//! demultiplexing, with `poll_transmit`, `next_timer` and `on_timer` each
//! walking every connection. Both are driven with one seeded stream of
//! operations and must produce, step for step, the same `(ConnId,
//! SegmentPlan)` sequence, the same `next_timer()` and the same `SockEvent`
//! order — and end with every connection in the same state. The lazy timer
//! index's O(1) answers are held to the reference at every step too:
//! `has_timers()` says whether the scan finds a deadline, `timer_floor()` is
//! never later than the scan's minimum, and the exact `next_timer()` leaves
//! the floor at the minimum it returned.
//!
//! Both stacks share [`TcpConn`], so agreeing with each other says nothing
//! about the connection itself. The stream's own output does: every emitted
//! `(ConnId, SegmentPlan)`, every `SockEvent`, the `next_timer()` of each
//! check and the final per-connection `TcpStats` are folded into one hash per
//! scenario, pinned below. A change to `TcpConn` that moves any segment,
//! event, deadline or counter of any seeded scenario moves a pinned value.

use std::collections::{HashMap, HashSet};
use std::hash::Hasher;

use fastrak_net::addr::{Ip, TenantId};
use fastrak_net::flow::{FlowKey, Proto};
use fastrak_net::headers::{ecn, tcp_flags};
use fastrak_net::packet::{L4Meta, Packet, MSS};
use fastrak_sim::time::{SimDuration, SimTime};
use fastrak_sim::{FxHasher, Rng};
use fastrak_transport::{
    CcAlgo, ConnId, Segment, SegmentPlan, SockEvent, TcpConfig, TcpConn, TcpStack, TcpState,
    TcpStats, TSO_LIMIT,
};

// ------------------------------------------------------------ reference --

/// The full-scan stack: three loops over every connection.
struct ScanStack {
    cfg: TcpConfig,
    conns: Vec<TcpConn>,
    by_flow: HashMap<FlowKey, usize>,
    listeners: HashSet<u16>,
    events: Vec<SockEvent>,
    rr_cursor: usize,
}

impl ScanStack {
    fn new(cfg: TcpConfig) -> ScanStack {
        ScanStack {
            cfg,
            conns: Vec::new(),
            by_flow: HashMap::new(),
            listeners: HashSet::new(),
            events: Vec::new(),
            rr_cursor: 0,
        }
    }

    fn connect(&mut self, flow: FlowKey) -> ConnId {
        let id = self.conns.len();
        self.conns.push(TcpConn::client(flow, &self.cfg));
        self.by_flow.insert(flow, id);
        ConnId(id as u32)
    }

    fn on_packet(&mut self, now: SimTime, pkt: &Packet) {
        let L4Meta::Tcp { seq, ack, flags } = pkt.l4 else {
            return;
        };
        let is_bare_syn = flags & tcp_flags::SYN != 0 && flags & tcp_flags::ACK == 0;
        let ecn_requested = flags & tcp_flags::ECE != 0 && flags & tcp_flags::CWR != 0;
        let ours = pkt.flow.reverse();
        let accepts = is_bare_syn && self.listeners.contains(&pkt.flow.dst_port);
        let server = |cfg: &TcpConfig| {
            let mut conn = TcpConn::server(ours, cfg);
            conn.set_peer_ecn_request(ecn_requested);
            conn
        };
        let Some(&idx) = self.by_flow.get(&ours) else {
            if accepts {
                let id = self.conns.len();
                self.conns.push(server(&self.cfg));
                self.by_flow.insert(ours, id);
                self.events.push(SockEvent::Accepted {
                    conn: ConnId(id as u32),
                    port: pkt.flow.dst_port,
                });
            }
            return;
        };
        let conn = ConnId(idx as u32);
        if accepts
            && matches!(
                self.conns[idx].state(),
                TcpState::TimeWait | TcpState::Closed
            )
        {
            self.conns[idx] = server(&self.cfg);
            self.events.push(SockEvent::Accepted {
                conn,
                port: pkt.flow.dst_port,
            });
            return;
        }
        let seg = Segment {
            seq,
            ack,
            flags,
            len: pkt.payload as u64,
            ce: pkt.ecn == ecn::CE,
            sack: pkt.sack,
        };
        let out = self.conns[idx].on_segment(&self.cfg, now, seg);
        if out.connected {
            self.events.push(SockEvent::Connected(conn));
        }
        if out.delivered > 0 {
            self.events.push(SockEvent::Delivered {
                conn,
                bytes: out.delivered,
            });
        }
        if out.peer_fin {
            self.events.push(SockEvent::PeerClosed(conn));
        }
        if out.reset {
            self.events.push(SockEvent::Reset(conn));
        }
        if out.closed {
            self.events.push(SockEvent::Closed(conn));
        }
    }

    fn poll_transmit(&mut self, now: SimTime, seg_limit: u32) -> Option<(ConnId, SegmentPlan)> {
        let n = self.conns.len();
        for off in 0..n {
            let idx = (self.rr_cursor + off) % n;
            if let Some(plan) = self.conns[idx].poll_transmit(&self.cfg, now, seg_limit) {
                self.rr_cursor = (idx + 1) % n;
                return Some((ConnId(idx as u32), plan));
            }
        }
        None
    }

    fn next_timer(&self) -> Option<SimTime> {
        self.conns
            .iter()
            .filter_map(|c| c.next_timer().map(|(t, _)| t))
            .min()
    }

    fn on_timer(&mut self, now: SimTime) {
        for (idx, c) in self.conns.iter_mut().enumerate() {
            let was_closed = c.is_closed();
            while let Some((deadline, which)) = c.next_timer() {
                if deadline > now {
                    break;
                }
                c.on_timer(now, which);
                if c.next_timer().map(|(t, _)| t) == Some(deadline) {
                    break;
                }
            }
            if !was_closed && c.is_closed() {
                self.events.push(SockEvent::Closed(ConnId(idx as u32)));
            }
        }
    }
}

// ----------------------------------------------------- both, in lockstep --

/// The indexed stack and the reference, fed identically. Every method
/// asserts that the two answered alike.
struct Both {
    new: TcpStack,
    old: ScanStack,
    /// Everything this side emitted, folded as it was compared.
    digest: FxHasher,
}

fn fold(h: &mut FxHasher, words: &[u64]) {
    words.iter().for_each(|&w| h.write_u64(w));
}

impl Both {
    fn new(cfg: TcpConfig) -> Both {
        Both {
            new: TcpStack::new(cfg),
            old: ScanStack::new(cfg),
            digest: FxHasher::default(),
        }
    }

    fn listen(&mut self, port: u16) {
        self.new.listen(port);
        self.old.listeners.insert(port);
    }

    fn connect(&mut self, flow: FlowKey) -> ConnId {
        let id = self.new.connect(flow);
        assert_eq!(id, self.old.connect(flow));
        id
    }

    fn app_send(&mut self, conn: ConnId, bytes: u64) -> bool {
        let ok = self.new.app_send(conn, bytes);
        assert_eq!(ok, self.old.conns[conn.0 as usize].app_send(bytes));
        ok
    }

    fn close(&mut self, conn: ConnId) {
        self.new.close(conn);
        self.old.conns[conn.0 as usize].close();
    }

    fn abort(&mut self, conn: ConnId) {
        self.new.abort(conn);
        self.old.conns[conn.0 as usize].abort();
    }

    fn on_packet(&mut self, now: SimTime, pkt: &Packet) {
        self.new.on_packet(now, pkt);
        self.old.on_packet(now, pkt);
    }

    fn on_timer(&mut self, now: SimTime) {
        self.new.on_timer(now);
        self.old.on_timer(now);
    }

    fn poll(&mut self, now: SimTime, seg_limit: u32) -> Option<Packet> {
        let got = self.new.poll_transmit(now, seg_limit);
        assert_eq!(got, self.old.poll_transmit(now, seg_limit), "at {now:?}");
        if let Some((id, p)) = got {
            let head = [id.0 as u64, p.sack.len() as u64, p.seq, p.len as u64];
            let tail = [p.flags as u64, p.ack, p.is_rtx as u64, p.ecn as u64];
            fold(&mut self.digest, &head);
            fold(&mut self.digest, &tail);
            p.sack
                .iter()
                .for_each(|(s, e)| fold(&mut self.digest, &[s, e]));
        }
        got.map(|(id, plan)| packet(self.new.conn(id).flow, plan))
    }

    /// Poll until both are drained; the packets in order.
    fn drain(&mut self, now: SimTime) -> Vec<Packet> {
        std::iter::from_fn(|| self.poll(now, TSO_LIMIT)).collect()
    }

    /// Compare the timer and the queued socket events; returns the events.
    fn check(&mut self) -> Vec<SockEvent> {
        let earliest = self.old.next_timer();
        assert_eq!(self.new.has_timers(), earliest.is_some());
        // The floor as the mutations since the last exact answer left it.
        let floor = self.new.timer_floor();
        assert!(
            earliest.is_none_or(|t| floor <= t),
            "{floor:?} {earliest:?}"
        );
        assert_eq!(self.new.next_timer(), earliest);
        assert!(earliest.is_none_or(|t| self.new.timer_floor() == t));
        let events = self.new.drain_events();
        assert_eq!(events, std::mem::take(&mut self.old.events));
        fold(
            &mut self.digest,
            &[earliest.map_or(u64::MAX, |t| t.as_nanos())],
        );
        for ev in &events {
            let (tag, conn, arg) = match *ev {
                SockEvent::Connected(c) => (0, c, 0),
                SockEvent::Accepted { conn, port } => (1, conn, port as u64),
                SockEvent::Delivered { conn, bytes } => (2, conn, bytes),
                SockEvent::PeerClosed(c) => (3, c, 0),
                SockEvent::Closed(c) => (4, c, 0),
                SockEvent::Reset(c) => (5, c, 0),
            };
            fold(&mut self.digest, &[tag, conn.0 as u64, arg]);
        }
        events
    }

    /// Every connection ended in the same state, private fields included.
    fn assert_same_conns(&self) {
        assert_eq!(self.new.len(), self.old.conns.len());
        for (id, old) in self.new.conn_ids().zip(&self.old.conns) {
            assert_eq!(format!("{:?}", self.new.conn(id)), format!("{old:?}"));
        }
    }
}

fn packet(flow: FlowKey, plan: SegmentPlan) -> Packet {
    let l4 = L4Meta::Tcp {
        seq: plan.seq,
        ack: plan.ack,
        flags: plan.flags,
    };
    let mut pkt = Packet::new(0, flow, l4, plan.len, SimTime::ZERO);
    pkt.ecn = plan.ecn;
    pkt.sack = plan.sack;
    pkt
}

fn flow(i: usize) -> FlowKey {
    FlowKey {
        tenant: TenantId(1),
        src_ip: Ip::new(10, 0, 0, 1),
        dst_ip: Ip::new(10, 0, 0, 2),
        proto: Proto::Tcp,
        src_port: 10_000 + i as u16,
        // Port 7003 has no listener: those SYNs are dropped and retried.
        dst_port: if i % 97 == 96 {
            7003
        } else {
            7000 + (i % 3) as u16
        },
    }
}

fn us(n: u64) -> SimDuration {
    SimDuration::from_micros(n)
}

/// Timers short enough that RTOs, delayed ACKs and TIME_WAIT expiries all
/// fire many times within a run.
fn cfg(sack: bool, cc: CcAlgo) -> TcpConfig {
    TcpConfig {
        min_rto: us(3_000),
        delack: us(200),
        msl: us(2_000),
        sack,
        cc,
        ecn: cc == CcAlgo::Dctcp,
    }
}

// ------------------------------------------------------------ the stream --

/// Side 0 is the server; sides 1.. are successive incarnations of the client
/// host, so that a flow key whose connection finished can be opened again
/// (a `TcpStack` keeps one slot per flow key for good) and the server sees a
/// fresh SYN on a TIME_WAIT / CLOSED slot.
const CLIENT_GENERATIONS: usize = 3;

/// One seeded run of the stream.
#[derive(Clone, Copy)]
struct Scenario {
    seed: u64,
    cfg: TcpConfig,
    /// Flow keys; about three quarters are open from the start, as in the
    /// benchmark's `flow_scale`.
    conns: usize,
    steps: usize,
    /// Per-segment loss probability.
    loss: f64,
    /// The segment limit of most pumps (a host polls with one constant).
    seg_limit: u32,
    /// Scales how often the stream closes and aborts: 1.0 churns through
    /// every flow key's generations, a small value keeps connections alive
    /// long enough for deep loss recoveries.
    teardown: f64,
}

#[derive(Default)]
struct Coverage {
    segments: u64,
    lost: u64,
    slot_reuses: u64,
    closed: u64,
    resets: u64,
    timer_batches: u64,
    timeouts: u64,
    rtx_segs: u64,
    delayed_acks: u64,
    /// Every side's digest and every connection's final `TcpStats`.
    digest: u64,
}

struct World {
    rng: Rng,
    now: SimTime,
    sides: Vec<Both>,
    /// (deliver at, tie-break, destination side, packet), unsorted.
    net: Vec<(SimTime, u64, usize, Packet)>,
    sent: u64,
    sc: Scenario,
    /// Every connection on every side.
    handles: Vec<(usize, ConnId)>,
    /// Per flow index: how many client generations have opened it.
    uses: Vec<usize>,
    accepted: HashSet<ConnId>,
    cov: Coverage,
}

impl World {
    fn new(sc: Scenario) -> World {
        let mut sides: Vec<Both> = (0..=CLIENT_GENERATIONS)
            .map(|_| Both::new(sc.cfg))
            .collect();
        for port in 7000..7003 {
            sides[0].listen(port);
        }
        World {
            rng: Rng::new(sc.seed),
            now: SimTime::ZERO,
            sides,
            net: Vec::new(),
            sent: 0,
            sc,
            handles: Vec::new(),
            uses: vec![0; sc.conns],
            accepted: HashSet::new(),
            cov: Coverage::default(),
        }
    }

    /// Compare one side and fold its socket events into the world.
    fn check(&mut self, side: usize) {
        for ev in self.sides[side].check() {
            match ev {
                SockEvent::Accepted { conn, .. } => {
                    if self.accepted.insert(conn) {
                        self.handles.push((side, conn));
                    } else {
                        self.cov.slot_reuses += 1;
                    }
                }
                // Most applications answer a peer's FIN with their own.
                SockEvent::PeerClosed(conn) if self.rng.chance(0.7) => {
                    self.sides[side].close(conn);
                }
                SockEvent::Closed(_) => self.cov.closed += 1,
                SockEvent::Reset(_) => self.cov.resets += 1,
                _ => {}
            }
        }
    }

    fn open(&mut self, i: usize) {
        let side = 1 + self.uses[i];
        self.uses[i] += 1;
        let conn = self.sides[side].connect(flow(i));
        self.handles.push((side, conn));
        self.check(side);
    }

    /// A connection to act on: half the time one of the eight newest (a hot
    /// few carry most of the bytes, and the set churns as flows open),
    /// otherwise any.
    fn pick(&mut self) -> Option<(usize, ConnId)> {
        let n = self.handles.len() as u64;
        if n == 0 {
            return None;
        }
        let hot = self.rng.chance(0.5);
        let i = n - 1 - self.rng.below(if hot { n.min(8) } else { n });
        Some(self.handles[i as usize])
    }

    /// Poll `side` a bounded number of times (the host's tx ring has a
    /// width, so ready connections are routinely left waiting) and put what
    /// it sends on the lossy, reordering wire.
    fn pump(&mut self, side: usize) {
        let budget = match self.rng.below(10) {
            0..=2 => 0,
            3..=5 => 1 + self.rng.below(4),
            _ => 64,
        };
        self.pump_up_to(side, budget);
    }

    fn pump_up_to(&mut self, side: usize, budget: u64) {
        let seg_limit = match self.sc.seg_limit {
            MSS if self.rng.chance(0.03) => TSO_LIMIT,
            _ if self.rng.chance(0.03) => MSS,
            usual => usual,
        };
        for _ in 0..budget {
            let Some(mut pkt) = self.sides[side].poll(self.now, seg_limit) else {
                break;
            };
            self.check(side);
            self.cov.segments += 1;
            if self.rng.chance(self.sc.loss) {
                self.cov.lost += 1;
                continue;
            }
            // A congested queue marks ECN-capable segments instead.
            if pkt.ecn == ecn::ECT0 && self.rng.chance(0.05) {
                pkt.ecn = ecn::CE;
            }
            let to = if side == 0 {
                // The latest client generation to open this flow owns it.
                self.uses[(pkt.flow.dst_port - 10_000) as usize]
            } else {
                0
            };
            // Mild reordering often; now and then a straggler that a whole
            // burst (and its duplicate ACKs) overtakes.
            let jitter = match self.rng.below(100) {
                0..=24 => self.rng.below(400),
                25..=30 => 300 + self.rng.below(1_500),
                _ => 0,
            };
            self.sent += 1;
            self.net
                .push((self.now + us(50 + jitter), self.sent, to, pkt));
        }
        self.check(side);
    }

    /// Move the clock — to the next thing due, or by a stride long enough to
    /// make several timers due at once — then deliver and fire.
    fn advance(&mut self) {
        // Hosts do not sit on segments while the wire is idle: without this
        // the clock runs on to an RTO that only the stream's own pacing
        // caused, and every loss is repaired by timeout.
        if self.net.is_empty() && self.rng.chance(0.9) {
            (0..self.sides.len()).for_each(|side| self.pump_up_to(side, 64));
        }
        let next_due = self
            .net
            .iter()
            .map(|e| e.0)
            .chain(self.sides.iter_mut().filter_map(|s| s.new.next_timer()))
            .min();
        self.now = match next_due {
            Some(t) if self.rng.chance(0.6) => t.max(self.now),
            _ if self.rng.chance(0.7) => self.now + us(1 + self.rng.below(300)),
            _ => self.now + us(1 + self.rng.below(3_000)),
        };
        let now = self.now;
        let (mut due, later): (Vec<_>, Vec<_>) = std::mem::take(&mut self.net)
            .into_iter()
            .partition(|e| e.0 <= now);
        self.net = later;
        due.sort_by_key(|e| (e.0, e.1));
        for (_, _, to, pkt) in due {
            self.sides[to].on_packet(now, &pkt);
            self.check(to);
            // A host pumps after every segment it receives (each
            // out-of-order one gets its own duplicate ACK that way).
            self.pump(to);
        }
        for side in 0..self.sides.len() {
            let fires = self.sides[side].new.next_timer().is_some_and(|t| t <= now);
            // Now and then with nothing due: must be a no-op in both.
            if fires || self.rng.chance(0.05) {
                self.cov.timer_batches += fires as u64;
                self.sides[side].on_timer(now);
                self.check(side);
            }
        }
    }

    fn step(&mut self) {
        match self.rng.below(100) {
            0..=5 => {
                if let Some(i) = self.uses.iter().position(|&u| u == 0) {
                    self.open(i);
                }
            }
            6..=34 => {
                if let Some((side, conn)) = self.pick() {
                    let bytes = [1, 100, 1448, 5_000, 10_000, 20_000, 100_000, 600_000]
                        [self.rng.below(8) as usize];
                    self.sides[side].app_send(conn, bytes);
                    self.check(side);
                }
            }
            r @ 35..=39 if self.rng.chance(self.sc.teardown) => {
                if let Some((side, conn)) = self.pick() {
                    match r {
                        39 => self.sides[side].abort(conn),
                        _ => self.sides[side].close(conn),
                    }
                    self.check(side);
                }
            }
            35..=39 => {}
            40..=43 => {
                // Re-open a flow from the next client generation once both
                // ends of its last incarnation finished. Stragglers of the
                // old incarnation are purged from the wire: `TcpConn` trusts
                // its peer never to acknowledge what was not sent.
                let i = self.rng.below(self.uses.len() as u64) as usize;
                let gen = self.uses[i];
                let finished = |stack: &TcpStack, flow: &FlowKey| {
                    stack.conn_by_flow(flow).is_some_and(|id| {
                        matches!(
                            stack.conn(id).state(),
                            TcpState::Closed | TcpState::TimeWait
                        )
                    })
                };
                if (1..CLIENT_GENERATIONS).contains(&gen)
                    && finished(&self.sides[gen].new, &flow(i))
                    && finished(&self.sides[0].new, &flow(i).reverse())
                {
                    self.net
                        .retain(|e| e.3.flow != flow(i) && e.3.flow != flow(i).reverse());
                    self.open(i);
                }
            }
            44 => {
                // `TcpStack: Clone` carries the indexes with it.
                let side = self.rng.below(self.sides.len() as u64) as usize;
                self.sides[side].new = self.sides[side].new.clone();
            }
            45..=74 => {
                // Mostly the two busy hosts: the server and the first client.
                let side = match self.rng.below(10) {
                    0..=3 => 0,
                    4..=7 => 1,
                    _ => 2 + self.rng.below(CLIENT_GENERATIONS as u64 - 1) as usize,
                };
                self.pump(side);
            }
            _ => self.advance(),
        }
    }

    fn finish(mut self) -> Coverage {
        let mut h = FxHasher::default();
        for side in &self.sides {
            side.assert_same_conns();
            fold(&mut h, &[side.digest.finish()]);
            for id in side.new.conn_ids() {
                // Destructured in full: a new counter has to be folded too.
                let TcpStats {
                    segs_tx,
                    segs_rx,
                    acks_tx,
                    dup_acks_rx,
                    fast_retransmits,
                    timeouts,
                    ooo_segs_rx,
                    bytes_acked,
                    bytes_delivered,
                    delayed_acks,
                    rtx_segs,
                    ecn_ce_rx,
                    ecn_ece_rx,
                    ecn_ece_tx,
                    ecn_cwr_tx,
                } = side.new.conn(id).stats;
                self.cov.timeouts += timeouts;
                self.cov.rtx_segs += rtx_segs;
                self.cov.delayed_acks += delayed_acks;
                fold(
                    &mut h,
                    &[
                        segs_tx,
                        segs_rx,
                        acks_tx,
                        dup_acks_rx,
                        fast_retransmits,
                        timeouts,
                        ooo_segs_rx,
                        bytes_acked,
                        bytes_delivered,
                        delayed_acks,
                        rtx_segs,
                        ecn_ce_rx,
                        ecn_ece_rx,
                        ecn_ece_tx,
                        ecn_cwr_tx,
                    ],
                );
            }
        }
        self.cov.digest = h.finish();
        self.cov
    }
}

fn run(sc: Scenario) -> Coverage {
    let mut w = World::new(sc);
    for i in 0..sc.conns * 3 / 4 {
        w.open(i);
    }
    for _ in 0..sc.steps {
        w.step();
    }
    w.finish()
}

/// The digests of a test's runs, in run order, against the values recorded
/// when the receiver began ACKing a segment that fills a reassembly hole at
/// once instead of arming the delayed ACK (RFC 5681 §4.2). The wire
/// reorders even where it loses nothing, so that moved every scenario but
/// the 1- and 3-connection runs, whose receivers filled no hole. A mismatch
/// prints the whole list; re-record only with the change that moved a
/// simulated outcome named here.
fn assert_pinned(got: &[u64], pinned: &[u64]) {
    assert!(got == pinned, "digests moved, now {got:#018x?}");
}

#[test]
fn indexed_stack_matches_full_scan_across_sizes() {
    let mut digests = Vec::new();
    // 63/64/65/128/129 straddle the ready set's word boundaries.
    for (n, conns) in [1, 2, 3, 63, 64, 65, 128, 129, 300].into_iter().enumerate() {
        for sack in [false, true] {
            let cov = run(Scenario {
                seed: 100 + n as u64,
                cfg: cfg(sack, [CcAlgo::Reno, CcAlgo::Cubic, CcAlgo::Dctcp][n % 3]),
                conns,
                steps: 3_000,
                loss: 0.03,
                seg_limit: if n % 2 == 0 { TSO_LIMIT } else { MSS },
                teardown: 1.0,
            });
            digests.push(cov.digest);
        }
    }
    // Reno, CUBIC, DCTCP+ECN in turn; without and with SACK each.
    assert_pinned(
        &digests,
        &[
            0xc446ce54ef49362c,
            0xc446ce54ef49362c,
            0x71537b5530407c07,
            0x2723affb71758103,
            0xefc5db7a8962b622,
            0x0e007160e2b0d7c2,
            0xee9ce933ac0559b5,
            0x3a952e424d77d2b9,
            0x619efc3e9f9259ed,
            0x446d2873eaa28e6f,
            0x0c5eb144999e64e4,
            0xb8bab94f8d389bc6,
            0x72e6fc236c531d6e,
            0x315ac232ce6f9d6c,
            0x701962431a789bd6,
            0x02e8744918f0ca0d,
            0x4fcc482f5db1d378,
            0x55b80ba7cad52080,
        ],
    );
}

#[test]
fn indexed_stack_matches_full_scan_at_600_connections() {
    let mut digests = Vec::new();
    for sack in [false, true] {
        let cov = run(Scenario {
            seed: 7,
            cfg: cfg(sack, CcAlgo::Reno),
            conns: 600,
            steps: 6_000,
            loss: 0.03,
            seg_limit: TSO_LIMIT,
            teardown: 1.0,
        });
        // The stream reached what it is there to reach.
        assert!(cov.segments > 10_000 && cov.lost > 300, "traffic");
        assert!(cov.timeouts > 200, "RTOs fired: {}", cov.timeouts);
        assert!(cov.rtx_segs > 400, "retransmits: {}", cov.rtx_segs);
        assert!(cov.delayed_acks > 300, "delayed ACKs: {}", cov.delayed_acks);
        assert!(cov.timer_batches > 300, "timer batches");
        assert!(cov.closed > 100, "closes: {}", cov.closed);
        assert!(cov.resets > 20, "resets: {}", cov.resets);
        assert!(cov.slot_reuses > 10, "slot reuses: {}", cov.slot_reuses);
        digests.push(cov.digest);
    }
    assert_pinned(&digests, &[0x34d5500dbf1a69e4, 0x4d1bf3533b4b58a6]);
}

#[test]
fn few_long_lived_connections_in_deep_recoveries() {
    let mut digests = Vec::new();
    for sack in [false, true] {
        let cov = run(Scenario {
            seed: 21,
            cfg: cfg(sack, CcAlgo::Cubic),
            conns: 12,
            steps: 60_000,
            loss: 0.02,
            seg_limit: MSS,
            teardown: 0.02,
        });
        // Duplicate ACKs, not timeouts, repair most losses here.
        assert!(cov.rtx_segs > 3 * cov.timeouts, "fast retransmits");
        digests.push(cov.digest);
    }
    assert_pinned(&digests, &[0x0556b6898c97355b, 0xdf140e58606cc950]);
}

#[test]
fn lossless_stream_matches_too() {
    // No loss: long ack-clocked runs, window-limited senders, idle timers.
    let cov = run(Scenario {
        seed: 11,
        cfg: cfg(false, CcAlgo::Reno),
        conns: 40,
        steps: 20_000,
        loss: 0.0,
        seg_limit: MSS,
        teardown: 1.0,
    });
    assert_pinned(&[cov.digest], &[0x73bac0ca33a9cb8d]);
}

// ------------------------------------------------------- targeted cases --

/// Handshake `n` connections between a client and a listening server. The
/// server accepts in connect order, so both sides number them alike.
fn established(cfg: TcpConfig, n: usize) -> (Both, Both) {
    assert!(n <= 96, "flow(96) targets the closed port");
    let mut client = Both::new(cfg);
    let mut server = Both::new(cfg);
    (7000..7003).for_each(|port| server.listen(port));
    for i in 0..n {
        assert_eq!(client.connect(flow(i)), ConnId(i as u32));
    }
    shuttle(&mut client, &mut server, SimTime::ZERO);
    for id in client.new.conn_ids() {
        assert!(client.new.conn(id).is_established());
        assert_eq!(server.new.conn(id).flow, flow(id.0 as usize).reverse());
    }
    client.check();
    server.check();
    (client, server)
}

/// Carry packets both ways at one instant until neither side has any.
fn shuttle(a: &mut Both, b: &mut Both, now: SimTime) {
    loop {
        let ab = a.drain(now);
        ab.iter().for_each(|p| b.on_packet(now, p));
        let ba = b.drain(now);
        ba.iter().for_each(|p| a.on_packet(now, p));
        if ab.is_empty() && ba.is_empty() {
            return;
        }
    }
}

fn t(micros: u64) -> SimTime {
    SimTime::from_micros(micros)
}

/// Which connection sent `pkt` (a client's `flow(i)` or the server's reply).
fn conn_of(pkt: &Packet) -> usize {
    (pkt.flow.src_port.max(pkt.flow.dst_port) - 10_000) as usize
}

fn seq_of(pkt: &Packet) -> u64 {
    match pkt.l4 {
        L4Meta::Tcp { seq, .. } => seq,
        _ => unreachable!("TCP only"),
    }
}

#[test]
fn stale_holes_do_not_strand_the_live_retransmit_behind_them() {
    let (mut client, mut server) = established(cfg(true, CcAlgo::Reno), 1);
    let c = ConnId(0);
    // Eight 1000-byte segments at seq 1, 1001, …; 0, 2 and 4 go missing.
    for _ in 0..8 {
        assert!(client.app_send(c, 1_000));
    }
    let segs = client.drain(t(10));
    assert_eq!(segs.len(), 8);
    let mut acks = Vec::new();
    for i in [1, 3, 5, 6, 7] {
        server.on_packet(t(60), &segs[i]);
        acks.extend(server.drain(t(60)));
    }
    assert_eq!(acks.len(), 5, "one dup-ACK per out-of-order segment");
    // The client takes all five before its next pump: the third starts SACK
    // recovery and queues hole 0, the fourth and fifth queue holes 2 and 4.
    acks.iter().for_each(|a| client.on_packet(t(110), a));
    // Segments 0 and 2 were only delayed. Their cumulative ACKs (up to
    // 4001) overtake the queued retransmissions: two stale holes, then the
    // live one.
    let mut late = Vec::new();
    for i in [0, 2] {
        server.on_packet(t(120), &segs[i]);
        late.extend(server.drain(t(120)));
    }
    late.iter().for_each(|a| client.on_packet(t(170), a));
    client.check();
    // Each poll drops one stale hole and, with nothing else to send, says
    // `None` — which ends a host pump. The connection has to stay ready
    // through both, or hole 4 waits for an RTO.
    assert!(client.poll(t(170), TSO_LIMIT).is_none());
    assert!(client.poll(t(171), TSO_LIMIT).is_none());
    let rtx = client.poll(t(172), TSO_LIMIT).expect("hole 4");
    assert_eq!((seq_of(&rtx), rtx.payload), (4_001, 1_000));
    assert!(client.poll(t(173), TSO_LIMIT).is_none());
    client.check();
    assert_eq!(client.new.conn(c).stats.rtx_segs, 1);
}

#[test]
fn round_robin_wraps_past_the_last_ready_connection() {
    let (mut client, _server) = established(TcpConfig::default(), 70);
    let send = |client: &mut Both, i: u32| assert!(client.app_send(ConnId(i), 10));
    let order = |pkts: Vec<Packet>| pkts.iter().map(conn_of).collect::<Vec<_>>();
    // Park the cursor behind connection 68, then make 69 (ahead of it, in
    // the second ready-set word) and 3 (reachable only by wrapping) ready.
    send(&mut client, 68);
    assert_eq!(order(client.drain(t(1))), [68]);
    send(&mut client, 3);
    send(&mut client, 69);
    assert_eq!(order(client.drain(t(2))), [69, 3]);
    // Nothing was ready at the end of that drain: the cursor stayed where
    // the last transmission left it (behind 3), so of two newly ready
    // connections the one after it goes first.
    send(&mut client, 2);
    send(&mut client, 5);
    assert_eq!(order(client.drain(t(3))), [5, 2]);
    client.check();
}

#[test]
fn connection_accepted_between_two_polls_joins_the_rotation() {
    let cfg = TcpConfig::default();
    let (_client, mut server) = established(cfg, 64);
    // The server's cursor wrapped to 0 after its 64th SYN|ACK. Replies are
    // queued on 0 and 63; between the two polls that send them a 65th
    // connection arrives and opens a new ready-set word.
    assert!(server.app_send(ConnId(0), 100));
    assert!(server.app_send(ConnId(63), 100));
    let first = server.poll(t(6), TSO_LIMIT).expect("reply on 0");
    assert_eq!(conn_of(&first), 0);
    let mut latecomer = Both::new(cfg);
    latecomer.connect(flow(64));
    let syn = latecomer.drain(t(6));
    server.on_packet(t(7), &syn[0]);
    let rest: Vec<usize> = server.drain(t(7)).iter().map(conn_of).collect();
    assert_eq!(rest, [63, 64], "the reply, then the newcomer's SYN|ACK");
    assert!(server.check().contains(&SockEvent::Accepted {
        conn: ConnId(64),
        port: flow(64).dst_port
    }));
}

#[test]
fn time_wait_deadline_leaves_with_the_slot_it_belonged_to() {
    let cfg = cfg(false, CcAlgo::Reno);
    let (mut client, mut server) = established(cfg, 1);
    // The server closes first, so it is the one left in TIME_WAIT.
    server.close(ConnId(0));
    shuttle(&mut server, &mut client, t(100));
    client.close(ConnId(0));
    shuttle(&mut client, &mut server, t(200));
    assert_eq!(server.new.conn(ConnId(0)).state(), TcpState::TimeWait);
    assert_eq!(server.new.next_timer(), Some(t(200) + cfg.msl * 2));
    server.check();
    // A second client host opens the same flow key before 2·MSL is up.
    let mut client2 = Both::new(cfg);
    client2.connect(flow(0));
    let syn = client2.drain(t(300));
    server.on_packet(t(350), &syn[0]);
    assert_eq!(
        server.new.next_timer(),
        None,
        "a fresh SYN_RCVD has no timer"
    );
    let accepted = SockEvent::Accepted {
        conn: ConnId(0),
        port: 7000,
    };
    assert_eq!(server.check(), [accepted]);
    // Its SYN|ACK arms the RTO, and that is the stack's only deadline.
    let synack = server.drain(t(350));
    assert_eq!(synack.len(), 1);
    assert!(server.new.next_timer().is_some());
    server.check();
    client2.on_packet(t(400), &synack[0]);
    shuttle(&mut client2, &mut server, t(400));
    assert!(server.new.conn(ConnId(0)).is_established());
    server.check();
    server.assert_same_conns();
}
