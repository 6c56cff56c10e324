//! The TCP connection state machine (sans-IO).
//!
//! Implements the full RFC 793 lifecycle (both open paths, both close
//! paths, simultaneous open/close, RST, TIME_WAIT with 2·MSL expiry) plus
//! loss recovery (NewReno, SACK scoreboard repair when enabled, and
//! go-back-N over the flight after a timeout),
//! RFC 3168/8257 ECN, and pluggable congestion control ([`crate::cc`]).
//! Sequence numbers are 64-bit internally so multi-gigabyte transfers
//! never wrap.
//!
//! [`TcpConn`] itself owns the lifecycle and the send sequence space; what
//! is believed lost lives in [`crate::recovery`], what was received and is
//! owed an ACK in [`crate::receiver`], the window in [`crate::cc`], the
//! timeout in [`crate::rtt`]. [`TcpConn::on_segment`] runs a segment
//! through a fixed order of phases (RST → lifecycle → ACK → data → peer
//! FIN) and [`TcpConn::poll_transmit`] asks a fixed order of emitters (RST,
//! handshake, retransmit, new data, FIN, pure ACK) for the next segment.

use std::collections::VecDeque;

use fastrak_net::flow::FlowKey;
use fastrak_net::headers::{ecn, tcp_flags};
use fastrak_net::packet::{SackBlocks, MSS};
use fastrak_sim::time::{SimDuration, SimTime};

use crate::cc::{Cc, CcAlgo};
use crate::receiver::Receiver;
use crate::recovery::{DupAck, NewAck, Recovery, SendSeq};
use crate::rtt::RttEstimator;

/// Maximum bytes one (TSO super-)segment may carry.
pub const TSO_LIMIT: u32 = 65_535 - 54;

/// Initial congestion window (Linux IW10).
const INITIAL_CWND: u32 = 10 * MSS;

/// Connection state (RFC 793 §3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpState {
    /// No connection.
    Closed,
    /// Passive open: waiting for a SYN.
    Listen,
    /// Client sent SYN, waiting for SYN|ACK.
    SynSent,
    /// Server received SYN, sent SYN|ACK, waiting for ACK.
    SynRcvd,
    /// Fully open.
    Established,
    /// We closed first: FIN sent, waiting for its ACK.
    FinWait1,
    /// Our FIN is acknowledged; waiting for the peer's FIN.
    FinWait2,
    /// Simultaneous close: FINs crossed, waiting for our FIN's ACK.
    Closing,
    /// Peer closed first; the application may still send.
    CloseWait,
    /// We closed after the peer: FIN sent, waiting for its ACK.
    LastAck,
    /// Both FINs exchanged; lingering 2·MSL to absorb stray segments.
    TimeWait,
}

impl TcpState {
    /// Every state, in declaration order: `ALL[s as usize] == s`.
    pub const ALL: [TcpState; 11] = {
        use TcpState::*;
        [
            Closed,
            Listen,
            SynSent,
            SynRcvd,
            Established,
            FinWait1,
            FinWait2,
            Closing,
            CloseWait,
            LastAck,
            TimeWait,
        ]
    };

    /// The state's name as telemetry series spell it.
    pub fn name(self) -> &'static str {
        match self {
            TcpState::Closed => "closed",
            TcpState::Listen => "listen",
            TcpState::SynSent => "syn_sent",
            TcpState::SynRcvd => "syn_rcvd",
            TcpState::Established => "established",
            TcpState::FinWait1 => "fin_wait_1",
            TcpState::FinWait2 => "fin_wait_2",
            TcpState::Closing => "closing",
            TcpState::CloseWait => "close_wait",
            TcpState::LastAck => "last_ack",
            TcpState::TimeWait => "time_wait",
        }
    }

    /// Synchronized and not yet lingering: segments are processed for their
    /// ACK, data and FIN, and data, FIN and ACKs may be sent.
    pub fn carries_data(self) -> bool {
        use TcpState::*;
        matches!(
            self,
            Established | FinWait1 | FinWait2 | Closing | CloseWait | LastAck
        )
    }
}

/// Which of the connection's timers fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpTimer {
    /// Retransmission timeout.
    Rto,
    /// Delayed-ACK timeout.
    DelAck,
    /// 2·MSL TIME_WAIT expiry.
    TimeWait,
}

/// Tuning knobs, defaulted to Linux-3.5-era behaviour (the paper's kernel).
/// The segment size is the wire's [`MSS`], the initial window ten of them,
/// and every second segment (or 2·MSS bytes) is acknowledged at once.
#[derive(Debug, Clone, Copy)]
pub struct TcpConfig {
    /// Minimum retransmission timeout (Linux: 200 ms).
    pub min_rto: SimDuration,
    /// Delayed-ACK flush timeout.
    pub delack: SimDuration,
    /// Receive-window stand-in: the peer never has more than this in
    /// flight. Keeps slow start from overrunning drop-tail rings (Linux
    /// bounds this via rcv_wnd/tcp_rmem autotuning).
    pub max_cwnd: u64,
    /// Send-buffer cap: unsent + in-flight bytes the app may have queued.
    pub send_buf: u64,
    /// Congestion-control algorithm.
    pub cc: CcAlgo,
    /// Negotiate and react to ECN (RFC 3168; per-segment echo when
    /// `cc = Dctcp`, RFC 8257).
    pub ecn: bool,
    /// Advertise and use SACK for loss recovery (RFC 6675, simplified).
    pub sack: bool,
    /// Maximum segment lifetime; TIME_WAIT lingers 2·MSL.
    pub msl: SimDuration,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            min_rto: SimDuration::from_millis(200),
            delack: SimDuration::from_millis(5),
            max_cwnd: 768 * 1024,
            send_buf: 4 * 1024 * 1024,
            cc: CcAlgo::Reno,
            ecn: false,
            sack: false,
            msl: SimDuration::from_secs(30),
        }
    }
}

/// Counters the experiments read (Fig. 12 reports retransmits/timeouts).
#[derive(Debug, Clone, Copy, Default)]
pub struct TcpStats {
    /// Data segments transmitted (including retransmits).
    pub segs_tx: u64,
    /// Data segments received in order.
    pub segs_rx: u64,
    /// Pure ACKs transmitted.
    pub acks_tx: u64,
    /// Duplicate ACKs received.
    pub dup_acks_rx: u64,
    /// Fast retransmissions performed.
    pub fast_retransmits: u64,
    /// RTO expirations.
    pub timeouts: u64,
    /// Out-of-order segments received.
    pub ooo_segs_rx: u64,
    /// Bytes cumulatively acknowledged by the peer.
    pub bytes_acked: u64,
    /// Bytes delivered in order to the application.
    pub bytes_delivered: u64,
    /// Delayed ACKs sent on timer expiry.
    pub delayed_acks: u64,
    /// Segments retransmitted (fast retransmit, SACK repair, or RTO).
    pub rtx_segs: u64,
    /// Segments received carrying a CE mark.
    pub ecn_ce_rx: u64,
    /// ACKs received with ECE set (congestion echoed to us as sender).
    pub ecn_ece_rx: u64,
    /// Segments we sent with ECE set (echoing congestion as receiver).
    pub ecn_ece_tx: u64,
    /// Data segments we sent with CWR set (window-reduction signal).
    pub ecn_cwr_tx: u64,
}

impl TcpStats {
    /// Every counter under its field name, in declaration order.
    pub fn fields(&self) -> [(&'static str, u64); 15] {
        [
            ("segs_tx", self.segs_tx),
            ("segs_rx", self.segs_rx),
            ("acks_tx", self.acks_tx),
            ("dup_acks_rx", self.dup_acks_rx),
            ("fast_retransmits", self.fast_retransmits),
            ("timeouts", self.timeouts),
            ("ooo_segs_rx", self.ooo_segs_rx),
            ("bytes_acked", self.bytes_acked),
            ("bytes_delivered", self.bytes_delivered),
            ("delayed_acks", self.delayed_acks),
            ("rtx_segs", self.rtx_segs),
            ("ecn_ce_rx", self.ecn_ce_rx),
            ("ecn_ece_rx", self.ecn_ece_rx),
            ("ecn_ece_tx", self.ecn_ece_tx),
            ("ecn_cwr_tx", self.ecn_cwr_tx),
        ]
    }
}

impl std::ops::AddAssign<&TcpStats> for TcpStats {
    fn add_assign(&mut self, o: &TcpStats) {
        self.segs_tx += o.segs_tx;
        self.segs_rx += o.segs_rx;
        self.acks_tx += o.acks_tx;
        self.dup_acks_rx += o.dup_acks_rx;
        self.fast_retransmits += o.fast_retransmits;
        self.timeouts += o.timeouts;
        self.ooo_segs_rx += o.ooo_segs_rx;
        self.bytes_acked += o.bytes_acked;
        self.bytes_delivered += o.bytes_delivered;
        self.delayed_acks += o.delayed_acks;
        self.rtx_segs += o.rtx_segs;
        self.ecn_ce_rx += o.ecn_ce_rx;
        self.ecn_ece_rx += o.ecn_ece_rx;
        self.ecn_ece_tx += o.ecn_ece_tx;
        self.ecn_cwr_tx += o.ecn_cwr_tx;
    }
}

/// One received segment, as [`TcpConn::on_segment`] takes it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Segment {
    /// Sequence number of the first payload byte.
    pub seq: u64,
    /// Cumulative ACK carried (meaningful under the ACK flag).
    pub ack: u64,
    /// TCP flags.
    pub flags: u8,
    /// Payload length.
    pub len: u64,
    /// The IP layer marked it Congestion Experienced.
    pub ce: bool,
    /// SACK blocks carried.
    pub sack: SackBlocks,
}

/// One segment the connection wants transmitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentPlan {
    /// Sequence number of the first payload byte.
    pub seq: u64,
    /// Payload length (0 for pure ACKs, bare SYN, FIN, RST).
    pub len: u32,
    /// TCP flags.
    pub flags: u8,
    /// Cumulative ACK to carry.
    pub ack: u64,
    /// True when this is a retransmission.
    pub is_rtx: bool,
    /// IP ECN codepoint to stamp on the packet (ECT(0) on data segments
    /// of ECN-negotiated connections, Not-ECT otherwise).
    pub ecn: u8,
    /// SACK blocks to carry (empty unless `TcpConfig::sack`).
    pub sack: SackBlocks,
}

/// What happened when a segment was processed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RxOutcome {
    /// Bytes newly delivered in order to the application.
    pub delivered: u64,
    /// The connection just became Established.
    pub connected: bool,
    /// The peer's FIN was consumed: no more data will arrive.
    pub peer_fin: bool,
    /// A RST arrived; the connection is dead.
    pub reset: bool,
    /// The connection fully closed (LAST_ACK's FIN was acknowledged).
    pub closed: bool,
}

/// A TCP connection (one direction pair).
#[derive(Debug, Clone)]
pub struct TcpConn {
    /// Our outgoing flow key.
    pub flow: FlowKey,
    state: TcpState,
    cfg: TcpConfig,

    // --- send side ---
    snd_una: u64,
    snd_nxt: u64,
    cc: Cc,
    /// App writes not yet (fully) transmitted; front may be partially sent.
    write_q: VecDeque<u64>,
    queued_bytes: u64,
    recovery: Recovery,
    rtt: RttEstimator,
    rto_deadline: Option<SimTime>,
    /// SYN / SYN|ACK emitted (reset by the RTO to re-emit it).
    syn_sent: bool,

    // --- close machinery ---
    /// `close()` was called; emit a FIN once the send queue drains.
    fin_pending: bool,
    fin_sent: bool,
    /// Sequence number our FIN occupies (valid once `fin_sent`).
    fin_seq: u64,
    /// `abort()` was called; emit a RST.
    rst_pending: bool,
    timewait_deadline: Option<SimTime>,

    // --- ECN ---
    /// The peer's SYN requested ECN (server side, pre-SYN|ACK).
    peer_ecn: bool,
    /// ECN negotiated on this connection.
    ecn_active: bool,
    /// Sender owes the peer a CWR on its next data segment.
    cwr_pending: bool,

    rx: Receiver,

    /// Public counters.
    pub stats: TcpStats,
}

/// Clear `*deadline` if it is due at `now`; a timer that fires before its
/// deadline is stale and leaves it armed.
fn expire(deadline: &mut Option<SimTime>, now: SimTime) -> bool {
    let due = deadline.is_some_and(|d| now >= d);
    if due {
        *deadline = None;
    }
    due
}

impl TcpConn {
    /// Create the client side; the first [`TcpConn::poll_transmit`] emits
    /// the SYN.
    pub fn client(flow: FlowKey, cfg: TcpConfig) -> TcpConn {
        TcpConn::new(flow, cfg, TcpState::SynSent)
    }

    /// Create the server side in response to a received SYN; the first
    /// [`TcpConn::poll_transmit`] emits the SYN|ACK. Call
    /// [`TcpConn::set_peer_ecn_request`] first if the SYN carried ECE|CWR.
    pub fn server(flow: FlowKey, cfg: TcpConfig) -> TcpConn {
        let mut c = TcpConn::new(flow, cfg, TcpState::SynRcvd);
        c.rx.rcv_nxt = 1; // peer's SYN consumed
        c.rx.need_ack_now = true;
        c
    }

    /// Create a passive listener; it transitions to SynRcvd when a SYN is
    /// fed to [`TcpConn::on_segment`].
    pub fn listen(flow: FlowKey, cfg: TcpConfig) -> TcpConn {
        TcpConn::new(flow, cfg, TcpState::Listen)
    }

    fn new(flow: FlowKey, cfg: TcpConfig, state: TcpState) -> TcpConn {
        TcpConn {
            flow,
            state,
            cfg,
            snd_una: 0,
            snd_nxt: 0,
            cc: Cc::new(cfg.cc, INITIAL_CWND as f64),
            write_q: VecDeque::new(),
            queued_bytes: 0,
            recovery: Recovery::new(cfg.sack),
            rtt: RttEstimator::new(cfg.min_rto),
            rto_deadline: None,
            syn_sent: false,
            fin_pending: false,
            fin_sent: false,
            fin_seq: 0,
            rst_pending: false,
            timewait_deadline: None,
            peer_ecn: false,
            ecn_active: false,
            cwr_pending: false,
            rx: Receiver::default(),
            stats: TcpStats::default(),
        }
    }

    /// Connection state.
    pub fn state(&self) -> TcpState {
        self.state
    }

    /// Established and ready to carry data?
    pub fn is_established(&self) -> bool {
        self.state == TcpState::Established
    }

    /// Fully closed (all resources reclaimable)?
    pub fn is_closed(&self) -> bool {
        self.state == TcpState::Closed
    }

    /// Did ECN negotiation succeed on this connection?
    pub fn ecn_active(&self) -> bool {
        self.ecn_active
    }

    /// Server side: record whether the peer's SYN requested ECN (ECE|CWR).
    pub fn set_peer_ecn_request(&mut self, requested: bool) {
        self.peer_ecn = requested;
    }

    /// Bytes in flight (sent, unacknowledged; includes a sent FIN).
    pub fn flight(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    /// Current congestion window in bytes.
    pub fn cwnd(&self) -> u64 {
        self.cc.cwnd() as u64
    }

    /// Effective send window: cwnd clamped by the receive-window stand-in.
    pub fn effective_wnd(&self) -> u64 {
        self.cwnd().min(self.cfg.max_cwnd)
    }

    /// Current smoothed RTT estimate, if sampled.
    pub fn srtt(&self) -> Option<SimDuration> {
        self.rtt.srtt().map(SimDuration::from_secs_f64)
    }

    /// Unsent bytes buffered from the application.
    pub fn unsent(&self) -> u64 {
        self.queued_bytes
    }

    /// Room left in the send buffer.
    pub fn send_buf_space(&self) -> u64 {
        self.cfg
            .send_buf
            .saturating_sub(self.queued_bytes + self.flight())
    }

    /// The send sequence space, with the end of sent *data* (a sent FIN
    /// sits above it).
    fn send_seq(&self) -> SendSeq {
        SendSeq {
            una: self.snd_una,
            nxt: self.snd_nxt,
            data_nxt: if self.fin_sent {
                self.fin_seq
            } else {
                self.snd_nxt
            },
        }
    }

    /// Queue an application write of `bytes` (its boundary is preserved:
    /// these bytes never share a segment with another write).
    /// Returns false (rejecting the write) when the send buffer is full or
    /// the send side has already been closed.
    pub fn app_send(&mut self, bytes: u64) -> bool {
        use TcpState::*;
        if !matches!(self.state, SynSent | SynRcvd | Established | CloseWait) {
            return false;
        }
        if bytes == 0 || bytes > self.send_buf_space() {
            return bytes == 0;
        }
        self.write_q.push_back(bytes);
        self.queued_bytes += bytes;
        true
    }

    /// Close the send side (active close). Queued data (and then a FIN)
    /// still drain via [`TcpConn::poll_transmit`].
    pub fn close(&mut self) {
        match self.state {
            TcpState::Established | TcpState::SynRcvd => {
                self.state = TcpState::FinWait1;
                self.fin_pending = true;
            }
            TcpState::CloseWait => {
                self.state = TcpState::LastAck;
                self.fin_pending = true;
            }
            TcpState::SynSent | TcpState::Listen => self.enter_closed(),
            _ => {}
        }
    }

    /// Abort the connection: discard all state and emit a RST.
    pub fn abort(&mut self) {
        if !matches!(self.state, TcpState::Closed | TcpState::Listen) {
            self.rst_pending = true;
        }
        self.enter_closed();
    }

    fn enter_closed(&mut self) {
        self.state = TcpState::Closed;
        self.rto_deadline = None;
        self.rx.delack_deadline = None;
        self.timewait_deadline = None;
        self.recovery = Recovery::new(self.cfg.sack);
        self.write_q.clear();
        self.queued_bytes = 0;
    }

    fn enter_time_wait(&mut self, now: SimTime) {
        self.state = TcpState::TimeWait;
        self.rto_deadline = None;
        self.timewait_deadline = Some(now + self.cfg.msl * 2);
    }

    /// The earliest pending timer deadline.
    pub fn next_timer(&self) -> Option<(SimTime, TcpTimer)> {
        let mut best: Option<(SimTime, TcpTimer)> = None;
        for (deadline, which) in [
            (self.rto_deadline, TcpTimer::Rto),
            (self.rx.delack_deadline, TcpTimer::DelAck),
            (self.timewait_deadline, TcpTimer::TimeWait),
        ] {
            if let Some(t) = deadline {
                if best.is_none_or(|(bt, _)| t < bt) {
                    best = Some((t, which));
                }
            }
        }
        best
    }

    /// Handle a timer expiry at `now`. Call [`TcpConn::poll_transmit`]
    /// afterwards.
    pub fn on_timer(&mut self, now: SimTime, which: TcpTimer) {
        match which {
            TcpTimer::Rto if expire(&mut self.rto_deadline, now) => self.on_rto(),
            TcpTimer::DelAck if expire(&mut self.rx.delack_deadline, now) => {
                self.stats.delayed_acks += self.rx.on_delack_timer() as u64;
            }
            TcpTimer::TimeWait if expire(&mut self.timewait_deadline, now) => self.enter_closed(),
            _ => {} // stale timer
        }
    }

    fn on_rto(&mut self) {
        // A SYN in flight counts: the RTO is armed only once one is sent.
        if self.flight() == 0 {
            return;
        }
        self.stats.timeouts += 1;
        // RFC 5681: collapse to one segment, halve ssthresh.
        let flight = self.flight().max(MSS as u64);
        self.cc.on_rto(flight);
        self.rtt.backoff();
        self.rtt.invalidate_probe();
        self.recovery.on_rto(self.send_seq());
        if matches!(self.state, TcpState::SynSent | TcpState::SynRcvd) {
            self.syn_sent = false; // re-emit the SYN / SYN|ACK
        }
    }

    /// Process an incoming segment. Returns what was delivered upward.
    pub fn on_segment(&mut self, now: SimTime, seg: Segment) -> RxOutcome {
        let mut out = RxOutcome::default();
        if seg.flags & tcp_flags::RST != 0 {
            // Unconditional teardown (RFC 793 §3.4, simplified).
            if !matches!(self.state, TcpState::Closed | TcpState::Listen) {
                self.enter_closed();
                out.reset = true;
            }
            return out;
        }
        if !self.lifecycle(now, &seg, &mut out) {
            return out;
        }
        if seg.flags & tcp_flags::ACK != 0 && !self.on_ack(now, &seg, &mut out) {
            return out;
        }
        if seg.flags & tcp_flags::CWR != 0 {
            self.rx.on_cwr();
        }
        if seg.len > 0 {
            out.delivered = self
                .rx
                .on_data(now, &seg, &self.cfg, self.ecn_active, &mut self.stats);
        }
        let fin = (seg.flags & tcp_flags::FIN != 0).then_some(seg.seq + seg.len);
        if self.rx.on_fin(fin) {
            out.peer_fin = true;
            match self.state {
                TcpState::Established => self.state = TcpState::CloseWait,
                TcpState::FinWait1 => self.state = TcpState::Closing,
                TcpState::FinWait2 => self.enter_time_wait(now),
                _ => {}
            }
        }
        out
    }

    /// The states that carry no data, as a table of (state, segment) →
    /// transition. Returns whether the segment goes on to ACK, data and FIN
    /// processing: always in a data-carrying state, and for the ACK that
    /// completes a passive open (it may carry data).
    fn lifecycle(&mut self, now: SimTime, seg: &Segment, out: &mut RxOutcome) -> bool {
        let has = |flag: u8| seg.flags & flag != 0;
        let syn = has(tcp_flags::SYN);
        let acks_syn = has(tcp_flags::ACK) && seg.ack >= 1;
        match self.state {
            TcpState::Listen if syn && !has(tcp_flags::ACK) => self.passive_open(seg.flags),
            TcpState::SynSent if syn && acks_syn => {
                self.rx.rcv_nxt = 1;
                self.snd_una = 1;
                self.state = TcpState::Established;
                self.rto_deadline = None;
                self.rx.need_ack_now = true;
                out.connected = true;
                self.ecn_active = self.cfg.ecn && has(tcp_flags::ECE);
                self.rtt.on_ack(now, seg.ack);
            }
            // Simultaneous open: our SYN crossed the peer's; re-emit ours as
            // a SYN|ACK.
            TcpState::SynSent if syn => self.passive_open(seg.flags),
            TcpState::SynRcvd if acks_syn => {
                self.snd_una = self.snd_una.max(1);
                self.state = TcpState::Established;
                self.rto_deadline = None;
                out.connected = true;
                return true;
            }
            TcpState::TimeWait if has(tcp_flags::FIN) => {
                // Peer retransmitted its FIN: re-ACK, restart 2·MSL.
                self.rx.need_ack_now = true;
                self.timewait_deadline = Some(now + self.cfg.msl * 2);
            }
            state => return state.carries_data(),
        }
        false
    }

    /// A SYN arrived: the peer's SYN is consumed and a SYN|ACK is owed.
    fn passive_open(&mut self, flags: u8) {
        self.state = TcpState::SynRcvd;
        self.rx.rcv_nxt = 1;
        self.rx.need_ack_now = true;
        self.syn_sent = false;
        self.peer_ecn = flags & tcp_flags::ECE != 0 && flags & tcp_flags::CWR != 0;
    }

    /// The ACK field of a segment, send side. Returns false when processing
    /// of the segment ends here.
    fn on_ack(&mut self, now: SimTime, seg: &Segment, out: &mut RxOutcome) -> bool {
        if seg.ack > self.snd_nxt {
            // An ACK for data never sent (another incarnation's
            // straggler): taking it would put `snd_una` past `snd_nxt`.
            // RFC 793 §3.9: send an ACK, drop the segment, return.
            self.rx.need_ack_now = true;
            return false;
        }
        self.recovery
            .on_sack(seg.ack.max(self.snd_una), self.snd_nxt, &seg.sack);
        if seg.ack > self.snd_una {
            return self.on_new_ack(now, seg, out);
        }
        if seg.ack == self.snd_una && seg.len == 0 && self.flight() > 0 {
            self.stats.dup_acks_rx += 1;
            match self.recovery.on_dup_ack(self.send_seq()) {
                DupAck::Counted => {}
                DupAck::Inflate => self.cc.on_recovery_dup_ack(),
                DupAck::Enter => {
                    self.stats.fast_retransmits += 1;
                    let flight = self.flight();
                    self.cc.on_loss(flight);
                    self.rtt.invalidate_probe();
                }
            }
        }
        true
    }

    /// A cumulative ACK that advances `snd_una`. Returns false when it was
    /// the last thing this connection was waiting for.
    fn on_new_ack(&mut self, now: SimTime, seg: &Segment, out: &mut RxOutcome) -> bool {
        let acked = seg.ack - self.snd_una;
        // cwnd validation: only grow when we are actually using the window
        // (RFC 2861 spirit) and it is not already clamped by the receive
        // window; otherwise slow start inflates cwnd without bound while
        // app- or rwnd-limited. Data still queued counts as window-limited:
        // the chunked (GSO) sender holds back whole chunks that do not fit.
        let grow = self.cwnd() < self.cfg.max_cwnd
            && (self.flight() as f64 >= 0.9 * self.cc.cwnd() || self.queued_bytes > 0);
        self.stats.bytes_acked += acked;
        self.snd_una = seg.ack;
        self.rtt.on_ack(now, seg.ack);
        // Our FIN is acknowledged once the ACK covers its sequence.
        if self.fin_sent && seg.ack > self.fin_seq {
            match self.state {
                TcpState::FinWait1 => self.state = TcpState::FinWait2,
                TcpState::Closing => self.enter_time_wait(now),
                TcpState::LastAck => {
                    self.enter_closed();
                    out.closed = true;
                    return false;
                }
                _ => {}
            }
        }
        match self.recovery.on_new_ack(self.send_seq()) {
            NewAck::Exit => self.cc.on_recovery_exit(),
            NewAck::Partial => self.cc.on_partial_ack(acked),
            NewAck::Open if grow => self.cc.on_ack(now, acked, self.rtt.srtt()),
            NewAck::Open => {}
        }
        if self.ecn_active {
            let ece = seg.flags & tcp_flags::ECE != 0;
            self.stats.ecn_ece_rx += ece as u64;
            let (flight, una, nxt) = (self.flight(), self.snd_una, self.snd_nxt);
            self.cwr_pending |= self.cc.on_ecn_ack(now, acked, ece, flight, una, nxt);
        }
        self.rto_deadline = (self.flight() > 0).then(|| now + self.rtt.rto());
        true
    }

    /// Produce the next segment to transmit, if any. `seg_limit` caps the
    /// payload (pass [`TSO_LIMIT`] on offload-capable paths, the MSS
    /// otherwise). Returns `None` when there is nothing to send.
    pub fn poll_transmit(&mut self, now: SimTime, seg_limit: u32) -> Option<SegmentPlan> {
        // A pending RST preempts everything (abort() already closed us).
        if self.rst_pending {
            self.rst_pending = false;
            return Some(self.control(self.snd_nxt, tcp_flags::RST | tcp_flags::ACK));
        }
        if !self.state.carries_data() {
            return self.emit_handshake(now);
        }
        self.emit_retransmit(now)
            .or_else(|| self.emit_data(now, seg_limit))
            .or_else(|| self.emit_fin(now))
            .or_else(|| self.emit_ack())
    }

    /// SYN, SYN|ACK, and the one thing that leaves TIME_WAIT: the re-ACK of
    /// a retransmitted peer FIN.
    fn emit_handshake(&mut self, now: SimTime) -> Option<SegmentPlan> {
        match self.state {
            TcpState::SynSent | TcpState::SynRcvd if !self.syn_sent => {
                self.syn_sent = true;
                self.snd_nxt = 1;
                self.rto_deadline = Some(now + self.rtt.rto());
                let flags = if self.state == TcpState::SynSent {
                    // RFC 3168 §6.1.1: an ECN-setup SYN carries ECE|CWR.
                    let setup = tcp_flags::ECE | tcp_flags::CWR;
                    tcp_flags::SYN | if self.cfg.ecn { setup } else { 0 }
                } else {
                    self.rx.clear_ack_state();
                    // ECN-setup SYN|ACK: agree with ECE alone.
                    let agree = self.cfg.ecn && self.peer_ecn;
                    self.ecn_active |= agree;
                    tcp_flags::SYN | tcp_flags::ACK | if agree { tcp_flags::ECE } else { 0 }
                };
                Some(self.control(0, flags))
            }
            TcpState::TimeWait if self.rx.need_ack_now => {
                self.rx.clear_ack_state();
                self.stats.acks_tx += 1;
                Some(self.control(self.snd_nxt, tcp_flags::ACK))
            }
            _ => None,
        }
    }

    /// The retransmission [`Recovery::pop`] chooses, unless it went stale:
    /// each poll pops one queued range, and a range the cumulative ACK has
    /// since covered yields nothing.
    fn emit_retransmit(&mut self, now: SimTime) -> Option<SegmentPlan> {
        let s = self.send_seq();
        let (seq, len) = self.recovery.pop(s, self.effective_wnd())?;
        if seq < s.una && seq + len as u64 <= s.una {
            return None;
        }
        let seq = seq.max(s.una);
        if seq >= s.nxt {
            return None;
        }
        self.stats.rtx_segs += 1;
        self.rto_deadline = Some(now + self.rtt.rto());
        self.rtt.invalidate_probe();
        if seq >= s.data_nxt {
            // Only the FIN remains outstanding: retransmit it.
            return Some(self.segment(self.fin_seq, 0, tcp_flags::FIN | tcp_flags::ACK, true));
        }
        self.stats.segs_tx += 1;
        let len = (len as u64).min(s.data_nxt - seq) as u32;
        let flags = self.data_flags();
        Some(self.segment(seq, len, flags, true))
    }

    /// New data within the effective window. To model TSO/GSO accumulation
    /// (and avoid sliver segments when running right at the window), a chunk
    /// is only emitted once the window has room for the whole of it — unless
    /// nothing is in flight, where we send whatever fits to keep the
    /// connection moving. (CloseWait/FinWait1/Closing/LastAck still drain
    /// data queued before the close.)
    fn emit_data(&mut self, now: SimTime, seg_limit: u32) -> Option<SegmentPlan> {
        let front = *self.write_q.front()?;
        let budget = self.effective_wnd().saturating_sub(self.flight());
        let chunk = front.min(seg_limit as u64);
        if budget < chunk && self.flight() != 0 {
            return None;
        }
        let take = chunk.min(budget.max(MSS as u64));
        if take == 0 {
            return None;
        }
        if take == front {
            self.write_q.pop_front();
        } else {
            self.write_q[0] -= take;
        }
        self.queued_bytes -= take;
        let seq = self.snd_nxt;
        self.snd_nxt += take;
        self.stats.segs_tx += 1;
        self.rtt.arm_probe(self.snd_nxt, now);
        self.rto_deadline.get_or_insert(now + self.rtt.rto());
        let flags = self.data_flags();
        Some(self.segment(seq, take as u32, flags, false))
    }

    /// Our FIN, once `close()` asked for it and the send queue has drained.
    fn emit_fin(&mut self, now: SimTime) -> Option<SegmentPlan> {
        use TcpState::*;
        let due = self.fin_pending
            && !self.fin_sent
            && self.write_q.is_empty()
            && matches!(self.state, FinWait1 | Closing | LastAck);
        if !due {
            return None;
        }
        self.fin_sent = true;
        self.fin_seq = self.snd_nxt;
        self.snd_nxt += 1; // the FIN occupies one sequence number
        self.rto_deadline.get_or_insert(now + self.rtt.rto());
        Some(self.segment(self.fin_seq, 0, tcp_flags::FIN | tcp_flags::ACK, false))
    }

    /// A pure ACK, if one is owed.
    fn emit_ack(&mut self) -> Option<SegmentPlan> {
        if !self.rx.need_ack_now {
            return None;
        }
        self.stats.acks_tx += 1;
        let flags = tcp_flags::ACK | self.echo();
        Some(self.segment(self.snd_nxt, 0, flags, false))
    }

    /// The receiver's ECE echo for an outgoing segment, counted.
    fn echo(&mut self) -> u8 {
        let ece = self.rx.echo_flags();
        self.stats.ecn_ece_tx += (ece != 0) as u64;
        ece
    }

    /// Flags of a payload segment: the receiver's echo, and the CWR the
    /// sender owes — paid here.
    fn data_flags(&mut self) -> u8 {
        let mut flags = tcp_flags::ACK | tcp_flags::PSH | self.echo();
        if self.cwr_pending {
            flags |= tcp_flags::CWR;
            self.cwr_pending = false;
            self.stats.ecn_cwr_tx += 1;
        }
        flags
    }

    /// A bare control segment (RST, SYN, SYN|ACK, TIME_WAIT's re-ACK): no
    /// payload, no SACK blocks, and the receiver's ACK debt is the caller's
    /// business.
    fn control(&self, seq: u64, flags: u8) -> SegmentPlan {
        SegmentPlan {
            seq,
            len: 0,
            flags,
            ack: self.rx.rcv_nxt,
            is_rtx: false,
            ecn: 0,
            sack: SackBlocks::EMPTY,
        }
    }

    /// A segment of a data-carrying state. It carries the cumulative ACK,
    /// which pays whatever the receiver owed, the SACK blocks if
    /// advertised, and ECT(0) on payload of an ECN connection.
    fn segment(&mut self, seq: u64, len: u32, flags: u8, is_rtx: bool) -> SegmentPlan {
        self.rx.clear_ack_state();
        let sack = if self.cfg.sack {
            self.rx.sack_blocks()
        } else {
            SackBlocks::EMPTY
        };
        SegmentPlan {
            seq,
            len,
            flags,
            ack: self.rx.rcv_nxt,
            is_rtx,
            ecn: if len > 0 && self.ecn_active {
                ecn::ECT0
            } else {
                0
            },
            sack,
        }
    }

    /// Right after [`TcpConn::poll_transmit`] returned `None`: is polling
    /// again, with nothing fed in between, certain to be a no-op?
    /// Everything that `None` ruled out (window room for new data or the
    /// go-back walk, a FIN to send, an ACK owed) is a pure read of state the
    /// poll left alone. The exception is the retransmit queue: each poll
    /// pops at most one hole, and a stale (already acked) one falls through
    /// to `None` with the next still queued.
    pub(crate) fn poll_is_settled(&self) -> bool {
        !self.recovery.pending()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastrak_net::addr::{Ip, TenantId};
    use fastrak_net::flow::Proto;

    fn flow() -> FlowKey {
        FlowKey {
            tenant: TenantId(1),
            src_ip: Ip::new(10, 0, 0, 1),
            dst_ip: Ip::new(10, 0, 0, 2),
            proto: Proto::Tcp,
            src_port: 40_000,
            dst_port: 5001,
        }
    }

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn the_state_and_counter_lists_cover_their_types() {
        for (i, s) in TcpState::ALL.into_iter().enumerate() {
            assert_eq!(s as usize, i, "{s:?} out of declaration order");
        }
        assert_eq!(TcpState::TimeWait as usize + 1, TcpState::ALL.len());
        // One u64 per listed counter, and a sum that reaches each of them.
        let mut sum = TcpStats::default();
        let fields = sum.fields().len();
        assert_eq!(std::mem::size_of::<TcpStats>(), 8 * fields);
        // Field i holds i + 1, so a cross-wired sum shows.
        let addend = TcpStats {
            segs_tx: 1,
            segs_rx: 2,
            acks_tx: 3,
            dup_acks_rx: 4,
            fast_retransmits: 5,
            timeouts: 6,
            ooo_segs_rx: 7,
            bytes_acked: 8,
            bytes_delivered: 9,
            delayed_acks: 10,
            rtx_segs: 11,
            ecn_ce_rx: 12,
            ecn_ece_rx: 13,
            ecn_ece_tx: 14,
            ecn_cwr_tx: 15,
        };
        sum += &addend;
        sum += &addend;
        for (i, (name, v)) in sum.fields().into_iter().enumerate() {
            assert_eq!(v, 2 * (i as u64 + 1), "{name}");
        }
    }

    /// Drive a full handshake between a client and server conn.
    fn establish() -> (TcpConn, TcpConn) {
        establish_cfg(TcpConfig::default(), TcpConfig::default())
    }

    /// Drive a full handshake with per-side configs (ECN/SACK variants).
    fn establish_cfg(ccfg: TcpConfig, scfg: TcpConfig) -> (TcpConn, TcpConn) {
        let mut c = TcpConn::client(flow(), ccfg);
        let syn = c.poll_transmit(t(0), TSO_LIMIT).unwrap();
        assert_eq!(syn.flags & tcp_flags::SYN, tcp_flags::SYN);
        let mut s = TcpConn::server(flow().reverse(), scfg);
        s.set_peer_ecn_request(syn.flags & tcp_flags::ECE != 0 && syn.flags & tcp_flags::CWR != 0);
        let synack = s.poll_transmit(t(10), TSO_LIMIT).unwrap();
        assert_eq!(
            synack.flags & (tcp_flags::SYN | tcp_flags::ACK),
            tcp_flags::SYN | tcp_flags::ACK
        );
        let out = deliver(&mut c, t(20), synack);
        assert!(out.connected);
        let ack = c.poll_transmit(t(20), TSO_LIMIT).unwrap();
        assert_eq!(ack.len, 0);
        let out = deliver(&mut s, t(30), ack);
        assert!(out.connected);
        assert!(c.is_established() && s.is_established());
        (c, s)
    }

    /// A segment without CE mark or SACK blocks.
    fn bare(seq: u64, ack: u64, flags: u8, len: u64) -> Segment {
        Segment {
            seq,
            ack,
            flags,
            len,
            ..Segment::default()
        }
    }

    /// Deliver a plan from `from` to `to`, returning the outcome.
    fn deliver(to: &mut TcpConn, now: SimTime, plan: SegmentPlan) -> RxOutcome {
        deliver_full(to, now, plan, false)
    }

    /// Deliver a plan, CE-marked on the way or not.
    fn deliver_full(to: &mut TcpConn, now: SimTime, plan: SegmentPlan, ce: bool) -> RxOutcome {
        let arrived = Segment {
            ce,
            sack: plan.sack,
            ..bare(plan.seq, plan.ack, plan.flags, plan.len as u64)
        };
        to.on_segment(now, arrived)
    }

    #[test]
    fn handshake_establishes() {
        establish();
    }

    #[test]
    fn ack_for_unsent_data_is_dropped_and_answered() {
        let (mut c, _s) = establish();
        assert!(c.app_send(1000));
        let seg = c.poll_transmit(t(100), TSO_LIMIT).unwrap();
        assert_eq!(c.flight(), 1000);
        // A straggler acknowledging (and carrying) bytes this incarnation
        // never exchanged: neither its ACK field nor its data is taken.
        let beyond = seg.seq + 1000 + 5000;
        let out = c.on_segment(t(110), bare(1, beyond, tcp_flags::ACK, 100));
        assert_eq!(out.delivered, 0);
        assert_eq!(c.flight(), 1000);
        assert_eq!(c.stats.bytes_acked, 0);
        let reply = c.poll_transmit(t(110), TSO_LIMIT).unwrap();
        assert_eq!((reply.len, reply.flags), (0, tcp_flags::ACK));
        assert_eq!(reply.ack, 1, "nothing was received");
        // The real ACK still lands.
        c.on_segment(t(200), bare(1, 1001, tcp_flags::ACK, 0));
        assert_eq!(c.flight(), 0);
        assert_eq!(c.stats.bytes_acked, 1000);
    }

    #[test]
    fn data_flows_and_delivers_in_order() {
        let (mut c, mut s) = establish();
        assert!(c.app_send(1000));
        let seg = c.poll_transmit(t(100), TSO_LIMIT).unwrap();
        assert_eq!(seg.len, 1000);
        assert_eq!(seg.seq, 1);
        let out = deliver(&mut s, t(150), seg);
        assert_eq!(out.delivered, 1000);
        assert_eq!(s.stats.bytes_delivered, 1000);
    }

    #[test]
    fn write_boundaries_preserved() {
        let (mut c, _s) = establish();
        c.app_send(64);
        c.app_send(64);
        let a = c.poll_transmit(t(100), TSO_LIMIT).unwrap();
        let b = c.poll_transmit(t(100), TSO_LIMIT).unwrap();
        assert_eq!(a.len, 64);
        assert_eq!(b.len, 64);
        assert_eq!(b.seq, a.seq + 64);
    }

    #[test]
    fn large_write_segments_at_limit() {
        let (mut c, mut s) = establish();
        c.app_send(32_000);
        let a = c.poll_transmit(t(100), 1448).unwrap();
        assert_eq!(a.len, 1448);
        let b = c.poll_transmit(t(100), 1448).unwrap();
        assert_eq!(b.seq, a.seq + 1448);
        // The remaining 29104 bytes do not fit the initial window as one
        // GSO chunk, so the sender holds back rather than emit slivers...
        assert_eq!(c.poll_transmit(t(100), TSO_LIMIT), None);
        // ...until acks open the window; then TSO sends one big segment.
        deliver(&mut s, t(150), a);
        deliver(&mut s, t(151), b);
        while let Some(ack) = s.poll_transmit(t(151), 1448) {
            deliver(&mut c, t(160), ack);
        }
        let big = c.poll_transmit(t(200), TSO_LIMIT).unwrap();
        assert!(big.len > 1448, "got {}", big.len);
    }

    #[test]
    fn cwnd_limits_flight() {
        let cfg = TcpConfig::default();
        let (mut c, _s) = establish();
        c.app_send(cfg.send_buf / 2);
        let mut sent = 0u64;
        while let Some(p) = c.poll_transmit(t(100), TSO_LIMIT) {
            sent += p.len as u64;
        }
        // Flight must stay within ~cwnd (10 MSS initial, one oversized tail
        // segment allowed by the implementation's first-segment rule).
        assert!(sent <= (INITIAL_CWND + MSS + TSO_LIMIT) as u64);
        assert!(c.flight() > 0);
    }

    #[test]
    fn slow_start_doubles_cwnd() {
        let (mut c, mut s) = establish();
        let before = c.cwnd();
        c.app_send(900_000);
        let mut now = 100;
        for _round in 0..10 {
            // Fill the window (cwnd-limited), then deliver and ack.
            let mut segs = Vec::new();
            while let Some(seg) = c.poll_transmit(t(now), 1448) {
                segs.push(seg);
            }
            now += 10;
            for seg in segs {
                deliver(&mut s, t(now), seg);
                while let Some(ack) = s.poll_transmit(t(now), 1448) {
                    deliver(&mut c, t(now + 10), ack);
                }
            }
            now += 10;
        }
        assert!(c.cwnd() > 2 * before, "{} !> 2x {}", c.cwnd(), before);
    }

    #[test]
    fn dup_acks_trigger_fast_retransmit() {
        let (mut c, mut s) = establish();
        c.app_send(10 * 1448);
        let mut segs = Vec::new();
        while let Some(p) = c.poll_transmit(t(100), 1448) {
            segs.push(p);
        }
        assert!(
            segs.len() >= 5,
            "need at least 5 segments, got {}",
            segs.len()
        );
        // Drop the first segment; deliver the rest -> dup acks.
        let mut now = 200;
        for seg in segs.iter().skip(1) {
            deliver(&mut s, t(now), *seg);
            now += 1;
            while let Some(ack) = s.poll_transmit(t(now), 1448) {
                deliver(&mut c, t(now), ack);
                now += 1;
            }
        }
        assert!(c.stats.dup_acks_rx >= 3, "dup acks {}", c.stats.dup_acks_rx);
        // The retransmission of the hole must come out next.
        let rtx = c.poll_transmit(t(now), 1448).unwrap();
        assert!(rtx.is_rtx);
        assert_eq!(rtx.seq, 1);
        assert_eq!(c.stats.fast_retransmits, 1);
        // Delivering it fills the hole and delivers everything buffered.
        let out = deliver(&mut s, t(now + 1), rtx);
        assert_eq!(out.delivered, 10 * 1448);
        assert_eq!(c.stats.timeouts, 0);
    }

    #[test]
    fn recovery_exits_on_full_ack() {
        let (mut c, mut s) = establish();
        c.app_send(10 * 1448);
        let mut segs = Vec::new();
        while let Some(p) = c.poll_transmit(t(100), 1448) {
            segs.push(p);
        }
        let mut now = 200;
        for seg in segs.iter().skip(1) {
            deliver(&mut s, t(now), *seg);
            now += 1;
            while let Some(ack) = s.poll_transmit(t(now), 1448) {
                deliver(&mut c, t(now), ack);
                now += 1;
            }
        }
        let rtx = c.poll_transmit(t(now), 1448).unwrap();
        deliver(&mut s, t(now + 1), rtx);
        // Server acks everything.
        while let Some(ack) = s.poll_transmit(t(now + 2), 1448) {
            deliver(&mut c, t(now + 2), ack);
        }
        // c should have exited recovery and be able to send fresh data.
        c.app_send(1448);
        let p = c.poll_transmit(t(now + 3), 1448).unwrap();
        assert!(!p.is_rtx);
    }

    #[test]
    fn rto_fires_and_backs_off() {
        let (mut c, _s) = establish();
        c.app_send(1448);
        let _seg = c.poll_transmit(t(100), 1448).unwrap();
        let (deadline, which) = c.next_timer().unwrap();
        assert_eq!(which, TcpTimer::Rto);
        c.on_timer(deadline, TcpTimer::Rto);
        assert_eq!(c.stats.timeouts, 1);
        assert_eq!(c.cwnd(), 1448);
        let rtx = c.poll_transmit(deadline, 1448).unwrap();
        assert!(rtx.is_rtx);
        assert_eq!(rtx.seq, 1);
        // Second timeout doubles RTO (re-armed when the rtx is polled out).
        let (d2, _) = c.next_timer().unwrap();
        c.on_timer(d2, TcpTimer::Rto);
        assert_eq!(c.stats.timeouts, 2);
        let rtx2 = c.poll_transmit(d2, 1448).unwrap();
        assert!(rtx2.is_rtx);
        let (d3, _) = c.next_timer().unwrap();
        assert!(d3.since(d2) > d2.since(deadline), "RTO must back off");
    }

    /// A client streams 200 one-MSS writes to a server over a 50 µs
    /// one-way wire, default timers. The first transmissions of the data
    /// segments numbered `lost` are dropped until the client's first
    /// retransmission. Returns the client's counters and the bytes the
    /// server delivered.
    fn stream_losing(cfg: TcpConfig, lost: std::ops::Range<usize>) -> (TcpStats, u64) {
        let (mut c, mut s) = establish_cfg(cfg, cfg);
        (0..200).for_each(|_| assert!(c.app_send(MSS as u64)));
        let wire = SimDuration::from_micros(50);
        let (mut to_s, mut to_c) = (VecDeque::new(), VecDeque::new());
        let (mut now, mut sent, mut dropping) = (t(100), 0, true);
        loop {
            while let Some(p) = c.poll_transmit(now, MSS) {
                dropping &= !p.is_rtx;
                let first = p.len > 0 && !p.is_rtx;
                if !(first && dropping && lost.contains(&sent)) {
                    to_s.push_back((now + wire, p));
                }
                sent += first as usize;
            }
            while let Some(p) = s.poll_transmit(now, MSS) {
                to_c.push_back((now + wire, p));
            }
            let due = |q: &VecDeque<(SimTime, SegmentPlan)>| q.front().map(|e| e.0);
            let timer = |x: &TcpConn| x.next_timer().map(|e| e.0);
            let Some(next) = [due(&to_s), due(&to_c), timer(&c), timer(&s)]
                .into_iter()
                .flatten()
                .min()
            else {
                break;
            };
            now = next;
            if due(&to_s) == Some(now) {
                deliver(&mut s, now, to_s.pop_front().unwrap().1);
            } else if due(&to_c) == Some(now) {
                deliver(&mut c, now, to_c.pop_front().unwrap().1);
            } else {
                for x in [&mut c, &mut s] {
                    if let Some((_, which)) = x.next_timer().filter(|e| e.0 <= now) {
                        x.on_timer(now, which);
                    }
                }
            }
        }
        (c.stats, s.stats.bytes_delivered)
    }

    #[test]
    fn a_burst_loss_costs_at_most_one_rto() {
        for cc in [CcAlgo::Reno, CcAlgo::Cubic] {
            for sack in [false, true] {
                let cfg = TcpConfig {
                    cc,
                    sack,
                    ..Default::default()
                };
                // Up to 32 sit inside a larger window and are repaired by
                // duplicate ACKs; 64 is the whole flight, which only the
                // timer can detect — once, however many segments it held.
                for k in [1, 2, 4, 8, 16, 32, 64] {
                    let (stats, delivered) = stream_losing(cfg, 40..40 + k);
                    let case = format!("{cc:?} sack={sack} k={k}: {stats:?}");
                    assert_eq!(delivered, 200 * MSS as u64, "{case}");
                    assert!(stats.timeouts <= 1, "{case}");
                }
            }
        }
    }

    #[test]
    fn stale_rto_timer_ignored() {
        let (mut c, _s) = establish();
        c.app_send(1448);
        let _ = c.poll_transmit(t(100), 1448);
        let (deadline, _) = c.next_timer().unwrap();
        // Fire "early": must be ignored.
        c.on_timer(t(101), TcpTimer::Rto);
        assert_eq!(c.stats.timeouts, 0);
        c.on_timer(deadline, TcpTimer::Rto);
        assert_eq!(c.stats.timeouts, 1);
    }

    #[test]
    fn delayed_ack_after_single_segment() {
        let (mut c, mut s) = establish();
        c.app_send(100);
        let seg = c.poll_transmit(t(100), 1448).unwrap();
        deliver(&mut s, t(200), seg);
        // No immediate ack (1 < ack_every).
        assert!(s.poll_transmit(t(200), 1448).is_none());
        let (deadline, which) = s.next_timer().unwrap();
        assert_eq!(which, TcpTimer::DelAck);
        s.on_timer(deadline, TcpTimer::DelAck);
        let ack = s.poll_transmit(deadline, 1448).unwrap();
        assert_eq!(ack.len, 0);
        assert_eq!(ack.ack, 101);
        assert_eq!(s.stats.delayed_acks, 1);
    }

    #[test]
    fn piggybacked_ack_disarms_the_delayed_ack() {
        let (mut c, mut s) = establish();
        c.app_send(100);
        let seg = c.poll_transmit(t(100), 1448).unwrap();
        deliver(&mut s, t(200), seg);
        assert_eq!(s.next_timer().unwrap().1, TcpTimer::DelAck);
        // The reply carries the ACK: no pure ACK follows it, and the only
        // deadline left is the reply's own RTO.
        s.app_send(100);
        let reply = s.poll_transmit(t(210), 1448).unwrap();
        assert_eq!((reply.len, reply.ack), (100, 101));
        assert_eq!(s.poll_transmit(t(210), 1448), None);
        assert_eq!(s.next_timer().unwrap().1, TcpTimer::Rto);
        assert_eq!(s.stats.acks_tx, 0);
    }

    #[test]
    fn every_second_segment_acked_immediately() {
        let (mut c, mut s) = establish();
        c.app_send(100);
        c.app_send(100);
        let a = c.poll_transmit(t(100), 1448).unwrap();
        let b = c.poll_transmit(t(100), 1448).unwrap();
        deliver(&mut s, t(200), a);
        deliver(&mut s, t(201), b);
        let ack = s.poll_transmit(t(201), 1448).unwrap();
        assert_eq!(ack.ack, 201);
    }

    #[test]
    fn byte_threshold_acks_lro_aggregates_promptly() {
        // One super-segment worth >= 2*MSS must trigger an immediate ack
        // (otherwise delayed acks add phantom RTT under TSO/LRO).
        let (mut c, mut s) = establish();
        c.app_send(10_000);
        let seg = c.poll_transmit(t(100), 65_000).unwrap();
        deliver(&mut s, t(200), seg);
        let ack = s.poll_transmit(t(200), 1448).unwrap();
        assert_eq!(ack.ack, 1 + 10_000);
    }

    #[test]
    fn effective_window_clamped_by_max_cwnd() {
        let cfg = TcpConfig {
            max_cwnd: 20_000,
            ..Default::default()
        };
        let mut c = TcpConn::client(flow(), cfg);
        // Drive cwnd up artificially via the public API: effective window
        // can never exceed max_cwnd regardless of cwnd.
        assert!(c.effective_wnd() <= 20_000);
        let _ = c.poll_transmit(t(0), 1448);
        assert!(c.effective_wnd() <= 20_000);
    }

    #[test]
    fn out_of_order_buffered_and_merged() {
        let (mut c, mut s) = establish();
        c.app_send(3 * 1000);
        let a = c.poll_transmit(t(100), 1000).unwrap();
        let b = c.poll_transmit(t(100), 1000).unwrap();
        let cc = c.poll_transmit(t(100), 1000).unwrap();
        // Deliver out of order: c, b, a.
        let o1 = deliver(&mut s, t(200), cc);
        assert_eq!(o1.delivered, 0);
        let o2 = deliver(&mut s, t(201), b);
        assert_eq!(o2.delivered, 0);
        assert_eq!(s.stats.ooo_segs_rx, 2);
        let o3 = deliver(&mut s, t(202), a);
        assert_eq!(o3.delivered, 3000);
    }

    #[test]
    fn old_segment_reacked() {
        let (mut c, mut s) = establish();
        c.app_send(100);
        let seg = c.poll_transmit(t(100), 1448).unwrap();
        deliver(&mut s, t(200), seg);
        // Duplicate delivery of the same segment.
        deliver(&mut s, t(210), seg);
        let ack = s.poll_transmit(t(210), 1448).unwrap();
        assert_eq!(ack.ack, 101);
    }

    #[test]
    fn send_buffer_rejects_overflow() {
        let cfg = TcpConfig {
            send_buf: 1000,
            ..Default::default()
        };
        let mut c = TcpConn::client(flow(), cfg);
        assert!(c.app_send(800));
        assert!(!c.app_send(300));
        assert!(c.app_send(0)); // zero-write is a no-op success
    }

    #[test]
    fn rtt_estimation_converges() {
        let (mut c, mut s) = establish();
        let mut now = 1000u64;
        for _ in 0..20 {
            c.app_send(1448);
            let Some(seg) = c.poll_transmit(t(now), 1448) else {
                break;
            };
            // 100us one-way, ack after delack or piggyback.
            deliver(&mut s, t(now + 100), seg);
            if let Some((d, w)) = s.next_timer() {
                s.on_timer(d, w);
            }
            if let Some(ack) = s.poll_transmit(t(now + 150), 1448) {
                deliver(&mut c, t(now + 200), ack);
            }
            now += 1000;
        }
        let srtt = c.srtt().expect("rtt sampled");
        // ~200us RTT (100 out + up-to-delack + 50 + 100 back): bounded sane.
        assert!(srtt >= SimDuration::from_micros(150), "srtt {srtt}");
        assert!(srtt <= SimDuration::from_millis(10), "srtt {srtt}");
    }

    // --- full-lifecycle tests ---

    #[test]
    fn close_handshake_four_way() {
        let (mut c, mut s) = establish();
        c.close();
        assert_eq!(c.state(), TcpState::FinWait1);
        assert!(!c.app_send(100), "send after close must be rejected");
        let fin = c.poll_transmit(t(100), TSO_LIMIT).unwrap();
        assert_eq!(fin.flags & tcp_flags::FIN, tcp_flags::FIN);
        assert_eq!(fin.len, 0);
        let out = deliver(&mut s, t(110), fin);
        assert!(out.peer_fin);
        assert_eq!(s.state(), TcpState::CloseWait);
        let ack = s.poll_transmit(t(110), TSO_LIMIT).unwrap();
        deliver(&mut c, t(120), ack);
        assert_eq!(c.state(), TcpState::FinWait2);
        // Server closes its side.
        s.close();
        assert_eq!(s.state(), TcpState::LastAck);
        let fin2 = s.poll_transmit(t(130), TSO_LIMIT).unwrap();
        assert_eq!(fin2.flags & tcp_flags::FIN, tcp_flags::FIN);
        let out = deliver(&mut c, t(140), fin2);
        assert!(out.peer_fin);
        assert_eq!(c.state(), TcpState::TimeWait);
        let last_ack = c.poll_transmit(t(140), TSO_LIMIT).unwrap();
        let out = deliver(&mut s, t(150), last_ack);
        assert!(out.closed);
        assert_eq!(s.state(), TcpState::Closed);
    }

    #[test]
    fn simultaneous_close_meets_in_time_wait() {
        let (mut c, mut s) = establish();
        c.close();
        s.close();
        let fin_c = c.poll_transmit(t(100), TSO_LIMIT).unwrap();
        let fin_s = s.poll_transmit(t(100), TSO_LIMIT).unwrap();
        // FINs cross in flight.
        deliver(&mut c, t(110), fin_s);
        deliver(&mut s, t(110), fin_c);
        assert_eq!(c.state(), TcpState::Closing);
        assert_eq!(s.state(), TcpState::Closing);
        let ack_c = c.poll_transmit(t(110), TSO_LIMIT).unwrap();
        let ack_s = s.poll_transmit(t(110), TSO_LIMIT).unwrap();
        deliver(&mut c, t(120), ack_s);
        deliver(&mut s, t(120), ack_c);
        assert_eq!(c.state(), TcpState::TimeWait);
        assert_eq!(s.state(), TcpState::TimeWait);
    }

    #[test]
    fn time_wait_expires_after_two_msl() {
        let (mut c, mut s) = establish();
        c.close();
        let fin = c.poll_transmit(t(100), TSO_LIMIT).unwrap();
        deliver(&mut s, t(110), fin);
        let ack = s.poll_transmit(t(110), TSO_LIMIT).unwrap();
        deliver(&mut c, t(120), ack);
        s.close();
        let fin2 = s.poll_transmit(t(130), TSO_LIMIT).unwrap();
        deliver(&mut c, t(140), fin2);
        assert_eq!(c.state(), TcpState::TimeWait);
        let (deadline, which) = c.next_timer().unwrap();
        assert_eq!(which, TcpTimer::TimeWait);
        assert_eq!(deadline.since(t(140)), SimDuration::from_secs(60)); // 2·MSL

        // Early fire is stale.
        c.on_timer(t(150), TcpTimer::TimeWait);
        assert_eq!(c.state(), TcpState::TimeWait);
        c.on_timer(deadline, TcpTimer::TimeWait);
        assert_eq!(c.state(), TcpState::Closed);
    }

    #[test]
    fn time_wait_reacks_retransmitted_fin() {
        let (mut c, mut s) = establish();
        c.close();
        let fin = c.poll_transmit(t(100), TSO_LIMIT).unwrap();
        deliver(&mut s, t(110), fin);
        let ack = s.poll_transmit(t(110), TSO_LIMIT).unwrap();
        deliver(&mut c, t(120), ack);
        s.close();
        let fin2 = s.poll_transmit(t(130), TSO_LIMIT).unwrap();
        deliver(&mut c, t(140), fin2);
        assert_eq!(c.state(), TcpState::TimeWait);
        let _ = c.poll_transmit(t(140), TSO_LIMIT); // drain the final ACK
        let (d1, _) = c.next_timer().unwrap();
        // The final ACK was lost; the peer retransmits its FIN.
        let out = deliver(&mut c, t(500), fin2);
        assert!(!out.peer_fin, "FIN already consumed");
        let re_ack = c.poll_transmit(t(500), TSO_LIMIT).unwrap();
        assert_eq!(re_ack.flags, tcp_flags::ACK);
        assert_eq!(re_ack.ack, fin2.seq + 1);
        // 2·MSL restarted.
        let (d2, _) = c.next_timer().unwrap();
        assert!(d2 > d1);
    }

    #[test]
    fn rst_tears_down_in_every_data_state() {
        // Established.
        let (mut c, _s) = establish();
        let out = c.on_segment(t(100), bare(1, 1, tcp_flags::RST, 0));
        assert!(out.reset);
        assert_eq!(c.state(), TcpState::Closed);
        // SynSent.
        let mut c = TcpConn::client(flow(), TcpConfig::default());
        let _ = c.poll_transmit(t(0), TSO_LIMIT);
        let out = c.on_segment(t(10), bare(0, 1, tcp_flags::RST, 0));
        assert!(out.reset);
        assert_eq!(c.state(), TcpState::Closed);
        // SynRcvd.
        let mut s = TcpConn::server(flow().reverse(), TcpConfig::default());
        let _ = s.poll_transmit(t(0), TSO_LIMIT);
        let out = s.on_segment(t(10), bare(1, 1, tcp_flags::RST, 0));
        assert!(out.reset);
        assert_eq!(s.state(), TcpState::Closed);
        // FinWait1 and CloseWait.
        let (mut c, mut s) = establish();
        c.close();
        let fin = c.poll_transmit(t(100), TSO_LIMIT).unwrap();
        deliver(&mut s, t(110), fin);
        assert_eq!(s.state(), TcpState::CloseWait);
        assert!(c.on_segment(t(120), bare(1, 1, tcp_flags::RST, 0)).reset);
        assert_eq!(c.state(), TcpState::Closed);
        assert!(s.on_segment(t(120), bare(1, 1, tcp_flags::RST, 0)).reset);
        assert_eq!(s.state(), TcpState::Closed);
        // No pending timers survive a reset.
        assert!(c.next_timer().is_none());
    }

    #[test]
    fn abort_emits_rst() {
        let (mut c, mut s) = establish();
        c.app_send(1448);
        let seg = c.poll_transmit(t(100), 1448).unwrap();
        deliver(&mut s, t(110), seg);
        c.abort();
        assert_eq!(c.state(), TcpState::Closed);
        let rst = c.poll_transmit(t(120), TSO_LIMIT).unwrap();
        assert_eq!(rst.flags & tcp_flags::RST, tcp_flags::RST);
        let out = deliver(&mut s, t(130), rst);
        assert!(out.reset);
        assert_eq!(s.state(), TcpState::Closed);
        // Nothing further comes out of a closed conn.
        assert_eq!(c.poll_transmit(t(140), TSO_LIMIT), None);
    }

    #[test]
    fn simultaneous_open_establishes_both_sides() {
        let cfg = TcpConfig::default();
        let mut a = TcpConn::client(flow(), cfg);
        let mut b = TcpConn::client(flow().reverse(), cfg);
        let syn_a = a.poll_transmit(t(0), TSO_LIMIT).unwrap();
        let syn_b = b.poll_transmit(t(0), TSO_LIMIT).unwrap();
        // SYNs cross.
        deliver(&mut a, t(10), syn_b);
        deliver(&mut b, t(10), syn_a);
        assert_eq!(a.state(), TcpState::SynRcvd);
        assert_eq!(b.state(), TcpState::SynRcvd);
        let synack_a = a.poll_transmit(t(10), TSO_LIMIT).unwrap();
        let synack_b = b.poll_transmit(t(10), TSO_LIMIT).unwrap();
        assert!(deliver(&mut a, t(20), synack_b).connected);
        assert!(deliver(&mut b, t(20), synack_a).connected);
        assert!(a.is_established() && b.is_established());
    }

    #[test]
    fn listener_accepts_syn() {
        let cfg = TcpConfig::default();
        let mut l = TcpConn::listen(flow().reverse(), cfg);
        assert_eq!(l.state(), TcpState::Listen);
        assert_eq!(l.poll_transmit(t(0), TSO_LIMIT), None);
        let mut c = TcpConn::client(flow(), cfg);
        let syn = c.poll_transmit(t(0), TSO_LIMIT).unwrap();
        deliver(&mut l, t(10), syn);
        assert_eq!(l.state(), TcpState::SynRcvd);
        let synack = l.poll_transmit(t(10), TSO_LIMIT).unwrap();
        assert!(deliver(&mut c, t(20), synack).connected);
    }

    #[test]
    fn fin_retransmits_on_rto() {
        let (mut c, _s) = establish();
        c.close();
        let fin = c.poll_transmit(t(100), TSO_LIMIT).unwrap();
        assert_eq!(fin.flags & tcp_flags::FIN, tcp_flags::FIN);
        // The FIN is lost; the RTO must recover it.
        let (deadline, which) = c.next_timer().unwrap();
        assert_eq!(which, TcpTimer::Rto);
        c.on_timer(deadline, TcpTimer::Rto);
        assert_eq!(c.stats.timeouts, 1);
        let rtx = c.poll_transmit(deadline, TSO_LIMIT).unwrap();
        assert!(rtx.is_rtx);
        assert_eq!(rtx.flags & tcp_flags::FIN, tcp_flags::FIN);
        assert_eq!(rtx.seq, fin.seq);
    }

    #[test]
    fn data_queued_before_close_flushes_before_fin() {
        let (mut c, mut s) = establish();
        c.app_send(1000);
        c.close();
        assert_eq!(c.state(), TcpState::FinWait1);
        let data = c.poll_transmit(t(100), TSO_LIMIT).unwrap();
        assert_eq!(data.len, 1000);
        let fin = c.poll_transmit(t(100), TSO_LIMIT).unwrap();
        assert_eq!(fin.flags & tcp_flags::FIN, tcp_flags::FIN);
        assert_eq!(fin.seq, data.seq + 1000);
        // Receiver consumes data then FIN.
        let out = deliver(&mut s, t(110), data);
        assert_eq!(out.delivered, 1000);
        let out = deliver(&mut s, t(111), fin);
        assert!(out.peer_fin);
        assert_eq!(s.state(), TcpState::CloseWait);
        // Its cumulative ACK covers data + FIN.
        let ack = s.poll_transmit(t(111), TSO_LIMIT).unwrap();
        assert_eq!(ack.ack, fin.seq + 1);
    }

    #[test]
    fn half_close_peer_keeps_sending() {
        let (mut c, mut s) = establish();
        c.close();
        let fin = c.poll_transmit(t(100), TSO_LIMIT).unwrap();
        deliver(&mut s, t(110), fin);
        let ack = s.poll_transmit(t(110), TSO_LIMIT).unwrap();
        deliver(&mut c, t(120), ack);
        assert_eq!(c.state(), TcpState::FinWait2);
        // The peer may still send on its half.
        assert!(s.app_send(2000));
        let seg = s.poll_transmit(t(130), TSO_LIMIT).unwrap();
        let out = deliver(&mut c, t(140), seg);
        assert_eq!(out.delivered, 2000);
    }

    #[test]
    fn fin_ahead_of_missing_data_waits_for_the_hole() {
        let (mut c, mut s) = establish();
        c.app_send(1000);
        c.app_send(1000);
        c.close();
        let a = c.poll_transmit(t(100), TSO_LIMIT).unwrap();
        let b = c.poll_transmit(t(100), TSO_LIMIT).unwrap();
        let fin = c.poll_transmit(t(100), TSO_LIMIT).unwrap();
        // Segment `a` is delayed: deliver b, then FIN, then a.
        deliver(&mut s, t(110), b);
        let out = deliver(&mut s, t(111), fin);
        assert!(!out.peer_fin, "FIN must wait for the data hole");
        assert_eq!(s.state(), TcpState::Established);
        let out = deliver(&mut s, t(112), a);
        assert_eq!(out.delivered, 2000);
        assert!(out.peer_fin);
        assert_eq!(s.state(), TcpState::CloseWait);
    }

    // --- ECN tests ---

    fn ecn_cfg(cc: CcAlgo) -> TcpConfig {
        TcpConfig {
            ecn: true,
            cc,
            ..Default::default()
        }
    }

    #[test]
    fn ecn_negotiates_and_echoes_until_cwr() {
        let (mut c, mut s) = establish_cfg(ecn_cfg(CcAlgo::Reno), ecn_cfg(CcAlgo::Reno));
        assert!(c.ecn_active() && s.ecn_active());
        c.app_send(10 * 1448);
        let mut segs = Vec::new();
        while let Some(p) = c.poll_transmit(t(100), 1448) {
            assert_eq!(p.ecn, ecn::ECT0, "data on ECN conns is ECT(0)");
            segs.push(p);
        }
        // First segment hits a congested queue: CE-marked on arrival.
        let mut now = 200;
        let mut ece_seen = false;
        for (i, seg) in segs.iter().enumerate() {
            deliver_full(&mut s, t(now), *seg, i == 0);
            now += 1;
            while let Some(ack) = s.poll_transmit(t(now), 1448) {
                if ack.flags & tcp_flags::ECE != 0 {
                    ece_seen = true;
                }
                deliver(&mut c, t(now), ack);
                now += 1;
            }
        }
        assert_eq!(s.stats.ecn_ce_rx, 1);
        assert!(ece_seen, "receiver must echo ECE");
        assert!(c.stats.ecn_ece_rx > 0);
        // The sender reduced once and owes a CWR on its next data segment.
        assert!(
            c.cwnd() < 10 * 1448,
            "cwnd must shrink on ECE: {}",
            c.cwnd()
        );
        c.app_send(1448);
        let next = c.poll_transmit(t(now), 1448).unwrap();
        assert_eq!(next.flags & tcp_flags::CWR, tcp_flags::CWR);
        assert_eq!(c.stats.ecn_cwr_tx, 1);
        // CWR clears the receiver's latch: later ACKs drop ECE.
        deliver_full(&mut s, t(now + 1), next, false);
        while let Some(ack) = s.poll_transmit(t(now + 1), 1448) {
            assert_eq!(ack.flags & tcp_flags::ECE, 0, "latch must clear after CWR");
            deliver(&mut c, t(now + 2), ack);
        }
        assert_eq!(c.stats.timeouts, 0, "ECN reacts without loss");
        // The CWR was paid once: the next data segment does not repeat it.
        c.app_send(1448);
        let after = c.poll_transmit(t(now + 3), 1448).unwrap();
        assert_eq!(after.flags & tcp_flags::CWR, 0);
        assert_eq!(c.stats.ecn_cwr_tx, 1);
    }

    #[test]
    fn ecn_not_negotiated_when_peer_lacks_it() {
        let (c, s) = establish_cfg(ecn_cfg(CcAlgo::Reno), TcpConfig::default());
        assert!(!c.ecn_active() && !s.ecn_active());
        // And plain conns never stamp ECT.
        let (mut c, _s) = establish();
        c.app_send(1448);
        let seg = c.poll_transmit(t(100), 1448).unwrap();
        assert_eq!(seg.ecn, 0);
        assert!(!c.ecn_active());
    }

    #[test]
    fn dctcp_receiver_echoes_ce_state_per_segment() {
        let (mut c, mut s) = establish_cfg(ecn_cfg(CcAlgo::Dctcp), ecn_cfg(CcAlgo::Dctcp));
        c.app_send(4 * 1448);
        let segs: Vec<_> = std::iter::from_fn(|| c.poll_transmit(t(100), 1448)).collect();
        assert_eq!(segs.len(), 4);
        // CE on segment 0 and 1, clean on 2 and 3: the echo must track the
        // transitions (immediate ACK on each state change).
        deliver_full(&mut s, t(200), segs[0], true);
        let a0 = s.poll_transmit(t(200), 1448).unwrap();
        assert_ne!(a0.flags & tcp_flags::ECE, 0, "CE=1 state echoes ECE");
        deliver_full(&mut s, t(201), segs[1], true);
        if let Some(a1) = s.poll_transmit(t(201), 1448) {
            assert_ne!(a1.flags & tcp_flags::ECE, 0);
        }
        deliver_full(&mut s, t(202), segs[2], false);
        let a2 = s.poll_transmit(t(202), 1448).unwrap();
        assert_eq!(a2.flags & tcp_flags::ECE, 0, "CE=0 state drops ECE");
        deliver_full(&mut s, t(203), segs[3], false);
        assert_eq!(s.stats.ecn_ce_rx, 2);
    }

    // --- SACK tests ---

    fn sack_cfg() -> TcpConfig {
        TcpConfig {
            sack: true,
            ..Default::default()
        }
    }

    #[test]
    fn sack_recovery_repairs_hole_without_rewalking() {
        let (mut c, mut s) = establish_cfg(sack_cfg(), sack_cfg());
        c.app_send(10 * 1448);
        let mut segs = Vec::new();
        while let Some(p) = c.poll_transmit(t(100), 1448) {
            segs.push(p);
        }
        assert_eq!(segs.len(), 10);
        // Drop the first segment; deliver the rest. The dup ACKs carry
        // SACK blocks describing the received range.
        let mut now = 200;
        let mut rtx_count = 0;
        for seg in segs.iter().skip(1) {
            deliver_full(&mut s, t(now), *seg, false);
            now += 1;
            while let Some(ack) = s.poll_transmit(t(now), 1448) {
                if ack.ack == 1 {
                    assert!(!ack.sack.is_empty(), "dup acks must carry SACK blocks");
                }
                deliver_full(&mut c, t(now), ack, false);
                now += 1;
            }
            // Drain any retransmissions triggered so far.
            while let Some(p) = c.poll_transmit(t(now), 1448) {
                if p.is_rtx {
                    rtx_count += 1;
                    assert_eq!(p.seq, 1, "only the real hole is repaired");
                    assert_eq!(p.len, 1448);
                    deliver_full(&mut s, t(now), p, false);
                    now += 1;
                }
            }
        }
        assert_eq!(
            rtx_count, 1,
            "scoreboard must prevent re-retransmitting the same hole"
        );
        assert_eq!(c.stats.fast_retransmits, 1);
        assert_eq!(s.stats.bytes_delivered, 10 * 1448);
        // Flush the receiver's delayed ACK; the full ACK exits recovery.
        if let Some((d, w)) = s.next_timer() {
            s.on_timer(d, w);
        }
        while let Some(ack) = s.poll_transmit(t(now + 10_000), 1448) {
            deliver_full(&mut c, t(now + 10_000), ack, false);
        }
        assert_eq!(c.flight(), 0);
    }

    #[test]
    fn sack_repairs_two_holes_in_one_recovery() {
        let (mut c, mut s) = establish_cfg(sack_cfg(), sack_cfg());
        c.app_send(10 * 1448);
        let mut segs = Vec::new();
        while let Some(p) = c.poll_transmit(t(100), 1448) {
            segs.push(p);
        }
        // Drop segments 0 and 4.
        let mut now = 200;
        let mut rtx_seqs = Vec::new();
        for (i, seg) in segs.iter().enumerate() {
            if i == 0 || i == 4 {
                continue;
            }
            deliver_full(&mut s, t(now), *seg, false);
            now += 1;
            while let Some(ack) = s.poll_transmit(t(now), 1448) {
                deliver_full(&mut c, t(now), ack, false);
                now += 1;
            }
            while let Some(p) = c.poll_transmit(t(now), 1448) {
                if p.is_rtx {
                    rtx_seqs.push(p.seq);
                    deliver_full(&mut s, t(now), p, false);
                    now += 1;
                    while let Some(ack) = s.poll_transmit(t(now), 1448) {
                        deliver_full(&mut c, t(now), ack, false);
                        now += 1;
                    }
                }
            }
        }
        // Both holes repaired, each exactly once, in order.
        assert_eq!(rtx_seqs, vec![1, 1 + 4 * 1448]);
        assert_eq!(s.stats.bytes_delivered, 10 * 1448);
    }

    #[test]
    fn sack_blocks_above_snd_nxt_are_ignored() {
        let (mut c, _s) = establish_cfg(sack_cfg(), sack_cfg());
        (0..3).for_each(|_| assert!(c.app_send(1000)));
        while c.poll_transmit(t(100), TSO_LIMIT).is_some() {}
        assert_eq!(c.flight(), 3000);
        // Stragglers of an earlier incarnation of the flow key: an
        // acceptable ACK, SACK blocks for data this one never sent.
        let mut phantom = SackBlocks::EMPTY;
        phantom.push(50_001, 60_001);
        let straggler = Segment {
            sack: phantom,
            ..bare(1, 1, tcp_flags::ACK, 0)
        };
        for _ in 0..5 {
            c.on_segment(t(200), straggler);
        }
        // Three duplicate ACKs are three duplicate ACKs: one fast
        // retransmit of `snd_una`. Nothing says the rest of the flight is
        // lost — folded in, the phantom block would, and the fourth and
        // fifth would resend all of it.
        assert_eq!(c.stats.fast_retransmits, 1);
        let rtx = c.poll_transmit(t(200), TSO_LIMIT).unwrap();
        assert!(rtx.is_rtx && rtx.seq == 1);
        assert_eq!(c.poll_transmit(t(200), TSO_LIMIT), None);
        assert_eq!(c.stats.rtx_segs, 1);
    }
}
