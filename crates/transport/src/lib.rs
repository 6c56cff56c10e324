//! # fastrak-transport
//!
//! A sans-IO TCP implementation plus the per-VM connection stack the guest
//! network stacks of the simulated testbed run.
//!
//! Design follows the event-driven state-machine idiom (smoltcp-style): a
//! [`tcp::TcpConn`] is a pure state machine fed segments, timer expiries and
//! application writes; it never performs IO itself. The host model drains
//! [`tcp::TcpConn::poll_transmit`] into whichever interface the bonding
//! driver's flow placer selects, which is exactly the seam FasTrak's flow
//! migration exploits — a connection does not know (or care) which path its
//! segments take, so migrating a flow mid-stream only reorders/loses packets
//! in flight (paper §6.2.2 and Fig. 12).
//!
//! Implemented TCP behaviour (matching the observable effects in the paper):
//!
//! * the full RFC 793 lifecycle: both open paths (including simultaneous
//!   open), both close paths (including simultaneous close), RST teardown,
//!   and TIME_WAIT with 2·MSL expiry ([`tcp`] module);
//! * pluggable congestion control ([`cc`] module): Reno/NewReno (the
//!   default, bit-identical to the pre-refactor inline arithmetic — a
//!   seeded lockstep test in [`cc`] compares the two), RFC 8312 CUBIC, and
//!   RFC 8257 DCTCP with per-window ECN-fraction estimation;
//! * slow start / congestion avoidance, initial window 10 MSS;
//! * duplicate-ACK counting, fast retransmit on the 3rd dup-ACK, NewReno
//!   partial-ACK retransmission during recovery — or SACK scoreboard-
//!   directed hole repair when enabled ([`sack`] module);
//! * RFC 3168 ECN negotiation and ECE/CWR echo (per-segment CE echo in
//!   DCTCP mode);
//! * RTO with exponential backoff and Karn's algorithm for RTT sampling
//!   ([`rtt`] module);
//! * delayed ACKs (every 2nd segment, bounded by a timer), ACK piggybacking;
//! * application *write-boundary preservation* — netperf with `TCP_NODELAY`
//!   sends each application write as its own segment(s), which is what makes
//!   small application data sizes expensive (paper §3.2.4);
//! * TSO-style super-segments: a segment may carry up to
//!   [`tcp::TSO_LIMIT`] bytes; per-wire-segment costs are charged by the
//!   path cost models, not by the transport.

pub mod cc;
mod receiver;
mod recovery;
pub mod rtt;
pub mod sack;
pub mod stack;
pub mod tcp;

pub use cc::{Cc, CcAlgo, CongestionControl, CubicCc, DctcpCc, RenoCc};
pub use rtt::RttEstimator;
pub use sack::Scoreboard;
pub use stack::{ConnId, SockEvent, TcpStack};
pub use tcp::{
    RxOutcome, Segment, SegmentPlan, TcpConfig, TcpConn, TcpState, TcpStats, TcpTimer, TSO_LIMIT,
};
