//! Incast (partition-aggregate fan-in) workload.
//!
//! The canonical data-center pattern that stresses congestion control:
//! an aggregator queries N workers at once and each answers with a
//! response that arrives at the aggregator's single link simultaneously,
//! overflowing shallow drop-tail buffers (the memcached multi-get /
//! web-search scatter-gather pattern). A round's *flow completion time*
//! (FCT) is the gap from issuing the fan-out to receiving the last
//! response byte — the metric the `incast_matrix` experiment sweeps
//! across congestion-control variants and path placements.
//!
//! Two flow classes share the fabric, mirroring the long/short-flow mix
//! the DCTCP evaluation uses:
//!
//! * **Short flows** — one request/response per round per worker,
//!   synchronized (the incast burst proper).
//! * **Long flows** — closed-loop pipelined transfers to a subset of the
//!   workers that keep standing queues occupied, so short flows contend
//!   with built-up backlog exactly as in the paper's mixed workloads.
//!
//! When the configured round count completes the aggregator *closes*
//! every connection, exercising the full FIN/TIME_WAIT lifecycle
//! end-to-end through the stack.

use fastrak_host::app::{GuestApi, GuestApp};
use fastrak_net::addr::Ip;
use fastrak_sim::stats::Histogram;
use fastrak_sim::time::{SimDuration, SimTime};
use fastrak_transport::stack::{ConnId, SockEvent};

use crate::rr::{RrServer, RrServerConfig};

/// The port incast workers listen on.
pub const INCAST_PORT: u16 = 9000;

/// Build a worker app: an RR server answering `resp_size`-byte responses
/// to the aggregator's fixed-size requests, with a small service cost.
pub fn incast_worker(resp_size: u64) -> RrServer {
    RrServer::new(RrServerConfig {
        port: INCAST_PORT,
        req_size: IncastConfig::REQ_SIZE,
        resp_size,
        service_cpu: SimDuration::from_micros(2),
    })
}

/// Aggregator configuration.
#[derive(Debug, Clone)]
pub struct IncastConfig {
    /// Worker VM addresses (the fan-out set).
    pub workers: Vec<Ip>,
    /// Response size per worker per round.
    pub resp_size: u64,
    /// Rounds to run (None = open-ended).
    pub rounds: Option<u64>,
    /// Number of workers that additionally carry a long background flow.
    pub long_flows: usize,
    /// Outstanding transactions per long flow (pipelining depth).
    pub long_burst: usize,
    /// First local source port (short conns, then long conns).
    pub src_port_base: u16,
    /// Delay before opening connections.
    pub start_delay: SimDuration,
}

impl IncastConfig {
    /// Fixed tiny query size (a multi-get key batch).
    pub const REQ_SIZE: u64 = 32;

    /// A bare fan-in sweep cell: `fanout` workers, `resp_size` responses,
    /// no long flows.
    pub fn fan_in(workers: Vec<Ip>, resp_size: u64, rounds: u64) -> IncastConfig {
        IncastConfig {
            workers,
            resp_size,
            rounds: Some(rounds),
            long_flows: 0,
            long_burst: 4,
            src_port_base: 47_000,
            start_delay: SimDuration::ZERO,
        }
    }
}

#[derive(Clone)]
struct ShortConn {
    id: ConnId,
    connected: bool,
    rx_accum: u64,
}

#[derive(Clone)]
struct LongConn {
    id: ConnId,
    in_flight: usize,
    rx_accum: u64,
}

/// Aggregator guest app: synchronized fan-out rounds over short
/// connections plus continuous closed-loop load on long connections.
#[derive(Clone)]
pub struct IncastAggregator {
    cfg: IncastConfig,
    short: Vec<ShortConn>,
    long: Vec<LongConn>,
    /// Responses still outstanding in the current round (0 = idle).
    awaiting: usize,
    round_start: SimTime,
    /// Rounds completed so far.
    pub completed_rounds: u64,
    /// Per-round flow completion time (ns samples).
    pub fct: Histogram,
    /// When the configured round count completed (connections closed).
    pub finished_at: Option<SimTime>,
    started_at: Option<SimTime>,
    closing: bool,
}

const TIMER_START: u64 = 1;

impl IncastAggregator {
    /// Build from a configuration.
    pub fn new(cfg: IncastConfig) -> IncastAggregator {
        IncastAggregator {
            cfg,
            short: Vec::new(),
            long: Vec::new(),
            awaiting: 0,
            round_start: SimTime::ZERO,
            completed_rounds: 0,
            fct: Histogram::new(),
            finished_at: None,
            started_at: None,
            closing: false,
        }
    }

    /// When the aggregator opened its connections.
    pub fn started_at(&self) -> Option<SimTime> {
        self.started_at
    }

    /// Total run time once all rounds are done.
    pub fn finish_time(&self) -> Option<SimDuration> {
        match (self.started_at, self.finished_at) {
            (Some(s), Some(f)) => Some(f.since(s)),
            _ => None,
        }
    }

    fn start_round(&mut self, api: &mut GuestApi<'_>) {
        self.round_start = api.now;
        self.awaiting = self.short.len();
        for c in &self.short {
            // A 32B request always fits the send buffer.
            api.send(c.id, IncastConfig::REQ_SIZE);
        }
    }

    fn pump_long(&mut self, li: usize, api: &mut GuestApi<'_>) {
        if self.closing {
            return;
        }
        loop {
            let c = &mut self.long[li];
            if c.in_flight >= self.cfg.long_burst {
                return;
            }
            if !api.send(c.id, IncastConfig::REQ_SIZE) {
                return;
            }
            c.in_flight += 1;
        }
    }

    fn finish(&mut self, api: &mut GuestApi<'_>) {
        self.finished_at = Some(api.now);
        self.closing = true;
        for c in &self.short {
            api.close(c.id);
        }
        for c in &self.long {
            api.close(c.id);
        }
    }
}

impl GuestApp for IncastAggregator {
    fn on_start(&mut self, api: &mut GuestApi<'_>) {
        api.set_timer(self.cfg.start_delay, TIMER_START);
    }

    fn on_timer(&mut self, tag: u64, api: &mut GuestApi<'_>) {
        if tag == TIMER_START && self.short.is_empty() {
            self.started_at = Some(api.now);
            let mut port = self.cfg.src_port_base;
            let workers = self.cfg.workers.clone();
            for &dst in &workers {
                let id = api.connect(dst, INCAST_PORT, port);
                port += 1;
                self.short.push(ShortConn {
                    id,
                    connected: false,
                    rx_accum: 0,
                });
            }
            for &dst in workers.iter().take(self.cfg.long_flows) {
                let id = api.connect(dst, INCAST_PORT, port);
                port += 1;
                self.long.push(LongConn {
                    id,
                    in_flight: 0,
                    rx_accum: 0,
                });
            }
        }
    }

    fn on_event(&mut self, ev: SockEvent, api: &mut GuestApi<'_>) {
        match ev {
            SockEvent::Connected(id) => {
                if let Some(c) = self.short.iter_mut().find(|c| c.id == id) {
                    c.connected = true;
                    // The round fires only once the whole fan-out set is up:
                    // the burst must be synchronized to produce incast.
                    if self.awaiting == 0
                        && self.finished_at.is_none()
                        && self.short.iter().all(|c| c.connected)
                    {
                        self.start_round(api);
                    }
                } else if let Some(li) = self.long.iter().position(|c| c.id == id) {
                    self.pump_long(li, api);
                }
            }
            SockEvent::Delivered { conn, bytes } => {
                if let Some(si) = self.short.iter().position(|c| c.id == conn) {
                    self.short[si].rx_accum += bytes;
                    while self.short[si].rx_accum >= self.cfg.resp_size {
                        self.short[si].rx_accum -= self.cfg.resp_size;
                        self.awaiting = self.awaiting.saturating_sub(1);
                        if self.awaiting == 0 {
                            self.fct.record(api.now.since(self.round_start).as_nanos());
                            self.completed_rounds += 1;
                            if self.cfg.rounds.is_some_and(|r| self.completed_rounds >= r) {
                                self.finish(api);
                            } else {
                                self.start_round(api);
                            }
                        }
                    }
                } else if let Some(li) = self.long.iter().position(|c| c.id == conn) {
                    self.long[li].rx_accum += bytes;
                    while self.long[li].rx_accum >= self.cfg.resp_size {
                        self.long[li].rx_accum -= self.cfg.resp_size;
                        self.long[li].in_flight = self.long[li].in_flight.saturating_sub(1);
                    }
                    self.pump_long(li, api);
                }
            }
            _ => {}
        }
    }
}
