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
use fastrak_transport::stack::SockEvent;

use crate::rr::{RrServer, RrServerConfig};
use crate::txn::{self, Client};

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

/// Aggregator guest app: synchronized fan-out rounds over short
/// connections plus continuous closed-loop load on long connections.
#[derive(Clone)]
pub struct IncastAggregator {
    cfg: IncastConfig,
    /// One short connection per worker, then the long ones.
    client: Client,
    /// Short connections whose handshake completed.
    connected: usize,
    /// Responses still outstanding in the current round (0 = idle).
    awaiting: usize,
    /// Rounds completed so far.
    pub completed_rounds: u64,
    /// Per-round flow completion time (ns samples).
    pub fct: Histogram,
    /// When the configured round count completed (connections closed).
    pub finished_at: Option<SimTime>,
    started_at: Option<SimTime>,
}

const TIMER_START: u64 = 1;

impl IncastAggregator {
    /// Build from a configuration.
    pub fn new(cfg: IncastConfig) -> IncastAggregator {
        IncastAggregator {
            client: Client::new(IncastConfig::REQ_SIZE, cfg.resp_size),
            cfg,
            connected: 0,
            awaiting: 0,
            completed_rounds: 0,
            fct: Histogram::new(),
            finished_at: None,
            started_at: None,
        }
    }

    /// Total run time once all rounds are done.
    pub fn finish_time(&self) -> Option<SimDuration> {
        txn::finish_time(self.started_at, self.finished_at)
    }

    /// One request per short connection, all at this instant, so a
    /// round's last response carries the round's start.
    fn start_round(&mut self, api: &mut GuestApi<'_>) {
        self.awaiting = self.cfg.workers.len();
        for ci in 0..self.awaiting {
            // A 32B request always fits the send buffer.
            self.client.fill(ci, api, 1, None);
        }
    }
}

impl GuestApp for IncastAggregator {
    fn on_start(&mut self, api: &mut GuestApi<'_>) {
        api.set_timer(self.cfg.start_delay, TIMER_START);
    }

    fn on_timer(&mut self, tag: u64, api: &mut GuestApi<'_>) {
        if tag == TIMER_START && self.client.len() == 0 {
            self.started_at = Some(api.now);
            let long = self.cfg.workers.iter().take(self.cfg.long_flows);
            for (&dst, port) in self
                .cfg
                .workers
                .iter()
                .chain(long)
                .zip(self.cfg.src_port_base..)
            {
                self.client.connect(api, dst, INCAST_PORT, port);
            }
        }
    }

    fn on_event(&mut self, ev: SockEvent, api: &mut GuestApi<'_>) {
        let (n_short, awaiting) = (self.cfg.workers.len(), &mut self.awaiting);
        let mut round_done = None;
        let done = |ci, t0| {
            if ci < n_short {
                *awaiting -= 1;
                if *awaiting == 0 {
                    round_done = Some(t0);
                }
            }
        };
        let Some(ci) = self.client.on_event(ev, done) else {
            return;
        };
        if ci >= n_short {
            if self.finished_at.is_none() {
                self.client.fill(ci, api, self.cfg.long_burst, None);
            }
            return;
        }
        self.connected += usize::from(matches!(ev, SockEvent::Connected(_)));
        if let Some(t0) = round_done {
            self.fct.record(api.now.since(t0).as_nanos());
            self.completed_rounds += 1;
            if self.cfg.rounds.is_some_and(|r| self.completed_rounds >= r) {
                self.finished_at = Some(api.now);
                self.client.close_all(api);
            }
        }
        // The next round fires once the whole fan-out set is up and the
        // last round is done: the burst must be synchronized to produce
        // incast.
        if self.awaiting == 0 && self.finished_at.is_none() && self.connected == n_short {
            self.start_round(api);
        }
    }
}
