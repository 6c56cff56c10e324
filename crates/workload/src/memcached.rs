//! The memcached / memslap workload (paper §6).
//!
//! The paper picks memcached as "a representative example of a
//! communication intensive application that is network bound" and drives it
//! with memslap from five client servers. A [`Memcached`] server VM is an
//! RR server on port 11211 with a small per-request service cost; a
//! [`MemslapClient`] issues fixed-size get/set transactions against a *set*
//! of memcached servers and reports the metrics the paper's tables use:
//! transactions/sec, mean latency, and the finish time of a fixed request
//! count (partition-aggregate style: the client is done only when all
//! servers' shares are done, §6.1.2).

use std::collections::VecDeque;

use fastrak_host::app::{GuestApi, GuestApp};
use fastrak_net::addr::Ip;
use fastrak_sim::stats::Histogram;
use fastrak_sim::time::{SimDuration, SimTime};
use fastrak_transport::stack::{ConnId, SockEvent};

use crate::rr::{RrServer, RrServerConfig};

/// The standard memcached port.
pub const MEMCACHED_PORT: u16 = 11211;

/// Build a memcached server app: RR on 11211, ~64 B requests, ~1 KB
/// responses, a couple of microseconds of service CPU per request.
pub fn memcached_server() -> RrServer {
    RrServer::new(RrServerConfig {
        port: MEMCACHED_PORT,
        req_size: MemslapConfig::REQ_SIZE,
        resp_size: MemslapConfig::RESP_SIZE,
        service_cpu: SimDuration::from_micros(8),
    })
}

/// Type alias: a memcached server VM runs an RR server.
pub type Memcached = RrServer;

/// memslap configuration.
#[derive(Debug, Clone)]
pub struct MemslapConfig {
    /// The memcached servers this client queries (all of them, §6.1.2).
    pub targets: Vec<Ip>,
    /// Connections per target server.
    pub conns_per_target: usize,
    /// Outstanding requests per connection (memslap concurrency).
    pub burst: usize,
    /// Total transactions to complete across all targets (None = open-ended).
    pub total_requests: Option<u64>,
    /// First local source port.
    pub src_port_base: u16,
    /// Delay before starting.
    pub start_delay: SimDuration,
}

impl MemslapConfig {
    /// memslap's default ~64 B request (key + command framing).
    pub const REQ_SIZE: u64 = 64;
    /// memslap's default 1 KB value responses.
    pub const RESP_SIZE: u64 = 1024;

    /// Paper setup: query every target, 2 connections each, closed loop
    /// per connection (the finish-time tables are latency-bound: TPS/client
    /// ≈ outstanding / latency ≈ 8 / 331 µs ≈ 24k, matching Table 2).
    pub fn paper(targets: Vec<Ip>, total_requests: Option<u64>) -> MemslapConfig {
        MemslapConfig {
            targets,
            conns_per_target: 2,
            burst: 1,
            total_requests,
            src_port_base: 43_000,
            start_delay: SimDuration::ZERO,
        }
    }
}

#[derive(Clone)]
struct SlapConn {
    id: ConnId,
    in_flight: VecDeque<SimTime>,
    rx_accum: u64,
    /// Requests this connection may still issue (partition-aggregate: the
    /// total is split evenly per connection, so the client finishes only
    /// when its share at EVERY server is done — Table 2's key effect).
    quota: Option<u64>,
}

/// The memslap client guest app.
#[derive(Clone)]
pub struct MemslapClient {
    cfg: MemslapConfig,
    conns: Vec<SlapConn>,
    issued: u64,
    completed: u64,
    /// Per-transaction latency histogram (ns).
    pub latency: Histogram,
    window_start: SimTime,
    window_completed_base: u64,
    /// When the configured total completed.
    pub finished_at: Option<SimTime>,
    started_at: Option<SimTime>,
}

const TIMER_START: u64 = 1;

impl MemslapClient {
    /// Build from a configuration.
    pub fn new(cfg: MemslapConfig) -> MemslapClient {
        MemslapClient {
            cfg,
            conns: Vec::new(),
            issued: 0,
            completed: 0,
            latency: Histogram::new(),
            window_start: SimTime::ZERO,
            window_completed_base: 0,
            finished_at: None,
            started_at: None,
        }
    }

    /// Transactions completed so far.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// When the client actually started issuing.
    pub fn started_at(&self) -> Option<SimTime> {
        self.started_at
    }

    /// Restart the measurement window (after warmup).
    pub fn begin_window(&mut self, now: SimTime) {
        self.window_start = now;
        self.window_completed_base = self.completed;
        self.latency = Histogram::new();
    }

    /// Transactions per second over the window.
    pub fn tps(&self, now: SimTime) -> f64 {
        let dt = now.since(self.window_start).as_secs_f64();
        if dt <= 0.0 {
            return 0.0;
        }
        (self.completed - self.window_completed_base) as f64 / dt
    }

    /// Elapsed run time (finish time once finished — Tables 2-4).
    pub fn finish_time(&self) -> Option<SimDuration> {
        match (self.started_at, self.finished_at) {
            (Some(s), Some(f)) => Some(f.since(s)),
            _ => None,
        }
    }

    fn maybe_issue(&mut self, ci: usize, api: &mut GuestApi<'_>) {
        loop {
            let conn = &mut self.conns[ci];
            if conn.quota == Some(0) || conn.in_flight.len() >= self.cfg.burst {
                return;
            }
            if !api.send(conn.id, MemslapConfig::REQ_SIZE) {
                return;
            }
            conn.in_flight.push_back(api.now);
            if let Some(q) = &mut conn.quota {
                *q -= 1;
            }
            self.issued += 1;
        }
    }
}

impl GuestApp for MemslapClient {
    fn on_start(&mut self, api: &mut GuestApi<'_>) {
        api.set_timer(self.cfg.start_delay, TIMER_START);
    }

    fn on_timer(&mut self, tag: u64, api: &mut GuestApi<'_>) {
        if tag == TIMER_START && self.conns.is_empty() {
            self.started_at = Some(api.now);
            let mut port = self.cfg.src_port_base;
            let targets = self.cfg.targets.clone();
            let n_conns = (targets.len() * self.cfg.conns_per_target) as u64;
            let quota = self.cfg.total_requests.map(|t| t / n_conns);
            for dst in targets {
                for _ in 0..self.cfg.conns_per_target {
                    let id = api.connect(dst, MEMCACHED_PORT, port);
                    port += 1;
                    self.conns.push(SlapConn {
                        id,
                        in_flight: VecDeque::new(),
                        rx_accum: 0,
                        quota,
                    });
                }
            }
        }
    }

    fn on_event(&mut self, ev: SockEvent, api: &mut GuestApi<'_>) {
        match ev {
            SockEvent::Connected(id) => {
                if let Some(ci) = self.conns.iter().position(|c| c.id == id) {
                    self.maybe_issue(ci, api);
                }
            }
            SockEvent::Delivered { conn, bytes } => {
                let Some(ci) = self.conns.iter().position(|c| c.id == conn) else {
                    return;
                };
                self.conns[ci].rx_accum += bytes;
                while self.conns[ci].rx_accum >= MemslapConfig::RESP_SIZE {
                    self.conns[ci].rx_accum -= MemslapConfig::RESP_SIZE;
                    let Some(t0) = self.conns[ci].in_flight.pop_front() else {
                        break;
                    };
                    self.latency.record(api.now.since(t0).as_nanos());
                    self.completed += 1;
                    if self.cfg.total_requests.is_some()
                        && self.finished_at.is_none()
                        && self
                            .conns
                            .iter()
                            .all(|c| c.quota == Some(0) && c.in_flight.is_empty())
                    {
                        self.finished_at = Some(api.now);
                    }
                }
                self.maybe_issue(ci, api);
            }
            _ => {}
        }
    }
}
