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

use fastrak_host::app::{GuestApi, GuestApp};
use fastrak_net::addr::Ip;
use fastrak_sim::stats::Histogram;
use fastrak_sim::time::{SimDuration, SimTime};
use fastrak_transport::stack::SockEvent;

use crate::rr::{RrServer, RrServerConfig};
use crate::txn::{self, Client};

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
    /// Connections per target server.
    const CONNS_PER_TARGET: usize = 2;

    /// Paper setup: query every target, 2 connections each, closed loop
    /// per connection (the finish-time tables are latency-bound: TPS/client
    /// ≈ outstanding / latency ≈ 8 / 331 µs ≈ 24k, matching Table 2).
    pub fn paper(targets: Vec<Ip>, total_requests: Option<u64>) -> MemslapConfig {
        MemslapConfig {
            targets,
            burst: 1,
            total_requests,
            src_port_base: 43_000,
            start_delay: SimDuration::ZERO,
        }
    }
}

/// The memslap client guest app.
#[derive(Clone)]
pub struct MemslapClient {
    cfg: MemslapConfig,
    client: Client,
    /// Requests each connection may still issue (partition-aggregate: the
    /// total is split evenly over the connections, so the client finishes
    /// only when its share at EVERY server is done — Table 2's key effect).
    quota: Vec<Option<u64>>,
    /// Per-transaction latency histogram (ns).
    pub latency: Histogram,
    /// When the configured total completed.
    pub finished_at: Option<SimTime>,
    started_at: Option<SimTime>,
}

const TIMER_START: u64 = 1;

impl MemslapClient {
    /// Build from a configuration. Panics on a request total with no
    /// target to send it to.
    pub fn new(cfg: MemslapConfig) -> MemslapClient {
        if let Some(t) = cfg.total_requests {
            assert!(
                !cfg.targets.is_empty(),
                "MemslapConfig.targets is empty: total_requests {t} has no connection to run on"
            );
        }
        MemslapClient {
            cfg,
            client: Client::new(MemslapConfig::REQ_SIZE, MemslapConfig::RESP_SIZE),
            quota: Vec::new(),
            latency: Histogram::new(),
            finished_at: None,
            started_at: None,
        }
    }

    /// Transactions completed so far.
    pub fn completed(&self) -> u64 {
        self.client.completed()
    }

    /// When the client actually started issuing.
    pub fn started_at(&self) -> Option<SimTime> {
        self.started_at
    }

    /// Restart the measurement window (after warmup).
    pub fn begin_window(&mut self, now: SimTime) {
        self.client.begin_window(now);
        self.latency = Histogram::new();
    }

    /// Transactions per second over the window.
    pub fn tps(&self, now: SimTime) -> f64 {
        self.client.tps(now)
    }

    /// Elapsed run time (finish time once finished — Tables 2-4).
    pub fn finish_time(&self) -> Option<SimDuration> {
        txn::finish_time(self.started_at, self.finished_at)
    }
}

impl GuestApp for MemslapClient {
    fn on_start(&mut self, api: &mut GuestApi<'_>) {
        api.set_timer(self.cfg.start_delay, TIMER_START);
    }

    fn on_timer(&mut self, tag: u64, api: &mut GuestApi<'_>) {
        if tag == TIMER_START && self.client.len() == 0 {
            self.started_at = Some(api.now);
            let n_conns = (self.cfg.targets.len() * MemslapConfig::CONNS_PER_TARGET) as u64;
            let mut port = self.cfg.src_port_base;
            for &dst in &self.cfg.targets {
                for _ in 0..MemslapConfig::CONNS_PER_TARGET {
                    // The first `total % n_conns` connections carry one
                    // request more, so the shares sum to the total.
                    let k = self.quota.len() as u64;
                    self.quota.push(
                        self.cfg
                            .total_requests
                            .map(|t| t / n_conns + u64::from(k < t % n_conns)),
                    );
                    self.client.connect(api, dst, MEMCACHED_PORT, port);
                    port += 1;
                }
            }
        }
    }

    fn on_event(&mut self, ev: SockEvent, api: &mut GuestApi<'_>) {
        let now = api.now;
        let done = |_, t0: SimTime| self.latency.record(now.since(t0).as_nanos());
        if let Some(ci) = self.client.on_event(ev, done) {
            let quota = &mut self.quota[ci];
            let sent = self.client.fill(ci, api, self.cfg.burst, *quota);
            if let Some(q) = quota {
                *q -= sent;
            }
        }
        // The shares sum to the total, so the total is done exactly when
        // every connection's share is.
        if Some(self.completed()) == self.cfg.total_requests {
            self.finished_at.get_or_insert(now);
        }
    }
}
