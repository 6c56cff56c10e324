//! Request/response (transaction) workloads — the netperf `TCP_RR` family
//! (§3.1.1) and the RR server that memcached and the incast workers run.
//!
//! * **Closed-loop** (`burst = 1`): one request in flight per connection;
//!   measures round-trip latency distribution (paper Fig. 3(b,c)).
//! * **Pipelined** (`burst = 32`, 3 connections): netperf's burst mode;
//!   measures transactions/sec and loaded latency (Fig. 3(d,e)).
//!
//! Latency is measured application-to-application: from queuing the request
//! to receiving the last byte of its response (the crate's transaction
//! engine, `txn`, keeps the send times).

use fastrak_host::app::{GuestApi, GuestApp};
use fastrak_net::addr::Ip;
use fastrak_sim::stats::Histogram;
use fastrak_sim::time::{SimDuration, SimTime};
use fastrak_transport::stack::SockEvent;

use crate::txn::{Client, Server};

/// Configuration of an RR client.
#[derive(Debug, Clone)]
pub struct RrClientConfig {
    /// Server VM tenant IP.
    pub dst: Ip,
    /// Server port.
    pub dst_port: u16,
    /// First local source port (one per connection/thread).
    pub src_port_base: u16,
    /// Number of connections ("netperf threads").
    pub threads: usize,
    /// Request size in bytes (one application write).
    pub req_size: u64,
    /// Expected response size in bytes.
    pub resp_size: u64,
    /// Outstanding transactions per connection (1 = closed loop).
    pub burst: usize,
    /// Stop after this many completed transactions in total.
    pub total_requests: Option<u64>,
}

impl RrClientConfig {
    /// netperf TCP_RR closed-loop defaults at a given application data size.
    pub fn closed_loop(dst: Ip, dst_port: u16, size: u64) -> RrClientConfig {
        RrClientConfig {
            dst,
            dst_port,
            src_port_base: 41_000,
            threads: 1,
            req_size: size,
            resp_size: size,
            burst: 1,
            total_requests: None,
        }
    }

    /// netperf burst-mode defaults (3 threads, 32 outstanding, §3.1.1).
    pub fn pipelined(dst: Ip, dst_port: u16, size: u64) -> RrClientConfig {
        RrClientConfig {
            threads: 3,
            burst: 32,
            ..RrClientConfig::closed_loop(dst, dst_port, size)
        }
    }
}

/// The RR client guest app.
#[derive(Clone)]
pub struct RrClient {
    cfg: RrClientConfig,
    client: Client,
    issued: u64,
    /// Transaction latency histogram (ns samples).
    pub latency: Histogram,
    /// When the configured request total completed.
    pub finished_at: Option<SimTime>,
}

impl RrClient {
    /// Build from a configuration.
    pub fn new(cfg: RrClientConfig) -> RrClient {
        RrClient {
            client: Client::new(cfg.req_size, cfg.resp_size),
            cfg,
            issued: 0,
            latency: Histogram::new(),
            finished_at: None,
        }
    }

    /// Transactions completed so far.
    pub fn completed(&self) -> u64 {
        self.client.completed()
    }

    /// Restart the measurement window: resets the latency histogram and the
    /// TPS base (call after warmup).
    pub fn begin_window(&mut self, now: SimTime) {
        self.client.begin_window(now);
        self.latency = Histogram::new();
    }

    /// Transactions per second over the current window.
    pub fn tps(&self, now: SimTime) -> f64 {
        self.client.tps(now)
    }
}

impl GuestApp for RrClient {
    fn on_start(&mut self, api: &mut GuestApi<'_>) {
        for t in 0..self.cfg.threads {
            let src_port = self.cfg.src_port_base + t as u16;
            self.client
                .connect(api, self.cfg.dst, self.cfg.dst_port, src_port);
        }
    }

    fn on_timer(&mut self, _tag: u64, _api: &mut GuestApi<'_>) {}

    fn on_event(&mut self, ev: SockEvent, api: &mut GuestApi<'_>) {
        // Lifecycle events: these long-lived netperf-style fleets never
        // close, so teardown notifications need no handling.
        let now = api.now;
        let done = |_, t0: SimTime| self.latency.record(now.since(t0).as_nanos());
        if let Some(ci) = self.client.on_event(ev, done) {
            let budget = self.cfg.total_requests.map(|t| t - self.issued);
            self.issued += self.client.fill(ci, api, self.cfg.burst, budget);
        }
        if Some(self.completed()) == self.cfg.total_requests {
            self.finished_at.get_or_insert(now);
        }
    }
}

/// Configuration of an RR server.
#[derive(Debug, Clone)]
pub struct RrServerConfig {
    /// Listening port.
    pub port: u16,
    /// Request size the protocol expects per transaction.
    pub req_size: u64,
    /// Response size per transaction.
    pub resp_size: u64,
    /// vCPU work per transaction (memcached request service).
    pub service_cpu: SimDuration,
}

/// The RR server guest app (netserver / memcached).
#[derive(Clone)]
pub struct RrServer {
    server: Server,
    /// Transactions served.
    pub served: u64,
}

impl RrServer {
    /// Build from a configuration.
    pub fn new(cfg: RrServerConfig) -> RrServer {
        RrServer {
            server: Server::new(cfg, 1),
            served: 0,
        }
    }
}

impl GuestApp for RrServer {
    fn on_start(&mut self, api: &mut GuestApi<'_>) {
        self.server.listen(api);
    }

    fn on_event(&mut self, ev: SockEvent, api: &mut GuestApi<'_>) {
        self.served += self.server.on_event(ev, api);
    }

    fn on_timer(&mut self, _tag: u64, _api: &mut GuestApi<'_>) {}
}
