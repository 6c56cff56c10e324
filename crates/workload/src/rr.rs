//! Request/response (transaction) workloads — the netperf `TCP_RR` family
//! (§3.1.1) and the transaction core reused by the memcached/memslap models.
//!
//! * **Closed-loop** (`burst = 1`): one request in flight per connection;
//!   measures round-trip latency distribution (paper Fig. 3(b,c)).
//! * **Pipelined** (`burst = 32`, 3 connections): netperf's burst mode;
//!   measures transactions/sec and loaded latency (Fig. 3(d,e)).
//!
//! Latency is measured application-to-application: from queuing the request
//! to receiving the last byte of its response. Responses arrive in order
//! (TCP), so a FIFO of send timestamps per connection suffices.

use std::collections::VecDeque;

use fastrak_host::app::{GuestApi, GuestApp};
use fastrak_net::addr::Ip;
use fastrak_sim::stats::Histogram;
use fastrak_sim::time::{SimDuration, SimTime};
use fastrak_transport::stack::{ConnId, SockEvent};

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
    /// Delay before opening connections.
    pub start_delay: SimDuration,
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
            start_delay: SimDuration::ZERO,
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

#[derive(Clone)]
struct RrConn {
    id: ConnId,
    in_flight: VecDeque<SimTime>,
    rx_accum: u64,
}

/// The RR client guest app.
#[derive(Clone)]
pub struct RrClient {
    cfg: RrClientConfig,
    conns: Vec<RrConn>,
    issued: u64,
    completed: u64,
    /// Transaction latency histogram (ns samples).
    pub latency: Histogram,
    window_start: SimTime,
    window_completed_base: u64,
    /// When the configured request total completed.
    pub finished_at: Option<SimTime>,
}

const TIMER_START: u64 = 1;

impl RrClient {
    /// Build from a configuration.
    pub fn new(cfg: RrClientConfig) -> RrClient {
        RrClient {
            cfg,
            conns: Vec::new(),
            issued: 0,
            completed: 0,
            latency: Histogram::new(),
            window_start: SimTime::ZERO,
            window_completed_base: 0,
            finished_at: None,
        }
    }

    /// Transactions completed so far.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Restart the measurement window: resets the latency histogram and the
    /// TPS base (call after warmup).
    pub fn begin_window(&mut self, now: SimTime) {
        self.window_start = now;
        self.window_completed_base = self.completed;
        self.latency = Histogram::new();
    }

    /// Transactions per second over the current window.
    pub fn tps(&self, now: SimTime) -> f64 {
        let dt = now.since(self.window_start).as_secs_f64();
        if dt <= 0.0 {
            return 0.0;
        }
        (self.completed - self.window_completed_base) as f64 / dt
    }

    fn maybe_issue(&mut self, ci: usize, api: &mut GuestApi<'_>) {
        loop {
            if let Some(total) = self.cfg.total_requests {
                if self.issued >= total {
                    return;
                }
            }
            let conn = &mut self.conns[ci];
            if conn.in_flight.len() >= self.cfg.burst {
                return;
            }
            if !api.send(conn.id, self.cfg.req_size) {
                return; // send buffer full; retry on next delivery
            }
            conn.in_flight.push_back(api.now);
            self.issued += 1;
        }
    }
}

impl GuestApp for RrClient {
    fn on_start(&mut self, api: &mut GuestApi<'_>) {
        if self.cfg.start_delay > SimDuration::ZERO {
            api.set_timer(self.cfg.start_delay, TIMER_START);
        } else {
            self.on_timer(TIMER_START, api);
        }
    }

    fn on_timer(&mut self, tag: u64, api: &mut GuestApi<'_>) {
        if tag == TIMER_START && self.conns.is_empty() {
            for t in 0..self.cfg.threads {
                let id = api.connect(
                    self.cfg.dst,
                    self.cfg.dst_port,
                    self.cfg.src_port_base + t as u16,
                );
                self.conns.push(RrConn {
                    id,
                    in_flight: VecDeque::new(),
                    rx_accum: 0,
                });
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
                while self.conns[ci].rx_accum >= self.cfg.resp_size {
                    self.conns[ci].rx_accum -= self.cfg.resp_size;
                    let Some(t0) = self.conns[ci].in_flight.pop_front() else {
                        break;
                    };
                    self.latency.record(api.now.since(t0).as_nanos());
                    self.completed += 1;
                    if Some(self.completed) == self.cfg.total_requests {
                        self.finished_at = Some(api.now);
                    }
                }
                self.maybe_issue(ci, api);
            }
            // Lifecycle events: these long-lived netperf-style fleets never
            // close, so teardown notifications need no handling.
            _ => {}
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

#[derive(Clone)]
struct SrvConn {
    id: ConnId,
    rx_accum: u64,
}

/// The RR server guest app (netserver / memcached).
#[derive(Clone)]
pub struct RrServer {
    cfg: RrServerConfig,
    conns: Vec<SrvConn>,
    /// Transactions served.
    pub served: u64,
}

impl RrServer {
    /// Build from a configuration.
    pub fn new(cfg: RrServerConfig) -> RrServer {
        RrServer {
            cfg,
            conns: Vec::new(),
            served: 0,
        }
    }
}

impl GuestApp for RrServer {
    fn on_start(&mut self, api: &mut GuestApi<'_>) {
        api.listen(self.cfg.port);
    }

    fn on_event(&mut self, ev: SockEvent, api: &mut GuestApi<'_>) {
        match ev {
            SockEvent::Accepted { conn, port } if port == self.cfg.port => {
                self.conns.push(SrvConn {
                    id: conn,
                    rx_accum: 0,
                });
            }
            SockEvent::Delivered { conn, bytes } => {
                let Some(ci) = self.conns.iter().position(|c| c.id == conn) else {
                    return;
                };
                self.conns[ci].rx_accum += bytes;
                while self.conns[ci].rx_accum >= self.cfg.req_size {
                    self.conns[ci].rx_accum -= self.cfg.req_size;
                    if self.cfg.service_cpu > SimDuration::ZERO {
                        api.burn_cpu(self.cfg.service_cpu);
                    }
                    api.send(conn, self.cfg.resp_size);
                    self.served += 1;
                }
            }
            SockEvent::PeerClosed(conn) => {
                // EOF from the client: close our half too (any queued
                // response drains before the FIN).
                if let Some(ci) = self.conns.iter().position(|c| c.id == conn) {
                    api.close(conn);
                    self.conns.swap_remove(ci);
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, _tag: u64, _api: &mut GuestApi<'_>) {}
}
