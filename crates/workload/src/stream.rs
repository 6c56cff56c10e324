//! Bulk-stream workloads — netperf `TCP_STREAM` with `TCP_NODELAY` (§3.1.1)
//! and the disk-paced file transfer used as background load (§6.1.2).
//!
//! The sender preserves application write boundaries: a 64-byte application
//! data size produces 64-byte segments (the whole point of the paper's
//! data-size sweep). Throughput is measured at the receiving sink, as
//! netperf does.

use fastrak_host::app::{GuestApi, GuestApp};
use fastrak_net::addr::Ip;
use fastrak_sim::stats::MeterRate;
use fastrak_sim::time::{SimDuration, SimTime};
use fastrak_transport::stack::{ConnId, SockEvent};

/// Keep this many writes queued per connection so the TCP stack is never
/// application-starved (netperf's threads "are not CPU limited", §3.1.1).
const QUEUE_DEPTH_WRITES: u64 = 8;

/// Configuration of a stream sender.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Destination VM tenant IP.
    pub dst: Ip,
    /// Destination port.
    pub dst_port: u16,
    /// First local source port (one per thread).
    pub src_port_base: u16,
    /// Number of connections ("netperf threads", 3 in the paper's setup).
    pub threads: usize,
    /// Application data size per write.
    pub write_size: u64,
}

impl StreamConfig {
    /// The paper's throughput test: 3 threads, given app data size.
    pub fn netperf(dst: Ip, dst_port: u16, write_size: u64) -> StreamConfig {
        StreamConfig {
            dst,
            dst_port,
            src_port_base: 42_000,
            threads: 3,
            write_size,
        }
    }
}

/// The stream sender guest app: opens its connections at start and keeps
/// each one's send queue full for as long as the world runs.
#[derive(Clone)]
pub struct StreamSender {
    cfg: StreamConfig,
    conns: Vec<ConnId>,
}

impl StreamSender {
    /// Build from a configuration.
    pub fn new(cfg: StreamConfig) -> StreamSender {
        StreamSender {
            cfg,
            conns: Vec::new(),
        }
    }

    fn top_up(&mut self, api: &mut GuestApi<'_>) {
        let write = self.cfg.write_size;
        for &conn in &self.conns {
            loop {
                let c = api.conn(conn);
                if !c.is_established()
                    || c.unsent() >= QUEUE_DEPTH_WRITES * write
                    || !api.send(conn, write)
                {
                    break;
                }
            }
        }
    }
}

impl GuestApp for StreamSender {
    fn on_start(&mut self, api: &mut GuestApi<'_>) {
        for t in 0..self.cfg.threads {
            let id = api.connect(
                self.cfg.dst,
                self.cfg.dst_port,
                self.cfg.src_port_base + t as u16,
            );
            self.conns.push(id);
        }
    }

    fn on_timer(&mut self, _tag: u64, _api: &mut GuestApi<'_>) {}

    fn on_event(&mut self, ev: SockEvent, api: &mut GuestApi<'_>) {
        if matches!(ev, SockEvent::Connected(_)) {
            self.top_up(api);
        }
    }

    fn on_tx_room(&mut self, api: &mut GuestApi<'_>) {
        if !self.conns.is_empty() {
            self.top_up(api);
        }
    }
}

/// The receiving sink (netserver): counts goodput.
#[derive(Clone)]
pub struct StreamSink {
    port: u16,
    /// Delivered-bytes meter (receiver-side goodput, like netperf reports).
    pub meter: MeterRate,
}

impl StreamSink {
    /// A sink listening on `port`.
    pub fn new(port: u16) -> StreamSink {
        StreamSink {
            port,
            meter: MeterRate::default(),
        }
    }

    /// Receiver goodput in bits/sec over the meter window.
    pub fn goodput_bps(&self, now: SimTime) -> f64 {
        self.meter.bits_per_sec(now)
    }
}

impl GuestApp for StreamSink {
    fn on_start(&mut self, api: &mut GuestApi<'_>) {
        api.listen(self.port);
    }

    fn on_event(&mut self, ev: SockEvent, _api: &mut GuestApi<'_>) {
        if let SockEvent::Delivered { bytes, .. } = ev {
            self.meter.add(bytes);
        }
    }

    fn on_timer(&mut self, _tag: u64, _api: &mut GuestApi<'_>) {}
}

/// A disk-bound file transfer (the paper's scp / 4 GB background transfer,
/// §6.1.2): reads 64 KB chunks at 500 Mbps and streams them. Large reads +
/// TSO make this a *low packets-per-second* flow — precisely why FasTrak's
/// decision engine leaves it in software while offloading memcached (§6.2).
#[derive(Clone)]
pub struct FileTransfer {
    /// Destination.
    pub dst: Ip,
    /// Destination port.
    pub dst_port: u16,
    /// Local source port.
    pub src_port: u16,
    /// Total bytes to transfer.
    pub total_bytes: u64,
    conn: Option<ConnId>,
    sent: u64,
    /// Completion time (all bytes acked).
    pub finished_at: Option<SimTime>,
}

/// Disk read rate (bits/sec).
const DISK_RATE_BPS: u64 = 500_000_000;
/// Chunk size per disk read (bytes).
const CHUNK: u64 = 64 * 1024;
/// vCPU per chunk (disk driver + scp crypto stand-in).
const CPU_PER_CHUNK: SimDuration = SimDuration::from_micros(40);

const TIMER_START: u64 = 1;
const TIMER_CHUNK: u64 = 2;

impl FileTransfer {
    /// A 4 GB disk-bound transfer.
    pub fn paper_default(dst: Ip, dst_port: u16, src_port: u16) -> FileTransfer {
        FileTransfer {
            dst,
            dst_port,
            src_port,
            total_bytes: 4 << 30,
            conn: None,
            sent: 0,
            finished_at: None,
        }
    }

    /// One disk read's time at the disk rate.
    fn chunk_interval() -> SimDuration {
        SimDuration::from_secs_f64(CHUNK as f64 * 8.0 / DISK_RATE_BPS as f64)
    }

    fn send_chunk(&mut self, api: &mut GuestApi<'_>) {
        let Some(conn) = self.conn else { return };
        if self.sent >= self.total_bytes {
            // Done queueing; watch for full acknowledgement.
            if self.finished_at.is_none() {
                if api.conn(conn).stats.bytes_acked >= self.total_bytes {
                    self.finished_at = Some(api.now);
                } else {
                    api.set_timer(SimDuration::from_millis(10), TIMER_CHUNK);
                }
            }
            return;
        }
        let take = CHUNK.min(self.total_bytes - self.sent);
        if api.send(conn, take) {
            self.sent += take;
            api.burn_cpu(CPU_PER_CHUNK);
        }
        // Next disk read completes one chunk-interval later.
        api.set_timer(Self::chunk_interval(), TIMER_CHUNK);
    }
}

impl GuestApp for FileTransfer {
    fn on_start(&mut self, api: &mut GuestApi<'_>) {
        // A zero-delay timer, not an inline connect: connecting from the
        // timer's event keeps the order of same-instant events as it is.
        api.set_timer(SimDuration::ZERO, TIMER_START);
    }

    fn on_timer(&mut self, tag: u64, api: &mut GuestApi<'_>) {
        match tag {
            TIMER_START => {
                self.conn = Some(api.connect(self.dst, self.dst_port, self.src_port));
            }
            TIMER_CHUNK => self.send_chunk(api),
            _ => {}
        }
    }

    fn on_event(&mut self, ev: SockEvent, api: &mut GuestApi<'_>) {
        if let SockEvent::Connected(_) = ev {
            self.send_chunk(api);
        }
    }
}
