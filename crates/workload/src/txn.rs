//! The request/response transaction engine under every transaction app:
//! netperf `TCP_RR` ([`crate::rr`]), memslap and memcached
//! ([`crate::memcached`]), the churner ([`crate::tenants`]) and the incast
//! fan-in ([`crate::incast`]).
//!
//! A client connection keeps the send time of each request still awaiting
//! its response; TCP delivers responses in order, so a FIFO suffices, and a
//! response is whole once `resp_size` bytes of it have arrived. A server
//! connection frames requests the same way and answers each whole one with
//! its service CPU and then its response, one request at a time. The apps
//! keep only their own start-up, gating and finish rules.

use std::collections::VecDeque;
use std::ops::Range;

use fastrak_host::app::GuestApi;
use fastrak_net::addr::Ip;
use fastrak_sim::time::{SimDuration, SimTime};
use fastrak_transport::stack::{ConnId, SockEvent};

use crate::rr::RrServerConfig;

/// What [`Client::fill`] needs of the guest it runs in. The apps pass
/// their `GuestApi`; the tests pass a fake whose send buffer they control.
pub(crate) trait Guest {
    fn now(&self) -> SimTime;
    fn send(&mut self, conn: ConnId, bytes: u64) -> bool;
}

impl Guest for GuestApi<'_> {
    fn now(&self) -> SimTime {
        self.now
    }

    fn send(&mut self, conn: ConnId, bytes: u64) -> bool {
        GuestApi::send(self, conn, bytes)
    }
}

#[derive(Clone)]
struct Conn {
    id: ConnId,
    /// Send time of each request whose response has not fully arrived.
    sent: VecDeque<SimTime>,
    /// Response bytes received towards the next whole response.
    rx: u64,
}

/// The client side: fixed-size requests, fixed-size responses, one FIFO
/// of send times per connection, and the count of responses completed
/// with a restartable measurement window over it. Connections are indexed
/// in the order they were opened.
#[derive(Clone)]
pub(crate) struct Client {
    req_size: u64,
    resp_size: u64,
    conns: Vec<Conn>,
    completed: u64,
    window_start: SimTime,
    window_base: u64,
}

impl Client {
    pub(crate) fn new(req_size: u64, resp_size: u64) -> Client {
        Client {
            req_size,
            resp_size,
            conns: Vec::new(),
            completed: 0,
            window_start: SimTime::ZERO,
            window_base: 0,
        }
    }

    /// Open one more connection.
    pub(crate) fn connect(&mut self, api: &mut GuestApi<'_>, dst: Ip, port: u16, src_port: u16) {
        let id = api.connect(dst, port, src_port);
        self.conns.push(Conn {
            id,
            sent: VecDeque::new(),
            rx: 0,
        });
    }

    pub(crate) fn len(&self) -> usize {
        self.conns.len()
    }

    /// Responses completed so far, on every connection.
    pub(crate) fn completed(&self) -> u64 {
        self.completed
    }

    /// Restart the measurement window at `now`.
    pub(crate) fn begin_window(&mut self, now: SimTime) {
        self.window_start = now;
        self.window_base = self.completed;
    }

    /// Transactions per second from the window's start to `now`.
    pub(crate) fn tps(&self, now: SimTime) -> f64 {
        let dt = now.since(self.window_start).as_secs_f64();
        if dt <= 0.0 {
            return 0.0;
        }
        (self.completed - self.window_base) as f64 / dt
    }

    /// Send requests on connection `ci` until `depth` are outstanding,
    /// `budget` (if any) have been sent, or the send buffer refuses one (the
    /// next delivery retries). Returns how many were sent.
    pub(crate) fn fill(
        &mut self,
        ci: usize,
        guest: &mut impl Guest,
        depth: usize,
        budget: Option<u64>,
    ) -> u64 {
        let c = &mut self.conns[ci];
        let mut n = 0;
        while budget.is_none_or(|b| n < b)
            && c.sent.len() < depth
            && guest.send(c.id, self.req_size)
        {
            c.sent.push_back(guest.now());
            n += 1;
        }
        n
    }

    /// Route a socket event to one of our connections. On `Connected`, and
    /// on `Delivered` once `done` has been given the connection and the
    /// send time of each whole response, returns the connection's index for
    /// the caller to refill; `None` for anything else.
    pub(crate) fn on_event(
        &mut self,
        ev: SockEvent,
        mut done: impl FnMut(usize, SimTime),
    ) -> Option<usize> {
        let (SockEvent::Connected(id) | SockEvent::Delivered { conn: id, .. }) = ev else {
            return None;
        };
        let ci = self.conns.iter().position(|c| c.id == id)?;
        if let SockEvent::Delivered { bytes, .. } = ev {
            let c = &mut self.conns[ci];
            c.rx += bytes;
            while c.rx >= self.resp_size {
                c.rx -= self.resp_size;
                let Some(t0) = c.sent.pop_front() else { break };
                self.completed += 1;
                done(ci, t0);
            }
        }
        Some(ci)
    }

    /// Close every connection, in the order they were opened.
    pub(crate) fn close_all(&self, api: &mut GuestApi<'_>) {
        for c in &self.conns {
            api.close(c.id);
        }
    }
}

/// Elapsed run time, once a run that started has finished.
pub(crate) fn finish_time(
    started_at: Option<SimTime>,
    finished_at: Option<SimTime>,
) -> Option<SimDuration> {
    Some(finished_at?.since(started_at?))
}

/// The server side: request framing per accepted connection.
#[derive(Clone)]
pub(crate) struct Server {
    cfg: RrServerConfig,
    /// Listening ports: `n_ports` consecutive ones from `cfg.port`.
    n_ports: u16,
    /// Accepted connections with the request bytes received towards the
    /// next whole request.
    conns: Vec<(ConnId, u64)>,
}

impl Server {
    pub(crate) fn new(cfg: RrServerConfig, n_ports: u16) -> Server {
        Server {
            cfg,
            n_ports,
            conns: Vec::new(),
        }
    }

    fn ports(&self) -> Range<u16> {
        self.cfg.port..self.cfg.port + self.n_ports
    }

    pub(crate) fn listen(&self, api: &mut GuestApi<'_>) {
        for port in self.ports() {
            api.listen(port);
        }
    }

    /// Handle a socket event: answer every whole request delivered, and
    /// close our half once the client has closed its own (any queued
    /// response drains before the FIN). Returns how many requests it
    /// answered.
    pub(crate) fn on_event(&mut self, ev: SockEvent, api: &mut GuestApi<'_>) -> u64 {
        let mut served = 0;
        match ev {
            SockEvent::Accepted { conn, port } if self.ports().contains(&port) => {
                self.conns.push((conn, 0));
            }
            SockEvent::Delivered { conn, bytes } => {
                let Some(ci) = self.conns.iter().position(|c| c.0 == conn) else {
                    return 0;
                };
                let rx = &mut self.conns[ci].1;
                *rx += bytes;
                while *rx >= self.cfg.req_size {
                    *rx -= self.cfg.req_size;
                    if self.cfg.service_cpu > SimDuration::ZERO {
                        api.burn_cpu(self.cfg.service_cpu);
                    }
                    api.send(conn, self.cfg.resp_size);
                    served += 1;
                }
            }
            SockEvent::PeerClosed(conn) => {
                if let Some(ci) = self.conns.iter().position(|c| c.0 == conn) {
                    api.close(conn);
                    self.conns.swap_remove(ci);
                }
            }
            _ => {}
        }
        served
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A guest whose send buffer takes `room` more writes; it logs every
    /// write offered, refused ones included.
    struct Fake {
        now: SimTime,
        room: usize,
        offered: usize,
    }

    impl Guest for Fake {
        fn now(&self) -> SimTime {
            self.now
        }

        fn send(&mut self, _conn: ConnId, _bytes: u64) -> bool {
            self.offered += 1;
            let ok = self.room > 0;
            self.room = self.room.saturating_sub(1);
            ok
        }
    }

    fn one_conn() -> (Client, Fake) {
        let mut client = Client::new(64, 1024);
        client.conns.push(Conn {
            id: ConnId(7),
            sent: VecDeque::new(),
            rx: 0,
        });
        let fake = Fake {
            now: SimTime::from_micros(5),
            room: usize::MAX,
            offered: 0,
        };
        (client, fake)
    }

    /// Deliver `bytes` on connection 7; the send times of the responses
    /// it completes.
    fn deliver(client: &mut Client, bytes: u64) -> Vec<SimTime> {
        let mut done = Vec::new();
        let ev = SockEvent::Delivered {
            conn: ConnId(7),
            bytes,
        };
        assert_eq!(client.on_event(ev, |_, t0| done.push(t0)), Some(0));
        done
    }

    #[test]
    fn a_response_split_across_three_deliveries_completes_once() {
        let (mut client, mut fake) = one_conn();
        assert_eq!(client.fill(0, &mut fake, 1, None), 1);
        assert_eq!(deliver(&mut client, 400), []);
        assert_eq!(deliver(&mut client, 400), []);
        assert_eq!(deliver(&mut client, 224), [SimTime::from_micros(5)]);
        let other = SockEvent::Delivered {
            conn: ConnId(8),
            bytes: 1024,
        };
        assert_eq!(client.on_event(other, |_, _| panic!()), None, "not ours");
    }

    #[test]
    fn three_responses_in_one_delivery_complete_in_send_order() {
        let (mut client, mut fake) = one_conn();
        for (depth, us) in [(1, 1), (2, 2), (3, 3)] {
            fake.now = SimTime::from_micros(us);
            assert_eq!(client.fill(0, &mut fake, depth, None), 1);
        }
        client.begin_window(SimTime::ZERO);
        let want: Vec<_> = (1..=3).map(SimTime::from_micros).collect();
        assert_eq!(deliver(&mut client, 3 * 1024 + 10), want);
        assert_eq!(client.completed(), 3);
        assert_eq!(client.tps(SimTime::from_secs(2)), 1.5);
        // The 10 bytes left over count towards the next response, which
        // answers nothing: no request is outstanding.
        assert_eq!(deliver(&mut client, 1014), []);
    }

    #[test]
    fn fill_stops_at_the_depth() {
        let (mut client, mut fake) = one_conn();
        assert_eq!(client.fill(0, &mut fake, 4, None), 4);
        assert_eq!(client.fill(0, &mut fake, 4, None), 0);
        assert_eq!(fake.offered, 4, "a full pipeline offers no write");
    }

    #[test]
    fn fill_stops_at_the_budget() {
        let (mut client, mut fake) = one_conn();
        assert_eq!(client.fill(0, &mut fake, 4, Some(0)), 0);
        assert_eq!(fake.offered, 0, "a spent budget offers no write");
        assert_eq!(client.fill(0, &mut fake, 4, Some(3)), 3);
        assert_eq!(fake.offered, 3);
    }

    #[test]
    fn fill_stops_at_a_refused_send() {
        let (mut client, mut fake) = one_conn();
        fake.room = 2;
        assert_eq!(client.fill(0, &mut fake, 8, None), 2);
        assert_eq!(fake.offered, 3, "the refused write is offered once");
        let t0 = SimTime::from_micros(5);
        let done = deliver(&mut client, 3 * 1024);
        assert_eq!(done, [t0, t0], "the refused write is not in flight");
    }
}
