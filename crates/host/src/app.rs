//! Guest application interface.
//!
//! Workloads (netperf, memcached, file transfers — `fastrak-workload`) run
//! *inside* VMs as implementations of [`GuestApp`]. The server model invokes
//! them with a [`GuestApi`] capability handle exposing exactly what a guest
//! process can do: open/accept TCP connections, write bytes, set timers, and
//! burn vCPU time (for disk/CPU-bound background load à la iozone/stress).
//! It lends no randomness: an app that wants some seeds its own `Rng`, so
//! the world RNG's draws stay the server's.

use std::any::Any;

use fastrak_net::addr::{Ip, TenantId};
use fastrak_net::flow::{FlowKey, Proto};
use fastrak_sim::time::{SimDuration, SimTime};
use fastrak_transport::stack::{ConnId, SockEvent, TcpStack};
use fastrak_transport::tcp::TcpConn;

/// Capability handle passed to guest applications.
pub struct GuestApi<'a> {
    /// Current simulated time.
    pub now: SimTime,
    /// Owning tenant.
    pub tenant: TenantId,
    /// This VM's tenant IP.
    pub vm_ip: Ip,
    pub(crate) stack: &'a mut TcpStack,
    /// Timer requests collected during the callback: (delay, tag).
    pub(crate) timer_reqs: &'a mut Vec<(SimDuration, u64)>,
    /// vCPU work requests (disk/CPU-bound background load).
    pub(crate) cpu_burn: &'a mut Vec<SimDuration>,
}

impl GuestApi<'_> {
    /// Open a TCP connection to `dst_ip:dst_port` from local `src_port`.
    pub fn connect(&mut self, dst_ip: Ip, dst_port: u16, src_port: u16) -> ConnId {
        self.stack.connect(FlowKey {
            tenant: self.tenant,
            src_ip: self.vm_ip,
            dst_ip,
            proto: Proto::Tcp,
            src_port,
            dst_port,
        })
    }

    /// Listen for TCP connections on `port`.
    pub fn listen(&mut self, port: u16) {
        self.stack.listen(port);
    }

    /// Queue an application write; false when the send buffer is full.
    pub fn send(&mut self, conn: ConnId, bytes: u64) -> bool {
        self.stack.app_send(conn, bytes)
    }

    /// Gracefully close a connection: a FIN follows any queued data, and
    /// the connection keeps receiving until the peer closes too.
    pub fn close(&mut self, conn: ConnId) {
        self.stack.close(conn);
    }

    /// Abortively close a connection (RST).
    pub fn abort(&mut self, conn: ConnId) {
        self.stack.abort(conn);
    }

    /// Inspect a connection (stats, RTT, state).
    pub fn conn(&self, id: ConnId) -> &TcpConn {
        self.stack.conn(id)
    }

    /// Arm an application timer; `tag` comes back in
    /// [`GuestApp::on_timer`].
    pub fn set_timer(&mut self, delay: SimDuration, tag: u64) {
        self.timer_reqs.push((delay, tag));
    }

    /// Consume `work` of vCPU time (models disk service / CPU stressors:
    /// the work queues on this VM's vCPU pool and competes with the network
    /// stack).
    pub fn burn_cpu(&mut self, work: SimDuration) {
        self.cpu_burn.push(work);
    }

    /// Number of timer requests queued so far this callback (composite-app
    /// support: lets a wrapper remap the tags of timers its inner app armed).
    pub fn timer_count(&self) -> usize {
        self.timer_reqs.len()
    }

    /// Remap the tags of timers queued at index `from` onward (composite-app
    /// support: namespacing per inner app).
    pub fn remap_new_timers(&mut self, from: usize, f: impl Fn(u64) -> u64) {
        for req in self.timer_reqs.iter_mut().skip(from) {
            req.1 = f(req.1);
        }
    }
}

/// A guest application. Implementations live in `fastrak-workload`.
///
/// Every app is `Clone` (through [`AppClone`], implemented for it
/// automatically) and `Send`, so a server running it can be forked and
/// moved to another thread.
pub trait GuestApp: Any + Send + AppClone {
    /// Called once when the simulation starts (open listeners/connections).
    fn on_start(&mut self, api: &mut GuestApi<'_>);

    /// A socket event occurred (connected / accepted / bytes delivered).
    fn on_event(&mut self, ev: SockEvent, api: &mut GuestApi<'_>);

    /// An application timer armed via [`GuestApi::set_timer`] fired.
    fn on_timer(&mut self, tag: u64, api: &mut GuestApi<'_>);

    /// Called whenever the stack finished transmitting segments, so
    /// stream-type workloads can keep the send buffer topped up.
    fn on_tx_room(&mut self, api: &mut GuestApi<'_>) {
        let _ = api;
    }
}

/// The clone hook behind `Box<dyn GuestApp>: Clone`: any `Clone` app gets
/// it for free.
pub trait AppClone {
    /// A boxed copy of this app.
    fn clone_app(&self) -> Box<dyn GuestApp>;
}

impl<T: GuestApp + Clone> AppClone for T {
    fn clone_app(&self) -> Box<dyn GuestApp> {
        Box::new(self.clone())
    }
}

impl Clone for Box<dyn GuestApp> {
    fn clone(&self) -> Self {
        self.clone_app()
    }
}
