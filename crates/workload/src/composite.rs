//! Composite guest app: runs several applications inside one VM (e.g. the
//! paper's Table-3/4 memcached VMs that also run a disk-bound 4 GB file
//! transfer, §6.1.2).
//!
//! Socket events are fanned out to every inner app (apps ignore connections
//! they do not own; `Accepted` events carry the port so servers filter).
//! App timers are namespaced in the tag's low bits so inner apps cannot
//! collide.

use fastrak_host::app::{GuestApi, GuestApp};
use fastrak_transport::stack::SockEvent;

/// Timer-tag namespace width: up to 16 inner apps.
const NS: u64 = 16;

/// A VM running several guest applications.
#[derive(Clone)]
pub struct Composite {
    apps: Vec<Box<dyn GuestApp>>,
}

impl Composite {
    /// Compose the given apps.
    pub fn new(apps: Vec<Box<dyn GuestApp>>) -> Composite {
        assert!(
            !apps.is_empty() && apps.len() <= NS as usize,
            "composite supports 1..=16 apps"
        );
        Composite { apps }
    }

    /// Downcast inner app `idx`.
    pub fn get<T: GuestApp>(&self, idx: usize) -> &T {
        let app: &dyn std::any::Any = &*self.apps[idx];
        app.downcast_ref::<T>().expect("inner app type mismatch")
    }

    /// Mutable downcast of inner app `idx`.
    pub fn get_mut<T: GuestApp>(&mut self, idx: usize) -> &mut T {
        let app: &mut dyn std::any::Any = &mut *self.apps[idx];
        app.downcast_mut::<T>().expect("inner app type mismatch")
    }

    /// Number of inner apps.
    pub fn len(&self) -> usize {
        self.apps.len()
    }

    /// Always false (construction requires ≥ 1 app).
    pub fn is_empty(&self) -> bool {
        self.apps.is_empty()
    }

    fn dispatch(
        &mut self,
        api: &mut GuestApi<'_>,
        mut f: impl FnMut(&mut dyn GuestApp, &mut GuestApi<'_>),
    ) {
        for (idx, app) in self.apps.iter_mut().enumerate() {
            let before = api.timer_count();
            f(app.as_mut(), api);
            api.remap_new_timers(before, |tag| tag * NS + idx as u64);
        }
    }
}

impl GuestApp for Composite {
    fn on_start(&mut self, api: &mut GuestApi<'_>) {
        self.dispatch(api, |app, api| app.on_start(api));
    }

    fn on_event(&mut self, ev: SockEvent, api: &mut GuestApi<'_>) {
        self.dispatch(api, |app, api| app.on_event(ev, api));
    }

    fn on_timer(&mut self, tag: u64, api: &mut GuestApi<'_>) {
        let idx = (tag % NS) as usize;
        let inner = tag / NS;
        if idx < self.apps.len() {
            let before = api.timer_count();
            self.apps[idx].on_timer(inner, api);
            api.remap_new_timers(before, |t| t * NS + idx as u64);
        }
    }

    fn on_tx_room(&mut self, api: &mut GuestApi<'_>) {
        self.dispatch(api, |app, api| app.on_tx_room(api));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::background::IoZone;
    use crate::rr::{RrServer, RrServerConfig};
    use fastrak_sim::time::SimDuration;

    #[test]
    fn composes_and_downcasts() {
        let c = Composite::new(vec![
            Box::new(RrServer::new(RrServerConfig {
                port: 11211,
                req_size: 64,
                resp_size: 1024,
                service_cpu: SimDuration::ZERO,
            })),
            Box::new(IoZone),
        ]);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get::<RrServer>(0).served, 0);
        let _: &IoZone = c.get(1);
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn wrong_downcast_panics() {
        let c = Composite::new(vec![Box::new(IoZone)]);
        let _ = c.get::<RrServer>(0);
    }
}
