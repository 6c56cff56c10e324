//! The controller as a kernel node: the only code in `tor_ctrl` that sees
//! `Api`. It adopts a scripted restart, translates the event into a
//! [`CtrlIn`], and applies the handler's [`CtrlOut`]s in the order they
//! were pushed. Timer handles are IO state, so their table lives here.

use fastrak_net::event::{CtlMsg, Event, NetCtx};
use fastrak_sim::kernel::{Api, Node};
use fastrak_sim::time::SimDuration;

use super::{CtrlIn, CtrlOut, Cx, Timer, TorController};

impl CtrlIn {
    fn from_event(ev: Event) -> Option<CtrlIn> {
        let msg = match ev {
            Event::Timer { tag, a, b } => return Timer::from_event(tag, a, b).map(CtrlIn::Timer),
            Event::Ctl(msg) => msg,
            _ => return None,
        };
        msg.downcast()
            .map(|(_, r)| CtrlIn::Reply(r))
            .or_else(|m| m.downcast().map(|(_, r)| CtrlIn::Report(r)))
            .or_else(|m| m.downcast().map(|(_, r)| CtrlIn::HwPath(r)))
            .or_else(|m| m.downcast().map(|(_, m)| CtrlIn::Migration(m)))
            .ok()
    }
}

impl Node<Event, NetCtx> for TorController {
    fn on_event(&mut self, ev: Event, api: &mut Api<'_, Event, NetCtx>) {
        let input = CtrlIn::from_event(ev);
        if let Some(CtrlIn::Timer(t)) = &input {
            self.timers.remove(t);
        }
        let mut out = std::mem::take(&mut self.outs);
        let incarnation = api.chaos_ctrl_restart_epoch();
        let mut cx = Cx {
            now: api.now,
            tel: &mut api.ctx.telemetry,
            out: &mut out,
            c: self.cfg.counters,
        };
        // A scripted crash/restart takes effect at the next event the
        // controller would have processed (the new process starts where the
        // old one died, state-free).
        self.restart(incarnation, &mut cx);
        if let Some(input) = input {
            self.handle(input, &mut cx);
        }
        for o in out.drain(..) {
            match o {
                CtrlOut::ToTor(delay, req) => {
                    let msg = CtlMsg::new(api.self_id, req);
                    api.send(self.cfg.tor, delay, Event::Ctl(msg));
                }
                CtrlOut::Broadcast(d) => {
                    for &local in &self.cfg.locals {
                        let msg = CtlMsg::new(api.self_id, d.clone());
                        api.send(local, SimDuration::from_micros(100), Event::Ctl(msg));
                    }
                }
                CtrlOut::Arm(after, t) => {
                    let h = api.timer(after, t.event());
                    self.timers.insert(t, h);
                }
                CtrlOut::Disarm(t) => {
                    if let Some(h) = self.timers.remove(&t) {
                        api.cancel(h);
                    }
                }
            }
        }
        self.outs = out;
    }

    fn name(&self) -> &str {
        "tor-ctrl"
    }

    fn fork(&self) -> Option<Self> {
        Some(self.clone())
    }
}
