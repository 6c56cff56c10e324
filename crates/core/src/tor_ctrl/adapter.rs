//! The controller as a kernel node: the only code in `tor_ctrl` that sees
//! `Api`. It adopts a scripted restart, translates the event into a
//! [`CtrlIn`], and applies the handler's [`CtrlOut`]s in the order they
//! were pushed. Timer handles are IO state, so their table lives here.

use fastrak_net::ctrl::Ctl;
use fastrak_net::event::{Event, NetCtx};
use fastrak_sim::kernel::{Api, Node};
use fastrak_sim::time::SimDuration;

use super::{CtrlIn, CtrlOut, Cx, Timer, TorController};

impl CtrlIn {
    fn from_event(ev: Event) -> Option<CtrlIn> {
        match ev {
            Event::Timer { tag, a, b } => Timer::from_event(tag, a, b).map(CtrlIn::Timer),
            Event::Ctl(msg) => Some(CtrlIn::Msg(msg.body)),
            Event::Frame { .. } => None,
        }
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
                    api.send(self.cfg.tor, delay, Event::ctl(api.self_id, Ctl::Req(req)));
                }
                CtrlOut::Broadcast(d) => {
                    for &local in &self.cfg.locals {
                        let msg = Event::ctl(api.self_id, Ctl::Decision(d.clone()));
                        api.send(local, SimDuration::from_micros(100), msg);
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
