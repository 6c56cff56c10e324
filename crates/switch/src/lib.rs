//! # fastrak-switch
//!
//! The network substrate outside the servers: the L3 ToR switch with VRF
//! tables, ACLs, GRE tunneling, QoS and bounded fast-path memory
//! ([`tor::Tor`]).
//!
//! Together with `fastrak-host` this reproduces the paper's testbed wiring
//! (§5.1): each server has two 10 Gbps links to the ToR — one carrying the
//! vswitch (VXLAN/plain) traffic, one carrying SR-IOV traffic VLAN-tagged
//! per tenant.

pub mod tor;

pub use tor::{HwDest, Tor, TorConfig, TorStats, VrfAction};

#[cfg(test)]
mod tests {
    use super::*;
    use fastrak_net::addr::{Ip, TenantId, VlanId};
    use fastrak_net::ctrl::TorRule;
    use fastrak_net::flow::FlowSpec;
    use fastrak_net::rules::Action;
    use fastrak_net::tunnel::TunnelMapping;

    fn rule(tenant: u32, dst_port: u16) -> TorRule {
        TorRule {
            tenant: TenantId(tenant),
            spec: FlowSpec {
                tenant: Some(TenantId(tenant)),
                dst_port: Some(dst_port),
                ..FlowSpec::ANY
            },
            priority: 10,
            action: Action::Allow,
            tunnel: Some(TunnelMapping {
                server_ip: Ip::provider_server(0, 1),
                tor_ip: Ip::provider_tor(0),
            }),
            qos: None,
        }
    }

    #[test]
    fn fastpath_budget_enforced() {
        let mut cfg = TorConfig::testbed("tor0", 0);
        cfg.fastpath_capacity = 3;
        let mut tor = Tor::new(cfg);
        assert!(tor.install_rule(&rule(1, 1)).is_ok());
        assert!(tor.install_rule(&rule(1, 2)).is_ok());
        assert!(tor.install_rule(&rule(2, 3)).is_ok());
        assert!(tor.install_rule(&rule(2, 4)).is_err());
        assert_eq!(tor.fastpath_free(), 0);
        // Removing frees budget even across tenants.
        assert_eq!(tor.remove_rule(TenantId(1), &rule(1, 1).spec), 1);
        assert_eq!(tor.fastpath_free(), 1);
        assert!(tor.install_rule(&rule(2, 4)).is_ok());
    }

    #[test]
    fn rule_stats_dump_covers_all_vrfs() {
        let mut tor = Tor::new(TorConfig::testbed("tor0", 0));
        tor.install_rule(&rule(1, 1)).unwrap();
        tor.install_rule(&rule(2, 2)).unwrap();
        let dump = tor.dump_rule_stats();
        assert_eq!(dump.len(), 2);
        let tenants: Vec<u32> = dump.iter().map(|e| e.tenant.0).collect();
        assert!(tenants.contains(&1) && tenants.contains(&2));
    }

    #[test]
    fn remove_rule_for_unknown_tenant_is_zero() {
        let mut tor = Tor::new(TorConfig::testbed("tor0", 0));
        assert_eq!(tor.remove_rule(TenantId(9), &FlowSpec::ANY), 0);
    }

    #[test]
    fn vlan_mapping_and_hw_dests() {
        use fastrak_net::event::{Event, NetCtx};
        use fastrak_net::flow::{FlowKey, Proto};
        use fastrak_net::packet::{Encap, L4Meta, Packet};
        use fastrak_sim::kernel::{Api, Kernel, Node};
        use fastrak_sim::time::SimTime;

        /// Records the port and outer VLAN of every frame it receives.
        #[derive(Default)]
        struct Sink(Vec<(usize, Option<u16>)>);
        impl Node<Event, NetCtx> for Sink {
            fn on_event(&mut self, ev: Event, _api: &mut Api<'_, Event, NetCtx>) {
                if let Event::Frame { port, pkt } = ev {
                    self.0.push((port, pkt.outer_vlan()));
                }
            }
        }

        let mut kernel: Kernel<Event, NetCtx> = Kernel::new(NetCtx::new(), 1);
        let tor = kernel.add_node(Tor::new(TorConfig::testbed("tor0", 0)));
        let sink = kernel.add_node(Sink::default());
        let t = kernel.node_mut::<Tor>(tor);
        t.wire_port(3, sink, 3);
        t.map_vlan(VlanId::new(101), TenantId(1));
        t.add_hw_dest(
            TenantId(1),
            Ip::tenant_vm(1),
            HwDest {
                port: 3,
                vlan: VlanId::new(101),
            },
        );
        t.install_rule(&rule(1, 2000)).unwrap();
        let flow = FlowKey {
            tenant: TenantId(1),
            src_ip: Ip::tenant_vm(2),
            dst_ip: Ip::tenant_vm(1),
            proto: Proto::Udp,
            src_port: 40_000,
            dst_port: 2000,
        };
        for (id, vlan) in [(0, 101), (1, 202)] {
            let mut pkt = Packet::new(id, flow, L4Meta::Udp, 100, SimTime::ZERO);
            pkt.encap(Encap::Vlan(vlan));
            kernel.post(tor, SimTime::ZERO, Event::Frame { port: 1, pkt });
        }
        kernel.run_to_completion();

        // VLAN 101 selects tenant 1's VRF; the allowed frame leaves the VM's
        // port re-tagged with its VLAN. The unmapped VLAN is an ACL drop.
        assert_eq!(kernel.node::<Sink>(sink).0, [(3, Some(101))]);
        let stats = kernel.node::<Tor>(tor).stats;
        assert_eq!((stats.hw_frames, stats.acl_drops), (1, 1));
    }

    /// End-to-end smoke: two servers on one ToR, a client VM sends a burst
    /// to an echo server VM over the VIF path, then over the SR-IOV path.
    mod end_to_end {
        use super::*;
        use fastrak_host::app::{GuestApi, GuestApp};
        use fastrak_host::server::{Server, ServerConfig, PORT_HW, PORT_SW};
        use fastrak_host::vm::{Vm, VmSpec};
        use fastrak_host::vswitch::VswitchConfig;
        use fastrak_net::event::{Event, NetCtx};
        use fastrak_net::packet::PathTag;
        use fastrak_sim::kernel::Kernel;
        use fastrak_sim::time::SimTime;
        use fastrak_transport::stack::{ConnId, SockEvent};

        /// Client: connect and send N writes; count echoed bytes.
        #[derive(Clone)]
        struct Client {
            dst: Ip,
            conn: Option<ConnId>,
            writes: u32,
            write_size: u64,
            echoed: u64,
        }
        impl GuestApp for Client {
            fn on_start(&mut self, api: &mut GuestApi<'_>) {
                let c = api.connect(self.dst, 7777, 40_000);
                self.conn = Some(c);
            }
            fn on_event(&mut self, ev: SockEvent, api: &mut GuestApi<'_>) {
                match ev {
                    SockEvent::Connected(c) => {
                        for _ in 0..self.writes {
                            api.send(c, self.write_size);
                        }
                    }
                    SockEvent::Delivered { bytes, .. } => {
                        self.echoed += bytes;
                    }
                    _ => {}
                }
            }
            fn on_timer(&mut self, _tag: u64, _api: &mut GuestApi<'_>) {}
        }

        /// Echo server.
        #[derive(Clone)]
        struct Echo;
        impl GuestApp for Echo {
            fn on_start(&mut self, api: &mut GuestApi<'_>) {
                api.listen(7777);
            }
            fn on_event(&mut self, ev: SockEvent, api: &mut GuestApi<'_>) {
                if let SockEvent::Delivered { conn, bytes } = ev {
                    api.send(conn, bytes);
                }
            }
            fn on_timer(&mut self, _tag: u64, _api: &mut GuestApi<'_>) {}
        }

        struct World {
            kernel: Kernel<Event, NetCtx>,
            s0: usize,
            s1: usize,
        }

        fn build(tunneling: bool) -> World {
            let mut kernel = Kernel::new(NetCtx::new(), 42);
            let tenant = TenantId(1);
            let vlan = VlanId::new(101);
            let ip0 = Ip::tenant_vm(1);
            let ip1 = Ip::tenant_vm(2);

            let mut tor = Tor::new(TorConfig::testbed("tor0", 0));
            let vs = VswitchConfig { tunneling };
            let cfg0 = ServerConfig::testbed("s0", Ip::provider_server(0, 0));
            let cfg1 = ServerConfig::testbed("s1", Ip::provider_server(0, 1));
            let mut srv0 = Server::new(cfg0, vs);
            let mut srv1 = Server::new(cfg1, vs);

            srv0.add_vm(
                Vm::new(
                    VmSpec::large("client", tenant, ip0),
                    Box::new(Client {
                        dst: ip1,
                        conn: None,
                        writes: 20,
                        write_size: 1000,
                        echoed: 0,
                    }),
                ),
                Some(vlan),
            );
            srv1.add_vm(
                Vm::new(VmSpec::large("echo", tenant, ip1), Box::new(Echo)),
                Some(vlan),
            );

            // Tunnel + L2 routes.
            srv0.add_tunnel_route(
                tenant,
                ip1,
                fastrak_net::tunnel::TunnelMapping {
                    server_ip: Ip::provider_server(0, 1),
                    tor_ip: Ip::provider_tor(0),
                },
            );
            srv1.add_tunnel_route(
                tenant,
                ip0,
                fastrak_net::tunnel::TunnelMapping {
                    server_ip: Ip::provider_server(0, 0),
                    tor_ip: Ip::provider_tor(0),
                },
            );

            // ToR wiring: ports 0/1 = s0 sw/hw, 2/3 = s1 sw/hw.
            tor.map_vlan(vlan, tenant);
            tor.add_ip_route(Ip::provider_server(0, 0), 0);
            tor.add_ip_route(Ip::provider_server(0, 1), 2);
            tor.add_l2_route(tenant, ip0, 0);
            tor.add_l2_route(tenant, ip1, 2);
            tor.add_hw_dest(tenant, ip0, HwDest { port: 1, vlan });
            tor.add_hw_dest(tenant, ip1, HwDest { port: 3, vlan });
            // Allow this tenant's traffic on the hardware path, both
            // directions, tunneled to the local rack.
            for spec_dst in [ip0, ip1] {
                tor.install_rule(&TorRule {
                    tenant,
                    spec: FlowSpec {
                        tenant: Some(tenant),
                        dst_ip: Some(spec_dst),
                        ..FlowSpec::ANY
                    },
                    priority: 5,
                    action: Action::Allow,
                    tunnel: Some(TunnelMapping {
                        server_ip: Ip::UNSPECIFIED, // unused for local rack
                        tor_ip: Ip::provider_tor(0),
                    }),
                    qos: None,
                })
                .unwrap();
            }

            let tor_id = kernel.add_node(tor);
            let s0 = kernel.add_node(srv0);
            let s1 = kernel.add_node(srv1);
            kernel.node_mut::<Tor>(tor_id).wire_port(0, s0, PORT_SW);
            kernel.node_mut::<Tor>(tor_id).wire_port(1, s0, PORT_HW);
            kernel.node_mut::<Tor>(tor_id).wire_port(2, s1, PORT_SW);
            kernel.node_mut::<Tor>(tor_id).wire_port(3, s1, PORT_HW);
            kernel
                .node_mut::<Server>(s0)
                .attach_uplink(PORT_SW, tor_id, 0);
            kernel
                .node_mut::<Server>(s0)
                .attach_uplink(PORT_HW, tor_id, 1);
            kernel
                .node_mut::<Server>(s1)
                .attach_uplink(PORT_SW, tor_id, 2);
            kernel
                .node_mut::<Server>(s1)
                .attach_uplink(PORT_HW, tor_id, 3);

            for id in [s0, s1] {
                kernel.post(
                    id,
                    SimTime::ZERO,
                    Event::Timer {
                        tag: fastrak_host::server::tags::START,
                        a: 0,
                        b: 0,
                    },
                );
            }
            World { kernel, s0, s1 }
        }

        fn run_echo(tunneling: bool, via_sriov: bool) -> (u64, World) {
            let mut w = build(tunneling);
            if via_sriov {
                let srv = w.kernel.node_mut::<Server>(w.s0);
                srv.vm_mut(0)
                    .placer
                    .install_rule(FlowSpec::ANY, 10, PathTag::SrIov);
                let srv1 = w.kernel.node_mut::<Server>(w.s1);
                srv1.vm_mut(0)
                    .placer
                    .install_rule(FlowSpec::ANY, 10, PathTag::SrIov);
            }
            w.kernel.run_until(SimTime::from_secs(2));
            let srv0 = w.kernel.node::<Server>(w.s0);
            let echoed = srv0.vm(0).app_as::<Client>().echoed;
            (echoed, w)
        }

        #[test]
        fn vif_path_echo_completes() {
            let (echoed, w) = run_echo(false, false);
            assert_eq!(echoed, 20_000, "all bytes echoed over the VIF path");
            let s0 = w.kernel.node::<Server>(w.s0);
            assert!(s0.stats.tx_sw_frames > 0);
            assert_eq!(s0.stats.tx_hw_frames, 0);
        }

        #[test]
        fn vif_path_echo_completes_with_vxlan() {
            let (echoed, w) = run_echo(true, false);
            assert_eq!(echoed, 20_000, "all bytes echoed over VXLAN");
            let s1 = w.kernel.node::<Server>(w.s1);
            assert!(s1.stats.rx_frames > 0);
        }

        #[test]
        fn sriov_path_echo_completes() {
            let (echoed, w) = run_echo(false, true);
            assert_eq!(echoed, 20_000, "all bytes echoed over SR-IOV");
            let s0 = w.kernel.node::<Server>(w.s0);
            assert!(s0.stats.tx_hw_frames > 0);
            assert_eq!(s0.stats.tx_sw_frames, 0);
        }

        #[test]
        fn sriov_without_tor_rules_is_dropped() {
            // Build a world, strip the VRF rules, force SR-IOV: the default
            // deny at the ToR must black-hole the traffic (§4.1.3).
            let mut w = build(false);
            // node 0 is the ToR.
            let tor = w.kernel.node_mut::<Tor>(0);
            let specs: Vec<_> = tor
                .dump_rule_stats()
                .iter()
                .map(|e| (e.tenant, e.spec))
                .collect();
            for (t, s) in specs {
                tor.remove_rule(t, &s);
            }
            let srv = w.kernel.node_mut::<Server>(w.s0);
            srv.vm_mut(0)
                .placer
                .install_rule(FlowSpec::ANY, 10, PathTag::SrIov);
            w.kernel.run_until(SimTime::from_secs(1));
            let tor = w.kernel.node::<Tor>(0);
            assert!(tor.stats.acl_drops > 0, "default deny must drop");
            let srv0 = w.kernel.node::<Server>(w.s0);
            assert_eq!(srv0.vm(0).app_as::<Client>().echoed, 0);
        }

        #[test]
        fn deterministic_replay() {
            let (a, _) = run_echo(false, false);
            let (b, _) = run_echo(false, false);
            assert_eq!(a, b);
        }
    }
}
