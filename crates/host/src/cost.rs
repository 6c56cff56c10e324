//! The calibrated CPU/latency cost model for virtualized host networking.
//!
//! Every constant here stands in for a mechanism the paper measured on real
//! hardware (§3). The *relationships* between constants — which path pays
//! per wire segment vs per super-segment, which work lands on which CPU
//! pool — encode the paper's findings; the absolute values are calibrated so
//! the experiment harness reproduces the paper's shapes (see DESIGN.md §3
//! and EXPERIMENTS.md):
//!
//! * Baseline OVS pays a per-packet kernel-crossing + copy cost on host
//!   CPUs ("96% of host CPU in network I/O, up to 55% copying", §3.2), but
//!   TSO/LRO let large application writes traverse as one super-segment.
//! * Software VXLAN loses NIC offloads: cost is paid **per wire segment**,
//!   and encap work is serialized on the single tunnel queue — this yields
//!   the ~2 Gbps ceiling and +23% CPU the paper measured (§3.2.1).
//! * htb rate limiting adds enqueue/dequeue work per packet (§3.2.2).
//! * SR-IOV leaves only interrupt isolation on the host ("host CPU idle 59%
//!   of the time, 23% servicing interrupts", §3.2).
//! * Notification latencies (vhost kick → vCPU wakeup vs posted interrupt)
//!   dominate the closed-loop latency gap; jitter terms produce the heavier
//!   99th-percentile tail of the software path.

use fastrak_net::packet::Packet;
use fastrak_sim::rng::Rng;
use fastrak_sim::time::SimDuration;

/// Calibrated cost constants. All durations are CPU service times unless
/// named `*_latency`/`*_jitter` (those are added delays, not CPU work).
#[derive(Debug, Clone)]
pub struct CostModel {
    // --- guest (VM) stack ---
    /// Fixed guest CPU per transmitted segment (syscall, TCP, virtio/VF).
    pub guest_tx_fixed: SimDuration,
    /// Fixed guest CPU per received segment.
    pub guest_rx_fixed: SimDuration,
    /// Guest copy cost per byte (applies both directions).
    pub guest_per_byte_ns: f64,

    // --- vswitch (baseline OVS software path) ---
    /// Host CPU per (super-)segment on the per-VM vhost thread (kick
    /// handling + copy into/out of guest memory). vhost-net runs ONE kernel
    /// thread per virtio queue, so a VM's VIF traffic serializes here —
    /// this is what saturates first under transaction load (Tables 1-4).
    pub vhost_fixed: SimDuration,
    /// Host CPU per (super-)segment through the OVS kernel datapath,
    /// excluding dispatch: flow-table probe, action execution, checksum
    /// fixups. The dispatch share is modelled separately (below): a real
    /// kernel amortizes it over a poll batch.
    pub vswitch_fixed: SimDuration,
    /// Per-packet cost of scalar datapath dispatch (NAPI poll, per-packet
    /// function-call chain, cache-cold descriptor touch). Modern kernels
    /// amortize this across a poll batch; the charged cost is
    /// `vswitch_dispatch_scalar / assumed_sw_burst`.
    pub vswitch_dispatch_scalar: SimDuration,
    /// Assumed mean batch size over which dispatch is amortized (NAPI-style
    /// budget). Chosen so `vswitch_fixed + dispatch` reproduces the original
    /// calibrated 2.4µs per-segment figure exactly.
    pub assumed_sw_burst: u64,
    /// Host copy cost per byte through the vswitch.
    pub vswitch_per_byte_ns: f64,
    /// Extra slow-path cost on a datapath miss (userspace upcall),
    /// plus per-rule linear scan cost.
    pub vswitch_upcall: SimDuration,
    /// Per-security-rule scan cost in the userspace slow path.
    pub rule_scan_per_rule: SimDuration,

    // --- software tunneling (VXLAN) ---
    /// Extra host CPU per wire segment for VXLAN encap/decap; tunneled
    /// traffic also loses TSO/LRO, so `vswitch_fixed` is charged per wire
    /// segment as well, and the work runs on the serialized tunnel queue.
    pub vxlan_per_segment: SimDuration,

    // --- software rate limiting (tc htb) ---
    /// Extra host CPU per wire segment for htb enqueue/dequeue.
    pub htb_per_segment: SimDuration,

    // --- SR-IOV path ---
    /// Host CPU per interrupt batch for VF interrupt isolation.
    pub sriov_host_per_irq: SimDuration,

    // --- notification latencies (one-way, added once per traversal) ---
    /// VIF path wakeup: vhost kick + softirq + vCPU schedule.
    pub vif_notify_latency: SimDuration,
    /// Mean of the exponential jitter added to VIF wakeups (fat tail).
    pub vif_notify_jitter: SimDuration,
    /// SR-IOV path wakeup: posted interrupt through the hypervisor.
    pub sriov_notify_latency: SimDuration,
    /// Mean of the exponential jitter added to SR-IOV wakeups.
    pub sriov_notify_jitter: SimDuration,

    // --- fabric ---
    /// ToR switching latency (cut-through, per packet).
    pub tor_latency: SimDuration,
    /// Per-hop wire propagation.
    pub wire_latency: SimDuration,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            guest_tx_fixed: SimDuration::from_micros_f64(1.1),
            guest_rx_fixed: SimDuration::from_micros_f64(1.1),
            guest_per_byte_ns: 0.03,
            vhost_fixed: SimDuration::from_micros_f64(3.0),
            vswitch_fixed: SimDuration::from_micros_f64(2.3),
            vswitch_dispatch_scalar: SimDuration(800),
            assumed_sw_burst: 8,
            vswitch_per_byte_ns: 0.05,
            vswitch_upcall: SimDuration::from_micros(40),
            rule_scan_per_rule: SimDuration(25),
            vxlan_per_segment: SimDuration::from_micros_f64(3.6),
            htb_per_segment: SimDuration::from_micros_f64(0.45),
            sriov_host_per_irq: SimDuration::from_micros_f64(0.15),
            vif_notify_latency: SimDuration::from_micros(14),
            vif_notify_jitter: SimDuration::from_micros_f64(4.5),
            sriov_notify_latency: SimDuration::from_micros(10),
            sriov_notify_jitter: SimDuration::from_micros_f64(2.5),
            tor_latency: SimDuration::from_micros_f64(1.0),
            wire_latency: SimDuration::from_micros_f64(0.3),
        }
    }
}

impl CostModel {
    /// Guest CPU to transmit one (super-)segment.
    pub fn guest_tx(&self, pkt: &Packet) -> SimDuration {
        self.guest_tx_fixed + SimDuration((self.guest_per_byte_ns * pkt.payload as f64) as u64)
    }

    /// Guest CPU to receive one (super-)segment.
    pub fn guest_rx(&self, pkt: &Packet) -> SimDuration {
        self.guest_rx_fixed + SimDuration((self.guest_per_byte_ns * pkt.payload as f64) as u64)
    }

    /// Datapath dispatch charged per (super-)segment: the scalar dispatch
    /// cost amortized over the assumed software batch size. Integer nanos,
    /// so `vswitch_fixed + vswitch_dispatch()` is an exact decomposition of
    /// the original calibrated per-segment constant.
    pub fn vswitch_dispatch(&self) -> SimDuration {
        SimDuration(self.vswitch_dispatch_scalar.as_nanos() / self.assumed_sw_burst)
    }

    /// Host CPU for the OVS datapath fast path on an offload-capable
    /// (non-tunneled) packet: charged once per super-segment thanks to
    /// TSO/LRO.
    pub fn vswitch_fast(&self, pkt: &Packet, rate_limited: bool) -> SimDuration {
        let mut c = self.vhost_fixed
            + self.vswitch_fixed
            + self.vswitch_dispatch()
            + SimDuration((self.vswitch_per_byte_ns * pkt.payload as f64) as u64);
        if rate_limited {
            c += self.htb_per_segment * pkt.wire_segments() as u64;
        }
        c
    }

    /// Host CPU for VXLAN-tunneled traffic: segmentation defeats offloads,
    /// so fixed + encap costs apply **per wire segment**.
    pub fn vswitch_tunneled(&self, pkt: &Packet, rate_limited: bool) -> SimDuration {
        let segs = pkt.wire_segments() as u64;
        let mut c = self.vhost_fixed
            + (self.vswitch_fixed + self.vswitch_dispatch() + self.vxlan_per_segment) * segs
            + SimDuration((self.vswitch_per_byte_ns * pkt.payload as f64) as u64);
        if rate_limited {
            c += self.htb_per_segment * segs;
        }
        c
    }

    /// Slow-path (userspace upcall) cost with `n_rules` installed.
    pub fn vswitch_slow_path(&self, n_rules: usize) -> SimDuration {
        self.vswitch_upcall + self.rule_scan_per_rule * n_rules as u64
    }

    /// Host CPU charged per packet on the SR-IOV path (interrupt isolation).
    pub fn sriov_host(&self, _pkt: &Packet) -> SimDuration {
        self.sriov_host_per_irq
    }

    /// One-way notification delay for a VIF-path delivery.
    pub fn vif_notify(&self, rng: &mut Rng) -> SimDuration {
        self.vif_notify_latency + rng.exp_duration(self.vif_notify_jitter)
    }

    /// One-way notification delay for an SR-IOV-path delivery.
    pub fn sriov_notify(&self, rng: &mut Rng) -> SimDuration {
        self.sriov_notify_latency + rng.exp_duration(self.sriov_notify_jitter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastrak_net::addr::{Ip, TenantId};
    use fastrak_net::flow::{FlowKey, Proto};
    use fastrak_net::packet::{L4Meta, Packet};
    use fastrak_sim::time::SimTime;

    fn pkt(payload: u32) -> Packet {
        Packet::new(
            0,
            FlowKey {
                tenant: TenantId(1),
                src_ip: Ip::new(10, 0, 0, 1),
                dst_ip: Ip::new(10, 0, 0, 2),
                proto: Proto::Tcp,
                src_port: 1,
                dst_port: 2,
            },
            L4Meta::Udp,
            payload,
            SimTime::ZERO,
        )
    }

    #[test]
    fn tunneled_cost_scales_per_segment() {
        let m = CostModel::default();
        let small = m.vswitch_tunneled(&pkt(1448), false);
        let big = m.vswitch_tunneled(&pkt(10 * 1448), false);
        // 10 segments cost ~10x the per-segment part; the constant vhost
        // term dilutes the raw ratio slightly.
        let per_seg_small = small.as_nanos() - m.vhost_fixed.as_nanos();
        let per_seg_big = big.as_nanos() - m.vhost_fixed.as_nanos();
        assert!(
            per_seg_big > 8 * per_seg_small,
            "{per_seg_big} vs {per_seg_small}"
        );
    }

    #[test]
    fn fast_path_cost_is_per_super_segment() {
        let m = CostModel::default();
        let small = m.vswitch_fast(&pkt(1448), false);
        let big = m.vswitch_fast(&pkt(10 * 1448), false);
        // Only the per-byte term grows: far less than 10x.
        assert!(big.as_nanos() < 3 * small.as_nanos());
    }

    #[test]
    fn rate_limiting_adds_htb_cost() {
        let m = CostModel::default();
        assert!(m.vswitch_fast(&pkt(1448), true) > m.vswitch_fast(&pkt(1448), false));
    }

    #[test]
    fn sriov_host_cost_below_vswitch() {
        let m = CostModel::default();
        assert!(m.sriov_host(&pkt(1448)) < m.vswitch_fast(&pkt(1448), false));
    }

    #[test]
    fn slow_path_scales_with_rules() {
        let m = CostModel::default();
        let none = m.vswitch_slow_path(0);
        let many = m.vswitch_slow_path(10_000);
        assert!(many > none);
        // But stays sub-millisecond (it is a one-time cost per flow).
        assert!(many < SimDuration::from_millis(1));
    }

    #[test]
    fn dispatch_decomposition_preserves_calibrated_constant() {
        // The split of the old 2.4µs per-segment constant into fixed +
        // amortized dispatch must be integer-exact, or every calibrated
        // artifact in EXPERIMENTS.md would shift.
        let m = CostModel::default();
        assert_eq!(m.vswitch_dispatch(), SimDuration(100));
        assert_eq!(
            (m.vswitch_fixed + m.vswitch_dispatch()).as_nanos(),
            SimDuration::from_micros_f64(2.4).as_nanos()
        );
        // Exact division: no truncation hidden in the amortization.
        assert_eq!(
            m.vswitch_dispatch().as_nanos() * m.assumed_sw_burst,
            m.vswitch_dispatch_scalar.as_nanos()
        );
    }

    #[test]
    fn notify_latencies_ordered() {
        let m = CostModel::default();
        let mut rng = Rng::new(1);
        let mut vif_sum = 0u64;
        let mut srv_sum = 0u64;
        for _ in 0..1000 {
            vif_sum += m.vif_notify(&mut rng).as_nanos();
            srv_sum += m.sriov_notify(&mut rng).as_nanos();
        }
        assert!(
            vif_sum as f64 > 1.3 * srv_sum as f64,
            "VIF path must be notably slower: {vif_sum} vs {srv_sum}"
        );
    }
}
