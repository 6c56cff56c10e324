//! Shared Δcounter epoch metering for both measurement planes.
//!
//! The per-server measurement engine ([`crate::me`], fed vswitch flow-stat
//! dumps) and the ToR controller's hardware meter ([`crate::tor_ctrl`], fed
//! per-rule counter dumps) close epochs the same way: two cumulative samples
//! `t` apart give Δp/t and Δb/t, and a bounded per-epoch history yields the
//! median rates the decision engine ranks by. The logic lives here once so
//! the two planes cannot drift apart — they had: the ToR copy reported the
//! *last* epoch's bps where the ME reported the median.
//!
//! **Counter resets.** Cumulative counters are not monotone in practice: a
//! ToR rule is removed and reinstalled (demote→re-offload churn, the
//! reconciliation sweep repairing lost rules), an agent restarts, or a flow
//! drops out of a multi-flow fold between the two samples. Computing the
//! delta with `saturating_sub` turns every such event into a **zero-rate
//! epoch**, silently under-scoring a hot aggregate exactly when it churns —
//! and a run of resets can zero the whole window, at which point the idle
//! age-out evicts the aggregate entirely. [`epoch_rates`] therefore treats a
//! backwards sample pair as *unmeasurable*: no rate is produced, the history
//! window keeps what it knew, and the next sample pair re-baselines cleanly.
//! (Using `cur/gap` instead would be wrong here: both planes fold several
//! flows into one aggregate, so after a partial reset `cur` mixes restarted
//! and unrestarted counters.)

use std::collections::VecDeque;

use fastrak_net::ctrl::AggDemand;
use fastrak_net::flow::FlowAggregate;

/// Close one epoch from a pair of cumulative `(packets, bytes)` samples.
///
/// Returns the epoch's `(pps, bps)`, or `None` when the epoch is
/// unmeasurable: no baseline was taken (the aggregate first appeared between
/// the two samples), or either counter went backwards (reset — see the
/// module docs). Callers push nothing for an unmeasurable epoch.
pub fn epoch_rates(
    baseline: Option<(u64, u64)>,
    cur: (u64, u64),
    gap_secs: f64,
) -> Option<(f64, f64)> {
    let (p1, b1) = baseline?;
    let (p2, b2) = cur;
    if p2 < p1 || b2 < b1 {
        return None; // counter reset: re-baseline instead of a 0-rate epoch
    }
    Some(((p2 - p1) as f64 / gap_secs, (b2 - b1) as f64 / gap_secs))
}

/// Bounded per-epoch `(pps, bps)` history, summarised as a demand row.
///
/// **Median convention.** For even-length windows the median is
/// `sorted[len/2]` — the **upper** median, not the interpolated midpoint.
/// This is deliberate: the window is small (N×M ≈ 6 epochs), the decision
/// engine only *compares* scores, and biasing the boundary toward the higher
/// observed rate keeps a warming aggregate offloaded rather than flapping it
/// — rule churn costs more than the half-epoch of optimism.
#[derive(Debug, Clone, Default)]
pub struct RateWindow {
    hist: VecDeque<(f64, f64)>,
}

impl RateWindow {
    /// Push one closed epoch's rates, evicting the oldest past `cap`.
    pub fn push(&mut self, pps: f64, bps: f64, cap: usize) {
        if self.hist.len() >= cap.max(1) {
            self.hist.pop_front();
        }
        self.hist.push_back((pps, bps));
    }

    /// True when no remembered epoch saw traffic (the age-out criterion).
    /// An empty window is idle.
    pub fn idle(&self) -> bool {
        !self.hist.iter().any(|&(p, _)| p > 0.0)
    }

    /// `agg`'s demand report row (`None` while no epoch has been
    /// measured): the last epoch's rates, the remembered epochs with
    /// traffic, and the median rates.
    pub fn demand(&self, agg: FlowAggregate) -> Option<AggDemand> {
        let &(pps, bps) = self.hist.back()?;
        let mut pps_hist: Vec<f64> = self.hist.iter().map(|&(p, _)| p).collect();
        let mut bps_hist: Vec<f64> = self.hist.iter().map(|&(_, b)| b).collect();
        pps_hist.sort_by(|a, b| a.partial_cmp(b).unwrap());
        bps_hist.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mid = pps_hist.len() / 2; // upper median; see type docs
        Some(AggDemand {
            agg,
            pps,
            bps,
            n_active: self.hist.iter().filter(|&&(p, _)| p > 0.0).count() as u32,
            m_pps: pps_hist[mid],
            m_bps: bps_hist[mid],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastrak_net::addr::{Ip, TenantId};

    #[test]
    fn clean_pair_yields_rates() {
        let r = epoch_rates(Some((1000, 100_000)), (1500, 150_000), 0.1);
        let (pps, bps) = r.unwrap();
        assert!((pps - 5000.0).abs() < 1e-9);
        assert!((bps - 500_000.0).abs() < 1e-9);
    }

    #[test]
    fn reset_is_unmeasurable() {
        // Packets went backwards (rule reinstalled): no rate, not zero-rate.
        assert_eq!(epoch_rates(Some((1000, 10)), (30, 50), 1.0), None);
        // Bytes alone going backwards is just as much a reset.
        assert_eq!(epoch_rates(Some((10, 1000)), (50, 30), 1.0), None);
    }

    #[test]
    fn missing_baseline_is_unmeasurable() {
        assert_eq!(epoch_rates(None, (500, 500), 1.0), None);
    }

    #[test]
    fn upper_median_on_even_windows() {
        let mut w = RateWindow::default();
        for v in [100.0, 400.0, 200.0, 300.0] {
            w.push(v, v * 10.0, 8);
        }
        let agg = FlowAggregate::DstApp {
            tenant: TenantId(1),
            ip: Ip::tenant_vm(1),
            port: 80,
        };
        let s = w.demand(agg).unwrap();
        assert_eq!(s.agg, agg);
        assert!((s.m_pps - 300.0).abs() < 1e-9, "upper median, not midpoint");
        assert!((s.m_bps - 3000.0).abs() < 1e-9);
        assert!((s.pps - 300.0).abs() < 1e-9, "last pushed epoch");
        assert_eq!(s.n_active, 4);
    }

    #[test]
    fn idle_detection_and_bounding() {
        let mut w = RateWindow::default();
        assert!(w.idle(), "empty window is idle");
        w.push(10.0, 100.0, 2);
        assert!(!w.idle());
        w.push(0.0, 0.0, 2);
        w.push(0.0, 0.0, 2);
        assert!(w.idle(), "active epoch aged out of the bounded window");
        assert_eq!(w.hist.len(), 2);
    }
}
