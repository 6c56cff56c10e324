//! Flow Proportional Share rate splitting (paper §4.1.4, §4.3.2).
//!
//! FasTrak exposes two interfaces per VM, so a per-VM rate limit can no
//! longer be enforced at one aggregation point. The limit `L` is split into
//! `Ls` (VIF) and `Lh` (SR-IOV VF), each padded with an **overflow
//! allowance** `O`, so `Rs = Ls + O` and `Rh = Lh + O`. The split follows
//! FPS (Raghavan et al., SIGCOMM'07): each limiter's share is proportional
//! to its measured demand; a limiter observed *maxed out* (its traffic
//! flat-lined at its limit) is treated as having more demand than measured,
//! which is exactly what the overflow headroom detects — "when the capacity
//! required on the interface is higher than the rate limit, the flows will
//! max out the rate limit imposed. FPS uses this information to re-adjust."
//!
//! Adaptation note (DESIGN.md): the original FPS weights by *flow count*
//! for TCP-fairness across sites; within one VM, demand-proportional
//! weighting with max-out escalation preserves the property that matters
//! here — the aggregate of both limiters never exceeds `L + 2O`, while each
//! side gets capacity proportional to where the traffic actually is.

/// Input to one FPS computation for one (VM, direction).
#[derive(Debug, Clone, Copy)]
pub struct FpsInput {
    /// The tenant's total limit for this VM/direction (bits/sec).
    pub limit_bps: u64,
    /// Measured software-path demand (bits/sec).
    pub sw_demand_bps: f64,
    /// Measured hardware-path demand (bits/sec).
    pub hw_demand_bps: f64,
    /// The software limiter was maxed out last interval.
    pub sw_maxed: bool,
    /// The hardware limiter was maxed out last interval.
    pub hw_maxed: bool,
}

/// Result: the two limits, overflow already included.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FpsSplit {
    /// VIF limit `Rs = Ls + O`.
    pub sw_bps: u64,
    /// VF limit `Rh = Lh + O`.
    pub hw_bps: u64,
}

/// Overflow allowance as a fraction of `L` (the paper's `O`).
pub const OVERFLOW_FRAC: f64 = 0.05;
/// Minimum share fraction per side (keeps a cold path usable so demand can
/// be *observed* there at all).
pub const MIN_SHARE: f64 = 0.05;
/// Escalation multiplier applied to the demand of a maxed-out side.
pub const MAXED_BOOST: f64 = 1.5;

/// Compute the split.
pub fn fps_split(input: FpsInput) -> FpsSplit {
    let l = input.limit_bps as f64;
    let mut ds = input.sw_demand_bps.max(0.0);
    let mut dh = input.hw_demand_bps.max(0.0);
    if input.sw_maxed {
        ds *= MAXED_BOOST;
    }
    if input.hw_maxed {
        dh *= MAXED_BOOST;
    }
    let total = ds + dh;
    let share_s = if total <= 0.0 {
        0.5
    } else {
        (ds / total).clamp(MIN_SHARE, 1.0 - MIN_SHARE)
    };
    let overflow = l * OVERFLOW_FRAC;
    let ls = l * share_s;
    // The hardware side takes the remainder of the *rounded total* budget
    // rather than rounding `lh + O` independently: when both halves landed
    // on .5 boundaries, independent rounding pushed the sum to `L + 2O + 1`,
    // breaking the aggregate-limit invariant the property test pins.
    let total = (l + 2.0 * overflow).floor() as u64;
    let sw_bps = ((ls + overflow).round() as u64).min(total);
    FpsSplit {
        sw_bps,
        hw_bps: total - sw_bps,
    }
}

/// Was a limiter "maxed out"? True when the measured rate reached at least
/// `frac` of its configured limit.
pub fn is_maxed(measured_bps: f64, limit_bps: u64, frac: f64) -> bool {
    limit_bps > 0 && measured_bps >= frac * limit_bps as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_proportional_to_demand() {
        let s = fps_split(FpsInput {
            limit_bps: 1_000_000_000,
            sw_demand_bps: 100e6,
            hw_demand_bps: 900e6,
            sw_maxed: false,
            hw_maxed: false,
        });
        // hw gets ~90% + overflow.
        assert!(s.hw_bps > 900_000_000, "{s:?}");
        assert!(s.sw_bps < 200_000_000, "{s:?}");
    }

    #[test]
    fn aggregate_bounded_by_l_plus_2o() {
        let l = 1_000_000_000u64;
        for (ds, dh) in [(0.0, 0.0), (1e9, 0.0), (5e8, 5e8), (0.0, 1e9)] {
            let s = fps_split(FpsInput {
                limit_bps: l,
                sw_demand_bps: ds,
                hw_demand_bps: dh,
                sw_maxed: false,
                hw_maxed: false,
            });
            // Exact bound — no rounding slack (the old `+2` fudge hid a
            // double-round-up that could exceed the budget by one).
            let bound = (l as f64 * (1.0 + 2.0 * OVERFLOW_FRAC)) as u64;
            assert!(s.sw_bps + s.hw_bps <= bound, "{s:?} exceeds {bound}");
        }
    }

    /// Property test (ISSUE 8 satellite): across seeded random limits,
    /// demands and maxed-out escalations, the two limits never sum past the
    /// budget `L + 2O`, and neither side starves below its min-share floor
    /// (minus rounding).
    #[test]
    fn split_invariants_hold_for_seeded_random_inputs() {
        // Deterministic xorshift64* (same shape as the de_differential rig).
        let mut state = 0xF95_5EEDu64;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        for case in 0..20_000u32 {
            // Odd limits matter: the double-round-up needs fractional halves.
            let limit_bps = 1 + next() % 10_000_000_000;
            let input = FpsInput {
                limit_bps,
                sw_demand_bps: (next() % (2 * limit_bps)) as f64 * 0.9,
                hw_demand_bps: (next() % (2 * limit_bps)) as f64 * 0.9,
                sw_maxed: next() % 2 == 0,
                hw_maxed: next() % 2 == 0,
            };
            let s = fps_split(input);
            // The budget as the spec defines it: O = L·OVERFLOW_FRAC,
            // bound = L + 2O (computed with the same f64 associativity).
            let o = limit_bps as f64 * OVERFLOW_FRAC;
            let budget = (limit_bps as f64 + 2.0 * o).floor() as u64;
            assert!(
                s.sw_bps + s.hw_bps <= budget,
                "case {case}: {s:?} exceeds L+2O={budget} for {input:?}"
            );
            // Each side keeps at least its min-share floor of L (rounding
            // can shave at most one unit).
            let floor = (limit_bps as f64 * MIN_SHARE).floor() as u64;
            assert!(
                s.sw_bps + 1 >= floor && s.hw_bps + 1 >= floor,
                "case {case}: {s:?} starves a side below MIN_SHARE"
            );
        }
    }

    #[test]
    fn no_demand_splits_evenly() {
        let s = fps_split(FpsInput {
            limit_bps: 1_000_000_000,
            sw_demand_bps: 0.0,
            hw_demand_bps: 0.0,
            sw_maxed: false,
            hw_maxed: false,
        });
        assert!((s.sw_bps as i64 - s.hw_bps as i64).abs() < 2);
    }

    #[test]
    fn min_share_keeps_cold_path_alive() {
        let s = fps_split(FpsInput {
            limit_bps: 1_000_000_000,
            sw_demand_bps: 0.0,
            hw_demand_bps: 1e9,
            sw_maxed: false,
            hw_maxed: false,
        });
        assert!(s.sw_bps >= 50_000_000, "cold path keeps min share: {s:?}");
    }

    #[test]
    fn maxed_side_gains_share() {
        let base = fps_split(FpsInput {
            limit_bps: 1_000_000_000,
            sw_demand_bps: 500e6,
            hw_demand_bps: 500e6,
            sw_maxed: false,
            hw_maxed: false,
        });
        let boosted = fps_split(FpsInput {
            limit_bps: 1_000_000_000,
            sw_demand_bps: 500e6,
            hw_demand_bps: 500e6,
            sw_maxed: false,
            hw_maxed: true,
        });
        assert!(boosted.hw_bps > base.hw_bps);
    }

    #[test]
    fn maxed_detection() {
        assert!(is_maxed(960e6, 1_000_000_000, 0.95));
        assert!(!is_maxed(900e6, 1_000_000_000, 0.95));
        assert!(!is_maxed(1e9, 0, 0.95));
    }
}
