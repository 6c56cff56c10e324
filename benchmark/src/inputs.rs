//! Workload inputs, generated from `--seed` inside the benchmark. The
//! simulator only ever sees a generated scenario, never the seed's meaning.
//!
//! What the seed varies: how the fixed request total is split over clients
//! (±10 %), which server each client or worker lands on, source-port bases,
//! start staggers and `TestbedConfig::seed` (`flow_scale` draws its Zipf
//! exponent and churner placement the same way, but from a fixed seed).
//! What it never varies is the offered load (request totals, round counts,
//! connection counts, horizons): host time must be comparable across seeds,
//! or the seed-to-seed spread of `wall_s` would measure the input generator
//! instead of the simulator.

use fastrak_sim::Rng;

/// Problem size: `Full` is what `BENCHMARK.json` gates, `Quick` is the
/// ~1/20-size smoke run (`--quick`, self-tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Quick,
}

/// One memslap client VM of the rack workloads.
#[derive(Debug, Clone, PartialEq)]
pub struct RackClient {
    /// Physical server (1..=5; server 0 hosts the memcached VMs).
    pub server: usize,
    /// Requests this client issues (a multiple of its 8 connections).
    pub requests: u64,
    pub src_port_base: u16,
    pub start_delay_us: u64,
}

/// `rack_soft` / `rack_express`: the §6 memcached rack. Both workloads get
/// the same clients from the same seed; only the path differs.
#[derive(Debug, Clone, PartialEq)]
pub struct RackInputs {
    pub testbed_seed: u64,
    pub clients: Vec<RackClient>,
    /// Simulated deadline; a client still running then has failed. Far
    /// beyond any finish time at either size.
    pub horizon_ms: u64,
}

/// Mean requests per rack client at full size (5 clients; ≈ 0.9 s of host
/// time per repetition on the 2-core reference box).
pub const RACK_REQUESTS_PER_CLIENT: u64 = 24_000;
const RACK_CLIENTS: usize = 5;
/// memslap's 4 targets × 2 connections: per-client totals are multiples of
/// this so every connection gets a whole, equal quota.
const RACK_CONNS_PER_CLIENT: u64 = 8;

pub fn rack(seed: u64, size: Size) -> RackInputs {
    let mut rng = Rng::new(seed ^ 0x7261_636b); // "rack"
    let mean = match size {
        Size::Full => RACK_REQUESTS_PER_CLIENT,
        Size::Quick => RACK_REQUESTS_PER_CLIENT / 20,
    };
    let slots = permutation(&mut rng, RACK_CLIENTS);
    let requests = split_total(&mut rng, mean * RACK_CLIENTS as u64, RACK_CLIENTS, 0.10);
    let clients = (0..RACK_CLIENTS)
        .map(|c| RackClient {
            server: 1 + slots[c],
            requests: requests[c],
            src_port_base: 43_000 + (c as u16) * 64 + rng.below(32) as u16,
            start_delay_us: rng.below(200),
        })
        .collect();
    RackInputs {
        testbed_seed: rng.next_u64(),
        clients,
        horizon_ms: 60_000,
    }
}

/// `incast_loss`: 32-worker fan-in plus two long pipelined flows; the same
/// inputs drive both cells (CUBIC+SACK on the software path, DCTCP+ECN on
/// SR-IOV).
#[derive(Debug, Clone, PartialEq)]
pub struct IncastInputs {
    pub testbed_seed: u64,
    /// Physical server (1..=4) of each worker; the aggregator is alone on 0.
    pub worker_servers: Vec<usize>,
    /// Fan-in rounds each cell runs to completion.
    pub rounds: u64,
    /// Transactions each of the two pipelined background flows completes.
    pub background_requests: u64,
    pub src_port_base: u16,
    pub start_delay_us: u64,
}

pub const INCAST_WORKERS: usize = 32;
pub const INCAST_ROUNDS: u64 = 800;
pub const INCAST_BACKGROUND_REQUESTS: u64 = 4_000;

pub fn incast(seed: u64, size: Size) -> IncastInputs {
    let mut rng = Rng::new(seed ^ 0x696e_6361); // "inca"

    // Eight workers per server (one VF each), dealt in a
    // seed-dependent order so which worker shares a link with which varies.
    let order = permutation(&mut rng, INCAST_WORKERS);
    let mut worker_servers = vec![0; INCAST_WORKERS];
    for (pos, &w) in order.iter().enumerate() {
        worker_servers[w] = 1 + pos % 4;
    }
    let shrink = match size {
        Size::Full => 1,
        Size::Quick => 20,
    };
    IncastInputs {
        worker_servers,
        rounds: INCAST_ROUNDS / shrink,
        background_requests: INCAST_BACKGROUND_REQUESTS / shrink,
        src_port_base: 47_000 + rng.below(512) as u16,
        start_delay_us: rng.below(200),
        testbed_seed: rng.next_u64(),
    }
}

/// `flow_scale`: victim fleet + a many-connection churner under the
/// controller.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowScaleInputs {
    pub testbed_seed: u64,
    pub victims: u32,
    pub zipf_s: f64,
    pub fleet_stagger_us: u64,
    /// Churner destination ports (aggregates) × connections per port.
    pub churn_ports: u16,
    pub churn_conns_per_port: u16,
    pub churn_server_slot: usize,
    pub churn_client_slot: usize,
    pub churn_src_port_base: u16,
    pub churn_start_delay_us: u64,
    pub horizon_ms: u64,
    /// Is the run long enough for the hot set to rotate under a full fast
    /// path, i.e. must the controller have demoted something?
    pub expect_demotes: bool,
}

pub const FLOW_SCALE_SERVERS: usize = 6;
pub const FLOW_SCALE_BUDGET: usize = 16;

/// `flow_scale` does not take the run's seed. Its closed loops run under a
/// controller whose decisions, and the order in which 512 connections are
/// accepted, turn any input perturbation into a different run: the same
/// offered load costs 0.85–1.55 s of host time depending on the seed, which
/// would drown every before/after comparison. It draws its one scenario
/// from this fixed seed instead.
const FLOW_SCALE_SCENARIO: u64 = 1;

pub fn flow_scale(size: Size) -> FlowScaleInputs {
    let mut rng = Rng::new(FLOW_SCALE_SCENARIO ^ 0x666c_6f77); // "flow"
    let slots = permutation(&mut rng, FLOW_SCALE_SERVERS);

    let (victims, ports, conns, horizon_ms) = match size {
        Size::Full => (8, 64, 8, 300),
        Size::Quick => (4, 16, 4, 200),
    };
    FlowScaleInputs {
        victims,
        zipf_s: 0.9 + 0.2 * rng.f64(),
        fleet_stagger_us: 2_000 + rng.below(2_000),
        churn_ports: ports,
        churn_conns_per_port: conns,
        churn_server_slot: slots[0],
        churn_client_slot: slots[1],
        churn_src_port_base: 51_000 + rng.below(1_000) as u16,
        churn_start_delay_us: rng.below(5_000),
        horizon_ms,
        expect_demotes: size == Size::Full,
        testbed_seed: rng.next_u64(),
    }
}

/// A uniformly random permutation of `0..n` (Fisher–Yates).
fn permutation(rng: &mut Rng, n: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.below(i as u64 + 1) as usize);
    }
    v
}

/// Split `total` over `n` parts, each within ±`jitter` of the mean and a
/// multiple of [`RACK_CONNS_PER_CLIENT`], summing to exactly `total`.
fn split_total(rng: &mut Rng, total: u64, n: usize, jitter: f64) -> Vec<u64> {
    let unit = RACK_CONNS_PER_CLIENT;
    assert!(
        total.is_multiple_of(unit * n as u64),
        "total must split evenly"
    );
    let mean = (total / n as u64) as f64;
    let lo = (mean * (1.0 - jitter) / unit as f64).ceil() as u64 * unit;
    let hi = (mean * (1.0 + jitter) / unit as f64).floor() as u64 * unit;
    let mut parts: Vec<u64> = (0..n)
        .map(|_| {
            let share = 1.0 + (rng.f64() * 2.0 - 1.0) * jitter;
            ((mean * share / unit as f64).round() as u64 * unit).clamp(lo, hi)
        })
        .collect();
    // The draws do not sum to the total; move the parts towards it in turn,
    // one unit at a time, never past the ±jitter bounds.
    let mut i = 0;
    loop {
        let sum: u64 = parts.iter().sum();
        if sum == total {
            return parts;
        }
        let p = &mut parts[i % n];
        if sum < total && *p < hi {
            *p += unit;
        } else if sum > total && *p > lo {
            *p -= unit;
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_different_seed_different_inputs() {
        for size in [Size::Full, Size::Quick] {
            assert_eq!(rack(7, size), rack(7, size));
            assert_ne!(rack(7, size), rack(8, size));
            assert_eq!(incast(7, size), incast(7, size));
            assert_ne!(incast(7, size), incast(8, size));
            assert_eq!(flow_scale(size), flow_scale(size));
        }
    }

    #[test]
    fn offered_work_does_not_depend_on_the_seed() {
        for seed in 0..50 {
            let r = rack(seed, Size::Full);
            let total: u64 = r.clients.iter().map(|c| c.requests).sum();
            assert_eq!(total, RACK_REQUESTS_PER_CLIENT * 5);
            for c in &r.clients {
                assert_eq!(c.requests % 8, 0);
                let off = c.requests.abs_diff(RACK_REQUESTS_PER_CLIENT);
                assert!(10 * off <= RACK_REQUESTS_PER_CLIENT, "share off by {off}");
                assert!((1..=5).contains(&c.server));
            }
            let mut servers: Vec<usize> = r.clients.iter().map(|c| c.server).collect();
            servers.sort_unstable();
            assert_eq!(servers, [1, 2, 3, 4, 5], "one client per server");

            let i = incast(seed, Size::Full);
            for s in 1..=4 {
                let n = i.worker_servers.iter().filter(|&&x| x == s).count();
                assert_eq!(n, INCAST_WORKERS / 4);
            }
        }
        let f = flow_scale(Size::Full);
        assert_ne!(f.churn_server_slot, f.churn_client_slot);
        assert!((0.9..1.1).contains(&f.zipf_s));
    }
}
