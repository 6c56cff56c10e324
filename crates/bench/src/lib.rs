//! # fastrak-bench
//!
//! The experiment harness: one module per table/figure of the paper's
//! evaluation, each regenerating the corresponding rows on the simulated
//! testbed, printed side by side with the paper's published values.
//!
//! Run everything with:
//!
//! ```text
//! cargo run --release -p fastrak-bench --bin experiments -- all
//! ```
//!
//! or a single artifact, e.g. `-- fig3` or `-- table4 --full` (the `--full`
//! flag uses the paper's full request counts / durations; the default is a
//! time-scaled run that preserves every reported *ratio* — rates are
//! stationary, so finish times simply scale with the request count).
//!
//! The `report` module defines the comparison-row machinery; `scenarios`
//! builds the shared testbed configurations (§3.1's microbenchmark pair and
//! §6's memcached rack); `cells` fans independent worlds out over the
//! host's cores, which is how every multi-cell experiment runs its grid.

pub mod cells;
pub mod experiments;
pub mod harness;
pub mod json;
pub mod report;
pub mod scenarios;

pub use report::{Artifact, Row};
pub use scenarios::{MicroBed, PathSetup};
