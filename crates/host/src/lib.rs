//! # fastrak-host
//!
//! The virtualized physical-server model for the FasTrak reproduction: a
//! [`server::Server`] node contains guest [`vm::Vm`]s (each with vCPUs, a
//! TCP stack from `fastrak-transport`, and a guest application), an
//! OVS-model [`vswitch::Vswitch`], an SR-IOV NIC ([`sriov::SriovNic`]), and
//! the modified-bonding-driver [`bonding::FlowPlacer`] — i.e. everything the
//! paper's testbed runs on one HP DL380G6 (§3.1, §5.1).
//!
//! The substitution rationale (what each model stands in for, and why it
//! preserves the paper's observable behaviour) lives in DESIGN.md §1; the
//! cost calibration lives in [`cost`].

pub mod app;
pub mod bonding;
pub mod cost;
pub mod server;
pub mod sriov;
pub mod vm;
pub mod vswitch;

pub use app::{GuestApi, GuestApp};
pub use bonding::FlowPlacer;
pub use server::{Server, ServerConfig, ServerStats, PORT_HW, PORT_SW};
pub use sriov::{SriovNic, Vf};
pub use vm::{Vm, VmSpec};
pub use vswitch::{TxVerdict, Vswitch, VswitchConfig};
