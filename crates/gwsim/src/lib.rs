//! Residential-gateway fleet simulator.
//!
//! The paper analyzes a closed dataset: per-minute traffic counters from 196
//! real home gateways of a European ISP, collected over two months starting
//! Monday, March 17, 2014. This crate is the substitute substrate — a
//! generative model of that deployment calibrated to the statistical
//! properties the paper reports about its data:
//!
//! * per-minute traffic values follow a Zipf-like distribution dominated by
//!   low-valued background traffic, with active usage showing up as
//!   outliers (Figure 1);
//! * incoming and outgoing traffic are strongly correlated (mean ≈ 0.92);
//! * per-device background levels sit mostly below 5000 bytes/minute, with
//!   portables lowest and a heavy tail of fixed machines above 40 kB/min
//!   (Figure 4);
//! * traffic is non-stationary at 1-minute binning but becomes regular under
//!   coarser aggregation for households with regular habits;
//! * households follow recognizable behavioral archetypes (evening, workday,
//!   heavy-weekend, …) that the motif analysis recovers (Figures 11, 14);
//! * most households have a *dominant device* that drives gateway traffic
//!   (Section 6.2), portables dominate short evening/weekend usage and
//!   fixed machines dominate sustained weekday usage.
//!
//! Traces are deterministic functions of `(FleetConfig, gateway id)`; the
//! [`Fleet`] renders gateways lazily so paper-scale experiments run at
//! single-gateway memory cost.

pub mod apps;
pub mod archetype;
pub mod collector;
pub mod config;
pub mod crash;
pub mod device;
pub mod export;
pub mod faults;
pub mod fleet;
pub mod gateway;
pub mod rng;
pub mod synth;
pub mod wifi;

pub use apps::AppProfile;
pub use archetype::HouseholdArchetype;
pub use collector::{
    delivery_stats, device_reports, gateway_reports, gateway_reports_seeded, reassemble,
    ChannelConfig, DeliveryStats, Report, TaggedReport,
};
pub use config::FleetConfig;
pub use crash::kill_points;
pub use device::{DeviceRole, DeviceSpec};
pub use export::{write_counter_csv, write_inventory_csv, write_traffic_csv};
pub use faults::{enospc_storm, fault_schedule, FaultEvent, FaultOp, FAULT_OPS};
pub use fleet::Fleet;
pub use gateway::{generate_gateway, AccessTech, Reliability, SimDevice, SimGateway};
pub use synth::{synthetic_window, synthetic_windows, SynthConfig};
pub use wifi::{apply_airtime_contention, PhyRate};
