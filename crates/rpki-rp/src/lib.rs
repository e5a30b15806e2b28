//! The relying party: from repositories to route validity.
//!
//! A relying party turns the distributed soup of signed objects into
//! routing decisions, in two stages the paper analyses separately:
//!
//! 1. **Chain validation** ([`validation`]) — walk top-down from trust
//!    anchors, enforcing signatures, validity windows, CRLs, manifests,
//!    and strict RFC 3779 resource containment, producing the set of
//!    *validated ROA payloads* (VRPs). RFC 6480's requirement that the
//!    relying party hold "a complete set of valid ROAs" is load-bearing:
//!    what this stage cannot fetch or verify simply is not in the set.
//! 2. **Route origin validation** ([`ov`]) — RFC 6811: classify each
//!    BGP route as valid / invalid / unknown against the VRP set, with
//!    the cover/match semantics whose side effects (5 and 6) the paper
//!    demonstrates.
//!
//! Object retrieval is abstracted by [`ObjectSource`] so the validator
//! runs identically over the faulty simulated network
//! ([`NetworkSource`]) or directly against at-rest repository state
//! ([`DirectSource`], for analyses that don't involve transport).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fabric;
pub mod incremental;
pub mod ov;
pub mod relay;
pub mod resilience;
pub mod rrdp;
pub mod rtr;
pub mod scheduler;
pub mod source;
pub mod validation;
pub mod vrp;

pub use fabric::{pump_until, FabricStats, RtrEndpoint, RtrFabric, RtrRouter};
pub use incremental::{RevalidationMode, RevalidationStats, ValidationState, VrpDelta};
pub use ov::{Route, RouteValidity};
pub use relay::{reference_merge, MergePolicy, Relay, SlurmFile, SlurmFilter};
pub use resilience::{FetchHealth, ResilienceConfig, ResilientState};
pub use rrdp::RrdpSource;
pub use rtr::{
    serial_distance, serial_newer, ClientAction, Delta, RtrClient, RtrPdu, RtrServer, VrpUpdate,
};
pub use scheduler::{RunStats, SchedulePlan, ScheduledSource, SchedulerState, SchedulerStats};
pub use source::{DirectSource, NetworkSource, ObjectSource, ResilientSource};
pub use validation::{
    Diagnostic, IncompletePolicy, Issue, OverclaimPolicy, RejectedCa, UnsafeVrpPolicy,
    ValidationConfig, ValidationRun, Validator, VrpRecord,
};
pub use vrp::{Vrp, VrpCache};
