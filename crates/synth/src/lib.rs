//! # qpv-synth
//!
//! Synthetic provider populations and experiment workloads.
//!
//! The paper evaluates its model on a three-person toy example and points to
//! Westin's surveys (via Kumaraguru & Cranor's compilation, the paper's
//! ref \[11\]) as the empirical grounding for *heterogeneous* privacy
//! postures. This crate encodes exactly that structure so the model can be
//! exercised at population scale:
//!
//! * [`segments`] — the Westin segmentation (fundamentalists, pragmatists,
//!   unconcerned) as parameterised distributions over preference headroom,
//!   sensitivities, and default thresholds;
//! * [`population`] — seeded, reproducible generation of
//!   [`qpv_core::ProviderProfile`]s and matching data rows;
//! * [`scenario`] — fully assembled experiment scenarios (the paper's
//!   worked example, a healthcare registry, a social network);
//! * [`workload`] — policy sweeps and seeded churn streams
//!   ([`workload::churn`]) for the delta and monitor workloads.

pub mod population;
pub mod scenario;
pub mod segments;
pub mod workload;

pub use population::{
    generate, generate_stable, stream_clustered, stream_stable, Population, PopulationSpec,
};
pub use scenario::Scenario;
pub use segments::{Segment, SegmentMix, SegmentParams};
pub use workload::{churn, churn_batches};
