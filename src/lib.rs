//! # Quantifying Privacy Violations
//!
//! A full reproduction of *Quantifying Privacy Violations* (Banerjee,
//! Karimi Adl, Wu, Barker; SDM @ VLDB 2011): a four-dimensional model of
//! privacy violations for relational databases, with severity measurement,
//! provider-default prediction, α-PPDB compliance checking, and the policy
//! expansion economics of the paper's §9 — all built on a from-scratch
//! relational storage engine.
//!
//! This crate is the facade: it re-exports the workspace's crates under one
//! roof and hosts the runnable examples and cross-crate integration tests.
//!
//! ## The pieces
//!
//! * [`taxonomy`] — the privacy space: purpose, visibility, granularity,
//!   retention ([`qpv_taxonomy`]).
//! * [`reldb`] — the relational engine: slotted pages, buffer pool, WAL,
//!   B+trees, SQL ([`qpv_reldb`]).
//! * [`policy`] — house policies, provider preferences, and the policy DSL
//!   ([`qpv_policy`]).
//! * [`core`] — the violation model itself: `w_i`, `conf`, `Violation_i`,
//!   `P(W)`, `P(Default)`, the α-PPDB ([`qpv_core`]).
//! * [`economics`] — §9's widening-vs-default trade-off ([`qpv_economics`]).
//! * [`synth`] — Westin-segment population generation ([`qpv_synth`]).
//!
//! ## Quickstart
//!
//! ```
//! use quantifying_privacy_violations::prelude::*;
//!
//! // The paper's §8 worked example, end to end.
//! let scenario = Scenario::worked_example();
//! let report = scenario.engine().run(&scenario.population.profiles);
//! assert_eq!(report.providers[1].score, 60);          // Ted (Eq. 20)
//! assert!((report.p_default() - 1.0 / 3.0).abs() < 1e-12); // Eq. 24
//! ```

pub use qpv_core as core;
pub use qpv_economics as economics;
pub use qpv_policy as policy;
pub use qpv_reldb as reldb;
pub use qpv_synth as synth;
pub use qpv_taxonomy as taxonomy;

/// The names almost every user of the library wants in scope.
pub mod prelude {
    pub use qpv_core::{
        AuditEngine, AuditReport, DatumSensitivity, Ppdb, PpdbConfig, ProviderProfile,
    };
    pub use qpv_economics::{ExpansionSweep, UtilityModel};
    pub use qpv_policy::{HousePolicy, ProviderId, ProviderPreferences};
    pub use qpv_reldb::{Database, Row, Value};
    pub use qpv_synth::Scenario;
    pub use qpv_taxonomy::{
        Dim, GranularityLevel, Level, PrivacyPoint, PrivacyTuple, Purpose, RetentionLevel,
        VisibilityLevel,
    };
}
