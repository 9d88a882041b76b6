//! # qpv-core
//!
//! The privacy-violation model of *Quantifying Privacy Violations*
//! (Banerjee, Karimi Adl, Wu, Barker; SDM @ VLDB 2011), implemented end to
//! end:
//!
//! | Paper artefact | Here |
//! |---|---|
//! | Definition 1 (violation `w_i`) | [`violation::is_violated`], [`violation::witnesses`] |
//! | Definition 2 (`P(W)`) | [`probability::census_probability`], [`probability::estimate_probability`] |
//! | Definition 3 (α-PPDB) | [`audit::AuditReport::is_alpha_ppdb`] |
//! | Equations 10–11 (sensitivity `⟨σ, Σ⟩`) | [`sensitivity::SensitivityModel`] |
//! | Equations 12–14 (`diff`, `comp`, `conf`) | [`severity::conf`] |
//! | Equations 15–16 (`Violation_i`, `Violations`) | [`severity::violation_score`], [`severity::total_violations`] |
//! | Definitions 4–5 (default, `P(Default)`) | [`default_model`], [`probability`] |
//!
//! On top of the pure model sit the systems pieces:
//!
//! * [`profile`] — a provider's complete privacy posture (preferences,
//!   sensitivities, default threshold): the unit the synthetic-population
//!   generator produces and the audit consumes.
//! * [`ppdb`] — the **privacy-preserving database**: provider data, stated
//!   preferences, sensitivities, thresholds, and the house policy all live
//!   in `qpv-reldb` tables, making violations auditable against actual
//!   storage (the paper's §10 "initial prototype of the α-PPDB").
//! * [`audit`] — the audit engine producing [`audit::AuditReport`]s.
//! * [`intern`] / [`plan`] — the compiled house side: attributes and
//!   purposes interned to dense ids, policy tuples pre-resolved to
//!   [`plan::CompiledAuditPlan`] rows, lattice coverage precomputed.
//! * [`pop`] — the population compiled once into flat structure-of-arrays
//!   storage ([`pop::CompiledPopulation`]): deduplicated unique rows of
//!   interned preferences and datum sensitivities, with per-occurrence
//!   ids and thresholds.
//! * `packed` — the one compiled evaluator of Definition 1 and Eq. 15:
//!   prepared once per (population, plans), it walks blocks of unique
//!   rows branch-free with zero string hashing. A walk either prices many
//!   policies at once as counts
//!   ([`audit::AuditEngine::audit_many_policies`], with scratch memory
//!   bounded independently of the number of policies) or records one
//!   plan's scores and witnesses — what [`audit::AuditEngine::run`] and
//!   the live index read.
//!   [`audit::AuditEngine::run_reference`] keeps the direct string path
//!   as the property-tested oracle.
//! * [`liveindex`] — the one maintained audit state: the violation set,
//!   per-provider scores and default flags, and the Eq. 16 / Definition
//!   2–5 aggregates, kept current off the delta stream. Both SQL query
//!   paths and the [`deltalog::Monitor`] read it.
//! * [`whatif`] — §10's "what-if scenarios that modify a house's privacy
//!   policies", evaluated without touching the stored policy.
//! * [`report`] — plain-text rendering of audit results.

pub mod audit;
pub mod default_model;
pub mod deltalog;
pub mod intern;
pub mod liveindex;
mod packed;
pub mod plan;
pub mod pop;
pub mod ppdb;
pub mod probability;
pub mod profile;
pub mod report;
pub mod sensitivity;
pub mod severity;
pub mod violation;
pub mod whatif;

pub use audit::{AuditEngine, AuditReport, ProviderAudit};
pub use default_model::{defaults, DefaultThresholds};
pub use deltalog::{DeltaLog, Monitor, MonitorAlert, MonitorConfig, Recovery};
pub use intern::SymbolTable;
pub use liveindex::LiveViolationIndex;
pub use plan::CompiledAuditPlan;
pub use pop::{
    CompiledPopulation, DeltaError, DeltaOp, DeltaOutcome, PolicyOutcome, PopulationBuilder,
    PopulationDelta,
};
pub use ppdb::{AuditLogEntry, DeltaQueue, Ppdb, PpdbConfig};
pub use probability::{census_fraction, census_probability, estimate_probability};
pub use profile::ProviderProfile;
pub use sensitivity::{AttributeSensitivities, DatumSensitivity, SensitivityModel};
pub use severity::{conf, total_violations, violation_score};
pub use violation::{is_violated, witnesses, ViolationWitness};
