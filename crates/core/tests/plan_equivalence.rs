//! Property suite for the compiled-plan contract: the audit engine, which
//! routes through [`qpv_core::CompiledAuditPlan`], produces results
//! **bitwise identical** to the original string-resolving reference path
//! ([`qpv_core::AuditEngine::run_reference`]), flat and lattice, on
//! arbitrary populations. The live index is pinned separately, in
//! `delta_equivalence.rs` and `live_index_equivalence.rs`.
//!
//! Populations deliberately include the cases where the compiled path
//! could diverge: duplicate `(attribute, purpose)` preference tuples
//! (find-first vs join semantics), purposes only the lattice knows,
//! purposes nobody stated, attributes the table doesn't store, and one
//! pathologically skewed provider (~100× the average tuples).

use proptest::prelude::*;

use qpv_core::sensitivity::{AttributeSensitivities, DatumSensitivity};
use qpv_core::{AuditEngine, ProviderProfile};
use qpv_policy::{HousePolicy, ProviderId};
use qpv_taxonomy::{PrivacyPoint, PrivacyTuple, PurposeLattice};

fn pt(v: u32, g: u32, r: u32) -> PrivacyPoint {
    PrivacyPoint::from_raw(v, g, r)
}

/// A structurally varied population derived from a single seed, stressing
/// every resolution rule the plan compiles away.
fn population(n: usize, seed: u64) -> Vec<ProviderProfile> {
    (0..n as u64)
        .map(|i| {
            let x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(seed);
            let mut p = ProviderProfile::new(ProviderId(i), 10 + (x % 140));
            p.preferences.add(
                "weight",
                PrivacyTuple::from_point("pr", pt(1 + (x % 5) as u32, 2, 20 + (x % 30) as u32)),
            );
            if x % 4 == 0 {
                // Duplicate (attribute, purpose): flat matching must keep
                // the first stated tuple, lattice matching must join both.
                p.preferences.add(
                    "weight",
                    PrivacyTuple::from_point("pr", pt(4, 1 + (x % 4) as u32, 10)),
                );
            }
            if x % 3 != 0 {
                p.preferences.add(
                    "age",
                    PrivacyTuple::from_point(
                        "research",
                        pt(2 + (x % 3) as u32, 1 + (x % 4) as u32, 45),
                    ),
                );
            }
            if x % 5 == 0 {
                // A broad purpose only the lattice connects to the policy.
                p.preferences
                    .add("weight", PrivacyTuple::from_point("ops", pt(5, 5, 90)));
            }
            if x % 7 == 0 {
                // Noise the plan never interns: an unknown purpose and an
                // attribute outside the data table.
                p.preferences
                    .add("weight", PrivacyTuple::from_point("mystery", pt(9, 9, 9)));
                p.preferences
                    .add("shoe_size", PrivacyTuple::from_point("pr", pt(9, 9, 9)));
            }
            p.sensitivities.insert(
                "weight".into(),
                DatumSensitivity::new(1 + (x % 6) as u32, 1, 1 + (x % 3) as u32, 2),
            );
            if x % 2 == 0 {
                p.sensitivities
                    .insert("age".into(), DatumSensitivity::new(2, 1, 1, 1));
            }
            p
        })
        .collect()
}

/// Blow up one provider's preference list to ~100× the average.
fn skew(profiles: &mut [ProviderProfile], victim: usize) {
    for i in 0..600u32 {
        profiles[victim].preferences.add(
            "weight",
            PrivacyTuple::from_point("pr", pt(1 + (i % 5), 2, 20 + (i % 30))),
        );
    }
}

fn weights() -> AttributeSensitivities {
    let mut w = AttributeSensitivities::new();
    w.set("weight", 4);
    w.set("age", 2);
    w
}

fn policy(level: u32) -> HousePolicy {
    let mut b = HousePolicy::builder("h").tuple(
        "weight",
        PrivacyTuple::from_point("pr", pt(level, 3, 30 + level)),
    );
    if level.is_multiple_of(2) {
        b = b.tuple(
            "age",
            PrivacyTuple::from_point("research", pt(2 + level / 3, 2, 60)),
        );
    }
    if level >= 5 {
        // A second tuple for an already-seen attribute, under a purpose
        // that is narrower than stated consents in the lattice.
        b = b.tuple("weight", PrivacyTuple::from_point("billing", pt(3, 3, 40)));
    }
    if level >= 7 {
        b = b.tuple("weight", PrivacyTuple::from_point("ads", pt(3, 3, 365)));
    }
    b.build()
}

/// billing ⊑ pr ⊑ ops; research ⊑ ops.
fn lattice() -> PurposeLattice {
    let mut l = PurposeLattice::new();
    l.add_edge("billing", "pr").unwrap();
    l.add_edge("pr", "ops").unwrap();
    l.add_edge("research", "ops").unwrap();
    l
}

fn engine(hp: &HousePolicy) -> AuditEngine {
    AuditEngine::new(hp.clone(), ["weight", "age"], weights())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Flat matching: compiled == reference, provider by provider.
    #[test]
    fn compiled_flat_equals_reference(
        seed in 0u64..1_000_000,
        n in 1usize..120,
        level in 0u32..10,
    ) {
        let profiles = population(n, seed);
        let eng = engine(&policy(level));
        prop_assert_eq!(eng.run(&profiles), eng.run_reference(&profiles));
    }

    /// Lattice matching: compiled coverage sets == dominated_by walks.
    #[test]
    fn compiled_lattice_equals_reference(
        seed in 0u64..1_000_000,
        n in 1usize..120,
        level in 0u32..10,
    ) {
        let profiles = population(n, seed);
        let eng = engine(&policy(level)).with_lattice(lattice());
        prop_assert_eq!(eng.run(&profiles), eng.run_reference(&profiles));
    }

    /// Larger populations with one skewed provider equal the reference,
    /// flat and lattice.
    #[test]
    fn skewed_compiled_equals_reference(
        seed in 0u64..1_000_000,
        n in 300usize..600,
        level in 0u32..10,
        with_lattice in 0u32..2,
    ) {
        let mut profiles = population(n, seed);
        skew(&mut profiles, n / 2);
        let mut eng = engine(&policy(level));
        if with_lattice == 1 {
            eng = eng.with_lattice(lattice());
        }
        prop_assert_eq!(eng.run(&profiles), eng.run_reference(&profiles));
    }
}

/// Duplicate provider ids: the reference path resolves datums and
/// thresholds through the assembled (merged, last-wins) structures, and
/// the compiled path must fall back to the same resolution instead of
/// reading each profile directly.
#[test]
fn duplicate_provider_ids_match_reference() {
    let mut profiles = population(40, 77);
    // Re-register provider 3 with different sensitivities and threshold;
    // both occurrences must see the merged view.
    let mut dup = ProviderProfile::new(ProviderId(3), 9999);
    dup.preferences
        .add("weight", PrivacyTuple::from_point("pr", pt(1, 1, 1)));
    dup.sensitivities
        .insert("weight".into(), DatumSensitivity::new(6, 2, 3, 1));
    dup.sensitivities
        .insert("age".into(), DatumSensitivity::new(5, 1, 1, 4));
    profiles.push(dup);
    for with_lattice in [false, true] {
        let mut eng = engine(&policy(6));
        if with_lattice {
            eng = eng.with_lattice(lattice());
        }
        assert_eq!(
            eng.run(&profiles),
            eng.run_reference(&profiles),
            "lattice={with_lattice}"
        );
    }
}

/// Deterministic skew-stress: one provider with ~100× tuples, and the
/// compiled report must be **byte-identical** (serialized JSON) to the
/// reference one.
#[test]
fn skewed_report_is_byte_identical() {
    let mut profiles = population(500, 1234);
    skew(&mut profiles, 250);
    for with_lattice in [false, true] {
        let mut eng = engine(&policy(6));
        if with_lattice {
            eng = eng.with_lattice(lattice());
        }
        let sequential = eng.run(&profiles);
        let reference = eng.run_reference(&profiles);
        assert_eq!(sequential, reference, "lattice={with_lattice}");
        assert_eq!(
            serde_json::to_string(&sequential).unwrap(),
            serde_json::to_string(&reference).unwrap(),
            "lattice={with_lattice}"
        );
    }
}
