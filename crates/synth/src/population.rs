//! Seeded population generation.
//!
//! A [`PopulationSpec`] describes the data table (attributes with social
//! weights and baseline policy exposure) and the segment mix; `generate`
//! produces a reproducible [`Population`]: provider profiles for the model,
//! matching data rows for the PPDB, and the segment assignment for
//! stratified analysis.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use qpv_core::sensitivity::AttributeSensitivities;
use qpv_core::{DatumSensitivity, ProviderProfile};
use qpv_policy::{HousePolicy, ProviderId};
use qpv_reldb::row::Row;
use qpv_reldb::value::Value;
use qpv_taxonomy::{Dim, PrivacyPoint, PrivacyTuple};

use crate::segments::{Segment, SegmentMix};

/// One attribute of the synthetic data table.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributeSpec {
    /// Column name.
    pub name: String,
    /// Social sensitivity weight `Σ^a`.
    pub weight: u32,
    /// The house's baseline exposure point for this attribute — providers'
    /// preferences are sampled as headroom offsets from here.
    pub baseline: PrivacyPoint,
    /// Range of the synthetic integer data values stored in the column.
    pub value_range: (i64, i64),
}

impl AttributeSpec {
    /// Convenience constructor.
    pub fn new(
        name: impl Into<String>,
        weight: u32,
        baseline: PrivacyPoint,
        value_range: (i64, i64),
    ) -> AttributeSpec {
        AttributeSpec {
            name: name.into(),
            weight,
            baseline,
            value_range,
        }
    }
}

/// Everything needed to generate a population.
#[derive(Debug, Clone)]
pub struct PopulationSpec {
    /// The data attributes.
    pub attributes: Vec<AttributeSpec>,
    /// The purposes the house collects data for.
    pub purposes: Vec<String>,
    /// The segment mix.
    pub mix: SegmentMix,
}

impl PopulationSpec {
    /// The baseline house policy implied by the spec: one tuple per
    /// `(attribute, purpose)` at the attribute's baseline point.
    pub fn baseline_policy(&self, name: impl Into<String>) -> HousePolicy {
        let mut hp = HousePolicy::new(name);
        for attr in &self.attributes {
            for purpose in &self.purposes {
                hp.add(
                    &attr.name,
                    PrivacyTuple::from_point(purpose.as_str(), attr.baseline),
                );
            }
        }
        hp
    }

    /// The attribute weights `Σ` implied by the spec.
    pub fn attribute_weights(&self) -> AttributeSensitivities {
        let mut w = AttributeSensitivities::new();
        for attr in &self.attributes {
            w.set(&attr.name, attr.weight);
        }
        w
    }

    /// Attribute names, in declaration order.
    pub fn attribute_names(&self) -> Vec<String> {
        self.attributes.iter().map(|a| a.name.clone()).collect()
    }
}

/// A generated population.
#[derive(Debug, Clone)]
pub struct Population {
    /// Model profiles, indexed by provider.
    pub profiles: Vec<ProviderProfile>,
    /// Matching data rows: `provider_id` first, then one INT per attribute
    /// in spec order.
    pub data_rows: Vec<Row>,
    /// Segment assignment per provider.
    pub segments: Vec<Segment>,
}

impl Population {
    /// Population size.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// Whether the population is empty.
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// Indexes of providers in a given segment.
    pub fn segment_members(&self, segment: Segment) -> Vec<usize> {
        self.segments
            .iter()
            .enumerate()
            .filter(|(_, s)| **s == segment)
            .map(|(i, _)| i)
            .collect()
    }
}

/// Generate provider `i` from the given RNG: profile, data row, segment.
/// All randomness for one provider comes from `rng`, in a fixed draw
/// order — the invariant both generation paths share (and that the churn
/// generator in [`crate::workload`] reuses to mint replacement profiles).
pub(crate) fn generate_provider(
    spec: &PopulationSpec,
    i: usize,
    rng: &mut SmallRng,
) -> (ProviderProfile, Row, Segment) {
    let segment = spec.mix.sample(rng);
    let params = segment.default_params();
    let id = ProviderId(i as u64);
    let mut profile = ProviderProfile::new(id, params.sample_threshold(rng));
    let mut row = vec![Value::Int(i as i64)];
    for attr in &spec.attributes {
        // Data value.
        row.push(Value::Int(
            rng.gen_range(attr.value_range.0..=attr.value_range.1),
        ));
        // Stated preferences: one tuple per purpose the provider chose
        // to state; unstated purposes fall to the implicit deny-all.
        for purpose in &spec.purposes {
            if !params.sample_states_purpose(rng) {
                continue;
            }
            let mut point = attr.baseline;
            for dim in Dim::ALL {
                let offset = params.sample_headroom(rng);
                let level = (attr.baseline.get(dim) as i64 + offset as i64).max(0) as u32;
                point = point.with(dim, level);
            }
            profile.preferences.add(
                &attr.name,
                PrivacyTuple::from_point(purpose.as_str(), point),
            );
        }
        // Sensitivities.
        profile.sensitivities.insert(
            attr.name.clone(),
            DatumSensitivity::new(
                params.sample_value_sensitivity(rng),
                params.sample_dim_sensitivity(rng),
                params.sample_dim_sensitivity(rng),
                params.sample_dim_sensitivity(rng),
            ),
        );
    }
    (profile, Row::new(row), segment)
}

/// Generate a population of `n` providers. Deterministic per `seed`.
///
/// One RNG stream feeds the whole population, so provider `i`'s draws
/// depend on providers `0..i`. Use [`generate_stable`] when provider `i`
/// must come out the same whatever else is generated around it.
pub fn generate(spec: &PopulationSpec, n: usize, seed: u64) -> Population {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut pop = Population {
        profiles: Vec::with_capacity(n),
        data_rows: Vec::with_capacity(n),
        segments: Vec::with_capacity(n),
    };
    for i in 0..n {
        let (profile, row, segment) = generate_provider(spec, i, &mut rng);
        pop.profiles.push(profile);
        pop.data_rows.push(row);
        pop.segments.push(segment);
    }
    pop
}

/// Derive provider `index`'s private RNG seed from the population seed
/// (SplitMix64 finalizer — decorrelates consecutive indexes).
pub(crate) fn provider_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Index-stable generation: provider `i` draws from an RNG keyed on
/// `(seed, i)` alone, so any index range of the population can be
/// generated on its own and comes out the same.
pub fn generate_stable(spec: &PopulationSpec, n: usize, seed: u64) -> Population {
    let mut pop = Population {
        profiles: Vec::with_capacity(n),
        data_rows: Vec::with_capacity(n),
        segments: Vec::with_capacity(n),
    };
    for i in 0..n {
        let mut rng = SmallRng::seed_from_u64(provider_seed(seed, i as u64));
        let (profile, row, segment) = generate_provider(spec, i, &mut rng);
        pop.profiles.push(profile);
        pop.data_rows.push(row);
        pop.segments.push(segment);
    }
    pop
}

/// [`generate_stable`]'s providers compiled straight into flat
/// structure-of-arrays form ([`qpv_core::CompiledPopulation`]), one
/// provider at a time — the full `Vec<ProviderProfile>` is never held.
/// Produces exactly `CompiledPopulation::from_profiles` over
/// [`generate_stable`]'s profiles (each provider is fed through the same
/// per-profile interning), so audits over either are identical.
pub fn generate_compiled(
    spec: &PopulationSpec,
    n: usize,
    seed: u64,
) -> qpv_core::CompiledPopulation {
    let mut builder = qpv_core::PopulationBuilder::new();
    for i in 0..n {
        let mut rng = SmallRng::seed_from_u64(provider_seed(seed, i as u64));
        let (profile, _, _) = generate_provider(spec, i, &mut rng);
        builder.push_profile(&profile);
    }
    builder.finish()
}

/// Stream [`generate_stable`]'s provider profiles one at a time, without
/// materializing the population `Vec` — the millions-scale feed for
/// `qpv_core::PopulationBuilder` (which retains three machine words per
/// provider, so `n` is bounded by the compiled layout, not by profile
/// structs). Yields exactly `generate_stable(spec, n, seed).profiles`,
/// in order.
pub fn stream_stable(
    spec: &PopulationSpec,
    n: usize,
    seed: u64,
) -> impl Iterator<Item = ProviderProfile> + '_ {
    (0..n).map(move |i| {
        let mut rng = SmallRng::seed_from_u64(provider_seed(seed, i as u64));
        generate_provider(spec, i, &mut rng).0
    })
}

/// Generate one quantized preference/sensitivity template for
/// `(segment, template index)` — the same draw shapes as
/// [`generate_provider`], but from a template-keyed RNG and with no id,
/// threshold, or data row. Template profiles carry `ProviderId(0)`;
/// [`stream_clustered`] stamps real ids and individual thresholds on.
fn segment_template(
    spec: &PopulationSpec,
    segment: Segment,
    rng: &mut SmallRng,
) -> ProviderProfile {
    let params = segment.default_params();
    let mut profile = ProviderProfile::new(ProviderId(0), 0);
    for attr in &spec.attributes {
        for purpose in &spec.purposes {
            if !params.sample_states_purpose(rng) {
                continue;
            }
            let mut point = attr.baseline;
            for dim in Dim::ALL {
                let offset = params.sample_headroom(rng);
                let level = (attr.baseline.get(dim) as i64 + offset as i64).max(0) as u32;
                point = point.with(dim, level);
            }
            profile.preferences.add(
                &attr.name,
                PrivacyTuple::from_point(purpose.as_str(), point),
            );
        }
        profile.sensitivities.insert(
            attr.name.clone(),
            DatumSensitivity::new(
                params.sample_value_sensitivity(rng),
                params.sample_dim_sensitivity(rng),
                params.sample_dim_sensitivity(rng),
                params.sample_dim_sensitivity(rng),
            ),
        );
    }
    profile
}

/// Stream a segment-*clustered* population: preference/sensitivity
/// content is drawn from a fixed pool of `templates_per_segment`
/// quantized templates per Westin segment (thresholds stay individual),
/// modeling real populations where stated postures cluster into a
/// handful of shapes. The unique-row dedup in
/// `qpv_core::CompiledPopulation` collapses such a population to at most
/// `3 × templates_per_segment` rows regardless of `n` — the layout the
/// packed 10M bench exercises.
///
/// Deterministic per `(spec, seed, templates_per_segment)`; provider `i`
/// depends only on its own index (index-stable). No full `Vec` is ever
/// held.
pub fn stream_clustered(
    spec: &PopulationSpec,
    n: usize,
    seed: u64,
    templates_per_segment: usize,
) -> impl Iterator<Item = ProviderProfile> + '_ {
    let k = templates_per_segment.max(1);
    // Template pool: small (3·k profiles), built eagerly up front.
    let pool: Vec<Vec<ProviderProfile>> = Segment::ALL
        .iter()
        .enumerate()
        .map(|(s, &segment)| {
            (0..k)
                .map(|t| {
                    let mut rng = SmallRng::seed_from_u64(provider_seed(
                        seed ^ 0xC1A5_7E2D_0000_0000,
                        (s * k + t) as u64,
                    ));
                    segment_template(spec, segment, &mut rng)
                })
                .collect()
        })
        .collect();
    (0..n).map(move |i| {
        let mut rng = SmallRng::seed_from_u64(provider_seed(seed, i as u64));
        let segment = spec.mix.sample(&mut rng);
        let params = segment.default_params();
        let s = Segment::ALL
            .iter()
            .position(|&x| x == segment)
            .expect("segment in ALL");
        let t = rng.gen_range(0..k);
        let mut profile = pool[s][t].clone();
        profile.preferences.provider = ProviderId(i as u64);
        profile.threshold = params.sample_threshold(&mut rng);
        profile
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> PopulationSpec {
        PopulationSpec {
            attributes: vec![
                AttributeSpec::new("weight", 4, PrivacyPoint::from_raw(2, 2, 90), (40, 180)),
                AttributeSpec::new("age", 2, PrivacyPoint::from_raw(2, 3, 365), (18, 95)),
            ],
            purposes: vec!["service".into(), "research".into()],
            mix: SegmentMix::WESTIN_2001,
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = generate(&spec(), 100, 7);
        let b = generate(&spec(), 100, 7);
        assert_eq!(a.profiles, b.profiles);
        assert_eq!(a.data_rows, b.data_rows);
        assert_eq!(a.segments, b.segments);
        let c = generate(&spec(), 100, 8);
        assert_ne!(a.profiles, c.profiles);
    }

    #[test]
    fn stable_generation_is_deterministic_per_seed() {
        let n = 600;
        let a = generate_stable(&spec(), n, 7);
        let b = generate_stable(&spec(), n, 7);
        assert_eq!(a.profiles, b.profiles);
        assert_eq!(a.data_rows, b.data_rows);
        assert_eq!(a.segments, b.segments);
        let c = generate_stable(&spec(), n, 8);
        assert_ne!(a.profiles, c.profiles);
    }

    #[test]
    fn stable_generation_is_prefix_stable() {
        // Growing the population never rewrites existing providers — a
        // consequence of per-index seeding that plain `generate` lacks.
        let small = generate_stable(&spec(), 50, 7);
        let large = generate_stable(&spec(), 80, 7);
        assert_eq!(small.profiles[..], large.profiles[..50]);
        assert_eq!(small.data_rows[..], large.data_rows[..50]);
    }

    /// SoA-direct generation must be indistinguishable from generating
    /// profiles and compiling them afterwards.
    #[test]
    fn compiled_generation_matches_the_profile_path() {
        use qpv_core::{AuditEngine, CompiledPopulation};
        let s = spec();
        let engine = AuditEngine::new(
            s.baseline_policy("base"),
            s.attribute_names(),
            s.attribute_weights(),
        );
        let stable = generate_stable(&s, 120, 7);
        let direct = generate_compiled(&s, 120, 7);
        let via_profiles = CompiledPopulation::from_profiles(&stable.profiles);
        assert_eq!(direct.len(), via_profiles.len());
        assert_eq!(direct.pref_row_count(), via_profiles.pref_row_count());
        assert_eq!(direct.symbol_counts(), via_profiles.symbol_counts());
        assert_eq!(
            engine.audit_compiled(&direct),
            engine.audit_compiled(&via_profiles)
        );
        assert_eq!(engine.audit_compiled(&direct), engine.run(&stable.profiles));
    }

    #[test]
    fn rows_match_schema_shape() {
        let pop = generate(&spec(), 50, 1);
        assert_eq!(pop.len(), 50);
        for (i, row) in pop.data_rows.iter().enumerate() {
            assert_eq!(row.arity(), 3); // provider_id + 2 attributes
            assert_eq!(row.values[0], Value::Int(i as i64));
            let w = row.values[1].as_int().unwrap();
            assert!((40..=180).contains(&w));
        }
    }

    #[test]
    fn profiles_have_sensitivities_for_every_attribute() {
        let pop = generate(&spec(), 30, 2);
        for p in &pop.profiles {
            assert!(p.sensitivities.contains_key("weight"));
            assert!(p.sensitivities.contains_key("age"));
        }
    }

    #[test]
    fn preference_points_never_underflow() {
        // Fundamentalists can sample negative headroom below zero levels.
        let mut tight = spec();
        tight.mix = SegmentMix::pure(Segment::Fundamentalist);
        tight.attributes[0].baseline = PrivacyPoint::from_raw(0, 0, 1);
        let pop = generate(&tight, 200, 3);
        for p in &pop.profiles {
            for t in p.preferences.tuples() {
                // Levels are u32 by construction; this asserts the clamp
                // logic kept offsets sane (no wrap to huge values).
                assert!(t.tuple.point.get(Dim::Visibility) < 1000);
            }
        }
    }

    #[test]
    fn baseline_policy_covers_every_attribute_purpose_pair() {
        let s = spec();
        let hp = s.baseline_policy("base");
        assert_eq!(hp.len(), 4);
        assert_eq!(s.attribute_weights().get("weight"), 4);
        assert_eq!(s.attribute_names(), vec!["weight", "age"]);
    }

    #[test]
    fn segment_members_partition_the_population() {
        let pop = generate(&spec(), 300, 11);
        let total: usize = Segment::ALL
            .iter()
            .map(|s| pop.segment_members(*s).len())
            .sum();
        assert_eq!(total, 300);
        // With the Westin mix all three segments appear at n=300.
        for s in Segment::ALL {
            assert!(!pop.segment_members(s).is_empty(), "{s:?} empty");
        }
    }

    #[test]
    fn fundamentalists_are_violated_more_often_than_unconcerned() {
        use qpv_core::AuditEngine;
        let s = spec();
        let hp = s.baseline_policy("base");
        let engine = AuditEngine::new(hp, s.attribute_names(), s.attribute_weights());

        let mut fundamentalist = s.clone();
        fundamentalist.mix = SegmentMix::pure(Segment::Fundamentalist);
        let mut unconcerned = s.clone();
        unconcerned.mix = SegmentMix::pure(Segment::Unconcerned);

        let pf = generate(&fundamentalist, 300, 5);
        let pu = generate(&unconcerned, 300, 5);
        let rf = engine.run(&pf.profiles);
        let ru = engine.run(&pu.profiles);
        assert!(
            rf.p_violation() > ru.p_violation(),
            "fundamentalists {} vs unconcerned {}",
            rf.p_violation(),
            ru.p_violation()
        );
    }

    #[test]
    fn stream_stable_yields_generate_stable_profiles() {
        let s = spec();
        let eager = generate_stable(&s, 150, 9);
        let streamed: Vec<ProviderProfile> = stream_stable(&s, 150, 9).collect();
        assert_eq!(streamed, eager.profiles);
    }

    #[test]
    fn stream_clustered_is_deterministic_and_actually_clusters() {
        let s = spec();
        let a: Vec<ProviderProfile> = stream_clustered(&s, 400, 13, 4).collect();
        let b: Vec<ProviderProfile> = stream_clustered(&s, 400, 13, 4).collect();
        assert_eq!(a, b, "deterministic per (spec, seed, k)");
        for (i, p) in a.iter().enumerate() {
            assert_eq!(p.id(), ProviderId(i as u64), "ids are the stream index");
        }
        // Content clusters into ≤ 3 segments × 4 templates unique rows,
        // while thresholds stay individual.
        let pop = qpv_core::CompiledPopulation::from_profiles(&a);
        assert!(
            pop.unique_row_count() <= 12,
            "{} unique rows from 12 templates",
            pop.unique_row_count()
        );
        assert!(pop.dedup_ratio() > 10.0, "dedup {}", pop.dedup_ratio());
        let distinct_thresholds: std::collections::HashSet<u64> =
            a.iter().map(|p| p.threshold).collect();
        assert!(distinct_thresholds.len() > 12, "thresholds are individual");
    }
}
