//! Experiment workloads: policy sweeps and churn streams.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use qpv_core::{DatumSensitivity, DeltaOp, PopulationDelta};
use qpv_policy::{HousePolicy, ProviderId};
use qpv_taxonomy::{Dim, PrivacyPoint};

use crate::population::{generate_provider, provider_seed, PopulationSpec};

/// A labelled sequence of increasingly wide policies derived from a base —
/// the driver for the §9 expansion experiment and the α-PPDB frontier.
#[derive(Debug, Clone)]
pub struct PolicySweep {
    /// `(label, policy)` pairs in sweep order.
    pub steps: Vec<(String, HousePolicy)>,
}

impl PolicySweep {
    /// Uniform widening of every tuple along every ordered dimension:
    /// step `s` is `base.widened_uniform(s)` for `s ∈ 0..=max_steps`.
    pub fn uniform(base: &HousePolicy, max_steps: u32) -> PolicySweep {
        PolicySweep {
            steps: (0..=max_steps)
                .map(|s| (format!("widen+{s}"), base.widened_uniform(s)))
                .collect(),
        }
    }

    /// Widening along a single dimension only (for per-dimension ablations).
    pub fn along(base: &HousePolicy, dim: Dim, max_steps: u32) -> PolicySweep {
        PolicySweep {
            steps: (0..=max_steps)
                .map(|s| (format!("{}+{s}", dim.short_name()), base.widened(dim, s)))
                .collect(),
        }
    }

    /// Progressive purpose creep: step `s` adds `s` new unconsented
    /// purposes (named `extra0`, `extra1`, …) at the given exposure point.
    pub fn purpose_creep(base: &HousePolicy, point: PrivacyPoint, max_new: u32) -> PolicySweep {
        let mut steps = Vec::with_capacity(max_new as usize + 1);
        let mut current = base.clone();
        steps.push(("purposes+0".to_string(), current.clone()));
        for s in 0..max_new {
            current = current.with_new_purpose(format!("extra{s}").as_str(), point);
            steps.push((format!("purposes+{}", s + 1), current.clone()));
        }
        PolicySweep { steps }
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the sweep is empty.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }
}

/// Generate a churn workload: `k` mutations against a population of `n`
/// providers produced by [`crate::population::generate_stable`]`(spec, n,
/// seed)`-compatible ids (`0..n`). Deterministic per `(spec, n, k, seed)`.
///
/// Each op draws from its own `(seed, op-index)`-keyed RNG, so the stream
/// is reproducible and prefix-stable: `churn(spec, n, k, seed)` is a prefix
/// of `churn(spec, n, k + m, seed)`. The op mix exercises every
/// [`DeltaOp`] variant — provider upsert (rewrite an existing provider) and
/// insert (fresh ids from `n` upward), removal, and per-attribute
/// preference, sensitivity, and threshold edits. Ops target only ids alive
/// at that point in the stream, so nothing degenerates to a no-op.
pub fn churn(spec: &PopulationSpec, n: usize, k: usize, seed: u64) -> PopulationDelta {
    // Decorrelate from the population stream: the same `seed` drives
    // generation and churn without reusing any provider's draws.
    const CHURN_SALT: u64 = 0xC0DE_C0DE_C0DE_C0DE;
    let mut alive: Vec<u64> = (0..n as u64).collect();
    let mut next_id = n as u64;
    let mut delta = PopulationDelta::new();
    for op in 0..k {
        let mut rng = SmallRng::seed_from_u64(provider_seed(seed ^ CHURN_SALT, op as u64));
        let kind = if alive.is_empty() {
            1 // only inserting makes sense on an empty population
        } else {
            rng.gen_range(0..6)
        };
        match kind {
            // Upsert an existing provider: a fresh profile under the same
            // id, as if they re-stated their whole privacy posture.
            0 => {
                let id = alive[rng.gen_range(0..alive.len())];
                let (profile, _, _) = generate_provider(spec, id as usize, &mut rng);
                delta.push(DeltaOp::Upsert(profile));
            }
            // A new provider joins under a never-used id.
            1 => {
                let (profile, _, _) = generate_provider(spec, next_id as usize, &mut rng);
                delta.push(DeltaOp::Upsert(profile));
                alive.push(next_id);
                next_id += 1;
            }
            // A provider leaves.
            2 => {
                let id = alive.swap_remove(rng.gen_range(0..alive.len()));
                delta.push(DeltaOp::Remove(ProviderId(id)));
            }
            // Re-state one attribute's preferences (possibly retracting
            // them: the regenerated profile may state no tuple for it).
            3 => {
                let id = alive[rng.gen_range(0..alive.len())];
                let attr = &spec.attributes[rng.gen_range(0..spec.attributes.len())].name;
                let (profile, _, _) = generate_provider(spec, id as usize, &mut rng);
                let tuples = profile
                    .preferences
                    .tuples()
                    .iter()
                    .filter(|t| &t.attribute == attr)
                    .map(|t| t.tuple.clone())
                    .collect();
                delta.push(DeltaOp::SetAttributePrefs {
                    id: ProviderId(id),
                    attribute: attr.clone(),
                    tuples,
                });
            }
            // Tweak one datum sensitivity.
            4 => {
                let id = alive[rng.gen_range(0..alive.len())];
                let attr = &spec.attributes[rng.gen_range(0..spec.attributes.len())].name;
                delta.push(DeltaOp::SetSensitivity {
                    id: ProviderId(id),
                    attribute: attr.clone(),
                    sensitivity: DatumSensitivity::new(
                        rng.gen_range(0..=5),
                        rng.gen_range(0..=5),
                        rng.gen_range(0..=5),
                        rng.gen_range(0..=5),
                    ),
                });
            }
            // Adjust a default threshold.
            _ => {
                let id = alive[rng.gen_range(0..alive.len())];
                delta.push(DeltaOp::SetThreshold {
                    id: ProviderId(id),
                    threshold: rng.gen_range(0..=200),
                });
            }
        }
    }
    delta
}

/// [`churn`] chopped into ingestion-sized batches: the same prefix-stable
/// op stream as `churn(spec, n, k, seed)`, split into deltas of at most
/// `batch` ops each — the natural feed for a continuous monitor
/// (`qpv_core::deltalog::Monitor::ingest`), where each batch is one
/// logged, group-committed unit. Concatenating the batches in order
/// yields exactly the single-delta stream.
pub fn churn_batches(
    spec: &PopulationSpec,
    n: usize,
    k: usize,
    batch: usize,
    seed: u64,
) -> Vec<PopulationDelta> {
    let batch = batch.max(1);
    let whole = churn(spec, n, k, seed);
    let mut batches = Vec::with_capacity(k.div_ceil(batch));
    let mut current = PopulationDelta::new();
    for op in whole.ops() {
        current.push(op.clone());
        if current.len() == batch {
            batches.push(std::mem::take(&mut current));
        }
    }
    if !current.is_empty() {
        batches.push(current);
    }
    batches
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpv_taxonomy::PrivacyTuple;

    fn base() -> HousePolicy {
        HousePolicy::builder("h")
            .tuple(
                "a",
                PrivacyTuple::from_point("pr", PrivacyPoint::from_raw(1, 1, 1)),
            )
            .build()
    }

    #[test]
    fn uniform_sweep_widens_monotonically() {
        let sweep = PolicySweep::uniform(&base(), 5);
        assert_eq!(sweep.len(), 6);
        for (i, (label, hp)) in sweep.steps.iter().enumerate() {
            assert_eq!(label, &format!("widen+{i}"));
            assert_eq!(hp.max_level(Dim::Visibility), 1 + i as u32);
        }
    }

    #[test]
    fn single_dimension_sweep_leaves_others_fixed() {
        let sweep = PolicySweep::along(&base(), Dim::Retention, 3);
        let last = &sweep.steps[3].1;
        assert_eq!(last.max_level(Dim::Retention), 4);
        assert_eq!(last.max_level(Dim::Visibility), 1);
    }

    fn churn_spec() -> PopulationSpec {
        use crate::population::AttributeSpec;
        use crate::segments::SegmentMix;
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
    fn churn_is_deterministic_and_prefix_stable() {
        let s = churn_spec();
        let a = churn(&s, 50, 40, 9);
        let b = churn(&s, 50, 40, 9);
        assert_eq!(a, b);
        let longer = churn(&s, 50, 60, 9);
        assert_eq!(a.ops(), &longer.ops()[..40]);
        let other = churn(&s, 50, 40, 10);
        assert_ne!(a, other);
    }

    #[test]
    fn churn_exercises_every_op_kind() {
        let s = churn_spec();
        let delta = churn(&s, 50, 120, 3);
        assert_eq!(delta.len(), 120);
        let mut seen = [false; 5];
        for op in delta.ops() {
            let i = match op {
                DeltaOp::Upsert(_) => 0,
                DeltaOp::Remove(_) => 1,
                DeltaOp::SetAttributePrefs { .. } => 2,
                DeltaOp::SetSensitivity { .. } => 3,
                DeltaOp::SetThreshold { .. } => 4,
            };
            seen[i] = true;
        }
        assert_eq!(seen, [true; 5], "op mix incomplete: {seen:?}");
    }

    /// Applying the churn delta to the compiled population audits
    /// identically to recompiling the mutated profiles from scratch.
    #[test]
    fn churn_delta_matches_profile_replay() {
        use crate::population::generate_stable;
        use qpv_core::{AuditEngine, CompiledPopulation};
        let s = churn_spec();
        let engine = AuditEngine::new(
            s.baseline_policy("base"),
            s.attribute_names(),
            s.attribute_weights(),
        );
        let pop = generate_stable(&s, 80, 7);
        let mut compiled = CompiledPopulation::from_profiles(&pop.profiles);
        let delta = churn(&s, 80, 100, 11);
        compiled.apply_delta(&delta).unwrap();

        let mut profiles = pop.profiles.clone();
        delta.apply_to_profiles(&mut profiles);
        let fresh = CompiledPopulation::from_profiles(&profiles);
        assert_eq!(
            engine.audit_compiled(&compiled),
            engine.audit_compiled(&fresh)
        );
    }

    /// `churn_batches` is a pure re-chunking of `churn`: concatenating
    /// the batches reproduces the whole stream op-for-op, every batch
    /// respects the size bound, and only the last may run short.
    #[test]
    fn churn_batches_rechunk_the_stream() {
        let s = churn_spec();
        let whole = churn(&s, 40, 50, 13);
        for batch in [1usize, 7, 50, 64] {
            let batches = churn_batches(&s, 40, 50, batch, 13);
            assert!(batches.iter().all(|b| b.len() <= batch && !b.is_empty()));
            assert!(batches[..batches.len() - 1]
                .iter()
                .all(|b| b.len() == batch));
            let mut concat = PopulationDelta::new();
            for b in &batches {
                concat.merge(b.clone());
            }
            assert_eq!(concat, whole, "batch={batch}");
        }
        // batch = 0 is clamped, not a panic or an infinite loop.
        assert_eq!(churn_batches(&s, 40, 5, 0, 13).len(), 5);
    }

    #[test]
    fn purpose_creep_accumulates_purposes() {
        let sweep = PolicySweep::purpose_creep(&base(), PrivacyPoint::from_raw(2, 2, 2), 3);
        assert_eq!(sweep.len(), 4);
        assert_eq!(sweep.steps[0].1.purposes().len(), 1);
        assert_eq!(sweep.steps[3].1.purposes().len(), 4);
        // Earlier steps are unchanged by later ones.
        assert_eq!(sweep.steps[1].1.purposes().len(), 2);
        assert!(!sweep.is_empty());
    }
}
