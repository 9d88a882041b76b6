//! The sensitivity model `⟨σ, Σ⟩` (paper §6.1, Equations 10–11).
//!
//! Severity weights come in three layers, all positive integers:
//!
//! * `Σ^a` — how sensitive attribute `a` is socially (health and financial
//!   data rank highest per the Westin/Kobsa findings the paper cites);
//! * `s^a_i` — how sensitive provider `i` considers *their own* value of
//!   `a` (a weight of 310 kg is more sensitive than one of 70 kg);
//! * `s^a_i[dim]` — how much provider `i` cares about violations along each
//!   ordered dimension of `a` (Ted's granularity sensitivity of 5 is what
//!   pushes him over his default threshold in the worked example).
//!
//! Every lookup defaults to `1` (neutral weight), so a sparse model is
//! usable immediately and Equation 14 degrades to raw order-distance.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use qpv_policy::ProviderId;
use qpv_taxonomy::Dim;

/// Per-attribute social sensitivity `Σ` (Equation 10's second component).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AttributeSensitivities {
    weights: HashMap<String, u32>,
}

impl AttributeSensitivities {
    /// All attributes at the neutral weight 1.
    pub fn new() -> AttributeSensitivities {
        AttributeSensitivities::default()
    }

    /// Set `Σ^a` for an attribute.
    pub fn set(&mut self, attribute: impl Into<String>, weight: u32) -> &mut Self {
        self.weights.insert(attribute.into(), weight);
        self
    }

    /// `Σ^a`, defaulting to 1.
    pub fn get(&self, attribute: &str) -> u32 {
        self.weights.get(attribute).copied().unwrap_or(1)
    }

    /// Attributes with explicit weights.
    pub fn attributes(&self) -> impl Iterator<Item = (&str, u32)> {
        self.weights.iter().map(|(a, w)| (a.as_str(), *w))
    }
}

/// One provider's sensitivity for one attribute:
/// `σ^j_i = ⟨s^j_i, s^j_i[V], s^j_i[G], s^j_i[R]⟩` (Equation 11).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DatumSensitivity {
    /// Sensitivity of the data value itself (`s^j_i`).
    pub value: u32,
    /// Sensitivity to visibility violations (`s^j_i[V]`).
    pub visibility: u32,
    /// Sensitivity to granularity violations (`s^j_i[G]`).
    pub granularity: u32,
    /// Sensitivity to retention violations (`s^j_i[R]`).
    pub retention: u32,
}

impl Default for DatumSensitivity {
    fn default() -> DatumSensitivity {
        DatumSensitivity::neutral()
    }
}

impl DatumSensitivity {
    /// All weights 1.
    pub const fn neutral() -> DatumSensitivity {
        DatumSensitivity {
            value: 1,
            visibility: 1,
            granularity: 1,
            retention: 1,
        }
    }

    /// Construct from `⟨value, vis, gran, ret⟩` — the paper's tuple order
    /// (Table 1 writes e.g. Ted's σ as `⟨3, 1, 5, 2⟩`).
    pub const fn new(value: u32, visibility: u32, granularity: u32, retention: u32) -> Self {
        DatumSensitivity {
            value,
            visibility,
            granularity,
            retention,
        }
    }

    /// The per-dimension weight `s[dim]`.
    pub fn along(&self, dim: Dim) -> u32 {
        match dim {
            Dim::Visibility => self.visibility,
            Dim::Granularity => self.granularity,
            Dim::Retention => self.retention,
        }
    }
}

/// The full sensitivity model `Sensitivity = ⟨σ, Σ⟩` (Equation 10).
///
/// The paper notes sensitivities are "tied to a specific purpose"; this
/// model supports that with optional per-purpose overrides of the attribute
/// weights, while the common case (the worked example included) uses one
/// global set.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SensitivityModel {
    /// `Σ`: attribute weights.
    pub attributes: AttributeSensitivities,
    /// `σ`: per-provider, per-attribute datum sensitivities.
    providers: HashMap<ProviderId, HashMap<String, DatumSensitivity>>,
    /// Per-purpose overrides of `Σ` (purpose name → weights).
    purpose_overrides: HashMap<String, AttributeSensitivities>,
}

impl SensitivityModel {
    /// A neutral model (all weights 1).
    pub fn new() -> SensitivityModel {
        SensitivityModel::default()
    }

    /// A model carrying only the house-side attribute weights `Σ` — no
    /// per-provider datums, no purpose overrides. `attribute_weight` on
    /// this model answers exactly what [`crate::profile::assemble`]'s
    /// output would (assembly never sets overrides), which is all plan
    /// compilation reads; per-provider datums resolve separately.
    pub fn from_attribute_weights(weights: &AttributeSensitivities) -> SensitivityModel {
        SensitivityModel {
            attributes: weights.clone(),
            ..SensitivityModel::default()
        }
    }

    /// Set the social weight `Σ^a`.
    pub fn set_attribute(&mut self, attribute: impl Into<String>, weight: u32) -> &mut Self {
        self.attributes.set(attribute, weight);
        self
    }

    /// Set provider `i`'s sensitivity tuple for an attribute.
    pub fn set_datum(
        &mut self,
        provider: ProviderId,
        attribute: impl Into<String>,
        sens: DatumSensitivity,
    ) -> &mut Self {
        self.providers
            .entry(provider)
            .or_default()
            .insert(attribute.into(), sens);
        self
    }

    /// Override `Σ` for a specific purpose.
    pub fn set_purpose_override(
        &mut self,
        purpose: impl Into<String>,
        attribute: impl Into<String>,
        weight: u32,
    ) -> &mut Self {
        self.purpose_overrides
            .entry(purpose.into())
            .or_default()
            .set(attribute, weight);
        self
    }

    /// `Σ^a`, honouring a per-purpose override when present.
    pub fn attribute_weight(&self, attribute: &str, purpose: &str) -> u32 {
        if let Some(over) = self.purpose_overrides.get(purpose) {
            if over.weights_contains(attribute) {
                return over.get(attribute);
            }
        }
        self.attributes.get(attribute)
    }

    /// `σ^a_i`, defaulting to the neutral tuple.
    pub fn datum(&self, provider: ProviderId, attribute: &str) -> DatumSensitivity {
        self.providers
            .get(&provider)
            .and_then(|m| m.get(attribute))
            .copied()
            .unwrap_or_default()
    }

    /// All explicitly-set datum sensitivities for a provider.
    pub fn datum_entries(
        &self,
        provider: ProviderId,
    ) -> impl Iterator<Item = (&str, DatumSensitivity)> {
        self.providers
            .get(&provider)
            .into_iter()
            .flat_map(|m| m.iter().map(|(a, s)| (a.as_str(), *s)))
    }
}

impl AttributeSensitivities {
    fn weights_contains(&self, attribute: &str) -> bool {
        self.weights.contains_key(attribute)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_neutral() {
        let m = SensitivityModel::new();
        assert_eq!(m.attribute_weight("weight", "billing"), 1);
        assert_eq!(
            m.datum(ProviderId(1), "weight"),
            DatumSensitivity::neutral()
        );
    }

    #[test]
    fn attribute_weights_apply() {
        let mut m = SensitivityModel::new();
        m.set_attribute("weight", 4);
        assert_eq!(m.attribute_weight("weight", "any"), 4);
        assert_eq!(m.attribute_weight("age", "any"), 1);
    }

    #[test]
    fn datum_sensitivities_are_per_provider() {
        let mut m = SensitivityModel::new();
        m.set_datum(ProviderId(1), "weight", DatumSensitivity::new(3, 1, 5, 2));
        let ted = m.datum(ProviderId(1), "weight");
        assert_eq!(ted.value, 3);
        assert_eq!(ted.along(Dim::Granularity), 5);
        assert_eq!(ted.along(Dim::Visibility), 1);
        assert_eq!(ted.along(Dim::Retention), 2);
        // Another provider stays neutral.
        assert_eq!(
            m.datum(ProviderId(2), "weight"),
            DatumSensitivity::neutral()
        );
    }

    #[test]
    fn purpose_overrides_take_precedence() {
        let mut m = SensitivityModel::new();
        m.set_attribute("weight", 4);
        m.set_purpose_override("research", "weight", 2);
        assert_eq!(m.attribute_weight("weight", "billing"), 4);
        assert_eq!(m.attribute_weight("weight", "research"), 2);
        // Override table present but attribute missing → fall through.
        assert_eq!(m.attribute_weight("age", "research"), 1);
    }

    #[test]
    fn datum_entries_lists_explicit_settings() {
        let mut m = SensitivityModel::new();
        m.set_datum(ProviderId(9), "a", DatumSensitivity::new(2, 1, 1, 1));
        m.set_datum(ProviderId(9), "b", DatumSensitivity::new(3, 1, 1, 1));
        let mut entries: Vec<_> = m.datum_entries(ProviderId(9)).collect();
        entries.sort_by_key(|(a, _)| a.to_string());
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].1.value, 2);
        assert_eq!(m.datum_entries(ProviderId(10)).count(), 0);
    }

    #[test]
    fn serde_round_trip() {
        let mut m = SensitivityModel::new();
        m.set_attribute("weight", 4)
            .set_datum(ProviderId(1), "weight", DatumSensitivity::new(3, 1, 5, 2))
            .set_purpose_override("ads", "weight", 9);
        let json = serde_json::to_string(&m).unwrap();
        let back: SensitivityModel = serde_json::from_str(&json).unwrap();
        assert_eq!(back, m);
    }
}
