//! Dynamically-typed cell values.
//!
//! A [`Value`] is what a table cell holds at runtime; the schema layer checks
//! values against declared [`crate::types::DataType`]s on the way in. Values
//! carry a total order (needed by B+tree keys and `ORDER BY`) that orders
//! first by type class and then within the class, with `Null` smallest —
//! matching the common SQL-engine convention for index keys.

use std::cmp::Ordering;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::types::DataType;

/// A single cell value.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 text.
    Text(String),
    /// Raw bytes.
    Bytes(Vec<u8>),
}

impl Value {
    /// The runtime type of this value, or `None` for `Null` (NULL inhabits
    /// every type).
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Text(_) => Some(DataType::Text),
            Value::Bytes(_) => Some(DataType::Bytes),
        }
    }

    /// Whether this is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// View as integer if the value is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// View as float, widening integers (the engine's only implicit numeric
    /// coercion, applied in comparisons and arithmetic).
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// View as text if the value is `Text`.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// View as bool if the value is `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Rank of the type class in the cross-type total order.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) => 2, // numerics compare together
            Value::Text(_) => 3,
            Value::Bytes(_) => 4,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Value) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Value) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// Total order: by type class, then within class. `Int` and `Float`
    /// share a class and compare by exact numeric value — an `i64` is
    /// never rounded to `f64` first, so `Int(2^53 + 1) > Float(2^53)`.
    /// NaN sorts greatest within the class (all NaNs equal), `±0.0` are
    /// equal, and `±inf` sit at the ends.
    fn cmp(&self, other: &Value) -> Ordering {
        let rank = self.type_rank().cmp(&other.type_rank());
        if rank != Ordering::Equal {
            return rank;
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Int(a), Value::Float(b)) => cmp_int_float(*a, *b),
            (Value::Float(a), Value::Int(b)) => cmp_int_float(*b, *a).reverse(),
            (Value::Float(a), Value::Float(b)) => a.partial_cmp(b).unwrap_or_else(|| {
                // NaN handling: NaN > everything, NaN == NaN.
                match (a.is_nan(), b.is_nan()) {
                    (true, true) => Ordering::Equal,
                    (true, false) => Ordering::Greater,
                    (false, true) => Ordering::Less,
                    (false, false) => unreachable!("partial_cmp only fails on NaN"),
                }
            }),
            (Value::Text(a), Value::Text(b)) => a.cmp(b),
            (Value::Bytes(a), Value::Bytes(b)) => a.cmp(b),
            _ => unreachable!("equal type ranks but unhandled pair"),
        }
    }
}

/// `2^63`, the first float above `i64::MAX` (exactly representable).
const TWO_POW_63: f64 = 9_223_372_036_854_775_808.0;

/// Exact order of an integer against a float. NaN is greater than every
/// integer; a float outside `[-2^63, 2^63)` (infinities included) lies
/// beyond every `i64`; inside it, the float's integer part is exact in
/// `i64` and its fractional part breaks ties.
fn cmp_int_float(i: i64, f: f64) -> Ordering {
    if f.is_nan() || f >= TWO_POW_63 {
        return Ordering::Less;
    }
    if f < -TWO_POW_63 {
        return Ordering::Greater;
    }
    let whole = f.trunc();
    i.cmp(&(whole as i64)).then_with(|| {
        // `f - whole` is exact; `±0.0` both read as no fraction.
        0.0f64.partial_cmp(&(f - whole)).expect("finite fraction")
    })
}

/// The `i64` a float equals exactly, if any (`-0.0` equals `0`).
fn float_as_exact_int(f: f64) -> Option<i64> {
    (f.trunc() == f && (-TWO_POW_63..TWO_POW_63).contains(&f)).then_some(f as i64)
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.type_rank().hash(state);
        match self {
            Value::Null => {}
            Value::Bool(b) => b.hash(state),
            // A float equal to an integer hashes as that integer, so
            // `Int(2)` and `Float(2.0)` (which compare equal) hash alike,
            // as do `±0.0`. Every NaN compares equal, so all hash alike.
            Value::Int(i) => i.hash(state),
            Value::Float(f) => match float_as_exact_int(*f) {
                Some(i) => i.hash(state),
                None if f.is_nan() => f64::NAN.to_bits().hash(state),
                None => f.to_bits().hash(state),
            },
            Value::Text(s) => s.hash(state),
            Value::Bytes(b) => b.hash(state),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Text(s) => write!(f, "'{s}'"),
            Value::Bytes(b) => {
                f.write_str("x'")?;
                for byte in b {
                    write!(f, "{byte:02x}")?;
                }
                f.write_str("'")
            }
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Value {
        Value::Int(v as i64)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Value {
        Value::Int(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Float(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Text(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Text(v)
    }
}

impl From<Vec<u8>> for Value {
    fn from(v: Vec<u8>) -> Value {
        Value::Bytes(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn null_sorts_first() {
        assert!(Value::Null < Value::Bool(false));
        assert!(Value::Null < Value::Int(i64::MIN));
        assert!(Value::Null < Value::Text(String::new()));
    }

    #[test]
    fn numerics_compare_across_int_and_float() {
        assert_eq!(Value::Int(2), Value::Float(2.0));
        assert!(Value::Int(2) < Value::Float(2.5));
        assert!(Value::Float(1.5) < Value::Int(2));
    }

    #[test]
    fn nan_keeps_the_order_total() {
        let nan = Value::Float(f64::NAN);
        assert_eq!(nan.cmp(&nan), Ordering::Equal);
        assert!(nan > Value::Float(f64::INFINITY));
        assert!(Value::Int(0) < nan);
        // But still below the next type class.
        assert!(nan < Value::Text(String::new()));
    }

    #[test]
    fn equal_values_hash_equal_across_numeric_types() {
        assert_eq!(hash_of(&Value::Int(7)), hash_of(&Value::Float(7.0)));
        assert_eq!(hash_of(&Value::Float(0.0)), hash_of(&Value::Float(-0.0)));
    }

    #[test]
    fn int_float_comparison_is_exact() {
        let p = 1i64 << 53;
        // `p + 1` rounds to `p` as an f64; the order must not.
        assert_eq!(Value::Int(p), Value::Float(p as f64));
        assert!(Value::Int(p + 1) > Value::Float(p as f64));
        assert!(Value::Float(p as f64) < Value::Int(p + 1));
        assert!(Value::Int(p - 1) < Value::Float(p as f64));
        assert_eq!(Value::Int(i64::MIN), Value::Float(-TWO_POW_63));
        assert!(Value::Int(i64::MAX) < Value::Float(TWO_POW_63));
        assert!(Value::Int(i64::MAX) < Value::Float(f64::INFINITY));
        assert!(Value::Int(i64::MIN) > Value::Float(f64::NEG_INFINITY));
        assert!(Value::Int(i64::MAX) < Value::Float(f64::NAN));
        assert!(Value::Float(-f64::NAN) > Value::Int(i64::MAX));
        assert_eq!(Value::Int(0), Value::Float(-0.0));
        assert!(Value::Int(-1) < Value::Float(-0.5));
        assert!(Value::Int(-1) > Value::Float(-1.5));
        assert_eq!(hash_of(&Value::Int(p)), hash_of(&Value::Float(p as f64)));
        assert_eq!(hash_of(&Value::Int(0)), hash_of(&Value::Float(-0.0)));
        assert_eq!(
            hash_of(&Value::Float(f64::NAN)),
            hash_of(&Value::Float(-f64::NAN))
        );
    }

    const INT_EDGES: [i64; 9] = [
        (1 << 53) - 1,
        1 << 53,
        (1 << 53) + 1,
        -(1 << 53) - 1,
        i64::MIN,
        i64::MIN + 1,
        i64::MAX,
        0,
        -1,
    ];

    const FLOAT_EDGES: [f64; 14] = [
        9_007_199_254_740_992.0, // 2^53
        9_007_199_254_740_994.0, // 2^53 + 2, the next float up
        -9_007_199_254_740_992.0,
        4_503_599_627_370_495.5, // 2^52 - 0.5
        0.0,
        -0.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -TWO_POW_63,                 // i64::MIN exactly
        TWO_POW_63,                  // one past i64::MAX
        9_223_372_036_854_774_784.0, // the largest float below 2^63
        0.5,
        -0.5,
    ];

    /// Mixed numerics weighted toward the places an `as f64` comparison
    /// goes wrong: near 2^53, at the `i64` ends, signed zeros, NaN, ±inf.
    fn arb_numeric() -> impl Strategy<Value = Value> {
        prop_oneof![
            (0..INT_EDGES.len()).prop_map(|k| Value::Int(INT_EDGES[k])),
            (0..FLOAT_EDGES.len()).prop_map(|k| Value::Float(FLOAT_EDGES[k])),
            (-3i64..4).prop_map(|d| Value::Int((1 << 53) + d)),
            (-2i64..3).prop_map(|d| Value::Float(((1i64 << 53) + 2 * d) as f64)),
            (-3i64..4).prop_map(Value::Int),
            (-3.0f64..3.0).prop_map(Value::Float),
            any::<i64>().prop_map(Value::Int),
            any::<f64>().prop_map(Value::Float),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]
        /// The `Ord` laws over every pair and triple of a small sample,
        /// so values that only misorder together (`Int(2^53 + 1)`,
        /// `Float(2^53)`, `Int(2^53)`) meet often.
        #[test]
        fn prop_value_order_laws_over_mixed_numerics(
            values in proptest::collection::vec(arb_numeric(), 2..12),
        ) {
            for a in &values {
                for b in &values {
                    prop_assert_eq!(a.cmp(b), b.cmp(a).reverse(), "{} vs {}", a, b);
                    if a == b {
                        prop_assert_eq!(hash_of(a), hash_of(b), "{} == {}", a, b);
                    }
                    for c in &values {
                        if a <= b && b <= c {
                            prop_assert!(a <= c, "{} <= {} <= {} but {} > {}", a, b, c, a, c);
                        }
                        if a == b && b == c {
                            prop_assert_eq!(a, c, "{} == {} == {}", a, b, c);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn text_and_bytes_order_lexicographically() {
        assert!(Value::Text("abc".into()) < Value::Text("abd".into()));
        assert!(Value::Bytes(vec![1, 2]) < Value::Bytes(vec![1, 3]));
        assert!(Value::Text("zzz".into()) < Value::Bytes(vec![0]));
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(4).as_int(), Some(4));
        assert_eq!(Value::Int(4).as_float(), Some(4.0));
        assert_eq!(Value::Text("hi".into()).as_text(), Some("hi"));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::Text("hi".into()).as_int(), None);
        assert!(Value::Null.is_null());
        assert_eq!(Value::Null.data_type(), None);
        assert_eq!(Value::Int(0).data_type(), Some(DataType::Int));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Text("x".into()).to_string(), "'x'");
        assert_eq!(Value::Bytes(vec![0xab, 0x01]).to_string(), "x'ab01'");
        assert_eq!(Value::Int(-3).to_string(), "-3");
    }

    #[test]
    fn from_impls() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(3u32), Value::Int(3));
        assert_eq!(Value::from("s"), Value::Text("s".into()));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from(vec![1u8]), Value::Bytes(vec![1]));
    }
}
