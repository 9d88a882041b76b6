//! Binary row encoding.
//!
//! Records are stored self-describing: each value carries a one-byte tag, so
//! a page can be decoded without consulting the catalog (useful during WAL
//! replay, before the catalog is rebuilt). Integers use zigzag + LEB128
//! varints; floats are fixed 8-byte little-endian; strings and byte arrays
//! are length-prefixed.
//!
//! Decoding has one implementation with two outputs: [`decode_row_ref`]
//! borrows text and bytes straight out of the record (the zero-copy path
//! bulk scans use, see [`crate::db::Database::scan_each`]), and
//! [`decode_row`] converts the same values to an owned [`Row`]. Both apply
//! the same checks: column-count cap, truncation, unknown tags, UTF-8, and
//! trailing bytes.
//!
//! Layout of an encoded row:
//!
//! ```text
//! varint(column_count) ( tag value-bytes )*
//! ```

use bytes::{Buf, BufMut};

use crate::error::{DbError, DbResult};
use crate::row::Row;
use crate::value::Value;

const TAG_NULL: u8 = 0;
const TAG_FALSE: u8 = 1;
const TAG_TRUE: u8 = 2;
const TAG_INT: u8 = 3;
const TAG_FLOAT: u8 = 4;
const TAG_TEXT: u8 = 5;
const TAG_BYTES: u8 = 6;

/// Append a LEB128 varint.
pub fn put_varint(buf: &mut impl BufMut, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

/// Read a LEB128 varint.
pub fn get_varint(buf: &mut impl Buf) -> DbResult<u64> {
    let mut out: u64 = 0;
    let mut shift = 0u32;
    loop {
        if !buf.has_remaining() {
            return Err(DbError::Corruption("truncated varint".into()));
        }
        let byte = buf.get_u8();
        if shift >= 64 {
            return Err(DbError::Corruption("varint too long".into()));
        }
        // The final byte may not overflow the 64-bit value.
        if shift == 63 && (byte & 0x7e) != 0 {
            return Err(DbError::Corruption("varint overflows u64".into()));
        }
        out |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(out);
        }
        shift += 7;
    }
}

fn zigzag_encode(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn zigzag_decode(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Append one value.
pub fn encode_value(buf: &mut Vec<u8>, value: &Value) {
    match value {
        Value::Null => buf.put_u8(TAG_NULL),
        Value::Bool(false) => buf.put_u8(TAG_FALSE),
        Value::Bool(true) => buf.put_u8(TAG_TRUE),
        Value::Int(i) => {
            buf.put_u8(TAG_INT);
            put_varint(buf, zigzag_encode(*i));
        }
        Value::Float(f) => {
            buf.put_u8(TAG_FLOAT);
            buf.put_f64_le(*f);
        }
        Value::Text(s) => {
            buf.put_u8(TAG_TEXT);
            put_varint(buf, s.len() as u64);
            buf.put_slice(s.as_bytes());
        }
        Value::Bytes(b) => {
            buf.put_u8(TAG_BYTES);
            put_varint(buf, b.len() as u64);
            buf.put_slice(b);
        }
    }
}

/// One decoded value borrowed from the encoded bytes: the zero-copy view
/// of a [`Value`], with text and byte cells pointing into the record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ValueRef<'a> {
    /// SQL NULL.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 text (validated).
    Text(&'a str),
    /// Raw bytes.
    Bytes(&'a [u8]),
}

impl<'a> ValueRef<'a> {
    /// View as integer if the value is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            ValueRef::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// View as text if the value is `Text`.
    pub fn as_text(&self) -> Option<&'a str> {
        match self {
            ValueRef::Text(s) => Some(s),
            _ => None,
        }
    }
}

impl From<ValueRef<'_>> for Value {
    fn from(v: ValueRef<'_>) -> Value {
        match v {
            ValueRef::Null => Value::Null,
            ValueRef::Bool(b) => Value::Bool(b),
            ValueRef::Int(i) => Value::Int(i),
            ValueRef::Float(f) => Value::Float(f),
            ValueRef::Text(s) => Value::Text(s.to_owned()),
            ValueRef::Bytes(b) => Value::Bytes(b.to_vec()),
        }
    }
}

/// Split `len` bytes off the front of `buf`.
fn take_bytes<'a>(buf: &mut &'a [u8], len: usize, what: &str) -> DbResult<&'a [u8]> {
    if buf.len() < len {
        return Err(DbError::Corruption(format!("truncated {what}")));
    }
    let (head, tail) = buf.split_at(len);
    *buf = tail;
    Ok(head)
}

/// Read one value, borrowing text and bytes from `buf`.
fn decode_value_ref<'a>(buf: &mut &'a [u8]) -> DbResult<ValueRef<'a>> {
    if !buf.has_remaining() {
        return Err(DbError::Corruption("truncated value tag".into()));
    }
    let tag = buf.get_u8();
    match tag {
        TAG_NULL => Ok(ValueRef::Null),
        TAG_FALSE => Ok(ValueRef::Bool(false)),
        TAG_TRUE => Ok(ValueRef::Bool(true)),
        TAG_INT => Ok(ValueRef::Int(zigzag_decode(get_varint(buf)?))),
        TAG_FLOAT => {
            let bytes = take_bytes(buf, 8, "float")?;
            Ok(ValueRef::Float(f64::from_le_bytes(
                bytes.try_into().expect("took 8 bytes"),
            )))
        }
        TAG_TEXT => {
            let len = get_varint(buf)? as usize;
            std::str::from_utf8(take_bytes(buf, len, "text")?)
                .map(ValueRef::Text)
                .map_err(|_| DbError::Corruption("invalid utf-8 in text value".into()))
        }
        TAG_BYTES => {
            let len = get_varint(buf)? as usize;
            Ok(ValueRef::Bytes(take_bytes(buf, len, "bytes")?))
        }
        other => Err(DbError::Corruption(format!("unknown value tag {other}"))),
    }
}

/// Encode a whole row.
pub fn encode_row(row: &Row) -> Vec<u8> {
    let mut buf = Vec::with_capacity(8 + row.values.len() * 8);
    put_varint(&mut buf, row.values.len() as u64);
    for v in &row.values {
        encode_value(&mut buf, v);
    }
    buf
}

/// The one row decoder: validate `bytes` as a whole row and append its
/// values to the cleared `out`, converted to `T`. The buffer must be fully
/// consumed.
fn decode_row_into<'a, T: From<ValueRef<'a>>>(
    mut bytes: &'a [u8],
    out: &mut Vec<T>,
) -> DbResult<()> {
    out.clear();
    let count = get_varint(&mut bytes)? as usize;
    // Cap pathological counts before allocating (a corrupt varint could
    // claim 2^60 columns).
    if count > bytes.len() + 1 {
        return Err(DbError::Corruption(format!(
            "row claims {count} columns in {} bytes",
            bytes.len()
        )));
    }
    out.reserve(count);
    for _ in 0..count {
        out.push(decode_value_ref(&mut bytes)?.into());
    }
    if bytes.has_remaining() {
        return Err(DbError::Corruption(format!(
            "{} trailing bytes after row",
            bytes.remaining()
        )));
    }
    Ok(())
}

/// Decode a whole row without copying: `out` is cleared and refilled with
/// values borrowing from `bytes`, so a caller that reuses `out` decodes a
/// scan with no per-row allocation. Rejects exactly what [`decode_row`]
/// rejects.
pub fn decode_row_ref<'a>(bytes: &'a [u8], out: &mut Vec<ValueRef<'a>>) -> DbResult<()> {
    decode_row_into(bytes, out)
}

/// Decode a whole row into owned values, requiring the buffer to be fully
/// consumed.
pub fn decode_row(bytes: &[u8]) -> DbResult<Row> {
    let mut values = Vec::new();
    decode_row_into(bytes, &mut values)?;
    Ok(Row::new(values))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn varint_round_trips_boundaries() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut slice = buf.as_slice();
            assert_eq!(get_varint(&mut slice).unwrap(), v);
            assert!(slice.is_empty());
        }
    }

    #[test]
    fn varint_rejects_truncation_and_overflow() {
        let mut slice: &[u8] = &[0x80];
        assert!(get_varint(&mut slice).is_err());
        // 11 continuation bytes is always too long for u64.
        let long = [0xffu8; 11];
        let mut slice: &[u8] = &long;
        assert!(get_varint(&mut slice).is_err());
    }

    #[test]
    fn zigzag_round_trips() {
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -123456, 123456] {
            assert_eq!(zigzag_decode(zigzag_encode(v)), v);
        }
    }

    #[test]
    fn row_round_trips_every_type() {
        let row = Row::from_values([
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(-42),
            Value::Float(3.5),
            Value::Text("héllo".into()),
            Value::Bytes(vec![0, 255, 7]),
        ]);
        let bytes = encode_row(&row);
        assert_eq!(decode_row(&bytes).unwrap(), row);
    }

    #[test]
    fn empty_row_round_trips() {
        let row = Row::from_values([]);
        assert_eq!(decode_row(&encode_row(&row)).unwrap(), row);
    }

    #[test]
    fn trailing_garbage_is_corruption() {
        let mut bytes = encode_row(&Row::from_values([Value::Int(1)]));
        bytes.push(0);
        assert!(matches!(decode_row(&bytes), Err(DbError::Corruption(_))));
    }

    #[test]
    fn truncated_rows_are_corruption() {
        let bytes = encode_row(&Row::from_values([Value::Text("abcdef".into())]));
        for cut in 0..bytes.len() {
            assert!(
                decode_row(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }

    #[test]
    fn absurd_column_count_is_rejected_without_allocation() {
        // varint 2^60 followed by nothing.
        let mut bytes = Vec::new();
        put_varint(&mut bytes, 1 << 60);
        assert!(decode_row(&bytes).is_err());
    }

    #[test]
    fn unknown_tag_is_corruption() {
        let mut bytes = Vec::new();
        put_varint(&mut bytes, 1);
        bytes.push(99);
        assert!(decode_row(&bytes).is_err());
    }

    fn arb_value() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Null),
            any::<bool>().prop_map(Value::Bool),
            any::<i64>().prop_map(Value::Int),
            // Finite floats only: NaN breaks PartialEq-based round-trip
            // assertion, though the encoding itself preserves the bits.
            any::<f64>()
                .prop_filter("finite", |f| f.is_finite())
                .prop_map(Value::Float),
            ".{0,64}".prop_map(Value::Text),
            proptest::collection::vec(any::<u8>(), 0..64).prop_map(Value::Bytes),
        ]
    }

    proptest! {
        #[test]
        fn prop_row_round_trip(values in proptest::collection::vec(arb_value(), 0..16)) {
            let row = Row::new(values);
            let bytes = encode_row(&row);
            prop_assert_eq!(decode_row(&bytes).unwrap(), row);
        }

        #[test]
        fn prop_varint_round_trip(v in any::<u64>()) {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            prop_assert!(buf.len() <= 10);
            let mut slice = buf.as_slice();
            prop_assert_eq!(get_varint(&mut slice).unwrap(), v);
        }

        #[test]
        fn prop_decoder_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = decode_row(&bytes); // must not panic
        }

        #[test]
        fn prop_borrowed_decoder_agrees_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            assert_decoders_agree(&bytes);
        }

        #[test]
        fn prop_borrowed_decoder_agrees_on_truncated_and_flipped_rows(
            values in proptest::collection::vec(arb_value(), 0..16),
            flip_at in any::<u16>(),
            flip_mask in 1u8..=255,
        ) {
            let bytes = encode_row(&Row::new(values));
            for cut in 0..=bytes.len() {
                assert_decoders_agree(&bytes[..cut]);
            }
            let mut flipped = bytes.clone();
            let at = flip_at as usize % flipped.len();
            flipped[at] ^= flip_mask;
            assert_decoders_agree(&flipped);
        }
    }

    /// [`decode_row_ref`] and [`decode_row`] accept exactly the same inputs,
    /// decode them to the same values (compared by `Debug`, which tells
    /// `Int(2)` from `Float(2.0)` and prints NaN), and fail with the same
    /// error.
    fn assert_decoders_agree(bytes: &[u8]) {
        let mut borrowed = vec![ValueRef::Null; 3]; // stale contents must be cleared
        match (decode_row(bytes), decode_row_ref(bytes, &mut borrowed)) {
            (Ok(row), Ok(())) => {
                let owned: Vec<Value> = borrowed.into_iter().map(Value::from).collect();
                assert_eq!(format!("{:?}", row.values), format!("{owned:?}"));
            }
            (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
            (owned, borrowed) => panic!("decoders disagree: {owned:?} vs {borrowed:?}"),
        }
    }
}
