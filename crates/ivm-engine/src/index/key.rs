//! Order-preserving binary key encoding for index keys.
//!
//! Composite [`Value`] keys are encoded into byte strings whose
//! lexicographic order equals the tuple's [`Value::total_cmp`] order, and
//! whose equality equals `==` (numerics: see [`Value::num_key`]). Each
//! component is self-delimiting, so for a fixed key arity no encoded key is
//! a proper prefix of another — the property the ART relies on. Keys live
//! only in the in-memory indexes, never on disk.

use crate::value::{NumKey, Value};

/// Type tags. NULL sorts before every value, matching `Value::total_cmp`.
const TAG_NULL: u8 = 0x00;
const TAG_BOOL: u8 = 0x01;
const TAG_NUM: u8 = 0x02;
const TAG_VARCHAR: u8 = 0x03;
const TAG_DATE: u8 = 0x04;

/// Encode a composite key.
pub fn encode_key(values: &[Value]) -> Vec<u8> {
    // Most keys are short; 16 bytes per component is a good initial guess.
    let mut out = Vec::with_capacity(values.len() * 16);
    for v in values {
        encode_value(v, &mut out);
    }
    out
}

/// Append one component of a composite key to `out`.
pub(crate) fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::Boolean(b) => {
            out.push(TAG_BOOL);
            out.push(u8::from(*b));
        }
        // INTEGER and DOUBLE share a tag because `total_cmp` compares them
        // numerically: the nearest double through the f64 order-preserving
        // map, then the sign-flipped remainder (see `NumKey::split`; a
        // double is its own nearest double).
        Value::Integer(i) => encode_num(NumKey::Int(*i).split(), out),
        Value::Double(d) => encode_num((*d, 0), out),
        Value::Varchar(s) => {
            out.push(TAG_VARCHAR);
            // Escape 0x00 as 0x00 0xFF, terminate with 0x00 0x00: preserves
            // order and keeps the component self-delimiting.
            for &b in s.as_bytes() {
                if b == 0x00 {
                    out.push(0x00);
                    out.push(0xFF);
                } else {
                    out.push(b);
                }
            }
            out.push(0x00);
            out.push(0x00);
        }
        Value::Date(d) => {
            out.push(TAG_DATE);
            // Flip the sign bit so two's-complement order becomes unsigned
            // byte order.
            out.extend_from_slice(&(*d as u32 ^ 0x8000_0000).to_be_bytes());
        }
    }
}

/// Ten bytes whose unsigned lexicographic order equals the order of
/// `(f64::total_cmp, remainder)` pairs: positive floats flip only the sign
/// bit, negative floats flip every bit, the remainder flips its sign bit.
fn encode_num((d, rem): (f64, i16), out: &mut Vec<u8>) {
    let bits = d.to_bits();
    let mapped = if bits & 0x8000_0000_0000_0000 == 0 {
        bits ^ 0x8000_0000_0000_0000
    } else {
        !bits
    };
    out.push(TAG_NUM);
    out.extend_from_slice(&mapped.to_be_bytes());
    out.extend_from_slice(&(rem as u16 ^ 0x8000).to_be_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enc1(v: Value) -> Vec<u8> {
        encode_key(std::slice::from_ref(&v))
    }

    #[test]
    fn integer_order_preserved() {
        let vals = [-5i64, -1, 0, 1, 42, i64::from(i32::MAX)];
        for w in vals.windows(2) {
            assert!(
                enc1(Value::Integer(w[0])) < enc1(Value::Integer(w[1])),
                "{} !< {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn double_order_preserved() {
        let vals = [
            f64::NEG_INFINITY,
            -2.5,
            -0.0,
            0.0,
            1e-10,
            3.25,
            f64::INFINITY,
        ];
        for w in vals.windows(2) {
            let (a, b) = (enc1(Value::Double(w[0])), enc1(Value::Double(w[1])));
            assert!(a <= b, "{} !<= {}", w[0], w[1]);
        }
    }

    #[test]
    fn cross_numeric_consistency() {
        assert_eq!(enc1(Value::Integer(3)), enc1(Value::Double(3.0)));
        assert!(enc1(Value::Integer(2)) < enc1(Value::Double(2.5)));
        assert!(enc1(Value::Double(2.5)) < enc1(Value::Integer(3)));
    }

    #[test]
    fn varchar_order_and_delimiting() {
        assert!(enc1(Value::from("a")) < enc1(Value::from("ab")));
        assert!(enc1(Value::from("ab")) < enc1(Value::from("b")));
        // Embedded NUL must not confuse ordering or delimiting.
        assert!(enc1(Value::from("a\0z")) < enc1(Value::from("aa")));
        let k1 = encode_key(&[Value::from("a"), Value::from("b")]);
        let k2 = encode_key(&[Value::from("ab"), Value::from("")]);
        assert_ne!(k1, k2);
    }

    #[test]
    fn null_sorts_first() {
        assert!(enc1(Value::Null) < enc1(Value::Boolean(false)));
        assert!(enc1(Value::Null) < enc1(Value::Integer(i64::MIN / 2)));
        assert!(enc1(Value::Null) < enc1(Value::from("")));
    }

    #[test]
    fn composite_key_order_is_componentwise() {
        let a = encode_key(&[Value::from("x"), Value::Integer(1)]);
        let b = encode_key(&[Value::from("x"), Value::Integer(2)]);
        let c = encode_key(&[Value::from("y"), Value::Integer(0)]);
        assert!(a < b);
        assert!(b < c);
    }

    #[test]
    fn no_proper_prefix_among_same_arity_keys() {
        let keys = [
            encode_key(&[Value::from("a")]),
            encode_key(&[Value::from("ab")]),
            encode_key(&[Value::Integer(1)]),
            encode_key(&[Value::Null]),
        ];
        for (i, a) in keys.iter().enumerate() {
            for (j, b) in keys.iter().enumerate() {
                if i != j && b.len() > a.len() {
                    assert_ne!(&b[..a.len()], &a[..], "key {i} is a prefix of key {j}");
                }
            }
        }
    }

    #[test]
    fn date_order() {
        assert!(enc1(Value::Date(-400)) < enc1(Value::Date(0)));
        assert!(enc1(Value::Date(0)) < enc1(Value::Date(20_000)));
    }
}
