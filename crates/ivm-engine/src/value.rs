//! Runtime values with SQL semantics.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::error::EngineError;
use crate::types::DataType;

/// A single runtime value.
///
/// `Value` implements *grouping* equality/ordering (used by hash aggregation,
/// hash joins, DISTINCT, ORDER BY, and index keys): `Null == Null`, numerics
/// compare exactly across `INTEGER`/`DOUBLE` (see [`Value::num_key`]), and
/// `Null` sorts first. SQL three-valued comparison lives in the expression
/// evaluator, not here.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// BOOLEAN value.
    Boolean(bool),
    /// INTEGER value.
    Integer(i64),
    /// DOUBLE value.
    Double(f64),
    /// VARCHAR value.
    Varchar(String),
    /// DATE value as days since the Unix epoch.
    Date(i32),
}

impl Value {
    /// Type of the value, when it has one (NULL is typeless).
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Boolean(_) => Some(DataType::Boolean),
            Value::Integer(_) => Some(DataType::Integer),
            Value::Double(_) => Some(DataType::Double),
            Value::Varchar(_) => Some(DataType::Varchar),
            Value::Date(_) => Some(DataType::Date),
        }
    }

    /// True when the value is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Interpret as boolean for predicate evaluation; NULL is `None`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Boolean(b) => Some(*b),
            _ => None,
        }
    }

    /// Integer accessor.
    pub fn as_integer(&self) -> Option<i64> {
        match self {
            Value::Integer(i) => Some(*i),
            _ => None,
        }
    }

    /// Numeric value widened to f64, when numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Integer(i) => Some(*i as f64),
            Value::Double(d) => Some(*d),
            _ => None,
        }
    }

    /// String accessor.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Varchar(s) => Some(s),
            _ => None,
        }
    }

    /// Cast to `target`, with SQL cast semantics. NULL casts to NULL.
    pub fn cast(&self, target: DataType) -> Result<Value, EngineError> {
        if self.is_null() {
            return Ok(Value::Null);
        }
        if self.data_type() == Some(target) {
            return Ok(self.clone());
        }
        let out = match (self, target) {
            (Value::Integer(i), DataType::Double) => Some(Value::Double(*i as f64)),
            (Value::Double(d), DataType::Integer) => {
                // SQL rounds half away from zero on double→int casts.
                let r = d.round();
                if r.is_finite() && (i64::MIN as f64..=i64::MAX as f64).contains(&r) {
                    Some(Value::Integer(r as i64))
                } else {
                    None
                }
            }
            (Value::Integer(i), DataType::Boolean) => Some(Value::Boolean(*i != 0)),
            (Value::Boolean(b), DataType::Integer) => Some(Value::Integer(i64::from(*b))),
            (Value::Varchar(s), DataType::Integer) => {
                s.trim().parse::<i64>().ok().map(Value::Integer)
            }
            (Value::Varchar(s), DataType::Double) => {
                s.trim().parse::<f64>().ok().map(Value::Double)
            }
            (Value::Varchar(s), DataType::Boolean) => {
                match s.trim().to_ascii_lowercase().as_str() {
                    "true" | "t" | "1" => Some(Value::Boolean(true)),
                    "false" | "f" | "0" => Some(Value::Boolean(false)),
                    _ => None,
                }
            }
            (Value::Varchar(s), DataType::Date) => parse_date(s).map(Value::Date),
            (v, DataType::Varchar) => Some(Value::Varchar(v.to_string())),
            (Value::Date(d), DataType::Integer) => Some(Value::Integer(i64::from(*d))),
            (Value::Integer(i), DataType::Date) => i32::try_from(*i).ok().map(Value::Date),
            _ => None,
        };
        out.ok_or_else(|| EngineError::invalid_cast(format!("cannot cast {self} to {target}")))
    }

    /// The numeric equality class of the value, when numeric — the one
    /// rule every keyed structure (this type's `Eq`/`Ord`/`Hash`, the hash
    /// kernels, the typed key arenas, index keys, the vectorized compare)
    /// consumes: an `INTEGER`, and any `DOUBLE` that is integral, is not
    /// `-0.0` and lies in [-2^63, 2^63), belong to the class of that
    /// integer; every other double (fractional, `-0.0`, ±∞, NaN, |d| ≥
    /// 2^63) is a class of its own. So `3 ≡ 3.0`, `-0.0 ≢ 0.0`, `NaN ≡
    /// NaN` (same bits), and — unlike "widen the integer, then compare" —
    /// `2^53 + 1 ≢ 9007199254740992.0`: the relation is transitive over
    /// the whole `i64` range.
    #[inline]
    pub fn num_key(&self) -> Option<NumKey> {
        match self {
            Value::Integer(i) => Some(NumKey::Int(*i)),
            Value::Double(d) => Some(NumKey::of_double(*d)),
            _ => None,
        }
    }

    /// Grouping comparison used by sorting and index keys: NULL first, then
    /// by type-specific order. Numerics compare by mathematical value (see
    /// [`Value::num_key`]; `-0.0` sorts just below `0`, NaNs at the ends as
    /// in `f64::total_cmp`), so `Equal` coincides with equal classes.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Boolean(a), Boolean(b)) => a.cmp(b),
            (Integer(a), Integer(b)) => a.cmp(b),
            (Double(a), Double(b)) => a.total_cmp(b),
            (Integer(a), Double(b)) => cmp_int_double(*a, *b),
            (Double(a), Integer(b)) => cmp_int_double(*b, *a).reverse(),
            (Varchar(a), Varchar(b)) => a.cmp(b),
            (Date(a), Date(b)) => a.cmp(b),
            // Differently-typed values never meet in well-typed plans; fall
            // back to a stable order by type tag for robustness.
            _ => type_rank(self).cmp(&type_rank(other)),
        }
    }
}

/// A numeric value's equality class — see [`Value::num_key`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NumKey {
    /// The class of this integer (and of the one double equal to it).
    Int(i64),
    /// A double outside every integer class, keyed by its bits.
    Frac(u64),
}

/// 2^63: the first double past the `i64` range.
const TWO_63: f64 = 9_223_372_036_854_775_808.0;

impl NumKey {
    /// The class of a double.
    #[inline]
    pub fn of_double(d: f64) -> NumKey {
        // In range the cast truncates exactly, so the round trip holds
        // precisely for integral doubles; `-0.0` passes it and is excluded
        // by its sign, NaN fails the range test.
        if (-TWO_63..TWO_63).contains(&d) {
            let i = d as i64;
            if i as f64 == d && (i != 0 || d.is_sign_positive()) {
                return NumKey::Int(i);
            }
        }
        NumKey::Frac(d.to_bits())
    }

    /// The 8-byte word identifying the class among classes of its kind:
    /// what hashes mix and typed key arenas store.
    #[inline]
    pub fn word(self) -> u64 {
        match self {
            NumKey::Int(i) => i as u64,
            NumKey::Frac(bits) => bits,
        }
    }

    /// The class as `(nearest double, class − that double)`. The remainder
    /// is 0 for every double and every integer within ±2^53 (at most ±1024
    /// beyond), so the first half is the class's double spelling whenever
    /// it has one; ordering pairs by `f64::total_cmp`, then remainder, is
    /// the numeric order — what [`cmp_int_double`] and the index key
    /// encoding both rest on.
    #[inline]
    pub fn split(self) -> (f64, i16) {
        match self {
            NumKey::Int(i) => {
                let nearest = i as f64;
                // `nearest` is integral with |nearest| ≤ 2^63: exact in i128.
                (nearest, (i128::from(i) - nearest as i128) as i16)
            }
            NumKey::Frac(bits) => (f64::from_bits(bits), 0),
        }
    }
}

/// Exact comparison of an integer with a double, consistent with
/// `i64::cmp` and `f64::total_cmp` on either side (the order
/// [`Value::total_cmp`] documents). Rounding to nearest is monotone, so
/// the integer's nearest double decides unless it *is* `d`, and then the
/// remainder does.
#[inline]
pub fn cmp_int_double(i: i64, d: f64) -> Ordering {
    let (nearest, rem) = NumKey::Int(i).split();
    nearest.total_cmp(&d).then(rem.cmp(&0))
}

/// Read-only access to one logical row, by column position.
///
/// Expression evaluation is generic over this trait so the same evaluator
/// runs against materialized rows (`Vec<Value>`, slices) and against rows
/// living inside a columnar [`crate::exec::RowBatch`] without gathering
/// them first.
pub trait Tuple {
    /// The value at column `index`, or `None` when out of range.
    fn col(&self, index: usize) -> Option<&Value>;
}

impl Tuple for [Value] {
    fn col(&self, index: usize) -> Option<&Value> {
        self.get(index)
    }
}

impl<const N: usize> Tuple for [Value; N] {
    fn col(&self, index: usize) -> Option<&Value> {
        self.get(index)
    }
}

impl Tuple for Vec<Value> {
    fn col(&self, index: usize) -> Option<&Value> {
        self.get(index)
    }
}

impl<T: Tuple + ?Sized> Tuple for &T {
    fn col(&self, index: usize) -> Option<&Value> {
        (**self).col(index)
    }
}

fn type_rank(v: &Value) -> u8 {
    match v {
        Value::Null => 0,
        Value::Boolean(_) => 1,
        Value::Integer(_) => 2,
        Value::Double(_) => 3,
        Value::Varchar(_) => 4,
        Value::Date(_) => 5,
    }
}

/// Parse `YYYY-MM-DD` into days since the Unix epoch (proleptic Gregorian).
pub fn parse_date(s: &str) -> Option<i32> {
    let mut parts = s.trim().splitn(3, '-');
    let year: i32 = parts.next()?.parse().ok()?;
    let month: u32 = parts.next()?.parse().ok()?;
    let day: u32 = parts.next()?.parse().ok()?;
    days_from_civil(year, month, day)
}

/// Format days-since-epoch as `YYYY-MM-DD`.
pub fn format_date(days: i32) -> String {
    let (y, m, d) = civil_from_days(days);
    format!("{y:04}-{m:02}-{d:02}")
}

/// Howard Hinnant's `days_from_civil` algorithm.
fn days_from_civil(y: i32, m: u32, d: u32) -> Option<i32> {
    if !(1..=12).contains(&m) || !(1..=31).contains(&d) {
        return None;
    }
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = (y - era * 400) as i64;
    let mp = ((m + 9) % 12) as i64;
    let doy = (153 * mp + 2) / 5 + d as i64 - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    i32::try_from(era as i64 * 146_097 + doe - 719_468).ok()
}

/// Inverse of [`days_from_civil`].
fn civil_from_days(z: i32) -> (i32, u32, u32) {
    let z = z as i64 + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    ((y + i64::from(m <= 2)) as i32, m, d)
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Boolean(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // One hash per numeric class: equal under total_cmp ⇒ equal here.
            v @ (Value::Integer(_) | Value::Double(_)) => {
                2u8.hash(state);
                v.num_key().map(NumKey::word).hash(state);
            }
            Value::Varchar(s) => {
                4u8.hash(state);
                s.hash(state);
            }
            Value::Date(d) => {
                5u8.hash(state);
                d.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Boolean(b) => write!(f, "{}", if *b { "true" } else { "false" }),
            Value::Integer(i) => write!(f, "{i}"),
            Value::Double(d) => {
                if d.fract() == 0.0 && d.is_finite() && d.abs() < 1e15 {
                    write!(f, "{d:.1}")
                } else {
                    write!(f, "{d}")
                }
            }
            Value::Varchar(s) => write!(f, "{s}"),
            Value::Date(d) => write!(f, "{}", format_date(*d)),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Integer(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Double(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Boolean(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Varchar(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Varchar(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_groups_with_null() {
        assert_eq!(Value::Null, Value::Null);
        assert!(Value::Null < Value::Integer(0));
    }

    #[test]
    fn cross_numeric_equality_and_hash() {
        use std::collections::hash_map::DefaultHasher;
        let a = Value::Integer(3);
        let b = Value::Double(3.0);
        assert_eq!(a, b);
        let mut h1 = DefaultHasher::new();
        let mut h2 = DefaultHasher::new();
        a.hash(&mut h1);
        b.hash(&mut h2);
        assert_eq!(h1.finish(), h2.finish());
    }

    /// The boundary pool: where "widen, then compare" breaks, and the
    /// doubles that are their own classes.
    fn numeric_pool() -> Vec<Value> {
        const P53: i64 = 1 << 53;
        let ints = [
            0,
            1,
            -1,
            P53 - 1,
            1 - P53,
            P53,
            -P53,
            P53 + 1,
            -P53 - 1,
            i64::MIN,
            i64::MAX,
        ];
        let mut pool: Vec<Value> = ints.iter().map(|&i| Value::Integer(i)).collect();
        pool.extend(ints.iter().map(|&i| Value::Double(i as f64)));
        pool.extend(
            [
                -(i64::MIN as f64), // 2^63
                -0.0,
                0.5,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::NAN,
            ]
            .map(Value::Double),
        );
        pool
    }

    #[test]
    fn numeric_equality_is_an_equivalence_every_key_agrees_with() {
        use crate::exec::hash::hash_value;
        use crate::index::encode_key;
        use std::collections::hash_map::DefaultHasher;
        let std_hash = |v: &Value| {
            let mut h = DefaultHasher::new();
            v.hash(&mut h);
            h.finish()
        };
        let pool = numeric_pool();
        for a in &pool {
            assert_eq!(a, a, "reflexive");
            for b in &pool {
                assert_eq!(a == b, b == a, "symmetric: {a:?} {b:?}");
                assert_eq!(
                    a.total_cmp(b),
                    b.total_cmp(a).reverse(),
                    "antisymmetric: {a:?} {b:?}"
                );
                if a == b {
                    assert_eq!(std_hash(a), std_hash(b), "{a:?} {b:?}");
                    assert_eq!(hash_value(a), hash_value(b), "{a:?} {b:?}");
                }
                let (ka, kb) = (
                    encode_key(std::slice::from_ref(a)),
                    encode_key(std::slice::from_ref(b)),
                );
                assert_eq!(ka.cmp(&kb), a.total_cmp(b), "index key: {a:?} {b:?}");
                for c in &pool {
                    if a == b && b == c {
                        assert_eq!(a, c, "transitive: {a:?} {b:?} {c:?}");
                    }
                    if a <= b && b <= c {
                        assert!(a <= c, "order transitive: {a:?} {b:?} {c:?}");
                    }
                }
            }
        }
        // The one behaviour change, spelled out.
        const P53: i64 = 1 << 53;
        assert_ne!(Value::Integer(P53 + 1), Value::Double(P53 as f64));
        assert_eq!(Value::Integer(P53), Value::Double(P53 as f64));
        assert!(Value::Integer(i64::MAX) < Value::Double(i64::MAX as f64));
        assert!(Value::Double(-0.0) < Value::Integer(0));
    }

    #[test]
    fn casts() {
        assert_eq!(
            Value::Integer(2).cast(DataType::Double).unwrap(),
            Value::Double(2.0)
        );
        assert_eq!(
            Value::Double(2.6).cast(DataType::Integer).unwrap(),
            Value::Integer(3)
        );
        assert_eq!(
            Value::Varchar("42".into()).cast(DataType::Integer).unwrap(),
            Value::Integer(42)
        );
        assert_eq!(
            Value::Integer(7).cast(DataType::Varchar).unwrap(),
            Value::Varchar("7".into())
        );
        assert_eq!(Value::Null.cast(DataType::Integer).unwrap(), Value::Null);
        assert!(Value::Varchar("xyz".into())
            .cast(DataType::Integer)
            .is_err());
        assert!(Value::Double(f64::NAN).cast(DataType::Integer).is_err());
    }

    #[test]
    fn date_round_trip() {
        for s in [
            "1970-01-01",
            "2024-06-09",
            "1969-12-31",
            "2000-02-29",
            "1582-10-15",
        ] {
            let d = parse_date(s).unwrap();
            assert_eq!(format_date(d), s, "round trip of {s}");
        }
        assert_eq!(parse_date("1970-01-01"), Some(0));
        assert_eq!(parse_date("1970-01-02"), Some(1));
        assert_eq!(parse_date("1969-12-31"), Some(-1));
        assert_eq!(parse_date("not-a-date"), None);
        assert_eq!(parse_date("2024-13-01"), None);
    }

    #[test]
    fn boolean_casts() {
        assert_eq!(
            Value::Varchar("true".into())
                .cast(DataType::Boolean)
                .unwrap(),
            Value::Boolean(true)
        );
        assert_eq!(
            Value::Boolean(true).cast(DataType::Integer).unwrap(),
            Value::Integer(1)
        );
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Double(2.0).to_string(), "2.0");
        assert_eq!(Value::Double(2.5).to_string(), "2.5");
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Date(0).to_string(), "1970-01-01");
    }

    #[test]
    fn nan_totals() {
        // NaN groups with NaN under total_cmp — required for stable grouping.
        assert_eq!(Value::Double(f64::NAN), Value::Double(f64::NAN));
    }
}
