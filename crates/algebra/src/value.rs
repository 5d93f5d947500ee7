//! Scalar values and data types.
//!
//! The Perm algebra operates over SQL-style scalar values with three-valued logic. Values are
//! used both in tuples (rows of relations) and as literals inside expressions. Besides the usual
//! comparison semantics (`NULL` compares as unknown), values provide a *grouping* equality and
//! hash in which `NULL` equals `NULL` and floats are compared by bit pattern — this is what hash
//! aggregation, hash joins on grouping attributes (rewrite rule R5) and set operations use.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::error::AlgebraError;

/// The data types supported by the engine.
///
/// This is the minimal set needed to run the TPC-H benchmark and the paper's examples:
/// booleans, 64-bit integers, 64-bit floats (also used for SQL `DECIMAL`), UTF-8 text and dates
/// (stored as days since 1970-01-01).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// Boolean (`TRUE` / `FALSE`).
    Bool,
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE-754 float; also used for SQL `DECIMAL`/`NUMERIC`.
    Float,
    /// Variable-length UTF-8 string.
    Text,
    /// Calendar date, stored as days since the Unix epoch.
    Date,
    /// The type of `NULL` literals before coercion.
    Null,
}

impl DataType {
    /// Whether a value of type `self` can be implicitly coerced to `other`.
    pub fn coercible_to(self, other: DataType) -> bool {
        use DataType::*;
        if self == other || self == Null || other == Null {
            return true;
        }
        matches!((self, other), (Int, Float) | (Float, Int) | (Int, Date) | (Date, Int))
    }

    /// The common type of two operands in arithmetic / comparison, if any.
    pub fn common_type(self, other: DataType) -> Option<DataType> {
        use DataType::*;
        match (self, other) {
            (a, b) if a == b => Some(a),
            (Null, b) => Some(b),
            (a, Null) => Some(a),
            (Int, Float) | (Float, Int) => Some(Float),
            (Int, Date) | (Date, Int) => Some(Date),
            _ => None,
        }
    }

    /// The one type of a column whose inputs have types `self` and `other`: theirs when they
    /// agree, the other's when one is an untyped NULL. Inputs of two types have none: each needs
    /// a cast to their [`DataType::common_type`] first.
    pub fn one_type(self, other: DataType) -> Option<DataType> {
        match (self, other) {
            (DataType::Null, t) | (t, DataType::Null) => Some(t),
            (a, b) => (a == b).then_some(a),
        }
    }

    /// Is this a numeric type?
    pub fn is_numeric(self) -> bool {
        matches!(self, DataType::Int | DataType::Float)
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Bool => "BOOL",
            DataType::Int => "INT",
            DataType::Float => "FLOAT",
            DataType::Text => "TEXT",
            DataType::Date => "DATE",
            DataType::Null => "NULL",
        };
        f.write_str(s)
    }
}

/// A scalar SQL value.
///
/// `Value` implements [`Eq`]/[`Hash`]/[`Ord`] with *grouping semantics*: `NULL == NULL`, floats
/// compare by total order of their bit-normalised form, and values of different types order by a
/// fixed type rank. Use [`Value::sql_eq`] / [`Value::sql_cmp`] for SQL comparison semantics
/// (which return `None` when any operand is `NULL`).
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 text. Stored behind an [`Arc`] so that cloning a text value (which joins and
    /// projections in provenance-rewritten plans do constantly) is a refcount bump rather than a
    /// heap copy.
    Text(Arc<str>),
    /// Date as days since 1970-01-01.
    Date(i32),
}

impl Value {
    /// Construct a text value.
    pub fn text(s: impl Into<Arc<str>>) -> Value {
        Value::Text(s.into())
    }

    /// Construct a date value from a `YYYY-MM-DD` string.
    pub fn date_from_str(s: &str) -> Result<Value, AlgebraError> {
        parse_date(s).map(Value::Date)
    }

    /// The data type of this value.
    pub fn data_type(&self) -> DataType {
        match self {
            Value::Null => DataType::Null,
            Value::Bool(_) => DataType::Bool,
            Value::Int(_) => DataType::Int,
            Value::Float(_) => DataType::Float,
            Value::Text(_) => DataType::Text,
            Value::Date(_) => DataType::Date,
        }
    }

    /// Is this value NULL?
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Interpret the value as a boolean for predicate evaluation (`None` for NULL).
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            Value::Null => None,
            Value::Int(i) => Some(*i != 0),
            _ => None,
        }
    }

    /// Numeric view of the value as f64 (for aggregates such as AVG/SUM over mixed numerics).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Date(d) => Some(*d as f64),
            _ => None,
        }
    }

    /// Integer view of the value.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Float(f) => Some(*f as i64),
            Value::Date(d) => Some(*d as i64),
            _ => None,
        }
    }

    /// Text view of the value (without quoting).
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// SQL equality: `None` if either side is NULL, otherwise `Some(lhs == rhs)` after numeric
    /// coercion.
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        self.sql_cmp(other).map(|o| o == Ordering::Equal)
    }

    /// SQL comparison: `None` if either side is NULL, the types are incomparable, or the
    /// comparison is undefined (NaN). The numeric types Int, Float and Date are all mutually
    /// comparable (a date compares as its day number), matching the coercions of
    /// [`DataType::coercible_to`]; grouping equality and hashing use the same numeric key so
    /// hash joins and hash aggregation agree with this table (see [`Value::eq`]).
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => None,
            (Bool(a), Bool(b)) => Some(a.cmp(b)),
            (Int(a), Int(b)) => Some(a.cmp(b)),
            (Float(a), Float(b)) => a.partial_cmp(b),
            (Int(a), Float(b)) => (*a as f64).partial_cmp(b),
            (Float(a), Int(b)) => a.partial_cmp(&(*b as f64)),
            (Text(a), Text(b)) => Some(a.cmp(b)),
            (Date(a), Date(b)) => Some(a.cmp(b)),
            (Date(a), Int(b)) => Some((*a as i64).cmp(b)),
            (Int(a), Date(b)) => Some(a.cmp(&(*b as i64))),
            (Date(a), Float(b)) => (*a as f64).partial_cmp(b),
            (Float(a), Date(b)) => a.partial_cmp(&(*b as f64)),
            _ => None,
        }
    }

    /// Grouping equality (NULL == NULL, used by hash aggregation / set operations).
    pub fn group_eq(&self, other: &Value) -> bool {
        self == other
    }

    /// Add two values (numeric addition, date + int days). Integer overflow is an error
    /// ([`AlgebraError::ArithmeticOverflow`]), never a silent wrap.
    pub fn add(&self, other: &Value) -> Result<Value, AlgebraError> {
        use Value::*;
        Ok(match (self, other) {
            (Null, _) | (_, Null) => Null,
            (Int(a), Int(b)) => Int(a.checked_add(*b).ok_or_else(|| overflow("addition"))?),
            (Float(a), Float(b)) => Float(a + b),
            (Int(a), Float(b)) => Float(*a as f64 + b),
            (Float(a), Int(b)) => Float(a + *b as f64),
            (Date(a), Int(b)) => Date(checked_date_shift(*a, *b, "addition")?),
            (Int(a), Date(b)) => Date(checked_date_shift(*b, *a, "addition")?),
            (Text(a), Text(b)) => Text(format!("{a}{b}").into()),
            (a, b) => return Err(mismatch("addition", a, b)),
        })
    }

    /// Subtract two values. Integer overflow is an error, never a silent wrap.
    pub fn sub(&self, other: &Value) -> Result<Value, AlgebraError> {
        use Value::*;
        Ok(match (self, other) {
            (Null, _) | (_, Null) => Null,
            (Int(a), Int(b)) => Int(a.checked_sub(*b).ok_or_else(|| overflow("subtraction"))?),
            (Float(a), Float(b)) => Float(a - b),
            (Int(a), Float(b)) => Float(*a as f64 - b),
            (Float(a), Int(b)) => Float(a - *b as f64),
            (Date(a), Int(b)) => {
                let days = b.checked_neg().ok_or_else(|| overflow("subtraction"))?;
                Date(checked_date_shift(*a, days, "subtraction")?)
            }
            (Date(a), Date(b)) => Int(*a as i64 - *b as i64),
            (a, b) => return Err(mismatch("subtraction", a, b)),
        })
    }

    /// Multiply two values. Integer overflow is an error, never a silent wrap.
    pub fn mul(&self, other: &Value) -> Result<Value, AlgebraError> {
        use Value::*;
        Ok(match (self, other) {
            (Null, _) | (_, Null) => Null,
            (Int(a), Int(b)) => Int(a.checked_mul(*b).ok_or_else(|| overflow("multiplication"))?),
            (Float(a), Float(b)) => Float(a * b),
            (Int(a), Float(b)) => Float(*a as f64 * b),
            (Float(a), Int(b)) => Float(a * *b as f64),
            (a, b) => return Err(mismatch("multiplication", a, b)),
        })
    }

    /// Divide two values. Integer division by zero is an error; float division follows IEEE.
    pub fn div(&self, other: &Value) -> Result<Value, AlgebraError> {
        use Value::*;
        Ok(match (self, other) {
            (Null, _) | (_, Null) => Null,
            (Int(a), Int(b)) => {
                if *b == 0 {
                    return Err(AlgebraError::Arithmetic("integer division by zero".into()));
                }
                // i64::MIN / -1 overflows.
                Int(a.checked_div(*b).ok_or_else(|| overflow("division"))?)
            }
            (Float(a), Float(b)) => Float(a / b),
            (Int(a), Float(b)) => Float(*a as f64 / b),
            (Float(a), Int(b)) => Float(a / *b as f64),
            (a, b) => return Err(mismatch("division", a, b)),
        })
    }

    /// Modulo.
    pub fn rem(&self, other: &Value) -> Result<Value, AlgebraError> {
        use Value::*;
        Ok(match (self, other) {
            (Null, _) | (_, Null) => Null,
            (Int(a), Int(b)) => {
                if *b == 0 {
                    return Err(AlgebraError::Arithmetic("integer modulo by zero".into()));
                }
                // i64::MIN % -1 overflows.
                Int(a.checked_rem(*b).ok_or_else(|| overflow("modulo"))?)
            }
            (Float(a), Float(b)) => Float(a % b),
            (a, b) => return Err(mismatch("modulo", a, b)),
        })
    }

    /// Negate a numeric value. `-i64::MIN` is an overflow error, never a silent wrap.
    pub fn neg(&self) -> Result<Value, AlgebraError> {
        match self {
            Value::Null => Ok(Value::Null),
            Value::Int(i) => Ok(Value::Int(i.checked_neg().ok_or_else(|| overflow("negation"))?)),
            Value::Float(f) => Ok(Value::Float(-f)),
            other => Err(AlgebraError::type_mismatch("negation", other.data_type(), "numeric")),
        }
    }

    /// Cast the value to a target type.
    pub fn cast(&self, target: DataType) -> Result<Value, AlgebraError> {
        use Value::*;
        if self.is_null() {
            return Ok(Null);
        }
        let fail =
            || AlgebraError::ParseValue { text: self.to_string(), target: target.to_string() };
        Ok(match (self, target) {
            (v, t) if v.data_type() == t => v.clone(),
            (Int(i), DataType::Float) => Float(*i as f64),
            (Float(f), DataType::Int) => Int(*f as i64),
            (Int(i), DataType::Bool) => Bool(*i != 0),
            (Bool(b), DataType::Int) => Int(i64::from(*b)),
            (Int(i), DataType::Text) => Text(i.to_string().into()),
            (Float(f), DataType::Text) => Text(format_float(*f).into()),
            (Date(d), DataType::Text) => Text(format_date(*d).into()),
            (Date(d), DataType::Int) => Int(*d as i64),
            (Int(i), DataType::Date) => Date(*i as i32),
            (Text(s), DataType::Int) => Int(s.trim().parse::<i64>().map_err(|_| fail())?),
            (Text(s), DataType::Float) => Float(s.trim().parse::<f64>().map_err(|_| fail())?),
            (Text(s), DataType::Date) => Date(parse_date(s)?),
            (Text(s), DataType::Bool) => match s.trim().to_ascii_lowercase().as_str() {
                "t" | "true" | "1" => Bool(true),
                "f" | "false" | "0" => Bool(false),
                _ => return Err(fail()),
            },
            _ => return Err(fail()),
        })
    }

    /// Stable key used for hashing floats (total order, `-0.0 == 0.0`, all NaNs equal).
    pub(crate) fn float_key(f: f64) -> u64 {
        if f.is_nan() {
            u64::MAX
        } else if f == 0.0 {
            0f64.to_bits()
        } else {
            f.to_bits()
        }
    }

    /// Rank used to order values of incomparable types in the sorting total order. All numeric
    /// types (Int, Float, Date) share one rank because `sql_cmp` can compare any pair of them;
    /// within a rank, `sql_cmp` (plus the NaN rules of [`total_float_cmp`]) decides.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) | Value::Date(_) => 2,
            Value::Text(_) => 3,
        }
    }

    /// Is this a float NaN? NaN is the one numeric value `sql_cmp` cannot order; the sorting
    /// total order places it last (after every other numeric), with all NaNs tied.
    fn is_nan(&self) -> bool {
        matches!(self, Value::Float(f) if f.is_nan())
    }
}

/// An operation applied to values of types it does not take.
fn mismatch(operation: &str, a: &Value, b: &Value) -> AlgebraError {
    AlgebraError::type_mismatch(operation, a.data_type(), b.data_type())
}

/// Total ordering over floats for *sort keys*: `-0.0 == 0.0`, all NaNs compare equal and sort
/// after every non-NaN value. This is the ordering ORDER BY uses (deterministic even for NaN),
/// while SQL comparison *predicates* on NaN stay undefined (`sql_cmp` returns `None`, so
/// `x < NaN` is NULL-like false).
pub fn total_float_cmp(a: f64, b: f64) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Greater,
        (false, true) => Ordering::Less,
        // Non-NaN floats always compare; Equal is unreachable filler for the None arm.
        (false, false) => a.partial_cmp(&b).unwrap_or(Ordering::Equal),
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        use Value::*;
        match (self, other) {
            (Null, Null) => true,
            (Bool(a), Bool(b)) => a == b,
            (Int(a), Int(b)) => a == b,
            (Float(a), Float(b)) => Value::float_key(*a) == Value::float_key(*b),
            // Mixed-type grouping equality: all numeric types (Int, Float, Date) compare
            // numerically, consistent with `sql_cmp`, so hash joins and hash aggregation find
            // exactly the matches nested-loop comparison finds.
            (Int(a), Float(b)) | (Float(b), Int(a)) => (*a as f64) == *b,
            (Int(a), Date(b)) | (Date(b), Int(a)) => *a == *b as i64,
            (Float(a), Date(b)) | (Date(b), Float(a)) => *a == *b as f64,
            (Text(a), Text(b)) => a == b,
            (Date(a), Date(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => Value::hash_null(state),
            Value::Bool(b) => Value::hash_bool(*b, state),
            // Int, Float and Date all hash through the same numeric key so that grouping
            // equality and hash stay consistent for mixed numeric comparisons (a date hashes as
            // its day number; `i32 as f64` is exact).
            Value::Int(i) => Value::hash_number(*i as f64, state),
            Value::Float(f) => Value::hash_number(*f, state),
            Value::Date(d) => Value::hash_number(*d as f64, state),
            Value::Text(s) => Value::hash_text(s.as_bytes(), state),
        }
    }
}

/// What [`Hash`] feeds a hasher, kind by kind. [`crate::keys::hash_rows`] feeds the same from a
/// column's native buffers, so under one hasher a key hashes alike boxed and in place.
impl Value {
    pub(crate) fn hash_null<H: Hasher>(state: &mut H) {
        0u8.hash(state);
    }

    pub(crate) fn hash_bool<H: Hasher>(b: bool, state: &mut H) {
        1u8.hash(state);
        b.hash(state);
    }

    pub(crate) fn hash_number<H: Hasher>(f: f64, state: &mut H) {
        2u8.hash(state);
        Value::float_key(f).hash(state);
    }

    /// A text's UTF-8 bytes and a terminator no text contains (what `str` feeds, spelled out
    /// so that a column can hash a row's bytes without first proving them a `str`).
    pub(crate) fn hash_text<H: Hasher>(bytes: &[u8], state: &mut H) {
        4u8.hash(state);
        state.write(bytes);
        state.write_u8(0xff);
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// Total order used for sorting: NULLs first, then by type rank (booleans, numerics, text),
    /// then by value. Within the numeric rank `sql_cmp` decides, except that NaN sorts last
    /// (after every other numeric) with all NaNs tied — see [`total_float_cmp`].
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => return Ordering::Equal,
            (Null, _) => return Ordering::Less,
            (_, Null) => return Ordering::Greater,
            _ => {}
        }
        let (ra, rb) = (self.type_rank(), other.type_rank());
        if ra != rb {
            return ra.cmp(&rb);
        }
        match (self.is_nan(), other.is_nan()) {
            (true, true) => Ordering::Equal,
            (true, false) => Ordering::Greater,
            (false, true) => Ordering::Less,
            // Same-rank non-NaN values always compare; Equal is unreachable filler.
            (false, false) => self.sql_cmp(other).unwrap_or(Ordering::Equal),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Bool(b) => write!(f, "{}", if *b { "true" } else { "false" }),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(v) => f.write_str(&format_float(*v)),
            Value::Text(s) => f.write_str(s),
            Value::Date(d) => f.write_str(&format_date(*d)),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.into())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v.into())
    }
}

impl From<Arc<str>> for Value {
    fn from(v: Arc<str>) -> Self {
        Value::Text(v)
    }
}

fn overflow(operation: &str) -> AlgebraError {
    AlgebraError::ArithmeticOverflow { operation: operation.to_string() }
}

/// Shift a date by a signed number of days with full range checking (the day count must fit in
/// the i32 day range and the shifted date must not wrap).
fn checked_date_shift(date: i32, days: i64, operation: &str) -> Result<i32, AlgebraError> {
    i32::try_from(days).ok().and_then(|d| date.checked_add(d)).ok_or_else(|| overflow(operation))
}

/// Format a float without trailing noise (integral floats print without a fraction).
pub fn format_float(f: f64) -> String {
    if f.fract() == 0.0 && f.abs() < 1e15 {
        format!("{:.1}", f)
    } else {
        format!("{}", f)
    }
}

/// Days since 1970-01-01 for a proleptic Gregorian calendar date.
///
/// Uses Howard Hinnant's `days_from_civil` algorithm.
pub fn days_from_civil(year: i32, month: u32, day: u32) -> i32 {
    let y = if month <= 2 { year - 1 } else { year };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = (y - era * 400) as i64; // [0, 399]
    let m = month as i64;
    let d = day as i64;
    let doy = (153 * (m + if m > 2 { -3 } else { 9 }) + 2) / 5 + d - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    (era as i64 * 146097 + doe - 719468) as i32
}

/// Inverse of [`days_from_civil`]: (year, month, day) for days since 1970-01-01.
pub fn civil_from_days(days: i32) -> (i32, u32, u32) {
    let z = days as i64 + 719468;
    let era = if z >= 0 { z } else { z - 146096 } / 146097;
    let doe = z - era * 146097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = (if mp < 10 { mp + 3 } else { mp - 9 }) as u32; // [1, 12]
    ((y + i64::from(m <= 2)) as i32, m, d)
}

/// Add a number of calendar months to a date value given in days since the epoch, clamping the
/// day-of-month (e.g. Jan 31 + 1 month = Feb 28/29) like PostgreSQL.
pub fn add_months_to_days(days: i32, months: i32) -> i32 {
    let (y, m, d) = civil_from_days(days);
    let total = y * 12 + (m as i32 - 1) + months;
    let ny = total.div_euclid(12);
    let nm = total.rem_euclid(12) as u32 + 1;
    let max_day = days_in_month(ny, nm);
    let nd = d.min(max_day);
    days_from_civil(ny, nm, nd)
}

/// Number of days in a month of a given year.
pub fn days_in_month(year: i32, month: u32) -> u32 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if (year % 4 == 0 && year % 100 != 0) || year % 400 == 0 {
                29
            } else {
                28
            }
        }
        _ => 30,
    }
}

/// Parse `YYYY-MM-DD` into days since the epoch.
pub fn parse_date(s: &str) -> Result<i32, AlgebraError> {
    let fail = || AlgebraError::ParseValue { text: s.to_string(), target: "DATE".into() };
    let mut parts = s.trim().split('-');
    let year: i32 = parts.next().ok_or_else(fail)?.parse().map_err(|_| fail())?;
    let month: u32 = parts.next().ok_or_else(fail)?.parse().map_err(|_| fail())?;
    let day: u32 = parts.next().ok_or_else(fail)?.parse().map_err(|_| fail())?;
    if parts.next().is_some()
        || !(1..=12).contains(&month)
        || day == 0
        || day > days_in_month(year, month)
    {
        return Err(fail());
    }
    Ok(days_from_civil(year, month, day))
}

/// Format days since the epoch as `YYYY-MM-DD`.
pub fn format_date(days: i32) -> String {
    let (y, m, d) = civil_from_days(days);
    format!("{y:04}-{m:02}-{d:02}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sql_eq_with_null_is_unknown() {
        assert_eq!(Value::Null.sql_eq(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_eq(&Value::Null), None);
        assert_eq!(Value::Int(1).sql_eq(&Value::Int(1)), Some(true));
        assert_eq!(Value::Int(1).sql_eq(&Value::Int(2)), Some(false));
    }

    #[test]
    fn group_eq_treats_nulls_as_equal() {
        assert_eq!(Value::Null, Value::Null);
        assert_ne!(Value::Null, Value::Int(0));
    }

    #[test]
    fn mixed_numeric_comparison() {
        assert_eq!(Value::Int(2).sql_cmp(&Value::Float(2.0)), Some(Ordering::Equal));
        assert_eq!(Value::Float(1.5).sql_cmp(&Value::Int(2)), Some(Ordering::Less));
        assert_eq!(Value::Int(2), Value::Float(2.0));
    }

    #[test]
    fn float_hash_consistent_with_eq() {
        use std::collections::hash_map::DefaultHasher;
        fn h(v: &Value) -> u64 {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        }
        assert_eq!(h(&Value::Float(0.0)), h(&Value::Float(-0.0)));
        assert_eq!(Value::Float(0.0), Value::Float(-0.0));
        assert_eq!(h(&Value::Int(3)), h(&Value::Float(3.0)));
    }

    #[test]
    fn checked_arithmetic_overflows_are_errors() {
        let overflowed = |v: Result<Value, AlgebraError>, op: &str| {
            assert_eq!(
                v.unwrap_err(),
                AlgebraError::ArithmeticOverflow { operation: op.to_string() }
            );
        };
        overflowed(Value::Int(i64::MAX).add(&Value::Int(1)), "addition");
        overflowed(Value::Int(i64::MIN).sub(&Value::Int(1)), "subtraction");
        overflowed(Value::Int(i64::MAX).mul(&Value::Int(2)), "multiplication");
        overflowed(Value::Int(i64::MIN).div(&Value::Int(-1)), "division");
        overflowed(Value::Int(i64::MIN).rem(&Value::Int(-1)), "modulo");
        overflowed(Value::Int(i64::MIN).neg(), "negation");
        overflowed(Value::Date(i32::MAX).add(&Value::Int(1)), "addition");
        overflowed(Value::Date(0).add(&Value::Int(i64::MAX)), "addition");
        // NULL propagation and float arithmetic are unaffected.
        assert_eq!(Value::Null.add(&Value::Int(i64::MAX)).unwrap(), Value::Null);
        assert!(matches!(
            Value::Float(f64::MAX).mul(&Value::Float(2.0)).unwrap(),
            Value::Float(f) if f.is_infinite()
        ));
    }

    #[test]
    fn nan_sorts_last_and_compares_unknown() {
        // Sorting total order: NaN after every numeric, all NaNs tied; NULL still first.
        let mut vals = [
            Value::Float(f64::NAN),
            Value::Int(7),
            Value::Float(-1.0),
            Value::Null,
            Value::Float(f64::NAN),
            Value::Date(3),
        ];
        vals.sort();
        assert_eq!(vals[0], Value::Null);
        assert_eq!(vals[1], Value::Float(-1.0));
        assert_eq!(vals[2], Value::Date(3));
        assert_eq!(vals[3], Value::Int(7));
        assert!(matches!(vals[4], Value::Float(f) if f.is_nan()));
        assert!(matches!(vals[5], Value::Float(f) if f.is_nan()));
        // SQL comparison against NaN stays undefined (predicates treat it as false).
        assert_eq!(Value::Float(f64::NAN).sql_cmp(&Value::Float(1.0)), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Float(f64::NAN)), None);
        // The shared helper pins the same rules.
        assert_eq!(total_float_cmp(f64::NAN, f64::NAN), Ordering::Equal);
        assert_eq!(total_float_cmp(1.0, f64::NAN), Ordering::Less);
        assert_eq!(total_float_cmp(f64::NAN, -1.0), Ordering::Greater);
        assert_eq!(total_float_cmp(0.0, -0.0), Ordering::Equal);
    }

    #[test]
    fn date_hashes_and_equals_numerically() {
        use std::collections::hash_map::DefaultHasher;
        fn h(v: &Value) -> u64 {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        }
        // Date(d) groups with Int(d) and Float(d as f64): equality, hash and sql_cmp agree,
        // so hash joins and hash aggregation find the matches nested-loop comparison finds.
        assert_eq!(Value::Date(5), Value::Int(5));
        assert_eq!(Value::Date(5), Value::Float(5.0));
        assert_eq!(h(&Value::Date(5)), h(&Value::Int(5)));
        assert_eq!(h(&Value::Date(5)), h(&Value::Float(5.0)));
        assert_eq!(Value::Date(5).sql_cmp(&Value::Float(5.5)), Some(Ordering::Less));
        assert_ne!(Value::Date(5), Value::Date(6));
        assert_ne!(Value::Date(5), Value::text("5"));
    }

    #[test]
    fn arithmetic_basics() {
        assert_eq!(Value::Int(2).add(&Value::Int(3)).unwrap(), Value::Int(5));
        assert_eq!(Value::Int(2).mul(&Value::Float(1.5)).unwrap(), Value::Float(3.0));
        assert_eq!(Value::Int(7).div(&Value::Int(2)).unwrap(), Value::Int(3));
        assert_eq!(Value::Float(7.0).div(&Value::Int(2)).unwrap(), Value::Float(3.5));
        assert!(Value::Int(1).div(&Value::Int(0)).is_err());
        assert_eq!(Value::Null.add(&Value::Int(1)).unwrap(), Value::Null);
    }

    #[test]
    fn text_concatenation_via_add() {
        assert_eq!(Value::text("foo").add(&Value::text("bar")).unwrap(), Value::text("foobar"));
    }

    #[test]
    fn date_round_trip() {
        for s in ["1970-01-01", "1992-02-29", "1998-12-01", "2024-06-14", "1901-03-31"] {
            let days = parse_date(s).unwrap();
            assert_eq!(format_date(days), s, "round trip for {s}");
        }
        assert_eq!(parse_date("1970-01-01").unwrap(), 0);
        assert_eq!(parse_date("1970-01-02").unwrap(), 1);
        assert_eq!(parse_date("1969-12-31").unwrap(), -1);
    }

    #[test]
    fn invalid_dates_rejected() {
        assert!(parse_date("1970-13-01").is_err());
        assert!(parse_date("1970-02-30").is_err());
        assert!(parse_date("not-a-date").is_err());
        assert!(parse_date("1970-01").is_err());
    }

    #[test]
    fn add_months_clamps_day() {
        let jan31 = parse_date("1999-01-31").unwrap();
        assert_eq!(format_date(add_months_to_days(jan31, 1)), "1999-02-28");
        let leap = parse_date("2000-01-31").unwrap();
        assert_eq!(format_date(add_months_to_days(leap, 1)), "2000-02-29");
        let d = parse_date("1995-11-15").unwrap();
        assert_eq!(format_date(add_months_to_days(d, 3)), "1996-02-15");
        assert_eq!(format_date(add_months_to_days(d, -12)), "1994-11-15");
    }

    #[test]
    fn date_plus_int_days() {
        let d = Value::date_from_str("1995-01-01").unwrap();
        let later = d.add(&Value::Int(90)).unwrap();
        assert_eq!(later.to_string(), "1995-04-01");
        let diff = later.sub(&d).unwrap();
        assert_eq!(diff, Value::Int(90));
    }

    #[test]
    fn cast_between_types() {
        assert_eq!(Value::Int(3).cast(DataType::Float).unwrap(), Value::Float(3.0));
        assert_eq!(Value::text("42").cast(DataType::Int).unwrap(), Value::Int(42));
        assert_eq!(
            Value::text("1994-01-01").cast(DataType::Date).unwrap(),
            Value::date_from_str("1994-01-01").unwrap()
        );
        assert_eq!(Value::Null.cast(DataType::Int).unwrap(), Value::Null);
        assert!(Value::text("abc").cast(DataType::Int).is_err());
    }

    #[test]
    fn ordering_nulls_first_then_value() {
        let mut vals = vec![Value::Int(3), Value::Null, Value::Int(1), Value::Int(2)];
        vals.sort();
        assert_eq!(vals, vec![Value::Null, Value::Int(1), Value::Int(2), Value::Int(3)]);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Int(5).to_string(), "5");
        assert_eq!(Value::Float(2.5).to_string(), "2.5");
        assert_eq!(Value::Float(2.0).to_string(), "2.0");
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Bool(true).to_string(), "true");
    }

    #[test]
    fn common_type_resolution() {
        assert_eq!(DataType::Int.common_type(DataType::Float), Some(DataType::Float));
        assert_eq!(DataType::Null.common_type(DataType::Text), Some(DataType::Text));
        assert_eq!(DataType::Bool.common_type(DataType::Int), None);
    }
}
