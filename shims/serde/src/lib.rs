//! Offline stand-in for `serde`.
//!
//! The build environment cannot reach crates.io, so this shim provides
//! the subset of serde the workspace uses: `#[derive(Serialize,
//! Deserialize)]` over structs with named fields and enums with unit /
//! struct variants.
//!
//! The data model is deliberately JSON-shaped rather than serde's full
//! visitor architecture. Serialising streams JSON text straight from
//! the value through a [`JsonWriter`] (compact or 2-space pretty), with
//! no intermediate tree. Deserialising goes through the in-memory
//! [`Value`] tree that the sibling `serde_json` shim parses; `Value`
//! exists for parsing, and serialises like any other type. The derive
//! macros live in the `serde_derive` shim and are re-exported here, so
//! `use serde::{Serialize, Deserialize}` imports both the traits and
//! the derives exactly as with real serde.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use serde_derive::{Deserialize, Serialize};

use std::collections::BTreeMap;
use std::fmt::Write;
use std::time::Duration;

/// An in-memory JSON-like document tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// A boolean.
    Bool(bool),
    /// A signed integer (also covers every non-negative integer the
    /// workspace serialises; magnitudes here are far below `i64::MAX`).
    Int(i64),
    /// A floating-point number.
    Float(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; insertion order is preserved.
    Object(Vec<(String, Value)>),
}

/// The sentinel returned when indexing a missing key.
const NULL: Value = Value::Null;

impl Value {
    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The array payload, if this is an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Numeric payload widened to `f64` (integers convert).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Numeric payload as `u64`, if integral and non-negative.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(i) if *i >= 0 => Some(*i as u64),
            Value::Float(f) if *f >= 0.0 && f.fract() == 0.0 => Some(*f as u64),
            _ => None,
        }
    }

    /// Object member lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Object member lookup that reports a typed error on absence —
    /// the accessor the derived `Deserialize` impls use.
    pub fn field(&self, key: &str) -> Result<&Value, DeError> {
        self.get(key)
            .ok_or_else(|| DeError(format!("missing field `{key}`")))
    }
}

impl std::ops::Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;
    fn index(&self, i: usize) -> &Value {
        match self {
            Value::Array(a) => a.get(i).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

/// Deserialisation error: a human-readable mismatch description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeError(pub String);

impl std::fmt::Display for DeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for DeError {}

/// Writing as JSON text, straight from the value: no intermediate
/// tree is built.
pub trait Serialize {
    /// Write `self` into `w`.
    fn serialize(&self, w: &mut JsonWriter<'_>);
}

/// Conversion out of the [`Value`] tree.
pub trait Deserialize: Sized {
    /// Deserialise from `v`.
    fn from_value(v: &Value) -> Result<Self, DeError>;
}

// ---- primitive impls ----

macro_rules! ser_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, w: &mut JsonWriter<'_>) { w.int(*self as i64) }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::Int(i) => <$t>::try_from(*i)
                        .map_err(|_| DeError(format!("{i} out of range for {}", stringify!($t)))),
                    Value::Float(f) if f.fract() == 0.0 => Ok(*f as $t),
                    other => Err(DeError(format!(
                        "expected integer for {}, got {other:?}", stringify!($t)
                    ))),
                }
            }
        }
    )*};
}
ser_int!(u8, u16, u32, i8, i16, i32, i64, usize);

// Above `i64::MAX` a `u64` wraps to a negative number.
impl Serialize for u64 {
    fn serialize(&self, w: &mut JsonWriter<'_>) {
        w.int(*self as i64)
    }
}
impl Deserialize for u64 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_u64()
            .ok_or_else(|| DeError(format!("expected unsigned integer, got {v:?}")))
    }
}

impl Serialize for f64 {
    fn serialize(&self, w: &mut JsonWriter<'_>) {
        w.float(*self)
    }
}
impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_f64()
            .ok_or_else(|| DeError(format!("expected number, got {v:?}")))
    }
}

impl Serialize for f32 {
    fn serialize(&self, w: &mut JsonWriter<'_>) {
        w.float(*self as f64)
    }
}
impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        f64::from_value(v).map(|f| f as f32)
    }
}

impl Serialize for bool {
    fn serialize(&self, w: &mut JsonWriter<'_>) {
        w.bool(*self)
    }
}
impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_bool()
            .ok_or_else(|| DeError(format!("expected bool, got {v:?}")))
    }
}

impl Serialize for String {
    fn serialize(&self, w: &mut JsonWriter<'_>) {
        w.string(self)
    }
}
impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| DeError(format!("expected string, got {v:?}")))
    }
}

impl Serialize for str {
    fn serialize(&self, w: &mut JsonWriter<'_>) {
        w.string(self)
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self, w: &mut JsonWriter<'_>) {
        (**self).serialize(w)
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self, w: &mut JsonWriter<'_>) {
        self.as_slice().serialize(w)
    }
}
impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            other => Err(DeError(format!("expected array, got {other:?}"))),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self, w: &mut JsonWriter<'_>) {
        let mut a = w.array();
        for item in self {
            w.item(&mut a, item);
        }
        w.close(a);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self, w: &mut JsonWriter<'_>) {
        match self {
            Some(t) => t.serialize(w),
            None => w.null(),
        }
    }
}
impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn serialize(&self, w: &mut JsonWriter<'_>) {
        [&self.0 as &dyn Serialize, &self.1].serialize(w)
    }
}
impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Array(items) if items.len() == 2 => {
                Ok((A::from_value(&items[0])?, B::from_value(&items[1])?))
            }
            other => Err(DeError(format!("expected 2-tuple, got {other:?}"))),
        }
    }
}

impl<A: Serialize, B: Serialize, C: Serialize> Serialize for (A, B, C) {
    fn serialize(&self, w: &mut JsonWriter<'_>) {
        [&self.0 as &dyn Serialize, &self.1, &self.2].serialize(w)
    }
}
impl<A: Deserialize, B: Deserialize, C: Deserialize> Deserialize for (A, B, C) {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Array(items) if items.len() == 3 => Ok((
                A::from_value(&items[0])?,
                B::from_value(&items[1])?,
                C::from_value(&items[2])?,
            )),
            other => Err(DeError(format!("expected 3-tuple, got {other:?}"))),
        }
    }
}

impl<K: ToString + std::str::FromStr + Ord, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize(&self, w: &mut JsonWriter<'_>) {
        let mut o = w.object();
        for (k, v) in self {
            w.field(&mut o, &k.to_string(), v);
        }
        w.close(o);
    }
}

// Match real serde's `{ "secs": u64, "nanos": u32 }` encoding.
impl Serialize for Duration {
    fn serialize(&self, w: &mut JsonWriter<'_>) {
        let mut o = w.object();
        w.field(&mut o, "secs", &self.as_secs());
        w.field(&mut o, "nanos", &self.subsec_nanos());
        w.close(o);
    }
}
impl Deserialize for Duration {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let secs = u64::from_value(v.field("secs")?)?;
        let nanos = u32::from_value(v.field("nanos")?)?;
        Ok(Duration::new(secs, nanos))
    }
}

impl Serialize for Value {
    fn serialize(&self, w: &mut JsonWriter<'_>) {
        match self {
            Value::Null => w.null(),
            Value::Bool(b) => w.bool(*b),
            Value::Int(i) => w.int(*i),
            Value::Float(f) => w.float(*f),
            Value::String(s) => w.string(s),
            Value::Array(items) => items.serialize(w),
            Value::Object(pairs) => {
                let mut o = w.object();
                for (k, v) in pairs {
                    w.field(&mut o, k, v);
                }
                w.close(o);
            }
        }
    }
}

// ---- writer ----

/// Streams JSON text into a `String`: compact, or pretty with a 2-space
/// indent. Scalars are written by one call each; an array or object is
/// opened ([`JsonWriter::array`], [`JsonWriter::object`]), given its
/// members ([`JsonWriter::item`], [`JsonWriter::field`]) and closed
/// ([`JsonWriter::close`]). An empty one writes as `[]` or `{}` in both
/// forms.
#[derive(Debug)]
pub struct JsonWriter<'a> {
    out: &'a mut String,
    pretty: bool,
    depth: usize,
}

/// An array or object a [`JsonWriter`] has opened and not yet closed.
#[derive(Debug)]
#[must_use = "an opened array or object must be closed"]
pub struct Open {
    close: char,
    empty: bool,
}

impl<'a> JsonWriter<'a> {
    /// A writer appending compact JSON to `out`.
    pub fn compact(out: &'a mut String) -> Self {
        JsonWriter { out, pretty: false, depth: 0 }
    }

    /// A writer appending pretty JSON (2-space indent) to `out`.
    pub fn pretty(out: &'a mut String) -> Self {
        JsonWriter { out, pretty: true, depth: 0 }
    }

    /// JSON `null`.
    pub fn null(&mut self) {
        self.out.push_str("null");
    }

    /// A boolean.
    pub fn bool(&mut self, b: bool) {
        self.out.push_str(if b { "true" } else { "false" });
    }

    /// An integer.
    pub fn int(&mut self, i: i64) {
        let _ = write!(self.out, "{i}");
    }

    /// A float. A whole float keeps its point (`1.0`, as serde_json
    /// prints it, not `1`) below 1e15.
    pub fn float(&mut self, f: f64) {
        if f.is_finite() {
            if f == f.trunc() && f.abs() < 1e15 {
                let _ = write!(self.out, "{f:.1}");
            } else {
                let _ = write!(self.out, "{f}");
            }
        } else {
            // JSON has no NaN/Inf; real serde_json errors here, but the
            // workspace never serialises non-finite values, so null is
            // a safe degenerate encoding.
            self.null();
        }
    }

    /// A string, with `"`, `\`, `\n`, `\r` and `\t` escaped by name
    /// and every other control character as `\u00XX`.
    pub fn string(&mut self, s: &str) {
        self.out.push('"');
        let mut plain = 0;
        // Every escaped character is ASCII, so byte offsets are char
        // boundaries.
        for (i, b) in s.bytes().enumerate() {
            let named = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0..=0x1f => "",
                _ => continue,
            };
            self.out.push_str(&s[plain..i]);
            if named.is_empty() {
                let _ = write!(self.out, "\\u{b:04x}");
            } else {
                self.out.push_str(named);
            }
            plain = i + 1;
        }
        self.out.push_str(&s[plain..]);
        self.out.push('"');
    }

    /// Open an array.
    pub fn array(&mut self) -> Open {
        self.open('[', ']')
    }

    /// Open an object.
    pub fn object(&mut self) -> Open {
        self.open('{', '}')
    }

    /// Write `value` as the next element of array `a`.
    pub fn item<T: Serialize + ?Sized>(&mut self, a: &mut Open, value: &T) {
        self.next(a);
        value.serialize(self);
    }

    /// Write member `key` of object `o`, with `value`.
    pub fn field<T: Serialize + ?Sized>(&mut self, o: &mut Open, key: &str, value: &T) {
        self.key(o, key);
        value.serialize(self);
    }

    /// Start member `key` of object `o`; the next value written is its
    /// value.
    pub fn key(&mut self, o: &mut Open, key: &str) {
        self.next(o);
        self.string(key);
        self.out.push_str(if self.pretty { ": " } else { ":" });
    }

    /// Close `open`.
    pub fn close(&mut self, open: Open) {
        self.depth -= 1;
        if !open.empty {
            self.newline();
        }
        self.out.push(open.close);
    }

    fn open(&mut self, open: char, close: char) -> Open {
        self.out.push(open);
        self.depth += 1;
        Open { close, empty: true }
    }

    /// The separator before a member: a comma after the first, then,
    /// when pretty, a new line at the member's depth.
    fn next(&mut self, open: &mut Open) {
        if !open.empty {
            self.out.push(',');
        }
        open.empty = false;
        self.newline();
    }

    fn newline(&mut self) {
        if self.pretty {
            self.out.push('\n');
            self.out.extend(std::iter::repeat_n(' ', 2 * self.depth));
        }
    }
}
impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(v.clone())
    }
}
