//! Structured telemetry events and their JSONL wire format.
//!
//! An [`Event`] is a kind tag plus an ordered list of typed fields. On the
//! wire each event is one JSON object per line: the kind under the `"event"`
//! key first, then the fields in insertion order —
//! `{"event":"epoch","epoch":3,"loss":0.52}`. Strings are escaped and
//! lines parsed by the workspace's one JSON implementation,
//! [`inf2vec_util::json`].
//!
//! Numbers: integers serialize without a decimal point and parse back as
//! [`Value::U64`]/[`Value::I64`]; floats serialize via Rust's shortest
//! round-trip representation (always with a `.` or exponent) and parse back
//! as [`Value::F64`] bit-exactly. Non-finite floats are not valid JSON, so
//! they serialize as the strings `"NaN"`, `"Infinity"`, `"-Infinity"`;
//! [`Value::as_f64`] converts them back.

use inf2vec_util::json::{push_json_string, Json, JsonError};

/// A typed event field value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed (negative) integer.
    I64(i64),
    /// Finite or non-finite float (non-finite serializes as a string).
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
}

impl Value {
    /// Numeric view: integers and floats coerce; the non-finite string
    /// spellings (`"NaN"`, `"Infinity"`, `"-Infinity"`) parse back.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::U64(v) => Some(*v as f64),
            Value::I64(v) => Some(*v as f64),
            Value::F64(v) => Some(*v),
            Value::Bool(_) => None,
            Value::Str(s) => match s.as_str() {
                "NaN" => Some(f64::NAN),
                "Infinity" => Some(f64::INFINITY),
                "-Infinity" => Some(f64::NEG_INFINITY),
                _ => None,
            },
        }
    }

    /// Unsigned-integer view (exact only).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(v) => Some(*v),
            Value::I64(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// One structured telemetry event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    kind: String,
    fields: Vec<(String, Value)>,
}

impl Event {
    /// A new event of the given kind with no fields yet.
    pub fn new(kind: impl Into<String>) -> Self {
        Self {
            kind: kind.into(),
            fields: Vec::new(),
        }
    }

    /// The event kind.
    pub fn kind(&self) -> &str {
        &self.kind
    }

    /// The fields in insertion order.
    pub fn fields(&self) -> &[(String, Value)] {
        &self.fields
    }

    /// First field with the given key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Appends a field (builder style).
    pub fn field(mut self, key: impl Into<String>, value: Value) -> Self {
        self.fields.push((key.into(), value));
        self
    }

    /// Appends an unsigned-integer field.
    pub fn u64(self, key: impl Into<String>, v: u64) -> Self {
        self.field(key, Value::U64(v))
    }

    /// Appends a float field.
    pub fn f64(self, key: impl Into<String>, v: f64) -> Self {
        self.field(key, Value::F64(v))
    }

    /// Appends a boolean field.
    pub fn bool(self, key: impl Into<String>, v: bool) -> Self {
        self.field(key, Value::Bool(v))
    }

    /// Appends a string field.
    pub fn str(self, key: impl Into<String>, v: impl Into<String>) -> Self {
        self.field(key, Value::Str(v.into()))
    }

    /// Serializes as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(32 + self.fields.len() * 16);
        out.push_str("{\"event\":");
        push_json_string(&mut out, &self.kind);
        for (k, v) in &self.fields {
            out.push(',');
            push_json_string(&mut out, k);
            out.push(':');
            write_json_value(&mut out, v);
        }
        out.push('}');
        out
    }

    /// Parses one JSON object produced by [`to_json`](Self::to_json) (or any
    /// flat JSON object of scalars with a string `"event"` key).
    pub fn from_json(s: &str) -> Result<Self, JsonError> {
        // The document parsed; only its shape is wrong.
        let invalid = |message: String| JsonError { offset: 0, message };
        let Json::Obj(members) = Json::parse(s)? else {
            return Err(invalid("an event is a JSON object".into()));
        };
        let mut kind: Option<String> = None;
        let mut fields = Vec::with_capacity(members.len());
        for (key, value) in members {
            let value = match value {
                Json::U64(v) => Value::U64(v),
                Json::I64(v) => Value::I64(v),
                Json::F64(v) => Value::F64(v),
                Json::Bool(b) => Value::Bool(b),
                Json::Str(s) => Value::Str(s),
                Json::Null | Json::Arr(_) | Json::Obj(_) => {
                    return Err(invalid(format!("field {key:?} is not a scalar")));
                }
            };
            if key != "event" {
                fields.push((key, value));
                continue;
            }
            match value {
                Value::Str(k) if kind.is_none() => kind = Some(k),
                Value::Str(_) => return Err(invalid("duplicate \"event\" key".into())),
                _ => return Err(invalid("\"event\" must be a string".into())),
            }
        }
        let kind = kind.ok_or_else(|| invalid("missing \"event\" key".into()))?;
        Ok(Self { kind, fields })
    }
}

fn write_json_value(out: &mut String, v: &Value) {
    match v {
        Value::U64(n) => out.push_str(&n.to_string()),
        Value::I64(n) => out.push_str(&n.to_string()),
        Value::F64(x) if x.is_finite() => {
            // `{:?}` is Rust's shortest round-trip float form and always
            // contains a '.' or exponent, so integral floats stay floats.
            out.push_str(&format!("{x:?}"));
        }
        Value::F64(x) => {
            let s = if x.is_nan() {
                "NaN"
            } else if *x > 0.0 {
                "Infinity"
            } else {
                "-Infinity"
            };
            push_json_string(out, s);
        }
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Str(s) => push_json_string(out, s),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_accessors() {
        let e = Event::new("epoch").u64("epoch", 3).f64("loss", 0.5);
        assert_eq!(e.kind(), "epoch");
        assert_eq!(e.get("epoch"), Some(&Value::U64(3)));
        assert_eq!(e.get("loss").and_then(Value::as_f64), Some(0.5));
        assert_eq!(e.get("missing"), None);
    }

    #[test]
    fn json_shape_is_stable() {
        let e = Event::new("epoch")
            .u64("epoch", 3)
            .f64("loss", 0.52)
            .f64("whole", 2.0)
            .bool("ok", true)
            .str("phase", "train");
        assert_eq!(
            e.to_json(),
            r#"{"event":"epoch","epoch":3,"loss":0.52,"whole":2.0,"ok":true,"phase":"train"}"#
        );
    }

    #[test]
    fn round_trip_preserves_types_and_order() {
        let e = Event::new("shard")
            .u64("pairs", 123_456)
            .u64("max", u64::MAX)
            .field("delta", Value::I64(-5))
            .f64("secs", 0.125)
            .f64("rate", 3.0)
            .bool("degraded", false)
            .str("msg", "a \"quoted\"\nline\tπ");
        let back = Event::from_json(&e.to_json()).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn non_finite_floats_round_trip_via_strings() {
        let e = Event::new("x")
            .f64("nan", f64::NAN)
            .f64("inf", f64::INFINITY)
            .f64("ninf", f64::NEG_INFINITY);
        let back = Event::from_json(&e.to_json()).unwrap();
        assert!(back.get("nan").unwrap().as_f64().unwrap().is_nan());
        assert_eq!(
            back.get("inf").unwrap().as_f64(),
            Some(f64::INFINITY)
        );
        assert_eq!(
            back.get("ninf").unwrap().as_f64(),
            Some(f64::NEG_INFINITY)
        );
    }

    #[test]
    fn parser_rejects_garbage() {
        for bad in [
            "",
            "{",
            "{}",                                  // missing "event"
            r#"{"event":3}"#,                      // non-string kind
            r#"{"event":"a","x":}"#,               // missing value
            r#"{"event":"a"} extra"#,              // trailing junk
            r#"{"event":"a","x":[1]}"#,            // nested values unsupported
            r#"{"event":"a","event":"b"}"#,        // duplicate kind
            r#"{"event":"a","x":1e}"#,             // malformed number
            "{\"event\":\"a\",\"x\":\"unterminated",
        ] {
            assert!(Event::from_json(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn parser_accepts_whitespace_and_escapes() {
        let e = Event::from_json(
            " { \"event\" : \"k\" , \"s\" : \"\\u00e9\\t\" , \"n\" : -7 } ",
        )
        .unwrap();
        assert_eq!(e.kind(), "k");
        assert_eq!(e.get("s"), Some(&Value::Str("é\t".into())));
        assert_eq!(e.get("n"), Some(&Value::I64(-7)));
    }
}
