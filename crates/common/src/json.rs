//! Declarative [`Json`] codecs: one description per record.
//!
//! Wire messages, journal records and result rows all travel as the
//! lossless [`Json`] value. This module is to that value what
//! [`crate::persist`] is to checkpoint bytes: a record's field list is
//! written once, beside its type, and both directions follow it.
//!
//! * [`JsonCodec`] — `to_json` / `from_json`, with impls for the
//!   primitives (narrow integers are range-checked on the way in),
//!   `Option` (`null`) and `Vec` (an array).
//! * [`field`] / [`field_or`] — the only readers of an object's fields
//!   and the owners of the error vocabulary: a missing field, or a
//!   present one that does not decode, is refused naming the field.
//! * [`json_as!`](crate::json_as) — a type carried as another (a
//!   newtype as its number, an enum as its label).
//! * [`json_record!`](crate::json_record) — a struct as an object, wire
//!   order = list order.
//! * [`json_tagged!`](crate::json_tagged) — an enum as an object whose
//!   first field is a tag naming the variant.
//!
//! The two tables emit *inherent* `to_json`/`from_json` (callers need no
//! trait import) plus the [`JsonCodec`] impl that makes the type usable
//! as a field of another table. Like `impl_persist!`, they construct
//! the type literally, so they are invoked in the defining crate.

use crate::journal::Json;

/// A value with one JSON form. `from_json(&v.to_json())` is `v`, and
/// rendering is deterministic, so the form is byte-stable.
pub trait JsonCodec: Sized {
    /// Encode.
    fn to_json(&self) -> Json;
    /// Decode; the error says what was expected (and, through
    /// [`field`], where).
    fn from_json(j: &Json) -> Result<Self, String>;
}

/// Read field `key` of object `j` through `decode`.
pub fn field_with<T>(
    j: &Json,
    key: &str,
    decode: impl FnOnce(&Json) -> Result<T, String>,
) -> Result<T, String> {
    let v = j.get(key).ok_or_else(|| format!("missing field `{key}`"))?;
    decode(v).map_err(|e| format!("field `{key}`: {e}"))
}

/// Read required field `key` of object `j`.
pub fn field<T: JsonCodec>(j: &Json, key: &str) -> Result<T, String> {
    field_with(j, key, T::from_json)
}

/// Read field `key` of object `j`, taking `absent` when there is no
/// such key (a field added after the format shipped). A key that is
/// present must still decode.
pub fn field_or<T: JsonCodec>(j: &Json, key: &str, absent: T) -> Result<T, String> {
    match j.get(key) {
        None => Ok(absent),
        Some(_) => field(j, key),
    }
}

/// The fields a flattened variant splices in after its tag.
pub fn flattened(inner: &impl JsonCodec) -> Vec<(String, Json)> {
    match inner.to_json() {
        Json::Obj(fields) => fields,
        other => unreachable!("a flattened variant holds a record, not {other:?}"),
    }
}

fn expected<T>(what: &str, found: &Json) -> Result<T, String> {
    Err(format!("expected {what}, found {}", found.render()))
}

impl JsonCodec for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
    fn from_json(j: &Json) -> Result<Self, String> {
        Ok(j.clone())
    }
}

impl JsonCodec for u64 {
    fn to_json(&self) -> Json {
        Json::u64(*self)
    }
    fn from_json(j: &Json) -> Result<Self, String> {
        j.as_u64()
            .map_or_else(|| expected("an unsigned integer", j), Ok)
    }
}

macro_rules! narrow_uint {
    ($($t:ty),*) => {$(
        impl JsonCodec for $t {
            fn to_json(&self) -> Json {
                Json::u64(*self as u64)
            }
            fn from_json(j: &Json) -> Result<Self, String> {
                let v = u64::from_json(j)?;
                <$t>::try_from(v)
                    .map_err(|_| format!("{v} is out of range for {}", stringify!($t)))
            }
        }
    )*};
}
narrow_uint!(u32, usize);

impl JsonCodec for f64 {
    fn to_json(&self) -> Json {
        Json::f64(*self)
    }
    fn from_json(j: &Json) -> Result<Self, String> {
        j.as_f64().map_or_else(|| expected("a number", j), Ok)
    }
}

impl JsonCodec for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
    fn from_json(j: &Json) -> Result<Self, String> {
        match j {
            Json::Bool(b) => Ok(*b),
            other => expected("a bool", other),
        }
    }
}

impl JsonCodec for String {
    fn to_json(&self) -> Json {
        Json::str(self)
    }
    fn from_json(j: &Json) -> Result<Self, String> {
        j.as_str()
            .map_or_else(|| expected("a string", j), |s| Ok(s.to_string()))
    }
}

impl<T: JsonCodec> JsonCodec for Option<T> {
    fn to_json(&self) -> Json {
        self.as_ref().map_or(Json::Null, T::to_json)
    }
    fn from_json(j: &Json) -> Result<Self, String> {
        match j {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<T: JsonCodec> JsonCodec for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(T::to_json).collect())
    }
    fn from_json(j: &Json) -> Result<Self, String> {
        let Some(items) = j.as_arr() else {
            return expected("an array", j);
        };
        items
            .iter()
            .enumerate()
            .map(|(i, item)| T::from_json(item).map_err(|e| format!("item {i}: {e}")))
            .collect()
    }
}

/// Give `$t` the JSON form of `$repr`: `to` maps a `&$t` to the `$repr`
/// that travels, `from` maps a decoded `$repr` back or refuses it.
#[macro_export]
macro_rules! json_as {
    ($t:ty as $repr:ty, $to:expr, $from:expr $(,)?) => {
        impl $crate::json::JsonCodec for $t {
            fn to_json(&self) -> $crate::journal::Json {
                let to: fn(&$t) -> $repr = $to;
                $crate::json::JsonCodec::to_json(&to(self))
            }
            fn from_json(j: &$crate::journal::Json) -> Result<Self, String> {
                let from: fn($repr) -> Result<$t, String> = $from;
                from(<$repr as $crate::json::JsonCodec>::from_json(j)?)
            }
        }
    };
}

/// Declare a struct's JSON object form by listing every field, in wire
/// order. Each field's type must be [`JsonCodec`]; `name = absent`
/// reads through [`field_or`], and `name via m` encodes and decodes
/// the field with `m::to_json(&field)` / `m::from_json(&Json)` (for a
/// field whose type cannot carry an impl of its own).
#[macro_export]
macro_rules! json_record {
    ($t:ty { $($f:ident $(via $w:ident)? $(= $absent:expr)?),* $(,)? }) => {
        impl $t {
            /// Encode as a JSON object, fields in declaration order.
            pub fn to_json(&self) -> $crate::journal::Json {
                $crate::journal::Json::Obj(vec![$((
                    stringify!($f).to_string(),
                    $crate::json_record!(@enc &self.$f $(, $w)?),
                )),*])
            }
            /// Decode a JSON object; an error names the field at fault.
            pub fn from_json(j: &$crate::journal::Json) -> Result<Self, String> {
                Ok(Self {
                    $($f: $crate::json_record!(@dec j $f $(via $w)? $(= $absent)?),)*
                })
            }
        }
        $crate::json_record!(@codec $t);
    };
    (@codec $t:ty) => {
        impl $crate::json::JsonCodec for $t {
            fn to_json(&self) -> $crate::journal::Json {
                <$t>::to_json(self)
            }
            fn from_json(j: &$crate::journal::Json) -> Result<Self, String> {
                <$t>::from_json(j)
            }
        }
    };
    (@enc $v:expr) => { $crate::json::JsonCodec::to_json($v) };
    (@enc $v:expr, $w:ident) => { $w::to_json($v) };
    (@dec $j:ident $f:ident) => { $crate::json::field($j, stringify!($f))? };
    (@dec $j:ident $f:ident = $absent:expr) => {
        $crate::json::field_or($j, stringify!($f), $absent)?
    };
    (@dec $j:ident $f:ident via $w:ident) => {
        $crate::json::field_with($j, stringify!($f), $w::from_json)?
    };
}

/// Declare an enum's internally tagged JSON object form: the first
/// field is `tag`, holding the variant's name, and the variant's own
/// fields follow in list order. A variant is written as it is defined
/// — `Unit`, `Struct { a, b }` — or, for a one-field tuple variant,
/// `Newtype(key)` (the payload is stored under `key`) or
/// `Newtype(..inner)` (the payload is a record whose fields are
/// spliced in flat after the tag).
#[macro_export]
macro_rules! json_tagged {
    ($t:ty, $tag:literal { $(
        $name:literal => $v:ident
            $({ $($f:ident),* $(,)? })?
            $(( $key:ident ))?
            $(( .. $flat:ident ))?
    ),* $(,)? }) => {
        impl $t {
            /// Encode as a JSON object led by its tag.
            pub fn to_json(&self) -> $crate::journal::Json {
                match self {$(
                    Self::$v $({ $($f),* })? $(($key))? $(($flat))? => {
                        #[allow(unused_mut)]
                        let mut o = vec![(
                            $tag.to_string(),
                            $crate::journal::Json::str($name),
                        )];
                        $($(o.push((
                            stringify!($f).to_string(),
                            $crate::json::JsonCodec::to_json($f),
                        ));)*)?
                        $(o.push((
                            stringify!($key).to_string(),
                            $crate::json::JsonCodec::to_json($key),
                        ));)?
                        $(o.extend($crate::json::flattened($flat));)?
                        $crate::journal::Json::Obj(o)
                    }
                )*}
            }
            /// Decode a JSON object by its tag; an error names the
            /// unknown tag or the field at fault.
            pub fn from_json(j: &$crate::journal::Json) -> Result<Self, String> {
                let name: String = $crate::json::field(j, $tag)?;
                match name.as_str() {
                    $($name => Ok(Self::$v
                        $({ $($f: $crate::json::field(j, stringify!($f))?),* })?
                        $(($crate::json::field(j, stringify!($key))?))?
                        $(({
                            let $flat = $crate::json::JsonCodec::from_json(j)?;
                            $flat
                        }))?
                    ),)*
                    other => Err(format!("unknown {} {other:?}", $tag)),
                }
            }
        }
        $crate::json_record!(@codec $t);
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Inner {
        a: u64,
        b: Option<u32>,
        late: usize,
    }
    json_record!(Inner {
        a,
        b = None,
        late = 7
    });

    #[derive(Debug, PartialEq)]
    enum Shape {
        Unit,
        Fields { x: f64, names: Vec<String> },
        Keyed(bool),
        Flat(Inner),
    }
    json_tagged!(Shape, "kind" {
        "unit" => Unit,
        "fields" => Fields { x, names },
        "keyed" => Keyed(on),
        "flat" => Flat(..inner),
    });

    #[test]
    fn tables_render_in_list_order_and_round_trip() {
        for (value, text) in [
            (Shape::Unit, r#"{"kind":"unit"}"#),
            (
                Shape::Fields {
                    x: 0.1 + 0.2,
                    names: vec!["p".into(), "q".into()],
                },
                r#"{"kind":"fields","x":0.30000000000000004,"names":["p","q"]}"#,
            ),
            (Shape::Keyed(true), r#"{"kind":"keyed","on":true}"#),
            (
                Shape::Flat(Inner {
                    a: u64::MAX,
                    b: None,
                    late: 3,
                }),
                r#"{"kind":"flat","a":18446744073709551615,"b":null,"late":3}"#,
            ),
        ] {
            assert_eq!(value.to_json().render(), text);
            assert_eq!(Shape::from_json(&Json::parse(text).unwrap()), Ok(value));
        }
    }

    #[test]
    fn absent_fields_take_their_stated_value_and_present_ones_must_decode() {
        let parse = |t: &str| Inner::from_json(&Json::parse(t).unwrap());
        assert_eq!(
            parse(r#"{"a":1}"#),
            Ok(Inner {
                a: 1,
                b: None,
                late: 7
            })
        );
        let err = parse(r#"{"a":1,"late":"x"}"#).unwrap_err();
        assert_eq!(
            err,
            "field `late`: expected an unsigned integer, found \"x\""
        );
        assert_eq!(parse(r#"{"b":2}"#).unwrap_err(), "missing field `a`");
    }

    #[test]
    fn refusals_name_the_field_and_the_reason() {
        let parse = |t: &str| Shape::from_json(&Json::parse(t).unwrap());
        assert_eq!(parse(r#"{"x":1}"#).unwrap_err(), "missing field `kind`");
        assert_eq!(
            parse(r#"{"kind":"blob"}"#).unwrap_err(),
            "unknown kind \"blob\""
        );
        assert_eq!(
            parse(r#"{"kind":"flat","a":1,"b":4294967296}"#).unwrap_err(),
            "field `b`: 4294967296 is out of range for u32"
        );
        assert_eq!(
            parse(r#"{"kind":"fields","x":1.5,"names":["p",2]}"#).unwrap_err(),
            "field `names`: item 1: expected a string, found 2"
        );
        assert_eq!(
            parse(r#"{"kind":"keyed","on":-1}"#).unwrap_err(),
            "field `on`: expected a bool, found -1"
        );
        assert!(u64::from_json(&Json::parse("-1").unwrap()).is_err());
        assert!(u64::from_json(&Json::parse("1.5").unwrap()).is_err());
    }
}
