//! Hand-rolled JSON substrate shared by the trace schema
//! ([`crate::telemetry`]), the `cdbtuned` wire protocol and everything
//! persisted ([`crate::persist`]).
//!
//! Deliberately **zero-dependency** (std only): the workspace has no
//! registry package, so every format is spelled out over this module. The
//! writers keep field emission order stable so encode→decode→encode is a
//! fixed point; the parser is a minimal recursive-descent reader covering
//! exactly the JSON subset the schemas emit (objects, arrays, strings,
//! numbers, booleans, null).
//!
//! The two line formats (trace events, wire messages) are declared as field
//! tables: [`line_struct!`](crate::line_struct) for a nested object and
//! [`line_enum!`](crate::line_enum) for the tagged variants of a line. A
//! table generates both the encoder, which streams through [`Obj`], and the
//! lenient decoder, through [`LineField`]. Under `cfg(test)` a table also
//! draws seeded random values through [`Arbitrary`], for encode-side fuzzing.

use rand::Rng;
use std::fmt::Write as _;

/// Serializes an f64 so the line stays valid JSON: non-finite values
/// (which the encoders should never produce) are written as `null` rather
/// than `NaN`/`inf`.
pub fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // `{:?}` prints the shortest representation that round-trips.
        let _ = write!(out, "{v:?}");
    } else {
        out.push_str("null");
    }
}

/// Appends a JSON string literal with the escapes the parser understands.
pub fn push_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Builder for one flat JSON object; keeps field emission order stable so
/// encode→decode→encode is a fixed point (the tier-1 round-trip check).
pub struct Obj {
    out: String,
    first: bool,
}

impl Default for Obj {
    fn default() -> Self {
        Self::new()
    }
}

impl Obj {
    /// Starts an empty object.
    pub fn new() -> Self {
        Self { out: String::from("{"), first: true }
    }

    fn key(&mut self, k: &str) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        push_str(&mut self.out, k);
        self.out.push(':');
    }

    /// Emits an unsigned-integer field.
    pub fn u64(&mut self, k: &str, v: u64) -> &mut Self {
        self.key(k);
        self.out.push_str(&v.to_string());
        self
    }

    /// Emits a float field (`null` when non-finite).
    pub fn f64(&mut self, k: &str, v: f64) -> &mut Self {
        self.key(k);
        push_f64(&mut self.out, v);
        self
    }

    /// Emits a boolean field.
    pub fn bool(&mut self, k: &str, v: bool) -> &mut Self {
        self.key(k);
        self.out.push_str(if v { "true" } else { "false" });
        self
    }

    /// Emits a string field.
    pub fn str(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k);
        push_str(&mut self.out, v);
        self
    }

    /// Emits an array-of-floats field.
    pub fn f64_array(&mut self, k: &str, vs: &[f64]) -> &mut Self {
        self.key(k);
        self.out.push('[');
        for (i, v) in vs.iter().enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            push_f64(&mut self.out, *v);
        }
        self.out.push(']');
        self
    }

    /// Nested object: `build` fills the sub-object.
    pub fn obj(&mut self, k: &str, build: impl FnOnce(&mut Obj)) -> &mut Self {
        self.key(k);
        let mut sub = Obj::new();
        build(&mut sub);
        self.out.push_str(&sub.finish());
        self
    }

    /// Closes the object and returns the JSON text.
    pub fn finish(mut self) -> String {
        self.out.push('}');
        self.out
    }
}

/// A parsed JSON value (only what the line-oriented schemas need).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as f64).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source field order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document.
    pub fn parse(s: &str) -> Result<Self, String> {
        Parser::new(s).value()
    }

    /// An object from `(key, value)` pairs, in the order given.
    pub fn obj<const N: usize>(fields: [(&str, Json); N]) -> Self {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Appends the value as compact JSON text; `parse` reads it back equal
    /// (non-finite numbers excepted, which are written as `null`).
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // Whole numbers (dimensions, indices, counts) without the `.0`.
            Json::Num(n) if n.fract() == 0.0 && n.abs() < 1e15 => {
                let _ = write!(out, "{n}");
            }
            Json::Num(n) => push_f64(out, *n),
            Json::Str(s) => push_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_str(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// The value as compact JSON text.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Field lookup on an object (`None` for other variants).
    pub fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric field, defaulting to 0 (the schemas' missing-field rule).
    pub fn num(&self, key: &str) -> f64 {
        match self.get(key) {
            Some(Json::Num(n)) => *n,
            _ => 0.0,
        }
    }

    /// Unsigned-integer field, defaulting to 0.
    pub fn u64(&self, key: &str) -> u64 {
        self.num(key) as u64
    }

    /// Boolean field, defaulting to false.
    pub fn boolean(&self, key: &str) -> bool {
        matches!(self.get(key), Some(Json::Bool(true)))
    }

    /// String field, defaulting to empty.
    pub fn string(&self, key: &str) -> String {
        match self.get(key) {
            Some(Json::Str(s)) => s.clone(),
            _ => String::new(),
        }
    }

    /// Array-of-floats field, defaulting to empty (non-numeric items → 0).
    pub fn f64_array(&self, key: &str) -> Vec<f64> {
        match self.get(key) {
            Some(Json::Arr(items)) => items
                .iter()
                .map(|v| if let Json::Num(n) = v { *n } else { 0.0 })
                .collect(),
            _ => Vec::new(),
        }
    }
}

/// One field of a line format: how a value is written under a key and read
/// back. Reading is lenient, the line schemas' rule: an absent or mistyped
/// field takes the type's default, so adding a field stays compatible.
pub trait LineField: Sized {
    /// Writes the value as field `key` of `o`.
    fn put(&self, o: &mut Obj, key: &str);
    /// Reads field `key` of the object `j`.
    fn take(j: &Json, key: &str) -> Self;
}

/// Below 2^53 a bare number, exact in the `f64` every reader parses into;
/// from 2^53 on a decimal string ([`crate::persist`]'s rule), which a reader
/// from before the rule takes for an absent field, 0, not a rounded one.
impl LineField for u64 {
    fn put(&self, o: &mut Obj, key: &str) {
        if *self < 1 << 53 {
            o.u64(key, *self);
        } else {
            o.str(key, &self.to_string());
        }
    }

    fn take(j: &Json, key: &str) -> Self {
        match j.get(key) {
            Some(Json::Str(s)) => s.parse().unwrap_or(0),
            _ => j.u64(key),
        }
    }
}

impl LineField for f64 {
    fn put(&self, o: &mut Obj, key: &str) {
        o.f64(key, *self);
    }

    fn take(j: &Json, key: &str) -> Self {
        j.num(key)
    }
}

impl LineField for bool {
    fn put(&self, o: &mut Obj, key: &str) {
        o.bool(key, *self);
    }

    fn take(j: &Json, key: &str) -> Self {
        j.boolean(key)
    }
}

impl LineField for String {
    fn put(&self, o: &mut Obj, key: &str) {
        o.str(key, self);
    }

    fn take(j: &Json, key: &str) -> Self {
        j.string(key)
    }
}

impl LineField for Vec<f64> {
    fn put(&self, o: &mut Obj, key: &str) {
        o.f64_array(key, self);
    }

    fn take(j: &Json, key: &str) -> Self {
        j.f64_array(key)
    }
}

/// The generator [`Arbitrary`] draws from.
pub type FuzzRng = rand::rngs::StdRng;

/// Seeded random values of a line field, for encode-side fuzzing: what a
/// field table draws member by member to check that every value it writes
/// reads back as written. Floats are finite (JSON has no other numbers);
/// integers reach past 2^53, where [`LineField`] switches to a string.
pub trait Arbitrary {
    /// A value drawn from `rng`.
    fn arbitrary(rng: &mut FuzzRng) -> Self;
}

impl Arbitrary for u64 {
    fn arbitrary(rng: &mut FuzzRng) -> Self {
        match rng.gen_range(0..4u32) {
            0 => rng.gen_range(0..1_000),
            1 => (1 << 53) + rng.gen_range(0..5) - 2,
            2 => u64::MAX - rng.gen_range(0..3),
            _ => rng.gen(),
        }
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut FuzzRng) -> Self {
        match rng.gen_range(0..3u32) {
            0 => rng.gen_range(-1e4..1e4),
            1 => f64::from(rng.gen_range(0..10_000u32)),
            // Any finite bit pattern: subnormals, extremes, negative zero.
            _ => loop {
                let x = f64::from_bits(rng.gen());
                if x.is_finite() {
                    break x;
                }
            },
        }
    }
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut FuzzRng) -> Self {
        rng.gen()
    }
}

impl Arbitrary for String {
    fn arbitrary(rng: &mut FuzzRng) -> Self {
        // Plain characters, every escape the writer knows, and multi-byte
        // UTF-8.
        const CHARS: [char; 16] = [
            'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1f}', '\u{7f}',
            '\u{e9}', '\u{4e2d}', '\u{1f980}',
        ];
        (0..rng.gen_range(0..12)).map(|_| CHARS[rng.gen_range(0..CHARS.len())]).collect()
    }
}

impl Arbitrary for Vec<f64> {
    fn arbitrary(rng: &mut FuzzRng) -> Self {
        (0..rng.gen_range(0..6)).map(|_| f64::arbitrary(rng)).collect()
    }
}

/// Implements [`LineField`](crate::jsonio::LineField) for a struct as a
/// nested object: one key per member, in the order listed; `member: "key"`
/// writes a member under another key. The encoder destructures and the
/// decoder constructs without `..`, so the list must name every member.
/// Under `cfg(test)` it also implements
/// [`Arbitrary`](crate::jsonio::Arbitrary), member by member.
#[macro_export]
macro_rules! line_struct {
    (@key $field:ident) => { stringify!($field) };
    (@key $field:ident $key:literal) => { $key };
    ($ty:ty { $($field:ident $(: $key:literal)?),+ $(,)? }) => {
        impl $crate::jsonio::LineField for $ty {
            fn put(&self, o: &mut $crate::jsonio::Obj, key: &str) {
                let Self { $($field),+ } = self;
                o.obj(key, |o| {
                    $($crate::jsonio::LineField::put(
                        $field,
                        o,
                        $crate::line_struct!(@key $field $($key)?),
                    );)+
                });
            }

            fn take(j: &$crate::jsonio::Json, key: &str) -> Self {
                let j = j.get(key).unwrap_or(&$crate::jsonio::Json::Null);
                Self {
                    $($field: $crate::jsonio::LineField::take(
                        j,
                        $crate::line_struct!(@key $field $($key)?),
                    )),+
                }
            }
        }

        #[cfg(test)]
        impl $crate::jsonio::Arbitrary for $ty {
            fn arbitrary(rng: &mut $crate::jsonio::FuzzRng) -> Self {
                Self { $($field: $crate::jsonio::Arbitrary::arbitrary(rng)),+ }
            }
        }
    };
}

/// The tagged variants of a line: `Variant "tag" { member, … }` for every
/// variant of an enum of struct variants, members as in
/// [`line_struct!`](crate::line_struct), plus `member ?= value` for one the
/// encoder leaves out while it equals `value` (so absent must read back as
/// `value`). Generates `type_tag`, `put_fields` (the members, written after
/// the caller's envelope) and `take_fields` (the variant of a tag, `None`
/// for an unknown one); under `cfg(test)` also `VARIANTS` and
/// `arbitrary(variant, rng)`, a variant in table order with its members
/// drawn by [`Arbitrary`](crate::jsonio::Arbitrary). Patterns and constructors name every member without
/// `..`, so a variant or member left out of the table does not compile.
#[macro_export]
macro_rules! line_enum {
    (@put $o:ident, $field:ident, $key:expr) => {
        $crate::jsonio::LineField::put($field, $o, $key)
    };
    (@put $o:ident, $field:ident, $key:expr, $omit:expr) => {
        if *$field != $omit {
            $crate::jsonio::LineField::put($field, $o, $key)
        }
    };
    ($ty:ident {
        $($variant:ident $tag:literal {
            $($field:ident $(: $key:literal)? $(?= $omit:expr)?),* $(,)?
        }),+ $(,)?
    }) => {
        impl $ty {
            /// The `"type"` tag written on the variant's line.
            pub fn type_tag(&self) -> &'static str {
                match self {
                    $($ty::$variant { .. } => $tag),+
                }
            }

            fn put_fields(&self, o: &mut $crate::jsonio::Obj) {
                match self {
                    $($ty::$variant { $($field),* } => {
                        $($crate::line_enum!(
                            @put o, $field, $crate::line_struct!(@key $field $($key)?) $(, $omit)?
                        );)*
                    })+
                }
            }

            fn take_fields(tag: &str, j: &$crate::jsonio::Json) -> Option<Self> {
                match tag {
                    $($tag => Some($ty::$variant {
                        $($field: $crate::jsonio::LineField::take(
                            j,
                            $crate::line_struct!(@key $field $($key)?),
                        )),*
                    }),)+
                    _ => None,
                }
            }
        }

        #[cfg(test)]
        impl $ty {
            /// How many variants the table declares.
            pub(crate) const VARIANTS: usize = [$($tag),+].len();

            /// A random value of the `variant`-th variant (modulo
            /// `VARIANTS`), every member drawn from `rng`.
            pub(crate) fn arbitrary(variant: usize, rng: &mut $crate::jsonio::FuzzRng) -> Self {
                let draws: &[fn(&mut $crate::jsonio::FuzzRng) -> Self] = &[$(|rng| $ty::$variant {
                    $($field: $crate::jsonio::Arbitrary::arbitrary(rng)),*
                }),+];
                draws[variant % draws.len()](rng)
            }
        }
    };
}

/// Deepest array/object nesting the parser follows. The schemas need six
/// levels; the cap keeps hostile input (`[[[[…`) from exhausting the stack.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Self { bytes: s.as_bytes(), pos: 0, depth: 0 }
    }

    fn error(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn nested(&mut self, f: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        // lint:allow(panic) reason=pos never exceeds bytes.len() by the cursor invariant
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.error(&format!("expected '{lit}'")))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        // lint:allow(panic) reason=pos never exceeds bytes.len() by the cursor invariant
        let s = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("invalid utf8 in number"))?;
        s.parse::<f64>().map(Json::Num).map_err(|_| self.error("invalid number"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.error("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.error("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("invalid \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.error("invalid \\u codepoint"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.error("unknown escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character (multi-byte safe).
                    // lint:allow(panic) reason=pos never exceeds bytes.len() by the cursor invariant
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.error("invalid utf8"))?;
                    let c = rest.chars().next().ok_or_else(|| self.error("empty"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect_byte(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_and_parser_round_trip_an_object() {
        let mut o = Obj::new();
        o.u64("v", 1)
            .str("type", "x\"y\\z")
            .f64("pi", 3.25)
            .bool("on", true)
            .f64_array("xs", &[0.5, 1.0])
            .obj("sub", |s| {
                s.u64("k", 7);
            });
        let text = o.finish();
        let j = Json::parse(&text).unwrap();
        assert_eq!(j.u64("v"), 1);
        assert_eq!(j.string("type"), "x\"y\\z");
        assert_eq!(j.num("pi"), 3.25);
        assert!(j.boolean("on"));
        assert_eq!(j.f64_array("xs"), vec![0.5, 1.0]);
        assert_eq!(j.get("sub").unwrap().u64("k"), 7);
    }

    #[test]
    fn value_writer_round_trips_through_the_parser() {
        let nums = |v: &[f64]| Json::Arr(v.iter().map(|&n| Json::Num(n)).collect());
        let v = Json::obj([
            ("n", Json::Num(f64::from(0.1f32))),
            ("dims", nums(&[63.0, 0.0])),
            ("zeros", nums(&[-0.0, 1e15, 1e300])),
            ("none", Json::Null),
            ("rows", Json::Arr(vec![nums(&[1.0, 2.0]), nums(&[])])),
            ("s", Json::Str("a\"b\n".into())),
            ("ok", Json::Bool(true)),
        ]);
        let text = v.to_text();
        assert_eq!(Json::parse(&text).unwrap(), v);
        let head = "{\"n\":0.10000000149011612,\"dims\":[63,0],\"zeros\":[-0,1000000000000000.0,1e300],";
        assert!(text.starts_with(head), "{text}");
        let Some(Json::Arr(zeros)) = Json::parse(&text).unwrap().get("zeros").cloned() else {
            panic!("an array")
        };
        assert!(matches!(zeros[0], Json::Num(z) if z == 0.0 && z.is_sign_negative()));
    }

    #[test]
    fn missing_fields_default_and_non_finite_writes_null() {
        let mut o = Obj::new();
        o.f64("bad", f64::NAN);
        let text = o.finish();
        assert_eq!(text, "{\"bad\":null}");
        let j = Json::parse(&text).unwrap();
        assert_eq!(j.num("bad"), 0.0);
        assert_eq!(j.num("absent"), 0.0);
        assert_eq!(j.string("absent"), "");
        assert!(!j.boolean("absent"));
    }

    #[test]
    fn line_u64_is_a_number_below_2_pow_53_and_a_string_from_there() {
        let vals = [(1u64 << 53) - 1, 1 << 53, u64::MAX];
        let mut o = Obj::new();
        for (k, v) in ["a", "b", "c"].iter().zip(vals) {
            v.put(&mut o, k);
        }
        let text = o.finish();
        let want = r#"{"a":9007199254740991,"b":"9007199254740992","c":"18446744073709551615"}"#;
        assert_eq!(text, want);
        let j = Json::parse(&text).unwrap();
        assert_eq!(["a", "b", "c"].map(|k| u64::take(&j, k)), vals);
        // A reader from before the rule sees the string as an absent field.
        assert_eq!((j.u64("b"), u64::take(&j, "absent")), (0, 0));
    }

    #[test]
    fn parser_rejects_malformed_input() {
        for bad in ["{", "{\"a\":}", "[1,", "\"open", "{\"a\" 1}", "tru"] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
        assert!(Json::parse(&"[".repeat(100_000)).is_err(), "unbounded nesting");
    }
}
