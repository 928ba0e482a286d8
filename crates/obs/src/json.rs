//! Canonical JSON emission and reading, shared by every wire format in the workspace.
//!
//! The vendored `serde` is a no-op shim (see `vendor/README.md`), so campaign reports,
//! shard reports, and execution traces all serialize through this small hand-rolled
//! writer instead. The output is *canonical*: fixed key order, no whitespace, and
//! floats rendered with Rust's shortest-round-trip `Display` — so two documents with
//! identical contents produce byte-identical strings, which the determinism tests
//! (1 worker vs N workers, record vs replay) rely on.
//!
//! The reverse direction is one lexer, the pull [`Reader`]: a byte cursor with a
//! nesting limit ([`MAX_DEPTH`]) and byte-offset [`Error`]s. It borrows keys and
//! strings without escapes from the document and hands numbers back as their **raw
//! token**, so integer fields parse exactly (`u64` seeds above 2^53 survive), float
//! fields round-trip bit for bit through Rust's shortest-round-trip rendering, and
//! each number is converted once. Large documents (execution traces) decode straight
//! from the reader; [`parse`] builds a [`JsonValue`] tree on top of it for the small
//! ones (lab manifests, shard reports, scenario specs).

use dg_cloudsim::InterferenceProfile;
use std::borrow::Cow;
use std::fmt;
use std::fmt::Write as _;

/// Appends a JSON string literal (with escaping) to `out`.
pub fn push_str_literal(out: &mut String, value: &str) {
    out.push('"');
    for c in value.chars() {
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

/// Appends a JSON number for `value`. JSON has no representation for non-finite
/// floats, so they are encoded as the strings `"inf"`, `"-inf"`, and `"nan"` — the
/// same encoding execution traces use — and [`parse_f64`] restores them losslessly.
/// (Reports used to write `null` here, which collapsed `±inf` to NaN on the way
/// back in.)
pub fn push_f64(out: &mut String, value: f64) {
    if value.is_finite() {
        // Rust's f64 Display is the shortest decimal string that round-trips, never in
        // scientific notation — both JSON-valid and deterministic.
        let _ = write!(out, "{value}");
    } else if value.is_nan() {
        out.push_str("\"nan\"");
    } else if value > 0.0 {
        out.push_str("\"inf\"");
    } else {
        out.push_str("\"-inf\"");
    }
}

/// Parses a float written by [`push_f64`], bit-for-bit for finite values and exactly
/// for the non-finite encodings `"inf"` / `"-inf"` / `"nan"`. A bare `null` is
/// accepted as NaN for backward compatibility with reports written before the
/// non-finite encoding was unified (those had already collapsed `±inf` to `null`,
/// so NaN is the most faithful reading available).
pub fn parse_f64(value: &JsonValue) -> Result<f64, String> {
    match value {
        JsonValue::Number(token) => token
            .parse::<f64>()
            .map_err(|_| format!("invalid float token {token:?}")),
        JsonValue::Str(s) => non_finite(s),
        JsonValue::Null => Ok(f64::NAN),
        other => Err(format!("expected a float, got {other:?}")),
    }
}

/// Decodes the string encodings of the non-finite floats.
fn non_finite(name: &str) -> Result<f64, String> {
    match name {
        "inf" => Ok(f64::INFINITY),
        "-inf" => Ok(f64::NEG_INFINITY),
        "nan" => Ok(f64::NAN),
        other => Err(format!("unknown non-finite float encoding {other:?}")),
    }
}

/// Appends `"key":` to an object body, handling the leading comma.
pub fn push_key(out: &mut String, first: &mut bool, key: &str) {
    if !*first {
        out.push(',');
    }
    *first = false;
    push_str_literal(out, key);
    out.push(':');
}

/// Appends the canonical JSON form of an [`InterferenceProfile`] to `out`.
///
/// The named recipes serialize as bare strings (`"typical"`, `"heavy"`,
/// `"dedicated"`), the parameterised ones as single-key objects
/// (`{"constant":0.5}`, `{"custom":[base,value_amplitude,regime_scale,
/// burst_magnitude]}`). All parameters are finite by construction
/// ([`InterferenceProfile`] builders assert it), so the shortest-round-trip float
/// rendering of [`push_f64`] is lossless and [`parse_profile`] round-trips bit for
/// bit. `dg-scenario` embeds profiles in `ScenarioSpec` documents through this pair.
pub fn push_profile(out: &mut String, profile: &InterferenceProfile) {
    match profile {
        InterferenceProfile::Dedicated => out.push_str("\"dedicated\""),
        InterferenceProfile::Typical => out.push_str("\"typical\""),
        InterferenceProfile::Heavy => out.push_str("\"heavy\""),
        InterferenceProfile::Constant(level) => {
            out.push_str("{\"constant\":");
            push_f64(out, *level);
            out.push('}');
        }
        InterferenceProfile::Custom {
            base,
            value_amplitude,
            regime_scale,
            burst_magnitude,
        } => {
            out.push_str("{\"custom\":[");
            for (i, value) in [base, value_amplitude, regime_scale, burst_magnitude]
                .into_iter()
                .enumerate()
            {
                if i > 0 {
                    out.push(',');
                }
                push_f64(out, *value);
            }
            out.push_str("]}");
        }
    }
}

/// Parses the canonical JSON form written by [`push_profile`] back into an
/// [`InterferenceProfile`]. Floats round-trip bit for bit.
pub fn parse_profile(value: &JsonValue) -> Result<InterferenceProfile, String> {
    let finite = |value: &JsonValue, what: &str| -> Result<f64, String> {
        let parsed = value
            .number_token()
            .and_then(|t| t.parse::<f64>().ok())
            .ok_or_else(|| format!("profile {what} is not a number"))?;
        if !parsed.is_finite() || parsed < 0.0 {
            return Err(format!("profile {what} must be finite and non-negative"));
        }
        Ok(parsed)
    };
    match value {
        JsonValue::Str(name) => match name.as_str() {
            "dedicated" => Ok(InterferenceProfile::Dedicated),
            "typical" => Ok(InterferenceProfile::Typical),
            "heavy" => Ok(InterferenceProfile::Heavy),
            other => Err(format!("unknown profile name {other:?}")),
        },
        JsonValue::Object(_) => {
            if let Some(level) = value.get("constant") {
                return Ok(InterferenceProfile::Constant(finite(level, "constant")?));
            }
            let parts = value
                .get("custom")
                .and_then(JsonValue::as_array)
                .ok_or_else(|| {
                    "profile object needs a \"constant\" or \"custom\" key".to_string()
                })?;
            if parts.len() != 4 {
                return Err("custom profile needs 4 parameters".to_string());
            }
            Ok(InterferenceProfile::Custom {
                base: finite(&parts[0], "base")?,
                value_amplitude: finite(&parts[1], "value_amplitude")?,
                regime_scale: finite(&parts[2], "regime_scale")?,
                burst_magnitude: finite(&parts[3], "burst_magnitude")?,
            })
        }
        other => Err(format!("expected a profile, got {other:?}")),
    }
}

/// FNV-1a over a canonical textual encoding: the stable 64-bit fingerprint discipline
/// shared by `CampaignSpec::fingerprint` and `ScenarioSpec::fingerprint`. Independent
/// of process, host, and run.
pub fn fnv1a(text: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in text.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A parsed JSON value. Object keys keep their document order; numbers keep their raw
/// token so callers decide the target type without precision loss.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, stored as its raw token (e.g. `"245.3"`, `"18446744073709551615"`).
    Number(String),
    /// A string (escapes already resolved).
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in document order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks up `key` in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The raw number token, if this is a number.
    pub fn number_token(&self) -> Option<&str> {
        match self {
            JsonValue::Number(token) => Some(token),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// Maximum container nesting the reader accepts. Execution traces nest 7 deep (their
/// spec arrays); the limit exists so a corrupt or hostile document
/// (`[[[[...`) returns an error instead of overflowing the stack of the reading
/// process — also inside values a decoder only skips.
pub const MAX_DEPTH: usize = 64;

/// Parses one JSON document into a [`JsonValue`] tree. Returns a description of the
/// first syntax error (with a byte offset) on malformed input.
///
/// This is a thin tree builder over [`Reader`]; decoders on a hot path read the
/// document with a [`Reader`] directly and build no tree.
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let mut reader = Reader::new(text);
    reader
        .read_value()
        .and_then(|value| reader.finish().map(|()| value))
        .map_err(|err| err.to_string())
}

/// A [`Reader`] error: what went wrong, and the byte offset where it was found.
///
/// Boxed, so the `Result`s of the reader's hot paths stay two words wide.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(Box<ErrorDetail>);

#[derive(Debug, Clone, PartialEq, Eq)]
struct ErrorDetail {
    offset: usize,
    message: String,
}

impl Error {
    /// An error at byte `offset`.
    pub fn new(offset: usize, message: impl Into<String>) -> Self {
        Self(Box::new(ErrorDetail {
            offset,
            message: message.into(),
        }))
    }

    /// Byte offset into the document.
    pub fn offset(&self) -> usize {
        self.0.offset
    }

    /// Description of the problem, outermost context first.
    pub fn message(&self) -> &str {
        &self.0.message
    }

    /// Prefixes the message with `context` (`"<context>: <message>"`), e.g. the record
    /// or field the error occurred in.
    pub fn context(mut self, context: impl fmt::Display) -> Self {
        self.0.message = format!("{context}: {}", self.0.message);
        self
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.0.message, self.0.offset)
    }
}

impl std::error::Error for Error {}

/// The kind of the next value, as told by its first byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Null,
    Bool,
    Number,
    Str,
    Array,
    Object,
}

impl fmt::Display for Kind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Kind::Null => "null",
            Kind::Bool => "a bool",
            Kind::Number => "a number",
            Kind::Str => "a string",
            Kind::Array => "an array",
            Kind::Object => "an object",
        })
    }
}

/// A saved [`Reader`] position at the start of a value; [`Reader::rewind`] goes back
/// to it.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    pos: usize,
    depth: usize,
}

/// A pull reader over one JSON document: a byte cursor the caller drives value by
/// value, building nothing it does not ask for.
///
/// - Objects are read with [`begin_object`](Self::begin_object) then
///   [`next_key`](Self::next_key) until it returns `None`; arrays with
///   [`begin_array`](Self::begin_array) then [`next_item`](Self::next_item) until it
///   returns `false`. Each key or item is followed by exactly one value read (or
///   [`skip_value`](Self::skip_value)).
/// - Keys and strings without escapes are borrowed from the document.
/// - Numbers come back as their validated raw token ([`read_number`](Self::read_number)),
///   so each is converted once, by the caller, to the type it needs.
/// - Container nesting is limited to [`MAX_DEPTH`] for every value, skipped ones too.
/// - Every error carries the byte offset where it was found.
///
/// [`parse`] is this reader building a [`JsonValue`] tree.
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
    /// Set by `begin_*`: the next `next_key`/`next_item` is the container's first, so
    /// it takes no comma.
    fresh: bool,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the document's first value.
    pub fn new(text: &'a str) -> Self {
        let mut reader = Self {
            text,
            pos: 0,
            depth: 0,
            fresh: false,
        };
        reader.skip_whitespace();
        reader
    }

    /// The current byte offset. After [`new`](Self::new), [`next_key`](Self::next_key)
    /// and [`next_item`](Self::next_item) it is the start of the next value.
    #[inline]
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// An error at the current offset.
    fn error(&self, message: impl Into<String>) -> Error {
        Error::new(self.pos, message)
    }

    /// Checks that only whitespace follows the document.
    pub fn finish(mut self) -> Result<(), Error> {
        self.skip_whitespace();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(self.error("trailing characters after JSON document"))
        }
    }

    /// Saves the position of the next value so it can be read again after
    /// [`rewind`](Self::rewind), e.g. to skip (and so syntax-check) a value whose
    /// decoding stopped part way.
    pub fn mark(&mut self) -> Mark {
        self.skip_whitespace();
        Mark {
            pos: self.pos,
            depth: self.depth,
        }
    }

    /// Moves the cursor back to the value at `mark`, at its nesting depth.
    pub fn rewind(&mut self, mark: Mark) {
        self.pos = mark.pos;
        self.depth = mark.depth;
        self.fresh = false;
    }

    #[inline]
    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    #[inline]
    fn skip_whitespace(&mut self) {
        while self
            .bytes()
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    /// The kind of the next value, consuming nothing but whitespace.
    #[inline]
    fn peek(&mut self) -> Result<Kind, Error> {
        self.skip_whitespace();
        match self.bytes().get(self.pos) {
            Some(b'{') => Ok(Kind::Object),
            Some(b'[') => Ok(Kind::Array),
            Some(b'"') => Ok(Kind::Str),
            Some(b't' | b'f') => Ok(Kind::Bool),
            Some(b'n') => Ok(Kind::Null),
            Some(b'-' | b'0'..=b'9') => Ok(Kind::Number),
            Some(&other) => Err(self.error(format!("unexpected character {:?}", other as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    #[inline]
    fn expect_kind(&mut self, want: Kind) -> Result<(), Error> {
        let found = self.peek()?;
        if found == want {
            Ok(())
        } else {
            Err(self.error(format!("expected {want}, found {found}")))
        }
    }

    /// Reads `true` or `false`.
    #[inline]
    pub fn read_bool(&mut self) -> Result<bool, Error> {
        self.expect_kind(Kind::Bool)?;
        self.take_bool()
    }

    /// Reads a number and returns its raw token, validated to parse as `f64` (so an
    /// integer field can still parse it exactly as `u64`).
    #[inline]
    pub fn read_number(&mut self) -> Result<&'a str, Error> {
        self.expect_kind(Kind::Number)?;
        self.take_number()
    }

    /// Reads a string, resolving escapes. Borrowed from the document when it has none.
    #[inline]
    pub fn read_str(&mut self) -> Result<Cow<'a, str>, Error> {
        self.expect_kind(Kind::Str)?;
        self.take_str()
    }

    /// Reads a float in the wire encoding of [`push_f64`]: a number, or one of the
    /// strings `"inf"`, `"-inf"`, `"nan"`; a bare `null` reads as NaN (see
    /// [`parse_f64`]).
    #[inline]
    pub fn read_f64(&mut self) -> Result<f64, Error> {
        match self.peek()? {
            Kind::Number => {
                let token = self.take_number()?;
                Ok(token.parse().expect("take_number validated the token"))
            }
            Kind::Str => {
                let at = self.pos;
                let name = self.take_str()?;
                non_finite(&name).map_err(|message| Error::new(at, message))
            }
            Kind::Null => self.take_null().map(|()| f64::NAN),
            other => Err(self.error(format!("expected a float, found {other}"))),
        }
    }

    /// Reads a number that must be an exact `u64`.
    #[inline]
    pub fn read_u64(&mut self) -> Result<u64, Error> {
        let token = self.read_number()?;
        token
            .parse()
            .map_err(|_| Error::new(self.pos - token.len(), format!("{token} is not a u64")))
    }

    /// Enters an object; read its entries with [`next_key`](Self::next_key).
    #[inline]
    pub fn begin_object(&mut self) -> Result<(), Error> {
        self.expect_kind(Kind::Object)?;
        self.open()
    }

    /// The next key of the current object, positioned at its value; `None` (with the
    /// object closed) after the last entry.
    #[inline]
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, Error> {
        if !self.next_entry(b'}')? {
            return Ok(None);
        }
        let key = self.read_str()?;
        self.skip_whitespace();
        if self.bytes().get(self.pos) != Some(&b':') {
            return Err(self.error("expected ':'"));
        }
        self.pos += 1;
        self.skip_whitespace();
        Ok(Some(key))
    }

    /// Enters an array; read its items with [`next_item`](Self::next_item).
    #[inline]
    pub fn begin_array(&mut self) -> Result<(), Error> {
        self.expect_kind(Kind::Array)?;
        self.open()
    }

    /// Whether the current array has another item (the reader is then positioned at
    /// it); `false`, with the array closed, after the last one.
    #[inline]
    pub fn next_item(&mut self) -> Result<bool, Error> {
        self.next_entry(b']')
    }

    /// Reads past the next value, checking its syntax and nesting depth.
    pub fn skip_value(&mut self) -> Result<(), Error> {
        match self.peek()? {
            Kind::Object => {
                self.open()?;
                while self.next_key()?.is_some() {
                    self.skip_value()?;
                }
            }
            Kind::Array => {
                self.open()?;
                while self.next_item()? {
                    self.skip_value()?;
                }
            }
            Kind::Str => {
                self.take_str()?;
            }
            Kind::Number => {
                self.take_number()?;
            }
            Kind::Bool => {
                self.take_bool()?;
            }
            Kind::Null => self.take_null()?,
        }
        Ok(())
    }

    /// Reads the next value as a [`JsonValue`] tree.
    pub fn read_value(&mut self) -> Result<JsonValue, Error> {
        Ok(match self.peek()? {
            Kind::Object => {
                self.open()?;
                let mut entries = Vec::new();
                while let Some(key) = self.next_key()? {
                    entries.push((key.into_owned(), self.read_value()?));
                }
                JsonValue::Object(entries)
            }
            Kind::Array => {
                self.open()?;
                let mut items = Vec::new();
                while self.next_item()? {
                    items.push(self.read_value()?);
                }
                JsonValue::Array(items)
            }
            Kind::Str => JsonValue::Str(self.take_str()?.into_owned()),
            Kind::Number => JsonValue::Number(self.take_number()?.to_string()),
            Kind::Bool => JsonValue::Bool(self.take_bool()?),
            Kind::Null => {
                self.take_null()?;
                JsonValue::Null
            }
        })
    }

    // The `take_*` methods consume a value whose kind `peek` has just reported.

    fn take_literal(&mut self, literal: &str) -> bool {
        let matched = self.bytes()[self.pos..].starts_with(literal.as_bytes());
        if matched {
            self.pos += literal.len();
        }
        matched
    }

    fn take_null(&mut self) -> Result<(), Error> {
        if self.take_literal("null") {
            Ok(())
        } else {
            Err(self.error("invalid literal"))
        }
    }

    fn take_bool(&mut self) -> Result<bool, Error> {
        if self.take_literal("true") {
            Ok(true)
        } else if self.take_literal("false") {
            Ok(false)
        } else {
            Err(self.error("invalid literal"))
        }
    }

    /// Consumes a number token: the run of number characters (`-`, digits, `.`, `e`,
    /// `E`, `+`) at the cursor, which must be one `str::parse::<f64>` accepts — Rust's
    /// float syntax minus the leading `+` and the `inf`/`nan` words, which cannot start
    /// a JSON number: `-? (d+ | d+ '.' d* | d* '.' d+) ([eE] [+-]? d+)?`. Checking the
    /// grammar in the same scan leaves the one conversion to the consumer.
    #[inline]
    fn take_number(&mut self) -> Result<&'a str, Error> {
        let bytes = self.bytes();
        let start = self.pos;
        let digits = |mut i: usize| {
            while bytes.get(i).is_some_and(u8::is_ascii_digit) {
                i += 1;
            }
            i
        };
        let mut i = start + usize::from(bytes[start] == b'-');
        let int_end = digits(i);
        let mut mantissa_digits = int_end - i;
        i = int_end;
        if bytes.get(i) == Some(&b'.') {
            let frac_end = digits(i + 1);
            mantissa_digits += frac_end - (i + 1);
            i = frac_end;
        }
        let mut valid = mantissa_digits > 0;
        if matches!(bytes.get(i), Some(b'e' | b'E')) {
            i += 1;
            if matches!(bytes.get(i), Some(b'+' | b'-')) {
                i += 1;
            }
            let exp_end = digits(i);
            valid &= exp_end > i;
            i = exp_end;
        }
        let mut end = i;
        while bytes
            .get(end)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            end += 1;
        }
        let token = &self.text[start..end];
        if !valid || end != i {
            return Err(self.error(format!("invalid number {token:?}")));
        }
        self.pos = end;
        Ok(token)
    }

    fn take_str(&mut self) -> Result<Cow<'a, str>, Error> {
        let text = self.text;
        let bytes = self.bytes();
        let start = self.pos + 1;
        let mut i = start;
        // Both delimiters are ASCII, so every index they are found at is a char
        // boundary of `text`.
        let special = |from: usize| {
            bytes[from..]
                .iter()
                .position(|b| matches!(b, b'"' | b'\\'))
                .map(|at| from + at)
        };
        let mut out = String::new();
        loop {
            let Some(stop) = special(i) else {
                return Err(Error::new(start - 1, "unterminated string"));
            };
            if bytes[stop] == b'"' {
                self.pos = stop + 1;
                if i == start {
                    return Ok(Cow::Borrowed(&text[start..stop]));
                }
                out.push_str(&text[i..stop]);
                return Ok(Cow::Owned(out));
            }
            out.push_str(&text[i..stop]);
            i = stop + 1;
            let escaped = match bytes.get(i) {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'b') => '\u{08}',
                Some(b'f') => '\u{0c}',
                Some(b'u') => {
                    let hex = bytes
                        .get(i + 1..i + 5)
                        .ok_or_else(|| Error::new(stop, "truncated \\u escape"))?;
                    // Exactly four ASCII hex digits: `u32::from_str_radix` alone would
                    // also take a sign (`\u+041`).
                    let code = hex.iter().try_fold(0u32, |code, &b| {
                        char::from(b).to_digit(16).map(|digit| code << 4 | digit)
                    });
                    let code = code.ok_or_else(|| {
                        Error::new(
                            stop,
                            format!("invalid \\u escape {:?}", String::from_utf8_lossy(hex)),
                        )
                    })?;
                    // The writer only emits \u for control characters, so surrogate
                    // pairs never appear in canonical documents.
                    i += 4;
                    char::from_u32(code)
                        .ok_or_else(|| Error::new(stop, format!("invalid code point {code:#x}")))?
                }
                other => {
                    return Err(Error::new(
                        i,
                        format!("invalid escape {:?}", other.map(|&b| b as char)),
                    ))
                }
            };
            out.push(escaped);
            i += 1;
        }
    }

    /// Enters the container at the cursor, within the depth limit.
    #[inline]
    fn open(&mut self) -> Result<(), Error> {
        if self.depth >= MAX_DEPTH {
            return Err(self.error(format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        self.pos += 1;
        self.fresh = true;
        Ok(())
    }

    /// Moves past the separator before a container's next entry. Returns `false` (and
    /// closes the container) at its end.
    #[inline]
    fn next_entry(&mut self, close: u8) -> Result<bool, Error> {
        self.skip_whitespace();
        let first = std::mem::take(&mut self.fresh);
        match self.bytes().get(self.pos) {
            Some(&b) if b == close => {
                self.pos += 1;
                self.depth -= 1;
                return Ok(false);
            }
            Some(b',') if !first => self.pos += 1,
            _ if first => {}
            _ => {
                return Err(self.error(format!("expected ',' or {:?}", close as char)));
            }
        }
        self.skip_whitespace();
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_escaped() {
        let mut out = String::new();
        push_str_literal(&mut out, "a\"b\\c\nd");
        assert_eq!(out, r#""a\"b\\c\nd""#);
    }

    #[test]
    fn control_characters_use_unicode_escapes() {
        let mut out = String::new();
        push_str_literal(&mut out, "\u{01}");
        assert_eq!(out, "\"\\u0001\"");
    }

    #[test]
    fn floats_render_shortest_round_trip() {
        let mut out = String::new();
        push_f64(&mut out, 245.3);
        out.push(' ');
        push_f64(&mut out, f64::NAN);
        out.push(' ');
        push_f64(&mut out, f64::INFINITY);
        out.push(' ');
        push_f64(&mut out, f64::NEG_INFINITY);
        assert_eq!(out, "245.3 \"nan\" \"inf\" \"-inf\"");
    }

    #[test]
    fn non_finite_floats_round_trip_exactly() {
        for value in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let mut out = String::new();
            push_f64(&mut out, value);
            let parsed = parse_f64(&parse(&out).expect("valid JSON")).expect("valid float");
            assert_eq!(parsed.to_bits(), value.to_bits(), "through {out}");
        }
        // Legacy reports wrote null for every non-finite value; it still reads as NaN.
        assert!(parse_f64(&JsonValue::Null).unwrap().is_nan());
        assert!(parse_f64(&JsonValue::Str("infinity".into())).is_err());
        assert!(parse_f64(&JsonValue::Bool(true)).is_err());
    }

    #[test]
    fn keys_are_comma_separated() {
        let mut out = String::from("{");
        let mut first = true;
        push_key(&mut out, &mut first, "a");
        out.push('1');
        push_key(&mut out, &mut first, "b");
        out.push('2');
        out.push('}');
        assert_eq!(out, r#"{"a":1,"b":2}"#);
    }

    #[test]
    fn parser_round_trips_canonical_documents() {
        let doc = r#"{"name":"a\"b","n":-3.25,"flags":[true,false,null],"nested":{"x":18446744073709551615}}"#;
        let value = parse(doc).expect("valid document");
        assert_eq!(value.get("name").and_then(JsonValue::as_str), Some("a\"b"));
        assert_eq!(
            value.get("n").and_then(JsonValue::number_token),
            Some("-3.25")
        );
        let flags = value.get("flags").and_then(JsonValue::as_array).unwrap();
        assert_eq!(flags[0].as_bool(), Some(true));
        assert_eq!(flags[2], JsonValue::Null);
        assert_eq!(
            value
                .get("nested")
                .and_then(|n| n.get("x"))
                .and_then(JsonValue::number_token)
                .map(str::parse::<u64>),
            Some(Ok(u64::MAX)),
            "u64 values above 2^53 must survive parsing exactly"
        );
    }

    #[test]
    fn parser_accepts_whitespace_and_empty_containers() {
        let value = parse(" { \"a\" : [ ] , \"b\" : { } } ").expect("valid");
        assert_eq!(value.get("a"), Some(&JsonValue::Array(Vec::new())));
        assert_eq!(value.get("b"), Some(&JsonValue::Object(Vec::new())));
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "tru",
            "{\"a\":1} x",
            "1.2.3",
            "\"\\u+041\"",
            "\"\\u004\"",
            "{\"a\":1,}",
            "{,\"a\":1}",
            "[,1]",
            "[1 2]",
            "{\"a\" 1}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn parser_rejects_pathological_nesting_instead_of_overflowing() {
        let hostile = "[".repeat(100_000);
        let err = parse(&hostile).expect_err("deep nesting must be rejected");
        assert!(err.contains("nesting deeper than"), "got {err}");
        // The limit holds for values a decoder only skips, too.
        let err = Reader::new(&hostile).skip_value().expect_err("skipped too");
        assert!(err.message().contains("nesting deeper than"), "got {err}");

        // Realistic nesting stays well within the limit.
        let legal = format!("{}1{}", "[".repeat(32), "]".repeat(32));
        assert!(parse(&legal).is_ok());
    }

    #[test]
    fn multibyte_characters_survive_string_parsing() {
        let value = parse("{\"k\":\"héllo → 🌍\"}").expect("valid");
        assert_eq!(
            value.get("k").and_then(JsonValue::as_str),
            Some("héllo → 🌍")
        );
    }

    #[test]
    fn profiles_round_trip_through_canonical_json() {
        let awkward = 0.1 + 0.2; // not exactly representable as "0.3"
        for profile in [
            InterferenceProfile::Dedicated,
            InterferenceProfile::Typical,
            InterferenceProfile::Heavy,
            InterferenceProfile::Constant(0.5),
            InterferenceProfile::Constant(awkward),
            InterferenceProfile::Custom {
                base: 0.05,
                value_amplitude: awkward,
                regime_scale: 1.0,
                burst_magnitude: 0.9,
            },
        ] {
            let mut out = String::new();
            push_profile(&mut out, &profile);
            let parsed = parse_profile(&parse(&out).expect("valid JSON")).expect("valid profile");
            assert_eq!(parsed, profile, "round trip through {out}");
            let mut again = String::new();
            push_profile(&mut again, &parsed);
            assert_eq!(again, out, "byte-identical re-serialization");
        }
    }

    #[test]
    fn malformed_profiles_are_rejected() {
        for bad in [
            "\"mystery\"",
            "{\"constant\":-1}",
            "{\"custom\":[1,2,3]}",
            "{\"other\":1}",
            "3",
        ] {
            let value = parse(bad).expect("syntactically valid JSON");
            assert!(parse_profile(&value).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn fnv1a_is_stable_and_sensitive() {
        assert_eq!(fnv1a(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a("abc"), fnv1a("abc"));
        assert_ne!(fnv1a("abc"), fnv1a("abd"));
    }

    #[test]
    fn parsed_floats_round_trip_bit_for_bit() {
        for value in [245.3, 0.1 + 0.2, f64::MIN_POSITIVE, 1e300, -0.0] {
            let mut out = String::new();
            push_f64(&mut out, value);
            let parsed = parse(&out).expect("number parses");
            let token = parsed.number_token().expect("is a number");
            assert_eq!(token.parse::<f64>().unwrap().to_bits(), value.to_bits());
        }
    }
    #[test]
    fn number_tokens_are_exactly_those_rust_parses_as_f64() {
        // Every token over a reduced alphabet up to length 6 (the number scanner's
        // characters, two digits standing for all ten): the reader's one-pass grammar
        // check must agree with `str::parse::<f64>`, which validated tokens before.
        fn visit(token: &mut String, checked: &mut usize) {
            if token.starts_with(|c: char| c == '-' || c.is_ascii_digit()) {
                let read = Reader::new(token).read_number();
                assert_eq!(read.is_ok(), token.parse::<f64>().is_ok(), "{token:?}");
                *checked += 1;
            }
            if token.len() < 6 {
                for c in "01.eE+-".chars() {
                    token.push(c);
                    visit(token, checked);
                    token.pop();
                }
            }
        }
        let mut checked = 0;
        visit(&mut String::new(), &mut checked);
        assert!(checked > 30_000, "{checked} tokens");
        for long in [
            "1e400",
            "-0",
            "123456789012345678901234567890.5e-3",
            "0.",
            "-.5",
        ] {
            assert_eq!(Reader::new(long).read_number(), Ok(long));
        }
    }

    #[test]
    fn reader_borrows_plain_strings_and_resolves_escapes() {
        let mut reader = Reader::new(r#"{"plain":"abc","esc\u0041":"x\ny","n":-1.5e3}"#);
        reader.begin_object().unwrap();
        let key = reader.next_key().unwrap().unwrap();
        assert!(matches!(key, Cow::Borrowed("plain")));
        assert!(matches!(reader.read_str().unwrap(), Cow::Borrowed("abc")));
        assert_eq!(reader.next_key().unwrap().as_deref(), Some("escA"));
        assert_eq!(reader.read_str().unwrap(), "x\ny");
        assert_eq!(reader.next_key().unwrap().as_deref(), Some("n"));
        assert_eq!(reader.read_number().unwrap(), "-1.5e3");
        assert_eq!(reader.next_key().unwrap(), None);
        reader.finish().unwrap();
    }

    #[test]
    fn reader_errors_carry_byte_offsets_and_kinds() {
        let mut reader = Reader::new("[1, true]");
        reader.begin_array().unwrap();
        assert!(reader.next_item().unwrap());
        assert_eq!(reader.read_u64().unwrap(), 1);
        assert!(reader.next_item().unwrap());
        let err = reader.read_f64().unwrap_err();
        assert_eq!(err.offset(), 4);
        assert_eq!(err.to_string(), "expected a float, found a bool at byte 4");
        assert_eq!(
            err.context("field \"x\"").to_string(),
            "field \"x\": expected a float, found a bool at byte 4"
        );
        let err = parse("{\"a\":[1,]}").unwrap_err();
        assert_eq!(err, "unexpected character ']' at byte 8");
        let err = Reader::new("18446744073709551616").read_u64().unwrap_err();
        assert_eq!(err.offset(), 0);
    }
}
