//! The workspace's one JSON layer: the [`Json`] value, a reader
//! ([`parse`]), one writer ([`Json::pretty`] for report files,
//! [`Json::line`] for JSON-lines records) and a small declarative
//! [`Schema`] with one checker.
//!
//! Every JSON artifact the workspace writes is built as a `Json` tree and
//! printed by that writer: `BENCH_fusion.json`, `BENCH_service.json`,
//! `CHAOS_sweep.json`, the trace profile, and the `analyze`/`lint`/
//! `verify --json` diagnostics. The four validated reports each declare a
//! `Schema` once: its producer checks the shape rules before writing, and
//! `--check` (`profile-check` for the trace) runs the same schema with its
//! gate rules on a file. The reader is not general-purpose: it accepts the
//! JSON we write and rejects malformed input with byte-offset diagnostics.

/// A parsed JSON value.
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as `f64`; our schemas stay well under 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, preserving field order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up `key` in an object; `None` for missing keys or non-objects.
    pub fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn num(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn str_val(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn bool_val(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The object fields in document order, if this is an object.
    pub fn obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// The document as a report file: two spaces of indent per level,
    /// `"key": value`, one member per line, and a trailing newline. An
    /// array or object that holds no array or object prints on one line
    /// (`[1, 2]`, `{ "n": 12, "m": 10 }`).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// The value on one line with no whitespace: one JSON-lines record.
    pub fn line(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Writes `self` at nesting depth `indent`; `None` writes one line.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        let (brackets, members): (&str, Vec<(Option<&str>, &Json)>) = match self {
            Json::Null => return out.push_str("null"),
            Json::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
            // `Display` prints the shortest text that reads back as the
            // same value, and never an exponent.
            Json::Num(v) if v.is_finite() => return out.push_str(&v.to_string()),
            Json::Num(_) => return out.push_str("null"),
            Json::Str(s) => return out.push_str(&format!("\"{}\"", escape(s))),
            Json::Arr(items) => ("[]", items.iter().map(|v| (None, v)).collect()),
            Json::Obj(fields) => (
                "{}",
                fields.iter().map(|(k, v)| (Some(k.as_str()), v)).collect(),
            ),
        };
        let nested = members
            .iter()
            .any(|(_, v)| matches!(v, Json::Arr(_) | Json::Obj(_)));
        // Before the first member, between members, after the last, and
        // the members' own depth.
        let (open, sep, close, inner) = match indent {
            None => (String::new(), ",".to_string(), String::new(), None),
            Some(d) if nested => {
                let pad = format!("\n{}", "  ".repeat(d + 1));
                let close = format!("\n{}", "  ".repeat(d));
                (pad.clone(), format!(",{pad}"), close, Some(d + 1))
            }
            Some(d) if brackets == "{}" => (" ".into(), ", ".into(), " ".into(), Some(d)),
            Some(d) => (String::new(), ", ".into(), String::new(), Some(d)),
        };
        out.push_str(&brackets[..1]);
        for (i, (key, v)) in members.iter().enumerate() {
            out.push_str(if i == 0 { &open } else { &sep });
            if let Some(k) = key {
                out.push_str(&format!("\"{}\":", escape(k)));
                out.push_str(if indent.is_some() { " " } else { "" });
            }
            v.write(out, inner);
        }
        if !members.is_empty() {
            out.push_str(&close);
        }
        out.push_str(&brackets[1..]);
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Num(v as f64)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Num(v as f64)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

/// Collects values into an array.
impl<T: Into<Json>> FromIterator<T> for Json {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

/// An object with `fields` in the given order.
pub fn object<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// `v` rounded to `places` decimals, so the writer prints at most that
/// many.
pub fn round(v: f64, places: i32) -> Json {
    let scale = 10f64.powi(places);
    Json::Num((v * scale).round() / scale)
}

// ---------------------------------------------------------------------
// The schema.

/// The JSON type a schema field holds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Type {
    /// `true` or `false`.
    Bool,
    /// Any number.
    Num,
    /// A whole number, exact in an `f64` (magnitude at most 2^53).
    Int,
    /// A string.
    Str,
    /// One of these strings.
    Tag(&'static [&'static str]),
    /// An array.
    Arr,
    /// An object.
    Obj,
}

/// Whether a field may be absent, or `null`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Presence {
    /// Present, and of its type.
    Required,
    /// Of its type when present.
    Optional,
    /// Present, and of its type or `null`.
    Nullable,
}

/// One schema row: where the field is, its type, whether it must be
/// there, and the inclusive range of its value (numbers) or its length
/// (strings, arrays). A path is object keys joined by `.`; a `[]` suffix
/// on a key stands for every element of that array (`suites[].id`), and
/// a last segment `{a,b}` names several sibling fields of one type. A
/// row must come after the row of its parent.
#[derive(Clone, Copy, Debug)]
pub struct Field {
    path: &'static str,
    ty: Type,
    presence: Presence,
    range: (f64, f64),
}

impl Field {
    /// A field that must be present, of any value or length.
    pub const fn req(path: &'static str, ty: Type) -> Field {
        Field {
            path,
            ty,
            presence: Presence::Required,
            range: (f64::NEG_INFINITY, f64::INFINITY),
        }
    }

    /// The same row with another presence.
    pub const fn presence(self, presence: Presence) -> Field {
        Field { presence, ..self }
    }

    /// Bounds the value (or length) from below.
    pub const fn min(self, lo: f64) -> Field {
        self.within(lo, f64::INFINITY)
    }

    /// Bounds the value (or length) on both sides.
    pub const fn within(self, lo: f64, hi: f64) -> Field {
        Field {
            range: (lo, hi),
            ..self
        }
    }

    fn check(&self, doc: &Json) -> Result<(), String> {
        let (parent, last) = match self.path.rsplit_once('.') {
            Some((parent, last)) => (format!("{parent}."), last),
            None => (String::new(), self.path),
        };
        for key in last
            .trim_start_matches('{')
            .trim_end_matches('}')
            .split(',')
        {
            let mut found = Vec::new();
            resolve(doc, &format!("{parent}{key}"), "", &mut found);
            let key = key.trim_end_matches("[]");
            for (at, value) in found {
                let value = match (value, self.presence) {
                    (None, Presence::Optional) | (Some(Json::Null), Presence::Nullable) => continue,
                    (None, _) => return Err(format!("missing {key} at {at}")),
                    (Some(v), _) => v,
                };
                // The value, the length, or 0 for a type with neither; NaN
                // (outside every range) for a value of the wrong type.
                let measure = match (self.ty, value) {
                    (Type::Bool, Json::Bool(_)) | (Type::Obj, Json::Obj(_)) => 0.0,
                    (Type::Num, Json::Num(n)) => *n,
                    (Type::Int, Json::Num(n)) if n.fract() == 0.0 && n.abs() <= 2f64.powi(53) => *n,
                    (Type::Str, Json::Str(s)) => s.chars().count() as f64,
                    (Type::Tag(tags), Json::Str(s)) if tags.contains(&s.as_str()) => 0.0,
                    (Type::Tag(_), Json::Str(s)) => {
                        return Err(format!("unknown {key} {s:?} at {at}"))
                    }
                    (Type::Arr, Json::Arr(items)) => items.len() as f64,
                    _ => f64::NAN,
                };
                if !(measure >= self.range.0 && measure <= self.range.1) {
                    return Err(format!("{at} must be {}", self.describe()));
                }
            }
        }
        Ok(())
    }

    /// What the field must hold, for messages: "a number >= 0".
    fn describe(&self) -> String {
        let (lo, hi) = self.range;
        let (what, of) = match self.ty {
            Type::Int if lo == 1.0 && hi.is_infinite() => ("a positive integer", None),
            Type::Bool => ("a boolean", None),
            Type::Num => ("a number", Some("")),
            Type::Int => ("an integer", Some("")),
            Type::Str => ("a string", Some(" of length")),
            Type::Arr => ("an array", Some(" of length")),
            Type::Obj => ("an object", None),
            Type::Tag(tags) => return format!("one of {tags:?}"),
        };
        let bounds = match (of, lo.is_finite(), hi.is_finite()) {
            (Some(of), true, true) => format!("{of} within [{lo}, {hi}]"),
            (Some(of), true, false) => format!("{of} >= {lo}"),
            (Some(of), false, true) => format!("{of} <= {hi}"),
            _ => String::new(),
        };
        let mut what = format!("{what}{bounds}");
        if self.presence == Presence::Nullable {
            what.push_str(" or null");
        }
        what
    }
}

/// Collects every value `path` names under `v` with its concrete path
/// (`suites[2].id`); `None` where the last key is absent. An absent or
/// mistyped parent yields nothing: its own row reports it.
fn resolve<'a>(v: &'a Json, path: &str, at: &str, out: &mut Vec<(String, Option<&'a Json>)>) {
    let (seg, rest) = match path.split_once('.') {
        Some((seg, rest)) => (seg, Some(rest)),
        None => (path, None),
    };
    let key = seg.trim_end_matches("[]");
    let here = if at.is_empty() {
        key.to_string()
    } else {
        format!("{at}.{key}")
    };
    let Some(child) = v.get(key) else {
        if rest.is_none() && key == seg && v.obj().is_some() {
            out.push((here, None));
        }
        return;
    };
    let children: Vec<(String, &Json)> = if key == seg {
        vec![(here, child)]
    } else {
        let items = child.arr().unwrap_or_default().iter().enumerate();
        items.map(|(i, c)| (format!("{here}[{i}]"), c)).collect()
    };
    for (at, c) in children {
        match rest {
            Some(rest) => resolve(c, rest, &at, out),
            None => out.push((at, Some(c))),
        }
    }
}

/// A named cross-field rule: `Err` carries the violation.
pub type Rule = fn(&Json) -> Result<(), String>;

/// A document's schema, declared once and used both by its producer,
/// before writing, and by `--check`.
pub struct Schema {
    /// The required `schema_version`, checked first; `None` for records
    /// that carry none.
    pub version: Option<u64>,
    /// The field rows, parents before children.
    pub fields: &'static [Field],
    /// Books that must balance. A producer whose document breaks one
    /// writes nothing.
    pub shape: &'static [Rule],
    /// Verdicts on the run the document records (no mismatches, no
    /// failures). Only [`Schema::check`] applies them, so a failing run
    /// still writes its evidence.
    pub gates: &'static [Rule],
}

impl Schema {
    /// Checks the version, every field row and every shape rule.
    pub fn check_shape(&self, doc: &Json) -> Result<(), String> {
        if doc.obj().is_none() {
            return Err("document is not a JSON object".into());
        }
        if let Some(want) = self.version {
            match doc.get("schema_version").and_then(Json::num) {
                Some(v) if v == want as f64 => {}
                Some(v) => return Err(format!("unknown schema_version {v} (expected {want})")),
                None => return Err("missing schema_version".into()),
            }
        }
        for field in self.fields {
            field.check(doc)?;
        }
        self.shape.iter().try_for_each(|rule| rule(doc))
    }

    /// [`Schema::check_shape`], then every gate rule: what `--check` runs.
    pub fn check(&self, doc: &Json) -> Result<(), String> {
        self.check_shape(doc)?;
        self.gates.iter().try_for_each(|rule| rule(doc))
    }
}

// ---------------------------------------------------------------------
// The reader.

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Parser<'a> {
        Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| "unexpected end of input".into())
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    /// The four hex digits of a `\u` escape.
    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or("truncated \\u escape")?;
        let code = u32::from_str_radix(std::str::from_utf8(hex).map_err(|e| e.to_string())?, 16)
            .map_err(|e| e.to_string())?;
        self.pos += 4;
        Ok(code)
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let b = *self.bytes.get(self.pos).ok_or("unterminated string")?;
            self.pos += 1;
            match b {
                b'"' => return Ok(s),
                b'\\' => {
                    let e = *self.bytes.get(self.pos).ok_or("unterminated escape")?;
                    self.pos += 1;
                    match e {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b't' => s.push('\t'),
                        b'r' => s.push('\r'),
                        b'u' => {
                            let mut code = self.hex4()?;
                            // A high surrogate must pair with a low one.
                            if (0xd800..0xdc00).contains(&code)
                                && self.bytes.get(self.pos..self.pos + 2) == Some(b"\\u")
                            {
                                self.pos += 2;
                                let low = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&low) {
                                    return Err("bad \\u surrogate pair".into());
                                }
                                code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                            }
                            s.push(char::from_u32(code).ok_or("bad \\u escape")?);
                        }
                        other => return Err(format!("bad escape {:?}", other as char)),
                    }
                }
                _ => {
                    // Copy the run up to the next quote or backslash in
                    // one piece: both are ASCII, so the run ends on a
                    // UTF-8 character boundary of the input text.
                    let start = self.pos - 1;
                    let run = self.text[start..].find(['"', '\\']);
                    self.pos = run.map_or(self.text.len(), |len| start + len);
                    s.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|e| e.to_string())?
            .parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("bad number at byte {start}: {e}"))
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek()? {
            b'{' => {
                self.pos += 1;
                let mut fields = Vec::new();
                if self.peek()? == b'}' {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let k = self.string()?;
                    self.expect(b':')?;
                    fields.push((k, self.value()?));
                    match self.peek()? {
                        b',' => self.pos += 1,
                        b'}' => {
                            self.pos += 1;
                            return Ok(Json::Obj(fields));
                        }
                        other => return Err(format!("bad object at {:?}", other as char)),
                    }
                }
            }
            b'[' => {
                self.pos += 1;
                let mut items = Vec::new();
                if self.peek()? == b']' {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    match self.peek()? {
                        b',' => self.pos += 1,
                        b']' => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        other => return Err(format!("bad array at {:?}", other as char)),
                    }
                }
            }
            b'"' => Ok(Json::Str(self.string()?)),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            _ => self.number(),
        }
    }
}

/// Parses one complete JSON document; trailing garbage is an error.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser::new(text);
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

/// Escapes a string for embedding in a JSON document we emit.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reader_handles_escapes_and_nesting() {
        let doc = r#"{"a":[1,2.5,-3],"b":{"s":"x\n\"y\"","t":true,"n":null},"u":"A"}"#;
        let v = parse(doc).unwrap();
        let a = v.get("a").and_then(Json::arr).unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a[1].num(), Some(2.5));
        assert_eq!(a[2].num(), Some(-3.0));
        let b = v.get("b").unwrap();
        assert_eq!(b.get("s").and_then(Json::str_val), Some("x\n\"y\""));
        assert_eq!(b.get("t").and_then(Json::bool_val), Some(true));
        assert!(matches!(b.get("n"), Some(Json::Null)));
        assert_eq!(v.get("u").and_then(Json::str_val), Some("A"));
    }

    #[test]
    fn reader_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("nul").is_err());
        assert!(parse(r#""\ud83dA""#).is_err());
    }

    #[test]
    fn escape_round_trips() {
        let s = "line\nwith \"quotes\" and \\slashes\\ and \ttabs";
        let doc = format!("{{\"s\":\"{}\"}}", escape(s));
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("s").and_then(Json::str_val), Some(s));
    }

    #[test]
    fn non_ascii_text_round_trips() {
        let s = "é — E1 — figure2 😀 bell\u{7}";
        let quoted = format!("\"{}\"", escape(s));
        assert_eq!(parse(&quoted).unwrap().str_val(), Some(s));
        let doc = object([("s", Json::from(s))]);
        for text in [doc.line(), doc.pretty()] {
            assert_eq!(
                parse(&text).unwrap().get("s").and_then(Json::str_val),
                Some(s)
            );
        }
        // A surrogate-pair escape is one character.
        assert_eq!(parse(r#""\ud83d\ude00""#).unwrap().str_val(), Some("😀"));
    }

    #[test]
    fn writer_indents_nested_members_and_inlines_flat_ones() {
        let doc = object([
            ("v", Json::from(4u64)),
            ("threads", [1u64, 2].into_iter().collect()),
            (
                "grid",
                object([("n", Json::from(12u64)), ("m", round(1.23456, 2))]),
            ),
            ("none", Json::Null),
            ("rows", Json::Arr(vec![object([("ok", true.into())])])),
            ("empty", Json::Arr(Vec::new())),
            ("bad", Json::Num(f64::NAN)),
        ]);
        assert_eq!(
            doc.pretty(),
            "{\n  \"v\": 4,\n  \"threads\": [1, 2],\n  \"grid\": { \"n\": 12, \"m\": 1.23 },\n  \
             \"none\": null,\n  \"rows\": [\n    { \"ok\": true }\n  ],\n  \"empty\": [],\n  \
             \"bad\": null\n}\n"
        );
        assert_eq!(
            doc.line(),
            "{\"v\":4,\"threads\":[1,2],\"grid\":{\"n\":12,\"m\":1.23},\"none\":null,\
             \"rows\":[{\"ok\":true}],\"empty\":[],\"bad\":null}"
        );
    }

    fn positive(doc: &Json) -> Result<(), String> {
        match doc.get("rows").and_then(Json::arr).map(<[Json]>::len) {
            Some(0) => Err("rows must not be empty".into()),
            _ => Ok(()),
        }
    }

    fn no_failures(doc: &Json) -> Result<(), String> {
        match doc.get("failed").and_then(Json::bool_val) {
            Some(true) => Err("run failed".into()),
            _ => Ok(()),
        }
    }

    static SAMPLE: Schema = Schema {
        version: Some(2),
        fields: &[
            Field::req("name", Type::Tag(&["sample"])),
            Field::req("host", Type::Obj).presence(Presence::Optional),
            Field::req("host.cores", Type::Int).min(1.0),
            Field::req("deadline", Type::Num).presence(Presence::Nullable),
            Field::req("rows", Type::Arr),
            Field::req("rows[]", Type::Obj),
            Field::req("rows[].{rate,share}", Type::Num).within(0.0, 1.0),
            Field::req("failed", Type::Bool),
        ],
        shape: &[positive],
        gates: &[no_failures],
    };

    #[test]
    fn schema_checks_versions_fields_and_rules() {
        let good = r#"{"schema_version": 2, "name": "sample", "deadline": null,
                       "rows": [{"rate": 0.5, "share": 1}], "failed": false}"#;
        let check = |edit: &str, to: &str| SAMPLE.check(&parse(&good.replace(edit, to)).unwrap());
        assert_eq!(check("", ""), Ok(()));
        let cases = [
            (
                "\"schema_version\": 2",
                "\"schema_version\": 3",
                "unknown schema_version 3 (expected 2)",
            ),
            ("\"sample\"", "\"other\"", "unknown name \"other\" at name"),
            (
                "\"name\"",
                "\"host\": {\"cores\": 0}, \"name\"",
                "host.cores must be a positive integer",
            ),
            ("null", "\"soon\"", "deadline must be a number or null"),
            ("\"deadline\": null,", "", "missing deadline at deadline"),
            ("0.5", "1.5", "rows[0].rate must be a number within [0, 1]"),
            (
                "\"share\": 1",
                "\"share\": -1",
                "rows[0].share must be a number within [0, 1]",
            ),
            ("\"rate\": 0.5, ", "", "missing rate at rows[0].rate"),
            (
                "[{\"rate\": 0.5, \"share\": 1}]",
                "[7]",
                "rows[0] must be an object",
            ),
            (
                "[{\"rate\": 0.5, \"share\": 1}]",
                "[]",
                "rows must not be empty",
            ),
        ];
        for (edit, to, want) in cases {
            assert_eq!(check(edit, to), Err(want.to_string()), "{edit} -> {to}");
        }
        // Gate rules are not shape: a failed run's document is still
        // well formed, and only `check` rejects it.
        let failed = parse(&good.replace("false", "true")).unwrap();
        assert_eq!(SAMPLE.check_shape(&failed), Ok(()));
        assert_eq!(SAMPLE.check(&failed), Err("run failed".to_string()));
        assert!(SAMPLE.check(&parse("[1]").unwrap()).is_err());
    }
}
