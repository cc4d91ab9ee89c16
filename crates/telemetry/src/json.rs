//! The workspace's one JSON writer.
//!
//! Every JSON document the stack emits — the service stats, the sweep's
//! stream records, the metrics and telemetry snapshots and the Chrome
//! trace — is built through [`object`], so this module alone knows JSON
//! syntax: braces, brackets, commas, quoting and string escaping. Output
//! is compact (no whitespace), except that an array built with
//! [`Object::lines`] puts each element on a line of its own. Keys are
//! written in call order.
//!
//! ```
//! use ulp_telemetry::json;
//!
//! let text = json::object(|o| {
//!     o.uint("schema", 3u32).str("name", "a \"b\"").fixed("ratio", 2.0 / 3.0, 4);
//!     o.array("banks", |a| {
//!         a.uint(1u64).uint(2u64);
//!     });
//!     o.object("args", |_| {});
//! });
//! assert_eq!(
//!     text,
//!     r#"{"schema":3,"name":"a \"b\"","ratio":0.6667,"banks":[1,2],"args":{}}"#
//! );
//! ```

use std::fmt::{Display, Write};

/// An unsigned integer, written in decimal.
pub trait Uint: Display {}
impl Uint for u32 {}
impl Uint for u64 {}
impl Uint for usize {}
impl Uint for u128 {}

/// Builds one JSON object with `build` and returns its text.
pub fn object(build: impl FnOnce(&mut Object<'_>)) -> String {
    let mut out = String::new();
    Object::write(&mut out, build);
    out
}

/// Appends `s` as a JSON string: quoted, with `"`, `\` and control
/// characters escaped.
fn string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends `v` with `decimals` digits after the point; `null` when `v` is
/// not finite, which JSON numbers cannot express.
fn fixed(out: &mut String, v: f64, decimals: usize) {
    if v.is_finite() {
        let _ = write!(out, "{v:.decimals$}");
    } else {
        out.push_str("null");
    }
}

/// The members of one JSON object being written.
pub struct Object<'a> {
    out: &'a mut String,
    empty: bool,
}

impl Object<'_> {
    fn write(out: &mut String, build: impl FnOnce(&mut Object<'_>)) {
        out.push('{');
        build(&mut Object { out, empty: true });
        out.push('}');
    }

    /// Writes the separator and `"key":`, returning the buffer for the
    /// value.
    fn key(&mut self, key: &str) -> &mut String {
        if !std::mem::replace(&mut self.empty, false) {
            self.out.push(',');
        }
        string(self.out, key);
        self.out.push(':');
        self.out
    }

    /// An unsigned integer member.
    pub fn uint(&mut self, key: &str, v: impl Uint) -> &mut Self {
        let _ = write!(self.key(key), "{v}");
        self
    }

    /// A number member with `decimals` digits after the point (`null`
    /// when `v` is not finite).
    pub fn fixed(&mut self, key: &str, v: f64, decimals: usize) -> &mut Self {
        fixed(self.key(key), v, decimals);
        self
    }

    /// A string member, escaped.
    pub fn str(&mut self, key: &str, v: &str) -> &mut Self {
        string(self.key(key), v);
        self
    }

    /// A nested object member.
    pub fn object(&mut self, key: &str, build: impl FnOnce(&mut Object<'_>)) -> &mut Self {
        Object::write(self.key(key), build);
        self
    }

    /// An array member, elements separated by `,`.
    pub fn array(&mut self, key: &str, build: impl FnOnce(&mut Array<'_>)) -> &mut Self {
        Array::write(self.key(key), ",", build);
        self
    }

    /// An array member with one element per line (elements separated by
    /// `,` and a newline), for long documents read in a text editor.
    pub fn lines(&mut self, key: &str, build: impl FnOnce(&mut Array<'_>)) -> &mut Self {
        Array::write(self.key(key), ",\n", build);
        self
    }

    /// A member whose value is a JSON text this module already wrote
    /// (one document embedded in another).
    pub fn raw(&mut self, key: &str, json: &str) -> &mut Self {
        self.key(key).push_str(json);
        self
    }
}

/// The elements of one JSON array being written.
pub struct Array<'a> {
    out: &'a mut String,
    separator: &'static str,
    empty: bool,
}

impl Array<'_> {
    fn write(out: &mut String, separator: &'static str, build: impl FnOnce(&mut Array<'_>)) {
        out.push('[');
        build(&mut Array {
            out,
            separator,
            empty: true,
        });
        out.push(']');
    }

    fn next(&mut self) -> &mut String {
        if !std::mem::replace(&mut self.empty, false) {
            self.out.push_str(self.separator);
        }
        self.out
    }

    /// An unsigned integer element.
    pub fn uint(&mut self, v: impl Uint) -> &mut Self {
        let _ = write!(self.next(), "{v}");
        self
    }

    /// An object element.
    pub fn object(&mut self, build: impl FnOnce(&mut Object<'_>)) -> &mut Self {
        Object::write(self.next(), build);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_escape_quotes_backslashes_and_control_characters() {
        let text = object(|o| {
            o.str("s", "a\"b\\c\nd\re\tf\u{1}g\u{1f}h\u{7f}é");
        });
        assert_eq!(
            text,
            r#"{"s":"a\"b\\c\nd\re\tf\u0001g\u001fh"#.to_string() + "\u{7f}é\"}"
        );
    }

    #[test]
    fn keys_are_escaped_too() {
        assert_eq!(
            object(|o| {
                o.uint("a\"b", 1u32);
            }),
            r#"{"a\"b":1}"#
        );
    }

    #[test]
    fn nesting_separators_and_empty_containers() {
        let text = object(|o| {
            o.object("empty", |_| {})
                .array("none", |_| {})
                .lines("rows", |a| {
                    a.object(|r| {
                        r.uint("x", 1u64);
                    })
                    .object(|r| {
                        r.uint("x", 2u64);
                    });
                })
                .raw("inner", "{\"k\":[1]}")
                .uint("big", u128::MAX);
        });
        assert_eq!(
            text,
            concat!(
                "{\"empty\":{},\"none\":[],\"rows\":[{\"x\":1},\n{\"x\":2}],",
                "\"inner\":{\"k\":[1]},\"big\":340282366920938463463374607431768211455}"
            )
        );
        assert_eq!(object(|_| {}), "{}");
    }

    #[test]
    fn fixed_rounds_and_writes_null_for_non_finite() {
        let text = object(|o| {
            o.fixed("a", 10.17949, 3)
                .fixed("b", 1.75, 4)
                .fixed("c", f64::NAN, 3)
                .fixed("d", f64::INFINITY, 3);
        });
        assert_eq!(text, r#"{"a":10.179,"b":1.7500,"c":null,"d":null}"#);
    }
}
