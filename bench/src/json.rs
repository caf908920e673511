//! Hand-written JSON output (the package has no dependencies beyond the
//! repo itself) and the validator for metric and workload names.

use std::fmt::Write as _;

/// A JSON value to serialize. Objects keep insertion order so the
/// emitted files read in the order the harness built them.
#[derive(Debug, Clone, PartialEq)]
pub enum Val {
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Val>),
    Obj(Vec<(String, Val)>),
}

impl Val {
    pub fn str(s: impl Into<String>) -> Val {
        Val::Str(s.into())
    }

    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Val)>) -> Val {
        Val::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Serialize on one line. Numbers print with Rust's shortest
    /// round-trip formatting, so no measured digit is lost; whole numbers
    /// print without a fraction. Non-finite numbers have no JSON form and
    /// panic — a metric must never be NaN or infinite.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Val::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Val::Num(n) => {
                assert!(n.is_finite(), "non-finite number {n} has no JSON form");
                let _ = write!(out, "{n}");
            }
            Val::Str(s) => render_str(s, out),
            Val::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    v.render_into(out);
                }
                out.push(']');
            }
            Val::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    render_str(k, out);
                    out.push_str(": ");
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

fn render_str(s: &str, out: &mut String) {
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

/// The contract's rule for workload and metric names: 1 to 64 of
/// `[A-Za-z0-9_.-]`, starting with a letter or a digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    first.is_ascii_alphanumeric()
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hear::telemetry::parse::{parse_json, Json};

    #[test]
    fn writer_round_trips_through_the_repo_parser() {
        let doc = Val::obj([
            ("correct", Val::Bool(true)),
            ("attempted", Val::Num(30_000.0)),
            (
                "note",
                Val::str("tab\there \"quoted\" back\\slash\nnewline \u{1}"),
            ),
            (
                "metrics",
                Val::obj([(
                    "call_us",
                    Val::obj([("value", Val::Num(181.30457)), ("unit", Val::str("us"))]),
                )]),
            ),
            ("list", Val::Arr(vec![Val::Num(-0.5), Val::Num(1e-9)])),
        ]);
        let text = doc.render();
        assert!(!text.contains('\n'), "one line: {text}");
        let parsed = parse_json(&text).expect("own output parses");
        assert_eq!(parsed.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(
            parsed.get("attempted").and_then(Json::as_f64),
            Some(30_000.0)
        );
        assert_eq!(
            parsed.get("note").and_then(Json::as_str),
            Some("tab\there \"quoted\" back\\slash\nnewline \u{1}")
        );
        let call = parsed.get("metrics").and_then(|m| m.get("call_us"));
        assert_eq!(
            call.and_then(|c| c.get("value")).and_then(Json::as_f64),
            Some(181.30457)
        );
        assert_eq!(
            call.and_then(|c| c.get("unit")).and_then(Json::as_str),
            Some("us")
        );
        let list = parsed.get("list").and_then(Json::as_arr).expect("array");
        assert_eq!(list[0].as_f64(), Some(-0.5));
        assert_eq!(list[1].as_f64(), Some(1e-9));
    }

    #[test]
    fn whole_numbers_print_without_fraction() {
        assert_eq!(Val::Num(3.0).render(), "3");
        assert_eq!(Val::Num(0.0).render(), "0");
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn nan_is_refused() {
        let _ = Val::Num(f64::NAN).render();
    }

    #[test]
    fn name_rule() {
        for ok in [
            "call_us",
            "prf.keystream_MBps",
            "mpi.msgs_per_call_w4",
            "9lives",
            "a-b",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let too_long = "x".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "-lead",
            "has space",
            "µs",
            "a/b",
            &too_long,
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"x".repeat(64)));
    }
}
