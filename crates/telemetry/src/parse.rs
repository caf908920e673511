//! In-repo parsers for the exporter formats — used by CI's schema
//! validation (`trace_validate`) and by tests, so the repo can check its
//! own emissions without a JSON dependency.

use std::collections::BTreeMap;
use std::fmt;

/// Minimal JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }
}

/// Parse error with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub offset: usize,
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> JsonParser<'a> {
    fn err<T>(&self, msg: &str) -> Result<T, ParseError> {
        Err(ParseError {
            offset: self.pos,
            message: msg.to_string(),
        })
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(&format!("expected '{}'", b as char))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => self.err("expected a JSON value"),
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            self.err(&format!("expected '{lit}'"))
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| ParseError {
            offset: start,
            message: "invalid utf8 in number".into(),
        })?;
        s.parse::<f64>().map(Json::Num).map_err(|_| ParseError {
            offset: start,
            message: format!("invalid number '{s}'"),
        })
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return self.err("unterminated string"),
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
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            if self.pos + 4 >= self.bytes.len() {
                                return self.err("truncated \\u escape");
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|_| ParseError {
                                    offset: self.pos,
                                    message: "invalid \\u escape".into(),
                                })?;
                            let code = u32::from_str_radix(hex, 16).map_err(|_| ParseError {
                                offset: self.pos,
                                message: "invalid \\u escape".into(),
                            })?;
                            // Surrogate pairs are not needed for our own
                            // emissions; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return self.err("invalid escape"),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar.
                    let rest =
                        std::str::from_utf8(&self.bytes[self.pos..]).map_err(|_| ParseError {
                            offset: self.pos,
                            message: "invalid utf8 in string".into(),
                        })?;
                    let c = rest.chars().next().expect("peeked non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(out));
        }
        loop {
            out.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(out));
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut out = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(out));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            out.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(out));
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }
}

/// Parse a complete JSON document.
pub fn parse_json(input: &str) -> Result<Json, ParseError> {
    let mut p = JsonParser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return p.err("trailing garbage after JSON value");
    }
    Ok(v)
}

/// One event from a chrome-trace file, schema-checked.
#[derive(Debug, Clone)]
pub struct ChromeEvent {
    pub name: String,
    pub ph: String,
    pub pid: u64,
    pub tid: u64,
    /// Microseconds; 0 for metadata events.
    pub ts: f64,
    /// Microseconds; 0 for metadata events.
    pub dur: f64,
    pub args: BTreeMap<String, Json>,
}

/// Parse and schema-validate a chrome-trace JSON document as emitted by
/// [`crate::export::chrome_trace`] (and accepted by Perfetto): a top-level
/// object with a `traceEvents` array whose entries carry `name`/`ph`/
/// `pid`/`tid`, and `ts`+`dur` for `ph == "X"` complete events.
pub fn parse_chrome_trace(input: &str) -> Result<Vec<ChromeEvent>, ParseError> {
    let doc = parse_json(input)?;
    let schema_err = |msg: &str| ParseError {
        offset: 0,
        message: msg.to_string(),
    };
    let events = doc
        .get("traceEvents")
        .and_then(|e| e.as_arr())
        .ok_or_else(|| schema_err("top-level object must have a traceEvents array"))?;
    let mut out = Vec::with_capacity(events.len());
    for (i, ev) in events.iter().enumerate() {
        let name = ev
            .get("name")
            .and_then(|v| v.as_str())
            .ok_or_else(|| schema_err(&format!("event {i}: missing string 'name'")))?;
        let ph = ev
            .get("ph")
            .and_then(|v| v.as_str())
            .ok_or_else(|| schema_err(&format!("event {i}: missing string 'ph'")))?;
        let pid = ev
            .get("pid")
            .and_then(|v| v.as_f64())
            .ok_or_else(|| schema_err(&format!("event {i}: missing numeric 'pid'")))?;
        let tid = ev
            .get("tid")
            .and_then(|v| v.as_f64())
            .ok_or_else(|| schema_err(&format!("event {i}: missing numeric 'tid'")))?;
        let (ts, dur) = if ph == "X" {
            let ts = ev
                .get("ts")
                .and_then(|v| v.as_f64())
                .ok_or_else(|| schema_err(&format!("event {i}: X event missing 'ts'")))?;
            let dur = ev
                .get("dur")
                .and_then(|v| v.as_f64())
                .ok_or_else(|| schema_err(&format!("event {i}: X event missing 'dur'")))?;
            if ts < 0.0 || dur < 0.0 {
                return Err(schema_err(&format!("event {i}: negative ts/dur")));
            }
            (ts, dur)
        } else {
            (0.0, 0.0)
        };
        let args = match ev.get("args") {
            Some(Json::Obj(m)) => m.clone(),
            None => BTreeMap::new(),
            Some(_) => return Err(schema_err(&format!("event {i}: 'args' must be an object"))),
        };
        out.push(ChromeEvent {
            name: name.to_string(),
            ph: ph.to_string(),
            pid: pid as u64,
            tid: tid as u64,
            ts,
            dur,
            args,
        });
    }
    Ok(out)
}

/// One sample from a Prometheus text dump.
#[derive(Debug, Clone, PartialEq)]
pub struct PromSample {
    pub name: String,
    pub labels: Vec<(String, String)>,
    pub value: f64,
}

fn valid_metric_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Parse a Prometheus text-exposition dump as emitted by
/// [`crate::export::prometheus`]. Validates `# TYPE` comment syntax,
/// metric-name charset and `name{labels} value` sample lines.
pub fn parse_prometheus(input: &str) -> Result<Vec<PromSample>, ParseError> {
    let mut out = Vec::new();
    for (lineno, raw) in input.lines().enumerate() {
        let line = raw.trim();
        let err = |msg: String| ParseError {
            offset: lineno,
            message: format!("line {}: {msg}", lineno + 1),
        };
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            if let Some(ty) = rest.strip_prefix("TYPE ") {
                let mut parts = ty.split_whitespace();
                let name = parts.next().unwrap_or("");
                let kind = parts.next().unwrap_or("");
                if !valid_metric_name(name)
                    || !matches!(
                        kind,
                        "counter" | "gauge" | "histogram" | "summary" | "untyped"
                    )
                {
                    return Err(err(format!("malformed TYPE comment: '{line}'")));
                }
            }
            continue; // HELP and other comments pass through
        }
        // Sample line: name[{k="v",...}] value
        let (ident, value_str) = match line.find(|c: char| c.is_whitespace()) {
            Some(i) if !line[..i].contains('{') => (&line[..i], line[i..].trim()),
            _ => match line.rfind('}') {
                Some(close) => (&line[..=close], line[close + 1..].trim()),
                None => match line.find(|c: char| c.is_whitespace()) {
                    Some(i) => (&line[..i], line[i..].trim()),
                    None => return Err(err(format!("sample line without value: '{line}'"))),
                },
            },
        };
        let (name, labels) = match ident.find('{') {
            None => (ident.to_string(), Vec::new()),
            Some(open) => {
                let name = &ident[..open];
                let body = ident[open..]
                    .strip_prefix('{')
                    .and_then(|s| s.strip_suffix('}'))
                    .ok_or_else(|| err(format!("malformed label set in '{ident}'")))?;
                let mut labels = Vec::new();
                for pair in body.split(',').filter(|p| !p.is_empty()) {
                    let (k, v) = pair
                        .split_once('=')
                        .ok_or_else(|| err(format!("malformed label pair '{pair}'")))?;
                    let v = v
                        .strip_prefix('"')
                        .and_then(|s| s.strip_suffix('"'))
                        .ok_or_else(|| err(format!("label value must be quoted: '{pair}'")))?;
                    labels.push((k.to_string(), v.to_string()));
                }
                (name.to_string(), labels)
            }
        };
        if !valid_metric_name(&name) {
            return Err(err(format!("invalid metric name '{name}'")));
        }
        let value = match value_str {
            "+Inf" => f64::INFINITY,
            "-Inf" => f64::NEG_INFINITY,
            "NaN" => f64::NAN,
            s => s
                .parse::<f64>()
                .map_err(|_| err(format!("invalid sample value '{s}'")))?,
        };
        out.push(PromSample {
            name,
            labels,
            value,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_parser_handles_nesting_and_escapes() {
        let v = parse_json(r#"{"a":[1,2.5,-3e2],"b":{"c":"x\"y\n"},"d":true,"e":null}"#).unwrap();
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2].as_f64(),
            Some(-300.0)
        );
        assert_eq!(
            v.get("b").unwrap().get("c").unwrap().as_str(),
            Some("x\"y\n")
        );
        assert_eq!(v.get("d"), Some(&Json::Bool(true)));
        assert_eq!(v.get("e"), Some(&Json::Null));
    }

    #[test]
    fn json_parser_rejects_garbage() {
        assert!(parse_json("{\"a\":}").is_err());
        assert!(parse_json("[1,2,]").is_err());
        assert!(parse_json("{} trailing").is_err());
        assert!(parse_json("\"unterminated").is_err());
    }

    #[test]
    fn chrome_parser_enforces_schema() {
        let ok = r#"{"traceEvents":[{"name":"e","ph":"X","pid":1,"tid":0,"ts":1.5,"dur":2.0,"args":{"n":4}}]}"#;
        let evs = parse_chrome_trace(ok).unwrap();
        assert_eq!(evs[0].name, "e");
        assert_eq!(evs[0].args.get("n").unwrap().as_f64(), Some(4.0));

        let missing_dur = r#"{"traceEvents":[{"name":"e","ph":"X","pid":1,"tid":0,"ts":1.5}]}"#;
        assert!(parse_chrome_trace(missing_dur).is_err());
        assert!(parse_chrome_trace(r#"{"events":[]}"#).is_err());
    }

    #[test]
    fn prometheus_parser_reads_labels_and_types() {
        let text = "# TYPE hear_prf_blocks_total counter\n\
                    hear_prf_blocks_total{backend=\"aes_ni\"} 42\n\
                    # TYPE g gauge\n\
                    g -3\n\
                    h_bucket{le=\"+Inf\"} 7\n";
        let samples = parse_prometheus(text).unwrap();
        assert_eq!(samples.len(), 3);
        let label = |s: &PromSample| s.labels.clone();
        let pair = |k: &str, v: &str| vec![(k.to_string(), v.to_string())];
        assert_eq!(label(&samples[0]), pair("backend", "aes_ni"));
        assert_eq!(samples[0].value, 42.0);
        assert_eq!(samples[1].value, -3.0);
        assert_eq!(label(&samples[2]), pair("le", "+Inf"));
    }

    #[test]
    fn prometheus_parser_rejects_malformed() {
        assert!(parse_prometheus("# TYPE bad kind\nx 1\n").is_err());
        assert!(parse_prometheus("3name 1\n").is_err());
        assert!(parse_prometheus("name{k=unquoted} 1\n").is_err());
        assert!(parse_prometheus("name notanumber\n").is_err());
    }
}
