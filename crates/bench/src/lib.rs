//! Benchmark harness for the Flux reproduction.
//!
//! The binary `table1` regenerates the paper's Table 1 (run with
//! `cargo run -p flux-bench --release --bin table1`); the benches under
//! `benches/` measure the same verification runs, plus two ablations
//! (inference on/off, strong references on/off) and SMT micro-benchmarks.
//!
//! The container this reproduction builds in has no access to crates.io, so
//! instead of Criterion the benches use the tiny self-contained timing
//! harness in [`harness`].  It mirrors the small slice of Criterion's API
//! the benches need (`benchmark_group`, `bench_function`, `Bencher::iter`)
//! so the bench sources read the same as they would with the real thing.

pub mod daemon_client;

pub mod json {
    //! A minimal JSON reader/writer shared by the perf regression gate and
    //! the `fluxd` daemon protocol.
    //!
    //! `table1 --json` compares the fresh run against the *committed*
    //! `BENCH_table1.json`, and `flux-daemon` frames its requests and
    //! responses in the same grammar; this module parses and renders JSON
    //! values without external crates (no serde) — objects, arrays, strings
    //! with the standard escape sequences, numbers, booleans and null.

    use std::collections::BTreeMap;

    /// A parsed JSON value.
    #[derive(Clone, Debug, PartialEq)]
    pub enum Value {
        /// `null`.
        Null,
        /// A boolean.
        Bool(bool),
        /// Any number (parsed as `f64`; the gate only compares magnitudes).
        Number(f64),
        /// A string.
        String(String),
        /// An array.
        Array(Vec<Value>),
        /// An object.
        Object(BTreeMap<String, Value>),
    }

    impl Value {
        /// Member lookup on objects.
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Object(map) => map.get(key),
                _ => None,
            }
        }

        /// The numeric value, if this is a number.
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Value::Number(n) => Some(*n),
                _ => None,
            }
        }

        /// The elements, if this is an array.
        pub fn as_array(&self) -> Option<&[Value]> {
            match self {
                Value::Array(items) => Some(items),
                _ => None,
            }
        }

        /// The text, if this is a string.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::String(s) => Some(s),
                _ => None,
            }
        }

        /// The boolean, if this is one.
        pub fn as_bool(&self) -> Option<bool> {
            match self {
                Value::Bool(b) => Some(*b),
                _ => None,
            }
        }

        /// The numeric value as a `u64`, if this is a non-negative integer
        /// number (request ids, millisecond counts, step budgets).
        pub fn as_u64(&self) -> Option<u64> {
            match self {
                Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                    Some(*n as u64)
                }
                _ => None,
            }
        }
    }

    /// Renders `s` as a JSON string literal, quotes included, escaping the
    /// two mandatory characters plus controls — enough for the daemon
    /// protocol to carry arbitrary program sources and error messages.
    pub fn quote(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    /// Parses `input` as a single JSON value (trailing whitespace allowed).
    pub fn parse(input: &str) -> Result<Value, String> {
        let bytes = input.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing content at byte {pos}"));
        }
        Ok(value)
    }

    fn skip_ws(bytes: &[u8], pos: &mut usize) {
        while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
            *pos += 1;
        }
    }

    fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
        if bytes.get(*pos) == Some(&b) {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {pos}", b as char))
        }
    }

    fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b'{') => {
                *pos += 1;
                let mut map = BTreeMap::new();
                skip_ws(bytes, pos);
                if bytes.get(*pos) == Some(&b'}') {
                    *pos += 1;
                    return Ok(Value::Object(map));
                }
                loop {
                    skip_ws(bytes, pos);
                    let key = parse_string(bytes, pos)?;
                    skip_ws(bytes, pos);
                    expect(bytes, pos, b':')?;
                    map.insert(key, parse_value(bytes, pos)?);
                    skip_ws(bytes, pos);
                    match bytes.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b'}') => {
                            *pos += 1;
                            return Ok(Value::Object(map));
                        }
                        _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
                    }
                }
            }
            Some(b'[') => {
                *pos += 1;
                let mut items = Vec::new();
                skip_ws(bytes, pos);
                if bytes.get(*pos) == Some(&b']') {
                    *pos += 1;
                    return Ok(Value::Array(items));
                }
                loop {
                    items.push(parse_value(bytes, pos)?);
                    skip_ws(bytes, pos);
                    match bytes.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b']') => {
                            *pos += 1;
                            return Ok(Value::Array(items));
                        }
                        _ => return Err(format!("expected `,` or `]` at byte {pos}")),
                    }
                }
            }
            Some(b'"') => Ok(Value::String(parse_string(bytes, pos)?)),
            Some(b't') if bytes[*pos..].starts_with(b"true") => {
                *pos += 4;
                Ok(Value::Bool(true))
            }
            Some(b'f') if bytes[*pos..].starts_with(b"false") => {
                *pos += 5;
                Ok(Value::Bool(false))
            }
            Some(b'n') if bytes[*pos..].starts_with(b"null") => {
                *pos += 4;
                Ok(Value::Null)
            }
            Some(_) => {
                let start = *pos;
                while *pos < bytes.len()
                    && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                {
                    *pos += 1;
                }
                let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii slice");
                text.parse()
                    .map(Value::Number)
                    .map_err(|_| format!("malformed number `{text}` at byte {start}"))
            }
            None => Err("unexpected end of input".to_owned()),
        }
    }

    fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
        expect(bytes, pos, b'"')?;
        let mut out = Vec::new();
        loop {
            match bytes.get(*pos) {
                None => return Err("unterminated string".to_owned()),
                Some(b'"') => {
                    *pos += 1;
                    return String::from_utf8(out)
                        .map_err(|_| "invalid utf-8 in string".to_owned());
                }
                Some(b'\\') => {
                    *pos += 1;
                    match bytes.get(*pos) {
                        Some(b'"') => out.push(b'"'),
                        Some(b'\\') => out.push(b'\\'),
                        Some(b'/') => out.push(b'/'),
                        Some(b'b') => out.push(0x08),
                        Some(b'f') => out.push(0x0c),
                        Some(b'n') => out.push(b'\n'),
                        Some(b'r') => out.push(b'\r'),
                        Some(b't') => out.push(b'\t'),
                        Some(b'u') => {
                            let unit = parse_hex4(bytes, *pos + 1)?;
                            *pos += 4;
                            // Surrogate pairs: a high surrogate must be
                            // followed by `\u` + a low surrogate.
                            let scalar = if (0xD800..0xDC00).contains(&unit) {
                                if bytes.get(*pos + 1) != Some(&b'\\')
                                    || bytes.get(*pos + 2) != Some(&b'u')
                                {
                                    return Err(format!("lone high surrogate at byte {pos}"));
                                }
                                let low = parse_hex4(bytes, *pos + 3)?;
                                *pos += 6;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(format!("invalid low surrogate at byte {pos}"));
                                }
                                0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00)
                            } else if (0xDC00..0xE000).contains(&unit) {
                                return Err(format!("lone low surrogate at byte {pos}"));
                            } else {
                                unit
                            };
                            let c = char::from_u32(scalar)
                                .ok_or_else(|| format!("invalid scalar at byte {pos}"))?;
                            let mut buf = [0u8; 4];
                            out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                        }
                        _ => return Err(format!("unsupported escape at byte {pos}")),
                    }
                    *pos += 1;
                }
                Some(&b) => {
                    out.push(b);
                    *pos += 1;
                }
            }
        }
    }

    /// Parses the four hex digits of a `\uXXXX` escape starting at `at`.
    fn parse_hex4(bytes: &[u8], at: usize) -> Result<u32, String> {
        let digits = bytes
            .get(at..at + 4)
            .ok_or_else(|| format!("truncated \\u escape at byte {at}"))?;
        let text = std::str::from_utf8(digits).map_err(|_| "invalid utf-8 in escape".to_owned())?;
        u32::from_str_radix(text, 16).map_err(|_| format!("malformed \\u escape at byte {at}"))
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        /// The gate reads what `flux::render_table1_json` writes: a
        /// synthetic row in which every counter of both layers holds a
        /// distinct value, so a counter written under another's name (or
        /// dropped) cannot read back correctly.
        #[test]
        fn parses_the_bench_snapshot_shape() {
            let mut stats = flux::QueryStats::default();
            let slots = stats.fix.counters_mut().chain(stats.smt.counters_mut());
            for (n, (_, slot)) in (1..).zip(slots) {
                *slot = n;
            }
            let outcome = |mode, time_ms, stats| flux::VerifyOutcome {
                mode,
                safe: true,
                errors: Vec::new(),
                time: std::time::Duration::from_millis(time_ms),
                functions: 2,
                loc: 0,
                spec_lines: 0,
                annot_lines: 0,
                stats,
            };
            let row = flux::TableRow {
                name: "synthetic".to_owned(),
                is_library: false,
                flux: outcome(flux::Mode::Flux, 1500, stats.clone()),
                baseline: outcome(flux::Mode::Baseline, 250, flux::QueryStats::default()),
            };
            let gate = flux::GateTolerances {
                time_factor: 1.5,
                query_factor: 1.1,
                min_time_s: 0.01,
                min_queries: 7.0,
            };
            let value =
                parse(&flux::render_table1_json(&[row], &gate)).expect("writer output parses");
            let benchmarks = value.get("benchmarks").unwrap().as_array().unwrap();
            assert_eq!(
                benchmarks[0].get("name").unwrap(),
                &Value::String("synthetic".to_owned())
            );
            let flux_side = benchmarks[0].get("flux").unwrap();
            for (name, n) in stats.fix.counters() {
                assert_eq!(
                    flux_side.get(name).and_then(Value::as_u64),
                    Some(n as u64),
                    "fixpoint counter `{name}`"
                );
            }
            let smt = flux_side.get("smt").expect("SMT counters are nested");
            for (name, n) in stats.smt.counters() {
                assert_eq!(
                    smt.get(name).and_then(Value::as_u64),
                    Some(n as u64),
                    "SMT counter `{name}`"
                );
            }
            // Where the gate's `row_figures` reads each side of a row.
            for (side, time_s, queries) in
                [("flux", 1.5, stats.fix.smt_queries), ("baseline", 0.25, 0)]
            {
                let outcome = benchmarks[0].get(side).unwrap();
                assert_eq!(outcome.get("time_s").unwrap().as_f64(), Some(time_s));
                assert_eq!(
                    outcome.get("smt_queries").unwrap().as_u64(),
                    Some(queries as u64)
                );
            }
            let totals = value.get("totals").expect("totals present");
            assert_eq!(totals.get("flux_time_s").unwrap().as_f64(), Some(1.5));
            let tolerances = value.get("gate").expect("gate present");
            for (key, expected) in [
                ("time_factor", gate.time_factor),
                ("query_factor", gate.query_factor),
                ("min_time_s", gate.min_time_s),
                ("min_queries", gate.min_queries),
            ] {
                assert_eq!(
                    tolerances.get(key).unwrap().as_f64(),
                    Some(expected),
                    "{key}"
                );
            }
        }

        #[test]
        fn rejects_malformed_input() {
            assert!(parse("{").is_err());
            assert!(parse("[1, 2,]").is_err());
            assert!(parse("12x").is_err());
            assert!(parse("{\"a\": 1} trailing").is_err());
        }

        #[test]
        fn parses_scalars() {
            assert_eq!(parse("true").unwrap(), Value::Bool(true));
            assert_eq!(parse("null").unwrap(), Value::Null);
            assert_eq!(parse("-3.25").unwrap().as_f64(), Some(-3.25));
            assert_eq!(parse("[]").unwrap(), Value::Array(vec![]));
        }

        #[test]
        fn string_escapes_round_trip_through_quote() {
            // The daemon protocol carries whole program sources: quotes,
            // backslashes, newlines, tabs and control characters all have
            // to survive a quote → parse round trip byte-for-byte.
            let source = "fn f() {\n\t\"quoted\\path\"\r}\u{1}\u{7f}héllo\u{10348}";
            let encoded = quote(source);
            assert_eq!(parse(&encoded).unwrap().as_str(), Some(source));
        }

        #[test]
        fn parses_standard_escapes_and_surrogate_pairs() {
            assert_eq!(
                parse(r#""a\"b\\c\/d\b\f\n\r\t""#).unwrap().as_str(),
                Some("a\"b\\c/d\u{8}\u{c}\n\r\t")
            );
            assert_eq!(parse(r#""Aé""#).unwrap().as_str(), Some("Aé"));
            // U+10348 as the escaped surrogate pair D800 DF48, and as
            // literal UTF-8; both forms must parse to the same string.
            assert_eq!(parse(r#""𐍈""#).unwrap().as_str(), Some("\u{10348}"));
            assert_eq!(parse(r#""𐍈""#).unwrap().as_str(), Some("\u{10348}"));
            assert!(parse(r#""\ud800""#).is_err(), "lone high surrogate");
            assert!(parse(r#""\udf48""#).is_err(), "lone low surrogate");
            assert!(parse(r#""\ux""#).is_err(), "truncated \\u escape");
            assert!(parse(r#""\q""#).is_err(), "unknown escape");
            assert!(parse(r#""unterminated"#).is_err());
        }

        #[test]
        fn typed_accessors() {
            assert_eq!(parse("7").unwrap().as_u64(), Some(7));
            assert_eq!(parse("7.5").unwrap().as_u64(), None);
            assert_eq!(parse("-7").unwrap().as_u64(), None);
            assert_eq!(parse("true").unwrap().as_bool(), Some(true));
            assert_eq!(parse("\"x\"").unwrap().as_bool(), None);
        }
    }
}

pub mod harness {
    //! A minimal Criterion-style benchmarking harness.

    pub use std::hint::black_box;
    use std::time::{Duration, Instant};

    /// Top-level entry point, analogous to `criterion::Criterion`.
    #[derive(Default)]
    pub struct Criterion {}

    impl Criterion {
        /// Creates a harness.
        pub fn new() -> Criterion {
            Criterion::default()
        }

        /// Starts a named group of benchmarks.
        pub fn benchmark_group(&mut self, name: &str) -> Group {
            println!("== {name} ==");
            Group {
                name: name.to_owned(),
                sample_size: 10,
            }
        }
    }

    /// A group of related benchmarks sharing a sample size.
    pub struct Group {
        name: String,
        sample_size: usize,
    }

    impl Group {
        /// Sets the number of timed samples per benchmark.
        pub fn sample_size(&mut self, n: usize) -> &mut Group {
            self.sample_size = n.max(1);
            self
        }

        /// Runs one benchmark: `routine` receives a [`Bencher`] and must
        /// call [`Bencher::iter`].
        pub fn bench_function(
            &mut self,
            id: impl std::fmt::Display,
            mut routine: impl FnMut(&mut Bencher),
        ) -> &mut Group {
            let mut bencher = Bencher {
                samples: Vec::with_capacity(self.sample_size),
                sample_size: self.sample_size,
            };
            routine(&mut bencher);
            let stats = summarize(&bencher.samples);
            println!(
                "{}/{id:<28} min {:>12?}  mean {:>12?}  max {:>12?}  ({} samples)",
                self.name,
                stats.min,
                stats.mean,
                stats.max,
                bencher.samples.len()
            );
            self
        }

        /// Ends the group (kept for API parity; printing is immediate).
        pub fn finish(&mut self) {}
    }

    /// Passed to benchmark routines; times the closure given to `iter`.
    pub struct Bencher {
        samples: Vec<Duration>,
        sample_size: usize,
    }

    impl Bencher {
        /// Times `f`, once per sample, after one untimed warm-up run.
        pub fn iter<R>(&mut self, mut f: impl FnMut() -> R) {
            black_box(f()); // warm-up
            for _ in 0..self.sample_size {
                let start = Instant::now();
                black_box(f());
                self.samples.push(start.elapsed());
            }
        }
    }

    struct Summary {
        min: Duration,
        mean: Duration,
        max: Duration,
    }

    fn summarize(samples: &[Duration]) -> Summary {
        if samples.is_empty() {
            return Summary {
                min: Duration::ZERO,
                mean: Duration::ZERO,
                max: Duration::ZERO,
            };
        }
        let total: Duration = samples.iter().sum();
        Summary {
            min: *samples.iter().min().unwrap(),
            mean: total / samples.len() as u32,
            max: *samples.iter().max().unwrap(),
        }
    }
}
