//! Differential and mutation battery for the one-pass execution-trace decoder.
//!
//! `ExecutionTrace::from_json` reads the document straight from `json::Reader`,
//! building no JSON tree. The reference below is the tree-walking decoder it replaced,
//! kept verbatim (as free functions, since a test cannot add methods to the crate's
//! types): `json::parse` into a `JsonValue`, then field lookups. Over canonical traces
//! of small recorded runs, hand-written documents (reordered, unknown and duplicate
//! keys, whitespace, escapes, non-finite floats) and thousands of deterministic
//! mutations of them, the two decoders must agree exactly:
//!
//! - both return `Ok` with byte-identical canonical JSON (a NaN-safe comparison), or
//!   both return `Err(TraceError::Parse)`;
//! - an accepted trace is a fixed point after one decode and encode;
//! - nothing panics.

use dg_cloudsim::{ExecutionSpec, InterferenceProfile, SimRng, VmType};
use dg_exec::json::{self, push_str_literal, JsonValue};
use dg_exec::{
    BackendProvider, ExecutionBackend, ExecutionTrace, GameRules, SimProvider, TraceError,
    TraceRecorder,
};

/// The tree-walking decoder `ExecutionTrace::from_json` used before it read from the
/// pull reader, verbatim apart from being free functions.
mod reference {
    use dg_cloudsim::{ExecutionSpec, ObservedRun, SimTime};
    use dg_exec::json::{self, JsonValue};
    use dg_exec::{ExecutionTrace, GamePlay, GameRules, TraceError, TraceEvent, TraceStream};

    /// Parses a trace from its canonical JSON form.
    pub fn from_json(text: &str) -> Result<ExecutionTrace, TraceError> {
        let root = json::parse(text).map_err(TraceError::Parse)?;
        let campaign = get_str(&root, "campaign")?;
        let fingerprint = get_u64(&root, "fingerprint")?;
        let mut streams = Vec::new();
        for value in get_array(&root, "streams")? {
            streams.push(stream_from_value(value)?);
        }
        // Canonicalize: streams are key-sorted (the writer always emits them sorted;
        // sorting here keeps hand-edited documents working and lookups O(log n)).
        streams.sort_by(|a, b| a.key.cmp(&b.key));
        if streams.windows(2).any(|w| w[0].key == w[1].key) {
            return Err(TraceError::Parse("duplicate stream keys".into()));
        }
        ExecutionTrace::from_streams(campaign, fingerprint, streams)
    }

    fn stream_from_value(value: &JsonValue) -> Result<TraceStream, TraceError> {
        let mut events = Vec::new();
        for event in get_array(value, "events")? {
            events.push(event_from_value(event)?);
        }
        let failure = match value.get("failure") {
            None => None,
            Some(v) => Some(
                v.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| TraceError::Parse("failure is not a string".into()))?,
            ),
        };
        Ok(TraceStream {
            key: get_str(value, "key")?,
            vm: get_str(value, "vm")?,
            profile: get_str(value, "profile")?,
            seed: get_u64(value, "seed")?,
            failure,
            events,
        })
    }

    fn event_from_value(value: &JsonValue) -> Result<TraceEvent, TraceError> {
        let op = get_str(value, "op")?;
        match op.as_str() {
            "game" => {
                let specs = get_array(value, "specs")?
                    .iter()
                    .map(parse_spec)
                    .collect::<Result<Vec<_>, _>>()?;
                let rules_parts = field(value, "rules")?
                    .as_array()
                    .ok_or_else(|| TraceError::Parse("rules is not an array".into()))?;
                if rules_parts.len() != 3 {
                    return Err(TraceError::Parse("rules needs 3 entries".into()));
                }
                let rules = GameRules {
                    early_termination: rules_parts[0]
                        .as_bool()
                        .ok_or_else(|| TraceError::Parse("rules[0] is not a bool".into()))?,
                    work_done_deviation: parse_trace_f64(&rules_parts[1])?,
                    min_leader_progress: parse_trace_f64(&rules_parts[2])?,
                };
                let play = GamePlay {
                    start: parse_time(value, "start")?,
                    elapsed: get_f64(value, "elapsed")?,
                    observed_times: get_f64_array(value, "times")?,
                    execution_scores: get_f64_array(value, "scores")?,
                    early_terminated: field(value, "early")?
                        .as_bool()
                        .ok_or_else(|| TraceError::Parse("early is not a bool".into()))?,
                };
                if play.observed_times.len() != specs.len()
                    || play.execution_scores.len() != specs.len()
                {
                    return Err(TraceError::Parse(
                        "game player counts are inconsistent".into(),
                    ));
                }
                Ok(TraceEvent::Game { specs, rules, play })
            }
            "single" => Ok(TraceEvent::Single {
                spec: parse_spec(field(value, "spec")?)?,
                run: ObservedRun {
                    observed_time: get_f64(value, "time")?,
                    started_at: parse_time(value, "start")?,
                    elapsed: get_f64(value, "elapsed")?,
                },
            }),
            "observe" => Ok(TraceEvent::Observe {
                spec: parse_spec(field(value, "spec")?)?,
                start: parse_time(value, "at")?,
                salt: get_u64(value, "salt")?,
                time: get_f64(value, "time")?,
            }),
            "fork" => Ok(TraceEvent::Fork {
                seed: get_u64(value, "seed")?,
            }),
            other => Err(TraceError::Parse(format!("unknown trace op {other:?}"))),
        }
    }

    fn parse_trace_f64(value: &JsonValue) -> Result<f64, TraceError> {
        json::parse_f64(value).map_err(TraceError::Parse)
    }

    fn parse_spec(value: &JsonValue) -> Result<ExecutionSpec, TraceError> {
        let parts = value
            .as_array()
            .ok_or_else(|| TraceError::Parse("spec is not an array".into()))?;
        if parts.len() != 2 {
            return Err(TraceError::Parse(
                "spec needs [base_time, sensitivity]".into(),
            ));
        }
        let base_time = parse_trace_f64(&parts[0])?;
        let sensitivity = parse_trace_f64(&parts[1])?;
        if !(base_time.is_finite()
            && base_time > 0.0
            && sensitivity.is_finite()
            && sensitivity >= 0.0)
        {
            return Err(TraceError::Parse(format!(
                "invalid spec [{base_time}, {sensitivity}]"
            )));
        }
        Ok(ExecutionSpec::new(base_time, sensitivity))
    }

    fn field<'a>(value: &'a JsonValue, key: &str) -> Result<&'a JsonValue, TraceError> {
        value
            .get(key)
            .ok_or_else(|| TraceError::Parse(format!("missing field {key:?}")))
    }

    fn get_str(value: &JsonValue, key: &str) -> Result<String, TraceError> {
        field(value, key)?
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| TraceError::Parse(format!("field {key:?} is not a string")))
    }

    fn get_u64(value: &JsonValue, key: &str) -> Result<u64, TraceError> {
        field(value, key)?
            .number_token()
            .and_then(|t| t.parse::<u64>().ok())
            .ok_or_else(|| TraceError::Parse(format!("field {key:?} is not a u64")))
    }

    fn get_f64(value: &JsonValue, key: &str) -> Result<f64, TraceError> {
        parse_trace_f64(field(value, key)?)
    }

    fn get_array<'a>(value: &'a JsonValue, key: &str) -> Result<&'a [JsonValue], TraceError> {
        field(value, key)?
            .as_array()
            .ok_or_else(|| TraceError::Parse(format!("field {key:?} is not an array")))
    }

    fn get_f64_array(value: &JsonValue, key: &str) -> Result<Vec<f64>, TraceError> {
        field(value, key)?
            .as_array()
            .ok_or_else(|| TraceError::Parse(format!("field {key:?} is not an array")))?
            .iter()
            .map(parse_trace_f64)
            .collect()
    }

    fn parse_time(value: &JsonValue, key: &str) -> Result<SimTime, TraceError> {
        let seconds = get_f64(value, key)?;
        if !seconds.is_finite() || seconds < 0.0 {
            return Err(TraceError::Parse(format!(
                "field {key:?} is not a valid time: {seconds}"
            )));
        }
        Ok(SimTime::from_seconds(seconds))
    }
}

// ---------- seeds ----------

/// Canonical JSON of a small recorded run: two root streams on different VMs and
/// profiles, each playing random games, solo runs and observations, and forking once.
fn recorded_trace(seed: u64) -> String {
    let recorder = TraceRecorder::new(Box::new(SimProvider), "battery", seed);
    let mut rng = SimRng::new(seed).derive("trace-decode");
    let streams = [
        (VmType::M5_8xlarge, InterferenceProfile::typical()),
        (VmType::C5_9xlarge, InterferenceProfile::heavy()),
    ];
    for (i, (vm, profile)) in streams.iter().enumerate() {
        let mut exec = recorder.backend(&format!("cell-{i}"), *vm, profile, seed + i as u64);
        drive(exec.as_mut(), &mut rng);
        let mut child = exec.fork(rng.next_u64() >> 1);
        drive(child.as_mut(), &mut rng);
    }
    recorder.finish().to_json()
}

fn drive(exec: &mut dyn ExecutionBackend, rng: &mut SimRng) {
    let mut spec = || {
        let base_time = rng.uniform_range(40.0, 400.0);
        ExecutionSpec::new(base_time, rng.uniform_range(0.0, 1.2))
    };
    let games: Vec<Vec<ExecutionSpec>> = (0..2)
        .map(|n| (0..2 + n).map(|_| spec()).collect())
        .collect();
    let (solo, observed) = (spec(), spec());
    for specs in &games {
        let play = exec.play_game(specs, &GameRules::default());
        exec.commit(&play);
    }
    exec.run_single(solo);
    exec.observe_repeated(observed, 2, 600.0);
}

/// Hand-written documents: every accepted shape the canonical writer never emits.
fn hand_written() -> Vec<String> {
    let game = r#"{"op":"game","specs":[[100,0.5],[200,0]],"rules":[true,0.1,0.25],"start":0,"elapsed":12.5,"times":[100.25,"inf"],"scores":[1,0.5],"early":false}"#;
    let late_op = r#"{"specs":[[100,0.5]],"times":["nan"],"scores":[null],"early":true,"rules":[false,"-inf",1e400],"start":-0,"elapsed":-1e400,"op":"game"}"#;
    let single = r#"{"op":"single","spec":[1e2,0.0],"time":"inf","start":0.0,"elapsed":"nan"}"#;
    let observe = r#"{"salt":18446744073709551615,"op":"observe","spec":[5E-1,1],"at":10,"time":"-inf","extra":{"deep":[[1,2],{"x":null}]}}"#;
    let duplicates = r#"{"op":"fork","seed":7,"seed":"junk","op":"game","specs":null}"#;
    let dup_before_op = r#"{"seed":3,"seed":[1,2],"op":"fork","op":12}"#;
    vec![
        format!(
            r#"{{"campaign":"hand","fingerprint":18446744073709551615,"streams":[{{"key":"b","vm":"m5.large","profile":"typical","seed":0,"failure":"exit 3","events":[{game},{single},{observe}]}},{{"key":"a","vm":"c5.9xlarge","profile":"heavy","seed":1,"events":[{late_op},{duplicates},{dup_before_op}]}}]}}"#
        ),
        format!(
            "\n {{ \"streams\" : [ {{ \"events\" : [ {single} , {observe} ] ,\t\"seed\" : 2 , \"profile\":\"p\\u0041\" , \"vm\" : \"v\\n\" , \"key\" : \"k\\\\\\\"\" , \"unknown\" : [true, false, null] }} ] , \"fingerprint\" : 0 , \"campaign\" : \"c\\/é\" , \"campaign\" : 5 }}\r\n"
        ),
        r#"{"campaign":"empty","fingerprint":1,"streams":[],"streams":{"not":"checked"}}"#
            .to_string(),
        format!(
            r#"{{"fingerprint":9,"campaign":"dup-keys","streams":[{{"key":"s","key":1,"vm":"m","profile":"p","seed":4,"events":[],"events":[{game}],"failure":"f","failure":null}}]}}"#
        ),
    ]
}

/// Writes a `JsonValue` back out with its object keys shuffled, unknown keys and
/// later duplicate keys (which must lose) mixed in, and random whitespace.
fn reshape(value: &JsonValue, rng: &mut SimRng, out: &mut String) {
    let space = |rng: &mut SimRng, out: &mut String| {
        if rng.chance(0.3) {
            out.push_str([" ", "\n", "\t ", "\r\n  "][rng.index(4)]);
        }
    };
    space(rng, out);
    match value {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        JsonValue::Number(token) => out.push_str(token),
        JsonValue::Str(s) => push_str_literal(out, s),
        JsonValue::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                reshape(item, rng, out);
            }
            out.push(']');
        }
        JsonValue::Object(entries) => {
            // Drop the losing duplicates first, so shuffling keeps the document's meaning.
            let mut order: Vec<usize> = (0..entries.len())
                .filter(|&i| entries[..i].iter().all(|(key, _)| *key != entries[i].0))
                .collect();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.index(i + 1));
            }
            let mut written: Vec<(String, Option<&JsonValue>)> = order
                .iter()
                .map(|&i| (entries[i].0.clone(), Some(&entries[i].1)))
                .collect();
            if rng.chance(0.3) {
                let at = rng.index(written.len() + 1);
                written.insert(at, ("unknown".to_string(), None));
            }
            if !entries.is_empty() && rng.chance(0.3) {
                let first = rng.index(written.len());
                let key = written[first].0.clone();
                let at = first + 1 + rng.index(written.len() - first);
                written.insert(at, (key, None));
            }
            out.push('{');
            for (i, (key, value)) in written.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                space(rng, out);
                push_str_literal(out, key);
                space(rng, out);
                out.push(':');
                match value {
                    Some(value) => reshape(value, rng, out),
                    None => out.push_str(JUNK[rng.index(JUNK.len())]),
                }
                space(rng, out);
            }
            out.push('}');
        }
    }
    space(rng, out);
}

/// Values for unknown and losing duplicate keys.
const JUNK: &[&str] = &[
    "\"junk\"",
    "null",
    "[[1],{\"a\":[]}]",
    "-0.5e-3",
    "{\"op\":\"warp\"}",
    "true",
];

// ---------- mutations ----------

/// Bytes that flips and inserts draw from: mostly JSON structure.
const ALPHABET: &[u8] = b"{}[]\",:0123456789.-+eEtfnul \\ax";

/// Replacements for a whole number token: the non-finite encodings, out-of-range,
/// zero and negative numbers, and values of the wrong kind.
const NUMBER_SWAPS: &[&str] = &[
    "\"inf\"",
    "\"-inf\"",
    "\"nan\"",
    "1e400",
    "-1e400",
    "-0",
    "0.0",
    "-1.5",
    "null",
    "\"x\"",
    "true",
    "18446744073709551616",
    "[1]",
];

/// Replacements for a whole string literal: keys and ops in the wrong place.
const STRING_SWAPS: &[&str] = &[
    "\"op\"",
    "\"game\"",
    "\"fork\"",
    "\"seed\"",
    "\"times\"",
    "\"spec\"",
    "\"inf\"",
    "\"key\"",
    "\"events\"",
    "\"x\"",
    "1",
];

/// A token's byte range `(start, end)`.
type Span = (usize, usize);

/// Byte spans of every number and string token (outside strings, for numbers).
fn token_spans(doc: &[u8]) -> (Vec<Span>, Vec<Span>) {
    let (mut numbers, mut strings) = (Vec::new(), Vec::new());
    let mut i = 0;
    while i < doc.len() {
        match doc[i] {
            b'"' => {
                let start = i;
                i += 1;
                while i < doc.len() && doc[i] != b'"' {
                    i += if doc[i] == b'\\' { 2 } else { 1 };
                }
                i = (i + 1).min(doc.len());
                strings.push((start, i));
            }
            b'-' | b'0'..=b'9' => {
                let start = i;
                while i < doc.len()
                    && matches!(doc[i], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                {
                    i += 1;
                }
                numbers.push((start, i));
            }
            _ => i += 1,
        }
    }
    (numbers, strings)
}

fn mutate(doc: &str, seeds: &[String], rng: &mut SimRng) -> String {
    let mut bytes = doc.as_bytes().to_vec();
    for _ in 0..1 + rng.index(2) {
        let len = bytes.len();
        let at = rng.index(len + 1);
        match rng.index(8) {
            0 if len > 0 => bytes[at.min(len - 1)] = ALPHABET[rng.index(ALPHABET.len())],
            1 => bytes.insert(at, ALPHABET[rng.index(ALPHABET.len())]),
            2 => {
                let end = (at + 1 + rng.index(8)).min(len);
                bytes.drain(at.min(end)..end);
            }
            3 => bytes.truncate(at),
            4 => {
                let donor = seeds[rng.index(seeds.len())].as_bytes();
                let from = rng.index(donor.len());
                let to = (from + 1 + rng.index(64)).min(donor.len());
                let splice: Vec<u8> = donor[from..to].to_vec();
                bytes.splice(at..at, splice);
            }
            5 | 6 => {
                let (numbers, strings) = token_spans(&bytes);
                let (spans, swaps) = if rng.index(2) == 0 && !numbers.is_empty() {
                    (numbers, NUMBER_SWAPS)
                } else {
                    (strings, STRING_SWAPS)
                };
                if !spans.is_empty() {
                    let (from, to) = spans[rng.index(spans.len())];
                    let with = swaps[rng.index(swaps.len())].as_bytes().to_vec();
                    bytes.splice(from..to, with);
                }
            }
            _ => {
                // A multi-byte character, so UTF-8 handling is exercised too.
                bytes.splice(at..at, "é".bytes());
            }
        }
    }
    // Seeds are ASCII apart from whole "é" characters, and no mutation splits one
    // except a flip, delete, truncate or splice that lands inside it: repair those.
    String::from_utf8_lossy(&bytes).into_owned()
}

// ---------- the battery ----------

/// Decodes `text` with both decoders and checks they agree. Returns whether it was
/// accepted.
fn agree(text: &str) -> bool {
    let expected = reference::from_json(text);
    let got = ExecutionTrace::from_json(text);
    match (&expected, &got) {
        (Ok(expected), Ok(got)) => {
            let encoded = got.to_json();
            assert_eq!(expected.to_json(), encoded, "decoders disagree on {text:?}");
            let again = ExecutionTrace::from_json(&encoded)
                .unwrap_or_else(|err| panic!("re-decoding {encoded:?}: {err}"));
            assert_eq!(again.to_json(), encoded, "not a fixed point: {text:?}");
            true
        }
        (Err(TraceError::Parse(_)), Err(TraceError::Parse(_))) => false,
        _ => panic!("decoders disagree on {text:?}: reference {expected:?}, reader {got:?}"),
    }
}

fn seeds() -> Vec<String> {
    let mut seeds: Vec<String> = (1..=4).map(recorded_trace).collect();
    seeds.extend(hand_written());
    let mut rng = SimRng::new(0xdec0de);
    for base in seeds.clone() {
        for _ in 0..3 {
            let mut out = String::new();
            reshape(
                &json::parse(&base).expect("seeds are JSON"),
                &mut rng,
                &mut out,
            );
            seeds.push(out);
        }
    }
    seeds
}

#[test]
fn seeds_decode_identically_in_both_decoders() {
    for seed in seeds() {
        assert!(agree(&seed), "seed must be accepted: {seed}");
    }
}

#[test]
fn mutated_traces_decode_identically_or_fail_in_both_decoders() {
    const CASES: usize = 12_000;
    let seeds = seeds();
    let mut rng = SimRng::new(0x5eed_dec0);
    let mut accepted = 0;
    for case in 0..CASES {
        let seed = &seeds[case % seeds.len()];
        let doc = mutate(seed, &seeds, &mut rng);
        accepted += usize::from(agree(&doc));
    }
    // Both outcomes must be well represented, or the battery proves little.
    assert!(
        accepted > CASES / 10 && accepted < CASES * 9 / 10,
        "{accepted} of {CASES} mutants accepted"
    );
}

#[test]
fn deeply_nested_skipped_values_fail_without_overflowing_the_stack() {
    let deep = format!("{}{}", "[".repeat(10_000), "]".repeat(10_000));
    let stream = |events: &str| {
        format!(r#"{{"key":"a","vm":"m","profile":"p","seed":1,"events":[{events}]}}"#)
    };
    for doc in [
        // an unknown field, at the top and inside an event (before and after "op")
        format!(r#"{{"campaign":"x","fingerprint":1,"streams":[],"extra":{deep}}}"#),
        format!(
            r#"{{"campaign":"x","fingerprint":1,"streams":[{}]}}"#,
            stream(&format!(r#"{{"op":"fork","seed":1,"junk":{deep}}}"#))
        ),
        format!(
            r#"{{"campaign":"x","fingerprint":1,"streams":[{}]}}"#,
            stream(&format!(r#"{{"junk":{deep},"op":"fork","seed":1}}"#))
        ),
        // a later duplicate key, which is never decoded
        format!(r#"{{"campaign":"x","fingerprint":1,"streams":[],"streams":{deep}}}"#),
        format!(
            r#"{{"campaign":"x","fingerprint":1,"streams":[{}]}}"#,
            stream(&format!(r#"{{"op":"fork","seed":1,"seed":{deep}}}"#))
        ),
    ] {
        let err = ExecutionTrace::from_json(&doc).expect_err("nesting beyond the limit");
        assert!(
            matches!(&err, TraceError::Parse(detail) if detail.contains("nesting deeper than")),
            "{err}"
        );
        assert!(json::parse(&doc).is_err());
        assert!(matches!(
            reference::from_json(&doc),
            Err(TraceError::Parse(_))
        ));
    }
}
