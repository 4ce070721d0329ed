use super::*;

/// The request a line carries, its routing field set aside.
fn parse_request(line: &str) -> Result<Request, String> {
    parse_routed(line).map(|(_, req)| req)
}

#[test]
fn submit_accepts_minimal_and_full_forms() {
    let r = parse_request(r#"{"op":"submit","nodes":4,"runtime":3600}"#).unwrap();
    assert_eq!(
        r,
        Request::Submit {
            nodes: 4,
            runtime: 3600,
            requested: None,
            user: 0,
            submit: None
        }
    );
    let r = parse_request(
        r#"{"op":"submit","nodes":1,"runtime":60,"requested":120,"user":7,"submit":500}"#,
    )
    .unwrap();
    assert_eq!(
        r,
        Request::Submit {
            nodes: 1,
            runtime: 60,
            requested: Some(120),
            user: 7,
            submit: Some(500)
        }
    );
}

#[test]
fn malformed_requests_are_described() {
    for (line, needle) in [
        ("{", "JSON"),
        (r#"{"nodes":1}"#, "op"),
        (r#"{"op":"warp"}"#, "unknown op"),
        (r#"{"op":"submit","runtime":60}"#, "nodes"),
        (r#"{"op":"submit","nodes":0,"runtime":60}"#, "nodes"),
        (r#"{"op":"submit","nodes":1,"runtime":0}"#, "runtime"),
        (r#"{"op":"submit","nodes":1,"runtime":-5}"#, "runtime"),
        (r#"{"op":"cancel"}"#, "id"),
        // `\u` takes four hex digits and no sign, in a value or a key.
        (r#"{"op":"q\u+075eue"}"#, "byte 10: bad \\u escape"),
        (r#"{"op":"queue","o\u+070":1}"#, "byte 18: bad \\u escape"),
        (
            r#"{"op":"queue","cluster":"\u-041"}"#,
            "byte 27: bad \\u escape",
        ),
    ] {
        let err = parse_request(line).unwrap_err();
        assert!(err.contains(needle), "{line}: {err}");
    }
}

#[test]
fn time_fields_beyond_the_bound_are_rejected_by_name() {
    // Used to be acknowledged: the job started and its predicted end
    // wrapped to before its start.
    for field in ["runtime", "requested", "submit"] {
        for bad in [MAX_SECONDS + 1, 18_446_744_073_709_551_000, u64::MAX] {
            let line = format!(r#"{{"op":"submit","nodes":4,"runtime":60,"{field}":{bad}}}"#);
            let err = parse_request(&line).unwrap_err();
            assert!(err.contains(&format!("{field:?}")), "{line}: {err}");
            assert!(err.contains("at most"), "{line}: {err}");
            let batch = format!(
                r#"{{"op":"submit_batch","jobs":[{{"nodes":4,"runtime":60,"{field}":{bad}}}]}}"#
            );
            let err = parse_request(&batch).unwrap_err();
            assert!(
                err.contains("jobs[0]") && err.contains(field),
                "{batch}: {err}"
            );
        }
    }
    let at_bound = format!(
        r#"{{"op":"submit","nodes":1,"runtime":{MAX_SECONDS},"requested":{MAX_SECONDS},"submit":{MAX_SECONDS}}}"#
    );
    assert!(matches!(
        parse_request(&at_bound),
        Ok(Request::Submit {
            runtime: MAX_SECONDS,
            ..
        })
    ));
}

#[test]
fn simple_ops_parse() {
    assert_eq!(parse_request(r#"{"op":"queue"}"#).unwrap(), Request::Queue);
    assert_eq!(parse_request(r#"{"op":"drain"}"#).unwrap(), Request::Drain);
    assert_eq!(
        parse_request(r#"{"op":"incidents"}"#).unwrap(),
        Request::Incidents
    );
    assert_eq!(
        parse_request(r#"{"op":"shutdown"}"#).unwrap(),
        Request::Shutdown
    );
}

#[test]
fn correlation_ids_are_dense_and_nonzero() {
    let src = CorrelationSource::new();
    assert_eq!(src.mint(), 1);
    assert_eq!(src.mint(), 2);
    assert_eq!(src.mint(), 3);
}

#[test]
fn submit_batch_parses_and_enforces_the_cap() {
    let r = parse_request(
        r#"{"op":"submit_batch","jobs":[{"nodes":4,"runtime":60},{"nodes":1,"runtime":30,"user":2}]}"#,
    )
    .unwrap();
    match r {
        Request::SubmitBatch { jobs } => {
            assert_eq!(jobs.len(), 2);
            assert_eq!(jobs[0].nodes, 4);
            assert_eq!(jobs[1].user, 2);
        }
        other => panic!("expected SubmitBatch, got {other:?}"),
    }
    // Per-entry errors carry the offending index.
    let err = parse_request(
        r#"{"op":"submit_batch","jobs":[{"nodes":1,"runtime":60},{"nodes":0,"runtime":60}]}"#,
    )
    .unwrap_err();
    assert!(err.contains("jobs[1]"), "{err}");
    // Empty and oversized batches are rejected.
    assert!(parse_request(r#"{"op":"submit_batch","jobs":[]}"#).is_err());
    let huge = format!(
        r#"{{"op":"submit_batch","jobs":[{}]}}"#,
        vec![r#"{"nodes":1,"runtime":1}"#; MAX_BATCH + 1].join(",")
    );
    let err = parse_request(&huge).unwrap_err();
    assert!(err.contains("batch cap"), "{err}");
}

#[test]
fn cluster_routing_is_extracted_and_validated() {
    let (cluster, r) =
        parse_routed(r#"{"op":"submit","cluster":"alpha-1","nodes":2,"runtime":60}"#).unwrap();
    assert_eq!(cluster.as_deref(), Some("alpha-1"));
    assert!(matches!(r, Request::Submit { nodes: 2, .. }));
    // No cluster field -> unrouted.
    let (cluster, _) = parse_routed(r#"{"op":"queue"}"#).unwrap();
    assert_eq!(cluster, None);
    // Bad cluster ids are typed errors, not routing surprises.
    for line in [
        r#"{"op":"queue","cluster":7}"#,
        r#"{"op":"queue","cluster":""}"#,
        r#"{"op":"queue","cluster":"has space"}"#,
        r#"{"op":"queue","cluster":"quo\"te"}"#,
    ] {
        assert!(parse_routed(line).is_err(), "{line} should be rejected");
    }
    let long = format!(r#"{{"op":"queue","cluster":"{}"}}"#, "x".repeat(65));
    assert!(parse_routed(&long).is_err());
}

/// `parse_routed` as it was when it read a request through a `Value`
/// tree: the reference the one-pass reader is held to, byte for byte.
mod oracle {
    use super::super::{validate_cluster_id, Request, SubmitSpec, MAX_BATCH, MAX_SECONDS};
    use sbs_workload::time::Time;
    use serde_json::Value;

    fn get_u64(v: &Value, key: &str) -> Result<Option<u64>, String> {
        match v.get(key) {
            None | Some(Value::Null) => Ok(None),
            Some(f) => f
                .as_u64()
                .map(Some)
                .ok_or_else(|| format!("field {key:?} must be a non-negative integer")),
        }
    }

    fn require_u64(v: &Value, key: &str) -> Result<u64, String> {
        get_u64(v, key)?.ok_or_else(|| format!("missing field {key:?}"))
    }

    fn get_seconds(v: &Value, key: &str) -> Result<Option<Time>, String> {
        match get_u64(v, key)? {
            Some(t) if t > MAX_SECONDS => Err(format!(
                "field {key:?} must be at most {MAX_SECONDS} seconds (2^40)"
            )),
            t => Ok(t),
        }
    }

    fn parse_submit_spec(v: &Value) -> Result<SubmitSpec, String> {
        let nodes = u32::try_from(require_u64(v, "nodes")?)
            .ok()
            .filter(|&n| n > 0)
            .ok_or("\"nodes\" must be in 1..=2^32-1")?;
        let runtime = get_seconds(v, "runtime")?.ok_or("missing field \"runtime\"")?;
        if runtime == 0 {
            return Err("\"runtime\" must be positive".into());
        }
        Ok(SubmitSpec {
            nodes,
            runtime,
            requested: get_seconds(v, "requested")?,
            user: u32::try_from(get_u64(v, "user")?.unwrap_or(0)).unwrap_or(u32::MAX),
            submit: get_seconds(v, "submit")?,
        })
    }

    fn parse_value(v: &Value) -> Result<Request, String> {
        let op = v
            .get("op")
            .and_then(Value::as_str)
            .ok_or("missing field \"op\"")?;
        match op {
            "submit" => {
                let spec = parse_submit_spec(v)?;
                Ok(Request::Submit {
                    nodes: spec.nodes,
                    runtime: spec.runtime,
                    requested: spec.requested,
                    user: spec.user,
                    submit: spec.submit,
                })
            }
            "submit_batch" => {
                let jobs = v
                    .get("jobs")
                    .and_then(Value::as_array)
                    .ok_or("missing field \"jobs\" (array)")?;
                if jobs.is_empty() {
                    return Err("\"jobs\" must not be empty".into());
                }
                if jobs.len() > MAX_BATCH {
                    return Err(format!(
                        "\"jobs\" holds {} entries; the batch cap is {MAX_BATCH}",
                        jobs.len()
                    ));
                }
                let mut specs = Vec::with_capacity(jobs.len());
                for (i, j) in jobs.iter().enumerate() {
                    specs.push(parse_submit_spec(j).map_err(|e| format!("jobs[{i}]: {e}"))?);
                }
                Ok(Request::SubmitBatch { jobs: specs })
            }
            "cancel" => {
                let id = u32::try_from(require_u64(v, "id")?).map_err(|_| "\"id\" out of range")?;
                Ok(Request::Cancel { id })
            }
            "queue" => Ok(Request::Queue),
            "metrics" => Ok(Request::Metrics),
            "drain" => Ok(Request::Drain),
            "snapshot" => Ok(Request::Snapshot),
            "incidents" => Ok(Request::Incidents),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown op {other:?}")),
        }
    }

    pub fn parse_routed(line: &str) -> Result<(Option<String>, Request), String> {
        let v: Value = serde_json::from_str(line).map_err(|e| e.to_string())?;
        let cluster = match v.get("cluster") {
            None | Some(Value::Null) => None,
            Some(Value::String(s)) => {
                validate_cluster_id(s)?;
                Some(s.clone())
            }
            Some(_) => return Err("field \"cluster\" must be a string".into()),
        };
        Ok((cluster, parse_value(&v)?))
    }
}

fn assert_matches_oracle(line: &str) -> Result<(Option<String>, Request), String> {
    let got = parse_routed(line);
    assert_eq!(got, oracle::parse_routed(line), "line {line:?}");
    got
}

/// A `jobs` array of `n` elements, every `odd_one_out`-th one not an
/// object.
fn jobs_line(n: usize, odd_one_out: usize) -> String {
    let jobs: Vec<&str> = (0..n)
        .map(|i| match i % odd_one_out {
            0 if i > 0 => "7",
            _ => r#"{"nodes":1,"runtime":60}"#,
        })
        .collect();
    format!(r#"{{"op":"submit_batch","jobs":[{}]}}"#, jobs.join(","))
}

/// Every edge the reader must agree with the oracle on, each named by
/// what it pins.  A differential failure found by the mutation test
/// below is added here.
#[test]
fn reader_matches_the_value_oracle_on_edge_lines() {
    let nested = |depth: usize| {
        // The object is depth 1, so the innermost array is at `depth`.
        format!(
            r#"{{"op":"queue","x":{}{}}}"#,
            "[".repeat(depth - 1),
            "]".repeat(depth - 1)
        )
    };
    let max = MAX_SECONDS;
    let lines = [
        // Duplicate keys: the later one wins.
        r#"{"op":"queue","op":"drain"}"#.to_string(),
        r#"{"op":"submit","nodes":0,"runtime":60,"nodes":2}"#.into(),
        r#"{"op":"submit","nodes":2,"runtime":60,"nodes":null}"#.into(),
        r#"{"op":"queue","cluster":"a","cluster":null}"#.into(),
        r#"{"op":"queue","cluster":7,"cluster":"b"}"#.into(),
        r#"{"op":"submit_batch","jobs":[],"jobs":[{"nodes":1,"runtime":1}]}"#.into(),
        r#"{"op":"submit_batch","jobs":[{"nodes":1,"runtime":1}],"jobs":3}"#.into(),
        r#"{"op":"submit","op":7,"nodes":1,"runtime":60}"#.into(),
        // `\u` escapes in keys and in `op` / `cluster` values.
        r#"{"\u006fp":"queue"}"#.into(),
        r#"{"op":"s\u0075bmit","n\u006fdes":3,"runtime":60}"#.into(),
        r#"{"op":"queue","cluster":"\u0061lpha"}"#.into(),
        r#"{"op":"queue","cluster":"a\u0020b"}"#.into(),
        r#"{"op":"qu\ud83d\ude00eue"}"#.into(),
        r#"{"op":"queue","cluster":"\ud800"}"#.into(),
        // Unknown fields holding nested values.
        r#"{"op":"queue","x":[1,{"a":[2,{"b":null}]}],"y":{"z":{}}}"#.into(),
        r#"{"op":"submit","nodes":1,"runtime":60,"extra":{"nodes":0}}"#.into(),
        r#"{"op":"queue","x":[1,]}"#.into(),
        r#"{"op":"queue","x":{"a" 1}}"#.into(),
        // Numbers at the edges of `Number`'s types.
        r#"{"op":"submit","nodes":1,"runtime":-0}"#.into(),
        r#"{"op":"submit","nodes":1,"runtime":1.0}"#.into(),
        r#"{"op":"submit","nodes":1,"runtime":1e0}"#.into(),
        r#"{"op":"submit","nodes":1,"runtime":007}"#.into(),
        r#"{"op":"cancel","id":9223372036854775808}"#.into(),
        r#"{"op":"cancel","id":18446744073709551615}"#.into(),
        r#"{"op":"cancel","id":18446744073709551616}"#.into(),
        r#"{"op":"cancel","id":-1}"#.into(),
        r#"{"op":"submit","nodes":1,"runtime":60,"user":18446744073709551615}"#.into(),
        // The time bound and the node range.
        format!(r#"{{"op":"submit","nodes":1,"runtime":{}}}"#, max - 1),
        format!(r#"{{"op":"submit","nodes":1,"runtime":{max}}}"#),
        format!(r#"{{"op":"submit","nodes":1,"runtime":{}}}"#, max + 1),
        format!(
            r#"{{"op":"submit","nodes":1,"runtime":60,"requested":{}}}"#,
            max + 1
        ),
        format!(
            r#"{{"op":"submit","nodes":1,"runtime":60,"submit":{}}}"#,
            max + 1
        ),
        r#"{"op":"submit","nodes":0,"runtime":60}"#.into(),
        r#"{"op":"submit","nodes":4294967295,"runtime":60}"#.into(),
        r#"{"op":"submit","nodes":4294967296,"runtime":60}"#.into(),
        // Non-object lines, trailing bytes, and a syntax error behind a
        // field error.
        "[]".into(),
        "7".into(),
        r#""op""#.into(),
        "null".into(),
        "".into(),
        "   ".into(),
        r#"{"op":"queue"} x"#.into(),
        r#"{"op":"queue"}{"op":"queue"}"#.into(),
        r#"{"op":"queue"}   "#.into(),
        r#"{"op":"warp","x":[}"#.into(),
        r#"{"nodes":1} x"#.into(),
        // `cluster` is checked before `op`.
        r#"{"cluster":7}"#.into(),
        r#"{"cluster":"has space","nodes":1}"#.into(),
        r#"{"cluster":"bad id","op":"queue","x":nul}"#.into(),
        // Nesting depth 128 and 129, scalars counted.
        nested(128),
        nested(129),
        format!(
            r#"{{"op":"queue","x":{}1{}}}"#,
            "[".repeat(126),
            "]".repeat(126)
        ),
        format!(
            r#"{{"op":"queue","x":{}1{}}}"#,
            "[".repeat(127),
            "]".repeat(127)
        ),
        // `jobs` at 0 and around the cap, with non-object elements.
        jobs_line(0, 2),
        jobs_line(MAX_BATCH - 1, 1000),
        jobs_line(MAX_BATCH, MAX_BATCH + 1),
        jobs_line(MAX_BATCH + 1, 3),
        jobs_line(3, 2),
        r#"{"op":"submit_batch","jobs":[null]}"#.into(),
        r#"{"op":"submit_batch","jobs":[[{"nodes":1,"runtime":1}]]}"#.into(),
        r#"{"op":"submit_batch","jobs":{"nodes":1,"runtime":1}}"#.into(),
        r#"{"op":"submit_batch","jobs":[{"nodes":1,"runtime":1,"nodes":0}]}"#.into(),
        r#"{"op":"queue","jobs":[{"nodes":0}]}"#.into(),
    ];
    let mut accepted = 0;
    for line in &lines {
        accepted += usize::from(assert_matches_oracle(line).is_ok());
    }
    // The corpus holds both answers, not only refusals.
    assert!(accepted > 10 && accepted < lines.len() - 10, "{accepted}");
}

/// Generated request lines, then their bytes mutated: the reader's
/// `Ok` request and `Err` text equal the oracle's on every one.
#[test]
fn reader_matches_the_value_oracle_on_mutated_lines() {
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    const KEYS: &[&str] = &[
        "op",
        "op",
        "cluster",
        "nodes",
        "runtime",
        "requested",
        "user",
        "submit",
        "id",
        "jobs",
        "x",
        r"\u006fp",
        r"clu\u0073ter",
        r"n\u006fdes",
    ];
    const OPS: &[&str] = &[
        r#""submit""#,
        r#""submit_batch""#,
        r#""cancel""#,
        r#""queue""#,
        r#""drain""#,
        r#""metrics""#,
        r#""snapshot""#,
        r#""incidents""#,
        r#""shutdown""#,
        r#""warp""#,
        r#""s\u0075bmit""#,
    ];
    const SCALARS: &[&str] = &[
        "0",
        "1",
        "4",
        "60",
        "-0",
        "-1",
        "1.0",
        "1e0",
        "2.5",
        "9223372036854775807",
        "9223372036854775808",
        "18446744073709551615",
        "18446744073709551616",
        "1099511627775",
        "1099511627776",
        "1099511627777",
        "4294967295",
        "4294967296",
        "null",
        "true",
        r#""alpha""#,
        r#""\u0061lpha""#,
        r#""has space""#,
        r#""""#,
        r#"[1,{"a":[]}]"#,
        r#"{"nodes":0,"b":{"c":null}}"#,
    ];
    const NOISE: &[u8] = b" ,:[]{}\"\\0123456789-.eEu/nt";

    fn value(rng: &mut StdRng, key: &str, out: &mut String) {
        match key {
            "op" | r"\u006fp" if rng.gen_bool(0.8) => out.push_str(OPS.choose(rng).unwrap()),
            "jobs" if rng.gen_bool(0.8) => {
                out.push('[');
                for i in 0..rng.gen_range(0..4usize) {
                    if i > 0 {
                        out.push(',');
                    }
                    if rng.gen_bool(0.15) {
                        out.push_str(SCALARS.choose(rng).unwrap());
                        continue;
                    }
                    out.push('{');
                    for j in 0..rng.gen_range(0..4usize) {
                        if j > 0 {
                            out.push(',');
                        }
                        let k = KEYS[rng.gen_range(2..9usize)];
                        out.push_str(&format!("{k:?}:"));
                        out.push_str(SCALARS.choose(rng).unwrap());
                    }
                    out.push('}');
                }
                out.push(']');
            }
            _ => out.push_str(SCALARS.choose(rng).unwrap()),
        }
    }

    let mut rng = StdRng::seed_from_u64(0x5b5_c0dec);
    let mut refused = 0;
    let cases = 20_000;
    for _ in 0..cases {
        let mut line = String::from("{");
        for i in 0..rng.gen_range(0..7usize) {
            if i > 0 {
                line.push(',');
            }
            let key = *KEYS.choose(&mut rng).unwrap();
            line.push('"');
            line.push_str(key);
            line.push_str("\":");
            value(&mut rng, key, &mut line);
        }
        line.push('}');
        let mut bytes = line.into_bytes();
        let mutations = if rng.gen_bool(0.5) {
            rng.gen_range(1..4usize)
        } else {
            0
        };
        for _ in 0..mutations {
            let at = rng.gen_range(0..bytes.len());
            match rng.gen_range(0..3u32) {
                0 => {
                    bytes.remove(at);
                }
                1 => bytes.insert(at, *NOISE.choose(&mut rng).unwrap()),
                _ => bytes[at] = *NOISE.choose(&mut rng).unwrap(),
            }
            if bytes.is_empty() {
                break;
            }
        }
        let line = String::from_utf8(bytes).expect("ASCII noise keeps UTF-8");
        refused += usize::from(assert_matches_oracle(&line).is_err());
    }
    // Both outcomes are exercised in bulk.
    assert!(
        refused > cases / 2 && refused < cases * 19 / 20,
        "{refused}"
    );
}
