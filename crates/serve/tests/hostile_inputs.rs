//! Hostile input at the daemon's wire boundary: `parse_request` takes
//! arbitrary bytes, token soup, mutated valid requests and deep nesting,
//! and must answer each with a request or a typed `bad-request` error —
//! never a panic, and never a stack overflow that would take the whole
//! daemon down. Every error must also render as a response line that a
//! client parses back to the same kind and message.

use axcc_serve::protocol::{err_line, parse_request};
use axcc_serve::{parse_response, ErrorKind};
use proptest::prelude::*;

/// Valid request lines, one per op, for the mutation strategy.
const VALID: [&str; 7] = [
    r#"{"id": 1, "op": "ping"}"#,
    r#"{"id": "s", "op": "stats"}"#,
    r#"{"op": "shutdown", "deadline_ms": 5}"#,
    r#"{"id": 2, "op": "debug-sleep", "ms": 3}"#,
    r#"{"id": 3, "op": "eval", "protocols": ["reno", "cubic"], "link": {"mbps": 20, "rtt_ms": 42, "buffer": 100}, "steps": 2000, "seed": 7, "wire_loss": 0.01}"#,
    r#"{"id": [1, {"x": null}], "op": "experiment", "name": "table1", "smoke": true}"#,
    r#"{"id": -1.5e3, "op": "eval", "protocols": ["vegas"], "deadline_ms": 1000}"#,
];

/// JSON fragments, request keys and edge-case values; concatenations of
/// these reach far deeper into the parser than uniform random bytes do.
const TOKENS: [&str; 40] = [
    "{",
    "}",
    "[",
    "]",
    ",",
    ":",
    "\"",
    "\\",
    "\\u",
    "\\ud800",
    " ",
    "\n",
    "\t",
    "null",
    "true",
    "false",
    "-",
    "0",
    "1.5",
    "1e309",
    "-1",
    "18446744073709551616",
    "2e",
    ".",
    "\"op\"",
    "\"id\"",
    "\"eval\"",
    "\"experiment\"",
    "\"ping\"",
    "\"protocols\"",
    "\"link\"",
    "\"mbps\"",
    "\"steps\"",
    "\"seed\"",
    "\"deadline_ms\"",
    "\"name\"",
    "\"smoke\"",
    "\"reno\"",
    "é",
    "\u{0}",
];

/// Parse `line`; an error must be a `bad-request` whose rendered
/// response line parses back to the same kind and message.
fn check(line: &str) -> Result<(), TestCaseError> {
    if let Err(e) = parse_request(line) {
        prop_assert_eq!(e.kind, ErrorKind::BadRequest);
        prop_assert!(!e.message.is_empty());
        let rendered = err_line(&e.id, e.kind, &e.message);
        let parsed = parse_response(&rendered).map_err(TestCaseError::Fail)?;
        prop_assert_eq!(parsed.outcome, Err((e.kind, e.message.clone())));
    }
    Ok(())
}

/// `depth` nested arrays or objects around a value, optionally closed.
fn nested(depth: usize, objects: bool, closed: bool) -> String {
    let (open, close) = if objects {
        ("{\"a\":", "}")
    } else {
        ("[", "]")
    };
    let mut line = open.repeat(depth);
    line.push('1');
    if closed {
        line.push_str(&close.repeat(depth));
    }
    line
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    /// Arbitrary bytes, decoded as the connection loop decodes them.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(0u8..=255, 0..200)) {
        check(&String::from_utf8_lossy(&bytes))?;
    }

    /// Random concatenations of JSON tokens and request keys.
    #[test]
    fn token_soup_never_panics(picks in proptest::collection::vec(0usize..TOKENS.len(), 0..48)) {
        let line: String = picks.iter().map(|&i| TOKENS[i]).collect();
        check(&line)?;
    }

    /// A valid request cut at an arbitrary byte and spliced with a token.
    #[test]
    fn mutated_requests_never_panic(
        which in 0usize..VALID.len(),
        cut in 0usize..200,
        token in 0usize..TOKENS.len(),
        keep_tail in any::<bool>(),
    ) {
        let valid = VALID[which];
        let mut at = cut.min(valid.len());
        while !valid.is_char_boundary(at) {
            at -= 1;
        }
        let tail = if keep_tail { &valid[at..] } else { "" };
        check(&format!("{}{}{tail}", &valid[..at], TOKENS[token]))?;
    }
}

#[test]
fn valid_requests_parse() {
    for line in VALID {
        assert!(parse_request(line).is_ok(), "{line}");
    }
}

/// Regression: the JSON parser recursed once per nesting level with no
/// bound, so a request line of some ten thousand `[` overflowed the
/// connection thread's stack and aborted the daemon. Nesting past the
/// parser's recursion limit is now a `bad-request`.
#[test]
fn deep_nesting_is_a_bad_request_not_a_stack_overflow() {
    for depth in [129, 1_000, 100_000] {
        for objects in [false, true] {
            for closed in [false, true] {
                let line = nested(depth, objects, closed);
                let e = parse_request(&line).expect_err("nesting past the limit");
                assert_eq!(e.kind, ErrorKind::BadRequest, "depth {depth}");
            }
        }
    }
    // Moderate nesting is still parsed (and then rejected only because
    // the top level is not a request object).
    let e = parse_request(&nested(100, false, true)).expect_err("array is no request");
    assert!(e.message.contains("object"), "{}", e.message);
}
