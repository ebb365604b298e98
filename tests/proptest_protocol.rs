//! Property test: `protocol::parse_command` answers every line with a
//! command or an error and never panics — on arbitrary bytes, and on
//! `SOLVE`/`SOLVE_DELTA` lines carrying random `R=`/`THREADS=` tokens.
//! `THREADS=` is validated and then discarded, so it never changes
//! what a line parses to.

use maxmin_lp::serve::protocol::{parse_command, Command, Op};
use proptest::collection::vec;
use proptest::prelude::*;

/// Sources: valid ones, and malformed ones that exercise the hash and
/// length parsers.
const SOURCES: &[&str] = &[
    "hash:00deadbeef001122",
    "inline:42",
    "inline:",
    "hash:123",
    "hash:+0deadbeef001122",
    "hash:µµµµµµµµ",
    "inline:-1",
];

/// Parameter keys, including near misses of the two real ones.
const KEYS: &[&str] = &[
    "R=", "THREADS=", "R=", "THREADS=", "r=", "THREADS", "R==", "",
];

/// A parameter value: a digit string of any length (so values overflow
/// u32 and usize), or one of a few edge tokens.
fn value(kind: u8, digits: &[u8]) -> String {
    let digits: String = digits.iter().map(|d| char::from(b'0' + d % 10)).collect();
    match kind {
        0..=3 => digits,
        4 => "4294967295".into(),
        5 => "4294967296".into(),
        6 => format!("-{digits}"),
        7 => format!("+{digits}"),
        8 => String::new(),
        _ => "∞".into(),
    }
}

/// `line` with every `THREADS=` token removed.
fn without_threads(line: &str) -> String {
    line.split(' ')
        .filter(|t| !t.starts_with("THREADS="))
        .collect::<Vec<_>>()
        .join(" ")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    fn arbitrary_bytes_parse_or_fail(bytes in vec(0u8..=255, 0..96)) {
        let line = String::from_utf8_lossy(&bytes);
        let _ = parse_command(&line);
    }

    #[test]
    fn solve_lines_with_random_parameters_parse_or_fail(
        delta in 0u8..2,
        src in 0usize..SOURCES.len(),
        params in vec((0usize..KEYS.len(), 0u8..10, vec(0u8..10, 0..24)), 0..5),
    ) {
        let verb = if delta == 1 { "SOLVE_DELTA" } else { "SOLVE" };
        let mut line = format!("{verb} {}", SOURCES[src]);
        for (key, kind, digits) in &params {
            line.push(' ');
            line.push_str(KEYS[*key]);
            line.push_str(&value(*kind, digits));
        }
        let parsed = parse_command(&line);
        if let Ok(cmd) = &parsed {
            let Command::Run { op, big_r, .. } = *cmd else {
                panic!("{line:?} parsed as {cmd:?}");
            };
            prop_assert_eq!(op, if delta == 1 { Op::SolveDelta } else { Op::Solve });
            prop_assert!((2..=u32::MAX as usize).contains(&big_r), "{line:?}");
        }
        // Dropping THREADS= tokens can only turn a rejected line into
        // an accepted one (when a THREADS value was out of range); an
        // accepted line parses to the same command either way.
        let bare = parse_command(&without_threads(&line));
        match (&parsed, &bare) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "{line:?}"),
            (Ok(_), Err(e)) => panic!("{line:?} accepted, but rejected without THREADS: {e}"),
            (Err(e), Ok(_)) => prop_assert!(e.starts_with("bad THREADS"), "{line:?}: {e}"),
            (Err(_), Err(_)) => {}
        }
    }
}
