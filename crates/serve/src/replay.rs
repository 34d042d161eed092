//! Replay files: pinned request streams and their deterministic traces.
//!
//! A replay file is plain text, one item per line:
//!
//! ```text
//! # comment
//! path   ?(A) :- e(A,B), e(B,C).
//! family ? :- mother(ann, X).
//! !insert path e(d,x).
//! !retract path e(a,b).
//! ```
//!
//! A plain line is a query: the first whitespace-separated token is the
//! registered theory id, the rest is the CQ text. A `!insert` / `!retract`
//! line is a [`FactWrite`]: the directive, the theory id, then base facts
//! in instance syntax. Blank lines and `#` comments are skipped. Running a
//! replay through [`Engine::replay`](crate::Engine::replay) and rendering
//! the responses with [`render_trace`] yields bytes that are a function of
//! the stream — the repo's pinning convention applied to server behavior
//! (golden traces live under `crates/serve/tests/replays/`).
//!
//! Malformed lines report a typed, located [`ReplayError`] (line number
//! plus kind), mirroring `qr-check`'s `DecodeError` convention.

use std::fmt;

use qr_chase::WriteBatch;

use crate::engine::{CqRequest, FactWrite, Request, Response};

/// Why a replay line failed to parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReplayErrorKind {
    /// A query line with no query text after the theory id.
    MissingQuery {
        /// The offending line.
        got: String,
    },
    /// A `!` line whose directive is not `!insert` or `!retract`.
    UnknownDirective {
        /// The directive token, including the `!`.
        got: String,
    },
    /// A write line with no theory id or no facts after the directive.
    MissingWrite {
        /// The directive that was missing its operands.
        directive: String,
    },
    /// A write line whose fact text did not parse as instance syntax.
    BadFact {
        /// The parse error reported by `qr-syntax`.
        error: String,
    },
}

impl fmt::Display for ReplayErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayErrorKind::MissingQuery { got } => {
                write!(f, "expected '<theory> <query>', got '{got}'")
            }
            ReplayErrorKind::UnknownDirective { got } => {
                write!(
                    f,
                    "unknown directive '{got}' (expected !insert or !retract)"
                )
            }
            ReplayErrorKind::MissingWrite { directive } => {
                write!(f, "expected '{directive} <theory> <facts>'")
            }
            ReplayErrorKind::BadFact { error } => write!(f, "bad fact: {error}"),
        }
    }
}

/// A located replay parse error: the 1-based source line plus what went
/// wrong there.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplayError {
    /// 1-based line number in the replay source.
    pub line: usize,
    /// What went wrong.
    pub kind: ReplayErrorKind,
}

impl ReplayError {
    fn at(line: usize, kind: ReplayErrorKind) -> ReplayError {
        ReplayError { line, kind }
    }
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "replay line {}: {}", self.line, self.kind)
    }
}

impl std::error::Error for ReplayError {}

/// Parses a replay file into a request stream (queries and fact writes, in
/// line order).
pub fn parse_replay(src: &str) -> Result<Vec<Request>, ReplayError> {
    let mut out = Vec::new();
    for (idx, raw) in src.lines().enumerate() {
        let line = raw.trim();
        let lineno = idx + 1;
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(directive) = line
            .split_whitespace()
            .next()
            .filter(|t| t.starts_with('!'))
        {
            let insert = match directive {
                "!insert" => true,
                "!retract" => false,
                _ => {
                    return Err(ReplayError::at(
                        lineno,
                        ReplayErrorKind::UnknownDirective {
                            got: directive.to_owned(),
                        },
                    ))
                }
            };
            let rest = line[directive.len()..].trim();
            let Some((theory, facts_src)) = rest.split_once(char::is_whitespace) else {
                return Err(ReplayError::at(
                    lineno,
                    ReplayErrorKind::MissingWrite {
                        directive: directive.to_owned(),
                    },
                ));
            };
            let facts = qr_syntax::parse_instance(facts_src.trim()).map_err(|e| {
                ReplayError::at(
                    lineno,
                    ReplayErrorKind::BadFact {
                        error: e.to_string(),
                    },
                )
            })?;
            let facts: Vec<_> = facts.iter().map(|fr| fr.to_fact()).collect();
            let batch = if insert {
                WriteBatch::insert(facts)
            } else {
                WriteBatch::retract(facts)
            };
            out.push(Request::Write(FactWrite {
                theory: theory.to_owned(),
                batch,
            }));
            continue;
        }
        let Some((theory, query)) = line.split_once(char::is_whitespace) else {
            return Err(ReplayError::at(
                lineno,
                ReplayErrorKind::MissingQuery {
                    got: line.to_owned(),
                },
            ));
        };
        out.push(Request::Query(CqRequest {
            theory: theory.to_owned(),
            query: query.trim().to_owned(),
        }));
    }
    Ok(out)
}

/// Renders requests back into the replay format (round-trips through
/// [`parse_replay`]).
pub fn render_replay(requests: &[Request]) -> String {
    let mut out = String::new();
    for r in requests {
        match r {
            Request::Query(q) => {
                out.push_str(&q.theory);
                out.push(' ');
                out.push_str(&q.query);
                out.push('\n');
            }
            Request::Write(w) => {
                for (directive, facts) in [
                    ("!insert", &w.batch.inserts),
                    ("!retract", &w.batch.retracts),
                ] {
                    if facts.is_empty() {
                        continue;
                    }
                    out.push_str(directive);
                    out.push(' ');
                    out.push_str(&w.theory);
                    for fact in facts {
                        out.push(' ');
                        out.push_str(&format!("{fact}."));
                    }
                    out.push('\n');
                }
            }
        }
    }
    out
}

/// Renders a response stream as its deterministic trace: one
/// [`Response::trace_line`] per line.
pub fn render_trace(responses: &[Response]) -> String {
    let mut out = String::new();
    for r in responses {
        out.push_str(&r.trace_line());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_skips_comments_and_round_trips() {
        let src = "# a comment\n\npath ?(A) :- e(A,B).\nfamily   ? :- human(ann).\n";
        let reqs = parse_replay(src).unwrap();
        assert_eq!(reqs.len(), 2);
        let Request::Query(q0) = &reqs[0] else {
            panic!("query expected");
        };
        assert_eq!(q0.theory, "path");
        assert_eq!(q0.query, "?(A) :- e(A,B).");
        let Request::Query(q1) = &reqs[1] else {
            panic!("query expected");
        };
        assert_eq!(q1.theory, "family");
        assert_eq!(q1.query, "? :- human(ann).");
        let rendered = render_replay(&reqs);
        assert_eq!(parse_replay(&rendered).unwrap(), reqs);
    }

    #[test]
    fn parse_write_directives() {
        let src = "!insert path e(d,x). e(x,y).\n!retract path e(a,b).\n";
        let reqs = parse_replay(src).unwrap();
        assert_eq!(reqs.len(), 2);
        let Request::Write(w) = &reqs[0] else {
            panic!("write expected");
        };
        assert_eq!(w.theory, "path");
        assert_eq!(w.batch.inserts.len(), 2);
        assert!(w.batch.retracts.is_empty());
        let Request::Write(w) = &reqs[1] else {
            panic!("write expected");
        };
        assert_eq!(w.batch.retracts.len(), 1);
        let rendered = render_replay(&reqs);
        assert_eq!(parse_replay(&rendered).unwrap(), reqs);
    }

    #[test]
    fn errors_are_typed_and_located() {
        let err = parse_replay("path ?(A) :- e(A,B).\njustonetoken\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(matches!(err.kind, ReplayErrorKind::MissingQuery { .. }));
        assert!(err.to_string().contains("replay line 2"), "{err}");

        let err = parse_replay("!explode path e(a,b).\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(matches!(err.kind, ReplayErrorKind::UnknownDirective { .. }));

        let err = parse_replay("\n\n!insert path\n").unwrap_err();
        assert_eq!(err.line, 3);
        assert!(matches!(err.kind, ReplayErrorKind::MissingWrite { .. }));

        let err = parse_replay("!insert path not a fact\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(matches!(err.kind, ReplayErrorKind::BadFact { .. }));
    }
}
