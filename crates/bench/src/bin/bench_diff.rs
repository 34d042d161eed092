//! Compares two harness `--json` dumps on their deterministic counters.
//!
//! Usage: `bench_diff <baseline.json> <candidate.json>`
//!
//! Works on every `BENCH_*.json` dump (schema `qr-bench/v6`). The counters
//! in them are pure functions of the pinned inputs — chase rounds and
//! their trigger/candidate counts, rewriting windows, serve cache outcomes
//! and trace hash, certificate counts — so they must not drift across
//! commits unless the engine semantics intentionally changed. One generic
//! walk compares the two trees:
//!
//! - objects are compared key by key, and a key present on only one side
//!   is drift;
//! - arrays whose elements all carry a `workload`, `name` or `id` string
//!   are matched by that label, and other arrays by index; an element
//!   present on only one side is drift;
//! - scalars are compared by their literal token;
//! - the values of keys named `threads` or ending in `_ms` are skipped —
//!   thread counts and times are the only machine-dependent fields.
//!
//! Exit code 0 means the counters match; 1 means drift (differences
//! listed on stderr); 2 means usage or input errors, including two
//! elements of one array sharing a label.

use std::fmt::Write as _;

use qr_bench::report::Json;

/// The one exemption rule: values that depend on the machine, not the
/// inputs.
fn exempt(key: &str) -> bool {
    key == "threads" || key.ends_with("_ms")
}

/// The identity of an array element: its `workload`, `name` or `id`.
fn label(v: &Json) -> Option<&str> {
    ["workload", "name", "id"]
        .into_iter()
        .find_map(|k| v.get(k)?.as_str())
}

/// The array's elements keyed by label, or `None` if any element has none.
fn keyed(items: &[Json]) -> Option<Vec<(&str, &Json)>> {
    items.iter().map(|v| Some((label(v)?, v))).collect()
}

/// Rejects an array holding two elements with one label: matching by label
/// would check both against one counterpart and never see the other.
fn check_labels(path: &str, v: &Json) -> Result<(), String> {
    match v {
        Json::Obj(fields) => fields
            .iter()
            .try_for_each(|(k, x)| check_labels(&field(path, k), x)),
        Json::Arr(items) => {
            for (i, x) in items.iter().enumerate() {
                if let Some(l) = label(x) {
                    if items[..i].iter().any(|y| label(y) == Some(l)) {
                        return Err(format!("{path}: duplicate label \"{l}\""));
                    }
                }
                check_labels(&format!("{path}[{i}]"), x)?;
            }
            Ok(())
        }
        _ => Ok(()),
    }
}

/// The path of field `key` under `path` (the root path is empty).
fn field(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_owned()
    } else {
        format!("{path}.{key}")
    }
}

fn missing(report: &mut String, path: &str, side: &str) {
    let _ = writeln!(report, "  {path}: missing from {side}");
}

/// Appends every difference between `b` and `c` under `path` to `report`.
fn walk(path: &str, b: &Json, c: &Json, report: &mut String) {
    match (b, c) {
        (Json::Obj(bf), Json::Obj(cf)) => {
            for (k, bv) in bf {
                let p = field(path, k);
                match c.get(k) {
                    None => missing(report, &p, "candidate"),
                    Some(_) if exempt(k) => {}
                    Some(cv) => walk(&p, bv, cv, report),
                }
            }
            for (k, _) in cf {
                if b.get(k).is_none() {
                    missing(report, &field(path, k), "baseline");
                }
            }
        }
        (Json::Arr(bi), Json::Arr(ci)) => match (keyed(bi), keyed(ci)) {
            (Some(bk), Some(ck)) => {
                for (l, bv) in &bk {
                    let p = format!("{path}[\"{l}\"]");
                    match ck.iter().find(|(m, _)| m == l) {
                        None => missing(report, &p, "candidate"),
                        Some((_, cv)) => walk(&p, bv, cv, report),
                    }
                }
                for (l, _) in &ck {
                    if !bk.iter().any(|(m, _)| m == l) {
                        missing(report, &format!("{path}[\"{l}\"]"), "baseline");
                    }
                }
            }
            _ => {
                for (i, bv) in bi.iter().enumerate() {
                    match ci.get(i) {
                        None => missing(report, &format!("{path}[{i}]"), "candidate"),
                        Some(cv) => walk(&format!("{path}[{i}]"), bv, cv, report),
                    }
                }
                for i in bi.len()..ci.len() {
                    missing(report, &format!("{path}[{i}]"), "baseline");
                }
            }
        },
        _ if b != c => {
            let _ = writeln!(report, "  {path}: {b} -> {c}");
        }
        _ => {}
    }
}

/// Diffs two parsed dumps; returns a human-readable drift report (empty
/// when the deterministic counters agree), or an input error.
fn diff(base: &Json, cand: &Json) -> Result<String, String> {
    check_labels("", base).map_err(|e| format!("baseline {e}"))?;
    check_labels("", cand).map_err(|e| format!("candidate {e}"))?;
    let mut report = String::new();
    walk("", base, cand, &mut report);
    Ok(report)
}

fn fail(msg: String) -> ! {
    eprintln!("bench_diff: {msg}");
    std::process::exit(2);
}

fn load(path: &str) -> Json {
    let src =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(format!("cannot read {path}: {e}")));
    Json::parse(&src).unwrap_or_else(|e| fail(format!("cannot parse {path}: {e}")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [base_path, cand_path] = args.as_slice() else {
        fail("usage: bench_diff <baseline.json> <candidate.json>".into());
    };
    let report = diff(&load(base_path), &load(cand_path)).unwrap_or_else(|e| fail(e));
    if report.is_empty() {
        println!("bench_diff: deterministic counters match ({base_path} vs {cand_path})");
    } else {
        eprintln!("bench_diff: counter drift between {base_path} and {cand_path}:");
        eprint!("{report}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed dumps, as `(file name, contents)`.
    const BASELINES: [(&str, &str); 4] = [
        (
            "BENCH_chase.json",
            include_str!("../../../../BENCH_chase.json"),
        ),
        (
            "BENCH_rewrite.json",
            include_str!("../../../../BENCH_rewrite.json"),
        ),
        (
            "BENCH_serve.json",
            include_str!("../../../../BENCH_serve.json"),
        ),
        (
            "BENCH_check.json",
            include_str!("../../../../BENCH_check.json"),
        ),
    ];

    fn baselines() -> impl Iterator<Item = (&'static str, Json)> {
        BASELINES
            .map(|(name, src)| (name, Json::parse(src).unwrap()))
            .into_iter()
    }

    /// Every node below `v` as (child indices from the root, name of the
    /// nearest enclosing field, is a leaf).
    fn nodes(
        v: &Json,
        path: &mut Vec<usize>,
        key: &str,
        out: &mut Vec<(Vec<usize>, String, bool)>,
    ) {
        let children: Vec<(&str, &Json)> = match v {
            Json::Obj(fields) => fields.iter().map(|(k, x)| (k.as_str(), x)).collect(),
            Json::Arr(items) => items.iter().map(|x| (key, x)).collect(),
            _ => Vec::new(),
        };
        for (i, (k, x)) in children.into_iter().enumerate() {
            path.push(i);
            out.push((
                path.clone(),
                k.to_owned(),
                !matches!(x, Json::Obj(_) | Json::Arr(_)),
            ));
            nodes(x, path, k, out);
            path.pop();
        }
    }

    /// The parent of the node at `path` inside `v`, and the node's index in it.
    fn parent_mut<'a>(v: &'a mut Json, path: &[usize]) -> (&'a mut Json, usize) {
        let (last, init) = path.split_last().unwrap();
        let mut node = v;
        for &i in init {
            node = match node {
                Json::Obj(fields) => &mut fields[i].1,
                Json::Arr(items) => &mut items[i],
                _ => unreachable!(),
            };
        }
        (node, *last)
    }

    fn drift(a: &Json, b: &Json) -> String {
        diff(a, b).unwrap()
    }

    #[test]
    fn committed_dumps_match_themselves() {
        for (name, tree) in baselines() {
            assert_eq!(drift(&tree, &tree), "", "{name}");
        }
    }

    #[test]
    fn every_perturbed_leaf_is_drift_unless_exempt() {
        for (name, tree) in baselines() {
            let mut all = Vec::new();
            nodes(&tree, &mut Vec::new(), "", &mut all);
            for (path, key, _) in all.iter().filter(|(_, _, leaf)| *leaf) {
                let mut bent = tree.clone();
                let (parent, i) = parent_mut(&mut bent, path);
                let leaf = match parent {
                    Json::Obj(fields) => &mut fields[i].1,
                    Json::Arr(items) => &mut items[i],
                    _ => unreachable!(),
                };
                *leaf = match leaf {
                    Json::Num(t) => Json::Num(format!("{t}1")),
                    Json::Str(s) => Json::Str(format!("{s}~")),
                    Json::Bool(b) => Json::Bool(!*b),
                    _ => Json::Bool(true),
                };
                let report = drift(&tree, &bent);
                // The rule, restated so a change to `exempt` fails here.
                let machine_dependent = key == "threads" || key.ends_with("_ms");
                assert_eq!(
                    report.is_empty(),
                    machine_dependent,
                    "{name}: leaf {path:?} under \"{key}\": {report}"
                );
            }
        }
    }

    #[test]
    fn every_deleted_key_or_element_is_drift() {
        for (name, tree) in baselines() {
            let mut all = Vec::new();
            nodes(&tree, &mut Vec::new(), "", &mut all);
            for (path, key, _) in &all {
                let mut cut = tree.clone();
                match parent_mut(&mut cut, path) {
                    (Json::Obj(fields), i) => drop(fields.remove(i)),
                    (Json::Arr(items), i) => drop(items.remove(i)),
                    _ => unreachable!(),
                }
                for report in [drift(&tree, &cut), drift(&cut, &tree)] {
                    assert!(
                        report.contains("missing from"),
                        "{name}: deleting {path:?} under \"{key}\" went unseen: {report}"
                    );
                }
            }
        }
    }

    #[test]
    fn drift_is_reported_by_path() {
        let a = Json::parse(
            r#"{"runs": [{"workload": "TC", "threads": 4, "rounds": [{"triggers": 3}]}]}"#,
        )
        .unwrap();
        let b = Json::parse(r#"{"runs": [{"workload": "TC", "threads": 1, "rounds": [{"triggers": 4}, {"triggers": 1}]}]}"#).unwrap();
        assert_eq!(
            drift(&a, &b),
            "  runs[\"TC\"].rounds[0].triggers: 3 -> 4\n  runs[\"TC\"].rounds[1]: missing from baseline\n"
        );
    }

    #[test]
    fn duplicate_labels_are_an_input_error() {
        let dup = Json::parse(
            r#"{"runs": [{"workload": "TC", "triggers": 3}, {"workload": "TC", "triggers": 9}]}"#,
        )
        .unwrap();
        let one = Json::parse(r#"{"runs": [{"workload": "TC", "triggers": 3}]}"#).unwrap();
        let err = diff(&dup, &one).unwrap_err();
        assert!(
            err.contains("baseline runs: duplicate label \"TC\""),
            "{err}"
        );
        let err = diff(&one, &dup).unwrap_err();
        assert!(
            err.contains("candidate runs: duplicate label \"TC\""),
            "{err}"
        );
    }
}
