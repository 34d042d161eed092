//! Pretty printing for queries and rules.
//!
//! Renderings round-trip through the parser in [`crate::parser`]: variable
//! names are uppercased on output if needed so the Prolog-style convention
//! (variables start with an uppercase letter) is preserved.

use crate::query::{ConjunctiveQuery, QAtom, QTerm};
use crate::rule::Tgd;
use crate::symbol::Symbol;

fn display_var_name(names: &[Symbol], v: crate::query::Var) -> String {
    // Sanitize: parser identifiers are [A-Za-z0-9_'], and variables must
    // start uppercase. Fresh symbols like `x#26` become `X_26`.
    let raw = names[v.index()].as_str();
    let mut s: String = raw
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    match s.chars().next() {
        Some(c) if c.is_ascii_uppercase() || c == '_' => s,
        Some(c) if c.is_ascii_lowercase() => {
            s.replace_range(..1, &c.to_ascii_uppercase().to_string());
            s
        }
        _ => format!("V{}", v.index()),
    }
}

fn render_qterm(names: &[Symbol], t: &QTerm) -> String {
    match t {
        QTerm::Var(v) => display_var_name(names, *v),
        QTerm::Const(c) => c.as_str().to_owned(),
    }
}

/// Renders one atom with the given variable-name table.
pub fn render_qatom(names: &[Symbol], a: &QAtom) -> String {
    let mut out = String::new();
    out.push_str(a.pred.name().as_str());
    out.push('(');
    for (i, t) in a.args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&render_qterm(names, t));
    }
    out.push(')');
    out
}

fn render_atom_list(names: &[Symbol], atoms: &[QAtom]) -> String {
    atoms
        .iter()
        .map(|a| render_qatom(names, a))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Renders a conjunctive query, e.g. `?(X) :- mother(X,Y), human(Y)`.
pub fn render_cq(q: &ConjunctiveQuery) -> String {
    let names = q.var_names();
    let head = if q.is_boolean() {
        "?".to_owned()
    } else {
        format!(
            "?({})",
            q.answer_vars()
                .iter()
                .map(|v| display_var_name(names, *v))
                .collect::<Vec<_>>()
                .join(",")
        )
    };
    format!("{head} :- {}", render_atom_list(names, q.atoms()))
}

/// Renders a rule, e.g. `human(X) -> mother(X,Y)`.
pub fn render_tgd(r: &Tgd) -> String {
    let names = r.var_names();
    let body = if r.body().is_empty() {
        "true".to_owned()
    } else {
        render_atom_list(names, r.body())
    };
    format!("{body} -> {}", render_atom_list(names, r.head()))
}

#[cfg(test)]
mod tests {
    use crate::parser::{parse_query, parse_theory};

    #[test]
    fn cq_round_trip() {
        let q = parse_query("?(X) :- mother(X,Y), human(Y).").unwrap();
        let s = q.render();
        let q2 = parse_query(&format!("{s}.")).unwrap();
        assert_eq!(q.canonical(), q2.canonical());
    }

    #[test]
    fn tgd_round_trip() {
        let t =
            parse_theory("human(X) -> mother(X,Y).\ntrue -> r(X,X).\ndom(X) -> r(X,Z).").unwrap();
        let rendered = t.render();
        let t2 = parse_theory(&rendered).unwrap();
        assert_eq!(t.len(), t2.len());
        for (a, b) in t.rules().iter().zip(t2.rules()) {
            assert_eq!(a.body().len(), b.body().len());
            assert_eq!(a.head().len(), b.head().len());
        }
    }
}
