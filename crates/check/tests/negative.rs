//! The negative suite: every class of certificate mutation the issue
//! names must be *rejected with a located error* — wrong rule ids,
//! permuted homomorphisms, truncated chains, corrupted codec bytes —
//! and the checker must never panic, whatever the bytes say.

use qr_chase::{chase, emit_chase_certs, ChaseBudget, ChaseCertBundle};
use qr_check::{
    check_chase, check_rewrite, decode_chase_certs, decode_rewrite_certs, encode_chase_certs,
    encode_rewrite_certs, CheckErrorKind,
};
use qr_exec::Executor;
use qr_rewrite::{rewrite_certified, RewriteBudget, RewriteCertBundle};
use qr_storage::DecodeErrorKind;
use qr_syntax::{
    parse_instance, parse_query, parse_theory, ConjunctiveQuery, Instance, QTerm, Symbol, Theory,
    Ucq,
};

fn rewrite_fixture() -> (Theory, ConjunctiveQuery, Ucq, RewriteCertBundle) {
    let theory = parse_theory("human(Y) -> mother(Y,Z).\nmother(X,Y) -> human(Y).").unwrap();
    let query = parse_query("?(X) :- mother(X, M).").unwrap();
    let (r, bundle) = rewrite_certified(
        &theory,
        &query,
        RewriteBudget::default(),
        &Executor::sequential(),
    )
    .unwrap();
    (theory, query, r.ucq, bundle)
}

fn chase_fixture() -> (Theory, Instance, ChaseCertBundle) {
    let theory = parse_theory("e(X,Y), e(Y,Z) -> e(X,Z).\nhuman(X) -> mother(X,Y).").unwrap();
    let db = parse_instance("e(a,b). e(b,c). e(c,d). human(abel).").unwrap();
    let c = chase(&theory, &db, ChaseBudget::default());
    let bundle = emit_chase_certs(&theory, &c);
    (theory, c.instance, bundle)
}

#[test]
fn rewrite_wrong_rule_id_is_rejected() {
    let (theory, phi, ucq, bundle) = rewrite_fixture();
    assert!(bundle.certs.len() > 2, "fixture accepts several disjuncts");

    // Out-of-range rule id.
    let mut m = bundle.clone();
    m.certs[1].step.as_mut().unwrap().rule = 77;
    let e = check_rewrite(&theory, &phi, &ucq, &m).unwrap_err();
    assert_eq!(e.cert, 1);
    assert_eq!(
        e.kind,
        CheckErrorKind::RuleOutOfRange { rule: 77, rules: 2 }
    );

    // In-range but *different* rule: the recorded pairs cannot unify, or
    // unify to something the recorded maps no longer witness.
    let mut m = bundle.clone();
    let step = m.certs[1].step.as_mut().unwrap();
    step.rule = 1 - step.rule;
    let e = check_rewrite(&theory, &phi, &ucq, &m).unwrap_err();
    assert_eq!(e.cert, 1, "rejection locates the mutated node: {e}");
}

#[test]
fn rewrite_permuted_homomorphism_is_rejected() {
    let (theory, phi, ucq, bundle) = rewrite_fixture();
    let victim = bundle
        .certs
        .iter()
        .position(|c| c.to_query.len() >= 2)
        .expect("some node has two variables");

    let mut m = bundle.clone();
    m.certs[victim].to_query.swap(0, 1);
    let e = check_rewrite(&theory, &phi, &ucq, &m).unwrap_err();
    assert_eq!(e.cert, victim, "to_query permutation located: {e}");

    let victim = bundle
        .certs
        .iter()
        .position(|c| c.from_query.len() >= 2)
        .expect("some node has two variables");
    let mut m = bundle.clone();
    m.certs[victim].from_query.swap(0, 1);
    let e = check_rewrite(&theory, &phi, &ucq, &m).unwrap_err();
    assert_eq!(e.cert, victim, "from_query permutation located: {e}");
}

#[test]
fn rewrite_truncated_chain_is_rejected() {
    let (theory, phi, ucq, bundle) = rewrite_fixture();

    // Drop a middle node: every later parent reference now points at the
    // wrong query (or past the end), and the finals shift.
    let mut m = bundle.clone();
    m.certs.remove(1);
    for c in &mut m.certs {
        if let Some(s) = &mut c.step {
            s.parent = s.parent.saturating_sub(1);
        }
    }
    for f in &mut m.final_disjuncts {
        *f = f.saturating_sub(1);
    }
    assert!(
        check_rewrite(&theory, &phi, &ucq, &m).is_err(),
        "a spliced chain must not certify"
    );

    // Drop the whole tail including the finals' nodes.
    let mut m = bundle.clone();
    m.certs.truncate(1);
    assert!(check_rewrite(&theory, &phi, &ucq, &m).is_err());

    // Empty bundle.
    let m = RewriteCertBundle {
        certs: Vec::new(),
        final_disjuncts: Vec::new(),
    };
    let e = check_rewrite(&theory, &phi, &ucq, &m).unwrap_err();
    assert_eq!(e.kind, CheckErrorKind::EmptyBundle);
}

#[test]
fn rewrite_mutated_unifier_pairs_are_rejected() {
    let (theory, phi, ucq, bundle) = rewrite_fixture();
    let mut m = bundle.clone();
    let step = m.certs[1].step.as_mut().unwrap();
    step.unified[0].0 += 13; // query atom index out of range
    let e = check_rewrite(&theory, &phi, &ucq, &m).unwrap_err();
    assert_eq!(e.cert, 1);
    assert_eq!(e.kind, CheckErrorKind::UnifierRejected);
}

#[test]
fn rewrite_redirected_finals_are_rejected() {
    let (theory, phi, ucq, bundle) = rewrite_fixture();
    let mut m = bundle.clone();
    m.final_disjuncts[0] = m.certs.len() as u32;
    let e = check_rewrite(&theory, &phi, &ucq, &m).unwrap_err();
    assert_eq!(
        e.kind,
        CheckErrorKind::FinalOutOfRange {
            node: m.final_disjuncts[0]
        }
    );

    // Point two finals at the same node: one of them no longer matches
    // its disjunct.
    let mut m = bundle.clone();
    let first = m.final_disjuncts[0];
    for f in &mut m.final_disjuncts {
        *f = first;
    }
    assert!(check_rewrite(&theory, &phi, &ucq, &m).is_err());
}

#[test]
fn chase_wrong_rule_id_is_rejected() {
    let (theory, inst, bundle) = chase_fixture();
    assert!(!bundle.is_empty());

    let mut m = bundle.clone();
    m.certs[0].rule = 9;
    let e = check_chase(&theory, &inst, &m).unwrap_err();
    assert_eq!(e.cert, 0);
    assert_eq!(e.kind, CheckErrorKind::RuleOutOfRange { rule: 9, rules: 2 });

    // In-range but different rule: trigger arity or unification breaks.
    let mut m = bundle.clone();
    m.certs[0].rule = 1 - m.certs[0].rule;
    let e = check_chase(&theory, &inst, &m).unwrap_err();
    assert_eq!(e.cert, 0, "rejection locates the mutated cert: {e}");
}

#[test]
fn chase_permuted_trigger_is_rejected() {
    let (theory, inst, bundle) = chase_fixture();
    // A transitivity step e(x,y), e(y,z) -> e(x,z): swapping the two
    // trigger facts breaks the shared-variable join (y binds both ways
    // only on a cycle, and this instance is a path).
    let victim = bundle
        .certs
        .iter()
        .position(|c| c.trigger.len() == 2 && c.trigger[0] != c.trigger[1])
        .expect("a transitivity derivation exists");
    let mut m = bundle.clone();
    m.certs[victim].trigger.swap(0, 1);
    let e = check_chase(&theory, &inst, &m).unwrap_err();
    assert_eq!(e.cert, victim, "swap located: {e}");
    assert!(
        matches!(
            e.kind,
            CheckErrorKind::TriggerClash { .. } | CheckErrorKind::FactNotInHead
        ),
        "unexpected kind: {e}"
    );
}

#[test]
fn chase_forward_and_missing_certs_are_rejected() {
    let (theory, inst, bundle) = chase_fixture();

    // Circular: a trigger pointing at the certified fact itself.
    let victim = bundle
        .certs
        .iter()
        .position(|c| !c.trigger.is_empty())
        .unwrap();
    let mut m = bundle.clone();
    m.certs[victim].trigger[0] = m.certs[victim].fact;
    let e = check_chase(&theory, &inst, &m).unwrap_err();
    assert_eq!(e.cert, victim);
    assert!(matches!(e.kind, CheckErrorKind::TriggerNotEarlier { .. }));

    // Coverage gap: dropping a cert leaves a derived fact uncertified.
    let mut m = bundle.clone();
    m.certs.pop();
    let e = check_chase(&theory, &inst, &m).unwrap_err();
    assert!(matches!(e.kind, CheckErrorKind::CertCount { .. }));
}

#[test]
fn corrupted_rewrite_bytes_never_panic() {
    let (theory, phi, ucq, bundle) = rewrite_fixture();
    let bytes = encode_rewrite_certs(&bundle);
    let mut rejected = 0;
    for i in 0..bytes.len() {
        let mut b = bytes.clone();
        b[i] ^= 0xff;
        // Every flip must either fail to decode (located) or decode to a
        // bundle the checker handles without panicking. Flips inside
        // variable-name strings can survive both — names are semantically
        // inert — but structural flips must be caught somewhere.
        match decode_rewrite_certs(&b) {
            Err(e) => {
                assert!(e.offset <= b.len());
                rejected += 1;
            }
            Ok(decoded) => {
                if check_rewrite(&theory, &phi, &ucq, &decoded).is_err() {
                    rejected += 1;
                }
            }
        }
    }
    assert!(
        rejected * 2 > bytes.len(),
        "most byte flips must be caught ({rejected}/{})",
        bytes.len()
    );
}

#[test]
fn corrupted_chase_bytes_never_panic() {
    let (theory, inst, bundle) = chase_fixture();
    let bytes = encode_chase_certs(&bundle);
    let mut rejected = 0;
    for i in 0..bytes.len() {
        let mut b = bytes.clone();
        b[i] ^= 0xff;
        match decode_chase_certs(&b) {
            Err(e) => {
                assert!(e.offset <= b.len());
                rejected += 1;
            }
            Ok(decoded) => {
                if check_chase(&theory, &inst, &decoded).is_err() {
                    rejected += 1;
                }
            }
        }
    }
    // QRCC is pure index data: every byte is load-bearing.
    assert_eq!(rejected, bytes.len(), "every chase-bundle flip is caught");
}

/// A constant named like a frozen one (`#i`) would pose as a variable
/// wherever queries are frozen; the decoder rejects it at the string.
#[test]
fn forged_frozen_constants_are_rejected() {
    let (_, _, _, bundle) = rewrite_fixture();
    let mut m = bundle.clone();
    let seed = &m.certs[0].query;
    let exist = seed.existential_vars()[0];
    let forged = Symbol::frozen(exist.index());
    m.certs[0].query = seed.apply(&[(exist, QTerm::Const(forged))].into());
    let bytes = encode_rewrite_certs(&m);
    let e = decode_rewrite_certs(&bytes).unwrap_err();
    assert_eq!(
        e.kind,
        DecodeErrorKind::Malformed("reserved frozen constant")
    );
    // Located at the forged term: its constant tag, length and text.
    let name = forged.as_str().as_bytes();
    assert_eq!(bytes[e.offset..e.offset + 2], [1, name.len() as u8]);
    assert!(bytes[e.offset + 2..].starts_with(name));
}

#[test]
fn truncated_streams_never_panic() {
    let (_, _, _, bundle) = rewrite_fixture();
    let bytes = encode_rewrite_certs(&bundle);
    for cut in 0..bytes.len() {
        assert!(decode_rewrite_certs(&bytes[..cut]).is_err());
    }
    let (_, _, bundle) = chase_fixture();
    let bytes = encode_chase_certs(&bundle);
    for cut in 0..bytes.len() {
        assert!(decode_chase_certs(&bytes[..cut]).is_err());
    }
}
