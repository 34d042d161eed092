//! Versioned binary formats for certificate bundles.
//!
//! Two formats, built on the same std-only varint codec as the `QRIN`
//! instance checkpoints in `qr-syntax`:
//!
//! * `QRRC` v1 — rewriting certificate bundles. Queries are encoded
//!   structurally (variable names, answer indices, atoms with
//!   predicate name/arity and var/const-tagged arguments) and re-
//!   interned on decode, so a decoded bundle compares `Eq` to the
//!   original within one process.
//! * `QRCC` v1 — chase certificate bundles. Pure index data (fact,
//!   rule, trigger, and witness indices); the instance itself travels
//!   separately (or not at all — the harness replays in-memory).
//!
//! Decoders never panic: every structural violation that would trip a
//! `ConjunctiveQuery::new` assertion (empty body, out-of-range variable,
//! unsafe answer variable) is caught first and reported as a located
//! [`DecodeError`].

use qr_chase::{ChaseCert, ChaseCertBundle};
use qr_rewrite::{RewriteCert, RewriteCertBundle, RewriteStep};
use qr_storage::{ByteReader, ByteWriter, DecodeError, DecodeErrorKind};
use qr_syntax::{ConjunctiveQuery, Pred, QAtom, QTerm, Symbol, Var};

/// Magic bytes of the rewriting-certificate format.
pub const QRRC_MAGIC: &[u8; 4] = b"QRRC";
/// Magic bytes of the chase-certificate format.
pub const QRCC_MAGIC: &[u8; 4] = b"QRCC";
const VERSION: u64 = 1;

fn write_query(w: &mut ByteWriter, q: &ConjunctiveQuery) {
    w.varint(q.var_names().len() as u64);
    for s in q.var_names() {
        w.str(s.as_str());
    }
    w.varint(q.answer_vars().len() as u64);
    for v in q.answer_vars() {
        w.varint(v.index() as u64);
    }
    w.varint(q.atoms().len() as u64);
    for a in q.atoms() {
        w.str(a.pred.name().as_str());
        w.varint(u64::from(a.pred.arity()));
        for t in a.args.iter() {
            write_term(w, t);
        }
    }
}

fn write_term(w: &mut ByteWriter, t: &QTerm) {
    match t {
        QTerm::Var(v) => {
            w.varint(0);
            w.varint(v.index() as u64);
        }
        QTerm::Const(c) => {
            w.varint(1);
            w.str(c.as_str());
        }
    }
}

fn write_terms(w: &mut ByteWriter, ts: &[QTerm]) {
    w.varint(ts.len() as u64);
    for t in ts {
        write_term(w, t);
    }
}

/// Encodes a rewriting certificate bundle as `QRRC` v1 bytes.
pub fn encode_rewrite_certs(bundle: &RewriteCertBundle) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.raw(QRRC_MAGIC);
    w.varint(VERSION);
    w.varint(bundle.certs.len() as u64);
    for cert in &bundle.certs {
        match &cert.step {
            None => w.varint(0),
            Some(step) => {
                w.varint(1);
                w.varint(u64::from(step.parent));
                w.varint(u64::from(step.rule));
                w.varint(step.unified.len() as u64);
                for &(a, h) in &step.unified {
                    w.varint(u64::from(a));
                    w.varint(u64::from(h));
                }
            }
        }
        write_query(&mut w, &cert.query);
        write_terms(&mut w, &cert.to_query);
        write_terms(&mut w, &cert.from_query);
    }
    w.varint(bundle.final_disjuncts.len() as u64);
    for &n in &bundle.final_disjuncts {
        w.varint(u64::from(n));
    }
    w.into_vec()
}

fn read_u32(r: &mut ByteReader) -> Result<u32, DecodeError> {
    let at = r.pos();
    let v = r.varint()?;
    u32::try_from(v)
        .map_err(|_| DecodeError::at(at, DecodeErrorKind::Malformed("index overflows u32")))
}

fn read_len(r: &mut ByteReader, what: &'static str) -> Result<usize, DecodeError> {
    let at = r.pos();
    let v = r.varint()?;
    // A length can never exceed the remaining stream (every element is at
    // least one byte) — reject absurd counts before allocating.
    usize::try_from(v)
        .ok()
        .filter(|&n| n <= (1 << 32))
        .ok_or(DecodeError::at(at, DecodeErrorKind::Malformed(what)))
}

fn read_term(r: &mut ByteReader, nvars: usize) -> Result<QTerm, DecodeError> {
    let at = r.pos();
    match r.varint()? {
        0 => {
            let at = r.pos();
            let v = r.varint()? as usize;
            if v >= nvars {
                return Err(DecodeError::at(
                    at,
                    DecodeErrorKind::Malformed("variable index out of range"),
                ));
            }
            Ok(QTerm::Var(Var(v as u32)))
        }
        // A forged frozen constant would pose as a variable.
        1 => match r.str()? {
            name if Symbol::is_frozen_name(name) => Err(DecodeError::at(
                at,
                DecodeErrorKind::Malformed("reserved frozen constant"),
            )),
            name => Ok(QTerm::Const(Symbol::intern(name))),
        },
        _ => Err(DecodeError::at(
            at,
            DecodeErrorKind::Malformed("bad term tag"),
        )),
    }
}

fn read_query(r: &mut ByteReader) -> Result<ConjunctiveQuery, DecodeError> {
    let nvars = read_len(r, "variable count")?;
    let mut names = Vec::with_capacity(nvars.min(1024));
    for _ in 0..nvars {
        names.push(Symbol::intern(r.str()?));
    }
    let nanswers = read_len(r, "answer count")?;
    let mut answer = Vec::with_capacity(nanswers.min(1024));
    for _ in 0..nanswers {
        let at = r.pos();
        let v = r.varint()? as usize;
        if v >= nvars {
            return Err(DecodeError::at(
                at,
                DecodeErrorKind::Malformed("answer variable out of range"),
            ));
        }
        answer.push(Var(v as u32));
    }
    let at_atoms = r.pos();
    let natoms = read_len(r, "atom count")?;
    if natoms == 0 {
        return Err(DecodeError::at(
            at_atoms,
            DecodeErrorKind::Malformed("empty query body"),
        ));
    }
    let mut atoms = Vec::with_capacity(natoms.min(1024));
    for _ in 0..natoms {
        let name = Symbol::intern(r.str()?);
        let at = r.pos();
        let arity = r.varint()?;
        let arity = u32::try_from(arity)
            .ok()
            .filter(|&a| a <= (1 << 16))
            .ok_or(DecodeError::at(at, DecodeErrorKind::Malformed("bad arity")))?;
        let mut args = Vec::with_capacity(arity as usize);
        for _ in 0..arity {
            args.push(read_term(r, nvars)?);
        }
        atoms.push(QAtom::new(Pred::new(name, arity), args));
    }
    // `ConjunctiveQuery::new` asserts answer safety; report it as a
    // decode error instead of panicking on hostile bytes.
    for v in &answer {
        if !atoms.iter().any(|a| a.mentions(*v)) {
            return Err(DecodeError::at(
                at_atoms,
                DecodeErrorKind::Malformed("answer variable outside body"),
            ));
        }
    }
    Ok(ConjunctiveQuery::new(answer, atoms, names))
}

fn read_terms(r: &mut ByteReader, nvars: usize) -> Result<Vec<QTerm>, DecodeError> {
    let n = read_len(r, "term count")?;
    let mut out = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        out.push(read_term(r, nvars)?);
    }
    Ok(out)
}

fn read_header(r: &mut ByteReader, magic: &[u8; 4]) -> Result<(), DecodeError> {
    if r.raw(4).map_err(|e| DecodeError::at(0, e.kind))? != magic {
        return Err(DecodeError::at(0, DecodeErrorKind::BadMagic));
    }
    let at = r.pos();
    let version = r.varint()?;
    if version != VERSION {
        return Err(DecodeError::at(
            at,
            DecodeErrorKind::UnsupportedVersion(version),
        ));
    }
    Ok(())
}

fn finish(r: &ByteReader) -> Result<(), DecodeError> {
    if !r.is_at_end() {
        return Err(r.error(DecodeErrorKind::Malformed("trailing bytes")));
    }
    Ok(())
}

/// Decodes `QRRC` v1 bytes back into a rewriting certificate bundle.
pub fn decode_rewrite_certs(bytes: &[u8]) -> Result<RewriteCertBundle, DecodeError> {
    let mut r = ByteReader::new(bytes);
    read_header(&mut r, QRRC_MAGIC)?;
    let ncerts = read_len(&mut r, "certificate count")?;
    let mut certs = Vec::with_capacity(ncerts.min(1024));
    for _ in 0..ncerts {
        let at = r.pos();
        let step = match r.varint()? {
            0 => None,
            1 => {
                let parent = read_u32(&mut r)?;
                let rule = read_u32(&mut r)?;
                let npairs = read_len(&mut r, "unifier pair count")?;
                let mut unified = Vec::with_capacity(npairs.min(1024));
                for _ in 0..npairs {
                    let a = read_u32(&mut r)?;
                    let h = read_u32(&mut r)?;
                    unified.push((a, h));
                }
                Some(RewriteStep {
                    parent,
                    rule,
                    unified,
                })
            }
            _ => {
                return Err(DecodeError::at(
                    at,
                    DecodeErrorKind::Malformed("bad step tag"),
                ))
            }
        };
        let query = read_query(&mut r)?;
        // `to_query` maps into this cert's own query, so its variable
        // indices are bounded by it. `from_query` maps into the *raw*
        // rewriting, whose variable count is only known at replay time —
        // decode with the u32 bound; the checker's atom-image validation
        // is authoritative there.
        let to_query = read_terms(&mut r, query.var_names().len())?;
        let from_query = read_terms(&mut r, u32::MAX as usize + 1)?;
        certs.push(RewriteCert {
            step,
            query,
            to_query,
            from_query,
        });
    }
    let nfinals = read_len(&mut r, "final count")?;
    let mut final_disjuncts = Vec::with_capacity(nfinals.min(1024));
    for _ in 0..nfinals {
        final_disjuncts.push(read_u32(&mut r)?);
    }
    finish(&r)?;
    Ok(RewriteCertBundle {
        certs,
        final_disjuncts,
    })
}

/// Encodes a chase certificate bundle as `QRCC` v1 bytes.
pub fn encode_chase_certs(bundle: &ChaseCertBundle) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.raw(QRCC_MAGIC);
    w.varint(VERSION);
    w.varint(u64::from(bundle.base));
    w.varint(bundle.certs.len() as u64);
    for cert in &bundle.certs {
        w.varint(u64::from(cert.fact));
        w.varint(u64::from(cert.rule));
        w.varint(cert.trigger.len() as u64);
        for &t in &cert.trigger {
            w.varint(u64::from(t));
        }
        w.varint(cert.dom.len() as u64);
        for &(f, p) in &cert.dom {
            w.varint(u64::from(f));
            w.varint(u64::from(p));
        }
    }
    w.into_vec()
}

/// Decodes `QRCC` v1 bytes back into a chase certificate bundle.
pub fn decode_chase_certs(bytes: &[u8]) -> Result<ChaseCertBundle, DecodeError> {
    let mut r = ByteReader::new(bytes);
    read_header(&mut r, QRCC_MAGIC)?;
    let base = read_u32(&mut r)?;
    let ncerts = read_len(&mut r, "certificate count")?;
    let mut certs = Vec::with_capacity(ncerts.min(1024));
    for _ in 0..ncerts {
        let fact = read_u32(&mut r)?;
        let rule = read_u32(&mut r)?;
        let ntrig = read_len(&mut r, "trigger count")?;
        let mut trigger = Vec::with_capacity(ntrig.min(1024));
        for _ in 0..ntrig {
            trigger.push(read_u32(&mut r)?);
        }
        let ndom = read_len(&mut r, "dom witness count")?;
        let mut dom = Vec::with_capacity(ndom.min(1024));
        for _ in 0..ndom {
            let f = read_u32(&mut r)?;
            let p = read_u32(&mut r)?;
            dom.push((f, p));
        }
        certs.push(ChaseCert {
            fact,
            rule,
            trigger,
            dom,
        });
    }
    finish(&r)?;
    Ok(ChaseCertBundle { base, certs })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qr_chase::{chase, emit_chase_certs, ChaseBudget};
    use qr_rewrite::{rewrite_certified, RewriteBudget};
    use qr_syntax::{parse_instance, parse_query, parse_theory};

    fn rewrite_bundle() -> RewriteCertBundle {
        let theory = parse_theory("human(Y) -> mother(Y,Z).\nmother(X,Y) -> human(Y).").unwrap();
        let query = parse_query("?(X) :- mother(X, M).").unwrap();
        rewrite_certified(&theory, &query, RewriteBudget::default())
            .unwrap()
            .1
    }

    fn chase_bundle() -> ChaseCertBundle {
        let theory = parse_theory("e(X,Y), e(Y,Z) -> e(X,Z).").unwrap();
        let db = parse_instance("e(a,b). e(b,c). e(c,d).").unwrap();
        let c = chase(&theory, &db, ChaseBudget::default());
        emit_chase_certs(&theory, &c)
    }

    #[test]
    fn rewrite_bundle_roundtrips() {
        let bundle = rewrite_bundle();
        let bytes = encode_rewrite_certs(&bundle);
        let decoded = decode_rewrite_certs(&bytes).unwrap();
        assert_eq!(decoded, bundle);
    }

    #[test]
    fn chase_bundle_roundtrips() {
        let bundle = chase_bundle();
        let bytes = encode_chase_certs(&bundle);
        let decoded = decode_chase_certs(&bytes).unwrap();
        assert_eq!(decoded, bundle);
    }

    #[test]
    fn wrong_magic_is_rejected_at_offset_zero() {
        let mut bytes = encode_rewrite_certs(&rewrite_bundle());
        bytes[0] = b'X';
        assert_eq!(
            decode_rewrite_certs(&bytes),
            Err(DecodeError::at(0, DecodeErrorKind::BadMagic))
        );
        // A chase stream is not a rewrite stream and vice versa.
        let chase_bytes = encode_chase_certs(&chase_bundle());
        assert_eq!(
            decode_rewrite_certs(&chase_bytes),
            Err(DecodeError::at(0, DecodeErrorKind::BadMagic))
        );
    }

    #[test]
    fn future_versions_are_rejected_at_the_version_byte() {
        let mut bytes = encode_chase_certs(&chase_bundle());
        bytes[4] = 9;
        assert_eq!(
            decode_chase_certs(&bytes),
            Err(DecodeError::at(4, DecodeErrorKind::UnsupportedVersion(9)))
        );
    }

    #[test]
    fn truncation_is_located_not_panicked() {
        let bytes = encode_rewrite_certs(&rewrite_bundle());
        for cut in [0, 3, 5, bytes.len() / 2, bytes.len() - 1] {
            let e = decode_rewrite_certs(&bytes[..cut]).unwrap_err();
            assert!(e.offset <= cut, "offset {} past cut {cut}", e.offset);
        }
        let bytes = encode_chase_certs(&chase_bundle());
        for cut in [0, 3, 5, bytes.len() / 2, bytes.len() - 1] {
            let e = decode_chase_certs(&bytes[..cut]).unwrap_err();
            assert!(e.offset <= cut);
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode_chase_certs(&chase_bundle());
        let end = bytes.len();
        bytes.push(0);
        assert_eq!(
            decode_chase_certs(&bytes),
            Err(DecodeError::at(
                end,
                DecodeErrorKind::Malformed("trailing bytes")
            ))
        );
    }
}
