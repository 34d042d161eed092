//! The `QRIN` checkpoint decoder is total: whatever the bytes say,
//! [`Instance::from_bytes`] returns an instance or a located
//! [`DecodeError`] — it never panics and never asks the allocator for more
//! than the input's size can justify.

use qr_storage::{ByteWriter, DecodeError, DecodeErrorKind};
use qr_syntax::{parse_instance, Instance};

/// A small checkpoint with constants, a Skolem term, two arities and a
/// repeated predicate.
fn checkpoint() -> Vec<u8> {
    let mut inst = parse_instance("e(a,b). e(b,c). p(a). r(a,b,c).").unwrap();
    let f = qr_syntax::SkolemFn::intern(qr_syntax::Symbol::intern("f_0"), 1);
    let a = qr_syntax::TermId::constant(qr_syntax::Symbol::intern("a"));
    let sk = qr_syntax::TermId::skolem(f, &[a]);
    let e = inst.iter().next().unwrap().to_fact().pred;
    inst.insert(qr_syntax::Fact::new(e, vec![a, sk]));
    inst.to_bytes()
}

/// `true` iff `err` points inside the input (or at its end, for a stream
/// that stops short).
fn located(err: &DecodeError, input: &[u8]) -> bool {
    err.offset <= input.len()
}

#[test]
fn the_fixture_roundtrips() {
    let bytes = checkpoint();
    let back = Instance::from_bytes(&bytes).expect("a real checkpoint decodes");
    assert_eq!(back.to_bytes(), bytes);
}

#[test]
fn every_truncation_fails_with_a_located_error() {
    let bytes = checkpoint();
    for cut in 0..bytes.len() {
        let prefix = &bytes[..cut];
        let err = Instance::from_bytes(prefix).expect_err("a strict prefix must not decode");
        assert!(located(&err, prefix), "cut {cut}: {err}");
    }
}

#[test]
fn every_byte_flip_decodes_or_fails_located() {
    let bytes = checkpoint();
    for i in 0..bytes.len() {
        for mask in [0x01u8, 0x80, 0xff] {
            let mut m = bytes.clone();
            m[i] ^= mask;
            if let Err(err) = Instance::from_bytes(&m) {
                assert!(located(&err, &m), "byte {i} ^ {mask:#x}: {err}");
            }
        }
    }
}

#[test]
fn a_huge_predicate_count_is_an_error_not_an_abort() {
    // Magic, version 1, then 2^40 predicates: 11 bytes.
    let mut w = ByteWriter::new();
    w.raw(b"QRIN");
    w.varint(1);
    w.varint(1 << 40);
    let bytes = w.into_vec();
    assert_eq!(bytes.len(), 11);
    let err = Instance::from_bytes(&bytes).expect_err("no predicate follows");
    assert_eq!(err, DecodeError::at(11, DecodeErrorKind::UnexpectedEof));
}

#[test]
fn a_huge_arity_is_an_error_not_an_abort() {
    // One predicate `p` of arity u32::MAX, no terms, one fact: 16 bytes.
    let mut w = ByteWriter::new();
    w.raw(b"QRIN");
    w.varint(1);
    w.varint(1);
    w.str("p");
    let arity_at = 8;
    w.varint(u64::from(u32::MAX));
    w.varint(0);
    w.varint(1);
    w.varint(0);
    let bytes = w.into_vec();
    assert_eq!(bytes.len(), 16);
    let err = Instance::from_bytes(&bytes).expect_err("the arity is out of bounds");
    assert_eq!(
        err,
        DecodeError::at(arity_at, DecodeErrorKind::Malformed("bad arity"))
    );

    // The bound is 2^16: one past it is refused, the bound itself is read
    // on, and its fact then runs out of bytes.
    for (arity, want) in [
        ((1u64 << 16) + 1, DecodeErrorKind::Malformed("bad arity")),
        (1 << 16, DecodeErrorKind::UnexpectedEof),
    ] {
        let mut w = ByteWriter::new();
        w.raw(b"QRIN");
        w.varint(1);
        w.varint(1);
        w.str("p");
        w.varint(arity);
        w.varint(0);
        w.varint(1);
        w.varint(0);
        let bytes = w.into_vec();
        let err = Instance::from_bytes(&bytes).expect_err("no such fact fits");
        assert_eq!(err.kind, want, "arity {arity}");
        assert!(located(&err, &bytes), "arity {arity}: {err}");
    }
}
