#[test]
fn probe_retract_vanishing_dom_var_sweep() {
    use qr_chase::engine::chase_with;
    use qr_chase::{chase_incremental, ChaseBudget, WriteBatch};
    use qr_exec::Executor;
    use qr_syntax::{parse_instance, parse_theory, Fact, Symbol, TermId};
    let t = parse_theory("s, dom(Y) -> q.").unwrap();
    let d = parse_instance("s. r(z).").unwrap();
    let exec = Executor::sequential();
    let budget = ChaseBudget::default();
    let prev = chase_with(&t, &d, budget, &exec);
    let q = Fact::new(qr_syntax::Pred::new("q", 0), vec![]);
    assert!(prev.instance.contains(&q), "prev derives q");
    let rz = Fact::new(
        qr_syntax::Pred::new("r", 1),
        vec![TermId::constant(Symbol::intern("z"))],
    );
    let batch = WriteBatch::retract([rz]);
    let (incr, bs) = chase_incremental(&t, &prev, &batch, budget, &exec);
    eprintln!("mode = {:?}", bs.mode);
    // cold chase of shrunken base
    let d2 = parse_instance("s.").unwrap();
    let cold = chase_with(&t, &d2, budget, &exec);
    assert_eq!(
        incr.instance.contains(&q),
        cold.instance.contains(&q),
        "incremental contains q: {}, cold contains q: {}",
        incr.instance.contains(&q),
        cold.instance.contains(&q)
    );
}
