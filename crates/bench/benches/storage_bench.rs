//! Micro-benchmarks for retracting one fact of a 5 000-fact instance:
//! `Instance::retract` in place, at the oldest, middle and newest fact,
//! against rebuilding the instance from its survivors.

use qr_bench::experiments::e11_chase_engine::random_graph;
use qr_bench::microbench::{bench, group};
use qr_syntax::{Fact, Instance};

/// A fresh instance of every fact not in `gone`, in order.
fn rebuild_without(inst: &Instance, gone: &[Fact]) -> Instance {
    let mut survivors = Instance::new();
    for fr in inst.iter() {
        let fact = fr.to_fact();
        if !gone.contains(&fact) {
            survivors.insert(fact);
        }
    }
    survivors
}

fn main() {
    let base = random_graph(1_000, 5_000, 42);
    group("instance/retract_one_of_5000");
    for (label, at) in [("oldest", 0), ("middle", 2_500), ("newest", 4_999)] {
        let fact = base.fact(at).to_fact();
        bench(&format!("rebuild/{label}"), || {
            rebuild_without(&base, std::slice::from_ref(&fact)).len()
        });
        // Re-inserting the retracted fact moves it to the end, so every
        // iteration retracts whichever fact now sits at `at`.
        let mut inst = base.clone();
        bench(&format!("in_place/{label}"), || {
            let fact = inst.fact(at).to_fact();
            inst.retract(std::slice::from_ref(&fact));
            inst.insert(fact)
        });
    }
}
