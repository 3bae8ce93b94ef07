//! Spans opened inside a kernel body on a helper thread reach
//! `take_report`: helpers are joined before a parallel call returns, and
//! a joined thread has flushed its trace buffer.
//!
//! This file must stay a single-test binary: trace state is global to
//! the process, so another test's spans would land in the same report.

use std::sync::Barrier;

use v6obs::TraceNode;
use v6par::{par_map_cost, Cost};

/// `unit` spans closed anywhere in `node`'s subtree.
fn unit_calls(node: &TraceNode) -> u64 {
    let own = if node.name == "unit" { node.calls } else { 0 };
    own + node.children.iter().map(unit_calls).sum::<u64>()
}

#[test]
fn helper_spans_reach_the_report() {
    v6obs::set_enabled(true);
    let _ = v6obs::take_report();
    let items: Vec<u64> = (0..8).collect();
    // A hint far above the cutoff: eight one-item morsels, two
    // participants. The first two morsels meet at a barrier, so the
    // helper is sure to run one of them with its span open.
    let both = Barrier::new(2);
    let got = par_map_cost(2, &items, Cost::per_item_ns(1_000_000), |i, &x| {
        let _span = v6obs::span("unit");
        if i < 2 {
            both.wait();
        }
        x + 1
    });
    assert_eq!(got, (1..=8).collect::<Vec<u64>>());
    let report = v6obs::take_report();
    let calls: u64 = report.roots.iter().map(unit_calls).sum();
    assert_eq!(
        calls,
        8,
        "every morsel's span is reported:\n{}",
        report.render()
    );
}
