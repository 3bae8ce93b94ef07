//! Regenerates one of the paper's tables or figures by name, e.g.
//! `cargo run --release -p v6bench --bin fig -- table1`. See the
//! `v6bench` docs for the env knobs.

use v6bench::experiments::GENERATORS;

fn main() {
    let name = std::env::args().nth(1).unwrap_or_default();
    // `tracking` is the §5.2 classification, which fig7 prints.
    let wanted = if name == "tracking" { "fig7" } else { &name };
    let Some(&(_, run)) = GENERATORS.iter().find(|(n, _)| *n == wanted) else {
        let names: Vec<&str> = GENERATORS.iter().map(|&(n, _)| n).collect();
        eprintln!("usage: fig <{}|tracking>", names.join("|"));
        std::process::exit(2);
    };
    let e = v6bench::run_experiment();
    v6bench::print_experiment(run(&e));
}
