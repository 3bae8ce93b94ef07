//! Runs every table/figure generator once and rewrites EXPERIMENTS.md
//! at the workspace root with paper-vs-measured records. Exits 1 when a
//! shape check fails, after writing every file.

use std::fmt::Write as _;

fn main() {
    let scale = v6bench::Scale::from_env();
    let seed = v6bench::seed_from_env();
    let e = v6bench::run_experiment();
    let outputs = v6bench::experiments::all(&e);

    // Per-experiment artifacts (series + tables) land in results/.
    let results_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::create_dir_all(&results_dir).expect("create results/");
    let mut records = Vec::new();
    for (name, (text, recs)) in &outputs {
        println!("{text}");
        let path = results_dir.join(format!("{name}.txt"));
        std::fs::write(&path, text).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        records.extend(recs.iter().cloned());
    }

    let mut md = String::new();
    let _ = writeln!(md, "# EXPERIMENTS — paper vs. measured\n");
    let _ = writeln!(
        md,
        "Generated by `cargo run --release -p v6bench --bin run_all` \
         (scale = `{}`, seed = `{seed}`).\n",
        scale.name()
    );
    let _ = writeln!(
        md,
        "The paper measured the production Internet (7.9 B addresses); this \
         reproduction runs the same pipeline against a synthetic Internet of \
         {} home networks / {} mobile subscribers, so absolute counts scale \
         down while ratios, orderings and distribution shapes are compared. \
         Each generator can be re-run individually: `cargo run --release -p \
         v6bench --bin fig -- <table1|table2|fig1..fig7|aliases|tracking|geoloc|release|extensions>`.\n",
        e.config.world.home_networks, e.config.world.mobile_subscribers
    );
    let _ = writeln!(
        md,
        "World: {} devices, {} ASes. Passive corpus: {} observations, {} unique addresses.\n",
        e.world.device_count(),
        e.world.ases.len(),
        e.corpus.len(),
        e.ntp.len()
    );
    let stats = v6netsim::WorldStats::compute(&e.world);
    let _ = writeln!(md, "```\n{}```\n", stats.render());
    md.push_str(&v6hitlist::report::render_markdown(&records));
    let failed = records.iter().filter(|r| !r.shape_holds).count();
    let _ = writeln!(
        md,
        "\n**{} of {} shape checks hold.**",
        records.len() - failed,
        records.len()
    );

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../EXPERIMENTS.md");
    std::fs::write(&path, md).expect("write EXPERIMENTS.md");
    eprintln!(
        "[run_all] wrote {} ({} records, {} shape failures)",
        path.display(),
        records.len(),
        failed
    );
    if failed > 0 {
        std::process::exit(1);
    }
}
