//! Macro-benchmarks of the simulation and measurement pipelines,
//! including the DESIGN.md ablations: statistical event generation
//! throughput, scanner throughput against the world, and alias filtering
//! on/off.

use criterion::{criterion_group, criterion_main, Criterion};

use v6netsim::{NtpEventStream, SimDuration, SimTime, World, WorldConfig};
use v6scan::{scan, AliasList, WorldProber, Zmap6Config};

fn world() -> World {
    World::build(WorldConfig::tiny(), 77)
}

fn bench_world_build(c: &mut Criterion) {
    c.bench_function("pipeline/world_build_tiny", |b| {
        b.iter(|| World::build(WorldConfig::tiny(), 77))
    });
}

fn bench_event_generation(c: &mut Criterion) {
    let w = world();
    // DESIGN.md ablation 1: the statistical generator covers a simulated
    // week in one pass; exhaustive per-poll simulation would be ~10^4×
    // the event count (64-second poll intervals vs ~1 query/day).
    c.bench_function("pipeline/eventgen_week", |b| {
        b.iter(|| NtpEventStream::new(&w, SimTime::START, SimDuration::WEEK).count())
    });
}

fn bench_scanner(c: &mut Criterion) {
    let w = world();
    let prober = WorldProber::new(&w, 0);
    let targets: Vec<std::net::Ipv6Addr> = w
        .ases
        .iter()
        .flat_map(|a| (0..8u64).map(move |i| a.customer33().subprefix(48, i * 7).offset(1)))
        .collect();
    c.bench_function("pipeline/zmap_scan_1k_targets", |b| {
        b.iter(|| {
            scan(&prober, &targets, &Zmap6Config::default(), 1)
                .stats
                .sent
        })
    });
}

fn bench_probe_resolution(c: &mut Criterion) {
    let w = world();
    let t = SimTime(86_400 * 50);
    let addrs: Vec<std::net::Ipv6Addr> = w
        .networks
        .iter()
        .take(256)
        .filter_map(|n| w.home_addr_at(n.cpe, t))
        .collect();
    c.bench_function("pipeline/resolve_256_cpe", |b| {
        b.iter(|| {
            addrs
                .iter()
                .filter(|a| matches!(w.resolve(**a, t), v6netsim::Resolution::CpeWan { .. }))
                .count()
        })
    });
}

fn bench_alias_filter_ablation(c: &mut Criterion) {
    let w = world();
    let list = AliasList::from_prefixes(w.aliased_prefixes());
    let mut addrs: Vec<std::net::Ipv6Addr> = Vec::new();
    for a in &w.ases {
        for p in &a.alias_48s {
            for i in 0..64u64 {
                addrs.push(p.offset(i as u128 * 977));
            }
        }
        addrs.push(a.router48().offset(1));
    }
    // DESIGN.md ablation 4: the cost of alias filtering vs publishing raw.
    c.bench_function("pipeline/alias_filter_on", |b| {
        b.iter(|| list.filter_addresses(&addrs).len())
    });
    c.bench_function("pipeline/alias_filter_off_baseline", |b| {
        b.iter(|| addrs.iter().map(|a| u128::from(*a) as u64 & 1).sum::<u64>())
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets =
        bench_world_build,
        bench_event_generation,
        bench_scanner,
        bench_probe_resolution,
        bench_alias_filter_ablation
}
criterion_main!(benches);
