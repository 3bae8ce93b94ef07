//! Wire-level integration: the protocol codecs compose correctly across
//! crates — NTP request/response between real client and server state
//! machines, ICMPv6 checksums on the scanner receive path, and Yarrp path
//! reconstruction against the world's actual topology.

use ipv6_hitlists::netsim::{SimTime, World, WorldConfig};
use ipv6_hitlists::ntp::{Mode, NtpClient, NtpPacket, NtpTimestamp, Stratum2Server};
use ipv6_hitlists::scan::{scan, trace, WorldProber, YarrpConfig, Zmap6Config};

fn world() -> World {
    World::build(WorldConfig::tiny(), 314)
}

#[test]
fn ntp_exchange_through_real_packets() {
    let w = world();
    let mut server = Stratum2Server::new(w.vantage_points[3].clone());
    let now = SimTime(100_000);
    let src: std::net::Ipv6Addr = "2a00:7:8000:100::aa".parse().unwrap();

    let t1 = NtpTimestamp::from_sim(now, 111_111_111);
    let (client, request_wire) = NtpClient::start(t1);
    // The request is a well-formed mode-3 NTPv4 packet on the wire.
    let parsed = NtpPacket::decode(&request_wire).unwrap();
    assert_eq!(parsed.mode, Mode::Client);
    assert_eq!(parsed.version, 4);

    let response_wire = server.handle(&request_wire, src, now).unwrap();
    let t4 = NtpTimestamp::from_sim(now, 222_222_222);
    let sync = client.finish(&response_wire, t4).unwrap();
    assert_eq!(sync.server_stratum, 2);
    assert!(sync.delay >= 0.0);
    // The server answered exactly one query; the collector logs its
    // source (the paper's datum).
    assert_eq!(server.served(), 1);
    assert_eq!(server.dropped(), 0);
}

#[test]
fn zmap_finds_every_router_interface() {
    let w = world();
    let prober = WorldProber::new(&w, 2);
    let targets: Vec<std::net::Ipv6Addr> = w
        .ases
        .iter()
        .flat_map(|a| a.router_ids.iter().filter_map(|&r| w.device(r).fixed_addr))
        .collect();
    let result = scan(&prober, &targets, &Zmap6Config::default(), 1);
    assert_eq!(result.stats.sent, targets.len() as u64);
    assert_eq!(result.stats.failed_validation, 0);
    // Routers answer ~98% of the time.
    let rate = result.stats.validated as f64 / targets.len() as f64;
    assert!(rate > 0.9, "router response rate {rate:.2}");
}

#[test]
fn yarrp_paths_agree_with_world_topology() {
    let w = world();
    let vp = &w.vantage_points[0];
    let prober = WorldProber::new(&w, vp.id);
    let t = SimTime(0);
    // Trace to a CPE WAN address (always resolvable, often responsive).
    let net = &w.networks[5];
    let dst = w.home_addr_at(net.cpe, t).unwrap();
    let expected = w.route_hops(vp.as_index, dst, t);
    let cfg = YarrpConfig {
        start: t,
        ttl_max: 12,
        ..Default::default()
    };
    let r = trace(&prober, &[dst], &cfg, 1);
    let path = r.path_to(dst);
    // Every recovered hop must sit at its topological position.
    for (ttl, hop) in &path {
        assert_eq!(
            expected.get(*ttl as usize - 1),
            Some(hop),
            "hop mismatch at ttl {ttl}"
        );
    }
    // Rate-limited TTL-exceeded generation may drop some hops but most
    // of the real path must be recovered.
    assert!(
        path.len() * 10 >= expected.len() * 6,
        "{} of {} hops recovered",
        path.len(),
        expected.len()
    );
}

#[test]
fn backscan_week_has_fresh_addresses() {
    // The backscan runs months after the study window: privacy clients
    // must present different addresses by then (regression guard for the
    // epoch plumbing between netsim time and the collectors).
    let w = world();
    let dev = w
        .devices
        .iter()
        .find(|d| {
            d.strategy == ipv6_hitlists::netsim::addressing::IidStrategy::PrivacyRandom
                && d.home.is_some()
        })
        .unwrap();
    let a_study = w.home_addr_at(dev.id, SimTime(1000)).unwrap();
    let a_backscan = w
        .home_addr_at(dev.id, ipv6_hitlists::netsim::time::BACKSCAN_START)
        .unwrap();
    assert_ne!(a_study, a_backscan);
}
