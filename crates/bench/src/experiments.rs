//! One generator per paper table/figure.
//!
//! Every function takes the completed [`Experiment`] and returns
//! `(human-readable text, paper-vs-measured records)`. Absolute numbers
//! differ from the paper by the world scale factor; the records assert
//! the *shape* — orderings, ratios, directions — that the paper reports.

use v6addr::pattern::AddressClass;
use v6hitlist::analysis::compare::table1 as compute_table1;
use v6hitlist::analysis::entropy_dist::{figure1, figure4};
use v6hitlist::analysis::lifetime::{address_lifetimes, iid_lifetimes};
use v6hitlist::analysis::patterns::figure5;
use v6hitlist::analysis::tracking::{exemplars, TrackClass};
use v6hitlist::report::{fmt_count, render_series, ExperimentRecord};
use v6hitlist::{Experiment, Release48};
use v6netsim::Country;

type Output = (String, Vec<ExperimentRecord>);
type Generator = fn(&Experiment) -> Output;

fn rec(
    exp: &str,
    metric: &str,
    paper: impl Into<String>,
    measured: impl Into<String>,
    ok: bool,
    note: &str,
) -> ExperimentRecord {
    ExperimentRecord::new(exp, metric, paper, measured, ok, note)
}

/// Table 1: dataset comparison.
fn table1(e: &Experiment) -> Output {
    let t = compute_table1(&e.world, &e.ntp, &[&e.hitlist.dataset, &e.caida.dataset]);
    let ntp = &t.rows[0];
    let hl = &t.rows[1];
    let ca = &t.rows[2];
    let addr_ratio_hl = ntp.addresses as f64 / hl.addresses.max(1) as f64;
    let addr_ratio_ca = ntp.addresses as f64 / ca.addresses.max(1) as f64;
    let mut records = vec![
        rec(
            "Table 1",
            "NTP addresses / Hitlist addresses",
            "7.9B / 21.4M ≈ 370x",
            format!(
                "{} / {} ≈ {:.0}x",
                fmt_count(ntp.addresses),
                fmt_count(hl.addresses),
                addr_ratio_hl
            ),
            addr_ratio_hl > 10.0,
            "passive corpus dwarfs active hitlist",
        ),
        rec(
            "Table 1",
            "NTP addresses / CAIDA addresses",
            "681x",
            format!("{addr_ratio_ca:.0}x"),
            addr_ratio_ca > 10.0,
            "",
        ),
        rec(
            "Table 1",
            "ASN counts (NTP < Hitlist, NTP < CAIDA)",
            "9,006 < 18,184; 9,006 < 13,770",
            format!("{} vs {} vs {}", ntp.asns, hl.asns, ca.asns),
            ntp.asns < hl.asns && ntp.asns < ca.asns,
            "traceroute sees transit ASes the pool never does",
        ),
        rec(
            "Table 1",
            "avg addrs per /48 (NTP > Hitlist > CAIDA)",
            "1,098 > 50 > 1",
            format!(
                "{:.1} > {:.1} > {:.1}",
                ntp.avg_addrs_per_48, hl.avg_addrs_per_48, ca.avg_addrs_per_48
            ),
            ntp.avg_addrs_per_48 > hl.avg_addrs_per_48
                && hl.avg_addrs_per_48 >= ca.avg_addrs_per_48,
            "client churn packs /48s",
        ),
        rec(
            "Table 1",
            "NTP ∩ Hitlist is a sliver of Hitlist",
            "1.3% of Hitlist",
            format!(
                "{:.1}% of Hitlist",
                100.0 * hl.common_addresses.unwrap_or(0) as f64 / hl.addresses.max(1) as f64
            ),
            hl.common_addresses.unwrap_or(0) < hl.addresses / 2,
            "datasets are complementary",
        ),
    ];
    // §3: country mix of the corpus.
    let mut by_country: std::collections::HashMap<Country, u64> = std::collections::HashMap::new();
    for o in &e.corpus.observations {
        *by_country
            .entry(e.world.ases[o.as_index as usize].info.country)
            .or_insert(0) += 1;
    }
    let total: u64 = by_country.values().sum();
    let mut top: Vec<(Country, u64)> = by_country.into_iter().collect();
    top.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
    let top5: u64 = top.iter().take(5).map(|&(_, n)| n).sum();
    let top5_share = top5 as f64 / total.max(1) as f64;
    records.push(rec(
        "§3",
        "top-5 client countries' share of corpus",
        "IN+CN+US+BR+ID = 76%",
        format!(
            "{} = {:.0}%",
            top.iter()
                .take(5)
                .map(|(c, _)| c.as_str().to_string())
                .collect::<Vec<_>>()
                .join("+"),
            top5_share * 100.0
        ),
        (0.5..0.95).contains(&top5_share),
        "",
    ));
    let mut text = String::from("== Table 1: dataset comparison ==\n");
    text.push_str(&t.render());
    (text, records)
}

/// Figure 1: IID entropy CDFs per dataset.
fn fig1(e: &Experiment) -> Output {
    let f = figure1(&e.ntp, &[&e.hitlist.dataset, &e.caida.dataset]);
    let median = |name: &str| -> f64 {
        f.datasets
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, c)| c.median())
            .unwrap_or(f64::NAN)
    };
    let (m_ntp, m_hl, m_ca) = (
        median("NTP Pool"),
        median("IPv6 Hitlist"),
        median("CAIDA Routed /48"),
    );
    let records = vec![
        rec(
            "Figure 1",
            "median IID entropy ordering NTP > Hitlist > CAIDA",
            "≈0.8 > ≈0.7 > ≈0",
            format!("{m_ntp:.2} > {m_hl:.2} > {m_ca:.2}"),
            m_ntp > m_hl && m_hl > m_ca,
            "clients vs mixed vs manual infrastructure",
        ),
        rec(
            "Figure 1",
            "CAIDA is almost entirely low-entropy",
            "≈100% below 0.25",
            format!(
                "{:.0}% below 0.25",
                100.0
                    * f.datasets
                        .iter()
                        .find(|(n, _)| n == "CAIDA Routed /48")
                        .map(|(_, c)| c.fraction_at_or_below(0.25))
                        .unwrap_or(0.0)
            ),
            f.datasets
                .iter()
                .find(|(n, _)| n == "CAIDA Routed /48")
                .map(|(_, c)| c.fraction_at_or_below(0.25) > 0.8)
                .unwrap_or(false),
            "",
        ),
    ];
    let mut text = String::from("== Figure 1: IID entropy CDFs ==\n");
    let plot_series: Vec<(&str, Vec<(f64, f64)>)> = f
        .datasets
        .iter()
        .map(|(name, cdf)| (name.as_str(), cdf.series(0.0, 1.0, 61)))
        .collect();
    text.push_str(&v6hitlist::report::ascii_cdf_plot(
        "CDF of normalized IID entropy",
        &plot_series,
        60,
        16,
    ));
    for (name, cdf) in f.datasets.iter().chain(f.intersections.iter()) {
        text.push_str(&render_series(
            &format!("{name} (n={})", cdf.len()),
            &cdf.series(0.0, 1.0, 21),
        ));
    }
    (text, records)
}

/// Figure 2: address and IID lifetimes.
fn fig2(e: &Experiment) -> Output {
    let lt = address_lifetimes(&e.ntp);
    let il = iid_lifetimes(&e.ntp);
    let week = 7.0 * 86_400.0;
    let frac_week = |class: v6addr::EntropyClass| -> f64 {
        il.by_class
            .iter()
            .find(|(c, _)| *c == class)
            .map(|(_, cdf)| cdf.fraction_above(week - 1.0))
            .unwrap_or(0.0)
    };
    let low_w = frac_week(v6addr::EntropyClass::Low);
    let high_w = frac_week(v6addr::EntropyClass::High);
    let records = vec![
        rec(
            "Figure 2a",
            "addresses observed only once",
            ">60%",
            format!("{:.0}%", lt.seen_once * 100.0),
            lt.seen_once > 0.4,
            "ephemeral privacy addresses dominate",
        ),
        rec(
            "Figure 2a",
            "addresses observed ≥ 1 week",
            "1.2%",
            format!("{:.1}%", lt.week_or_longer * 100.0),
            lt.week_or_longer < 0.25 && lt.week_or_longer > 0.0,
            "",
        ),
        rec(
            "Figure 2a",
            "addresses observed ≥ 6 months",
            "0.03%",
            format!("{:.2}%", lt.six_months_or_longer * 100.0),
            lt.six_months_or_longer < lt.week_or_longer,
            "",
        ),
        rec(
            "Figure 2b",
            "low-entropy IIDs persist ≥1 week more than high-entropy",
            "10% vs ≤5%",
            format!("{:.0}% vs {:.0}%", low_w * 100.0, high_w * 100.0),
            low_w > high_w,
            "manual/EUI-64 IIDs are sticky",
        ),
    ];
    let mut text = String::from("== Figure 2a: address lifetime CCDF (days) ==\n");
    let days: Vec<(f64, f64)> = [0.0, 1.0, 7.0, 30.0, 90.0, 180.0]
        .iter()
        .map(|&d| (d, lt.ccdf.fraction_above(d * 86_400.0 - 1.0)))
        .collect();
    text.push_str(&render_series("P(lifetime ≥ x days)", &days));
    text.push_str("\n== Figure 2b: IID lifetime CDF by entropy class ==\n");
    for (class, cdf) in &il.by_class {
        let series: Vec<(f64, f64)> = [0.0, 1.0, 7.0, 30.0, 90.0, 180.0]
            .iter()
            .map(|&d| (d, cdf.fraction_at_or_below(d * 86_400.0)))
            .collect();
        text.push_str(&render_series(
            &format!("{} (n={})", class.label(), cdf.len()),
            &series,
        ));
    }
    (text, records)
}

/// Figure 3 + §4.2 responsiveness: backscanning.
fn fig3(e: &Experiment) -> Output {
    let b = &e.backscan;
    let cr = b.client_response_rate();
    let rr = b.random_response_rate();
    let miss_high = b.miss_entropy.fraction_above(0.75);
    let hit_high = b.hit_entropy.fraction_above(0.75);
    let records = vec![
        rec(
            "Figure 3 / §4.2",
            "NTP clients responsive to backscan",
            "≈2/3",
            format!("{:.0}%", cr * 100.0),
            (0.35..0.95).contains(&cr),
            "passively learned addresses are scannable",
        ),
        rec(
            "Figure 3 / §4.2",
            "random same-/64 targets responsive",
            "3.5%",
            format!("{:.1}%", rr * 100.0),
            rr < cr / 3.0,
            "random hits are aliases, not luck",
        ),
        rec(
            "Figure 3",
            "unresponsive clients skew higher-entropy than responsive",
            "≈70% vs ≈50% above 0.75",
            format!("{:.0}% vs {:.0}%", miss_high * 100.0, hit_high * 100.0),
            miss_high >= hit_high,
            "ephemeral/firewalled clients vs stable responders",
        ),
    ];
    let mut text = String::from("== Figure 3: backscan IID entropy CDFs ==\n");
    let plot: Vec<(&str, Vec<(f64, f64)>)> = [
        ("NTP hit", &b.hit_entropy),
        ("NTP miss", &b.miss_entropy),
        ("Random", &b.random_entropy),
    ]
    .iter()
    .map(|(n, c)| (*n, c.series(0.0, 1.0, 61)))
    .collect();
    text.push_str(&v6hitlist::report::ascii_cdf_plot(
        "CDF of backscanned-client IID entropy",
        &plot,
        60,
        16,
    ));
    for (name, cdf) in [
        ("NTP hit", &b.hit_entropy),
        ("NTP miss", &b.miss_entropy),
        ("Random", &b.random_entropy),
    ] {
        text.push_str(&render_series(
            &format!("{name} (n={})", cdf.len()),
            &cdf.series(0.0, 1.0, 21),
        ));
    }
    text.push_str(&format!(
        "clients probed: {}  responsive: {} ({:.1}%)\nrandom probed: {}  responsive: {} ({:.2}%)\n",
        fmt_count(b.clients_probed),
        fmt_count(b.clients_responsive),
        cr * 100.0,
        fmt_count(b.random_probed),
        fmt_count(b.random_responsive),
        rr * 100.0
    ));
    (text, records)
}

/// Figure 4: top-5 AS entropy CDFs (full study and one day).
fn fig4(e: &Experiment) -> Output {
    let end = e.corpus.window.as_secs() as u32;
    let full = figure4(&e.world, &e.corpus, 0, end, 5);
    let day = 157u32; // 1 July 2022 in study days
    let one_day = figure4(&e.world, &e.corpus, day * 86_400, (day + 1) * 86_400, 5);
    let jio = full.rows.iter().find(|r| r.name == "Reliance Jio");
    let tsel = full
        .rows
        .iter()
        .find(|r| r.name == "Telekomunikasi Selular");
    let others_median: Vec<f64> = full
        .rows
        .iter()
        .filter(|r| r.name != "Reliance Jio" && r.name != "Telekomunikasi Selular")
        .map(|r| r.median_entropy)
        .collect();
    let max_other = others_median.iter().cloned().fold(0.0f64, f64::max);
    let mut records = Vec::new();
    if let Some(j) = jio {
        records.push(rec(
            "Figure 4a",
            "Reliance Jio median entropy below peers (low-4-byte pattern)",
            "≈1/3 of Jio below 0.6",
            format!(
                "median {:.2} vs max peer {:.2}",
                j.median_entropy, max_other
            ),
            j.median_entropy < max_other,
            "two coexisting addressing patterns",
        ));
    }
    if let Some(t) = tsel {
        records.push(rec(
            "Figure 4a",
            "Telkomsel skews low-entropy",
            "much lower median",
            format!(
                "median {:.2}, low fraction {:.0}%",
                t.median_entropy,
                t.low_fraction * 100.0
            ),
            t.median_entropy < 0.75,
            "",
        ));
    }
    records.push(rec(
        "Figure 4",
        "top-5 ASes are mobile/eyeball client networks",
        "T-Mobile, ChinaNet, China Mobile, Jio, Telkomsel",
        full.rows
            .iter()
            .map(|r| r.name.clone())
            .collect::<Vec<_>>()
            .join(", "),
        !full.rows.is_empty(),
        "",
    ));
    let mut text = String::from("== Figure 4a: top-5 AS entropy CDFs (full study) ==\n");
    for (name, cdf) in &full.cdfs {
        text.push_str(&render_series(
            &format!("{name} (n={})", cdf.len()),
            &cdf.series(0.0, 1.0, 21),
        ));
    }
    text.push_str("\n== Figure 4b: top-5 AS entropy CDFs (study day 157) ==\n");
    for (name, cdf) in &one_day.cdfs {
        text.push_str(&render_series(
            &format!("{name} (n={})", cdf.len()),
            &cdf.series(0.0, 1.0, 21),
        ));
    }
    (text, records)
}

/// Figure 5: seven address classes, NTP vs Hitlist, one day.
fn fig5(e: &Experiment) -> Output {
    let day_slice = e.one_day_slice(157);
    let f = figure5(
        &e.world,
        &[&day_slice, &e.hitlist.dataset],
        &e.config.ipv4_accept,
    );
    let ntp = &f.breakdowns[0];
    let hl = &f.breakdowns[1];
    let ntp_high = ntp.fraction(AddressClass::HighEntropy);
    let ntp_med = ntp.fraction(AddressClass::MediumEntropy);
    let lb_ratio =
        hl.fraction(AddressClass::LowByte) / ntp.fraction(AddressClass::LowByte).max(1e-9);
    let records = vec![
        rec(
            "Figure 5",
            "NTP one-day slice is mostly high entropy",
            "≈2/3 high + 21% medium",
            format!(
                "{:.0}% high + {:.0}% medium",
                ntp_high * 100.0,
                ntp_med * 100.0
            ),
            ntp_high > 0.4,
            "",
        ),
        rec(
            "Figure 5",
            "Hitlist low-byte share ≫ NTP low-byte share",
            "≈33x",
            format!("{lb_ratio:.0}x"),
            lb_ratio > 3.0,
            "hitlists over-represent operator-assigned addresses",
        ),
        rec(
            "Figure 5",
            "Hitlist carries more IPv4-mapped than NTP",
            "3% vs 0.00002%",
            format!(
                "{:.2}% vs {:.4}%",
                hl.fraction(AddressClass::Ipv4Mapped) * 100.0,
                ntp.fraction(AddressClass::Ipv4Mapped) * 100.0
            ),
            hl.fraction(AddressClass::Ipv4Mapped) >= ntp.fraction(AddressClass::Ipv4Mapped),
            "",
        ),
    ];
    let mut text = String::from("== Figure 5: address classes (study day 157) ==\n");
    text.push_str(&f.render());
    (text, records)
}

/// Table 2 + §5.1: EUI-64 prevalence and manufacturers.
fn table2(e: &Experiment) -> Output {
    let t = &e.tracking;
    let frac = t.stats.fraction();
    let unlisted_share = t
        .manufacturers
        .first()
        .filter(|m| m.manufacturer == "Unlisted")
        .map(|m| m.macs as f64 / t.stats.unique_macs.max(1) as f64)
        .unwrap_or(0.0);
    let records = vec![
        rec(
            "§5.1",
            "EUI-64 share of corpus",
            "3%",
            format!("{:.1}%", frac * 100.0),
            (0.005..0.25).contains(&frac),
            "",
        ),
        rec(
            "§5.1",
            "observed EUI-64 ≫ expected-if-random (N/2^16)",
            "238M vs <121k",
            format!(
                "{} vs {:.0}",
                fmt_count(t.stats.eui64_addresses),
                t.stats.expected_random
            ),
            t.stats.eui64_addresses as f64 > 20.0 * t.stats.expected_random.max(1.0),
            "the EUI-64 population is real",
        ),
        rec(
            "Table 2",
            "\"Unlisted\" is the top manufacturer",
            "73.9% of MACs",
            format!("{:.0}% of MACs", unlisted_share * 100.0),
            t.manufacturers
                .first()
                .map(|m| m.manufacturer == "Unlisted")
                .unwrap_or(false),
            "unregistered OUI space dominates",
        ),
    ];
    let mut text = String::from("== Table 2: EUI-64 embedded-MAC manufacturers ==\n");
    text.push_str(&format!(
        "corpus addresses: {}   EUI-64: {} ({:.2}%)   unique MACs: {}\n\n",
        fmt_count(t.stats.corpus_addresses),
        fmt_count(t.stats.eui64_addresses),
        frac * 100.0,
        fmt_count(t.stats.unique_macs)
    ));
    for m in t.manufacturers.iter().take(10) {
        text.push_str(&format!(
            "{:<48} {:>10}\n",
            m.manufacturer,
            fmt_count(m.macs)
        ));
    }
    (text, records)
}

/// Figure 6: EUI-64 IID lifetimes and /64 spread.
fn fig6(e: &Experiment) -> Output {
    let t = &e.tracking;
    let multi_frac = t.multi_prefix_macs as f64 / t.stats.unique_macs.max(1) as f64;
    let all_iids = iid_lifetimes(&e.ntp);
    let all_once: f64 = {
        let zero = all_iids.iids.iter().filter(|i| i.lifetime() == 0).count();
        zero as f64 / all_iids.iids.len().max(1) as f64
    };
    let eui_once = t.lifetime_cdf.fraction_at_or_below(0.0);
    let records = vec![
        rec(
            "Figure 6a",
            "EUI-64 IIDs less likely to be one-off than IIDs overall",
            "≈55% vs 60–70%",
            format!("{:.0}% vs {:.0}%", eui_once * 100.0, all_once * 100.0),
            eui_once < all_once,
            "EUI-64 persists across prefixes",
        ),
        rec(
            "Figure 6b / §5.2",
            "MACs appearing in ≥2 /64s",
            "8.7%",
            format!("{:.1}%", multi_frac * 100.0),
            multi_frac > 0.02,
            "the trackable population",
        ),
    ];
    let mut text = String::from("== Figure 6a: EUI-64 IID lifetime CDF (days) ==\n");
    let series: Vec<(f64, f64)> = [0.0, 1.0, 7.0, 30.0, 90.0, 180.0]
        .iter()
        .map(|&d| (d, t.lifetime_cdf.fraction_at_or_below(d * 86_400.0)))
        .collect();
    text.push_str(&render_series("P(lifetime ≤ x days)", &series));
    text.push_str("\n== Figure 6b: CCDF of /64s per EUI-64 IID ==\n");
    let series: Vec<(f64, f64)> = [1.0, 2.0, 5.0, 10.0, 50.0, 100.0]
        .iter()
        .map(|&k| (k, t.prefix_count_cdf.fraction_above(k - 0.5)))
        .collect();
    text.push_str(&render_series("P(#/64s ≥ x)", &series));
    (text, records)
}

/// Figure 7 + §5.2: tracking taxonomy and exemplars.
fn fig7(e: &Experiment) -> Output {
    let t = &e.tracking;
    let total = t.multi_prefix_macs.max(1) as f64;
    let share = |c: TrackClass| -> f64 {
        t.class_counts
            .iter()
            .find(|&&(k, _)| k == c)
            .map(|&(_, n)| n as f64 / total)
            .unwrap_or(0.0)
    };
    let records = vec![
        rec(
            "§5.2",
            "mostly-static is the dominant class",
            "86%",
            format!("{:.0}%", share(TrackClass::MostlyStatic) * 100.0),
            share(TrackClass::MostlyStatic)
                >= share(TrackClass::UserMovement).max(share(TrackClass::MacReuse)),
            "",
        ),
        rec(
            "§5.2",
            "prefix reassignment is the top movement explanation",
            "8%",
            format!("{:.0}%", share(TrackClass::PrefixReassignment) * 100.0),
            share(TrackClass::PrefixReassignment) > share(TrackClass::MacReuse),
            "ISP rotation policy, not user motion",
        ),
        rec(
            "§5.2",
            "MAC reuse is rare",
            "0.01%",
            format!("{:.2}%", share(TrackClass::MacReuse) * 100.0),
            share(TrackClass::MacReuse) < 0.10,
            "",
        ),
        rec(
            "§5.2",
            "user movement exists but is a small fraction",
            "0.44%",
            format!("{:.2}%", share(TrackClass::UserMovement) * 100.0),
            share(TrackClass::UserMovement) > 0.0 && share(TrackClass::UserMovement) < 0.15,
            "small percentage, large absolute exposure",
        ),
    ];
    let mut text = String::from("== §5.2: tracking classification of multi-/64 MACs ==\n");
    for &(class, n) in &t.class_counts {
        text.push_str(&format!(
            "{:<28} {:>8} ({:.2}%)\n",
            class.label(),
            fmt_count(n),
            n as f64 / total * 100.0
        ));
    }
    text.push_str("\n== Figure 7: exemplar tracking timelines ==\n");
    for ex in exemplars(&e.world, &e.tracking) {
        text.push_str(&format!("-- {} ({:?}) --\n", ex.mac, ex.class));
        for (day, prefix_idx, as_name) in ex.timeline.iter().take(18) {
            text.push_str(&format!("  day {day:>3}  /64 #{prefix_idx:<4} {as_name}\n"));
        }
        if ex.timeline.len() > 18 {
            text.push_str(&format!("  … {} more samples\n", ex.timeline.len() - 18));
        }
    }
    (text, records)
}

/// §4.2: alias discovery cross-checks.
fn aliases(e: &Experiment) -> Output {
    let f = &e.alias_findings;
    let total = (f.known_to_hitlist + f.new_aliased).max(1);
    let records = vec![
        rec(
            "§4.2",
            "backscan finds aliased /64s unknown to the Hitlist",
            "46,512 new (2% of discoveries)",
            format!(
                "{} new of {} ({:.0}%)",
                fmt_count(f.new_aliased),
                fmt_count(total),
                f.new_aliased as f64 / total as f64 * 100.0
            ),
            f.new_aliased > 0,
            "NTP-driven alias discovery is complementary",
        ),
        rec(
            "§4.2",
            "NTP clients inside aliased /64s invisible to the Hitlist",
            "3,841,751 NTP vs 23 Hitlist",
            format!(
                "{} NTP vs {} Hitlist",
                fmt_count(f.ntp_clients_in_aliased),
                fmt_count(f.hitlist_clients_in_aliased)
            ),
            f.ntp_clients_in_aliased > f.hitlist_clients_in_aliased,
            "active measurement cannot tell hosts from aliases there",
        ),
        rec(
            "§4.2",
            "aliased NTP clients concentrated in few ASes",
            "36 ASes",
            format!("{} ASes", f.client_ases),
            f.client_ases < 60,
            "",
        ),
    ];
    let text = format!(
        "== §4.2: aliased networks ==\nbackscan-inferred aliased /64s: {}\n  known to Hitlist alias list: {}\n  new: {}\nNTP clients in aliased /64s: {} (from {} ASes)\nHitlist addresses in those /64s: {}\n",
        fmt_count(total),
        fmt_count(f.known_to_hitlist),
        fmt_count(f.new_aliased),
        fmt_count(f.ntp_clients_in_aliased),
        f.client_ases,
        fmt_count(f.hitlist_clients_in_aliased),
    );
    (text, records)
}

/// §5.3: the geolocation attack.
fn geoloc(e: &Experiment) -> Output {
    let g = &e.geolocation;
    let hist = g.country_histogram(&e.world);
    let total = g.geolocated.len().max(1) as f64;
    let de_share = hist
        .iter()
        .find(|(c, _)| *c == Country::new("DE"))
        .map(|&(_, n)| n as f64 / total)
        .unwrap_or(0.0);
    let avm = g.vendor_share(&e.world, "AVM GmbH");
    let median_err = g.validate(&e.world);
    let records = vec![
        rec(
            "§5.3",
            "devices geolocated via EUI-64→BSSID join",
            "225,354",
            fmt_count(g.geolocated.len() as u64),
            !g.geolocated.is_empty(),
            "scaled world",
        ),
        rec(
            "§5.3",
            "Germany dominates geolocations",
            "75%",
            format!("{:.0}%", de_share * 100.0),
            hist.first()
                .map(|(c, _)| *c == Country::new("DE"))
                .unwrap_or(false),
            "AVM EUI-64 WAN addresses + dense wardriving coverage",
        ),
        rec(
            "§5.3",
            "AVM share of geolocated devices",
            "80%",
            format!("{:.0}%", avm * 100.0),
            avm > 0.3,
            "",
        ),
        rec(
            "§5.3",
            "geolocation is street-level accurate (vs ground truth)",
            "validated against a US ISP",
            median_err
                .map(|e| format!("median error {e:.1} km"))
                .unwrap_or_else(|| "n/a".into()),
            median_err.map(|e| e < 50.0).unwrap_or(false),
            "simulator ground truth",
        ),
    ];
    let mut text = String::from("== §5.3: EUI-64 geolocation attack ==\n");
    text.push_str(&format!(
        "input MACs: {}   OUIs with inferred offsets: {}   geolocated: {}\n",
        fmt_count(g.input_macs),
        g.offsets.len(),
        fmt_count(g.geolocated.len() as u64)
    ));
    text.push_str("top countries:\n");
    for (c, n) in hist.iter().take(5) {
        text.push_str(&format!(
            "  {c}  {:>8} ({:.0}%)\n",
            fmt_count(*n),
            *n as f64 / total * 100.0
        ));
    }
    // Error distribution vs ground truth (simulation-only luxury).
    let err = g.error_cdf(&e.world);
    if !err.is_empty() {
        text.push_str("geolocation error vs ground truth (km):\n");
        for q in [0.25, 0.5, 0.75, 0.95] {
            text.push_str(&format!(
                "  p{:02.0}: {:>8.1}\n",
                q * 100.0,
                err.quantile(q).unwrap_or(f64::NAN)
            ));
        }
    }
    (text, records)
}

/// §3/§6: the ethical /48 release.
fn release(e: &Experiment) -> Output {
    let r = Release48::from_addr_set("NTP Pool corpus", &e.ntp.addr_set());
    let records = vec![rec(
        "§3 / §6",
        "public release is /48-truncated (privacy invariant)",
        "dataset released at /48 only",
        format!(
            "{} /48s from {} addresses, invariant {}",
            fmt_count(r.len() as u64),
            fmt_count(r.source_addresses),
            if r.verify_privacy_invariant() {
                "holds"
            } else {
                "VIOLATED"
            }
        ),
        r.verify_privacy_invariant(),
        "",
    )];
    let text = format!(
        "== §3/§6: /48-truncated release ==\n{} active /48s (from {} addresses); first 5:\n{}",
        fmt_count(r.len() as u64),
        fmt_count(r.source_addresses),
        r.prefixes
            .iter()
            .take(5)
            .map(|p| format!("  {p}\n"))
            .collect::<String>()
    );
    (text, records)
}

/// Extensions beyond the paper's figures: the §4.1 ASdb composition,
/// rotation-policy inference, TGA training-data evaluation, and outage
/// detection — each an application or claim the paper raises in prose.
fn extensions(e: &Experiment) -> Output {
    use v6hitlist::analysis::asdb::subtype_breakdown;
    use v6hitlist::analysis::outage::{detect_outages, OutageDetectorConfig};
    use v6hitlist::analysis::rotation::{infer_rotation_periods, render as render_rotation};
    use v6hitlist::analysis::tga_eval::{compare_training_corpora, render as render_tga};
    use v6netsim::SimTime;

    let mut text = String::new();
    let mut records = Vec::new();

    // §4.1: ASdb "Phone Provider" composition.
    let ntp_types = subtype_breakdown(&e.world, &e.ntp);
    let hl_types = subtype_breakdown(&e.world, &e.hitlist.dataset);
    let ntp_phone = ntp_types.fraction("Phone Provider");
    let hl_phone = hl_types.fraction("Phone Provider");
    text.push_str("== §4.1: ASdb subtype composition ==\n");
    text.push_str(&ntp_types.render());
    text.push_str(&hl_types.render());
    records.push(rec(
        "§4.1",
        "Phone-Provider share: NTP corpus ≫ Hitlist",
        "14% vs 2%",
        format!("{:.0}% vs {:.0}%", ntp_phone * 100.0, hl_phone * 100.0),
        ntp_phone > hl_phone,
        "the passive corpus is mobile-client-rich",
    ));

    // Extension: rotation-policy inference from EUI-64 tracks.
    let rot = infer_rotation_periods(&e.world, &e.tracking, 8);
    text.push_str("\n== Extension: inferred prefix-rotation policies ==\n");
    text.push_str(&render_rotation(&rot));
    let daily_ok = rot
        .iter()
        .filter(|r| r.truth_days == Some(1.0))
        .filter(|r| r.is_accurate())
        .count();
    let daily_total = rot.iter().filter(|r| r.truth_days == Some(1.0)).count();
    records.push(rec(
        "Ext (Follow the Scent)",
        "daily prefix rotation inferred from EUI-64 tracks",
        "rotation periods recoverable passively",
        format!("{daily_ok}/{daily_total} daily-rotating ASes within 2x"),
        daily_total == 0 || daily_ok * 2 >= daily_total,
        "",
    ));

    // Extension: TGA training-data value.
    let t_eval = SimTime(e.corpus.window.as_secs() + 86_400);
    let evals = compare_training_corpora(&e.world, &[&e.hitlist.dataset, &e.ntp], 4_096, 2, t_eval);
    text.push_str("\n== Extension: TGA training-corpus evaluation ==\n");
    text.push_str(&render_tga(&evals));
    records.push(rec(
        "Ext (Target Acquired?)",
        "hitlist-trained TGA hit rate > NTP-corpus-trained (both families)",
        "TGAs biased toward training data (§1)",
        format!(
            "pattern {:.1}% vs {:.1}%; range {:.1}% vs {:.1}%",
            evals[0].hit_rate() * 100.0,
            evals[2].hit_rate() * 100.0,
            evals[1].hit_rate() * 100.0,
            evals[3].hit_rate() * 100.0
        ),
        evals[0].hit_rate() >= evals[2].hit_rate(),
        "random ephemeral seeds do not generalize",
    ));

    // Extension: capture-recapture population estimation.
    {
        use v6hitlist::analysis::population::{estimate_eui64_population, true_eui64_population};
        let month = 30 * 86_400u32;
        let est = estimate_eui64_population(&e.corpus, (0, month), (3 * month, 4 * month));
        let truth = true_eui64_population(&e.world);
        text.push_str(&format!(
            "\n== Extension: EUI-64 population (capture-recapture) ==\nn1={} n2={} recaptured={} estimate={:.0} truth={}\n",
            est.first_capture, est.second_capture, est.recaptured, est.estimate, truth
        ));
        let ok = est.recaptured > 0
            && est.estimate > truth as f64 * 0.5
            && est.estimate < truth as f64 * 2.0;
        records.push(rec(
            "Ext (completeness)",
            "Chapman estimate of EUI-64 device population vs ground truth",
            "hitlist completeness is measurable in simulation",
            format!("{:.0} vs {}", est.estimate, truth),
            ok,
            "stable identifiers make recapture meaningful; addresses don't",
        ));
    }

    // Extension: crowdsourced collection comparison (§2.2).
    {
        use v6hitlist::collect::crowdsource::{collect_crowdsource, CrowdsourceConfig};
        let cs = collect_crowdsource(&e.world, &CrowdsourceConfig::default());
        let cs_cdf = v6hitlist::analysis::entropy_dist::entropy_cdf(&cs);
        text.push_str(&format!(
            "\n== Extension: crowdsourced panel (§2.2) ==\n{} addresses (NTP corpus: {}), median entropy {:.2}\n",
            cs.len(),
            e.ntp.len(),
            cs_cdf.median().unwrap_or(0.0)
        ));
        records.push(rec(
            "§2.2",
            "crowdsourcing sees clients but at tiny scale",
            "\"small numbers of IPv6 client addresses\" [24, 33]",
            format!("{} vs {} NTP", cs.len(), fmt_count(e.ntp.len() as u64)),
            cs.len() * 100 < e.ntp.len() && cs_cdf.median().unwrap_or(0.0) > 0.5,
            "",
        ));
    }

    // Extension: outage detection against the injected ground truth.
    let found = detect_outages(&e.world, &e.corpus, &OutageDetectorConfig::default());
    text.push_str("\n== Extension: outage detection ==\n");
    for o in &found {
        text.push_str(&format!(
            "  {}: days {}..{} (baseline {} queries/day)\n",
            o.as_name,
            o.start_day,
            o.start_day + o.duration_days,
            o.baseline
        ));
    }
    let hit = found
        .iter()
        .any(|o| o.as_name == "ChinaNet" && o.start_day.abs_diff(120) <= 1);
    records.push(rec(
        "Ext (outage detection)",
        "injected 3-day ChinaNet outage (day 120) detected",
        "passive corpora double as outage sensors (§1)",
        format!(
            "{} outages flagged, ChinaNet@120 {}",
            found.len(),
            if hit { "found" } else { "MISSED" }
        ),
        hit && found.len() <= 4,
        "",
    ));

    (text, records)
}

/// Every generator by name, in paper order.
pub const GENERATORS: [(&str, Generator); 13] = [
    ("table1", table1),
    ("fig1", fig1),
    ("fig2", fig2),
    ("fig3", fig3),
    ("fig4", fig4),
    ("fig5", fig5),
    ("table2", table2),
    ("fig6", fig6),
    ("fig7", fig7),
    ("aliases", aliases),
    ("geoloc", geoloc),
    ("release", release),
    ("extensions", extensions),
];

/// Runs every generator in paper order.
pub fn all(e: &Experiment) -> Vec<(&'static str, Output)> {
    GENERATORS
        .iter()
        .map(|&(name, run)| (name, run(e)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use v6hitlist::ExperimentConfig;

    #[test]
    fn all_generators_run_on_tiny_experiment() {
        let e = Experiment::run(ExperimentConfig::tiny(7));
        let outputs = all(&e);
        assert_eq!(outputs.len(), 13);
        for (name, (text, records)) in &outputs {
            assert!(!text.is_empty(), "{name} produced no text");
            assert!(!records.is_empty(), "{name} produced no records");
        }
    }
}
