//! Passive collection: the NTP corpus (§3).
//!
//! Wires the simulator's contact stream through the *real* protocol path:
//! each client encodes a mode-3 NTP request, the pool's geo-DNS picks one
//! of the 27 stratum-2 servers, the server decodes and answers it, and the
//! client validates the answer. The collector logs what the paper's
//! servers logged: `(time, source address)` per query, per server.

use v6chaos::{Chaos, Fault, NoChaos};
use v6netsim::{NtpEventStream, SimDuration, SimTime, World};
use v6ntp::{NtpClient, NtpPool, NtpTimestamp, Stratum2Server};

use crate::dataset::{Dataset, Observation};

/// Cached `collect.*` handles in the global `v6obs` registry.
///
/// The counters are data-derived (what was collected, not how it was
/// scheduled) and thread-count invariant; the shard-latency histogram is
/// a timing observation whose sample *count* also varies with the slice
/// split, so only the counters participate in the invariance contract.
struct CollectMetrics {
    observations: v6obs::Counter,
    protocol_failures: v6obs::Counter,
    days: v6obs::Counter,
    lost_days: v6obs::Counter,
    shard_latency: v6obs::Histogram,
}

fn collect_metrics() -> &'static CollectMetrics {
    static METRICS: std::sync::OnceLock<CollectMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| CollectMetrics {
        observations: v6obs::counter("collect.observations"),
        protocol_failures: v6obs::counter("collect.protocol_failures"),
        days: v6obs::counter("collect.days"),
        lost_days: v6obs::counter("collect.lost_days"),
        shard_latency: v6obs::histogram("collect.shard_latency"),
    })
}

/// Record one finished corpus into the `collect.*` counters.
fn record_corpus(corpus: &NtpCorpus, days_total: u64) {
    let m = collect_metrics();
    m.observations.add(corpus.observations.len() as u64);
    m.protocol_failures.add(corpus.protocol_failures);
    m.days.add(days_total - corpus.lost_days.len() as u64);
    m.lost_days.add(corpus.lost_days.len() as u64);
}

/// One shard's worth of collection: the observations of a contiguous
/// run of days, plus the bookkeeping needed to merge shards back into the
/// exact sequential order.
struct CollectShard {
    observations: Vec<NtpObservation>,
    /// Run-length encoding of `observations` by device: each device that
    /// produced events in this slice appears once, in device-index
    /// order, with its contiguous observation count.
    runs: Vec<(u32, u32)>,
    served_per_vp: Vec<u64>,
    protocol_failures: u64,
    initial_capacity: usize,
}

/// One compact corpus observation (32 bytes: the `u128` aligns it to 16;
/// corpora run to millions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NtpObservation {
    /// The source address bits.
    pub addr: u128,
    /// Seconds since study start.
    pub t: u32,
    /// Dense index of the origin AS.
    pub as_index: u16,
    /// Which of the 27 servers logged the query.
    pub server: u16,
}

impl NtpObservation {
    /// The observation as a [`Dataset`] observation.
    pub fn to_observation(self) -> Observation {
        Observation {
            addr: std::net::Ipv6Addr::from(self.addr),
            t: SimTime(self.t as u64),
        }
    }
}

/// The collected passive corpus.
#[derive(Debug)]
pub struct NtpCorpus {
    /// All observations, device-major order.
    pub observations: Vec<NtpObservation>,
    /// Queries served per vantage point.
    pub served_per_vp: Vec<u64>,
    /// Requests that failed protocol validation (should be zero — our
    /// clients are conformant; nonzero means a codec bug).
    pub protocol_failures: u64,
    /// Collection window start.
    pub start: SimTime,
    /// Collection window length.
    pub window: SimDuration,
    /// The query-volume estimate the observation buffer was pre-sized to
    /// (see [`v6netsim::expected_query_volume`]).
    pub expected_queries: u64,
    /// `observations.capacity()` right after pre-sizing; equal to the
    /// final capacity iff collection never reallocated.
    pub initial_capacity: usize,
    /// Days (study-day indices) whose collection failed permanently
    /// under fault injection and were skipped after backfill. Always
    /// empty under [`NoChaos`]; sorted ascending.
    pub lost_days: Vec<u64>,
}

impl NtpCorpus {
    /// Collects the corpus over `[start, start+window)`.
    ///
    /// Every query runs the full wire path (geo-DNS select → encode →
    /// server decode/validate → response encode → client decode/validate)
    /// and is logged as an [`NtpObservation`].
    pub fn collect(world: &World, start: SimTime, window: SimDuration) -> Self {
        Self::collect_with(world, start, window, v6par::threads(), &NoChaos)
    }

    /// Collects over the paper's full study window.
    pub fn collect_study(world: &World) -> Self {
        Self::collect(world, SimTime::START, v6netsim::time::STUDY_DURATION)
    }

    /// The chaos site name one collection day maps to.
    pub fn day_site(day: u64) -> String {
        format!("collect.day.{day}")
    }

    /// [`NtpCorpus::collect`] sharded by time-slice across `threads`
    /// workers, under the fault decisions of `chaos`.
    ///
    /// The day range is cut into contiguous slices (one at `threads <= 1`,
    /// else `threads * 4`); each slice runs the full wire path against
    /// its own [`Stratum2Server`] replicas, which hold only their
    /// `served`/`dropped` counters (a response depends only on the request,
    /// so replicas serve identically; the slice's counters sum into
    /// [`NtpCorpus::served_per_vp`]). Geo-DNS candidates come from one
    /// [`NtpPool`] built per call, which resolves them once per country,
    /// and each packet is encoded into a 48-byte array, so selection and
    /// the exchange allocate nothing per query. Inside a slice every day
    /// consults its `collect.day.<d>` site once: a failure skips the day,
    /// splitting the slice into the runs of clean days around it, and a
    /// stall sleeps before the run. Skipped days are backfilled one by one
    /// at attempts `1..=`[`Chaos::retry_budget`]; days that still fail
    /// (permanent scripts) end up in [`NtpCorpus::lost_days`] and
    /// contribute no observations.
    ///
    /// Shards merge back in start-day order into the device-major stream
    /// via per-device run-lengths, so `observations` is bit-identical to
    /// the sequential collection at any thread count, and under any plan
    /// whose faults are all transient. Faults decide only *whether* a
    /// day's collection runs, never what it observes.
    pub fn collect_with(
        world: &World,
        start: SimTime,
        window: SimDuration,
        threads: usize,
        chaos: &dyn Chaos,
    ) -> Self {
        let (start_day, end_day) = v6netsim::day_range(start, window);
        let days = (end_day - start_day) as usize;
        let expected = v6netsim::expected_query_volume(world, start, window);
        let pool = NtpPool::new(
            world.vantage_points.clone(),
            v6netsim::CountryRegistry::builtin(),
        );
        // `split_ranges` caps the slice count at the day count.
        let slices = v6par::split_ranges(days, if threads <= 1 { 1 } else { threads * 4 });
        // Cost hint: one study day of simulated queries is ~1 ms, far
        // above the cutoff — sharded collection always parallelizes
        // once `threads > 1`, sized by days-per-slice.
        let slice_cost =
            v6par::Cost::per_item_ns(1_000_000 * (days / slices.len().max(1)).max(1) as u64)
                .labeled("collect.shard");
        let collect_run = |d0: u64, d1: u64| {
            let capacity = (expected as usize * (d1 - d0) as usize) / days + 64;
            (d0, collect_days(world, &pool, d0, d1, capacity))
        };
        let passes = v6par::par_map_cost(threads.max(1), &slices, slice_cost, |_, r| {
            let (d0, d1) = (start_day + r.start as u64, start_day + r.end as u64);
            let (mut shards, mut skipped) = (Vec::new(), Vec::new());
            let mut run_start = d0;
            for day in d0..d1 {
                if !day_clears(chaos, day, 0) {
                    if run_start < day {
                        shards.push(collect_run(run_start, day));
                    }
                    skipped.push(day);
                    run_start = day + 1;
                }
            }
            if run_start < d1 {
                shards.push(collect_run(run_start, d1));
            }
            (shards, skipped)
        });

        // Backfill: retry each skipped day until it clears or the retry
        // budget is exhausted.
        let mut shards = Vec::new();
        let mut lost_days = Vec::new();
        for (slice_shards, skipped) in passes {
            shards.extend(slice_shards);
            for day in skipped {
                if (1..=chaos.retry_budget()).any(|attempt| day_clears(chaos, day, attempt)) {
                    shards.push(collect_run(day, day + 1));
                } else {
                    lost_days.push(day);
                }
            }
        }

        let mut served_per_vp = vec![0u64; world.vantage_points.len()];
        for (_, shard) in &shards {
            for (vp, &n) in shard.served_per_vp.iter().enumerate() {
                served_per_vp[vp] += n;
            }
        }
        let protocol_failures = shards.iter().map(|(_, s)| s.protocol_failures).sum();

        // Order-preserving merge: the sequential stream is device-major
        // (all of device 0's days, then device 1's, …), so walk devices
        // in index order, appending each shard's run for that device in
        // start-day order. A lone shard already is that stream.
        shards.sort_unstable_by_key(|&(day, _)| day);
        let (observations, initial_capacity) = match <[_; 1]>::try_from(shards) {
            Ok([(_, only)]) => (only.observations, only.initial_capacity),
            Err(shards) => {
                let total: usize = shards.iter().map(|(_, s)| s.observations.len()).sum();
                let mut observations: Vec<NtpObservation> =
                    Vec::with_capacity((expected as usize).max(total));
                let initial_capacity = observations.capacity();
                let mut cursors = vec![(0usize, 0usize); shards.len()]; // (run, obs) per shard
                for dev in 0..world.devices.len() as u32 {
                    for ((_, shard), (run, obs)) in shards.iter().zip(&mut cursors) {
                        if *run < shard.runs.len() && shard.runs[*run].0 == dev {
                            let n = shard.runs[*run].1 as usize;
                            observations.extend_from_slice(&shard.observations[*obs..*obs + n]);
                            *obs += n;
                            *run += 1;
                        }
                    }
                }
                debug_assert_eq!(observations.len(), total, "merge lost observations");
                (observations, initial_capacity)
            }
        };
        debug_assert_eq!(served_per_vp.iter().sum::<u64>(), observations.len() as u64);

        let corpus = NtpCorpus {
            observations,
            served_per_vp,
            protocol_failures,
            start,
            window,
            expected_queries: expected,
            initial_capacity,
            lost_days,
        };
        record_corpus(&corpus, days as u64);
        corpus
    }

    /// The corpus as a [`Dataset`] named "NTP Pool".
    pub fn dataset(&self) -> Dataset {
        Dataset::from_observations(
            "NTP Pool",
            self.observations.iter().map(|o| o.to_observation()),
        )
    }

    /// Number of raw queries logged.
    pub fn len(&self) -> usize {
        self.observations.len()
    }

    /// True when nothing was collected.
    pub fn is_empty(&self) -> bool {
        self.observations.is_empty()
    }
}

/// The sequential collection kernel over day indices `[d0, d1)`.
fn collect_days(world: &World, pool: &NtpPool, d0: u64, d1: u64, capacity: usize) -> CollectShard {
    let _span = v6obs::span("collect.days");
    let shard_start = std::time::Instant::now();
    let mut servers: Vec<Stratum2Server> = world
        .vantage_points
        .iter()
        .map(|vp| Stratum2Server::new(vp.clone()))
        .collect();
    let mut observations: Vec<NtpObservation> = Vec::with_capacity(capacity);
    let initial_capacity = observations.capacity();
    let mut runs: Vec<(u32, u32)> = Vec::new();
    let mut protocol_failures = 0u64;

    for ev in NtpEventStream::days(world, d0, d1) {
        let Some(vp) = pool.select(ev.country, ev.device.0 as u64, ev.t) else {
            continue;
        };
        let server = &mut servers[vp.id as usize];
        let t1 = NtpTimestamp::from_sim(ev.t, 0);
        let (client, request) = NtpClient::start(t1);
        match server.handle(&request, ev.src, ev.t) {
            Ok(response) => {
                let t4 = NtpTimestamp::from_sim(ev.t, 120_000_000);
                if client.finish(&response, t4).is_err() {
                    protocol_failures += 1;
                }
            }
            Err(_) => {
                protocol_failures += 1;
                continue;
            }
        }
        match runs.last_mut() {
            Some(run) if run.0 == ev.device.0 => run.1 += 1,
            _ => runs.push((ev.device.0, 1)),
        }
        observations.push(NtpObservation {
            addr: u128::from(ev.src),
            t: ev.t.as_secs() as u32,
            as_index: ev.as_index,
            server: vp.id,
        });
    }

    // The servers' counters must agree with what we recorded.
    let served_per_vp: Vec<u64> = servers.iter().map(|s| s.served()).collect();
    debug_assert_eq!(served_per_vp.iter().sum::<u64>(), observations.len() as u64);
    collect_metrics()
        .shard_latency
        .record_duration(shard_start.elapsed());
    CollectShard {
        observations,
        runs,
        served_per_vp,
        protocol_failures,
        initial_capacity,
    }
}

/// Consults `day`'s `collect.day.<d>` site at `attempt`: false when the
/// decision fails the attempt, true otherwise (after sleeping out a
/// stall). The decision never alters what a collection observes.
fn day_clears(chaos: &dyn Chaos, day: u64, attempt: u32) -> bool {
    match chaos.decide(&NtpCorpus::day_site(day), attempt) {
        Fault::Error | Fault::Panic => false,
        Fault::Stall(d) => {
            std::thread::sleep(d);
            true
        }
        Fault::None => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use v6chaos::{ScriptedChaos, SiteScript};
    use v6netsim::WorldConfig;

    fn world() -> World {
        World::build(WorldConfig::tiny(), 101)
    }

    #[test]
    fn collects_without_protocol_failures() {
        let w = world();
        let c = NtpCorpus::collect(&w, SimTime::START, SimDuration::days(7));
        assert!(!c.is_empty());
        assert_eq!(c.protocol_failures, 0, "codec broke on the wire path");
        assert_eq!(
            c.served_per_vp.iter().sum::<u64>(),
            c.observations.len() as u64
        );
    }

    #[test]
    fn multiple_servers_see_traffic() {
        let w = world();
        let c = NtpCorpus::collect(&w, SimTime::START, SimDuration::days(7));
        let active = c.served_per_vp.iter().filter(|&&n| n > 0).count();
        assert!(active >= 15, "only {active}/27 servers saw queries");
    }

    #[test]
    fn dataset_round_trip() {
        let w = world();
        let c = NtpCorpus::collect(&w, SimTime::START, SimDuration::days(3));
        let d = c.dataset();
        assert_eq!(d.name(), "NTP Pool");
        assert_eq!(d.observation_count(), c.len() as u64);
        assert!(d.len() <= c.len());
        assert!(!d.is_empty());
    }

    #[test]
    fn geo_dns_prefers_local_servers() {
        let w = world();
        let c = NtpCorpus::collect(&w, SimTime::START, SimDuration::days(5));
        // For clients in a VP country, the serving VP must be in-country.
        let mut checked = 0;
        for obs in c.observations.iter().take(20_000) {
            let client_country = w.ases[obs.as_index as usize].info.country;
            let vp = &w.vantage_points[obs.server as usize];
            let has_local_vp = w.vantage_points.iter().any(|v| v.country == client_country);
            if has_local_vp {
                assert_eq!(vp.country, client_country);
                checked += 1;
            }
        }
        assert!(checked > 100, "geo-DNS path barely exercised ({checked})");
    }

    #[test]
    fn collection_is_deterministic() {
        let w = world();
        let a = NtpCorpus::collect(&w, SimTime::START, SimDuration::days(2));
        let b = NtpCorpus::collect(&w, SimTime::START, SimDuration::days(2));
        assert_eq!(a.observations, b.observations);
    }

    #[test]
    fn sharded_collection_matches_sequential() {
        let w = world();
        let seq = NtpCorpus::collect_with(&w, SimTime::START, SimDuration::days(9), 1, &NoChaos);
        assert!(!seq.is_empty());
        for threads in [2, 3, 8] {
            let par = NtpCorpus::collect_with(
                &w,
                SimTime::START,
                SimDuration::days(9),
                threads,
                &NoChaos,
            );
            assert_eq!(seq.observations, par.observations, "threads={threads}");
            assert_eq!(seq.served_per_vp, par.served_per_vp, "threads={threads}");
            assert_eq!(
                seq.protocol_failures, par.protocol_failures,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn transient_faulted_collection_matches_fault_free() {
        let w = world();
        let window = SimDuration::days(6);
        let baseline = NtpCorpus::collect_with(&w, SimTime::START, window, 1, &NoChaos);
        let chaos = ScriptedChaos::new()
            .with(NtpCorpus::day_site(1), SiteScript::transient(2))
            .with(NtpCorpus::day_site(3), SiteScript::transient_panic(1))
            .with(
                NtpCorpus::day_site(4),
                SiteScript::ok().with_stall(std::time::Duration::from_millis(1)),
            );
        for threads in [1, 4] {
            let c = NtpCorpus::collect_with(&w, SimTime::START, window, threads, &chaos);
            assert!(c.lost_days.is_empty(), "threads={threads}");
            assert_eq!(baseline.observations, c.observations, "threads={threads}");
            assert_eq!(baseline.served_per_vp, c.served_per_vp, "threads={threads}");
        }
        // NoChaos at 4 threads is also bit-identical.
        let c = NtpCorpus::collect_with(&w, SimTime::START, window, 4, &NoChaos);
        assert_eq!(baseline.observations, c.observations);
    }

    #[test]
    fn permanent_fault_loses_exactly_that_day() {
        let w = world();
        let window = SimDuration::days(5);
        let baseline = NtpCorpus::collect_with(&w, SimTime::START, window, 1, &NoChaos);
        let chaos = ScriptedChaos::new()
            .with(NtpCorpus::day_site(2), SiteScript::permanent())
            .with(NtpCorpus::day_site(0), SiteScript::transient(1));
        for threads in [1, 4] {
            let c = NtpCorpus::collect_with(&w, SimTime::START, window, threads, &chaos);
            assert_eq!(c.lost_days, vec![2], "threads={threads}");
            // Day 2's observations are gone, every other day's survive.
            assert!(c.observations.iter().all(|o| o.t / 86_400 != 2));
            let kept = baseline
                .observations
                .iter()
                .filter(|o| o.t / 86_400 != 2)
                .copied()
                .collect::<Vec<_>>();
            assert_eq!(kept, c.observations, "threads={threads}");
        }
    }

    #[test]
    fn faults_inside_multi_day_slices_split_and_backfill() {
        let w = world();
        let window = SimDuration::days(20);
        // At 2 threads the 20 days cut into 8 slices of 3 or 2 days.
        let starts: Vec<usize> = v6par::split_ranges(20, 8).iter().map(|r| r.start).collect();
        assert_eq!(starts, vec![0, 3, 6, 9, 12, 14, 16, 18]);
        let baseline = NtpCorpus::collect_with(&w, SimTime::START, window, 1, &NoChaos);
        let chaos = ScriptedChaos::new()
            .with(NtpCorpus::day_site(1), SiteScript::permanent()) // inside 0..3
            .with(NtpCorpus::day_site(3), SiteScript::transient(2)) // starts 3..6
            .with(NtpCorpus::day_site(7), SiteScript::transient_panic(1)) // inside 6..9
            .with(NtpCorpus::day_site(10), SiteScript::transient(1)) // inside 9..12
            .with(
                NtpCorpus::day_site(15),
                SiteScript::ok().with_stall(std::time::Duration::from_millis(1)),
            );
        let c = NtpCorpus::collect_with(&w, SimTime::START, window, 2, &chaos);
        assert_eq!(c.lost_days, vec![1]);
        let kept: Vec<NtpObservation> = baseline
            .observations
            .iter()
            .filter(|o| o.t / 86_400 != 1)
            .copied()
            .collect();
        assert!(kept.len() < baseline.len(), "day 1 observed nothing");
        assert_eq!(kept, c.observations);
        let mut served_per_vp = vec![0u64; w.vantage_points.len()];
        for o in &kept {
            served_per_vp[o.server as usize] += 1;
        }
        assert_eq!(served_per_vp, c.served_per_vp);
    }

    #[test]
    fn collection_never_reallocates() {
        let w = world();
        for threads in [1, 4] {
            let c = NtpCorpus::collect_with(
                &w,
                SimTime::START,
                SimDuration::days(9),
                threads,
                &NoChaos,
            );
            assert!(c.len() as u64 <= c.expected_queries, "estimate too low");
            assert_eq!(
                c.observations.capacity(),
                c.initial_capacity,
                "collection reallocated (threads={threads})"
            );
        }
    }
}
