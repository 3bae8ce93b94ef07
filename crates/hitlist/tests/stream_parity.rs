//! Streaming ≡ batch on *real* pipeline output.
//!
//! The proptests in `v6stream` pin the equivalence invariant on
//! synthetic corpora; this test closes the loop on measurement data:
//! a passive NTP corpus is replayed as weekly epoch publications, a
//! `StreamDriver` attributes it through the world's own routing table,
//! and at every boundary each operator's checksum must equal a batch
//! rebuild from the materialized corpus.

use std::sync::Arc;

use v6hitlist::{corpus_entries, world_as_table, NtpCorpus};
use v6netsim::{SimDuration, SimTime, World, WorldConfig};
use v6store::replica::{self};
use v6store::{EpochState, EpochView};
use v6stream::{fold_content, Analytics, Offer, SharedResolver, StreamDriver};

const WEEKS: u64 = 4;

/// The corpus as cumulative weekly publications: entry list `w` holds
/// every address first seen in week `<= w`, tagged with its first week.
fn weekly_corpora(corpus: &NtpCorpus) -> Vec<Vec<(u128, u32)>> {
    let all = corpus_entries(corpus);
    (0..WEEKS)
        .map(|w| {
            all.iter()
                .filter(|&&(_, week)| week <= w)
                .map(|&(bits, week)| (bits, week as u32))
                .collect()
        })
        .collect()
}

#[test]
fn streaming_matches_batch_on_replayed_corpus() {
    let world = World::build(WorldConfig::tiny(), 613);
    let corpus = NtpCorpus::collect(&world, SimTime::START, SimDuration::days(7 * WEEKS));
    let resolver: SharedResolver = Arc::new(world_as_table(&world));

    let mut state = EpochState::default();
    let mut driver = StreamDriver::new(resolver.clone());
    let mut fed_any = false;
    for (w, entries) in weekly_corpora(&corpus).iter().enumerate() {
        let checksum = entries
            .iter()
            .fold(0u64, |acc, &(bits, week)| fold_content(acc, bits, week));
        let delta = replica::delta_between(
            &state,
            &EpochView {
                epoch: w as u64 + 1,
                week: w as u64,
                content_checksum: checksum,
                missing_shards: &[],
                entries,
                aliases: &[],
            },
        );
        replica::apply(&mut state, &delta);
        fed_any |= !delta.added.is_empty();

        assert_eq!(
            driver.feed(&delta),
            Offer::Applied(delta.removed.len() + delta.added.len())
        );
        assert_eq!(driver.content_checksum(), checksum);
        let batch = Analytics::from_entries(resolver.clone(), entries);
        assert_eq!(
            driver.analytics().checksums(),
            batch.checksums(),
            "streaming diverged from batch at week {w}"
        );
    }
    assert!(fed_any, "corpus replay produced no deltas — vacuous test");

    // The world's table attributes real corpus traffic: the per-AS
    // entropy operator resolved addresses to routed ASes.
    assert!(!driver.analytics().entropy.snapshot().is_empty());
}
