//! The fabric against a trivial model: one `VecDeque<(release_us,
//! bytes)>` per directed lane, a crash set, a group map and a sequence
//! counter per endpoint.
//!
//! A random schedule drives three `Crash` endpoints (`n0..n2`, fully
//! meshed), one `Corrupt` pair (`c`/`s`) and one hook-less endpoint
//! (`client`, linked to every node) through sends, receives at an
//! advancing clock, scripted drop/stall/panic sites, partitions and
//! heals, and driver crashes, disconnects and revivals. After every
//! step:
//!
//! * each receiver has received exactly the model's concatenation of
//!   what its lane released — so nothing arrives early, late, twice or
//!   out of order;
//! * every counter equals the model's, and every send by a live sender
//!   lands in exactly one of `chunks`, `lost`, `kills`, `dead_drops`
//!   and `partition_drops` (`stalled` is counted on top).

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use v6chaos::{ScriptedChaos, SiteScript};
use v6obs::Registry;
use v6wire::{Fabric, Link, OnPanic, Transport, TransportError};

const ENDPOINTS: [&str; 6] = ["n0", "n1", "n2", "c", "s", "client"];
const HOOKS: [Option<OnPanic>; 6] = [
    Some(OnPanic::Crash),
    Some(OnPanic::Crash),
    Some(OnPanic::Crash),
    Some(OnPanic::Corrupt),
    Some(OnPanic::Corrupt),
    None,
];

/// Every directed link `(from, to)` the schedule may use.
fn link_pairs() -> Vec<(usize, usize)> {
    let mut pairs = Vec::new();
    for a in 0..3 {
        for b in 0..3 {
            if a != b {
                pairs.push((a, b));
            }
        }
        pairs.push((a, 5));
        pairs.push((5, a));
    }
    pairs.extend([(3, 4), (4, 3)]);
    pairs
}

/// A scripted decision for one `(endpoint, seq)` site.
#[derive(Debug, Clone, Copy)]
enum Scripted {
    Drop,
    Stall(u64),
    Panic,
}

const COUNTERS: [&str; 6] = [
    "chunks",
    "lost",
    "stalled",
    "kills",
    "partition_drops",
    "dead_drops",
];

/// One directed lane: `(release_us, bytes)` in send order.
type ModelLane = VecDeque<(u64, Vec<u8>)>;

#[derive(Default)]
struct Model {
    lanes: BTreeMap<(usize, usize), ModelLane>,
    delivered: BTreeMap<(usize, usize), Vec<u8>>,
    seqs: [u32; 6],
    groups: [u8; 6],
    crashed: BTreeSet<usize>,
    /// Expected counters, in [`COUNTERS`] order.
    counts: [u64; 6],
    live_sends: u64,
    driver_kills: u64,
}

impl Model {
    fn send(
        &mut self,
        script: &BTreeMap<(usize, u32), Scripted>,
        (from, to): (usize, usize),
        bytes: &[u8],
        now: u64,
    ) -> Result<(), TransportError> {
        if self.crashed.contains(&from) {
            return Err(TransportError::Closed);
        }
        self.live_sends += 1;
        let mut bytes = bytes.to_vec();
        let mut release = now;
        if let Some(hook) = HOOKS[from] {
            let seq = self.seqs[from];
            self.seqs[from] += 1;
            match script.get(&(from, seq)) {
                None => {}
                Some(Scripted::Drop) => {
                    self.counts[1] += 1;
                    return Ok(());
                }
                Some(Scripted::Stall(us)) => {
                    self.counts[2] += 1;
                    release = now + us;
                }
                Some(Scripted::Panic) if hook == OnPanic::Crash => {
                    self.crashed.insert(from);
                    self.counts[3] += 1;
                    return Ok(());
                }
                Some(Scripted::Panic) => {
                    let sent = seq + 1;
                    let pos = sent as usize % bytes.len();
                    bytes[pos] ^= 1 << (sent % 8);
                }
            }
        }
        if self.crashed.contains(&to) {
            self.counts[5] += 1;
        } else if self.groups[from] != self.groups[to] {
            self.counts[4] += 1;
        } else {
            self.counts[0] += 1;
            self.lanes
                .entry((from, to))
                .or_default()
                .push_back((release, bytes));
        }
        Ok(())
    }

    /// What the receiver `to` takes off the lane from `from` at `now`.
    fn recv(&mut self, (from, to): (usize, usize), now: u64) -> Result<Vec<u8>, TransportError> {
        if self.crashed.contains(&to) {
            return Err(TransportError::Closed);
        }
        let mut out = Vec::new();
        let lane = self.lanes.entry((from, to)).or_default();
        while lane.front().is_some_and(|&(release, _)| release <= now) {
            out.extend(lane.pop_front().expect("front checked").1);
        }
        self.delivered.entry((from, to)).or_default().extend(&out);
        Ok(out)
    }

    fn crash(&mut self, ep: usize) {
        if self.crashed.insert(ep) {
            self.counts[3] += 1;
            self.driver_kills += 1;
        }
    }

    fn disconnect(&mut self, ep: usize) {
        self.lanes.retain(|&(a, b), _| a != ep && b != ep);
    }
}

fn run(sites: &[(u8, u8, u8, u8)], ops: &[(u8, u8, u8)]) {
    let mut chaos = ScriptedChaos::new();
    let mut script = BTreeMap::new();
    for &(ep, seq, kind, ms) in sites {
        let ep = usize::from(ep) % 5;
        let seq = u32::from(seq % 12);
        let stall_us = u64::from(ms % 4 + 1) * 1_000;
        let (decision, site_script) = match kind % 3 {
            0 => (Scripted::Drop, SiteScript::permanent()),
            1 => (
                Scripted::Stall(stall_us),
                SiteScript::ok().with_stall(Duration::from_micros(stall_us)),
            ),
            _ => (Scripted::Panic, SiteScript::permanent_panic()),
        };
        script.insert((ep, seq), decision);
        chaos = chaos.with(format!("model.{}.{seq}", ENDPOINTS[ep]), site_script);
    }
    let registry = Registry::new();
    let fabric = Fabric::new("model", Arc::new(chaos), &registry);
    let pairs = link_pairs();
    let mut links: Vec<Link> = pairs
        .iter()
        .map(|&(a, b)| fabric.link(ENDPOINTS[a], ENDPOINTS[b], HOOKS[a]))
        .collect();

    let mut model = Model::default();
    let mut received: BTreeMap<(usize, usize), Vec<u8>> = BTreeMap::new();
    let mut now = 0u64;
    for (step, &(op, x, y)) in ops.iter().enumerate() {
        let i = usize::from(x) % pairs.len();
        let ep = usize::from(x) % ENDPOINTS.len();
        match op % 16 {
            0..=5 => {
                let bytes = vec![step as u8; 1 + usize::from(y) % 6];
                let want = model.send(&script, pairs[i], &bytes, now);
                assert_eq!(links[i].send(&bytes, now), want, "step {step}: send");
            }
            6..=8 => {
                // Link `i` is `from`'s end: it receives what `to` sent.
                let (from, to) = pairs[i];
                let want = model.recv((to, from), now);
                let got = links[i].recv(now);
                assert_eq!(got, want, "step {step}: recv on {from}<-{to} at {now}");
                if let Ok(bytes) = got {
                    received.entry((to, from)).or_default().extend(bytes);
                }
            }
            9 | 10 => now += u64::from(y % 4) * 1_000,
            11 => {
                let mut groups = BTreeMap::new();
                for (e, name) in ENDPOINTS.iter().enumerate() {
                    model.groups[e] = (y >> e) & 1;
                    groups.insert(name.to_string(), model.groups[e]);
                }
                fabric.set_groups(&groups);
            }
            12 => {
                model.groups = [0; 6];
                fabric.heal();
            }
            13 => {
                model.crash(ep);
                fabric.crash(ENDPOINTS[ep]);
            }
            14 => {
                model.disconnect(ep);
                fabric.disconnect(ENDPOINTS[ep]);
            }
            _ => {
                model.crashed.remove(&ep);
                fabric.revive(ENDPOINTS[ep]);
            }
        }

        // Invariants, after every step.
        for (lane, want) in &model.delivered {
            let got = received.get(lane).map_or(&[][..], |v| &v[..]);
            assert_eq!(got, &want[..], "step {step}: lane {lane:?} bytes");
        }
        let snap = registry.snapshot();
        let counts = COUNTERS.map(|c| snap.counter(&format!("model.net.{c}")).unwrap_or(0));
        assert_eq!(counts, model.counts, "step {step}: counters {COUNTERS:?}");
        let [chunks, lost, _stalled, kills, partition_drops, dead_drops] = counts;
        assert_eq!(
            chunks + lost + kills + partition_drops + dead_drops,
            model.live_sends + model.driver_kills,
            "step {step}: every live send lands in exactly one outcome"
        );
        for (e, name) in ENDPOINTS.iter().enumerate() {
            assert_eq!(fabric.is_crashed(name), model.crashed.contains(&e));
        }
    }
}

proptest! {
    #[test]
    fn fabric_matches_the_lane_model(
        sites in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()), 0..24),
        ops in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..160),
    ) {
        run(&sites, &ops);
    }
}
