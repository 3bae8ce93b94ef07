//! Admission control: per-client token buckets, a global load-shedding
//! budget, and a behavioral classifier that adapts throttle tiers.
//!
//! Everything here is pure state driven by caller-supplied microsecond
//! timestamps — no clocks, no threads — so adversarial scenarios replay
//! deterministically in tests and benches.
//!
//! The decision order is deliberate (and load-bearing for the fairness
//! guarantee the integration tests assert):
//!
//! 1. **Classify** — the arrival is recorded in the client's windowed
//!    history; crossing the flood rate promotes immediately.
//! 2. **Per-client bucket** — refilled at the base rate divided by the
//!    class's throttle tier. An abusive client exhausts *its own*
//!    bucket and gets [`AdmitDecision::Throttle`] long before it can
//!    drain the shared budget.
//! 3. **Global bucket** — only requests that passed their own tier draw
//!    from the shared budget; exhaustion is [`AdmitDecision::Shed`].
//!
//! Because a flood is contained at step 2, steady pollers keep seeing
//! an un-drained global bucket: zero sheds for the well-behaved even
//! while a flooder hammers the same server.

use std::collections::HashMap;

use crate::proto::ShedReason;

/// Microseconds per second — the token-math scale factor (1 token is
/// carried as 1_000_000 micro-tokens so refill stays in integers).
const MICROS: u64 = 1_000_000;

/// Behavioral class assigned to a client by its arrival pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ClientClass {
    /// Too few frames observed to classify; treated like steady.
    New,
    /// Regular arrivals within the base rate: full rate tier.
    Steady,
    /// Spiky scraper — long quiet gaps, dense bursts: rate / 4.
    Burst,
    /// Sustained arrivals above the flood rate: rate / 20.
    Flood,
}

impl ClientClass {
    /// Divisor applied to the base per-client refill rate.
    pub fn tier_divisor(self) -> u64 {
        match self {
            ClientClass::New | ClientClass::Steady => 1,
            ClientClass::Burst => 4,
            ClientClass::Flood => 20,
        }
    }

    /// Wire encoding of the class.
    pub fn as_u8(self) -> u8 {
        match self {
            ClientClass::New => 0,
            ClientClass::Steady => 1,
            ClientClass::Burst => 2,
            ClientClass::Flood => 3,
        }
    }

    /// Decodes a wire class byte.
    pub fn from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(ClientClass::New),
            1 => Some(ClientClass::Steady),
            2 => Some(ClientClass::Burst),
            3 => Some(ClientClass::Flood),
            _ => None,
        }
    }

    /// Metric-label name for this class.
    pub fn name(self) -> &'static str {
        match self {
            ClientClass::New => "new",
            ClientClass::Steady => "steady",
            ClientClass::Burst => "burst",
            ClientClass::Flood => "flood",
        }
    }

    fn demote(self) -> Self {
        match self {
            ClientClass::Flood => ClientClass::Burst,
            ClientClass::Burst | ClientClass::Steady => ClientClass::Steady,
            ClientClass::New => ClientClass::New,
        }
    }
}

/// The verdict for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitDecision {
    /// Serve it.
    Admit,
    /// The client's tier bucket is empty; answer with a labeled
    /// `Throttled` frame.
    Throttle {
        /// Suggested wait until a token is available, in milliseconds.
        retry_after_ms: u32,
        /// The class whose tier rejected the request.
        class: ClientClass,
    },
    /// Global overload (or client-table exhaustion); answer with a
    /// labeled `Shed` frame.
    Shed {
        /// Why the request was shed.
        reason: ShedReason,
    },
}

/// Tunables for the admission layer.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionConfig {
    /// Base per-client sustained rate (requests/second) before tier
    /// division.
    pub client_rate_per_sec: u64,
    /// Per-client bucket capacity (requests of burst headroom).
    pub client_burst: u64,
    /// Shared sustained rate across all clients (requests/second).
    pub global_rate_per_sec: u64,
    /// Shared bucket capacity.
    pub global_burst: u64,
    /// Ceiling on concurrently tracked clients; beyond it, unknown
    /// clients are shed with [`ShedReason::TooManyClients`].
    pub max_clients: usize,
    /// Classifier window length in microseconds.
    pub window_us: u64,
    /// Sustained arrivals/second that promote a client to
    /// [`ClientClass::Flood`].
    pub flood_rate_per_sec: u64,
    /// Peak-to-mean window ratio that marks a [`ClientClass::Burst`]
    /// scraper.
    pub burst_ratio: u64,
    /// Frames a client must show before it can leave
    /// [`ClientClass::New`].
    pub classify_min_frames: u64,
    /// Consecutive quiet windows before a class demotes one step.
    pub quiet_windows_to_demote: u32,
    /// Windows with no arrivals at all before an idle client's state is
    /// dropped (frees a table slot).
    pub idle_windows_to_evict: u32,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            client_rate_per_sec: 500,
            client_burst: 100,
            global_rate_per_sec: 20_000,
            global_burst: 4_000,
            max_clients: 4_096,
            window_us: 100_000,
            flood_rate_per_sec: 2_000,
            burst_ratio: 8,
            classify_min_frames: 16,
            quiet_windows_to_demote: 20,
            idle_windows_to_evict: 600,
        }
    }
}

/// Integer token bucket: tokens scaled by [`MICROS`] so refill is exact
/// integer math on microsecond timestamps.
#[derive(Debug, Clone, Copy)]
struct TokenBucket {
    micro_tokens: u64,
    capacity_micro: u64,
    last_refill_us: u64,
}

impl TokenBucket {
    fn new(burst: u64, now_us: u64) -> Self {
        let capacity = burst.saturating_mul(MICROS);
        TokenBucket {
            micro_tokens: capacity,
            capacity_micro: capacity,
            last_refill_us: now_us,
        }
    }

    fn refill(&mut self, rate_per_sec: u64, now_us: u64) {
        let elapsed = now_us.saturating_sub(self.last_refill_us);
        self.last_refill_us = now_us;
        // rate tokens/sec == rate micro-tokens/microsecond.
        let added = elapsed.saturating_mul(rate_per_sec);
        self.micro_tokens = (self.micro_tokens.saturating_add(added)).min(self.capacity_micro);
    }

    /// Takes one token if available; on failure returns the wait (µs)
    /// until one accrues at `rate_per_sec`.
    fn try_take(&mut self, rate_per_sec: u64, now_us: u64) -> Result<(), u64> {
        self.refill(rate_per_sec, now_us);
        if self.micro_tokens >= MICROS {
            self.micro_tokens -= MICROS;
            Ok(())
        } else {
            let deficit = MICROS - self.micro_tokens;
            Err(deficit.div_ceil(rate_per_sec.max(1)))
        }
    }
}

/// Windowed arrival history driving classification.
const HISTORY_WINDOWS: usize = 8;

#[derive(Debug)]
struct ClientState {
    bucket: TokenBucket,
    class: ClientClass,
    window_start_us: u64,
    current_window: u64,
    history: [u64; HISTORY_WINDOWS],
    history_len: usize,
    frames_seen: u64,
    classified_at_frame: Option<u64>,
    quiet_windows: u32,
    idle_windows: u32,
}

impl ClientState {
    fn new(cfg: &AdmissionConfig, now_us: u64) -> Self {
        ClientState {
            bucket: TokenBucket::new(cfg.client_burst, now_us),
            class: ClientClass::New,
            window_start_us: now_us,
            current_window: 0,
            history: [0; HISTORY_WINDOWS],
            history_len: 0,
            frames_seen: 0,
            classified_at_frame: None,
            quiet_windows: 0,
            idle_windows: 0,
        }
    }

    /// Closes every window that elapsed before `now_us`, pushing counts
    /// into the history ring and re-classifying at each boundary.
    fn roll_windows(&mut self, cfg: &AdmissionConfig, now_us: u64) {
        while now_us.saturating_sub(self.window_start_us) >= cfg.window_us {
            let count = self.current_window;
            self.history.rotate_right(1);
            self.history[0] = count;
            self.history_len = (self.history_len + 1).min(HISTORY_WINDOWS);
            self.current_window = 0;
            self.window_start_us += cfg.window_us;
            self.idle_windows = if count == 0 { self.idle_windows + 1 } else { 0 };

            // A quiet window is one at or below the steady budget.
            let steady_per_window = cfg.client_rate_per_sec * cfg.window_us / MICROS;
            if count <= steady_per_window {
                self.quiet_windows += 1;
                if self.quiet_windows >= cfg.quiet_windows_to_demote
                    && self.class > ClientClass::Steady
                {
                    self.class = self.class.demote();
                    self.quiet_windows = 0;
                }
            } else {
                self.quiet_windows = 0;
            }
            self.classify(cfg);
        }
    }

    /// Window-boundary classification from the history ring.
    fn classify(&mut self, cfg: &AdmissionConfig) {
        if self.frames_seen < cfg.classify_min_frames || self.history_len == 0 {
            return;
        }
        let window_count = self.history_len as u64;
        let total: u64 = self.history[..self.history_len].iter().sum();
        let peak: u64 = *self.history[..self.history_len].iter().max().unwrap_or(&0);
        let span_us = window_count * cfg.window_us;
        // Average arrivals/second across the ring.
        let avg_rate = total.saturating_mul(MICROS) / span_us.max(1);
        let mean_per_window = total / window_count;

        let next = if avg_rate >= cfg.flood_rate_per_sec {
            ClientClass::Flood
        } else if peak >= cfg.burst_ratio.saturating_mul(mean_per_window.max(1))
            && peak > cfg.client_rate_per_sec * cfg.window_us / MICROS
        {
            ClientClass::Burst
        } else {
            ClientClass::Steady
        };
        // Upgrades apply immediately; downgrades only through the
        // quiet-window path, so a flooder cannot reset its tier by
        // pausing for one window.
        if next > self.class || (self.class == ClientClass::New && next >= ClientClass::Steady) {
            self.set_class(next);
        }
    }

    fn set_class(&mut self, class: ClientClass) {
        if class > ClientClass::New && self.classified_at_frame.is_none() {
            self.classified_at_frame = Some(self.frames_seen);
        }
        self.class = class;
        self.quiet_windows = 0;
    }

    /// Records one arrival; fast-path flood promotion when the current
    /// window alone crosses the flood budget.
    fn record_arrival(&mut self, cfg: &AdmissionConfig, now_us: u64) {
        self.roll_windows(cfg, now_us);
        self.current_window += 1;
        self.frames_seen += 1;
        self.idle_windows = 0;
        let flood_per_window = cfg.flood_rate_per_sec * cfg.window_us / MICROS;
        if self.frames_seen >= cfg.classify_min_frames
            && self.current_window > flood_per_window
            && self.class < ClientClass::Flood
        {
            self.set_class(ClientClass::Flood);
        }
    }
}

/// A classified client's externally visible state (for tests and
/// metrics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientInfo {
    /// Current behavioral class.
    pub class: ClientClass,
    /// Frames seen from this client so far.
    pub frames_seen: u64,
    /// Frame index at which the client first left
    /// [`ClientClass::New`], if it has.
    pub classified_at_frame: Option<u64>,
}

/// The admission gate: one per server, shared by every connection.
#[derive(Debug)]
pub struct Admission {
    cfg: AdmissionConfig,
    clients: HashMap<u64, ClientState>,
    global: TokenBucket,
}

impl Admission {
    /// A gate with `cfg` tunables, starting at time `now_us`.
    pub fn new(cfg: AdmissionConfig, now_us: u64) -> Self {
        Admission {
            global: TokenBucket::new(cfg.global_burst, now_us),
            clients: HashMap::new(),
            cfg,
        }
    }

    /// The active tunables.
    pub fn config(&self) -> &AdmissionConfig {
        &self.cfg
    }

    /// Clients currently tracked.
    pub fn tracked_clients(&self) -> usize {
        self.clients.len()
    }

    /// The externally visible state of one client.
    pub fn client_info(&self, client_id: u64) -> Option<ClientInfo> {
        self.clients.get(&client_id).map(|c| ClientInfo {
            class: c.class,
            frames_seen: c.frames_seen,
            classified_at_frame: c.classified_at_frame,
        })
    }

    /// Drops clients idle long enough to evict; called internally when
    /// the table is full, and callable from a housekeeping tick.
    pub fn evict_idle(&mut self, now_us: u64) {
        let cfg = self.cfg;
        self.clients.retain(|_, c| {
            c.roll_windows(&cfg, now_us);
            c.idle_windows < cfg.idle_windows_to_evict
        });
    }

    /// Decides one request from `client_id` arriving at `now_us`.
    pub fn admit(&mut self, client_id: u64, now_us: u64) -> AdmitDecision {
        if !self.clients.contains_key(&client_id) {
            if self.clients.len() >= self.cfg.max_clients {
                self.evict_idle(now_us);
            }
            if self.clients.len() >= self.cfg.max_clients {
                return AdmitDecision::Shed {
                    reason: ShedReason::TooManyClients,
                };
            }
            self.clients
                .insert(client_id, ClientState::new(&self.cfg, now_us));
        }
        let cfg = self.cfg;
        let client = self.clients.get_mut(&client_id).expect("just inserted");
        client.record_arrival(&cfg, now_us);
        let class = client.class;

        let rate = cfg.client_rate_per_sec / class.tier_divisor();
        if let Err(wait_us) = client.bucket.try_take(rate.max(1), now_us) {
            return AdmitDecision::Throttle {
                retry_after_ms: u32::try_from(wait_us.div_ceil(1_000).max(1)).unwrap_or(u32::MAX),
                class,
            };
        }

        if self
            .global
            .try_take(cfg.global_rate_per_sec, now_us)
            .is_err()
        {
            return AdmitDecision::Shed {
                reason: ShedReason::GlobalOverload,
            };
        }
        AdmitDecision::Admit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> AdmissionConfig {
        AdmissionConfig {
            client_rate_per_sec: 100,
            client_burst: 10,
            global_rate_per_sec: 10_000,
            global_burst: 1_000,
            max_clients: 8,
            window_us: 100_000,
            flood_rate_per_sec: 1_000,
            burst_ratio: 8,
            classify_min_frames: 16,
            quiet_windows_to_demote: 5,
            idle_windows_to_evict: 50,
        }
    }

    #[test]
    fn steady_rate_is_always_admitted() {
        let mut adm = Admission::new(cfg(), 0);
        // 50 req/s against a 100 req/s budget: every request admitted.
        for i in 0..500u64 {
            let now = i * 20_000;
            assert_eq!(adm.admit(1, now), AdmitDecision::Admit, "request {i}");
        }
        assert_eq!(adm.client_info(1).unwrap().class, ClientClass::Steady);
    }

    #[test]
    fn flood_is_promoted_and_throttled() {
        let mut adm = Admission::new(cfg(), 0);
        // 10k req/s: far over the 1k flood line.
        let mut throttled = 0u32;
        for i in 0..2_000u64 {
            let now = i * 100;
            if matches!(adm.admit(7, now), AdmitDecision::Throttle { .. }) {
                throttled += 1;
            }
        }
        let info = adm.client_info(7).unwrap();
        assert_eq!(info.class, ClientClass::Flood);
        assert!(
            info.classified_at_frame.unwrap() <= 200,
            "flood classified late: {:?}",
            info.classified_at_frame
        );
        assert!(throttled > 1_800, "flood mostly throttled: {throttled}");
    }

    #[test]
    fn flood_does_not_drain_the_global_budget() {
        let mut adm = Admission::new(cfg(), 0);
        for i in 0..5_000u64 {
            let now = i * 100;
            // Flooder (client 9) and steady poller (client 1, 50 req/s).
            let _ = adm.admit(9, now);
            if now % 20_000 == 0 {
                assert_eq!(
                    adm.admit(1, now),
                    AdmitDecision::Admit,
                    "steady poller shed at t={now}us"
                );
            }
        }
    }

    #[test]
    fn quiet_windows_demote_a_flooder() {
        let mut adm = Admission::new(cfg(), 0);
        for i in 0..2_000u64 {
            let _ = adm.admit(3, i * 100);
        }
        assert_eq!(adm.client_info(3).unwrap().class, ClientClass::Flood);
        // Slow to 10 req/s for well past the demotion horizon.
        let base = 2_000 * 100;
        for i in 0..50u64 {
            let _ = adm.admit(3, base + i * 100_000);
        }
        let class = adm.client_info(3).unwrap().class;
        assert!(
            class < ClientClass::Flood,
            "flooder should demote after sustained quiet: {class:?}"
        );
    }

    #[test]
    fn client_table_overflow_sheds_new_clients() {
        let mut adm = Admission::new(cfg(), 0);
        for id in 0..8u64 {
            assert_eq!(adm.admit(id, 0), AdmitDecision::Admit);
        }
        assert_eq!(
            adm.admit(99, 1),
            AdmitDecision::Shed {
                reason: ShedReason::TooManyClients
            }
        );
        // Once the others idle out, the newcomer gets a slot.
        let later = 51 * 100_000 + 2;
        assert_eq!(adm.admit(99, later), AdmitDecision::Admit);
        assert!(adm.tracked_clients() < 8);
    }

    #[test]
    fn global_exhaustion_is_an_explicit_shed() {
        let mut adm = Admission::new(
            AdmissionConfig {
                client_rate_per_sec: 1_000_000,
                client_burst: 1_000_000,
                global_rate_per_sec: 10,
                global_burst: 5,
                ..cfg()
            },
            0,
        );
        let mut sheds = 0;
        for i in 0..50u64 {
            if matches!(
                adm.admit(1, i),
                AdmitDecision::Shed {
                    reason: ShedReason::GlobalOverload
                }
            ) {
                sheds += 1;
            }
        }
        assert_eq!(sheds, 45, "5 burst tokens then pure shed");
    }

    #[test]
    fn throttle_retry_hint_is_positive_and_bounded() {
        let mut adm = Admission::new(cfg(), 0);
        loop {
            match adm.admit(1, 0) {
                AdmitDecision::Admit => continue,
                AdmitDecision::Throttle { retry_after_ms, .. } => {
                    assert!(retry_after_ms >= 1);
                    assert!(retry_after_ms <= 1_000);
                    break;
                }
                other => panic!("unexpected decision {other:?}"),
            }
        }
    }
}
