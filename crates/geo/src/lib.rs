//! # v6geo — geolocation substrates
//!
//! The geolocation side of the *IPv6 Hitlists at Scale* (SIGCOMM 2023)
//! reproduction. The paper uses WiGLE/Apple/Google BSSID databases for
//! the §5.3 street-level geolocation attack; this crate provides a
//! faithful synthetic substitute. (The §3 country mix reads the world's
//! own registry, so no MaxMind stand-in is needed.)
//!
//! * [`latlon`] — coordinates and haversine distances.
//! * [`wardrive`] — a BSSID→location wardriving database built from the
//!   world's CPE access points, with country-dependent coverage and a
//!   hidden per-OUI wired→wireless MAC offset.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod latlon;
pub mod wardrive;

pub use latlon::{LatLon, EARTH_RADIUS_KM};
pub use wardrive::{bssid_for_wired, coverage, network_location, WardriveDb};
