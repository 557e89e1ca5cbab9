//! The radio (physical-layer) model: airtime as a function of frame length.
//!
//! The paper's evaluation runs on LoRa radios with low-power antennas
//! (§V-C); consensus latencies in the tens of seconds follow directly from
//! LoRa's multi-hundred-millisecond frame airtimes. The default parameters
//! below correspond to a LoRa SF7/125 kHz-class link (~5.5 kbit/s effective,
//! 255-byte maximum frame); any other radio (Wi-Fi, BLE) is expressible by
//! changing the numbers.

use crate::time::SimDuration;

/// Physical-layer parameters of all radios in a deployment.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RadioParams {
    /// Effective payload bitrate in bits per second.
    pub bitrate_bps: u64,
    /// Fixed per-frame overhead (preamble + sync + PHY header).
    pub preamble_us: u64,
    /// Maximum frame payload in bytes; longer sends must be fragmented by
    /// the caller.
    pub max_frame_bytes: usize,
}

impl RadioParams {
    /// LoRa SF7 / 125 kHz-class defaults (the paper's testbed radio class).
    pub fn lora_sf7() -> Self {
        RadioParams { bitrate_bps: 5_470, preamble_us: 12_500, max_frame_bytes: 255 }
    }

    /// A faster short-range radio (BLE-class), useful in tests to keep
    /// simulated times small.
    pub fn ble_class() -> Self {
        RadioParams { bitrate_bps: 250_000, preamble_us: 300, max_frame_bytes: 255 }
    }

    /// Time on air for a frame of `len` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds [`RadioParams::max_frame_bytes`] — callers
    /// must fragment first; silently clamping would corrupt the
    /// channel-occupancy accounting the experiments depend on.
    pub fn airtime(&self, len: usize) -> SimDuration {
        assert!(
            len <= self.max_frame_bytes,
            "frame of {len} bytes exceeds radio maximum {}",
            self.max_frame_bytes
        );
        let bits = (len as u64) * 8;
        let us = bits * 1_000_000 / self.bitrate_bps;
        SimDuration::from_micros(self.preamble_us + us)
    }
}

impl Default for RadioParams {
    fn default() -> Self {
        Self::lora_sf7()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lora_full_frame_is_hundreds_of_ms() {
        let r = RadioParams::lora_sf7();
        let t = r.airtime(255);
        // 255 B at ~5.47 kbit/s ≈ 373 ms + preamble.
        assert!(t.as_micros() > 300_000, "{t:?}");
        assert!(t.as_micros() < 500_000, "{t:?}");
    }

    #[test]
    fn airtime_is_monotone_in_length() {
        let r = RadioParams::lora_sf7();
        let mut prev = SimDuration::ZERO;
        for len in [0, 1, 10, 100, 255] {
            let t = r.airtime(len);
            assert!(t >= prev);
            prev = t;
        }
    }

    #[test]
    fn zero_length_frame_still_pays_preamble() {
        let r = RadioParams::lora_sf7();
        assert_eq!(r.airtime(0).as_micros(), r.preamble_us);
    }

    #[test]
    #[should_panic(expected = "exceeds radio maximum")]
    fn oversize_frame_panics() {
        RadioParams::lora_sf7().airtime(256);
    }
}
