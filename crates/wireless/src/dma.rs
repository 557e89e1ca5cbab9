//! The DMA-buffer model (paper §IV-B2).
//!
//! On the paper's STM32 boards, received frames land in a DMA ring buffer of
//! size `2D` and reach the CPU on *half* or *full* interrupts. Without care,
//! short frames accumulate until the half-buffer mark before the CPU sees
//! them, adding latency and — with slow crypto on the critical path —
//! congestion. ConsensusBatcher's *packet alignment* pads every frame to at
//! least `D`, so each arrival immediately crosses an interrupt threshold and
//! is handed to the CPU at once.
//!
//! The simulator reproduces both regimes:
//!
//! * **aligned** — every frame is delivered to the protocol after a fixed
//!   interrupt-service delay;
//! * **unaligned** — frames shorter than `D` wait in the buffer until
//!   another arrival fills the half-buffer or a flush timeout expires
//!   (modelling the board's idle-line timeout).

use crate::time::SimDuration;

/// DMA buffer behaviour for every node in a deployment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DmaParams {
    /// Half-buffer size `D` in bytes; the buffer holds `2D`.
    pub half_buffer_bytes: usize,
    /// Whether ConsensusBatcher's packet-alignment strategy is active.
    pub alignment: bool,
    /// Interrupt service + copy-out latency charged per delivery.
    pub interrupt_us: u64,
    /// Idle-line flush timeout for the unaligned regime.
    pub flush_timeout_us: u64,
}

impl DmaParams {
    /// The paper's configuration: alignment on, `D` = half the radio frame.
    pub fn aligned() -> Self {
        DmaParams {
            half_buffer_bytes: 128,
            alignment: true,
            interrupt_us: 400,
            flush_timeout_us: 50_000,
        }
    }

    /// Ablation configuration with alignment disabled.
    pub fn unaligned() -> Self {
        DmaParams { alignment: false, ..Self::aligned() }
    }

    /// Extra delivery delay for a frame of `len` bytes that arrives when
    /// `buffered` bytes are already pending.
    ///
    /// Returns `(delay, flush)`: `flush` is true when this arrival crosses an
    /// interrupt threshold and drains the buffer (delivering everything
    /// pending), false when the frame parks in the buffer awaiting either a
    /// later arrival or the flush timeout.
    pub fn arrival(&self, len: usize, buffered: usize) -> (SimDuration, bool) {
        if self.alignment {
            // Padded to >= D: every frame crosses the half mark immediately.
            (SimDuration::from_micros(self.interrupt_us), true)
        } else if buffered + len >= self.half_buffer_bytes {
            (SimDuration::from_micros(self.interrupt_us), true)
        } else {
            (SimDuration::from_micros(self.flush_timeout_us), false)
        }
    }
}

impl Default for DmaParams {
    fn default() -> Self {
        Self::aligned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aligned_always_flushes_fast() {
        let d = DmaParams::aligned();
        let (delay, flush) = d.arrival(10, 0);
        assert!(flush);
        assert_eq!(delay.as_micros(), d.interrupt_us);
        let (delay2, flush2) = d.arrival(255, 100);
        assert!(flush2);
        assert_eq!(delay2, delay);
    }

    #[test]
    fn unaligned_small_frames_wait() {
        let d = DmaParams::unaligned();
        let (delay, flush) = d.arrival(10, 0);
        assert!(!flush);
        assert_eq!(delay.as_micros(), d.flush_timeout_us);
    }

    #[test]
    fn unaligned_flushes_when_half_buffer_fills() {
        let d = DmaParams::unaligned();
        let (delay, flush) = d.arrival(100, 60);
        assert!(flush, "100+60 >= 128 must flush");
        assert_eq!(delay.as_micros(), d.interrupt_us);
    }

    #[test]
    fn unaligned_large_frames_flush_immediately() {
        let d = DmaParams::unaligned();
        let (_, flush) = d.arrival(200, 0);
        assert!(flush);
    }
}
