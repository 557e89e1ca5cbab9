//! The metric tables (names and units exactly as in `BENCHMARK.json`) and
//! the set a run fills in. `check` cross-checks these tables against the
//! JSON file so the two cannot drift apart silently.

use std::collections::BTreeMap;

/// `(name, unit)` of every end-to-end metric. The clock behind the four
/// service-level ones (`epoch_latency_s`, `goodput_tps`, `commit_*`) is the
/// workload's own: simulated time on `sim-*`, wall time on `udp-*`.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("epoch_latency_s", "s"),
    ("goodput_tps", "tx/s"),
    ("commit_p50_ms", "ms"),
    ("commit_tail_ms", "ms"),
    ("air_accesses_per_epoch", "count"),
    ("air_bytes_per_tx", "B"),
    ("host_epochs_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// `(name, unit)` of every per-layer metric, grouped by crate.
pub const PER_LAYER: [(&str, &str); 84] = [
    // crypto — µs per call through wbft_crypto public functions, n = 4
    // light suite unless the name says n16.
    ("crypto.schnorr_sign_us", "us"),
    ("crypto.schnorr_verify_us", "us"),
    ("crypto.sig_share_sign_us", "us"),
    ("crypto.sig_shares_verify_us", "us"),
    ("crypto.sig_combine_us", "us"),
    ("crypto.sig_verify_us", "us"),
    ("crypto.coin_share_us", "us"),
    ("crypto.coin_shares_verify_us", "us"),
    ("crypto.coin_combine_us", "us"),
    ("crypto.enc_encrypt_us", "us"),
    ("crypto.dec_share_us", "us"),
    ("crypto.dec_share_verify_us", "us"),
    ("crypto.dec_combine_us", "us"),
    ("crypto.merkle_build_us", "us"),
    ("crypto.hash_mib_per_s", "MiB/s"),
    ("crypto.sig_shares_verify_us.n16", "us"),
    ("crypto.sig_combine_us.n16", "us"),
    ("crypto.deal_ms", "ms"),
    // net — replay of the frames the traced pass recorded.
    ("net.envelope_seal_us", "us"),
    ("net.envelope_open_us", "us"),
    ("net.body_encode_us", "us"),
    ("net.body_decode_us", "us"),
    ("net.datagram_encode_us", "us"),
    ("net.datagram_decode_us", "us"),
    ("net.frame_bytes_mean", "B"),
    ("net.nominal_bytes_mean", "B"),
    ("net.open_share_of_callback", "ratio"),
    // wireless — the simulator loop and the modelled medium (0 on udp-*,
    // which never enters the simulator, except the two virtual-CPU rows).
    ("wireless.events_per_epoch", "count"),
    ("wireless.loop_self_us_per_event", "us"),
    ("wireless.loop_share", "ratio"),
    ("wireless.collisions_per_epoch", "count"),
    ("wireless.lost_noise_share", "ratio"),
    ("wireless.lost_half_duplex_share", "ratio"),
    ("wireless.airtime_share", "ratio"),
    ("wireless.virtual_cpu_s_per_epoch", "s"),
    ("wireless.virtual_vs_host_cpu_ratio", "ratio"),
    // components — zero-delay in-memory loopback of n = 4 instances.
    ("components.rbc_us", "us"),
    ("components.prbc_us", "us"),
    ("components.cbc_us", "us"),
    ("components.aba_sc_us", "us"),
    ("components.aba_lc_us", "us"),
    ("components.rbc_msgs", "count"),
    ("components.prbc_msgs", "count"),
    ("components.aba_sc_msgs", "count"),
    ("components.sharebuf_settle_us", "us"),
    // core — per-protocol break-down (0 for a protocol the workload does
    // not run), node callbacks, mempool unit costs, batching outcomes.
    ("core.hb-sc.epoch_latency_s", "s"),
    ("core.hb-sc.host_ms_per_epoch", "ms"),
    ("core.hb-sc.accesses_per_epoch", "count"),
    ("core.beat.epoch_latency_s", "s"),
    ("core.beat.host_ms_per_epoch", "ms"),
    ("core.beat.accesses_per_epoch", "count"),
    ("core.dumbo-sc.epoch_latency_s", "s"),
    ("core.dumbo-sc.host_ms_per_epoch", "ms"),
    ("core.dumbo-sc.accesses_per_epoch", "count"),
    ("core.callback_us_mean", "us"),
    ("core.callback_us_p99", "us"),
    ("core.callbacks_per_epoch", "count"),
    ("core.mempool_admit_us", "us"),
    ("core.mempool_cycle_us_per_tx", "us"),
    ("core.txs_per_block_mean", "count"),
    ("core.peak_occupancy", "count"),
    ("core.requeued", "count"),
    ("core.rejected_dup_share", "ratio"),
    ("core.empty_epoch_share", "ratio"),
    ("core.stalled_runs_redrawn", "count"),
    // transport — the UDP runtime and the client path (0 on sim-*).
    ("transport.epochs_per_s", "1/s"),
    ("transport.datagrams_per_epoch", "count"),
    ("transport.client_sends_per_block", "count"),
    ("transport.drops", "count"),
    ("transport.sends_failed", "count"),
    ("transport.cpu_share", "ratio"),
    ("transport.loop_cpu_share", "ratio"),
    ("transport.wall_commit_p99_ms", "ms"),
    ("transport.generator_lateness_p99_ms", "ms"),
    ("transport.notify_lost", "count"),
    // journal
    ("journal.append_us", "us"),
    ("journal.append_mem_us", "us"),
    ("journal.replay_blocks_per_s", "1/s"),
    ("journal.bytes_per_block", "B"),
    // membership
    ("membership.reshare_ceremony_ms", "ms"),
    ("membership.churn_epoch_latency_s", "s"),
    // trace — the cost and the arithmetic check of the traced pass itself.
    ("trace.overhead_pct", "%"),
    ("trace.self_sum_error_pct", "%"),
    ("trace.spans", "count"),
];

/// Metric values of one run, keyed by name.
#[derive(Debug, Default)]
pub struct MetricSet {
    values: BTreeMap<String, f64>,
}

impl MetricSet {
    /// Records `name`; a non-finite value is a harness bug worth stopping
    /// on (JSON has no token for it).
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.values.insert(name.to_string(), value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Sets every `table` name that is still missing to 0 — used for layer
    /// families a workload never executes, so every run reports every name.
    pub fn fill_missing(&mut self, table: &[(&str, &str)], prefix: &str) {
        for (name, _) in table {
            if name.starts_with(prefix) && !self.values.contains_key(*name) {
                self.values.insert((*name).to_string(), 0.0);
            }
        }
    }

    /// `(name, value, unit)` rows in `table` order.
    ///
    /// # Errors
    ///
    /// The names `table` lists that this run never set.
    pub fn rows<'a>(
        &self,
        table: &'a [(&'a str, &'a str)],
    ) -> Result<Vec<(&'a str, f64, &'a str)>, Vec<&'a str>> {
        let missing: Vec<&str> = table
            .iter()
            .map(|(n, _)| *n)
            .filter(|n| !self.values.contains_key(*n))
            .collect();
        if !missing.is_empty() {
            return Err(missing);
        }
        Ok(table
            .iter()
            .map(|(n, u)| (*n, self.values[*n], *u))
            .collect())
    }
}
