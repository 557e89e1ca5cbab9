//! # wbft-bench — harness regenerating the paper's tables and figures
//!
//! Shared infrastructure for the five bench targets (`table1_overhead`,
//! `fig10_crypto`, `fig11_broadcast`, `fig12_aba`, `fig13_consensus`): a
//! component-level simulator driver that runs a single consensus component
//! across N wireless nodes and measures completion latency and channel
//! accesses, plus table-printing helpers.

use bytes::Bytes;
use wbft_components::aba_lc::AbaLcBatch;
use wbft_components::aba_sc::AbaScBatch;
use wbft_components::cbc::{CbcBatch, CbcSmallBatch};
use wbft_components::prbc::PrbcBatch;
use wbft_components::rbc::RbcBatch;
use wbft_components::rbc_small::RbcSmallBatch;
use wbft_components::{
    deal_node_crypto, Actions, BinaryAgreement, Broadcaster, NodeCrypto, Params,
};
use wbft_crypto::CryptoSuite;
use wbft_net::{broadcast_signed, Bitmap, Body, CoinFlavor, Envelope, Sizing, Vote};
use wbft_wireless::{
    ChannelId, Frame, NodeBehavior, NodeCtx, SimConfig, SimDuration, SimTime, Simulator, Topology,
};

/// A consensus component under benchmark; its `Params` carry the packing,
/// so a baseline is the same component built with
/// [`Packing::PerInstance`](wbft_components::Packing).
pub enum Comp {
    /// Batched Bracha RBC.
    Rbc(RbcBatch),
    /// Batched RBC-small.
    RbcSmall(RbcSmallBatch),
    /// Batched CBC.
    Cbc(CbcBatch),
    /// Batched CBC-small.
    CbcSmall(CbcSmallBatch),
    /// Batched PRBC.
    Prbc(PrbcBatch),
    /// Batched shared-coin ABA (SC or CP by flavor).
    AbaSc(AbaScBatch),
    /// Batched local-coin ABA.
    AbaLc(AbaLcBatch),
}

/// What each node feeds its component at start.
#[derive(Clone, Debug)]
pub enum CompInput {
    /// A byte proposal (broadcast components); `None` = this node's
    /// instance stays idle (parallelism sweeps).
    Value(Option<Bytes>),
    /// ABA inputs for `parallelism` instances, all activated at once.
    AbaParallel {
        /// Instances activated.
        parallelism: usize,
        /// Input value for each activated instance.
        value: bool,
    },
    /// Serial ABA: instances activated one after the other by the driver.
    AbaSerial {
        /// How many instances run in sequence.
        count: usize,
        /// Input for each.
        value: bool,
    },
}

impl Comp {
    fn start(&mut self, input: &CompInput, acts: &mut Actions) {
        match (self, input) {
            (Comp::Rbc(c), CompInput::Value(Some(v))) => c.start(v.clone(), acts),
            (Comp::Cbc(c), CompInput::Value(Some(v))) => c.start(v.clone(), acts),
            (Comp::Prbc(c), CompInput::Value(Some(v))) => c.start(v.clone(), acts),
            (Comp::RbcSmall(c), CompInput::Value(Some(_))) => c.start(Vote::One, acts),
            (Comp::CbcSmall(c), CompInput::Value(Some(_))) => {
                c.start(Bitmap::from_raw(0b0111, 4), acts)
            }
            (Comp::AbaSc(c), CompInput::AbaParallel { parallelism, value }) => {
                for j in 0..*parallelism {
                    c.set_input(j, *value, acts);
                }
            }
            (Comp::AbaLc(c), CompInput::AbaParallel { parallelism, value }) => {
                for j in 0..*parallelism {
                    c.set_input(j, *value, acts);
                }
            }
            (Comp::AbaSc(c), CompInput::AbaSerial { value, .. }) => c.set_input(0, *value, acts),
            (Comp::AbaLc(c), CompInput::AbaSerial { value, .. }) => c.set_input(0, *value, acts),
            _ => {}
        }
    }

    fn handle(&mut self, from: usize, body: &Body, acts: &mut Actions) {
        match self {
            Comp::Rbc(c) => c.handle(from, body, acts),
            Comp::RbcSmall(c) => c.handle(from, body, acts),
            Comp::Cbc(c) => c.handle(from, body, acts),
            Comp::CbcSmall(c) => c.handle(from, body, acts),
            Comp::Prbc(c) => c.handle(from, body, acts),
            Comp::AbaSc(c) => c.handle(from, body, acts),
            Comp::AbaLc(c) => c.handle(from, body, acts),
        }
    }

    fn on_timer(&mut self, local: u32, acts: &mut Actions) {
        match self {
            Comp::Rbc(c) => c.on_timer(local, acts),
            Comp::RbcSmall(c) => c.on_timer(local, acts),
            Comp::Cbc(c) => c.on_timer(local, acts),
            Comp::CbcSmall(c) => c.on_timer(local, acts),
            Comp::Prbc(c) => c.on_timer(local, acts),
            Comp::AbaSc(c) => c.on_timer(local, acts),
            Comp::AbaLc(c) => c.on_timer(local, acts),
        }
    }

    /// Serial-ABA driver hook: activate the next instance when the current
    /// one decides.
    fn poll_serial(&mut self, input: &CompInput, acts: &mut Actions) {
        let CompInput::AbaSerial { count, value } = input else { return };
        match self {
            Comp::AbaSc(c) => {
                for j in 0..*count {
                    if c.decided(j).is_some() && j + 1 < *count && !c.is_active(j + 1) {
                        c.set_input(j + 1, *value, acts);
                    }
                }
            }
            Comp::AbaLc(c) => {
                for j in 0..*count {
                    if c.decided(j).is_some() && j + 1 < *count {
                        c.set_input(j + 1, *value, acts); // idempotent
                    }
                }
            }
            _ => {}
        }
    }

    /// Has this node completed the experiment's ABA target?
    fn aba_complete(&self, input: &CompInput) -> bool {
        let target = match input {
            CompInput::AbaParallel { parallelism, .. } => *parallelism,
            CompInput::AbaSerial { count, .. } => *count,
            CompInput::Value(_) => return false,
        };
        match self {
            Comp::AbaSc(c) => (0..target).all(|j| c.decided(j).is_some()),
            Comp::AbaLc(c) => (0..target).all(|j| c.decided(j).is_some()),
            _ => false,
        }
    }

    fn delivered_at_least(&self, target: usize) -> bool {
        match self {
            Comp::Rbc(c) => c.delivered_count() >= target,
            Comp::RbcSmall(c) => c.delivered_count() >= target,
            Comp::Cbc(c) => c.delivered_count() >= target,
            Comp::CbcSmall(c) => c.delivered_count() >= target,
            Comp::Prbc(c) => c.delivered_count() >= target && c.proven_count() >= target,
            _ => false,
        }
    }
}

/// Simulator behavior hosting one component per node.
pub struct CompNode {
    comp: Comp,
    input: CompInput,
    target_instances: usize,
    crypto: NodeCrypto,
    sizing: Sizing,
    session: u64,
    /// Completion time at this node.
    pub completed_at: Option<SimTime>,
}

impl CompNode {
    fn is_complete(&self) -> bool {
        match &self.input {
            CompInput::Value(_) => self.comp.delivered_at_least(self.target_instances),
            other => self.comp.aba_complete(other),
        }
    }

    fn apply(&mut self, acts: &mut Actions, ctx: &mut NodeCtx) {
        let (sends, timers, charge) = acts.drain();
        if charge > 0 {
            ctx.charge_cpu(SimDuration::from_micros(charge));
        }
        for body in sends {
            let env = Envelope { src: self.crypto.me as u16, session: self.session, body };
            broadcast_signed(ctx, ChannelId(0), &self.crypto.keypair, &self.sizing, &env, 0)
                .expect("bench bodies encode");
        }
        for (delay, local) in timers {
            ctx.set_timer(delay, local as u64);
        }
        if self.completed_at.is_none() && self.is_complete() {
            self.completed_at = Some(ctx.now());
        }
    }
}

impl NodeBehavior for CompNode {
    fn on_start(&mut self, ctx: &mut NodeCtx) {
        let mut acts = Actions::new();
        let input = self.input.clone();
        self.comp.start(&input, &mut acts);
        self.apply(&mut acts, ctx);
    }

    fn on_frame(&mut self, frame: &Frame, ctx: &mut NodeCtx) {
        ctx.charge_cpu(SimDuration::from_micros(self.crypto.suite.ecdsa.profile().verify_us));
        let keys = &self.crypto.peer_keys;
        let Ok((env, sig_ok)) =
            Envelope::open(&frame.payload, |src| keys.get(src as usize).copied())
        else {
            return;
        };
        if !sig_ok || env.session != self.session {
            return;
        }
        let mut acts = Actions::new();
        let body = wbft_net::join(&env.body, self.sizing.n);
        self.comp.handle(env.src as usize, &body, &mut acts);
        let input = self.input.clone();
        self.comp.poll_serial(&input, &mut acts);
        self.apply(&mut acts, ctx);
    }

    fn on_timer(&mut self, id: u64, ctx: &mut NodeCtx) {
        let mut acts = Actions::new();
        self.comp.on_timer(id as u32, &mut acts);
        let input = self.input.clone();
        self.comp.poll_serial(&input, &mut acts);
        self.apply(&mut acts, ctx);
    }
}

/// Result of one component experiment.
#[derive(Clone, Copy, Debug)]
pub struct CompResult {
    /// Time until the slowest node completed.
    pub latency: SimDuration,
    /// Mean channel accesses per node at completion.
    pub accesses_per_node: f64,
    /// Whether all nodes completed before the deadline.
    pub completed: bool,
}

/// Runs one component experiment on an N-node single-hop LoRa network.
///
/// `make` builds each node's component from `(node id, crypto, params)`;
/// `inputs` supplies each node's start input; `target_instances` is the
/// number of instances every node must deliver for completion (broadcast
/// components).
pub fn run_component(
    n: usize,
    seed: u64,
    make: impl Fn(usize, &NodeCrypto, Params) -> Comp,
    inputs: impl Fn(usize) -> CompInput,
    target_instances: usize,
) -> CompResult {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xbe9c);
    let crypto = deal_node_crypto(n, CryptoSuite::light(), &mut rng);
    let session = 1u64;
    let behaviors: Vec<CompNode> = crypto
        .into_iter()
        .enumerate()
        .map(|(i, c)| {
            let params = Params::new(n, i, session);
            CompNode {
                comp: make(i, &c, params),
                input: inputs(i),
                target_instances,
                sizing: Sizing { n, suite: c.suite },
                session,
                crypto: c,
                completed_at: None,
            }
        })
        .collect();
    let cfg = SimConfig { seed, ..SimConfig::default() };
    let mut sim = Simulator::new(cfg, Topology::single_hop(n), behaviors);
    let deadline = SimTime::from_micros(1_800_000_000);
    let completed =
        sim.run_until_pred(deadline, |s| s.behaviors().all(|(_, b)| b.completed_at.is_some()));
    let latency = sim
        .behaviors()
        .filter_map(|(_, b)| b.completed_at)
        .max()
        .unwrap_or(deadline)
        .saturating_since(SimTime::ZERO);
    CompResult {
        latency,
        accesses_per_node: sim.metrics().mean_channel_accesses(),
        completed,
    }
}

/// Reports directory for one figure: `target/reports/<name>/`, created.
pub fn report_dir(name: &str) -> std::path::PathBuf {
    let dir = wbft_consensus::report::report_root().join(name);
    std::fs::create_dir_all(&dir)
        .unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
    dir
}

/// Writes a JSON document in the canonical file encoding
/// ([`wbft_report::write_file`]); panics with the path on failure, which is
/// the right behaviour for a bench binary.
pub fn write_json(path: &std::path::Path, json: &wbft_report::Json) {
    wbft_report::write_file(path, json)
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
}

/// Reads a JSON document back; panics with the path on failure.
pub fn read_json(path: &std::path::Path) -> wbft_report::Json {
    wbft_report::read_file(path).unwrap_or_else(|e| panic!("cannot read report: {e}"))
}

impl wbft_report::ToJson for CompResult {
    fn to_json(&self) -> wbft_report::Json {
        use wbft_report::Json;
        Json::obj([
            ("latency_us", Json::u64(self.latency.as_micros())),
            ("accesses_per_node", Json::f64(self.accesses_per_node)),
            ("completed", Json::Bool(self.completed)),
        ])
    }
}

/// Formats a fixed-width table row.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect::<Vec<_>>()
        .join("  ")
}

/// Mean microseconds per item of one pass of `f` over `items` — the
/// `first_sight` / `repeat` rows of the hotpath benches time the same
/// inputs twice with it.
pub fn pass_us<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let t0 = std::time::Instant::now();
    for item in items {
        f(item);
    }
    t0.elapsed().as_secs_f64() * 1e6 / items.len() as f64
}

/// Prints a banner for one figure/table reproduction.
pub fn banner(title: &str, note: &str) {
    println!("\n================================================================");
    println!("{title}");
    if !note.is_empty() {
        println!("{note}");
    }
    println!("================================================================");
}

/// Convenience: a value proposal of roughly `packets` LoRa frames.
pub fn proposal_of_packets(packets: usize, node: usize) -> Bytes {
    let len = packets * wbft_components::rbc::FRAG_BUDGET - 10;
    Bytes::from(vec![0xA0 | node as u8; len.max(8)])
}

/// Parallel shared-coin ABA component.
pub fn aba_sc_comp(c: &NodeCrypto, p: Params, flavor: CoinFlavor) -> Comp {
    Comp::AbaSc(AbaScBatch::new_parallel(p, flavor, c.coin_pub.clone(), c.coin_sec.clone()))
}

/// Serial shared-coin ABA component.
pub fn aba_sc_serial_comp(c: &NodeCrypto, p: Params, flavor: CoinFlavor) -> Comp {
    Comp::AbaSc(AbaScBatch::new_serial(p, flavor, c.coin_pub.clone(), c.coin_sec.clone()))
}
