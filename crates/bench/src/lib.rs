//! # wbft-bench — harness regenerating the paper's tables and figures
//!
//! Shared infrastructure for the bench targets (`table1_overhead`,
//! `fig10_crypto`, `fig11_broadcast`, `fig12_aba`, `fig13_consensus` and the
//! `hotpath_*` microbenches): the component rig, which runs a single
//! consensus component across N wireless nodes and measures completion
//! latency and channel accesses, plus report, timing and table-printing
//! helpers.
//!
//! Each rig node is an ordinary [`ProtocolNode`] over `CompEngine`, an
//! engine of one component: its frames are signed, opened once per
//! transmission, fenced and charged by the same driver as every deployment's.

use bytes::Bytes;
use wbft_components::{aba_lc, aba_sc, cbc, prbc, rbc, rbc_small};
use wbft_components::{deal_node_crypto, Actions, BinaryAgreement, Broadcaster, NodeCrypto, Params};
use wbft_consensus::{Block, Engine, EngineOut, ProtocolNode};
use wbft_crypto::CryptoSuite;
use wbft_net::{Bitmap, Body, Vote};
use wbft_wireless::{ChannelId, SimConfig, SimDuration, SimTime, Simulator, Topology};

/// A consensus component under benchmark; its `Params` carry the packing,
/// so a baseline is the same component built with
/// [`Packing::PerInstance`](wbft_components::Packing). Build one with
/// `.into()` from the component.
pub enum Comp {
    /// RBC or CBC: complete once the target count of instances delivered.
    Broadcast(Box<dyn Broadcaster>),
    /// PRBC: complete once the target count delivered *and* is proven.
    Prbc(Box<prbc::PrbcBatch>),
    /// RBC-small (one vote per instance).
    RbcSmall(Box<rbc_small::RbcSmallBatch>),
    /// CBC-small (one bitmap per instance).
    CbcSmall(Box<cbc::CbcSmallBatch>),
    /// ABA-SC, ABA-CP (by coin flavor) or ABA-LC.
    Aba(Box<dyn BinaryAgreement>),
}

/// Wraps each component in its [`Comp`] variant, so a `make` closure of
/// [`run_component`] can end in `.into()`.
macro_rules! comp_from {
    ($($ty:ty => $variant:ident),*) => {$(
        impl From<$ty> for Comp {
            fn from(c: $ty) -> Self {
                Comp::$variant(Box::new(c))
            }
        }
    )*};
}

comp_from!(rbc::RbcBatch => Broadcast, cbc::CbcBatch => Broadcast, prbc::PrbcBatch => Prbc);
comp_from!(rbc_small::RbcSmallBatch => RbcSmall, cbc::CbcSmallBatch => CbcSmall);
comp_from!(aba_sc::AbaScBatch => Aba, aba_lc::AbaLcBatch => Aba);

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
    /// Serial ABA: instances activated one after the other by the rig.
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
            (Comp::Broadcast(c), CompInput::Value(Some(v))) => c.start(v.clone(), acts),
            (Comp::Prbc(c), CompInput::Value(Some(v))) => c.start(v.clone(), acts),
            (Comp::RbcSmall(c), CompInput::Value(Some(_))) => c.start(Vote::One, acts),
            (Comp::CbcSmall(c), CompInput::Value(Some(_))) => {
                c.start(Bitmap::from_raw(0b0111, 4), acts)
            }
            (Comp::Aba(c), CompInput::AbaParallel { parallelism, value }) => {
                (0..*parallelism).for_each(|j| c.set_input(j, *value, acts))
            }
            (Comp::Aba(c), CompInput::AbaSerial { value, .. }) => c.set_input(0, *value, acts),
            _ => {}
        }
    }

    fn handle(&mut self, from: usize, body: &Body, acts: &mut Actions) {
        match self {
            Comp::Broadcast(c) => c.handle(from, body, acts),
            Comp::Prbc(c) => c.handle(from, body, acts),
            Comp::RbcSmall(c) => c.handle(from, body, acts),
            Comp::CbcSmall(c) => c.handle(from, body, acts),
            Comp::Aba(c) => c.handle(from, body, acts),
        }
    }

    fn on_timer(&mut self, local: u32, acts: &mut Actions) {
        match self {
            Comp::Broadcast(c) => c.on_timer(local, acts),
            Comp::Prbc(c) => c.on_timer(local, acts),
            Comp::RbcSmall(c) => c.on_timer(local, acts),
            Comp::CbcSmall(c) => c.on_timer(local, acts),
            Comp::Aba(c) => c.on_timer(local, acts),
        }
    }

    /// Serial ABA: activates each instance whose predecessor decided
    /// (`set_input` ignores an instance already active).
    fn poll_serial(&mut self, input: &CompInput, acts: &mut Actions) {
        if let (Comp::Aba(c), CompInput::AbaSerial { count, value }) = (self, input) {
            for j in 1..*count {
                if c.decided(j - 1).is_some() {
                    c.set_input(j, *value, acts);
                }
            }
        }
    }

    /// Has this node met the experiment's target: `target` broadcast
    /// instances delivered, or every ABA instance of `input` decided?
    fn is_complete(&self, input: &CompInput, target: usize) -> bool {
        match (self, input) {
            (Comp::Broadcast(c), CompInput::Value(_)) => c.delivered_count() >= target,
            (Comp::Prbc(c), CompInput::Value(_)) => {
                c.delivered_count() >= target && c.proven_count() >= target
            }
            (Comp::RbcSmall(c), CompInput::Value(_)) => c.delivered_count() >= target,
            (Comp::CbcSmall(c), CompInput::Value(_)) => c.delivered_count() >= target,
            (
                Comp::Aba(c),
                CompInput::AbaParallel { parallelism: count, .. }
                | CompInput::AbaSerial { count, .. },
            ) => (0..*count).all(|j| c.decided(j).is_some()),
            _ => false,
        }
    }
}

/// The session every rig component runs at.
const SESSION: u64 = 1;

/// The engine of one rig node: one component at session 1, which decides
/// one empty block the first time the experiment's target is met — the
/// driver's epoch clock then holds this node's completion time.
struct CompEngine {
    comp: Comp,
    input: CompInput,
    target_instances: usize,
    n: usize,
    blocks: Vec<Block>,
}

impl CompEngine {
    /// Activates the next serial instance, hands the component's actions
    /// to the driver and decides once complete.
    fn settle(&mut self, mut acts: Actions, out: &mut EngineOut) {
        self.comp.poll_serial(&self.input, &mut acts);
        out.absorb(SESSION, &mut acts);
        if self.blocks.is_empty() && self.comp.is_complete(&self.input, self.target_instances) {
            self.blocks.push(Block { epoch: 0, txs: Vec::new() });
        }
    }
}

impl Engine for CompEngine {
    fn start(&mut self, out: &mut EngineOut) {
        let mut acts = Actions::new();
        self.comp.start(&self.input, &mut acts);
        self.settle(acts, out);
    }

    fn handle(&mut self, _session: u64, from: usize, body: &Body, out: &mut EngineOut) {
        let mut acts = Actions::new();
        self.comp.handle(from, &wbft_net::join(body, self.n), &mut acts);
        self.settle(acts, out);
    }

    fn on_timer(&mut self, _session: u64, local: u32, out: &mut EngineOut) {
        let mut acts = Actions::new();
        self.comp.on_timer(local, &mut acts);
        self.settle(acts, out);
    }

    fn on_work_available(&mut self, _out: &mut EngineOut) {}

    fn restore_chain(&mut self, _blocks: Vec<Block>) {}

    fn adopt_chain(&mut self, _blocks: Vec<Block>, _out: &mut EngineOut) {}

    fn key_epoch(&self, _session: u64) -> u64 {
        0
    }

    fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    fn is_done(&self) -> bool {
        !self.blocks.is_empty()
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
///
/// # Panics
///
/// If a node's driver dropped a send whose body does not encode.
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
    let nodes: Vec<ProtocolNode<CompEngine>> = crypto
        .into_iter()
        .enumerate()
        .map(|(i, c)| {
            let (comp, input) = (make(i, &c, Params::new(n, i, SESSION)), inputs(i));
            let engine = CompEngine { comp, input, target_instances, n, blocks: Vec::new() };
            ProtocolNode::new(engine, c, ChannelId(0))
        })
        .collect();
    let cfg = SimConfig { seed, ..SimConfig::default() };
    let mut sim = Simulator::new(cfg, Topology::single_hop(n), nodes);
    let deadline = SimTime::from_micros(1_800_000_000);
    let completed = sim.run_until_pred(deadline, |s| s.behaviors().all(|(_, b)| b.is_done()));
    for (id, node) in sim.behaviors() {
        assert_eq!(node.unencodable_sends(), 0, "{id:?} dropped an unencodable send");
    }
    let latency = sim
        .behaviors()
        .filter_map(|(_, b)| b.clock().completed.first().copied())
        .max()
        .unwrap_or(deadline)
        .saturating_since(SimTime::ZERO);
    CompResult { latency, accesses_per_node: sim.metrics().mean_channel_accesses(), completed }
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

/// Mean microseconds per call over `reps` calls (one warmup call first).
pub fn time_us<R>(reps: u32, mut f: impl FnMut() -> R) -> f64 {
    std::hint::black_box(f());
    pass_us(&vec![(); reps as usize], |_| drop(std::hint::black_box(f())))
}

/// Forgets every answer of this thread's crypto tables.
pub fn clear_tables() {
    wbft_crypto::memo::clear();
    wbft_crypto::schnorr::clear();
    wbft_crypto::quorum::clear();
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
