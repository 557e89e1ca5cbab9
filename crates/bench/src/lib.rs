//! # wbft-bench — harness regenerating the paper's tables and figures
//!
//! Shared infrastructure for the bench targets: `figures`, which runs the
//! paper's evaluation (Table I, Figs. 10–13) as one table of claims, and the
//! `hotpath_*` microbenches. It holds the component rig, which runs a single
//! consensus component across four wireless nodes and measures completion
//! latency, channel accesses and air bytes; the claim checker every figure
//! row goes through; and report, timing and table-printing helpers.
//!
//! Each rig node is an ordinary [`ProtocolNode`] over `CompEngine`, an
//! engine of one component: its frames are signed, opened once per
//! transmission, fenced and charged by the same driver as every deployment's.

use bytes::Bytes;
use wbft_components::{cbc, prbc, rbc, rbc_small};
use wbft_components::{deal_node_crypto, Actions, Agreement, BinaryAgreement, Broadcaster};
use wbft_components::{NodeCrypto, Packing, Params};
use wbft_consensus::{Block, Engine, EngineOut, ProtocolNode};
use wbft_crypto::CryptoSuite;
use wbft_net::{Bitmap, Body, CoinFlavor, Vote};
use wbft_wireless::{ChannelId, SimConfig, SimDuration, SimTime, Simulator, Topology};

/// A consensus component under benchmark; its `Params` carry the packing,
/// so a baseline is the same component built under
/// [`Packing::PerInstance`].
enum Comp {
    /// RBC or CBC: complete once every proposal delivered.
    Broadcast(Box<dyn Broadcaster>),
    /// PRBC: complete once every proposal delivered *and* is proven.
    Prbc(Box<prbc::PrbcBatch>),
    /// RBC-small (one vote per instance).
    RbcSmall(Box<rbc_small::RbcSmallBatch>),
    /// CBC-small (one bitmap per instance).
    CbcSmall(Box<cbc::CbcSmallBatch>),
    /// ABA-SC, ABA-CP (by coin flavor) or ABA-LC.
    Aba(Box<dyn BinaryAgreement>),
}

/// What the nodes feed a rig component, which also says when it is complete.
#[derive(Clone, Copy, Debug)]
pub enum Load {
    /// The first `proposers` nodes each broadcast a proposal of about
    /// `packets` LoRa frames; complete once every node delivered (PRBC: and
    /// proved) all of them.
    Broadcast {
        /// Nodes that propose; the other instances stay idle.
        proposers: usize,
        /// Proposal size in LoRa frames.
        packets: usize,
    },
    /// This many ABA instances with input 1, all activated at once.
    Parallel(usize),
    /// This many ABA instances with input 1, each activated once its
    /// predecessor decided (Dumbo's pattern).
    Serial(usize),
}

impl Comp {
    /// Builds the component a figure names — `RBC`, `RBC-small`, `CBC`,
    /// `CBC-small`, `PRBC`, `ABA-LC`, `ABA-SC` or `ABA-CP` — packed as `p`
    /// says. A shared-coin ABA draws one coin per instance when its
    /// instances run serially or it is packed per instance (Dumbo's election
    /// and the baselines); otherwise all instances share one coin per round.
    fn build(label: &str, load: Load, c: &NodeCrypto, p: Params) -> Comp {
        let serial = matches!(load, Load::Serial(_)) || p.packing == Packing::PerInstance;
        let coin = |flavor| Agreement::SharedCoin { flavor, serial };
        match label {
            "RBC" => Comp::Broadcast(Box::new(rbc::RbcBatch::new(p))),
            "CBC" => Comp::Broadcast(Box::new(cbc::CbcBatch::new(
                p,
                c.cbc_pub.clone(),
                c.cbc_sec.clone(),
            ))),
            "PRBC" => Comp::Prbc(Box::new(prbc::PrbcBatch::new(
                p,
                c.prbc_pub.clone(),
                c.prbc_sec.clone(),
            ))),
            "RBC-small" => Comp::RbcSmall(Box::new(rbc_small::RbcSmallBatch::new(p))),
            "CBC-small" => Comp::CbcSmall(Box::new(cbc::CbcSmallBatch::new(
                p,
                c.cbc_pub.clone(),
                c.cbc_sec.clone(),
            ))),
            "ABA-LC" => Comp::Aba(Agreement::LocalCoin.build(p, c)),
            "ABA-SC" => Comp::Aba(coin(CoinFlavor::ThreshSig).build(p, c)),
            "ABA-CP" => Comp::Aba(coin(CoinFlavor::CoinFlip).build(p, c)),
            _ => panic!("no rig component is labelled {label:?}"),
        }
    }

    fn start(&mut self, load: Load, me: usize, acts: &mut Actions) {
        match (self, load) {
            (_, Load::Broadcast { proposers, .. }) if me >= proposers => {}
            (Comp::Broadcast(c), Load::Broadcast { packets, .. }) => {
                c.start(proposal_of_packets(packets, me), acts)
            }
            (Comp::Prbc(c), Load::Broadcast { packets, .. }) => {
                c.start(proposal_of_packets(packets, me), acts)
            }
            (Comp::RbcSmall(c), Load::Broadcast { .. }) => c.start(Vote::One, acts),
            (Comp::CbcSmall(c), Load::Broadcast { .. }) => {
                c.start(Bitmap::from_raw(0b0111, 4), acts)
            }
            (Comp::Aba(c), Load::Parallel(count)) => {
                (0..count).for_each(|j| c.set_input(j, true, acts))
            }
            (Comp::Aba(c), Load::Serial(_)) => c.set_input(0, true, acts),
            (_, load) => panic!("a broadcast takes a broadcast load, an ABA an ABA load: {load:?}"),
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
    fn poll_serial(&mut self, load: Load, acts: &mut Actions) {
        if let (Comp::Aba(c), Load::Serial(count)) = (self, load) {
            for j in 1..count {
                if c.decided(j - 1).is_some() {
                    c.set_input(j, true, acts);
                }
            }
        }
    }

    /// Has this node met the load's target: every proposal delivered, or
    /// every ABA instance decided?
    fn is_complete(&self, load: Load) -> bool {
        match (self, load) {
            (Comp::Broadcast(c), Load::Broadcast { proposers, .. }) => {
                c.delivered_count() >= proposers
            }
            (Comp::Prbc(c), Load::Broadcast { proposers, .. }) => {
                c.delivered_count() >= proposers && c.proven_count() >= proposers
            }
            (Comp::RbcSmall(c), Load::Broadcast { proposers, .. }) => {
                c.delivered_count() >= proposers
            }
            (Comp::CbcSmall(c), Load::Broadcast { proposers, .. }) => {
                c.delivered_count() >= proposers
            }
            (Comp::Aba(c), Load::Parallel(count) | Load::Serial(count)) => {
                (0..count).all(|j| c.decided(j).is_some())
            }
            _ => false,
        }
    }
}

/// Nodes of every rig run.
const RIG_NODES: usize = 4;

/// The session every rig component runs at.
const SESSION: u64 = 1;

/// The engine of one rig node: one component at session 1, which decides
/// one empty block the first time its load's target is met — the
/// driver's epoch clock then holds this node's completion time.
struct CompEngine {
    comp: Comp,
    load: Load,
    me: usize,
    blocks: Vec<Block>,
}

impl CompEngine {
    /// Activates the next serial instance, hands the component's actions
    /// to the driver and decides once complete.
    fn settle(&mut self, mut acts: Actions, out: &mut EngineOut) {
        self.comp.poll_serial(self.load, &mut acts);
        out.absorb(SESSION, &mut acts);
        if self.blocks.is_empty() && self.comp.is_complete(self.load) {
            self.blocks.push(Block { epoch: 0, txs: Vec::new() });
        }
    }
}

impl Engine for CompEngine {
    fn start(&mut self, out: &mut EngineOut) {
        let mut acts = Actions::new();
        self.comp.start(self.load, self.me, &mut acts);
        self.settle(acts, out);
    }

    fn handle(&mut self, _session: u64, from: usize, body: &Body, out: &mut EngineOut) {
        let mut acts = Actions::new();
        self.comp.handle(from, &wbft_net::join(body, RIG_NODES), &mut acts);
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

/// One run of the component rig: a component, its packing, its load and
/// the seed, on a 4-node single-hop LoRa network.
#[derive(Clone, Copy, Debug)]
pub struct RigPoint {
    /// The component, by the label a figure prints: `RBC`, `RBC-small`,
    /// `CBC`, `CBC-small`, `PRBC`, `ABA-LC`, `ABA-SC` or `ABA-CP`.
    pub comp: &'static str,
    /// Batched ([`Packing::Combined`]) or the baseline
    /// ([`Packing::PerInstance`]).
    pub packing: Packing,
    /// What the nodes feed it.
    pub load: Load,
    /// Simulation seed.
    pub seed: u64,
}

/// Result of one component experiment.
#[derive(Clone, Copy, Debug)]
pub struct CompResult {
    /// Time until the slowest node completed.
    pub latency: SimDuration,
    /// Mean channel accesses per node at completion.
    pub accesses_per_node: f64,
    /// Nominal bytes all nodes put on the air, as the simulator counts them.
    pub air_bytes: u64,
    /// Whether all nodes completed before the deadline.
    pub completed: bool,
}

/// Runs one component experiment.
///
/// # Panics
///
/// On a component label [`RigPoint::comp`] does not list, a load the
/// component cannot take, or if a node's driver dropped a send whose body
/// does not encode.
pub fn run_component(point: &RigPoint) -> CompResult {
    use rand::SeedableRng;
    let RigPoint { comp, packing, load, seed } = *point;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xbe9c);
    let crypto = deal_node_crypto(RIG_NODES, CryptoSuite::light(), &mut rng);
    let nodes: Vec<ProtocolNode<CompEngine>> = crypto
        .into_iter()
        .enumerate()
        .map(|(me, c)| {
            let p = Params::new(RIG_NODES, me, SESSION).packed(packing);
            let comp = Comp::build(comp, load, &c, p);
            let engine = CompEngine { comp, load, me, blocks: Vec::new() };
            ProtocolNode::new(engine, c, ChannelId(0))
        })
        .collect();
    let cfg = SimConfig { seed, ..SimConfig::default() };
    let mut sim = Simulator::new(cfg, Topology::single_hop(RIG_NODES), nodes);
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
    CompResult {
        latency,
        accesses_per_node: sim.metrics().mean_channel_accesses(),
        air_bytes: sim.metrics().total_bytes_sent(),
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

/// A value proposal of roughly `packets` LoRa frames.
fn proposal_of_packets(packets: usize, node: usize) -> Bytes {
    let len = packets * wbft_components::rbc::FRAG_BUDGET - 10;
    Bytes::from(vec![0xA0 | node as u8; len.max(8)])
}

/// One claim of the paper's evaluation and what this reproduction measured
/// for it: a row of the `figures` table.
#[derive(Clone, Debug)]
pub struct Row {
    /// The figure, which also names the grid the row reads in the reports:
    /// a `figure` of the rig report, or a sweep's directory.
    pub figure: &'static str,
    /// What is claimed.
    pub claim: String,
    /// The paper's value as this repo quotes it. `PAPER.md` holds only the
    /// title, so a quote is the repo's reference, not verified text.
    pub quote: &'static str,
    /// What was measured.
    pub measured: String,
    /// `Some(holds)` for a checked shape claim, `None` for a comparison
    /// that is reported only.
    pub holds: Option<bool>,
}

impl Row {
    /// A shape claim the `figures` program fails on when it does not hold.
    pub fn checked(
        figure: &'static str,
        claim: impl Into<String>,
        quote: &'static str,
        measured: String,
        holds: bool,
    ) -> Row {
        Row { figure, claim: claim.into(), quote, measured, holds: Some(holds) }
    }

    /// A comparison that is printed, never failed on.
    pub fn reported(
        figure: &'static str,
        claim: impl Into<String>,
        quote: &'static str,
        measured: String,
    ) -> Row {
        Row { figure, claim: claim.into(), quote, measured, holds: None }
    }
}

/// Prints every row and returns each checked row that does not hold, named
/// `"<figure>: <claim>"`.
pub fn check(rows: &[Row]) -> Vec<String> {
    let mut violated = Vec::new();
    for r in rows {
        let status = match r.holds {
            Some(true) => "ok",
            Some(false) => "VIOLATED",
            None => "reported",
        };
        println!("{status:>8}  {:<7} {}: {} (paper: {})", r.figure, r.claim, r.measured, r.quote);
        if r.holds == Some(false) {
            violated.push(format!("{}: {}", r.figure, r.claim));
        }
    }
    violated
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_checker_names_every_violated_checked_row_and_no_reported_one() {
        let rows = [
            Row::checked("fig11a", "A below B", "below", "1 < 2".into(), true),
            Row::checked("fig11a", "C below D", "below", "3 > 2".into(), false),
            Row::reported("fig12b", "E below F", "below", "5 > 4 (inverted)".into()),
            Row::checked("fig13b", "G completes", "—", "0 / 8".into(), false),
        ];
        assert_eq!(check(&rows), ["fig11a: C below D", "fig13b: G completes"]);
        assert!(check(&rows[2..3]).is_empty(), "a reported row never fails");
    }
}
