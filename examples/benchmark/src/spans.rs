//! In-memory spans of the traced pass, their self-time arithmetic, and the
//! trace file written when the benchmark ends.
//!
//! Spans come from the benchmark's own files, around the calls into each
//! layer: `run` → `sim.loop` | `udp.node` → `node.callback`. Spans *inside*
//! the program are a later change (ROADMAP "trace spine").

use crate::timed::{Call, CallKind};
use std::io::Write;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Free-form detail (`hb-sc seed 3`), only on coarse spans.
    pub label: String,
    pub node: Option<u16>,
    pub kind: Option<CallKind>,
    pub epoch: Option<u32>,
}

/// The spans of one traced pass; a span's id is its index.
#[derive(Debug, Default)]
pub struct Trace {
    pub spans: Vec<Span>,
}

impl Trace {
    /// Adds a coarse span and returns its id.
    pub fn add(
        &mut self,
        parent: Option<u32>,
        name: &'static str,
        label: String,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        self.spans.push(Span {
            parent,
            name,
            start_ns,
            end_ns,
            label,
            node: None,
            kind: None,
            epoch: None,
        });
        (self.spans.len() - 1) as u32
    }

    /// Adds one `node.callback` span per timed call of `node`.
    pub fn add_calls(&mut self, parent: u32, node: u16, calls: &[Call]) {
        self.spans.extend(calls.iter().map(|c| Span {
            parent: Some(parent),
            name: "node.callback",
            start_ns: c.start_ns,
            end_ns: c.start_ns + c.dur_ns,
            label: String::new(),
            node: Some(node),
            kind: Some(c.kind),
            epoch: Some(c.epoch),
        }));
    }

    /// Largest relative gap, over `lanes`, between a lane root's duration
    /// and the self times summed over its subtree, in percent. It is zero
    /// when spans nest cleanly; overlap or a child outside its parent shows
    /// up here.
    pub fn self_sum_error_pct(&self, lanes: &[u32]) -> f64 {
        let selfs = self_times(&self.spans);
        // Every span's lane is its closest ancestor (or itself) in `lanes`;
        // parents are always added before children, so one forward pass
        // resolves them.
        let mut lane_of: Vec<Option<u32>> = vec![None; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            lane_of[i] = if lanes.contains(&(i as u32)) {
                Some(i as u32)
            } else {
                s.parent.and_then(|p| lane_of[p as usize])
            };
        }
        lanes
            .iter()
            .map(|&lane| {
                let root = &self.spans[lane as usize];
                let duration = (root.end_ns - root.start_ns) as f64;
                let summed: u64 = lane_of
                    .iter()
                    .zip(&selfs)
                    .filter(|(l, _)| **l == Some(lane))
                    .map(|(_, s)| *s)
                    .sum();
                if duration == 0.0 {
                    0.0
                } else {
                    (summed as f64 - duration).abs() / duration * 100.0
                }
            })
            .fold(0.0, f64::max)
    }

    /// Writes the trace as one JSON document: span rows are
    /// `[id, parent, name, start_ns, dur_ns, node, kind, epoch, label]`
    /// with `-1`/`""` for absent fields.
    pub fn write(&self, path: &std::path::Path, workload: &str, seed: u64) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"clock\":\"ns since trace origin\",\
             \"columns\":[\"id\",\"parent\",\"name\",\"start_ns\",\"dur_ns\",\"node\",\"kind\",\
             \"epoch\",\"label\"],\"spans\":["
        )?;
        for (id, s) in self.spans.iter().enumerate() {
            let sep = if id + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "[{id},{},\"{}\",{},{},{},\"{}\",{},\"{}\"]{sep}",
                s.parent.map_or(-1, i64::from),
                s.name,
                s.start_ns,
                s.end_ns - s.start_ns,
                s.node.map_or(-1, i64::from),
                s.kind.map_or("", CallKind::label),
                s.epoch.map_or(-1, i64::from),
                s.label,
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover (their union, clipped to the parent, so
/// concurrent children are not subtracted twice).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let start = s.start_ns.clamp(parent.start_ns, parent.end_ns);
            let end = s.end_ns.clamp(parent.start_ns, parent.end_ns);
            children[p as usize].push((start, end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let from = start.max(reach);
                if end > from {
                    covered += end - from;
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}
