//! A misspelled member is refused, not silently dropped.
//!
//! Every JSON format is one schema-table entry, and its decoder refuses a
//! member the entry does not name. Each test here takes a document, makes
//! one copy per key of every object in it with that key misspelled, and
//! checks that each copy fails to decode with an error naming the key. A
//! misspelled tag (`kind`, `mode`, `op`) leaves its object untagged, so that
//! error names the missing tag instead.

use std::path::{Path, PathBuf};
use wbft_consensus::fuzz::{decode_fixture, FuzzOutcome, FuzzVerdict};
use wbft_consensus::report::{decode_scenario, Scenario};
use wbft_crypto::hash::Digest32;
use wbft_report::{parse, FromJson, Json, JsonError, ToJson};
use wbft_transport::PeerTable;

const TAGS: [&str; 3] = ["kind", "mode", "op"];

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

fn read(name: &str) -> String {
    std::fs::read_to_string(fixture(name)).unwrap()
}

/// Every object in `j`, as the child indexes (array elements and object
/// members alike) leading to it from the root.
fn objects(j: &Json, path: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
    let children: Vec<&Json> = match j {
        Json::Obj(members) => {
            out.push(path.clone());
            members.iter().map(|(_, v)| v).collect()
        }
        Json::Arr(items) => items.iter().collect(),
        _ => return,
    };
    for (i, child) in children.into_iter().enumerate() {
        path.push(i);
        objects(child, path, out);
        path.pop();
    }
}

/// The members of the object at `path`.
fn members_at<'a>(j: &'a mut Json, path: &[usize]) -> &'a mut Vec<(String, Json)> {
    let node = path.iter().fold(j, |node, &i| match node {
        Json::Obj(members) => &mut members[i].1,
        Json::Arr(items) => &mut items[i],
        _ => unreachable!("paths only lead through containers"),
    });
    match node {
        Json::Obj(members) => members,
        _ => unreachable!("paths end at objects"),
    }
}

/// `crash` → `crahs`: the last two letters swapped.
fn misspell(key: &str) -> String {
    let mut chars: Vec<char> = key.chars().collect();
    let n = chars.len();
    if n >= 2 {
        chars.swap(n - 2, n - 1);
    }
    let swapped: String = chars.into_iter().collect();
    if swapped == key { format!("{key}x") } else { swapped }
}

/// Misspells each key of each object of `doc` in turn and checks that
/// `decode` refuses every copy by name. Returns the number of copies.
fn every_misspelling_is_refused(
    doc: &Json,
    decode: impl Fn(&Json) -> Result<(), JsonError>,
) -> usize {
    decode(doc).expect("the document as written decodes");
    let mut paths = Vec::new();
    objects(doc, &mut Vec::new(), &mut paths);
    let mut checked = 0;
    for path in paths {
        let count = members_at(&mut doc.clone(), &path).len();
        for k in 0..count {
            let mut copy = doc.clone();
            let members = members_at(&mut copy, &path);
            let key = members[k].0.clone();
            let typo = misspell(&key);
            let is_tag = TAGS.contains(&key.as_str()) && members[k].1.as_str().is_some();
            members[k].0 = typo.clone();
            let named = if is_tag { &key } else { &typo };
            let Err(err) = decode(&copy) else {
                panic!("\"{typo}\" at {path:?} was accepted");
            };
            assert!(err.0.contains(&format!("\"{named}\"")), "{typo} at {path:?}: {err}");
            checked += 1;
        }
    }
    checked
}

#[test]
fn every_member_of_a_scenario_document_is_refused_when_misspelled() {
    let doc = parse(&read("codec_every_member.json")).unwrap();
    let checked = every_misspelling_is_refused(&doc, |j| decode_scenario(&j.pretty()).map(drop));
    assert!(checked > 100, "walked only {checked} members");
}

#[test]
fn a_udp_node_report_carries_its_digest_chain_and_nothing_else() {
    let text = read("scenarios/beat.sh.secp160r1+bn158.loss-none.honest.seed7.json");
    let (label, config, report) = decode_scenario(&text).unwrap();
    let digests = vec![Digest32::of(b"block 0"), Digest32::of(b"block 1")];
    let doc = Scenario { label, config, report, block_digests: Some(digests.clone()) }.to_json();
    let back = Scenario::from_json(&doc).unwrap();
    assert_eq!(back.block_digests, Some(digests));
    every_misspelling_is_refused(&doc, |j| Scenario::from_json(j).map(drop));
}

#[test]
fn every_member_of_a_fuzz_fixture_is_refused_when_misspelled() {
    for name in ["fuzz/crash-restart.beat.json", "fuzz/membership-swap.dumbo-sc.json"] {
        let doc = parse(&read(name)).unwrap();
        every_misspelling_is_refused(&doc, |j| decode_fixture(j).map(drop));
    }
    // The two silent drops this rule closes: a crash plan that would have
    // replayed as a crash-free run, and a depth that would have run at 1.
    for (name, key, typo) in [
        ("fuzz/crash-restart.beat.json", "\"crash\"", "crahs"),
        ("fuzz/pipelined-w2.beat.json", "\"pipeline_depth\"", "pipline_depth"),
    ] {
        let text = read(name).replace(key, &format!("\"{typo}\""));
        let err = decode_fixture(&parse(&text).unwrap()).unwrap_err();
        assert!(err.0.contains(typo), "{name}: {err}");
    }
}

#[test]
fn every_member_of_an_outcome_and_a_peer_table_is_refused_when_misspelled() {
    let outcome = FuzzOutcome {
        verdict: FuzzVerdict::Stall,
        events: 400_000,
        blocks: 1,
        collisions: 3,
        chain: vec![Digest32::of(b"block 0")],
    };
    assert_eq!(FuzzOutcome::from_json(&outcome.to_json()).unwrap(), outcome);
    every_misspelling_is_refused(&outcome.to_json(), |j| FuzzOutcome::from_json(j).map(drop));
    let table = PeerTable::loopback(&[47001, 47002]);
    every_misspelling_is_refused(&table.to_json(), |j| PeerTable::from_json(j).map(drop));
}
