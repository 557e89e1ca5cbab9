//! File and crate classification: which rules apply where.
//!
//! The workspace splits into zones with different invariant burdens:
//!
//! * **Deterministic crates** (`crypto`, `net`, `wireless`, `components`,
//!   `core`, `journal`, `report`): the simulation/verification path. Byte-
//!   identical parallel sweeps and replayable fuzz fixtures depend on these
//!   never reading wall clocks, ambient randomness, or mutating the process
//!   environment (D1), and never letting unordered-map iteration reach
//!   protocol behavior (D2).
//! * **Protocol paths** (`components`, `net`, `journal`, `transport`, and
//!   the engine/driver/service files of `core`): a panic here aborts a node
//!   mid-protocol, so `unwrap`/`expect`/`panic!` are denied (T1).
//! * **Wire/sync codec paths** (`net`, `journal`, the `transport` codecs,
//!   and the journal payload codec in `core`): these parse bytes an
//!   adversary controls, so direct slice indexing (T1) and unchecked
//!   narrowing casts or raw reserved-channel literals (W1) are denied.
//! * **Harness code** (`bench`, the sweep/fuzz/testbed files of `core`,
//!   examples, shims): exempt — benches time with real clocks, the harness
//!   deliberately panics early on bad axes, shims mirror external APIs.
//!
//! Test code (files under a `tests/` directory and `#[cfg(test)]` regions,
//! which [`test_scopes`] tracks brace-aware down to the token) is exempt
//! from everything: an `unwrap` in a test is the assertion.

use crate::lexer::{Token, TokenKind};

/// Where a file sits in the workspace.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Zone {
    /// `crates/<name>/src/**` production code.
    CrateSrc,
    /// A `tests/` tree (crate-level or workspace-level).
    Tests,
    /// `crates/bench/benches/**`.
    Benches,
    /// `examples/**`.
    Examples,
    /// `shims/**`.
    Shims,
    /// The facade `src/**` at the workspace root.
    Facade,
    /// Anything else (build scripts, stray files).
    Other,
}

/// Classification of one `.rs` file, derived purely from its path.
#[derive(Clone, Debug)]
pub struct FileInfo {
    /// Workspace-relative path with `/` separators.
    pub rel_path: String,
    /// Short crate id: the directory under `crates/` (`"core"`, `"net"`, …),
    /// `"wbft"` for the facade, `"shim:<name>"` for shims, `""` otherwise.
    pub crate_id: String,
    /// Which zone the file sits in.
    pub zone: Zone,
}

/// Crates whose behavior must be a pure function of config + seed.
pub const DETERMINISTIC_CRATES: [&str; 7] =
    ["crypto", "net", "wireless", "components", "core", "journal", "report"];

/// `core` files that are protocol path (engines, driver, service, recovery)
/// rather than harness (sweep, fuzz, testbed, report, netrun, …).
pub const CORE_PROTOCOL_FILES: [&str; 7] = [
    "engine.rs",
    "honeybadger.rs",
    "dumbo.rs",
    "protocol.rs",
    "driver.rs",
    "recovery.rs",
    "service.rs",
];

/// `transport` files that are wire codecs (vs. the IO runtime).
pub const TRANSPORT_CODEC_FILES: [&str; 3] = ["client.rs", "sync.rs", "config.rs"];

impl FileInfo {
    /// Classifies a workspace-relative path (`/`-separated).
    pub fn classify(rel_path: &str) -> FileInfo {
        let parts: Vec<&str> = rel_path.split('/').collect();
        let (crate_id, zone) = match parts.as_slice() {
            ["crates", name, "src", ..] => ((*name).to_string(), Zone::CrateSrc),
            ["crates", name, "tests", ..] => ((*name).to_string(), Zone::Tests),
            ["crates", name, "benches", ..] => ((*name).to_string(), Zone::Benches),
            ["crates", name, ..] => ((*name).to_string(), Zone::Other),
            ["shims", name, ..] => (format!("shim:{name}"), Zone::Shims),
            ["src", ..] => ("wbft".to_string(), Zone::Facade),
            ["tests", ..] => ("wbft".to_string(), Zone::Tests),
            ["examples", ..] => ("wbft".to_string(), Zone::Examples),
            _ => (String::new(), Zone::Other),
        };
        FileInfo { rel_path: rel_path.to_string(), crate_id, zone }
    }

    fn file_name(&self) -> &str {
        self.rel_path.rsplit('/').next().unwrap_or(&self.rel_path)
    }

    fn in_core_protocol(&self) -> bool {
        self.crate_id == "core" && CORE_PROTOCOL_FILES.contains(&self.file_name())
    }

    /// D1 determinism: no wall clock / ambient randomness / env mutation.
    pub fn d1_applies(&self) -> bool {
        self.zone == Zone::CrateSrc && DETERMINISTIC_CRATES.contains(&self.crate_id.as_str())
    }

    /// D2 ordered-state: no `HashMap`/`HashSet` where iteration can reach
    /// protocol behavior. Same scope as D1 — in a deterministic crate any
    /// unordered container is a latent leak, and the justified-allow pragma
    /// covers the few provably iteration-free uses.
    pub fn d2_applies(&self) -> bool {
        self.d1_applies()
    }

    /// T1 (panic family): no `unwrap`/`expect`/`panic!`/`unreachable!`/
    /// `todo!`/`unimplemented!` on protocol paths.
    pub fn t1_panic_applies(&self) -> bool {
        if self.zone != Zone::CrateSrc {
            return false;
        }
        matches!(self.crate_id.as_str(), "components" | "net" | "journal" | "transport")
            || self.in_core_protocol()
    }

    /// T1 (indexing): no direct slice indexing where adversarial bytes are
    /// parsed — the wire/sync codec paths.
    pub fn t1_index_applies(&self) -> bool {
        if self.zone != Zone::CrateSrc {
            return false;
        }
        match self.crate_id.as_str() {
            "net" | "journal" => true,
            "transport" => TRANSPORT_CODEC_FILES.contains(&self.file_name()),
            "core" => self.file_name() == "recovery.rs",
            _ => false,
        }
    }

    /// W1 wire-safety: no unchecked narrowing casts, no raw reserved-channel
    /// byte literals, in codec/transport code.
    pub fn w1_applies(&self) -> bool {
        if self.zone != Zone::CrateSrc {
            return false;
        }
        matches!(self.crate_id.as_str(), "net" | "transport" | "journal")
            || (self.crate_id == "core" && self.file_name() == "recovery.rs")
    }

    /// Whether any pass reads this file at all (W0 roots are handled
    /// separately at the workspace level).
    pub fn any_rule_applies(&self) -> bool {
        self.d1_applies() || self.t1_panic_applies() || self.t1_index_applies() || self.w1_applies()
    }
}

/// Finds `#[cfg(test)]`-gated scopes in a significant-token stream, as
/// inclusive index ranges into `sig`.
///
/// Matches any `#[cfg(…)]` attribute whose argument mentions `test`, then
/// extends the scope over the following item: past any further attributes,
/// to the matching `}` of the item's first top-level brace (a `mod tests {…}`
/// or `fn …() {…}`), or to the terminating `;` for brace-less items. The
/// scope is *token-exact* — it ends at the module's real closing brace, so
/// production tokens sharing a line with a test region are still linted
/// (and test tokens sharing a line with production code stay exempt).
pub fn test_scopes(sig: &[&Token<'_>]) -> Vec<(usize, usize)> {
    let mut scopes = Vec::new();
    let mut i = 0;
    while i < sig.len() {
        if sig[i].punct() == Some('#')
            && i + 1 < sig.len()
            && sig[i + 1].punct() == Some('[')
            && i + 2 < sig.len()
            && sig[i + 2].kind == TokenKind::Ident
            && (sig[i + 2].text == "cfg" || sig[i + 2].text == "cfg_attr")
        {
            let (attr_end, mentions_test) = scan_attribute(sig, i + 1);
            if mentions_test {
                let end = item_end(sig, attr_end + 1);
                scopes.push((i, end));
                i = end + 1;
                continue;
            }
            i = attr_end + 1;
            continue;
        }
        i += 1;
    }
    scopes
}

/// `true` if significant-token index `i` falls inside any test scope.
pub fn in_scopes(scopes: &[(usize, usize)], i: usize) -> bool {
    scopes.iter().any(|&(a, b)| (a..=b).contains(&i))
}

/// The line-granular projection of [`test_scopes`] (inclusive 1-based line
/// ranges). Only for constructs that live in comments — pragmas — which
/// have no significant-token index; token-level passes use the scopes
/// directly.
pub fn test_line_ranges(tokens: &[Token<'_>]) -> Vec<(u32, u32)> {
    let sig: Vec<&Token<'_>> = tokens.iter().filter(|t| t.is_significant()).collect();
    test_scopes(&sig)
        .into_iter()
        .map(|(a, b)| (sig[a].line, sig.get(b).map_or(sig[a].line, |t| t.line)))
        .collect()
}

/// Scans a `[` … `]` attribute starting at the `[`; returns the index of the
/// closing `]` (or the last token) and whether a bare `test` ident appears.
fn scan_attribute(sig: &[&Token<'_>], open: usize) -> (usize, bool) {
    let mut depth = 0i32;
    let mut mentions_test = false;
    let mut i = open;
    while i < sig.len() {
        match sig[i].punct() {
            Some('[') => depth += 1,
            Some(']') => {
                depth -= 1;
                if depth == 0 {
                    return (i, mentions_test);
                }
            }
            _ => {
                if sig[i].kind == TokenKind::Ident && sig[i].text == "test" {
                    mentions_test = true;
                }
            }
        }
        i += 1;
    }
    (sig.len().saturating_sub(1), mentions_test)
}

/// Finds the end of the item starting at `i` (after its cfg attribute):
/// skips further attributes, then runs to the matching close of the first
/// top-level `{`, or to a `;` reached before any `{`.
fn item_end(sig: &[&Token<'_>], mut i: usize) -> usize {
    // Skip stacked attributes.
    while i + 1 < sig.len() && sig[i].punct() == Some('#') && sig[i + 1].punct() == Some('[') {
        let (end, _) = scan_attribute(sig, i + 1);
        i = end + 1;
    }
    // Find the item's first `{` outside parens/brackets, or a bare `;`.
    let mut paren = 0i32;
    while i < sig.len() {
        match sig[i].punct() {
            Some('(') | Some('[') => paren += 1,
            Some(')') | Some(']') => paren -= 1,
            Some('{') if paren <= 0 => break,
            Some(';') if paren <= 0 => return i,
            _ => {}
        }
        i += 1;
    }
    // Match braces to the item's end.
    let mut depth = 0i32;
    while i < sig.len() {
        match sig[i].punct() {
            Some('{') => depth += 1,
            Some('}') => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
        i += 1;
    }
    sig.len().saturating_sub(1)
}

/// `true` if `line` falls inside any of the (inclusive) ranges.
pub fn in_ranges(ranges: &[(u32, u32)], line: u32) -> bool {
    ranges.iter().any(|&(a, b)| (a..=b).contains(&line))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn zones_from_paths() {
        let f = FileInfo::classify("crates/components/src/cbc.rs");
        assert_eq!(f.zone, Zone::CrateSrc);
        assert_eq!(f.crate_id, "components");
        assert!(f.d1_applies() && f.t1_panic_applies());
        assert!(!f.t1_index_applies() && !f.w1_applies());

        let f = FileInfo::classify("crates/net/src/wire.rs");
        assert!(f.d1_applies() && f.t1_panic_applies() && f.t1_index_applies() && f.w1_applies());

        let f = FileInfo::classify("crates/transport/src/runtime.rs");
        assert!(!f.d1_applies(), "transport needs the real clock");
        assert!(f.t1_panic_applies() && !f.t1_index_applies() && f.w1_applies());

        let f = FileInfo::classify("crates/transport/src/client.rs");
        assert!(f.t1_index_applies());

        let f = FileInfo::classify("crates/core/src/sweep.rs");
        assert!(f.d1_applies() && !f.t1_panic_applies(), "harness may panic early");
        let f = FileInfo::classify("crates/core/src/honeybadger.rs");
        assert!(f.t1_panic_applies());
        let f = FileInfo::classify("crates/core/src/recovery.rs");
        assert!(f.t1_index_applies() && f.w1_applies());

        for p in [
            "crates/components/tests/proptests.rs",
            "tests/agreement.rs",
            "examples/sweep.rs",
            "crates/bench/benches/fig13_consensus.rs",
            "shims/rand/src/lib.rs",
        ] {
            let f = FileInfo::classify(p);
            assert!(!f.any_rule_applies(), "{p} must be exempt");
        }
    }

    #[test]
    fn cfg_test_mod_region() {
        let src = "fn prod() {}\n\n#[cfg(test)]\nmod tests {\n    fn a() {}\n    fn b() {}\n}\nfn prod2() {}\n";
        let toks = lex(src);
        let ranges = test_line_ranges(&toks);
        assert_eq!(ranges, vec![(3, 7)]);
        assert!(!in_ranges(&ranges, 1));
        assert!(in_ranges(&ranges, 5));
        assert!(!in_ranges(&ranges, 8));
    }

    #[test]
    fn cfg_test_on_statement_and_fn() {
        let src = "#[cfg(test)]\nuse foo::bar;\n#[cfg(test)]\n#[allow(dead_code)]\nfn helper(x: [u8; 2]) {\n    body();\n}\nfn prod() {}\n";
        let ranges = test_line_ranges(&lex(src));
        assert_eq!(ranges, vec![(1, 2), (3, 7)]);
        assert!(!in_ranges(&ranges, 8));
    }

    #[test]
    fn cfg_without_test_ignored() {
        let src = "#[cfg(feature = \"x\")]\nmod m {\n    fn f() {}\n}\n";
        assert!(test_line_ranges(&lex(src)).is_empty());
    }

    #[test]
    fn cfg_any_test_counts() {
        let src = "#[cfg(any(test, feature = \"slow\"))]\nmod m {\n    fn f() {}\n}\n";
        assert_eq!(test_line_ranges(&lex(src)), vec![(1, 4)]);
    }

    #[test]
    fn scopes_end_at_the_real_closing_brace() {
        // Production tokens after the test module's `}` — even on the same
        // line — are outside the scope; the line projection still covers
        // the whole line for the comment-level (pragma) consumers.
        let src = "#[cfg(test)]\nmod tests { fn f() {} } fn prod() {}\n";
        let toks = lex(src);
        let sig: Vec<_> = toks.iter().filter(|t| t.is_significant()).collect();
        let scopes = test_scopes(&sig);
        assert_eq!(scopes.len(), 1);
        let (a, b) = scopes[0];
        assert_eq!(sig[a].punct(), Some('#'));
        assert_eq!(sig[b].punct(), Some('}'));
        assert!(in_scopes(&scopes, a) && in_scopes(&scopes, b));
        assert!(!in_scopes(&scopes, b + 1), "prod tokens are outside the scope");
        assert_eq!(sig[b + 1].text, "fn");
        assert_eq!(test_line_ranges(&toks), vec![(1, 2)]);
    }

    #[test]
    fn braces_in_strings_do_not_confuse_matching() {
        let src = "#[cfg(test)]\nmod tests {\n    const S: &str = \"}}}{{{\";\n    fn f() {}\n}\nfn prod() {}\n";
        let ranges = test_line_ranges(&lex(src));
        assert_eq!(ranges, vec![(1, 5)]);
        assert!(!in_ranges(&ranges, 6));
    }
}
