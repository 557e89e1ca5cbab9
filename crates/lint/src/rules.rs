//! The rule registry: names, one-line summaries, and the long-form
//! explanations behind `--explain <rule>`.

/// Every rule the analyzer can report.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Hash)]
pub enum Rule {
    /// D1: wall clock, ambient randomness, env mutation in deterministic crates.
    Determinism,
    /// D2: `HashMap`/`HashSet` in deterministic crates.
    OrderedState,
    /// T1: panicking calls / direct indexing on protocol and codec paths.
    Totality,
    /// W1: narrowing casts and raw reserved-channel literals in codec code.
    WireSafety,
    /// W0: crate roots must carry `#![forbid(unsafe_code)]`.
    UnsafeCode,
    /// A malformed `wbft-lint:` comment.
    BadPragma,
    /// An allow pragma that suppressed nothing.
    UnusedAllow,
}

impl Rule {
    /// All rules, in reporting order.
    pub const ALL: [Rule; 7] = [
        Rule::Determinism,
        Rule::OrderedState,
        Rule::Totality,
        Rule::WireSafety,
        Rule::UnsafeCode,
        Rule::BadPragma,
        Rule::UnusedAllow,
    ];

    /// The stable name used in pragmas and reports.
    pub fn name(self) -> &'static str {
        match self {
            Rule::Determinism => "determinism",
            Rule::OrderedState => "ordered-state",
            Rule::Totality => "totality",
            Rule::WireSafety => "wire-safety",
            Rule::UnsafeCode => "unsafe-code",
            Rule::BadPragma => "bad-pragma",
            Rule::UnusedAllow => "unused-allow",
        }
    }

    /// Parses a rule name.
    pub fn from_name(name: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.name() == name)
    }

    /// One-line summary for the report header.
    pub fn summary(self) -> &'static str {
        match self {
            Rule::Determinism => "no wall clock, ambient randomness, or env mutation in deterministic crates",
            Rule::OrderedState => "no HashMap/HashSet in deterministic crates (use BTreeMap/BTreeSet)",
            Rule::Totality => "no unwrap/expect/panic!/unreachable! on protocol paths; no direct indexing in codecs",
            Rule::WireSafety => "no narrowing `as` casts or raw reserved-channel literals in codec code",
            Rule::UnsafeCode => "every workspace crate root carries #![forbid(unsafe_code)]",
            Rule::BadPragma => "wbft-lint pragmas must parse and carry a justification",
            Rule::UnusedAllow => "allow pragmas must suppress at least one finding",
        }
    }

    /// Long-form rationale for `--explain`.
    pub fn explain(self) -> &'static str {
        match self {
            Rule::Determinism => "\
D1 · determinism
================
Denied in the deterministic crates (crypto, net, wireless, components,
core, journal, report), outside test code:

  Instant::now        wall-clock time
  SystemTime          wall-clock time
  thread_rng          ambient OS randomness
  rand::random        ambient OS randomness
  set_var/remove_var  process-environment mutation (racy across threads)

Everything the reproduction claims — byte-identical parallel sweeps,
replayable fuzz fixtures, deterministic crash/restart recovery — holds only
if simulation behavior is a pure function of config + seed. PR 4 removed a
real set_var race from the sweep tests; this rule keeps it out.

Clocks in these crates must be SimTime, randomness must flow from a seeded
ChaCha RNG, and environment reads (std::env::var) stay legal — only
mutation is denied. The transport and bench crates are exempt: they
genuinely need the OS clock.",
            Rule::OrderedState => "\
D2 · ordered-state
==================
Denied in the deterministic crates, outside test code: HashMap and HashSet.

std's hash maps randomize iteration order per process by design. Any such
order that reaches a message, a report, or a digest breaks byte-identity
between runs — and the leak is invisible at the use site (an innocent
`for (k, v) in map` three calls away from the wire). In a deterministic
crate the safe default is an ordered container: BTreeMap/BTreeSet.

A use that provably never iterates (pure key-lookup memo caches) may carry
a justified allow:
  // wbft-lint: allow(ordered-state) — lookup-only memo, never iterated",
            Rule::Totality => "\
T1 · totality
=============
Denied on protocol paths (components, net, journal, transport, and the
core engines/driver/service/recovery), outside test code:

  .unwrap()  .expect(…)  panic!  unreachable!  todo!  unimplemented!

Additionally, on the wire/sync codec paths that parse adversary-controlled
bytes (net, journal, transport codecs, core/recovery.rs):

  direct slice indexing  v[i]  /  v[a..b]

A panic on a protocol path aborts the node mid-epoch — PRs 4–8 each
converted panicking paths to typed errors after the fact (sink truncation
asserts, two service.rs paths, …). Decode paths must use WireReader-style
checked accessors (take/get) so truncated or hostile input yields
WireError, never an abort. assert!/debug_assert! remain legal: an assert
states an invariant loudly; an unwrap hides one.

Indexing over locally-constructed state in the protocol crates (e.g.
per-instance Vecs indexed by a bounded instance id) is deliberately out of
scope — the denial targets code that touches bytes from the network.",
            Rule::WireSafety => "\
W1 · wire-safety
================
Denied in codec/transport code (net, transport, journal, core/recovery.rs),
outside test code:

  narrowing casts      expr as u8/u16/u32/i8/i16/i32
  reserved literals    255/0xff, 254/0xfe, 253/0xfd

`len() as u8` silently truncates at 256 — PR 4 replaced exactly such a bug
with the checked Sink::count8 helper. Narrowing must go through
u8::from(bool), u16::try_from(len) + a typed error, or a checked sink
helper (count8, checked_bytes_len, checked_bitmap_len).

The reserved radio channels (CONTROL_CHANNEL 0xff, CLIENT_CHANNEL 0xfe,
SYNC_CHANNEL 0xfd) must be referenced by name; a raw byte literal that
happens to equal a reserved channel is either a magic number or a bug.
The defining constants themselves carry a justified allow.",
            Rule::UnsafeCode => "\
W0 · unsafe-code
================
Every workspace crate root (crates/*/src/lib.rs, shims/*/src/lib.rs, the
facade src/lib.rs, and any src/main.rs) must carry #![forbid(unsafe_code)].

The workspace contains no unsafe today; forbid makes that a compiler
guarantee that cannot be overridden downstream in the crate. A crate that
one day genuinely needs unsafe may use #![deny(unsafe_code)] plus a
justified `// wbft-lint: allow(unsafe-code) — …` pragma at the crate root.",
            Rule::BadPragma => "\
bad-pragma
==========
A `// wbft-lint:` comment that does not parse as
  allow(<rule>[, <rule>…]) — <justification>
with a known rule name and a non-empty justification. Bare allows are
rejected on purpose: every exemption must say why it is safe.",
            Rule::UnusedAllow => "\
unused-allow
============
An allow pragma whose target line produced no finding of the allowed rule.
Stale exemptions are removed rather than accumulated — an allow that
suppresses nothing is either left over after a fix (delete it) or aimed at
the wrong line (move it).",
        }
    }
}

/// One reported violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Which rule fired.
    pub rule: Rule,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line number.
    pub line: u32,
    /// What matched — a stable token key (`"unwrap"`, `"HashMap"`,
    /// `"as u8"`, `"0xfe"`, `"Instant::now"`, `"indexing"`, …), free of
    /// line-dependent text.
    pub what: String,
}

impl core::fmt::Display for Finding {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.path, self.line, self.rule.name(), self.what)
    }
}
