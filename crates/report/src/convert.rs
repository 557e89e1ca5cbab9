//! Typed conversions between domain values and [`Json`], and the schema
//! table every report, config and fixture format is stated in.
//!
//! A format is one table entry that lists its members once, in the order
//! they are written, and generates both [`ToJson`] and [`FromJson`]:
//!
//! * [`json_record!`](crate::json_record) — a struct as an object. A member
//!   is `field`, `field as "key"` when its key differs from the field name,
//!   and either may end in `= default`: the member is then omitted when it
//!   equals `default` and decodes as `default` when absent.
//! * [`json_tagged!`](crate::json_tagged) — an enum as an object whose tag
//!   member names the variant, followed by the variant's fields.
//! * [`json_name!`](crate::json_name) — a fieldless enum as its name string.
//!
//! Generated decoders refuse a member their entry does not name, so a
//! misspelled key is an error instead of a silently defaulted field.
//! Entries for the wireless and crypto configuration types live here; the
//! testbed, fuzz, transport and example formats sit next to their types.
//! The schema is documented in the README's "Running sweeps" section.
//!
//! The hand-written pairs are the values that are not records: primitives,
//! `Vec` / `Option` / pairs, [`SimDuration`] / [`SimTime`] / [`NodeId`],
//! [`Digest32`] (a hex string), [`SocketAddr`] (its string form) and
//! [`Metrics`] (built through `from_parts`).
//!
//! Conventions: durations and instants are microsecond integers with an
//! `_us` key suffix; non-finite floats encode as `null` and decode as NaN.

use crate::json::{Json, JsonError};
use std::net::SocketAddr;
use wbft_crypto::hash::Digest32;
use wbft_crypto::{CryptoSuite, EcdsaCurve, ThresholdCurve};
use wbft_wireless::{
    AdversaryConfig, CsmaParams, DmaParams, LossModel, Metrics, NodeId, NodeMetrics, RadioParams,
    SchedConfig, SchedPolicy, SimDuration, SimTime,
};

/// Encoding into a [`Json`] value.
pub trait ToJson {
    /// The JSON representation of `self`.
    fn to_json(&self) -> Json;
}

/// Decoding from a [`Json`] value.
pub trait FromJson: Sized {
    /// Reconstructs a value, with a descriptive error on schema mismatch.
    fn from_json(j: &Json) -> Result<Self, JsonError>;
}

/// The members of one object, checked against the keys its format names.
/// Generated decoders read through it.
pub struct Members<'a>(&'a Json);

impl<'a> Members<'a> {
    /// The members of `j`, which must be an object whose every key is one
    /// of `keys`.
    pub fn of(j: &'a Json, keys: &[&str]) -> Result<Self, JsonError> {
        let Json::Obj(members) = j else {
            return Err(JsonError::msg("expected object"));
        };
        match members.iter().find(|(k, _)| !keys.contains(&k.as_str())) {
            Some((k, _)) => Err(JsonError::msg(format!("unknown member \"{k}\""))),
            None => Ok(Members(j)),
        }
    }

    /// Decodes the required member `key`.
    pub fn get<T: FromJson>(&self, key: &str) -> Result<T, JsonError> {
        match self.0.get(key) {
            Some(v) => decode_member(v, key),
            None => Err(JsonError::msg(format!("missing member \"{key}\""))),
        }
    }

    /// Decodes member `key`, or `default` when it is absent.
    pub fn get_or<T: FromJson>(&self, key: &str, default: T) -> Result<T, JsonError> {
        match self.0.get(key) {
            Some(v) => decode_member(v, key),
            None => Ok(default),
        }
    }

    /// The variant name a tagged object holds under `tag`.
    pub fn tag(j: &'a Json, tag: &str) -> Result<&'a str, JsonError> {
        j.get(tag)
            .and_then(Json::as_str)
            .ok_or_else(|| JsonError::msg(format!("missing member \"{tag}\"")))
    }

    /// The value of `all` whose `name` is the string `j`.
    pub fn named<T: Copy>(
        j: &Json,
        what: &str,
        all: &[T],
        name: impl Fn(&T) -> &'static str,
    ) -> Result<T, JsonError> {
        let s = j.as_str().ok_or_else(|| JsonError::msg(format!("expected {what} name")))?;
        all.iter()
            .copied()
            .find(|v| name(v) == s)
            .ok_or_else(|| JsonError::msg(format!("unknown {what} \"{s}\"")))
    }
}

fn decode_member<T: FromJson>(v: &Json, key: &str) -> Result<T, JsonError> {
    T::from_json(v).map_err(|e| JsonError::msg(format!("in member \"{key}\": {e}")))
}

/// Generates [`ToJson`] and [`FromJson`] for structs written as objects,
/// one entry per struct: its members in the order they are written. A
/// member is `field` or `field as "key"`, optionally followed by
/// `= default` (omitted when equal to `default`, `default` when absent).
/// A plain `Option` member is always written, as `null` when `None`.
#[macro_export]
macro_rules! json_record {
    ($($ty:ident { $($field:ident $(as $key:literal)? $(= $default:expr)?),* $(,)? })*) => {$(
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Json {
                let members = [$($crate::json_record!(@put self.$field,
                    $crate::json_record!(@key $field $($key)?) $(, $default)?)),*];
                $crate::Json::Obj(members.into_iter().flatten().collect())
            }
        }

        impl $crate::FromJson for $ty {
            fn from_json(j: &$crate::Json) -> Result<Self, $crate::JsonError> {
                let m = $crate::Members::of(
                    j,
                    &[$($crate::json_record!(@key $field $($key)?)),*],
                )?;
                Ok($ty {
                    $($field: $crate::json_record!(@get m,
                        $crate::json_record!(@key $field $($key)?) $(, $default)?)?,)*
                })
            }
        }
    )*};
    (@key $field:ident) => { stringify!($field) };
    (@key $field:ident $key:literal) => { $key };
    (@put $value:expr, $key:expr) => {
        Some(($key.to_string(), $crate::ToJson::to_json(&$value)))
    };
    (@put $value:expr, $key:expr, $default:expr) => {
        ($value != $default).then(|| ($key.to_string(), $crate::ToJson::to_json(&$value)))
    };
    (@get $m:ident, $key:expr) => { $m.get($key) };
    (@get $m:ident, $key:expr, $default:expr) => { $m.get_or($key, $default) };
}

/// Generates [`ToJson`] and [`FromJson`] for enums written as tagged
/// objects: `Enum by "tag" { Variant = "name" fields, … }`, where `fields`
/// is `{}` (unit), `{ a, b }` (struct variant) or `(a)` (a one-field
/// tuple variant whose value is written under key `a`). The tag member
/// comes first, then the fields in the order listed.
#[macro_export]
macro_rules! json_tagged {
    ($($ty:ident by $tag:literal { $($variant:ident = $name:literal $fields:tt),* $(,)? })*) => {$(
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Json {
                match self {
                    $($crate::json_tagged!(@pat $variant $fields) => {
                        $crate::Json::Obj($crate::json_tagged!(@members $tag, $name, $fields))
                    })*
                }
            }
        }

        impl $crate::FromJson for $ty {
            fn from_json(j: &$crate::Json) -> Result<Self, $crate::JsonError> {
                match $crate::Members::tag(j, $tag)? {
                    $($name => $crate::json_tagged!(@get j, $tag, $variant $fields),)*
                    other => Err($crate::JsonError(format!("unknown {} \"{other}\"", $tag))),
                }
            }
        }
    )*};
    (@pat $variant:ident {}) => { Self::$variant };
    (@pat $variant:ident { $($field:ident),+ }) => { Self::$variant { $($field),+ } };
    (@pat $variant:ident ($field:ident)) => { Self::$variant($field) };
    (@members $tag:literal, $name:literal, { $($field:ident),* }) => {
        vec![
            ($tag.to_string(), $crate::Json::str($name)),
            $((stringify!($field).to_string(), $crate::ToJson::to_json($field)),)*
        ]
    };
    (@members $tag:literal, $name:literal, ($field:ident)) => {
        $crate::json_tagged!(@members $tag, $name, { $field })
    };
    (@get $j:ident, $tag:literal, $variant:ident {}) => {{
        $crate::Members::of($j, &[$tag])?;
        Ok(Self::$variant)
    }};
    (@get $j:ident, $tag:literal, $variant:ident { $($field:ident),+ }) => {{
        let m = $crate::Members::of($j, &[$tag, $(stringify!($field)),+])?;
        Ok(Self::$variant { $($field: m.get(stringify!($field))?),+ })
    }};
    (@get $j:ident, $tag:literal, $variant:ident ($field:ident)) => {{
        let m = $crate::Members::of($j, &[$tag, stringify!($field)])?;
        Ok(Self::$variant(m.get(stringify!($field))?))
    }};
}

/// Generates [`ToJson`] and [`FromJson`] for enums written as name
/// strings: `Enum: ALL => name`, where `ALL` lists every value and
/// `name(&self) -> &'static str` gives each one's string.
#[macro_export]
macro_rules! json_name {
    ($($ty:ident: $all:expr => $name:ident;)*) => {$(
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Json {
                $crate::Json::str(self.$name())
            }
        }

        impl $crate::FromJson for $ty {
            fn from_json(j: &$crate::Json) -> Result<Self, $crate::JsonError> {
                $crate::Members::named(j, stringify!($ty), &$all, |v| v.$name())
            }
        }
    )*};
}

// ------------------------------------------------------------- primitives

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        j.as_bool().ok_or_else(|| JsonError::msg("expected bool"))
    }
}

impl ToJson for u64 {
    fn to_json(&self) -> Json {
        Json::u64(*self)
    }
}

impl FromJson for u64 {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        j.as_u64().ok_or_else(|| JsonError::msg("expected unsigned integer"))
    }
}

/// Narrower unsigned integers: written as `u64`, range-checked on decode.
macro_rules! narrow_unsigned {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::u64(*self as u64)
            }
        }

        impl FromJson for $t {
            fn from_json(j: &Json) -> Result<Self, JsonError> {
                u64::from_json(j)?
                    .try_into()
                    .map_err(|_| JsonError::msg(concat!(stringify!($t), " out of range")))
            }
        }
    )*};
}

narrow_unsigned!(u8, u16, u32, usize);

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::f64(*self)
    }
}

impl FromJson for f64 {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        if j.is_null() {
            return Ok(f64::NAN); // non-finite floats encode as null
        }
        j.as_f64().ok_or_else(|| JsonError::msg("expected number or null"))
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        j.as_str().map(str::to_string).ok_or_else(|| JsonError::msg("expected string"))
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::arr(self.iter().map(ToJson::to_json))
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        j.as_arr()
            .ok_or_else(|| JsonError::msg("expected array"))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        if j.is_null() { Ok(None) } else { T::from_json(j).map(Some) }
    }
}

/// Pairs encode as two-element arrays.
impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::arr([self.0.to_json(), self.1.to_json()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        match j.as_arr() {
            Some([a, b]) => Ok((A::from_json(a)?, B::from_json(b)?)),
            _ => Err(JsonError::msg("expected two-element array")),
        }
    }
}

impl ToJson for SocketAddr {
    fn to_json(&self) -> Json {
        Json::str(self.to_string())
    }
}

impl FromJson for SocketAddr {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        let s = String::from_json(j)?;
        s.parse().map_err(|e| JsonError::msg(format!("bad socket address \"{s}\": {e}")))
    }
}

// ---------------------------------------------------------------- wireless

impl ToJson for SimDuration {
    fn to_json(&self) -> Json {
        Json::u64(self.as_micros())
    }
}

impl FromJson for SimDuration {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Ok(SimDuration::from_micros(u64::from_json(j)?))
    }
}

impl ToJson for SimTime {
    fn to_json(&self) -> Json {
        Json::u64(self.as_micros())
    }
}

impl FromJson for SimTime {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Ok(SimTime::from_micros(u64::from_json(j)?))
    }
}

impl ToJson for NodeId {
    fn to_json(&self) -> Json {
        self.0.to_json()
    }
}

impl FromJson for NodeId {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Ok(NodeId(u16::from_json(j)?))
    }
}

impl ToJson for Metrics {
    fn to_json(&self) -> Json {
        let per_node: Vec<Json> = self.iter().map(|(_, m)| m.to_json()).collect();
        Json::obj([("collisions", Json::u64(self.collisions)), ("per_node", Json::arr(per_node))])
    }
}

impl FromJson for Metrics {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        let m = Members::of(j, &["collisions", "per_node"])?;
        Ok(Metrics::from_parts(m.get("per_node")?, m.get("collisions")?))
    }
}

json_tagged! {
    LossModel by "kind" {
        None = "none" {},
        Uniform = "uniform" { p },
        PerReceiver = "per_receiver" { rates },
    }
    SchedPolicy by "kind" {
        Reorder = "reorder" { p },
        Victim = "victim" { victims },
        CoinStarve = "coin_starve" { pass },
    }
}

json_record! {
    AdversaryConfig { jitter as "jitter_us", targeted, bound as "bound_us" = None }
    SchedConfig { seed, budget as "budget_us", policy }
    RadioParams { bitrate_bps, preamble_us, max_frame_bytes }
    CsmaParams { difs_us, slot_us, cw_slots }
    DmaParams { half_buffer_bytes, alignment, interrupt_us, flush_timeout_us }
    NodeMetrics {
        channel_accesses,
        bytes_sent,
        airtime as "airtime_us",
        frames_received,
        lost_collision,
        lost_noise,
        lost_half_duplex,
        cpu_time as "cpu_time_us",
    }
}

// ------------------------------------------------------------------ crypto

impl ToJson for Digest32 {
    fn to_json(&self) -> Json {
        Json::str(hex::encode(self.0))
    }
}

impl FromJson for Digest32 {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        let s = String::from_json(j)?;
        hex::decode(&s)
            .ok()
            .and_then(|bytes| bytes.try_into().ok())
            .map(Digest32)
            .ok_or_else(|| JsonError::msg(format!("bad digest \"{s}\"")))
    }
}

json_name! {
    EcdsaCurve: EcdsaCurve::ALL => name;
    ThresholdCurve: ThresholdCurve::ALL => name;
}

json_record! {
    CryptoSuite { ecdsa, threshold }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn round_trip<T: ToJson + FromJson>(v: &T) -> T {
        let text = v.to_json().pretty();
        T::from_json(&parse(&text).unwrap()).unwrap()
    }

    #[test]
    fn loss_models_round_trip() {
        for m in [
            LossModel::None,
            LossModel::Uniform { p: 0.125 },
            LossModel::PerReceiver { rates: vec![(NodeId(2), 0.5), (NodeId(0), 0.25)] },
        ] {
            let back = round_trip(&m);
            assert_eq!(back.to_json(), m.to_json());
        }
    }

    #[test]
    fn adversary_and_params_round_trip() {
        let a = AdversaryConfig {
            jitter: Some(SimDuration::from_millis(10)),
            targeted: vec![(NodeId(3), SimDuration::from_secs(1))],
            bound: None,
        };
        assert_eq!(round_trip(&a).to_json(), a.to_json());
        assert!(
            a.to_json().get("bound_us").is_none(),
            "unset bound must stay absent for fixture byte-identity"
        );
        let bounded = AdversaryConfig { bound: Some(SimDuration::from_secs(4)), ..a.clone() };
        assert_eq!(round_trip(&bounded).to_json(), bounded.to_json());
        assert_eq!(round_trip(&bounded).bound, Some(SimDuration::from_secs(4)));
        let r = RadioParams::lora_sf7();
        assert_eq!(round_trip(&r), r);
        let c = CsmaParams::lora_class();
        assert_eq!(round_trip(&c), c);
        let d = DmaParams::unaligned();
        assert_eq!(round_trip(&d), d);
        let s = CryptoSuite::medium();
        assert_eq!(round_trip(&s), s);
    }

    #[test]
    fn sched_configs_round_trip() {
        for policy in [
            SchedPolicy::Reorder { p: 0.25 },
            SchedPolicy::Victim { victims: vec![NodeId(1), NodeId(3)] },
            SchedPolicy::CoinStarve { pass: 2 },
        ] {
            let cfg =
                SchedConfig { seed: 42, budget: SimDuration::from_secs(5), policy };
            let back = round_trip(&cfg);
            assert_eq!(back, cfg);
        }
        assert!(SchedPolicy::from_json(&parse(r#"{"kind":"drop_all"}"#).unwrap()).is_err());
    }

    #[test]
    fn metrics_round_trip() {
        let mut m = Metrics::new(2);
        m.collisions = 3;
        m.node_mut(NodeId(0)).channel_accesses = 7;
        m.node_mut(NodeId(1)).airtime = SimDuration::from_millis(42);
        let back = round_trip(&m);
        assert_eq!(back.collisions, 3);
        assert_eq!(back.node(NodeId(0)).channel_accesses, 7);
        assert_eq!(back.node(NodeId(1)).airtime, SimDuration::from_millis(42));
    }

    #[test]
    fn nan_round_trips_through_null() {
        assert_eq!(f64::NAN.to_json(), Json::Null);
        assert!(f64::from_json(&Json::Null).unwrap().is_nan());
    }

    #[test]
    fn digests_and_addresses_round_trip() {
        let d = Digest32::of(b"block");
        assert_eq!(d.to_json(), Json::str(hex::encode(d.0)));
        assert_eq!(round_trip(&d), d);
        assert!(Digest32::from_json(&Json::str("abcd")).is_err());
        let a = SocketAddr::from(([127, 0, 0, 1], 47001));
        assert_eq!(round_trip(&a), a);
        assert!(SocketAddr::from_json(&Json::str("not-an-addr")).is_err());
    }

    #[test]
    fn schema_mismatches_are_errors() {
        assert!(LossModel::from_json(&parse(r#"{"kind":"gaussian"}"#).unwrap()).is_err());
        assert!(EcdsaCurve::from_json(&Json::str("secp999r9")).is_err());
        assert!(u64::from_json(&Json::str("7")).is_err());
        assert!(NodeId::from_json(&Json::u64(1 << 40)).is_err());
        assert!(u8::from_json(&Json::u64(256)).is_err());
    }

    /// A member no entry names is refused with its key, in records, in
    /// tagged variants and in the hand-written `Metrics` decoder alike.
    #[test]
    fn unknown_members_are_refused_by_name() {
        for (text, key) in [
            (r#"{"difs_us":1,"slot_us":2,"cw_slot":3}"#, "cw_slot"),
            (r#"{"jitter_us":null,"targeted":[],"bound":5}"#, "bound"),
            (r#"{"kind":"uniform","p":0.1,"q":0.2}"#, "q"),
            (r#"{"kind":"none","p":0.1}"#, "p"),
            (r#"{"collisions":0,"per_node":[],"extra":1}"#, "extra"),
        ] {
            let j = parse(text).unwrap();
            let err = match key {
                "cw_slot" => CsmaParams::from_json(&j).map(drop),
                "bound" => AdversaryConfig::from_json(&j).map(drop),
                "extra" => Metrics::from_json(&j).map(drop),
                _ => LossModel::from_json(&j).map(drop),
            }
            .unwrap_err();
            assert!(err.0.contains(&format!("\"{key}\"")), "{text}: {err}");
        }
        // Absent defaulted members decode to their default.
        let a = AdversaryConfig::from_json(&parse(r#"{"jitter_us":null,"targeted":[]}"#).unwrap())
            .unwrap();
        assert_eq!(a.bound, None);
    }
}
