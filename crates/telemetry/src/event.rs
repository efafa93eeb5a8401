//! Structured journal records: a fixed event taxonomy with typed fields.
//!
//! The taxonomy is deliberately closed (an enum, not free-form strings) so
//! downstream tooling can rely on the set of kinds an emitter may produce,
//! and so a typo in an instrumentation site is a compile error.

use serde::Value;

/// The fixed event taxonomy. One variant per instrumented subsystem action.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventKind {
    /// A BGP decision process changed a device's advertised best path.
    BgpDecision,
    /// An RPA document was installed, replaced, or removed on a device.
    RpaInstall,
    /// An RPA Path Selection statement applied but no path set matched:
    /// the daemon fell back to native selection.
    RpaEvalFallback,
    /// One topology-safe deployment wave was issued and converged.
    SequencerWave,
    /// A controller health check ran.
    HealthCheck,
    /// A BGP session came up, went down, or was unconfigured.
    SessionTransition,
    /// The fault plan dropped a control-plane message.
    FaultInjected,
    /// A Switch Agent RPC missed its deadline and was re-issued with
    /// backoff.
    RpcRetry,
    /// A device's circuit breaker opened after consecutive RPC failures:
    /// the agent is marked degraded until the cooldown elapses.
    CircuitOpen,
    /// A BGP UPDATE announcing the traced prefix arrived at a device.
    UpdateReceived,
    /// An UPDATE withdrawing the traced prefix arrived at a device.
    WithdrawReceived,
    /// An event changed a device's Adj-RIB-In size for the traced prefix.
    AdjRibInChanged,
    /// An event flipped a device's decision for the traced prefix.
    DecisionFlip,
    /// An event changed a device's FIB entry for the traced prefix.
    FibDelta,
}

impl EventKind {
    /// Stable name used in the JSON-lines export.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::BgpDecision => "BgpDecision",
            EventKind::RpaInstall => "RpaInstall",
            EventKind::RpaEvalFallback => "RpaEvalFallback",
            EventKind::SequencerWave => "SequencerWave",
            EventKind::HealthCheck => "HealthCheck",
            EventKind::SessionTransition => "SessionTransition",
            EventKind::FaultInjected => "FaultInjected",
            EventKind::RpcRetry => "RpcRetry",
            EventKind::CircuitOpen => "CircuitOpen",
            EventKind::UpdateReceived => "UpdateReceived",
            EventKind::WithdrawReceived => "WithdrawReceived",
            EventKind::AdjRibInChanged => "AdjRibInChanged",
            EventKind::DecisionFlip => "DecisionFlip",
            EventKind::FibDelta => "FibDelta",
        }
    }

    /// Whether the kind is a step of a traced prefix's causal history: the
    /// five kinds the simulator records for an armed prefix, plus
    /// `RpaInstall`, which doubles as the chain's RPA step. Route provenance
    /// is the journal filtered by this.
    pub fn is_provenance(&self) -> bool {
        matches!(
            self,
            EventKind::UpdateReceived
                | EventKind::WithdrawReceived
                | EventKind::RpaInstall
                | EventKind::AdjRibInChanged
                | EventKind::DecisionFlip
                | EventKind::FibDelta
        )
    }
}

/// Record severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// High-volume diagnostics (per-decision, per-message).
    Debug,
    /// Normal lifecycle events.
    Info,
    /// Something degraded (a failed check, an injected fault).
    Warn,
    /// Something broke.
    Error,
}

impl Severity {
    /// Stable name used in the JSON-lines export.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            Severity::Debug => "debug",
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }
}

/// A typed field value. Conversions exist from the common primitives so
/// instrumentation sites read `.field("wave", i)`.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// Text.
    Str(String),
}

impl FieldValue {
    fn to_json(&self) -> Value {
        match self {
            FieldValue::U64(v) => Value::Int(*v as i128),
            FieldValue::I64(v) => Value::Int(*v as i128),
            FieldValue::F64(v) => Value::Float(*v),
            FieldValue::Bool(v) => Value::Bool(*v),
            FieldValue::Str(v) => Value::Str(v.clone()),
        }
    }

    /// The contained unsigned integer, if this is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            FieldValue::U64(v) => Some(*v),
            FieldValue::I64(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The contained string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            FieldValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

macro_rules! field_from {
    ($($ty:ty => $variant:ident as $cast:ty),+ $(,)?) => {
        $(impl From<$ty> for FieldValue {
            fn from(v: $ty) -> Self {
                FieldValue::$variant(v as $cast)
            }
        })+
    };
}

field_from!(
    u8 => U64 as u64, u16 => U64 as u64, u32 => U64 as u64, u64 => U64 as u64,
    usize => U64 as u64,
    i8 => I64 as i64, i16 => I64 as i64, i32 => I64 as i64, i64 => I64 as i64,
    f32 => F64 as f64, f64 => F64 as f64,
);

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// One journal record: a timestamped, severity-tagged event with typed
/// key/value fields. Field keys are `&'static str` so building an event
/// allocates only for string values.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Simulated time of the event, in microseconds.
    pub time_us: u64,
    /// Taxonomy kind.
    pub kind: EventKind,
    /// Severity.
    pub severity: Severity,
    /// Typed payload, in insertion order.
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl Event {
    /// A bare event at `time_us`.
    pub fn new(kind: EventKind, severity: Severity, time_us: u64) -> Self {
        Event {
            time_us,
            kind,
            severity,
            fields: Vec::new(),
        }
    }

    /// Builder-style field append.
    pub fn field(mut self, key: &'static str, value: impl Into<FieldValue>) -> Self {
        self.fields.push((key, value.into()));
        self
    }

    /// Look a field up by key.
    pub fn get(&self, key: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// The event as a JSON object (one journal line).
    pub(crate) fn to_json(&self) -> Value {
        let mut fields = serde::Map::new();
        for (k, v) in &self.fields {
            fields.insert((*k).to_string(), v.to_json());
        }
        let mut obj = serde::Map::new();
        obj.insert("t_us".to_string(), Value::Int(self.time_us as i128));
        obj.insert("kind".to_string(), Value::Str(self.kind.name().to_string()));
        obj.insert(
            "severity".to_string(),
            Value::Str(self.severity.name().to_string()),
        );
        obj.insert("fields".to_string(), Value::Object(fields));
        Value::Object(obj)
    }
}

impl serde::Serialize for Event {
    fn serialize(&self) -> Value {
        self.to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_lookup() {
        let ev = Event::new(EventKind::SequencerWave, Severity::Info, 42)
            .field("wave", 3usize)
            .field("layer", "fsw")
            .field("ok", true);
        assert_eq!(ev.get("wave").and_then(FieldValue::as_u64), Some(3));
        assert_eq!(ev.get("layer").and_then(FieldValue::as_str), Some("fsw"));
        assert_eq!(ev.get("missing"), None);
    }

    #[test]
    fn json_shape_is_stable() {
        let ev = Event::new(EventKind::HealthCheck, Severity::Warn, 7).field("failures", 2u64);
        let line = serde_json::to_string(&ev).unwrap();
        assert!(line.contains("\"kind\":\"HealthCheck\""), "{line}");
        assert!(line.contains("\"severity\":\"warn\""), "{line}");
        assert!(line.contains("\"t_us\":7"), "{line}");
        assert!(line.contains("\"failures\":2"), "{line}");
    }

    /// Every kind.
    const ALL: [EventKind; 14] = [
        EventKind::BgpDecision,
        EventKind::RpaInstall,
        EventKind::RpaEvalFallback,
        EventKind::SequencerWave,
        EventKind::HealthCheck,
        EventKind::SessionTransition,
        EventKind::FaultInjected,
        EventKind::RpcRetry,
        EventKind::CircuitOpen,
        EventKind::UpdateReceived,
        EventKind::WithdrawReceived,
        EventKind::AdjRibInChanged,
        EventKind::DecisionFlip,
        EventKind::FibDelta,
    ];

    #[test]
    fn taxonomy_names_are_unique() {
        let names: std::collections::BTreeSet<_> = ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), ALL.len());
        let provenance = ALL.iter().filter(|k| k.is_provenance());
        assert_eq!(provenance.count(), 6);
    }
}
