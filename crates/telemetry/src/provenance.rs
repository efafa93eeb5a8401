//! Per-prefix route provenance: the causal trace behind a FIB entry.
//!
//! Aggregate counters say *how much* churn a convergence run produced;
//! provenance says *why one prefix* ended up with the routes it has. When
//! tracing is armed for a prefix, the simulator appends one
//! [`ProvenanceRecord`] per causal step — an UPDATE arriving, an RPA policy
//! install, the Adj-RIB-In change it produced, the decision flip, and the
//! FIB delta — each stamped with the simulated time and the device it
//! happened on. The chain is queryable after the run ([`ProvenanceLog::records`])
//! and exportable as JSON lines ([`ProvenanceLog::export_jsonl`]), one
//! object per record, for offline joins against a Chrome trace.
//!
//! The types here are deliberately primitive (device ids as `u32`, prefixes
//! as display strings): `telemetry` sits below `bgp` in the crate DAG, so it
//! cannot name `Prefix` or `DeviceId` — the simulator renders them at the
//! recording site, which is off the hot path by construction (provenance is
//! opt-in).

use parking_lot::Mutex;
use serde::Value;
use std::io::{self, Write};

/// What kind of causal step a record captures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProvenanceKind {
    /// A BGP UPDATE for the traced prefix arrived at a device.
    UpdateReceived,
    /// An UPDATE withdrawing the traced prefix arrived at a device.
    WithdrawReceived,
    /// An RPA policy apply touched the traced prefix on a device.
    RpaApplied,
    /// The device's Adj-RIB-In for the prefix changed size.
    AdjRibInChanged,
    /// The decision process flipped the best route for the prefix.
    DecisionFlip,
    /// The device's FIB entry for the prefix changed.
    FibDelta,
}

impl ProvenanceKind {
    /// Stable wire name, used for JSONL export and query filters.
    pub fn as_str(&self) -> &'static str {
        match self {
            ProvenanceKind::UpdateReceived => "update_received",
            ProvenanceKind::WithdrawReceived => "withdraw_received",
            ProvenanceKind::RpaApplied => "rpa_applied",
            ProvenanceKind::AdjRibInChanged => "adj_rib_in_changed",
            ProvenanceKind::DecisionFlip => "decision_flip",
            ProvenanceKind::FibDelta => "fib_delta",
        }
    }
}

/// One causal step in a traced prefix's history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProvenanceRecord {
    /// Monotonic sequence number, assigned at append (total causal order).
    pub seq: u64,
    /// Simulated time of the step, in microseconds.
    pub time_us: u64,
    /// Device the step happened on.
    pub device: u32,
    /// Step kind.
    pub kind: ProvenanceKind,
    /// Peer the triggering message came from, when the step has one
    /// (UPDATE/withdraw arrivals).
    pub from_peer: Option<u32>,
    /// Human-readable detail: the route chosen, the RIB delta, the FIB
    /// next-hop set — whatever makes the step legible in a report.
    pub detail: String,
}

/// An append-only provenance log for one traced prefix.
#[derive(Debug)]
pub struct ProvenanceLog {
    prefix: String,
    records: Mutex<Vec<ProvenanceRecord>>,
}

impl ProvenanceLog {
    /// Start a log for `prefix` (its canonical display form).
    pub fn new(prefix: impl Into<String>) -> Self {
        ProvenanceLog {
            prefix: prefix.into(),
            records: Mutex::new(Vec::new()),
        }
    }

    /// The traced prefix, as given at construction.
    pub fn prefix(&self) -> &str {
        &self.prefix
    }

    /// Append a step; the log assigns the sequence number.
    pub fn append(
        &self,
        time_us: u64,
        device: u32,
        kind: ProvenanceKind,
        from_peer: Option<u32>,
        detail: impl Into<String>,
    ) {
        let mut records = self.records.lock();
        let seq = records.len() as u64;
        records.push(ProvenanceRecord {
            seq,
            time_us,
            device,
            kind,
            from_peer,
            detail: detail.into(),
        });
    }

    /// All recorded steps, in causal order.
    pub fn records(&self) -> Vec<ProvenanceRecord> {
        self.records.lock().clone()
    }

    /// Number of recorded steps.
    pub fn len(&self) -> usize {
        self.records.lock().len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.lock().is_empty()
    }

    /// The distinct devices the prefix's history touched, in first-seen
    /// order — the "device hops" of the causal chain.
    pub fn device_hops(&self) -> Vec<u32> {
        let mut hops = Vec::new();
        for r in self.records.lock().iter() {
            if !hops.contains(&r.device) {
                hops.push(r.device);
            }
        }
        hops
    }

    /// Export one JSON object per record (JSON lines). An empty log writes
    /// nothing — zero bytes, a valid empty JSONL document.
    pub fn export_jsonl(&self, w: &mut impl Write) -> io::Result<()> {
        for r in self.records.lock().iter() {
            let mut obj = serde::Map::new();
            obj.insert("seq".to_string(), Value::Int(r.seq as i128));
            obj.insert("prefix".to_string(), Value::Str(self.prefix.clone()));
            obj.insert("time_us".to_string(), Value::Int(r.time_us as i128));
            obj.insert("device".to_string(), Value::Int(r.device as i128));
            obj.insert("kind".to_string(), Value::Str(r.kind.as_str().to_string()));
            obj.insert(
                "from_peer".to_string(),
                match r.from_peer {
                    Some(p) => Value::Int(p as i128),
                    None => Value::Null,
                },
            );
            obj.insert("detail".to_string(), Value::Str(r.detail.clone()));
            let line = serde_json::to_string(&Value::Object(obj))
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            writeln!(w, "{line}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn appends_assign_causal_sequence() {
        let log = ProvenanceLog::new("10.0.0.0/24");
        log.append(
            100,
            1,
            ProvenanceKind::UpdateReceived,
            Some(9),
            "path [65001]",
        );
        log.append(100, 1, ProvenanceKind::DecisionFlip, None, "best -> peer 9");
        log.append(150, 2, ProvenanceKind::FibDelta, None, "nexthops {9}");
        let records = log.records();
        assert_eq!(records.len(), 3);
        assert_eq!(
            records.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!(records[0].from_peer, Some(9));
        assert_eq!(log.device_hops(), vec![1, 2]);
    }

    #[test]
    fn jsonl_export_one_object_per_line() {
        let log = ProvenanceLog::new("10.0.0.0/24");
        log.append(5, 3, ProvenanceKind::RpaApplied, None, "policy v2");
        log.append(6, 3, ProvenanceKind::AdjRibInChanged, None, "1 -> 2 routes");
        let mut buf = Vec::new();
        log.export_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first: Value = serde_json::from_str(lines[0]).unwrap();
        assert_eq!(first.get("kind").unwrap().as_str(), Some("rpa_applied"));
        assert_eq!(first.get("prefix").unwrap().as_str(), Some("10.0.0.0/24"));
        assert_eq!(first.get("from_peer").unwrap(), &Value::Null);
        assert_eq!(first.get("device").unwrap().as_i64(), Some(3));
    }

    #[test]
    fn empty_log_exports_zero_bytes() {
        let log = ProvenanceLog::new("0.0.0.0/0");
        assert!(log.is_empty());
        let mut buf = Vec::new();
        log.export_jsonl(&mut buf).unwrap();
        assert!(buf.is_empty());
    }
}
