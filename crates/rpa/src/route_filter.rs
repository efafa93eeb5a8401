//! Route Filter RPA (Figure 7c): per-peer prefix allow lists.
//!
//! "Route Filter RPAs allow operators to dynamically set what prefixes can
//! be exchanged between any BGP peers without changing the routing policy or
//! path selection criteria" (§4.3). Because the fabric's origination and
//! propagation policies are deterministic, the filter is an allow list; the
//! mask-length bound prevents more-specific leaks that would "overload the
//! compute and forwarding resources in switches".

use centralium_bgp::{PeerId, Prefix};
use centralium_topology::Asn;
use serde::{Deserialize, Serialize};

/// One allow-list entry: a covering prefix plus allowed mask-length range.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PrefixFilter {
    /// Covering prefix; candidate prefixes must fall within it.
    pub prefix: Prefix,
    /// Minimum allowed mask length (inclusive).
    pub min_mask_length: u8,
    /// Maximum allowed mask length (inclusive) — the leak guard.
    pub max_mask_length: u8,
}

impl PrefixFilter {
    /// Allow exactly `prefix` (and nothing more specific).
    pub fn exact(prefix: Prefix) -> Self {
        PrefixFilter {
            prefix,
            min_mask_length: prefix.len(),
            max_mask_length: prefix.len(),
        }
    }

    /// Allow `prefix` and more-specifics up to `max_mask_length`.
    pub fn within(prefix: Prefix, max_mask_length: u8) -> Self {
        PrefixFilter {
            prefix,
            min_mask_length: prefix.len(),
            max_mask_length,
        }
    }

    /// Whether a candidate prefix passes this entry.
    pub(crate) fn allows(&self, candidate: &Prefix) -> bool {
        self.prefix.contains(candidate)
            && candidate.len() >= self.min_mask_length
            && candidate.len() <= self.max_mask_length
    }
}

/// Which peers (sessions) a statement applies to.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum PeerSignature {
    /// Specific sessions.
    Peers(Vec<PeerId>),
    /// Sessions whose remote ASN lies in this inclusive range — the natural
    /// way to say "the backbone boundary", since layers own ASN bands.
    AsnRange(Asn, Asn),
    /// Every session.
    Any,
}

impl PeerSignature {
    /// Whether the signature covers session `peer`, whose remote ASN is
    /// `remote_asn` (as the daemon configures it).
    pub(crate) fn covers(&self, peer: PeerId, remote_asn: Asn) -> bool {
        match self {
            PeerSignature::Peers(list) => list.contains(&peer),
            PeerSignature::AsnRange(lo, hi) => (*lo..=*hi).contains(&remote_asn),
            PeerSignature::Any => true,
        }
    }
}

/// One Route Filter statement: a peer signature plus directional allow lists.
/// `None` for a direction means "no filtering in that direction".
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RouteFilterStatement {
    /// Sessions covered.
    pub peer_signature: PeerSignature,
    /// Ingress allow list.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub ingress_filter: Option<Vec<PrefixFilter>>,
    /// Egress allow list.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub egress_filter: Option<Vec<PrefixFilter>>,
}

impl RouteFilterStatement {
    /// Whether `prefix` may be accepted from `peer` under this statement.
    /// Returns `None` when the statement does not constrain this direction.
    pub(crate) fn permits_ingress(&self, prefix: &Prefix) -> Option<bool> {
        self.ingress_filter
            .as_ref()
            .map(|list| list.iter().any(|f| f.allows(prefix)))
    }

    /// Whether `prefix` may be advertised to `peer` under this statement.
    pub(crate) fn permits_egress(&self, prefix: &Prefix) -> Option<bool> {
        self.egress_filter
            .as_ref()
            .map(|list| list.iter().any(|f| f.allows(prefix)))
    }
}

/// A Route Filter RPA document.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RouteFilterRpa {
    /// Document name.
    pub name: String,
    /// Statements; every statement covering a session constrains it (AND).
    pub statements: Vec<RouteFilterStatement>,
}

impl RouteFilterRpa {
    /// Whether any statement carries an egress allow list. An egress list
    /// can flip the advertisement of *every* known prefix on the covered
    /// sessions without touching the Adj-RIB-In at all, so installing or
    /// removing one forces full re-evaluation.
    pub fn constrains_egress(&self) -> bool {
        self.statements.iter().any(|s| s.egress_filter.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn exact_filter_blocks_more_specifics() {
        let f = PrefixFilter::exact(p("10.0.0.0/8"));
        assert!(f.allows(&p("10.0.0.0/8")));
        assert!(
            !f.allows(&p("10.1.0.0/16")),
            "more-specific leak must be blocked"
        );
        assert!(!f.allows(&p("11.0.0.0/8")));
    }

    #[test]
    fn within_filter_bounds_mask_length() {
        let f = PrefixFilter::within(p("10.0.0.0/8"), 16);
        assert!(f.allows(&p("10.0.0.0/8")));
        assert!(f.allows(&p("10.1.0.0/16")));
        assert!(!f.allows(&p("10.1.1.0/24")), "beyond max mask length");
    }

    #[test]
    fn peer_signature_coverage() {
        let by_peer = PeerSignature::Peers(vec![PeerId(1), PeerId(2)]);
        assert!(by_peer.covers(PeerId(1), Asn(1)));
        assert!(!by_peer.covers(PeerId(3), Asn(60000)));
        let by_asn = PeerSignature::AsnRange(Asn(60000), Asn(69999));
        assert!(by_asn.covers(PeerId(9), Asn(60005)));
        assert!(by_asn.covers(PeerId(9), Asn(60000)) && by_asn.covers(PeerId(9), Asn(69999)));
        assert!(!by_asn.covers(PeerId(9), Asn(50000)));
        assert!(!by_asn.covers(PeerId(9), Asn(70000)));
        assert!(PeerSignature::Any.covers(PeerId(42), Asn(1)));
    }

    #[test]
    fn directional_filters_are_independent() {
        let st = RouteFilterStatement {
            peer_signature: PeerSignature::Any,
            ingress_filter: Some(vec![PrefixFilter::exact(Prefix::DEFAULT)]),
            egress_filter: None,
        };
        assert_eq!(st.permits_ingress(&Prefix::DEFAULT), Some(true));
        assert_eq!(st.permits_ingress(&p("10.0.0.0/8")), Some(false));
        assert_eq!(
            st.permits_egress(&p("10.0.0.0/8")),
            None,
            "egress unconstrained"
        );
    }

    #[test]
    fn serde_roundtrip() {
        let doc = RouteFilterRpa {
            name: "dc-boundary".into(),
            statements: vec![RouteFilterStatement {
                peer_signature: PeerSignature::AsnRange(Asn(60000), Asn(69999)),
                ingress_filter: Some(vec![PrefixFilter::exact(Prefix::DEFAULT)]),
                egress_filter: Some(vec![PrefixFilter::within(p("10.0.0.0/8"), 24)]),
            }],
        };
        let json = serde_json::to_string_pretty(&doc).unwrap();
        let back: RouteFilterRpa = serde_json::from_str(&json).unwrap();
        assert_eq!(doc, back);
    }
}
