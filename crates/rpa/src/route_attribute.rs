//! Route Attribute RPA (Figure 7b): prescribed traffic distribution.
//!
//! "Route Attribute RPAs capture \[the\] operator's desired traffic
//! distribution ratio among possible paths toward a destination prefix in an
//! asynchronous fashion" (§4.3) — weights are specified a priori and applied
//! whenever BGP observes and selects matching paths, which removes the
//! distributed-WCMP transient next-hop-group explosion of §3.4.

use crate::signature::{Destination, PathSignature};
use serde::{Deserialize, Serialize};

/// One entry of the `NextHopWeightList`: a path set (by signature) and the
/// relative weight its members receive.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NextHopWeight {
    /// Which paths this weight applies to.
    pub signature: PathSignature,
    /// Relative integer weight (hashing replication count). Zero is
    /// allowed and means "send no traffic over this path set" while still
    /// keeping the paths selected.
    pub weight: u32,
}

/// One statement of a Route Attribute RPA.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RouteAttributeStatement {
    /// Destination prefixes the statement covers.
    pub destination: Destination,
    /// Weight list, first match per route wins; routes matching nothing get
    /// weight 1.
    pub next_hop_weight_list: Vec<NextHopWeight>,
    /// Deadline in absolute sim µs: from this instant on the statement is
    /// invalid and BGP falls back to its native distribution (ECMP /
    /// distributed WCMP). Deploying the document queues one expiry event per
    /// distinct deadline, which re-decides the prefixes the statement
    /// governed; a document installed after its deadline is born expired.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub expiration_time: Option<u64>,
}

impl RouteAttributeStatement {
    /// Statement without expiry.
    pub fn new(destination: Destination, weights: Vec<NextHopWeight>) -> Self {
        RouteAttributeStatement {
            destination,
            next_hop_weight_list: weights,
            expiration_time: None,
        }
    }

    /// Set the expiration time, builder-style.
    pub fn expires_at(mut self, deadline: u64) -> Self {
        self.expiration_time = Some(deadline);
        self
    }
}

/// A Route Attribute RPA document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RouteAttributeRpa {
    /// Document name.
    pub name: String,
    /// Statements, first applicable wins.
    pub statements: Vec<RouteAttributeStatement>,
}

impl RouteAttributeRpa {
    /// Single-statement document.
    pub fn single(name: impl Into<String>, statement: RouteAttributeStatement) -> Self {
        RouteAttributeRpa {
            name: name.into(),
            statements: vec![statement],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serde_roundtrip() {
        let doc = RouteAttributeRpa::single(
            "te-weights",
            RouteAttributeStatement::new(
                Destination::Any,
                vec![NextHopWeight {
                    signature: PathSignature::any(),
                    weight: 3,
                }],
            )
            .expires_at(1_000),
        );
        let json = serde_json::to_string(&doc).unwrap();
        let back: RouteAttributeRpa = serde_json::from_str(&json).unwrap();
        assert_eq!(doc, back);
    }
}
