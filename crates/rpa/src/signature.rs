//! Path signatures and destinations: how RPAs identify routes.
//!
//! A **signature** is "a unique combination of standard BGP transitive
//! attributes that identifies a given path set" (§4.3). Criteria may be
//! regular expressions over attributes — e.g. `as_path_regex = "^12345"`
//! matches AS-paths starting with ASN 12345 *regardless of their lengths*,
//! the exact mechanism used to equalize old and new paths in §4.4.1.

use centralium_bgp::{Community, Route};
use centralium_topology::Asn;
use regex::Regex;
use serde::{Deserialize, Serialize};

/// Attribute match criteria identifying a group of BGP paths. All present
/// criteria must hold (AND); an empty signature matches every route.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PathSignature {
    /// Regex over the space-separated AS-path string (nearest AS first),
    /// e.g. `"^65001( |$)"` for "paths via AS65001".
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub as_path_regex: Option<String>,
    /// Route must carry at least one of these communities.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub any_community: Vec<Community>,
    /// Route must carry all of these communities.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub all_communities: Vec<Community>,
    /// The originating (last) ASN must equal this.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub origin_asn: Option<Asn>,
    /// The nearest (first) ASN must equal this.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub first_asn: Option<Asn>,
    /// AS-path length bounds, inclusive.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub min_as_path_len: Option<usize>,
    /// See `min_as_path_len`.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub max_as_path_len: Option<usize>,
}

impl PathSignature {
    /// Signature matching every route (used for "select all" path sets).
    pub fn any() -> Self {
        PathSignature::default()
    }

    /// Signature matching AS-paths that *originate* at `asn` — the §4.4.1
    /// pattern ("select paths that start with the backbone AS number",
    /// i.e. whose origin is the backbone, neglecting AS-path length).
    pub fn originated_by(asn: Asn) -> Self {
        PathSignature {
            origin_asn: Some(asn),
            ..Default::default()
        }
    }

    /// Signature matching routes carrying a community.
    pub fn with_community(c: Community) -> Self {
        PathSignature {
            any_community: vec![c],
            ..Default::default()
        }
    }

    /// Signature matching an AS-path regex.
    pub fn as_path(regex: impl Into<String>) -> Self {
        PathSignature {
            as_path_regex: Some(regex.into()),
            ..Default::default()
        }
    }
}

/// A signature with its regex compiled, as held by the engine.
#[derive(Debug, Clone)]
pub struct CompiledSignature {
    /// The source document signature.
    pub spec: PathSignature,
    /// Compiled `as_path_regex`, if any.
    pub regex: Option<Regex>,
    /// Engine-global id used as part of the evaluation-cache key.
    pub sig_id: u32,
}

impl CompiledSignature {
    /// Compile a signature; fails on invalid regex.
    pub fn compile(spec: PathSignature, sig_id: u32) -> Result<Self, regex::Error> {
        let regex = match &spec.as_path_regex {
            Some(r) => Some(Regex::new(r)?),
            None => None,
        };
        Ok(CompiledSignature {
            spec,
            regex,
            sig_id,
        })
    }

    /// Evaluate the signature against a route. This is the Table 2 "cache
    /// miss" hot path: the regex match dominates.
    pub fn matches(&self, route: &Route) -> bool {
        let attrs = &route.attrs;
        if let Some(re) = &self.regex {
            if !re.is_match(&attrs.as_path_string()) {
                return false;
            }
        }
        if !self.spec.any_community.is_empty()
            && !self
                .spec
                .any_community
                .iter()
                .any(|c| attrs.has_community(*c))
        {
            return false;
        }
        if !self
            .spec
            .all_communities
            .iter()
            .all(|c| attrs.has_community(*c))
        {
            return false;
        }
        if let Some(asn) = self.spec.origin_asn {
            if attrs.origin_asn() != Some(asn) {
                return false;
            }
        }
        if let Some(asn) = self.spec.first_asn {
            if attrs.first_asn() != Some(asn) {
                return false;
            }
        }
        if let Some(min) = self.spec.min_as_path_len {
            if attrs.as_path_len() < min {
                return false;
            }
        }
        if let Some(max) = self.spec.max_as_path_len {
            if attrs.as_path_len() > max {
                return false;
            }
        }
        true
    }
}

/// What destination prefixes an RPA statement applies to.
///
/// The paper's examples use origination-community names (`Destination:
/// "BACKBONE_DEFAULT_ROUTE"`); prefix forms exist for filters and tests.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Destination {
    /// Prefixes whose routes carry this origination community.
    Community(Community),
    /// Exactly this prefix.
    PrefixExact(centralium_bgp::Prefix),
    /// Any prefix covered by this one.
    PrefixWithin(centralium_bgp::Prefix),
    /// Every prefix.
    Any,
}

impl Destination {
    /// Whether the statement applies to `prefix`, where `carries(c)` tells
    /// whether any of its candidate routes carries community `c`. Community
    /// destinations hold when *any* candidate carries the community
    /// (origination tagging makes this consistent fabric-wide); the prefix
    /// forms never ask.
    pub fn applies(
        &self,
        prefix: centralium_bgp::Prefix,
        carries: impl FnOnce(Community) -> bool,
    ) -> bool {
        match self {
            Destination::Community(c) => carries(*c),
            Destination::PrefixExact(p) => *p == prefix,
            Destination::PrefixWithin(p) => p.contains(&prefix),
            Destination::Any => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use centralium_bgp::{PathAttributes, PeerId, Prefix};

    fn route(path: &[u32], communities: &[Community]) -> Route {
        let mut attrs = PathAttributes::default();
        for asn in path.iter().rev() {
            attrs.prepend(Asn(*asn), 1);
        }
        for c in communities {
            attrs.add_community(*c);
        }
        Route::learned(Prefix::DEFAULT, attrs, PeerId(1))
    }

    fn compile(spec: PathSignature) -> CompiledSignature {
        CompiledSignature::compile(spec, 0).unwrap()
    }

    #[test]
    fn empty_signature_matches_everything() {
        let sig = compile(PathSignature::any());
        assert!(sig.matches(&route(&[1, 2, 3], &[])));
        assert!(sig.matches(&route(&[], &[])));
    }

    #[test]
    fn as_path_regex_equalizes_lengths() {
        // §4.4.1: "^12345" matches AS-paths starting with 12345 regardless of
        // length — the first-router fix.
        let sig = compile(PathSignature::as_path("^12345( |$)"));
        assert!(sig.matches(&route(&[12345, 7, 8, 9], &[])));
        assert!(sig.matches(&route(&[12345], &[])));
        assert!(!sig.matches(&route(&[7, 12345], &[])));
        // Prefix-safety: 12345 must not match 123456.
        assert!(!sig.matches(&route(&[123456, 7], &[])));
    }

    #[test]
    fn origin_and_first_asn_criteria() {
        let by_origin = compile(PathSignature::originated_by(Asn(9)));
        assert!(by_origin.matches(&route(&[1, 2, 9], &[])));
        assert!(!by_origin.matches(&route(&[9, 2, 1], &[])));
        let by_first = compile(PathSignature {
            first_asn: Some(Asn(9)),
            ..Default::default()
        });
        assert!(by_first.matches(&route(&[9, 2, 1], &[])));
        assert!(!by_first.matches(&route(&[1, 2, 9], &[])));
    }

    #[test]
    fn community_criteria() {
        let c1 = Community::from_pair(65000, 1);
        let c2 = Community::from_pair(65000, 2);
        let any = compile(PathSignature {
            any_community: vec![c1, c2],
            ..Default::default()
        });
        let all = compile(PathSignature {
            all_communities: vec![c1, c2],
            ..Default::default()
        });
        assert!(any.matches(&route(&[1], &[c1])));
        assert!(any.matches(&route(&[1], &[c2])));
        assert!(!any.matches(&route(&[1], &[])));
        assert!(all.matches(&route(&[1], &[c1, c2])));
        assert!(!all.matches(&route(&[1], &[c1])));
    }

    #[test]
    fn path_length_bounds() {
        let sig = compile(PathSignature {
            min_as_path_len: Some(2),
            max_as_path_len: Some(3),
            ..Default::default()
        });
        assert!(!sig.matches(&route(&[1], &[])));
        assert!(sig.matches(&route(&[1, 2], &[])));
        assert!(sig.matches(&route(&[1, 2, 3], &[])));
        assert!(!sig.matches(&route(&[1, 2, 3, 4], &[])));
    }

    #[test]
    fn invalid_regex_fails_compilation() {
        assert!(CompiledSignature::compile(PathSignature::as_path("("), 0).is_err());
    }

    #[test]
    fn destination_forms() {
        let c = Community::from_pair(65000, 1);
        let tagged = [route(&[1, 9], &[c])];
        let carries = |x: Community| tagged.iter().any(|r| r.attrs.has_community(x));
        let p: Prefix = "10.0.0.0/8".parse().unwrap();
        assert!(Destination::Community(c).applies(Prefix::DEFAULT, carries));
        assert!(!Destination::Community(Community(5)).applies(Prefix::DEFAULT, carries));
        let never = |_| -> bool { panic!("a prefix form asked for a community") };
        assert!(Destination::PrefixExact(p).applies(p, never));
        assert!(!Destination::PrefixExact(p).applies(Prefix::DEFAULT, never));
        assert!(Destination::PrefixWithin(Prefix::DEFAULT).applies(p, never));
        assert!(Destination::Any.applies(p, never));
    }

    #[test]
    fn signature_serde_roundtrip() {
        let sig = PathSignature {
            as_path_regex: Some("^1".into()),
            any_community: vec![Community(5)],
            ..Default::default()
        };
        let json = serde_json::to_string(&sig).unwrap();
        let back: PathSignature = serde_json::from_str(&json).unwrap();
        assert_eq!(sig, back);
        // Skipped fields keep documents terse (LOC accounting, Table 3).
        assert!(!json.contains("origin_asn"));
    }
}
