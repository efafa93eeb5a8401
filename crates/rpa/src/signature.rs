//! Path signatures and destinations: how RPAs identify routes.
//!
//! A **signature** is "a unique combination of standard BGP transitive
//! attributes that identifies a given path set" (§4.3). Criteria may be
//! regular expressions over attributes — e.g. `as_path_regex = "^12345"`
//! matches AS-paths starting with ASN 12345 *regardless of their lengths*,
//! the exact mechanism used to equalize old and new paths in §4.4.1.

use centralium_bgp::{Community, PathAttributes, Route};
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
    /// miss" hot path. The regex runs over the AS-path text, built on the
    /// stack, in one linear pass; every other criterion is a comparison or
    /// a binary search.
    pub fn matches(&self, route: &Route) -> bool {
        let attrs = &route.attrs;
        if let Some(re) = &self.regex {
            if !with_as_path_text(attrs, |text| re.is_match(text)) {
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

/// AS-path text up to this many bytes is written on the stack: 23 ASNs of
/// ten digits, where fabric paths hold a handful.
const AS_PATH_TEXT_BYTES: usize = 256;

/// Calls `f` with the AS path rendered as [`PathAttributes::as_path_string`]
/// does, written into a stack buffer; a path that does not fit falls back
/// to that heap string.
fn with_as_path_text<R>(attrs: &PathAttributes, f: impl FnOnce(&str) -> R) -> R {
    let mut buf = [0u8; AS_PATH_TEXT_BYTES];
    let mut len = 0;
    for (i, asn) in attrs.as_path.iter().enumerate() {
        // A separator and at most ten digits.
        if len + 11 > buf.len() {
            return f(&attrs.as_path_string());
        }
        if i > 0 {
            buf[len] = b' ';
            len += 1;
        }
        let digits = asn.0.checked_ilog10().unwrap_or(0) as usize + 1;
        let mut n = asn.0;
        for slot in buf[len..len + digits].iter_mut().rev() {
            *slot = b'0' + (n % 10) as u8;
            n /= 10;
        }
        len += digits;
    }
    f(std::str::from_utf8(&buf[..len]).expect("ASCII digits and spaces"))
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
    use centralium_bgp::{PeerId, Prefix};

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
    fn as_path_text_is_the_as_path_string() {
        let paths: [&[u32]; 6] = [
            &[],
            &[0],
            &[9, 10, 99, 100],
            &[65001, 64512, 4_294_967_295],
            &[4_294_967_295; 23],
            &[4_294_967_295; 24],
        ];
        for path in paths {
            let attrs = route(path, &[]).attrs;
            assert_eq!(
                with_as_path_text(&attrs, str::to_owned),
                attrs.as_path_string()
            );
        }
        let long: Vec<u32> = (0..100).map(|i| 60_000 + i).collect();
        let sig = compile(PathSignature::as_path("^60000 .* 60099$"));
        assert!(sig.matches(&route(&long, &[])));
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
