//! BGP path attributes.
//!
//! Only the attributes the paper's decision process and RPAs actually consume
//! are modeled — AS-path, origin, local-pref, MED, standard communities and
//! the link-bandwidth extended community [draft-ietf-idr-link-bandwidth] used
//! for distributed WCMP (§2 "Traffic Distribution").
//!
//! AS-paths and community sets are **shared slices**: an [`AsPath`] /
//! [`CommunitySet`] is an `Arc<[T]>` owned by the routes that hold it, so
//! cloning a route is a pointer bump and the sequence is freed with the last
//! route that holds it. There is no table behind them: every export prepends
//! the exporter's own ASN, so a fabric mints a new path per best-path change
//! and a table would deduplicate nothing. Two handles compare equal when they
//! share storage or else by content, and hash by content, so the RPA
//! signature cache can key on the sequences themselves. Serialization is by
//! content.

use centralium_topology::Asn;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::hash::Hash;
use std::iter::repeat_n;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Process-global count of bytes physically copied for attribute data:
/// every [`PathAttributes`] struct clone plus every sequence a mutation
/// ([`PathAttributes::prepend`] and friends) builds. The zero-copy hot path
/// shows up here directly — benches diff this counter across a run to prove
/// routes are shared, not copied.
static ATTR_CLONE_BYTES: AtomicU64 = AtomicU64::new(0);

/// Total attribute bytes cloned so far in this process (monotonic).
pub fn attr_clone_bytes() -> u64 {
    ATTR_CLONE_BYTES.load(Ordering::Relaxed)
}

#[inline]
fn note_clone_bytes(n: usize) {
    ATTR_CLONE_BYTES.fetch_add(n as u64, Ordering::Relaxed);
}

/// Route origin code, in preference order IGP < EGP < Incomplete.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub enum Origin {
    /// Network-statement style origination (most preferred).
    #[default]
    Igp,
    /// Learned via EGP (historic).
    Egp,
    /// Redistributed (least preferred).
    Incomplete,
}

/// A standard 32-bit BGP community value.
///
/// The fabric attaches a designated community to every prefix at its point of
/// origin (§4.4), e.g. `BACKBONE_DEFAULT_ROUTE` on default routes originated
/// by the backbone; RPA destinations are matched against these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Community(pub u32);

impl Community {
    /// Render as the conventional `asn:value` form.
    pub(crate) fn as_pair(&self) -> (u16, u16) {
        ((self.0 >> 16) as u16, (self.0 & 0xFFFF) as u16)
    }

    /// Build from the conventional `asn:value` pair.
    pub const fn from_pair(hi: u16, lo: u16) -> Self {
        Community(((hi as u32) << 16) | lo as u32)
    }
}

impl fmt::Display for Community {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (hi, lo) = self.as_pair();
        write!(f, "{hi}:{lo}")
    }
}

/// Well-known communities used throughout the reproduction. These mirror the
/// origination-tagging scheme of §4.4.
pub mod well_known {
    use super::Community;

    /// Attached to default routes advertised downstream by the backbone.
    pub const BACKBONE_DEFAULT_ROUTE: Community = Community::from_pair(65000, 1);
    /// Attached to rack-level production prefixes at origination.
    pub const RACK_PREFIX: Community = Community::from_pair(65000, 2);
    /// Attached to anycast load-bearing prefixes (Differential Traffic
    /// Distribution migrations apply special policy to these).
    pub const ANYCAST_VIP: Community = Community::from_pair(65000, 3);
    /// Marks a route advertised by a device in MAINTENANCE (drained) state.
    pub const MAINTENANCE: Community = Community::from_pair(65000, 99);
    /// Marks a route as learned from an upper layer. The fabric's base
    /// import policies set/clear it and base export policies reject it
    /// toward upper layers, yielding valley-free propagation — the
    /// "deterministic origination and propagation policies" of §4.3.
    pub const FROM_UPSTREAM: Community = Community::from_pair(65000, 101);
}

// ---- shared attribute sequences --------------------------------------------

macro_rules! shared_seq {
    ($(#[$doc:meta])* $name:ident, $elem:ty) => {
        $(#[$doc])*
        #[derive(Clone)]
        pub struct $name(Arc<[$elem]>);

        impl $name {
            /// The empty sequence.
            pub(crate) fn empty() -> Self {
                $name(Arc::new([]))
            }

            /// The elements.
            pub fn as_slice(&self) -> &[$elem] {
                &self.0
            }
        }

        impl Default for $name {
            fn default() -> Self {
                $name::empty()
            }
        }

        impl Deref for $name {
            type Target = [$elem];
            fn deref(&self) -> &[$elem] {
                &self.0
            }
        }

        impl From<Vec<$elem>> for $name {
            fn from(items: Vec<$elem>) -> Self {
                $name(items.into())
            }
        }

        impl FromIterator<$elem> for $name {
            fn from_iter<I: IntoIterator<Item = $elem>>(iter: I) -> Self {
                $name(iter.into_iter().collect())
            }
        }

        impl<'a> IntoIterator for &'a $name {
            type Item = &'a $elem;
            type IntoIter = std::slice::Iter<'a, $elem>;
            fn into_iter(self) -> Self::IntoIter {
                self.0.iter()
            }
        }

        // Clones of one route share storage, so the pointer compare settles
        // most calls; sequences built apart fall back to the slice walk.
        impl PartialEq for $name {
            fn eq(&self, other: &Self) -> bool {
                Arc::ptr_eq(&self.0, &other.0) || self.0 == other.0
            }
        }

        impl Eq for $name {}

        impl PartialEq<Vec<$elem>> for $name {
            fn eq(&self, other: &Vec<$elem>) -> bool {
                *self.0 == other[..]
            }
        }

        impl PartialEq<$name> for Vec<$elem> {
            fn eq(&self, other: &$name) -> bool {
                self[..] == *other.0
            }
        }

        impl PartialEq<[$elem]> for $name {
            fn eq(&self, other: &[$elem]) -> bool {
                *self.0 == *other
            }
        }

        // Content hash: agrees with `Eq` and stays deterministic across runs.
        impl Hash for $name {
            fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
                self.0.hash(state)
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::Debug::fmt(&self.0, f)
            }
        }

        impl Serialize for $name {
            fn serialize(&self) -> serde::Value {
                self.0.serialize()
            }
        }

        impl Deserialize for $name {
            fn deserialize(v: &serde::Value) -> Result<Self, serde::Error> {
                Vec::<$elem>::deserialize(v).map($name::from)
            }
        }
    };
}

shared_seq!(
    /// A shared AS-path (nearest AS first). Dereferences to `[Asn]`;
    /// mutation goes through [`PathAttributes::prepend`], which builds a
    /// new slice.
    AsPath,
    Asn
);

shared_seq!(
    /// A shared sorted community set. Dereferences to `[Community]`;
    /// mutation goes through [`PathAttributes::add_community`] /
    /// `PathAttributes::remove_community`, which build a new slice.
    CommunitySet,
    Community
);

/// The attribute set carried by one route announcement.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct PathAttributes {
    /// AS-path, nearest AS first. Plain sequence (no sets/confederations —
    /// the fabric never produces them).
    pub as_path: AsPath,
    /// Origin code.
    pub origin: Origin,
    /// Local preference (higher wins). DC eBGP carries it fabric-internally.
    pub local_pref: u32,
    /// Multi-exit discriminator (lower wins), compared across all paths in
    /// the DC as is common with `always-compare-med`.
    pub med: u32,
    /// Standard communities, kept sorted + deduped.
    pub communities: CommunitySet,
    /// Link-bandwidth extended community in Gbps, if the advertising peer
    /// attached one (drives distributed WCMP weight derivation).
    pub link_bandwidth_gbps: Option<f64>,
}

// Manual impl so every struct copy is visible in [`attr_clone_bytes`]; the
// sequence handles themselves stay pointer bumps.
impl Clone for PathAttributes {
    fn clone(&self) -> Self {
        note_clone_bytes(std::mem::size_of::<PathAttributes>());
        PathAttributes {
            as_path: self.as_path.clone(),
            origin: self.origin,
            local_pref: self.local_pref,
            med: self.med,
            communities: self.communities.clone(),
            link_bandwidth_gbps: self.link_bandwidth_gbps,
        }
    }
}

impl Default for PathAttributes {
    fn default() -> Self {
        PathAttributes {
            as_path: AsPath::empty(),
            origin: Origin::Igp,
            local_pref: Self::DEFAULT_LOCAL_PREF,
            med: 0,
            communities: CommunitySet::empty(),
            link_bandwidth_gbps: None,
        }
    }
}

impl PathAttributes {
    /// Default local preference when none is set by policy.
    pub const DEFAULT_LOCAL_PREF: u32 = 100;

    /// Attributes for a locally-originated route tagged with `communities`.
    pub fn originated(communities: impl IntoIterator<Item = Community>) -> Self {
        let mut attrs = PathAttributes::default();
        for c in communities {
            attrs.add_community(c);
        }
        attrs
    }

    /// AS-path length (the decision-process metric).
    pub fn as_path_len(&self) -> usize {
        self.as_path.len()
    }

    /// First (nearest) AS on the path, i.e. the neighbor that sent it to us.
    pub fn first_asn(&self) -> Option<Asn> {
        self.as_path.first().copied()
    }

    /// Last AS on the path, i.e. the originator.
    pub fn origin_asn(&self) -> Option<Asn> {
        self.as_path.last().copied()
    }

    /// Whether `asn` appears anywhere on the path (loop check).
    pub fn path_contains(&self, asn: Asn) -> bool {
        self.as_path.contains(&asn)
    }

    /// Prepend `asn` `count` times (what a speaker does when exporting, or a
    /// policy does to de-preference a path).
    pub fn prepend(&mut self, asn: Asn, count: usize) {
        if count == 0 {
            return;
        }
        self.as_path = repeat_n(asn, count)
            .chain(self.as_path.iter().copied())
            .collect();
        note_clone_bytes(std::mem::size_of_val(&self.as_path[..]));
    }

    /// Add a community, keeping the list sorted and deduped.
    pub fn add_community(&mut self, c: Community) {
        if let Err(pos) = self.communities.binary_search(&c) {
            let (head, tail) = self.communities.split_at(pos);
            self.communities = head.iter().chain(&[c]).chain(tail).copied().collect();
            note_clone_bytes(std::mem::size_of_val(&self.communities[..]));
        }
    }

    /// Remove a community if present.
    pub(crate) fn remove_community(&mut self, c: Community) {
        if let Ok(pos) = self.communities.binary_search(&c) {
            let (head, tail) = (&self.communities[..pos], &self.communities[pos + 1..]);
            self.communities = head.iter().chain(tail).copied().collect();
            note_clone_bytes(std::mem::size_of_val(&self.communities[..]));
        }
    }

    /// Whether the route carries community `c`.
    pub fn has_community(&self, c: Community) -> bool {
        self.communities.binary_search(&c).is_ok()
    }

    /// Render the AS-path as a space-separated ASN string, the form RPA
    /// `as_path_regex` signatures match against (e.g. `"12345 64512 64513"`).
    pub fn as_path_string(&self) -> String {
        let mut out = String::new();
        for (i, asn) in self.as_path.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            out.push_str(&asn.0.to_string());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn community_pair_roundtrip() {
        let c = Community::from_pair(65000, 42);
        assert_eq!(c.as_pair(), (65000, 42));
        assert_eq!(c.to_string(), "65000:42");
    }

    #[test]
    fn communities_stay_sorted_and_deduped() {
        let mut a = PathAttributes::default();
        a.add_community(Community(30));
        a.add_community(Community(10));
        a.add_community(Community(20));
        a.add_community(Community(10));
        assert_eq!(
            a.communities,
            vec![Community(10), Community(20), Community(30)]
        );
        a.remove_community(Community(20));
        assert_eq!(a.communities, vec![Community(10), Community(30)]);
        assert!(a.has_community(Community(10)));
        assert!(!a.has_community(Community(20)));
    }

    #[test]
    fn prepend_builds_nearest_first_path() {
        let mut a = PathAttributes::default();
        a.prepend(Asn(3), 1); // originator exports
        a.prepend(Asn(2), 1); // middle hop exports
        a.prepend(Asn(1), 2); // near hop pads twice
        assert_eq!(a.as_path, vec![Asn(1), Asn(1), Asn(2), Asn(3)]);
        assert_eq!(a.first_asn(), Some(Asn(1)));
        assert_eq!(a.origin_asn(), Some(Asn(3)));
        assert_eq!(a.as_path_len(), 4);
        assert!(a.path_contains(Asn(2)));
        assert!(!a.path_contains(Asn(9)));
        assert_eq!(a.as_path_string(), "1 1 2 3");
    }

    #[test]
    fn origin_preference_order() {
        assert!(Origin::Igp < Origin::Egp);
        assert!(Origin::Egp < Origin::Incomplete);
    }

    #[test]
    fn originated_routes_carry_communities() {
        let a = PathAttributes::originated([well_known::BACKBONE_DEFAULT_ROUTE]);
        assert!(a.has_community(well_known::BACKBONE_DEFAULT_ROUTE));
        assert!(a.as_path.is_empty());
        assert_eq!(a.local_pref, PathAttributes::DEFAULT_LOCAL_PREF);
    }

    #[test]
    fn sequences_compare_and_hash_by_content() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::Hasher;
        let hash = |p: &AsPath| {
            let mut h = DefaultHasher::new();
            p.hash(&mut h);
            h.finish()
        };
        let a = AsPath::from(vec![Asn(1), Asn(2), Asn(3)]);
        let b = AsPath::from(vec![Asn(1), Asn(2), Asn(3)]);
        let c = AsPath::from(vec![Asn(3), Asn(2), Asn(1)]);
        // Built apart: separate storage, equal content.
        assert!(!Arc::ptr_eq(&a.0, &b.0));
        assert_eq!(a, b);
        assert_eq!(hash(&a), hash(&b));
        assert_ne!(a, c);
        // Cloning is a pointer bump.
        assert!(Arc::ptr_eq(&a.0, &a.clone().0));
    }

    #[test]
    fn edits_build_new_sequences_and_leave_clones_alone() {
        let mut a = PathAttributes::originated([Community(5)]);
        let before = a.clone();
        a.prepend(Asn(7), 2);
        a.add_community(Community(9));
        assert_eq!(a.as_path, vec![Asn(7), Asn(7)]);
        assert_eq!(a.communities, vec![Community(5), Community(9)]);
        assert!(before.as_path.is_empty());
        assert_eq!(before.communities, vec![Community(5)]);
        // Undoing the community edit returns to equal content.
        a.remove_community(Community(9));
        assert_eq!(a.communities, before.communities);
    }

    #[test]
    fn serde_roundtrips_by_content() {
        let mut a = PathAttributes::originated([Community(5)]);
        a.prepend(Asn(42), 2);
        let v = a.serialize();
        let back = PathAttributes::deserialize(&v).expect("roundtrip");
        assert_eq!(back, a);
    }
}
