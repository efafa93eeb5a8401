//! The native BGP decision process (RFC 4271 §9.1) with DC multipath.
//!
//! Preference order implemented (the subset relevant to a single-domain DC
//! fabric, matching the paper's description in §4.2: "prefer highest local
//! preference, shortest AS-path length, etc."):
//!
//! 1. highest local preference;
//! 2. shortest AS-path;
//! 3. lowest origin code;
//! 4. lowest MED (compared across all neighbors, `always-compare-med`);
//! 5. deterministic tie-break: lowest session id (stands in for router-id).
//!
//! Routes equal on criteria 1–4 form the **multipath set** (ECMP group).
//! Locally-originated routes always win (empty AS-path + step 5 never
//! reached against a local route).

use crate::attrs::PathAttributes;
use crate::rib::Route;
use std::cmp::Ordering;

/// The comparable preference key of a route. Compare with
/// `compare` — a derived ordering would be misleading
/// (shorter AS-path and lower MED are *better*, i.e. order-reversed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PathPreference {
    local_pref: u32,
    as_path_len: usize,
    origin_rank: u8,
    med: u32,
}

impl PathPreference {
    /// Extract the preference key from a route's attributes.
    pub fn of(attrs: &PathAttributes) -> Self {
        PathPreference {
            local_pref: attrs.local_pref,
            as_path_len: attrs.as_path_len(),
            origin_rank: attrs.origin as u8,
            med: attrs.med,
        }
    }

    /// Compare two keys: `Greater` means `self` is preferred.
    pub(crate) fn compare(&self, other: &Self) -> Ordering {
        self.local_pref
            .cmp(&other.local_pref)
            .then_with(|| other.as_path_len.cmp(&self.as_path_len))
            .then_with(|| other.origin_rank.cmp(&self.origin_rank))
            .then_with(|| other.med.cmp(&self.med))
    }

    /// Whether two routes are multipath-equal (same preference on all
    /// non-tie-break criteria).
    pub fn multipath_equal(&self, other: &Self) -> bool {
        self.compare(other) == Ordering::Equal
    }
}

/// Full comparison including the deterministic tie-break. `Greater` means `a`
/// is preferred over `b`.
pub fn compare_routes(a: &Route, b: &Route) -> Ordering {
    PathPreference::of(&a.attrs)
        .compare(&PathPreference::of(&b.attrs))
        .then_with(|| {
            // Tie-break: local routes beat learned; then lowest session id wins,
            // expressed as reverse ordering on the id.
            match (a.learned_from, b.learned_from) {
                (None, None) => Ordering::Equal,
                (None, Some(_)) => Ordering::Greater,
                (Some(_), None) => Ordering::Less,
                (Some(x), Some(y)) => y.cmp(&x),
            }
        })
}

/// The single best route among candidates, or `None` if empty.
pub fn best_route(candidates: &[Route]) -> Option<&Route> {
    candidates.iter().max_by(|a, b| compare_routes(a, b))
}

/// Native multipath selection: all candidates whose preference key equals the
/// best route's. Returns indices into `candidates` in input order (stable),
/// so callers can zip with per-candidate metadata.
pub fn multipath_set(candidates: &[Route]) -> Vec<usize> {
    let selected = multipath_member(candidates);
    (0..candidates.len())
        .filter(|&i| selected(&candidates[i]))
        .collect()
}

/// Whether a route belongs to `candidates`' native multipath set: what
/// [`multipath_set`] selects, as a test a `retain` can take.
pub(crate) fn multipath_member(candidates: &[Route]) -> impl Fn(&Route) -> bool {
    let best = candidates
        .iter()
        .map(|r| PathPreference::of(&r.attrs))
        .max_by(|a, b| a.compare(b));
    move |r| best.is_some_and(|best| PathPreference::of(&r.attrs).multipath_equal(&best))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::Origin;
    use crate::types::{PeerId, Prefix};
    use centralium_topology::Asn;

    fn route_with(peer: u64, f: impl FnOnce(&mut PathAttributes)) -> Route {
        let mut attrs = PathAttributes::default();
        f(&mut attrs);
        Route::learned(Prefix::DEFAULT, attrs, PeerId(peer))
    }

    #[test]
    fn local_pref_dominates_as_path() {
        let lp = route_with(1, |a| {
            a.local_pref = 200;
            a.prepend(Asn(1), 5);
        });
        let short = route_with(2, |a| a.prepend(Asn(2), 1));
        assert_eq!(compare_routes(&lp, &short), Ordering::Greater);
    }

    #[test]
    fn shorter_as_path_preferred() {
        let short = route_with(1, |a| a.prepend(Asn(1), 1));
        let long = route_with(2, |a| a.prepend(Asn(2), 3));
        assert_eq!(compare_routes(&short, &long), Ordering::Greater);
        assert_eq!(compare_routes(&long, &short), Ordering::Less);
    }

    #[test]
    fn origin_breaks_as_path_tie() {
        let igp = route_with(1, |a| {
            a.prepend(Asn(1), 2);
            a.origin = Origin::Igp;
        });
        let incomplete = route_with(2, |a| {
            a.prepend(Asn(2), 2);
            a.origin = Origin::Incomplete;
        });
        assert_eq!(compare_routes(&igp, &incomplete), Ordering::Greater);
    }

    #[test]
    fn med_breaks_origin_tie() {
        let low = route_with(1, |a| a.med = 10);
        let high = route_with(2, |a| a.med = 50);
        assert_eq!(compare_routes(&low, &high), Ordering::Greater);
    }

    #[test]
    fn session_id_is_final_tiebreak() {
        let a = route_with(1, |_| {});
        let b = route_with(2, |_| {});
        assert_eq!(compare_routes(&a, &b), Ordering::Greater, "lower id wins");
    }

    #[test]
    fn local_route_beats_learned() {
        let local = Route::local(Prefix::DEFAULT, PathAttributes::default());
        let learned = route_with(1, |_| {});
        assert_eq!(compare_routes(&local, &learned), Ordering::Greater);
        assert_eq!(compare_routes(&learned, &local), Ordering::Less);
    }

    #[test]
    fn multipath_groups_equal_preference() {
        // Three equal routes and one longer-path route: multipath = 3.
        let candidates = vec![
            route_with(1, |a| a.prepend(Asn(1), 2)),
            route_with(2, |a| a.prepend(Asn(2), 2)),
            route_with(3, |a| a.prepend(Asn(3), 2)),
            route_with(4, |a| a.prepend(Asn(4), 3)),
        ];
        assert_eq!(multipath_set(&candidates), vec![0, 1, 2]);
    }

    #[test]
    fn multipath_of_empty_is_empty() {
        assert!(multipath_set(&[]).is_empty());
    }

    #[test]
    fn first_router_problem_reproduced_natively() {
        // §3.2: a newly-inserted FAv2 node creates a *shorter* path; native
        // multipath collapses onto it alone — the first-router problem the
        // Path Selection RPA exists to fix.
        let old_paths: Vec<Route> = (1..=4)
            .map(|i| route_with(i, |a| a.prepend(Asn(100 + i as u32), 3)))
            .collect();
        let mut candidates = old_paths;
        candidates.push(route_with(9, |a| a.prepend(Asn(200), 2))); // FAv2: shorter
        let mp = multipath_set(&candidates);
        assert_eq!(mp, vec![4], "all traffic funnels to the first (new) router");
    }

    #[test]
    fn best_route_matches_compare() {
        let candidates = vec![
            route_with(3, |a| a.local_pref = 50),
            route_with(1, |_| {}),
            route_with(2, |_| {}),
        ];
        let best = best_route(&candidates).unwrap();
        assert_eq!(best.learned_from, Some(PeerId(1)));
    }
}
