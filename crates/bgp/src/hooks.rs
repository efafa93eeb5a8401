//! RPA hook points: the seam where Route Planning Abstractions plug into the
//! BGP control-plane workflow (Figure 6 of the paper).
//!
//! The daemon calls the hooks at three places:
//!
//! 1. **Route Filter** — after ingress policy, before Adj-RIB-In admission,
//!    and again before egress advertisement;
//! 2. **Path Selection** — replacing (with native fallback) the decision
//!    process for prefixes an RPA statement covers;
//! 3. **Route Attribute** — overriding WCMP weight assignment for the
//!    selected multipath set.
//!
//! The trait lives in the BGP crate (not the RPA crate) so that the daemon
//! has no dependency on RPA internals — mirroring the paper's deployment
//! reality where the BGP binary ships hook points and the controller ships
//! RPA documents.

use crate::rib::Route;
use crate::types::{PeerId, Prefix};

/// How the advertisement route is chosen for a prefix whose selection the
/// hook determined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdvertiseChoice {
    /// Advertise the *least favorable* selected route (longest AS-path) —
    /// the §5.3.1 loop-avoidance rule for RPA-selected multipath sets.
    LeastFavorable,
    /// Advertise the native best path (what plain BGP does).
    NativeBest,
    /// Withdraw the prefix from peers (e.g. min-next-hop violated).
    Withdraw,
}

/// Result of a Path Selection hook for one prefix.
#[derive(Debug, Clone, PartialEq)]
pub struct Selection {
    /// Indices into the candidate slice of the routes selected for
    /// forwarding. Empty + `advertise == Withdraw` encodes "nothing usable".
    pub selected: Vec<usize>,
    /// How to pick the advertised route.
    pub advertise: AdvertiseChoice,
    /// Keep previously-installed FIB entries warm if the selection is empty
    /// or withdrawn (`KeepFibWarmIfMnhViolated`).
    pub keep_fib_warm: bool,
}

/// The RIB policy hook interface.
///
/// Every method has a pass-through default so implementations only override
/// the functions their RPA kind influences. All methods take `&self`: hook
/// state (e.g. the RPA evaluation cache) must use interior mutability, since
/// the daemon may consult hooks multiple times per event.
pub trait RibPolicy {
    /// Route Filter RPA, ingress direction. Return `false` to drop the route
    /// before Adj-RIB-In admission.
    fn permit_ingress(&self, _peer: PeerId, _prefix: Prefix, _route: &Route) -> bool {
        true
    }

    /// Route Filter RPA, egress direction. Return `false` to suppress
    /// advertising `prefix` to `peer`.
    fn permit_egress(&self, _peer: PeerId, _prefix: Prefix, _route: &Route) -> bool {
        true
    }

    /// Path Selection RPA. Return `None` to fall back to native selection
    /// (either no statement covers `prefix`, or no path set matched and the
    /// statement's fallback is native).
    fn select_paths(&self, _prefix: Prefix, _candidates: &[Route]) -> Option<Selection> {
        None
    }

    /// Route Attribute RPA: prescribe relative weights for the selected
    /// routes (parallel to `selected`). Return `None` to fall back to the
    /// distributed link-bandwidth derivation.
    fn assign_weights(&self, _prefix: Prefix, _selected: &[Route]) -> Option<Vec<u32>> {
        None
    }

    /// Native min-next-hop guard (BgpNativeMinNextHop, §4.3): called when
    /// native selection chose `count` next-hops for `prefix`; return the
    /// required minimum and the keep-warm flag, or `None` when unconfigured.
    fn native_min_nexthop(&self, _prefix: Prefix) -> Option<(usize, bool)> {
        None
    }

    /// Whether [`select_paths`](Self::select_paths),
    /// [`assign_weights`](Self::assign_weights) or
    /// [`native_min_nexthop`](Self::native_min_nexthop) can currently answer
    /// anything but `None` for `prefix`. Answering `false` promises the
    /// decision for `prefix` is purely native, which lets the daemon compare
    /// an arriving route with the installed entry instead of handing the
    /// hook the whole candidate set. The default is the conservative `true`;
    /// the Route Filter hooks run either way.
    fn governs(&self, _prefix: Prefix) -> bool {
        true
    }
}

/// The no-op hook set: pure native BGP.
#[derive(Debug, Default, Clone, Copy)]
pub struct NativePolicy;

impl RibPolicy for NativePolicy {
    fn governs(&self, _prefix: Prefix) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::PathAttributes;

    #[test]
    fn native_policy_passes_everything_through() {
        let p = NativePolicy;
        let route = Route::local(Prefix::DEFAULT, PathAttributes::default());
        assert!(p.permit_ingress(PeerId(1), Prefix::DEFAULT, &route));
        assert!(p.permit_egress(PeerId(1), Prefix::DEFAULT, &route));
        assert!(p
            .select_paths(Prefix::DEFAULT, std::slice::from_ref(&route))
            .is_none());
        assert!(p.assign_weights(Prefix::DEFAULT, &[route]).is_none());
        assert!(p.native_min_nexthop(Prefix::DEFAULT).is_none());
        assert!(!p.governs(Prefix::DEFAULT));
    }
}
