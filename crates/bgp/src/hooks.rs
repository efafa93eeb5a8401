//! RPA hook points: the seam where Route Planning Abstractions plug into the
//! BGP control-plane workflow (Figure 6 of the paper).
//!
//! The daemon calls the hooks at three places:
//!
//! 1. **Route Filter** — after ingress policy, before Adj-RIB-In admission,
//!    and again before egress advertisement, told the session and the remote
//!    AS configured on it;
//! 2. **Path Selection** — replacing the decision process for prefixes an
//!    RPA statement covers, or falling back to it under the statement's
//!    native min-next-hop guard; the guard travels in the same answer;
//! 3. **Route Attribute** — overriding WCMP weight assignment for the
//!    selected multipath set.
//!
//! The trait lives in the BGP crate (not the RPA crate) so that the daemon
//! has no dependency on RPA internals — mirroring the paper's deployment
//! reality where the BGP binary ships hook points and the controller ships
//! RPA documents.

use crate::rib::Route;
use crate::types::{PeerId, Prefix};
use centralium_topology::Asn;

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
    /// Indices of the candidates selected for forwarding, distinct and in
    /// bounds or the decision panics. Empty + `advertise == Withdraw` encodes "nothing usable".
    pub selected: Vec<usize>,
    /// How to pick the advertised route.
    pub advertise: AdvertiseChoice,
    /// Keep previously-installed FIB entries warm if the selection is empty
    /// or withdrawn (`KeepFibWarmIfMnhViolated`).
    pub keep_fib_warm: bool,
}

/// What the Path Selection hook decided for one prefix.
#[derive(Debug, Clone, PartialEq)]
pub enum PathChoice {
    /// A Path Selection statement governs the prefix and one of its path
    /// sets met its floor.
    Rpa(Selection),
    /// Native selection decides, under the governing statement's
    /// `BgpNativeMinNextHop` guard (§4.3): the minimum count of learned
    /// next hops and the `KeepFibWarmIfMnhViolated` flag, or `None` when no
    /// statement governs the prefix or the one that does sets no guard.
    Native(Option<(usize, bool)>),
}

/// The RIB policy hook interface.
///
/// Every method has a pass-through default so implementations only override
/// the functions their RPA kind influences. All methods take `&self`: hook
/// state (e.g. the RPA evaluation cache) must use interior mutability, since
/// the daemon may consult hooks multiple times per event. Each answer is a
/// function of the hook's configuration and that call's arguments — the
/// Route Filter hooks are handed the session's remote AS, so a hook keeps no
/// table of sessions of its own: a cache may make a later call cheaper,
/// never different.
pub trait RibPolicy {
    /// Route Filter RPA, ingress direction: `route` arrived on session
    /// `peer`, whose remote AS is `asn`. Return `false` to drop it before
    /// Adj-RIB-In admission.
    fn permit_ingress(&self, _peer: PeerId, _asn: Asn, _prefix: Prefix, _route: &Route) -> bool {
        true
    }

    /// Route Filter RPA, egress direction: `route` is about to be advertised
    /// on session `peer`, whose remote AS is `asn`. Return `false` to
    /// suppress advertising `prefix` to `peer`.
    fn permit_egress(&self, _peer: PeerId, _asn: Asn, _prefix: Prefix, _route: &Route) -> bool {
        true
    }

    /// Path Selection RPA: either the selected set, or native selection
    /// together with the guard it runs under. Native is the answer when no
    /// statement covers `prefix`, and also when one does but none of its
    /// path sets met its floor.
    fn select_paths(&self, _prefix: Prefix, _candidates: &[Route]) -> PathChoice {
        PathChoice::Native(None)
    }

    /// Route Attribute RPA: prescribe relative weights for the selected
    /// routes (parallel to `selected`). Return `None` to fall back to the
    /// distributed link-bandwidth derivation.
    fn assign_weights(&self, _prefix: Prefix, _selected: &[Route]) -> Option<Vec<u32>> {
        None
    }

    /// Whether [`select_paths`](Self::select_paths) can currently answer
    /// anything but `PathChoice::Native(None)`, or
    /// [`assign_weights`](Self::assign_weights) anything but `None`, for
    /// `prefix`. Answering `false` promises the decision for `prefix` is
    /// purely native, which lets the daemon compare an arriving route with
    /// the installed entry instead of handing the hook the whole candidate
    /// set. The default is the conservative `true`; the Route Filter hooks
    /// run either way.
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
        assert!(p.permit_ingress(PeerId(1), Asn(2), Prefix::DEFAULT, &route));
        assert!(p.permit_egress(PeerId(1), Asn(2), Prefix::DEFAULT, &route));
        assert_eq!(
            p.select_paths(Prefix::DEFAULT, std::slice::from_ref(&route)),
            PathChoice::Native(None)
        );
        assert!(p.assign_weights(Prefix::DEFAULT, &[route]).is_none());
        assert!(!p.governs(Prefix::DEFAULT));
    }
}
