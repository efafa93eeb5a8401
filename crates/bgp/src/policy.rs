//! Classic BGP route policy: ordered match/action rules on import and export.
//!
//! This is the "base BGP policy" layer of the paper (§7.1): it tags prefixes
//! with communities at origination, sets local-pref, pads AS-paths, etc. RPAs
//! are deliberately a *separate* mechanism layered behind it (the paper's
//! naive approaches — AS-path padding, minimum-ECMP knobs — are expressible
//! here, so experiments can compare them against RPAs).

use crate::attrs::{Community, PathAttributes};
use crate::types::Prefix;
use centralium_topology::Asn;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Match criteria of a policy rule. All present criteria must match (AND).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MatchExpr {
    /// Match routes covered by this prefix (e.g. `10.0.0.0/8` matches all
    /// more-specifics). `None` matches any prefix.
    pub prefix_within: Option<Prefix>,
    /// Match the prefix exactly.
    pub prefix_exact: Option<Prefix>,
    /// Route must carry at least one of these communities.
    pub any_community: Vec<Community>,
    /// Route's AS-path must contain this ASN.
    pub as_path_contains: Option<Asn>,
    /// Route's AS-path length must be at least this.
    pub min_as_path_len: Option<usize>,
}

impl MatchExpr {
    /// Match everything.
    pub fn any() -> Self {
        MatchExpr::default()
    }

    /// Match routes carrying `c`.
    pub fn community(c: Community) -> Self {
        MatchExpr {
            any_community: vec![c],
            ..Default::default()
        }
    }

    /// Evaluate against a route whose attributes are `attrs` with `prepend`,
    /// if any, put once in front of the AS path — the view an export has of
    /// the body it has not built yet (only AS-path criteria can tell).
    pub(crate) fn matches(
        &self,
        prefix: &Prefix,
        attrs: &PathAttributes,
        prepend: Option<Asn>,
    ) -> bool {
        if let Some(p) = &self.prefix_within {
            if !p.contains(prefix) {
                return false;
            }
        }
        if let Some(p) = &self.prefix_exact {
            if p != prefix {
                return false;
            }
        }
        if !self.any_community.is_empty()
            && !self.any_community.iter().any(|c| attrs.has_community(*c))
        {
            return false;
        }
        if let Some(asn) = self.as_path_contains {
            if prepend != Some(asn) && !attrs.path_contains(asn) {
                return false;
            }
        }
        if let Some(min) = self.min_as_path_len {
            if attrs.as_path_len() + usize::from(prepend.is_some()) < min {
                return false;
            }
        }
        true
    }
}

/// An action applied to a matched route.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Action {
    /// Accept the route, stop evaluating rules.
    Accept,
    /// Reject the route, stop evaluating rules.
    Reject,
    /// Set local preference, continue.
    SetLocalPref(u32),
    /// Prepend an ASN `n` times, continue. (The paper's "naive approach" to
    /// the first-router problem, §3.2.)
    Prepend(Asn, u8),
    /// Attach a community, continue.
    AddCommunity(Community),
    /// Strip a community, continue.
    RemoveCommunity(Community),
    /// Set MED, continue.
    SetMed(u32),
    /// Attach/overwrite the link-bandwidth extended community, continue.
    SetLinkBandwidth(f64),
}

/// One ordered rule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyRule {
    /// Match side.
    pub matches: MatchExpr,
    /// Actions applied in order until Accept/Reject terminates evaluation.
    pub actions: Vec<Action>,
}

impl PolicyRule {
    /// Rule that rejects matches outright.
    pub fn reject(matches: MatchExpr) -> Self {
        PolicyRule {
            matches,
            actions: vec![Action::Reject],
        }
    }
}

/// Result of running a policy over a route.
#[derive(Debug, Clone, PartialEq)]
pub enum PolicyVerdict {
    /// Route accepted; possibly-modified attributes inside.
    Accept(PathAttributes),
    /// Route rejected.
    Reject,
}

/// An ordered rule list with a default disposition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Policy {
    /// Rules evaluated first-match-wins (a rule "matches" when its MatchExpr
    /// matches; its actions then run until Accept/Reject or the list ends —
    /// if the list ends without a terminal action, evaluation continues to
    /// the next rule with the modified attributes).
    pub rules: Vec<PolicyRule>,
    /// Disposition when no rule terminates evaluation.
    pub default_accept: bool,
}

impl Default for Policy {
    fn default() -> Self {
        Policy::accept_all()
    }
}

impl Policy {
    /// Accept everything unchanged.
    pub fn accept_all() -> Self {
        Policy {
            rules: Vec::new(),
            default_accept: true,
        }
    }

    /// The process-wide shared accept-all policy. Sessions configured with
    /// no explicit policy all point at this one allocation — at 100k-device
    /// scale the fabric holds ~1.5M session endpoints, and a per-endpoint
    /// `Policy` (even an empty one) is measurable memory for zero
    /// information.
    pub fn shared_accept_all() -> std::sync::Arc<Policy> {
        static SHARED: std::sync::OnceLock<std::sync::Arc<Policy>> = std::sync::OnceLock::new();
        std::sync::Arc::clone(SHARED.get_or_init(|| std::sync::Arc::new(Policy::accept_all())))
    }

    /// Reject everything.
    pub fn reject_all() -> Self {
        Policy {
            rules: Vec::new(),
            default_accept: false,
        }
    }

    /// Add a rule, builder-style.
    pub fn rule(mut self, rule: PolicyRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Run the policy.
    pub fn apply(&self, prefix: &Prefix, attrs: &PathAttributes) -> PolicyVerdict {
        let mut attrs = attrs.clone();
        for rule in &self.rules {
            if !rule.matches.matches(prefix, &attrs, None) {
                continue;
            }
            for action in &rule.actions {
                match action {
                    Action::Accept => return PolicyVerdict::Accept(attrs),
                    Action::Reject => return PolicyVerdict::Reject,
                    Action::SetLocalPref(v) => attrs.local_pref = *v,
                    Action::Prepend(asn, n) => attrs.prepend(*asn, *n as usize),
                    Action::AddCommunity(c) => attrs.add_community(*c),
                    Action::RemoveCommunity(c) => attrs.remove_community(*c),
                    Action::SetMed(v) => attrs.med = *v,
                    Action::SetLinkBandwidth(bw) => attrs.link_bandwidth_gbps = Some(*bw),
                }
            }
        }
        if self.default_accept {
            PolicyVerdict::Accept(attrs)
        } else {
            PolicyVerdict::Reject
        }
    }

    /// Run the policy over shared attributes; `None` means reject.
    ///
    /// The zero-copy counterpart of [`Policy::apply`] for the daemon's hot
    /// import/export path: a rule-less policy passes the `Arc` straight
    /// through, and a policy whose actions leave the attributes unchanged
    /// (equality is cheap — scalars plus short shared slices) returns the input
    /// allocation instead of minting a new one.
    pub(crate) fn apply_shared(
        &self,
        prefix: &Prefix,
        attrs: Arc<PathAttributes>,
    ) -> Option<Arc<PathAttributes>> {
        fn finish(
            owned: Option<PathAttributes>,
            attrs: Arc<PathAttributes>,
        ) -> Arc<PathAttributes> {
            match owned {
                Some(o) if o != *attrs => Arc::new(o),
                _ => attrs,
            }
        }
        if self.rules.is_empty() {
            return self.default_accept.then_some(attrs);
        }
        // Copy-on-write: `owned` materializes only when an action genuinely
        // changes something. No-op actions — re-adding a community that is
        // already present (the steady state of the valley-free import
        // marking), removing an absent one, setting an unchanged scalar —
        // never force the copy, so per-delivery policy evaluation costs
        // zero allocations once the fabric is in steady state.
        let mut owned: Option<PathAttributes> = None;
        for rule in &self.rules {
            if !rule
                .matches
                .matches(prefix, owned.as_ref().unwrap_or(&attrs), None)
            {
                continue;
            }
            for action in &rule.actions {
                match action {
                    Action::Accept => return Some(finish(owned, attrs)),
                    Action::Reject => return None,
                    Action::SetLocalPref(v) => {
                        if owned.as_ref().unwrap_or(&attrs).local_pref != *v {
                            owned.get_or_insert_with(|| (*attrs).clone()).local_pref = *v;
                        }
                    }
                    Action::Prepend(asn, n) => {
                        if *n > 0 {
                            owned
                                .get_or_insert_with(|| (*attrs).clone())
                                .prepend(*asn, *n as usize);
                        }
                    }
                    Action::AddCommunity(c) => {
                        if !owned.as_ref().unwrap_or(&attrs).has_community(*c) {
                            owned
                                .get_or_insert_with(|| (*attrs).clone())
                                .add_community(*c);
                        }
                    }
                    Action::RemoveCommunity(c) => {
                        if owned.as_ref().unwrap_or(&attrs).has_community(*c) {
                            owned
                                .get_or_insert_with(|| (*attrs).clone())
                                .remove_community(*c);
                        }
                    }
                    Action::SetMed(v) => {
                        if owned.as_ref().unwrap_or(&attrs).med != *v {
                            owned.get_or_insert_with(|| (*attrs).clone()).med = *v;
                        }
                    }
                    Action::SetLinkBandwidth(bw) => {
                        if owned.as_ref().unwrap_or(&attrs).link_bandwidth_gbps != Some(*bw) {
                            owned
                                .get_or_insert_with(|| (*attrs).clone())
                                .link_bandwidth_gbps = Some(*bw);
                        }
                    }
                }
            }
        }
        if self.default_accept {
            Some(finish(owned, attrs))
        } else {
            None
        }
    }

    /// Whether the policy rejects `attrs` with `asn` prepended once, told
    /// without building that body: the first rule that matches it starts
    /// with `Reject`, or no rule matches and the default rejects. Sound, not
    /// complete: `false` says nothing, `true` means [`apply_shared`] on the
    /// built body returns `None` (rules before the first match run no
    /// action, so they cannot change what it sees).
    ///
    /// [`apply_shared`]: Policy::apply_shared
    pub(crate) fn certainly_rejects(
        &self,
        prefix: &Prefix,
        attrs: &PathAttributes,
        asn: Asn,
    ) -> bool {
        match self
            .rules
            .iter()
            .find(|rule| rule.matches.matches(prefix, attrs, Some(asn)))
        {
            Some(rule) => rule.actions.first() == Some(&Action::Reject),
            None => !self.default_accept,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::well_known;
    use proptest::prelude::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    /// Rule that accepts matches after applying `actions`.
    fn accept(matches: MatchExpr, mut actions: Vec<Action>) -> PolicyRule {
        actions.push(Action::Accept);
        PolicyRule { matches, actions }
    }

    #[test]
    fn default_policy_accepts_unchanged() {
        let attrs = PathAttributes::default();
        match Policy::accept_all().apply(&p("10.0.0.0/8"), &attrs) {
            PolicyVerdict::Accept(out) => assert_eq!(out, attrs),
            PolicyVerdict::Reject => panic!("should accept"),
        }
        assert_eq!(
            Policy::reject_all().apply(&p("10.0.0.0/8"), &attrs),
            PolicyVerdict::Reject
        );
    }

    #[test]
    fn community_match_and_local_pref_action() {
        let policy = Policy::reject_all().rule(accept(
            MatchExpr::community(well_known::BACKBONE_DEFAULT_ROUTE),
            vec![Action::SetLocalPref(200)],
        ));
        let tagged = PathAttributes::originated([well_known::BACKBONE_DEFAULT_ROUTE]);
        let plain = PathAttributes::default();
        match policy.apply(&Prefix::DEFAULT, &tagged) {
            PolicyVerdict::Accept(out) => assert_eq!(out.local_pref, 200),
            PolicyVerdict::Reject => panic!("tagged route should pass"),
        }
        assert_eq!(
            policy.apply(&Prefix::DEFAULT, &plain),
            PolicyVerdict::Reject
        );
    }

    #[test]
    fn prepend_action_pads_as_path() {
        let policy = Policy::accept_all().rule(PolicyRule {
            matches: MatchExpr::any(),
            actions: vec![Action::Prepend(Asn(65099), 2)],
        });
        let verdict = policy.apply(&p("10.0.0.0/8"), &PathAttributes::default());
        match verdict {
            PolicyVerdict::Accept(out) => {
                assert_eq!(out.as_path, vec![Asn(65099), Asn(65099)]);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn prefix_within_and_exact_matching() {
        let within = MatchExpr {
            prefix_within: Some(p("10.0.0.0/8")),
            ..Default::default()
        };
        assert!(within.matches(&p("10.3.0.0/16"), &PathAttributes::default(), None));
        assert!(!within.matches(&p("11.0.0.0/8"), &PathAttributes::default(), None));
        let exact = MatchExpr {
            prefix_exact: Some(p("10.0.0.0/8")),
            ..Default::default()
        };
        assert!(exact.matches(&p("10.0.0.0/8"), &PathAttributes::default(), None));
        assert!(!exact.matches(&p("10.3.0.0/16"), &PathAttributes::default(), None));
    }

    #[test]
    fn as_path_criteria() {
        let mut attrs = PathAttributes::default();
        attrs.prepend(Asn(7), 3);
        let has = MatchExpr {
            as_path_contains: Some(Asn(7)),
            ..Default::default()
        };
        let hasnt = MatchExpr {
            as_path_contains: Some(Asn(8)),
            ..Default::default()
        };
        let long = MatchExpr {
            min_as_path_len: Some(3),
            ..Default::default()
        };
        let longer = MatchExpr {
            min_as_path_len: Some(4),
            ..Default::default()
        };
        assert!(has.matches(&Prefix::DEFAULT, &attrs, None));
        assert!(!hasnt.matches(&Prefix::DEFAULT, &attrs, None));
        assert!(long.matches(&Prefix::DEFAULT, &attrs, None));
        assert!(!longer.matches(&Prefix::DEFAULT, &attrs, None));
    }

    #[test]
    fn first_terminal_action_wins() {
        // Rule 1 modifies then accepts; rule 2 would reject but is never hit.
        let policy = Policy::accept_all()
            .rule(accept(MatchExpr::any(), vec![Action::SetMed(5)]))
            .rule(PolicyRule::reject(MatchExpr::any()));
        let verdict = policy.apply(&Prefix::DEFAULT, &PathAttributes::default());
        match verdict {
            PolicyVerdict::Accept(out) => assert_eq!(out.med, 5),
            _ => panic!("rule 1 should accept"),
        }
    }

    #[test]
    fn non_terminal_rule_falls_through_with_modifications() {
        // Rule 1 adds a community but does not terminate; rule 2 matches on
        // that community and rejects.
        let marker = Community(0xDEAD);
        let policy = Policy::accept_all()
            .rule(PolicyRule {
                matches: MatchExpr::any(),
                actions: vec![Action::AddCommunity(marker)],
            })
            .rule(PolicyRule::reject(MatchExpr::community(marker)));
        assert_eq!(
            policy.apply(&Prefix::DEFAULT, &PathAttributes::default()),
            PolicyVerdict::Reject
        );
    }

    #[test]
    fn apply_shared_reuses_allocation_when_unmodified() {
        let attrs = Arc::new(PathAttributes::default());
        // Rule-less accept: pointer passes straight through.
        let out = Policy::accept_all()
            .apply_shared(&Prefix::DEFAULT, Arc::clone(&attrs))
            .unwrap();
        assert!(Arc::ptr_eq(&out, &attrs));
        // Rules that match but change nothing observable still share.
        let noop = Policy::accept_all().rule(accept(
            MatchExpr::community(Community(0xBEEF)),
            vec![Action::SetMed(9)],
        ));
        let out = noop
            .apply_shared(&Prefix::DEFAULT, Arc::clone(&attrs))
            .unwrap();
        assert!(Arc::ptr_eq(&out, &attrs));
        // A modifying rule mints a fresh allocation.
        let modifies = Policy::accept_all().rule(PolicyRule {
            matches: MatchExpr::any(),
            actions: vec![Action::SetMed(9)],
        });
        let out = modifies
            .apply_shared(&Prefix::DEFAULT, Arc::clone(&attrs))
            .unwrap();
        assert!(!Arc::ptr_eq(&out, &attrs));
        assert_eq!(out.med, 9);
        // Rejection maps to None.
        assert!(Policy::reject_all()
            .apply_shared(&Prefix::DEFAULT, attrs)
            .is_none());
    }

    #[test]
    fn link_bandwidth_action() {
        let policy = Policy::accept_all().rule(PolicyRule {
            matches: MatchExpr::any(),
            actions: vec![Action::SetLinkBandwidth(400.0)],
        });
        match policy.apply(&Prefix::DEFAULT, &PathAttributes::default()) {
            PolicyVerdict::Accept(out) => assert_eq!(out.link_bandwidth_gbps, Some(400.0)),
            _ => panic!(),
        }
    }

    #[test]
    fn certainly_rejects_what_an_uplink_refuses() {
        let to_up = Policy::accept_all().rule(PolicyRule::reject(MatchExpr::community(
            well_known::FROM_UPSTREAM,
        )));
        let from_up = PathAttributes::originated([well_known::FROM_UPSTREAM]);
        let from_down = PathAttributes::originated([well_known::RACK_PREFIX]);
        assert!(to_up.certainly_rejects(&Prefix::DEFAULT, &from_up, Asn(7)));
        assert!(!to_up.certainly_rejects(&Prefix::DEFAULT, &from_down, Asn(7)));
        assert!(!Policy::accept_all().certainly_rejects(&Prefix::DEFAULT, &from_up, Asn(7)));
        assert!(Policy::reject_all().certainly_rejects(&Prefix::DEFAULT, &from_down, Asn(7)));
        // Only the prepended view carries the own ASN.
        let no_loops = Policy::accept_all().rule(PolicyRule::reject(MatchExpr {
            as_path_contains: Some(Asn(7)),
            ..Default::default()
        }));
        assert!(no_loops.certainly_rejects(&Prefix::DEFAULT, &from_down, Asn(7)));
        assert!(!no_loops.certainly_rejects(&Prefix::DEFAULT, &from_down, Asn(8)));
    }

    fn prefix() -> impl Strategy<Value = Prefix> {
        (0usize..4).prop_map(|i| {
            [
                Prefix::DEFAULT,
                p("10.0.0.0/8"),
                p("10.1.0.0/16"),
                p("11.0.0.0/8"),
            ][i]
        })
    }

    fn community() -> impl Strategy<Value = Community> {
        (0u32..4).prop_map(Community)
    }

    /// `Some` a quarter of the time: most rules test one or two things.
    fn sometimes<S: Strategy>(inner: S) -> impl Strategy<Value = Option<S::Value>> {
        (0u32..4, inner).prop_map(|(die, value)| (die == 0).then_some(value))
    }

    fn match_expr() -> impl Strategy<Value = MatchExpr> {
        (
            sometimes(prefix()),
            sometimes(prefix()),
            sometimes(community()),
            sometimes((1u32..4).prop_map(Asn)),
            sometimes(0usize..5),
        )
            .prop_map(
                |(prefix_within, prefix_exact, community, as_path_contains, min_as_path_len)| {
                    MatchExpr {
                        prefix_within,
                        prefix_exact,
                        any_community: community.into_iter().collect(),
                        as_path_contains,
                        min_as_path_len,
                    }
                },
            )
    }

    fn action() -> impl Strategy<Value = Action> {
        (0u32..7, 0u32..4).prop_map(|(kind, x)| match kind {
            0 => Action::Accept,
            1 => Action::Reject,
            2 => Action::SetLocalPref(x),
            3 => Action::Prepend(Asn(x), (x % 3) as u8),
            4 => Action::AddCommunity(Community(x)),
            5 => Action::RemoveCommunity(Community(x)),
            _ => Action::SetMed(x),
        })
    }

    fn policy() -> impl Strategy<Value = Policy> {
        let rule = (match_expr(), proptest::collection::vec(action(), 0..3))
            .prop_map(|(matches, actions)| PolicyRule { matches, actions });
        (proptest::collection::vec(rule, 0..4), any::<bool>()).prop_map(
            |(rules, default_accept)| Policy {
                rules,
                default_accept,
            },
        )
    }

    fn attributes() -> impl Strategy<Value = PathAttributes> {
        (
            proptest::collection::vec((1u32..4).prop_map(Asn), 0..3),
            proptest::collection::vec(community(), 0..3),
        )
            .prop_map(|(path, communities)| {
                let mut attrs = PathAttributes::originated(communities);
                for asn in path.into_iter().rev() {
                    attrs.prepend(asn, 1);
                }
                attrs
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// The un-built view matches exactly what the built body matches,
        /// and a policy that certainly rejects the view rejects the body.
        #[test]
        fn certainly_rejects_implies_the_built_body_is_rejected(
            policy in policy(),
            prefix in prefix(),
            attrs in attributes(),
            asn in (1u32..4).prop_map(Asn),
        ) {
            let mut body = attrs.clone();
            body.prepend(asn, 1);
            for rule in &policy.rules {
                prop_assert_eq!(
                    rule.matches.matches(&prefix, &attrs, Some(asn)),
                    rule.matches.matches(&prefix, &body, None)
                );
            }
            if policy.certainly_rejects(&prefix, &attrs, asn) {
                prop_assert!(policy.apply_shared(&prefix, Arc::new(body)).is_none());
            }
        }
    }
}
