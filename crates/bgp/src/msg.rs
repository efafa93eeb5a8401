//! BGP messages.
//!
//! The emulator exchanges structured messages rather than wire octets — the
//! paper's phenomena are control-plane ordering effects, not parsing effects —
//! but the message taxonomy follows RFC 4271: OPEN, UPDATE, KEEPALIVE and
//! NOTIFICATION.

use crate::attrs::PathAttributes;
use crate::types::Prefix;
use centralium_topology::Asn;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// An UPDATE: withdrawals plus announcements. Attributes are `Arc`-shared —
/// a route fanned out to 32 peers carries 32 pointer bumps, not 32 deep
/// copies — mirroring how real BGP encodes one attribute block for many
/// NLRI entries.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct UpdateMessage {
    /// Prefixes no longer reachable via the sender.
    pub withdrawn: Vec<Prefix>,
    /// Announced prefixes and their (shared) path attributes.
    pub announced: Vec<(Prefix, Arc<PathAttributes>)>,
}

impl UpdateMessage {
    /// An update announcing a single prefix.
    pub fn announce(prefix: Prefix, attrs: impl Into<Arc<PathAttributes>>) -> Self {
        UpdateMessage {
            withdrawn: Vec::new(),
            announced: vec![(prefix, attrs.into())],
        }
    }

    /// An update withdrawing a single prefix.
    pub fn withdraw(prefix: Prefix) -> Self {
        UpdateMessage {
            withdrawn: vec![prefix],
            announced: Vec::new(),
        }
    }

    /// One single-route update per route: the withdrawals, then the
    /// announcements, each in order — what split delivery sends.
    pub fn split(self) -> Vec<UpdateMessage> {
        let withdrawn = self.withdrawn.into_iter().map(UpdateMessage::withdraw);
        let announced = self
            .announced
            .into_iter()
            .map(|(p, a)| UpdateMessage::announce(p, a));
        withdrawn.chain(announced).collect()
    }

    /// Whether the update carries no routing information.
    pub fn is_empty(&self) -> bool {
        self.withdrawn.is_empty() && self.announced.is_empty()
    }

    /// Merge another update into this one: later information wins per
    /// prefix (a prefix withdrawn here and announced in `other` ends up
    /// announced, and the reverse ends up withdrawn).
    ///
    /// The result is an *ascending run*: one entry per prefix, `withdrawn`
    /// and `announced` each strictly ascending. The daemon's output already
    /// has that shape, so merging it is one pass from the back of both
    /// lists, in place, with no search and no allocation beyond the lists'
    /// own growth. Any other shape (codec pieces group announcements by
    /// attribute block) is first canonicalised here: withdrawals, then
    /// announcements, taken in order, the last word on a prefix winning.
    pub fn merge(&mut self, mut other: UpdateMessage) {
        self.canonicalise();
        other.canonicalise();
        // New withdrawals: (W ∪ W') \ A'. Other's lists share no prefix, so
        // into an empty list W' moves whole.
        if self.withdrawn.is_empty() {
            self.withdrawn = other.withdrawn;
        } else {
            let dropped = other.announced.iter().map(|(p, _)| *p);
            merge_runs(&mut self.withdrawn, other.withdrawn, |p| *p, dropped);
        }
        // New announcements: A' over (A \ W'). Dropping the new withdrawals
        // instead of W' is the same: they share no prefix with A', and with
        // A only those of W'.
        if self.announced.is_empty() {
            self.announced = other.announced;
        } else {
            let dropped = self.withdrawn.iter().copied();
            merge_runs(&mut self.announced, other.announced, |(p, _)| *p, dropped);
        }
    }

    /// Whether this update is an ascending run: both lists strictly
    /// ascending, no prefix in both.
    fn is_canonical(&self) -> bool {
        let ascending = self.withdrawn.is_sorted_by(|a, b| a < b)
            && self.announced.is_sorted_by(|a, b| a.0 < b.0);
        let mut announced = descending_probe(self.announced.iter().map(|(p, _)| *p));
        ascending && !self.withdrawn.iter().rev().any(|p| announced(*p))
    }

    /// Reshape into an ascending run with the same meaning per prefix:
    /// announced (its last announcement) if announced at all, else withdrawn.
    fn canonicalise(&mut self) {
        if self.is_canonical() {
            return;
        }
        // A stable sort of the reversed list puts each prefix's last
        // announcement first, where `dedup` keeps it.
        self.announced.reverse();
        self.announced.sort_by_key(|(p, _)| *p);
        self.announced.dedup_by_key(|(p, _)| *p);
        self.withdrawn.sort_unstable();
        self.withdrawn.dedup();
        let announced = &self.announced;
        self.withdrawn
            .retain(|p| announced.binary_search_by(|(q, _)| q.cmp(p)).is_err());
    }
}

/// Membership in the ascending run `run` for probes that come in
/// descending order: one cursor walks down `run` once over all of them.
fn descending_probe(run: impl DoubleEndedIterator<Item = Prefix>) -> impl FnMut(Prefix) -> bool {
    let mut run = run.rev().peekable();
    move |p| {
        while run.next_if(|q| *q > p).is_some() {}
        run.peek() == Some(&p)
    }
}

/// Merge the ascending run `new` into the ascending run `list` in place: an
/// entry of `new` replaces the one of `list` with its prefix, and an entry
/// of `list` whose prefix is in the ascending run `dropped` goes. `list`
/// grows by the entries of `new` that replace nothing, and the walk runs
/// from the back of both, writing each entry into the highest free slot.
/// It stops where nothing is left to place or drop: the entries below stay
/// put, and the slots between them and what was written are drained.
fn merge_runs<T: Clone>(
    list: &mut Vec<T>,
    mut new: Vec<T>,
    prefix: impl Fn(&T) -> Prefix,
    dropped: impl DoubleEndedIterator<Item = Prefix> + Clone,
) {
    // Most of what a daemon re-sends replaces an entry, so the list grows
    // by few slots, each holding a clone until it is written.
    let grow = {
        let mut held = descending_probe(list.iter().map(&prefix));
        new.iter()
            .rev()
            .filter(|entry| !held(prefix(entry)))
            .count()
    };
    if let Some(filler) = new.first().filter(|_| grow > 0).cloned() {
        list.resize(list.len() + grow, filler);
    }
    let lowest_dropped = dropped.clone().next();
    let mut is_dropped = descending_probe(dropped);
    // `end − i` never falls below the number of entries left in `new` that
    // replace nothing, so a write never lands on an entry not yet walked.
    let (mut i, mut end) = (list.len() - grow, list.len());
    while i > 0 {
        let old = prefix(&list[i - 1]);
        match new.last().map(|entry| prefix(entry).cmp(&old)) {
            Some(order) if order.is_ge() => {
                i -= usize::from(order.is_eq());
                end -= 1;
                list[end] = new.pop().expect("a last entry");
            }
            _ if new.is_empty() && lowest_dropped.is_none_or(|p| p > old) => break,
            _ => {
                i -= 1;
                if !is_dropped(old) {
                    end -= 1;
                    list.swap(i, end);
                }
            }
        }
    }
    // What is left of `new` sorts below all of `list`.
    let rest = new.len();
    for (slot, entry) in list[end - rest..end].iter_mut().zip(new) {
        *slot = entry;
    }
    list.drain(i..end - rest);
}

/// OPEN message parameters (only what the wire codec's 4-octet-ASN path
/// needs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpenMessage {
    /// Sender's autonomous system.
    pub asn: Asn,
    /// Proposed hold time in (simulated) seconds.
    pub hold_time_secs: u32,
}

/// NOTIFICATION error codes (subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NotificationCode {
    /// Session-level FSM error.
    FiniteStateMachineError,
    /// Hold timer expired without a KEEPALIVE/UPDATE.
    HoldTimerExpired,
    /// Administrative shutdown (cease).
    Cease,
}

/// The BGP message taxonomy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum BgpMessage {
    /// Session open.
    Open(OpenMessage),
    /// Route update.
    Update(UpdateMessage),
    /// Liveness.
    Keepalive,
    /// Error / teardown.
    Notification(NotificationCode),
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn constructors() {
        let a = UpdateMessage::announce(p("10.0.0.0/8"), PathAttributes::default());
        assert_eq!(a.announced.len(), 1);
        assert!(a.withdrawn.is_empty());
        let w = UpdateMessage::withdraw(p("10.0.0.0/8"));
        assert!(w.announced.is_empty());
        assert_eq!(w.withdrawn.len(), 1);
        assert!(UpdateMessage::default().is_empty());
        assert!(!a.is_empty());
    }

    #[test]
    fn merge_later_announce_wins_over_withdraw() {
        let mut m = UpdateMessage::withdraw(p("10.0.0.0/8"));
        m.merge(UpdateMessage::announce(
            p("10.0.0.0/8"),
            PathAttributes::default(),
        ));
        assert!(m.withdrawn.is_empty());
        assert_eq!(m.announced.len(), 1);
    }

    #[test]
    fn merge_later_withdraw_wins_over_announce() {
        let mut m = UpdateMessage::announce(p("10.0.0.0/8"), PathAttributes::default());
        m.merge(UpdateMessage::withdraw(p("10.0.0.0/8")));
        assert!(m.announced.is_empty());
        assert_eq!(m.withdrawn, vec![p("10.0.0.0/8")]);
    }

    #[test]
    fn merge_replaces_same_prefix_announcement() {
        let attrs2 = PathAttributes {
            local_pref: 200,
            ..Default::default()
        };
        let mut m = UpdateMessage::announce(p("10.0.0.0/8"), PathAttributes::default());
        m.merge(UpdateMessage::announce(p("10.0.0.0/8"), attrs2.clone()));
        assert_eq!(m.announced.len(), 1);
        assert_eq!(*m.announced[0].1, attrs2);
    }

    #[test]
    fn merge_does_not_duplicate_withdrawals() {
        let mut m = UpdateMessage::withdraw(p("10.0.0.0/8"));
        m.merge(UpdateMessage::withdraw(p("10.0.0.0/8")));
        assert_eq!(m.withdrawn.len(), 1);
    }

    /// The merge as it was first written, one prefix at a time with two
    /// `retain`s over the batch each: the reference for [`UpdateMessage::merge`].
    fn reference_merge(m: &mut UpdateMessage, other: UpdateMessage) {
        for p in other.withdrawn {
            m.announced.retain(|(ap, _)| *ap != p);
            if !m.withdrawn.contains(&p) {
                m.withdrawn.push(p);
            }
        }
        for (p, attrs) in other.announced {
            m.withdrawn.retain(|wp| *wp != p);
            m.announced.retain(|(ap, _)| *ap != p);
            m.announced.push((p, attrs));
        }
    }

    /// What an update tells a receiver, per prefix: a receiver takes the
    /// withdrawals, then the announcements.
    fn meaning(m: &UpdateMessage) -> BTreeMap<Prefix, Option<Arc<PathAttributes>>> {
        let mut told: BTreeMap<_, _> = m.withdrawn.iter().map(|p| (*p, None)).collect();
        told.extend(m.announced.iter().map(|(p, a)| (*p, Some(Arc::clone(a)))));
        told
    }

    /// An update over twelve prefixes, duplicates and any order allowed,
    /// or (when `ascending`) the daemon's shape: an ascending run.
    fn update(ascending: bool) -> impl Strategy<Value = UpdateMessage> {
        let prefix = |i: u32| Prefix::new(i << 24, 8);
        let route = (0u32..12, 0u32..3).prop_map(move |(i, pref)| {
            let attrs = PathAttributes {
                local_pref: pref,
                ..Default::default()
            };
            (prefix(i), Arc::new(attrs))
        });
        (
            proptest::collection::vec((0u32..12).prop_map(prefix), 0..8),
            proptest::collection::vec(route, 0..8),
        )
            .prop_map(move |(mut withdrawn, mut announced)| {
                if ascending {
                    announced.sort_by_key(|(p, _)| *p);
                    announced.dedup_by_key(|(p, _)| *p);
                    withdrawn.sort_unstable();
                    withdrawn.dedup();
                    withdrawn.retain(|p| announced.iter().all(|(q, _)| q != p));
                }
                UpdateMessage {
                    withdrawn,
                    announced,
                }
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// A chain of merges of unsorted, duplicated and ascending updates
        /// means what the reference's result means, prefix by prefix, and
        /// is an ascending run after every step.
        #[test]
        fn merge_means_what_the_reference_means(
            base in update(false),
            others in proptest::collection::vec((update(false), update(true)), 1..5),
        ) {
            let (mut fast, mut slow) = (base.clone(), base);
            for (any, ascending) in others {
                for other in [ascending.clone(), any, ascending] {
                    fast.merge(other.clone());
                    reference_merge(&mut slow, other);
                    prop_assert!(fast.is_canonical(), "not an ascending run: {:?}", fast);
                    prop_assert_eq!(meaning(&fast), meaning(&slow));
                }
            }
        }
    }

    #[test]
    fn merge_interleaves_ascending_runs_in_place() {
        let ann = |i: u32, pref: u32| {
            let attrs = PathAttributes {
                local_pref: pref,
                ..Default::default()
            };
            (Prefix::new(i << 24, 8), Arc::new(attrs))
        };
        let w = |i: u32| Prefix::new(i << 24, 8);
        let mut m = UpdateMessage {
            withdrawn: vec![w(2), w(6)],
            announced: vec![ann(1, 0), ann(3, 0), ann(5, 0), ann(7, 0)],
        };
        m.merge(UpdateMessage {
            withdrawn: vec![w(3), w(8)],
            announced: vec![ann(0, 1), ann(5, 1), ann(6, 1), ann(9, 1)],
        });
        assert_eq!(m.withdrawn, vec![w(2), w(3), w(8)]);
        let announced: Vec<(Prefix, u32)> = m
            .announced
            .iter()
            .map(|(p, a)| (*p, a.local_pref))
            .collect();
        let expected = [(0, 1), (1, 0), (5, 1), (6, 1), (7, 0), (9, 1)];
        assert_eq!(announced, expected.map(|(i, pref)| (w(i), pref)));
    }
}
