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

    /// Whether the update carries no routing information.
    pub fn is_empty(&self) -> bool {
        self.withdrawn.is_empty() && self.announced.is_empty()
    }

    /// Merge another update into this one (later information wins: a prefix
    /// both withdrawn here and announced in `other` ends up announced).
    pub fn merge(&mut self, other: UpdateMessage) {
        for p in other.withdrawn {
            self.announced.retain(|(ap, _)| *ap != p);
            if !self.withdrawn.contains(&p) {
                self.withdrawn.push(p);
            }
        }
        for (p, attrs) in other.announced {
            self.withdrawn.retain(|wp| *wp != p);
            self.announced.retain(|(ap, _)| *ap != p);
            self.announced.push((p, attrs));
        }
    }
}

/// OPEN message parameters (only what the service plane's connection
/// preamble exchanges).
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
}
