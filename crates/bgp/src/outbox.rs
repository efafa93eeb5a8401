//! The speaker's output: one exact-size list of per-session UPDATEs per
//! decide.
//!
//! The export pass of [`BgpDaemon::decide`](crate::BgpDaemon::decide) walks
//! prefixes, and for each the sessions; the [`Outbox`] notes what it tells
//! each session, and the decide's `seal` sorts that once by
//! `(session, prefix)` into one *write*: an UPDATE per session, ascending,
//! every list at its exact size. A host that collects many writes (the
//! emulator's window) passes one outbox to all of them and takes each write
//! back once; the UPDATEs are moved on, never rebuilt.

use crate::attrs::PathAttributes;
use crate::msg::UpdateMessage;
use crate::types::{PeerId, Prefix};
use std::sync::Arc;

/// A route told to a session: `Some` announces the body, `None` withdraws
/// the prefix.
type Told = (Prefix, Option<Arc<PathAttributes>>);

/// Writes of per-session UPDATEs. See the module docs.
#[derive(Debug, Default)]
pub struct Outbox {
    writes: Vec<Vec<(PeerId, UpdateMessage)>>,
    /// What the decide being written has told so far, prefix-major as the
    /// export pass walks; [`seal`](Self::seal) turns it into a write.
    told: Vec<(PeerId, Told)>,
}

impl Outbox {
    /// Run `write` against a fresh outbox and return its UPDATEs in write
    /// order: for one decide, ascending by session.
    pub fn updates(write: impl FnOnce(&mut Outbox)) -> Vec<(PeerId, UpdateMessage)> {
        let mut out = Outbox::default();
        write(&mut out);
        out.writes.into_iter().flatten().collect()
    }

    /// Number of writes since the last [`clear`](Self::clear). A write
    /// tells at least one session something.
    pub fn writes(&self) -> usize {
        self.writes.len()
    }

    /// Write `msg` to `peer`. An empty message writes nothing.
    pub fn push(&mut self, peer: PeerId, msg: UpdateMessage) {
        if !msg.is_empty() {
            self.writes.push(vec![(peer, msg)]);
        }
    }

    /// Take write `write`'s UPDATEs, ascending by session. Each write is
    /// taken once.
    pub fn messages(&mut self, write: usize) -> Vec<(PeerId, UpdateMessage)> {
        std::mem::take(&mut self.writes[write])
    }

    /// Drop every write, keeping the lists' capacity for the next ones.
    pub fn clear(&mut self) {
        self.writes.clear();
    }

    /// Note that the decide being written told `peer` `sent` about
    /// `prefix`. A decide tells each session about a prefix at most once.
    pub(crate) fn tell(&mut self, peer: PeerId, prefix: Prefix, sent: Option<Arc<PathAttributes>>) {
        self.told.push((peer, (prefix, sent)));
    }

    /// End the decide being written: what it told becomes one write, an
    /// UPDATE per session. `(session, prefix)` is unique in `told`, so the
    /// unstable sort has one answer. A decide that told nothing writes
    /// nothing.
    pub(crate) fn seal(&mut self) {
        if self.told.is_empty() {
            return;
        }
        self.told
            .sort_unstable_by_key(|(peer, (prefix, _))| (*peer, *prefix));
        let same_session = |a: &(PeerId, Told), b: &(PeerId, Told)| a.0 == b.0;
        let mut write = Vec::with_capacity(self.told.chunk_by(same_session).count());
        for run in self.told.chunk_by_mut(same_session) {
            let announced = run.iter().filter(|(_, (_, attrs))| attrs.is_some()).count();
            let mut msg = UpdateMessage {
                withdrawn: Vec::with_capacity(run.len() - announced),
                announced: Vec::with_capacity(announced),
            };
            for (_, (prefix, attrs)) in run.iter_mut() {
                match attrs.take() {
                    Some(attrs) => msg.announced.push((*prefix, attrs)),
                    None => msg.withdrawn.push(*prefix),
                }
            }
            write.push((run[0].0, msg));
        }
        self.told.clear();
        self.writes.push(write);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The UPDATE for `peer` in the session-sorted `out`, created empty
    /// when absent; `cursor` only moves forward. The path the export pass
    /// built its output with before the outbox: the reference for `seal`.
    fn update_for<'a>(
        out: &'a mut Vec<(PeerId, UpdateMessage)>,
        cursor: &mut usize,
        peer: PeerId,
    ) -> &'a mut UpdateMessage {
        while out.get(*cursor).is_some_and(|(p, _)| *p < peer) {
            *cursor += 1;
        }
        if out.get(*cursor).is_none_or(|(p, _)| *p != peer) {
            out.insert(*cursor, (peer, UpdateMessage::default()));
        }
        &mut out[*cursor].1
    }

    /// One decide's export pass: ascending prefixes, each told to an
    /// ascending set of sessions, each an announcement or a withdrawal.
    type Pass = Vec<(Prefix, Vec<(PeerId, Option<Arc<PathAttributes>>)>)>;

    fn pass() -> impl Strategy<Value = Pass> {
        let told = (0u64..12, 0u32..3, proptest::bool::ANY).prop_map(|(peer, pref, announce)| {
            let attrs = PathAttributes {
                local_pref: pref,
                ..Default::default()
            };
            (PeerId(peer), announce.then(|| Arc::new(attrs)))
        });
        let prefix = (0u32..16, proptest::collection::vec(told, 0..10));
        proptest::collection::vec(prefix, 0..10).prop_map(|prefixes| {
            let mut pass: Pass = prefixes
                .into_iter()
                .map(|(i, mut told)| {
                    told.sort_by_key(|(peer, _)| *peer);
                    told.dedup_by_key(|(peer, _)| *peer);
                    (Prefix::new(i << 24, 8), told)
                })
                .collect();
            pass.sort_by_key(|(prefix, _)| *prefix);
            pass.dedup_by_key(|(prefix, _)| *prefix);
            pass
        })
    }

    fn reference(pass: &Pass) -> Vec<(PeerId, UpdateMessage)> {
        let mut out = Vec::new();
        for (prefix, told) in pass {
            let mut cursor = 0;
            for (peer, sent) in told {
                let update = update_for(&mut out, &mut cursor, *peer);
                match sent {
                    Some(attrs) => update.announced.push((*prefix, Arc::clone(attrs))),
                    None => update.withdrawn.push(*prefix),
                }
            }
        }
        out
    }

    /// What split delivery sends `peer` for `pass`, before the shuffle: the
    /// withdrawals ascending, then the announcements ascending.
    fn pieces(pass: &Pass, peer: PeerId) -> Vec<UpdateMessage> {
        let told = || {
            pass.iter().filter_map(move |(prefix, told)| {
                let (_, sent) = told.iter().find(|(p, _)| *p == peer)?;
                Some((*prefix, sent.clone()))
            })
        };
        let withdrawn = told().filter(|(_, sent)| sent.is_none());
        let announced = told().filter_map(|(prefix, sent)| Some((prefix, sent?)));
        withdrawn
            .map(|(prefix, _)| UpdateMessage::withdraw(prefix))
            .chain(announced.map(|(prefix, attrs)| UpdateMessage::announce(prefix, attrs)))
            .collect()
    }

    fn write(out: &mut Outbox, pass: &Pass) {
        for (prefix, told) in pass {
            for (peer, sent) in told {
                out.tell(*peer, *prefix, sent.clone());
            }
        }
        out.seal();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Decides written one after another into one outbox read back,
        /// write by write, as exactly the session-sorted UPDATEs the old
        /// per-session path built for each — the adapter included — and an
        /// UPDATE split for delivery gives its withdrawals, then its
        /// announcements.
        #[test]
        fn writes_read_back_as_the_update_for_path_built_them(
            passes in proptest::collection::vec(pass(), 1..4),
        ) {
            let mut out = Outbox::default();
            let mut spans = Vec::new();
            for pass in &passes {
                let start = out.writes();
                write(&mut out, pass);
                prop_assert!(out.writes() - start <= 1, "one decide, one write");
                spans.push(start..out.writes());
            }
            for (pass, span) in passes.iter().zip(spans) {
                let read: Vec<_> = span.flat_map(|w| out.messages(w)).collect();
                prop_assert_eq!(&read, &reference(pass));
                for (peer, msg) in read {
                    prop_assert_eq!(msg.split(), pieces(pass, peer));
                }
            }
            out.clear();
            prop_assert_eq!(out.writes(), 0);
            let adapted = Outbox::updates(|out| write(out, &passes[0]));
            prop_assert_eq!(adapted, reference(&passes[0]));
        }
    }

    #[test]
    fn a_pushed_message_reads_back_as_itself() {
        let attrs = Arc::new(PathAttributes::default());
        let msg = UpdateMessage {
            withdrawn: vec![Prefix::new(3 << 24, 8), Prefix::new(1 << 24, 8)],
            announced: vec![(Prefix::new(2 << 24, 8), attrs)],
        };
        let mut out = Outbox::default();
        out.push(PeerId(4), UpdateMessage::default());
        assert_eq!(out.writes(), 0, "an empty message writes nothing");
        out.push(PeerId(4), msg.clone());
        assert_eq!(out.messages(0), vec![(PeerId(4), msg)]);
    }
}
