//! A simulated device: BGP daemon + RPA engine + FIB.

use crate::fib::{Fib, FibScratch};
use centralium_bgp::{BgpDaemon, DaemonConfig, Outbox};
use centralium_rpa::RpaEngine;
use centralium_topology::DeviceId;

/// One switch in the emulator.
#[derive(Debug)]
pub struct SimDevice {
    /// Topology id.
    pub id: DeviceId,
    /// The BGP speaker.
    pub daemon: BgpDaemon,
    /// The switch-local RPA engine (implements the daemon's hook trait).
    pub engine: RpaEngine,
    /// Forwarding table with next-hop-group accounting.
    pub fib: Fib,
}

/// A device before it carries a route: the speaker (208 B), an idle engine
/// (48 B) and an empty FIB (160 B).
const _: () = assert!(std::mem::size_of::<SimDevice>() <= 424);

impl SimDevice {
    /// A fresh daemon with `cfg`, a fresh engine and an empty FIB of the
    /// given capacity.
    pub(crate) fn new(id: DeviceId, cfg: DaemonConfig, nhg_capacity: usize) -> Self {
        SimDevice {
            id,
            daemon: BgpDaemon::new(cfg),
            engine: RpaEngine::new(),
            fib: Fib::new(nhg_capacity),
        }
    }

    /// Mark dirty prefixes with `mark`, then run the daemon's one
    /// [`decide`](BgpDaemon::decide) against this device's engine with one
    /// FIB batch as its forwarding plane, projected in the caller's
    /// `scratch`: the decision programs each entry it moves as it installs
    /// it. The updates the daemon wants sent go into `out`.
    pub fn decide(
        &mut self,
        scratch: &mut FibScratch,
        out: &mut Outbox,
        mark: impl FnOnce(&mut BgpDaemon, &RpaEngine),
    ) {
        mark(&mut self.daemon, &self.engine);
        let mut batch = self.fib.batch(scratch);
        self.daemon.decide(&self.engine, &mut batch, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use centralium_bgp::{PathAttributes, PeerConfig, PeerId, Prefix, UpdateMessage};
    use centralium_topology::Asn;

    /// A device whose one session, 5, has announced the default route.
    fn announced(nhg_capacity: usize, dedup_heuristic: bool) -> (SimDevice, FibScratch) {
        let mut dev = SimDevice::new(DeviceId(0), DaemonConfig::fabric(Asn(1)), nhg_capacity);
        dev.fib.dedup_heuristic = dedup_heuristic;
        let mut scratch = FibScratch::default();
        dev.daemon
            .add_peer(PeerConfig::open(PeerId(5), Asn(2), 100.0));
        dev.daemon.peer_up(PeerId(5), &dev.engine);
        dev.decide(&mut scratch, &mut Outbox::default(), |d, e| {
            let mut attrs = PathAttributes::default();
            attrs.prepend(Asn(2), 1);
            d.ingest(
                PeerId(5),
                UpdateMessage::announce(Prefix::DEFAULT, attrs),
                e,
            );
        });
        (dev, scratch)
    }

    #[test]
    fn decide_keeps_fib_in_sync() {
        let (dev, _) = announced(64, false);
        assert_eq!(dev.fib.len(), 1);
        assert_eq!(
            dev.fib.entry(Prefix::DEFAULT).unwrap().nexthops,
            vec![(PeerId(5), 1)]
        );
    }

    #[test]
    fn a_decide_that_changes_nothing_counts_no_overflow_under_the_dedup_heuristic() {
        // Capacity 0: the one installed group already overflows the table.
        let (mut dev, mut scratch) = announced(0, true);
        assert_eq!(dev.fib.nhg_stats().overflow_events, 1);
        dev.decide(&mut scratch, &mut Outbox::default(), |_, _| {});
        dev.decide(&mut scratch, &mut Outbox::default(), |d, _| {
            d.mark([Prefix::DEFAULT])
        });
        assert_eq!(dev.fib.nhg_stats().overflow_events, 1);
    }
}
