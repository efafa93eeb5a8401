//! A simulated device: BGP daemon + RPA engine + FIB.

use crate::fib::{Fib, FibScratch};
use centralium_bgp::{BgpDaemon, PeerId, UpdateMessage};
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

impl SimDevice {
    /// Bundle a daemon with a fresh engine and a FIB of the given capacity,
    /// synced to the daemon: the baseline [`decide`](Self::decide)'s delta
    /// export builds on.
    pub(crate) fn new(id: DeviceId, mut daemon: BgpDaemon, nhg_capacity: usize) -> Self {
        let mut fib = Fib::new(nhg_capacity);
        fib.sync(daemon.fib());
        daemon.mark_fib_synced();
        SimDevice {
            id,
            daemon,
            engine: RpaEngine::new(),
            fib,
        }
    }

    /// Mark dirty prefixes with `mark`, run the daemon's one
    /// [`decide`](BgpDaemon::decide) against this device's engine, and
    /// synchronize the FIB — via the per-prefix delta export when sound, via
    /// a full rebuild otherwise (a daemon restored without its baseline, and
    /// the dedup heuristic). The delta is projected in the caller's
    /// `scratch`. Returns the updates the daemon wants sent.
    pub fn decide(
        &mut self,
        scratch: &mut FibScratch,
        mark: impl FnOnce(&mut BgpDaemon, &RpaEngine),
    ) -> Vec<(PeerId, UpdateMessage)> {
        mark(&mut self.daemon, &self.engine);
        let out = self.daemon.decide(&self.engine);
        if !self.fib.dedup_heuristic && self.daemon.fib_delta_ready() {
            self.fib.apply(self.daemon.drain_fib_changes(), scratch);
        } else {
            self.fib.sync(self.daemon.fib());
            self.daemon.mark_fib_synced();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use centralium_bgp::{DaemonConfig, PathAttributes, PeerConfig, Prefix};
    use centralium_topology::Asn;

    #[test]
    fn decide_keeps_fib_in_sync() {
        let daemon = BgpDaemon::new(DaemonConfig::fabric(Asn(1)));
        let mut dev = SimDevice::new(DeviceId(0), daemon, 64);
        let mut scratch = FibScratch::default();
        dev.daemon
            .add_peer(PeerConfig::open(PeerId(5), Asn(2), 100.0));
        dev.daemon.peer_up(PeerId(5), &dev.engine);
        dev.decide(&mut scratch, |d, e| {
            let mut attrs = PathAttributes::default();
            attrs.prepend(Asn(2), 1);
            d.ingest(
                PeerId(5),
                UpdateMessage::announce(Prefix::DEFAULT, attrs),
                e,
            );
        });
        assert_eq!(dev.fib.len(), 1);
        assert_eq!(
            dev.fib.entry(Prefix::DEFAULT).unwrap().nexthops,
            vec![(PeerId(5), 1)]
        );
    }
}
