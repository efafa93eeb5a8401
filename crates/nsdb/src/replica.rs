//! NSDB replication: fan-out writes, leader reads, failover, recovery.
//!
//! §5.2 "Service Failures": NSDB adopts an eventual-consistency model. All
//! publish requests fan out to all replicas; read requests go to the elected
//! leader; on replica failure reads re-route to the next elected leader.
//! Recovery syncs a replica from the current leader.

use crate::path::Path;
use crate::tree::StateTree;
use serde_json::Value;

/// One NSDB replica.
#[derive(Debug, Clone)]
struct Replica {
    state: StateTree,
    alive: bool,
    /// Writes applied (CPU proxy for Figure 11).
    writes: u64,
}

/// A replicated NSDB: N replicas with deterministic leader election (lowest
/// alive index).
#[derive(Debug)]
pub struct ReplicatedNsdb {
    replicas: Vec<Replica>,
    /// Reads served (leader CPU proxy).
    reads: u64,
    /// Writes that failed to reach at least one replica (durability metric).
    partial_writes: u64,
}

impl ReplicatedNsdb {
    /// Create with `n` replicas (paper default: two per service).
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "need at least one replica");
        ReplicatedNsdb {
            replicas: vec![
                Replica {
                    state: StateTree::new(),
                    alive: true,
                    writes: 0
                };
                n
            ],
            reads: 0,
            partial_writes: 0,
        }
    }

    /// Index of the current leader, if any replica is alive.
    pub(crate) fn leader(&self) -> Option<usize> {
        self.replicas.iter().position(|r| r.alive)
    }

    /// Fan a write out to all alive replicas. Returns `false` when every
    /// replica is down (write lost).
    pub fn publish(&mut self, path: Path, value: Value) -> bool {
        let mut reached = 0;
        for r in self.replicas.iter_mut().filter(|r| r.alive) {
            r.state.set(path.clone(), value.clone());
            r.writes += 1;
            reached += 1;
        }
        if reached > 0 && reached < self.replicas.len() {
            self.partial_writes += 1;
        }
        reached > 0
    }

    /// Fan a delete out to all alive replicas.
    pub fn delete(&mut self, path: &Path) -> bool {
        let mut any = false;
        for r in self.replicas.iter_mut().filter(|r| r.alive) {
            r.state.delete(path);
            r.writes += 1;
            any = true;
        }
        any
    }

    /// Read from the elected leader.
    pub fn get(&mut self, path: &Path) -> Option<Value> {
        let leader = self.leader()?;
        self.reads += 1;
        self.replicas[leader].state.get(path).cloned()
    }

    /// Wildcard read from the elected leader.
    pub fn get_matching(&mut self, pattern: &Path) -> Vec<(Path, Value)> {
        let Some(leader) = self.leader() else {
            return Vec::new();
        };
        self.reads += 1;
        self.replicas[leader]
            .state
            .get_matching(pattern)
            .into_iter()
            .map(|(p, v)| (p.clone(), v.clone()))
            .collect()
    }

    /// Kill a replica. Reads transparently fail over.
    pub fn fail_replica(&mut self, idx: usize) {
        if let Some(r) = self.replicas.get_mut(idx) {
            r.alive = false;
        }
    }

    /// Recover a replica: it re-syncs from the current leader before
    /// serving (eventual consistency catch-up).
    pub fn recover_replica(&mut self, idx: usize) {
        let Some(leader) = self.leader() else {
            // No leader to sync from: come up empty.
            if let Some(r) = self.replicas.get_mut(idx) {
                r.alive = true;
                r.state = StateTree::new();
            }
            return;
        };
        if idx >= self.replicas.len() || idx == leader {
            return;
        }
        let snapshot = self.replicas[leader].state.clone();
        let r = &mut self.replicas[idx];
        r.state = snapshot;
        r.alive = true;
    }

    /// Whether all alive replicas hold identical state (converged).
    pub fn is_consistent(&self) -> bool {
        let alive: Vec<&Replica> = self.replicas.iter().filter(|r| r.alive).collect();
        alive.windows(2).all(|w| w[0].state == w[1].state)
    }

    /// (reads, total writes, partial writes) — CPU proxies.
    pub fn op_counters(&self) -> (u64, u64, u64) {
        (
            self.reads,
            self.replicas.iter().map(|r| r.writes).sum(),
            self.partial_writes,
        )
    }

    /// Memory proxy: bytes across replicas.
    pub fn approx_bytes(&self) -> usize {
        self.replicas.iter().map(|r| r.state.approx_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn writes_fan_out_and_leader_serves_reads() {
        let mut db = ReplicatedNsdb::new(2);
        assert!(db.publish(Path::parse("/a"), json!(1)));
        assert_eq!(db.get(&Path::parse("/a")), Some(json!(1)));
        assert!(db.is_consistent());
        assert_eq!(db.leader(), Some(0));
    }

    #[test]
    fn leader_failover_preserves_reads() {
        let mut db = ReplicatedNsdb::new(3);
        db.publish(Path::parse("/a"), json!(1));
        db.fail_replica(0);
        assert_eq!(db.leader(), Some(1));
        assert_eq!(db.get(&Path::parse("/a")), Some(json!(1)), "re-routed read");
    }

    #[test]
    fn recovery_syncs_from_leader() {
        let mut db = ReplicatedNsdb::new(2);
        db.publish(Path::parse("/a"), json!(1));
        db.fail_replica(1);
        // Replica 1 misses this write.
        db.publish(Path::parse("/b"), json!(2));
        assert_eq!(db.op_counters().2, 1, "partial write counted");
        db.recover_replica(1);
        assert!(db.is_consistent(), "recovered replica caught up");
        db.fail_replica(0);
        assert_eq!(db.get(&Path::parse("/b")), Some(json!(2)));
    }

    #[test]
    fn total_outage_loses_writes() {
        let mut db = ReplicatedNsdb::new(2);
        db.fail_replica(0);
        db.fail_replica(1);
        assert_eq!(db.leader(), None);
        assert!(!db.publish(Path::parse("/a"), json!(1)));
        assert_eq!(db.get(&Path::parse("/a")), None);
        db.recover_replica(0);
        assert_eq!(db.get(&Path::parse("/a")), None, "write was lost");
    }

    #[test]
    fn wildcard_reads_from_leader() {
        let mut db = ReplicatedNsdb::new(2);
        db.publish(Path::parse("/d/x/rpa"), json!(1));
        db.publish(Path::parse("/d/y/rpa"), json!(2));
        let hits = db.get_matching(&Path::parse("/d/*/rpa"));
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn deletes_fan_out() {
        let mut db = ReplicatedNsdb::new(2);
        db.publish(Path::parse("/a"), json!(1));
        db.delete(&Path::parse("/a"));
        assert_eq!(db.get(&Path::parse("/a")), None);
        assert!(db.is_consistent());
    }
}
