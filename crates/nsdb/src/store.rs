//! The dual store: intended state vs current state.
//!
//! §5.1: "every Centralium service maintains two contrasting network views:
//! an intended state ... and a current state". Contrasting them detects
//! straggler switches and powers slow-roll gating ("gated by the percentage
//! of managed devices that are out-of-sync").

use crate::path::Path;
use crate::tree::StateTree;
use serde_json::Value;

/// Which of the two views an operation addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum View {
    /// What applications want the network to be.
    Intended,
    /// Ground truth collected from switches.
    Current,
}

/// Intended + current state.
#[derive(Debug, Default)]
pub struct DualStore {
    intended: StateTree,
    current: StateTree,
}

impl DualStore {
    /// Read-only access to a view.
    pub fn view(&self, which: View) -> &StateTree {
        match which {
            View::Intended => &self.intended,
            View::Current => &self.current,
        }
    }

    /// Set a value in a view.
    pub fn set(&mut self, which: View, path: Path, value: Value) {
        self.view_mut(which).set(path, value);
    }

    /// Delete a value in a view.
    pub fn delete(&mut self, which: View, path: &Path) -> Option<Value> {
        self.view_mut(which).delete(path)
    }

    fn view_mut(&mut self, which: View) -> &mut StateTree {
        match which {
            View::Intended => &mut self.intended,
            View::Current => &mut self.current,
        }
    }

    /// Paths where current ≠ intended — the consistency-guarantee work list.
    pub fn out_of_sync(&self) -> Vec<Path> {
        self.intended.diff_paths(&self.current)
    }

    /// Out-of-sync fraction restricted to a subtree (slow-roll gate): the
    /// share of leaves under `root` — across *both* views — where current
    /// differs from intended. Counting only intended leaves would read 0.0
    /// during removals, while devices still run state the operator deleted.
    pub fn out_of_sync_fraction(&self, root: &Path) -> f64 {
        let mut universe: std::collections::BTreeSet<&Path> = std::collections::BTreeSet::new();
        universe.extend(self.intended.subtree(root).into_iter().map(|(p, _)| p));
        universe.extend(self.current.subtree(root).into_iter().map(|(p, _)| p));
        if universe.is_empty() {
            return 0.0;
        }
        let stale = universe
            .iter()
            .filter(|p| self.intended.get(p) != self.current.get(p))
            .count();
        stale as f64 / universe.len() as f64
    }

    /// Memory proxy for Figure 11: the "superset" of both views.
    pub(crate) fn approx_bytes(&self) -> usize {
        self.intended.approx_bytes() + self.current.approx_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn views_are_independent() {
        let mut s = DualStore::default();
        s.set(View::Intended, Path::parse("/a"), json!(1));
        assert_eq!(
            s.view(View::Intended).get(&Path::parse("/a")),
            Some(&json!(1))
        );
        assert_eq!(s.view(View::Current).get(&Path::parse("/a")), None);
    }

    #[test]
    fn out_of_sync_and_reconcile() {
        let mut s = DualStore::default();
        s.set(View::Intended, Path::parse("/dev/x/rpa"), json!("v2"));
        s.set(View::Current, Path::parse("/dev/x/rpa"), json!("v1"));
        assert_eq!(s.out_of_sync(), vec![Path::parse("/dev/x/rpa")]);
        // Switch agent reports the device caught up.
        s.set(View::Current, Path::parse("/dev/x/rpa"), json!("v2"));
        assert!(s.out_of_sync().is_empty());
    }

    #[test]
    fn slow_roll_gate_fraction() {
        let mut s = DualStore::default();
        for i in 0..10 {
            s.set(
                View::Intended,
                Path::parse(&format!("/dev/d{i}/rpa")),
                json!("new"),
            );
        }
        for i in 0..7 {
            s.set(
                View::Current,
                Path::parse(&format!("/dev/d{i}/rpa")),
                json!("new"),
            );
        }
        let frac = s.out_of_sync_fraction(&Path::parse("/dev"));
        assert!((frac - 0.3).abs() < 1e-9, "3 of 10 stale, got {frac}");
        assert_eq!(s.out_of_sync_fraction(&Path::parse("/empty")), 0.0);
    }

    #[test]
    fn slow_roll_gate_counts_pending_removals() {
        let mut s = DualStore::default();
        // Devices still run state the operator has deleted: the gate must
        // not read 0.0.
        s.set(View::Current, Path::parse("/dev/d0/rpa"), json!("old"));
        s.set(View::Current, Path::parse("/dev/d1/rpa"), json!("old"));
        assert_eq!(s.out_of_sync_fraction(&Path::parse("/dev")), 1.0);
        s.delete(View::Current, &Path::parse("/dev/d0/rpa"));
        assert_eq!(s.out_of_sync_fraction(&Path::parse("/dev")), 1.0);
        s.delete(View::Current, &Path::parse("/dev/d1/rpa"));
        assert_eq!(s.out_of_sync_fraction(&Path::parse("/dev")), 0.0);
    }
}
