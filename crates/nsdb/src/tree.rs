//! The state tree: path-addressed, data-agnostic storage.

use crate::path::Path;
use serde_json::Value;
use std::collections::BTreeMap;

/// A tree of JSON values addressed by [`Path`]s. Only leaves store values;
/// interior nodes exist implicitly. Iteration order is deterministic
/// (lexicographic by segments).
#[derive(Debug, Default, Clone, PartialEq)]
pub struct StateTree {
    leaves: BTreeMap<Path, Value>,
}

impl StateTree {
    /// Empty tree.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Set the value at a concrete path. Returns the previous value.
    ///
    /// # Panics
    /// Panics if `path` contains wildcards — patterns are read-only.
    pub(crate) fn set(&mut self, path: Path, value: Value) -> Option<Value> {
        assert!(!path.is_pattern(), "cannot set a wildcard path: {path}");
        self.leaves.insert(path, value)
    }

    /// Get the value at a concrete path.
    pub fn get(&self, path: &Path) -> Option<&Value> {
        self.leaves.get(path)
    }

    /// Delete a leaf. Returns the removed value.
    pub(crate) fn delete(&mut self, path: &Path) -> Option<Value> {
        self.leaves.remove(path)
    }

    /// All `(path, value)` pairs matching a pattern (or the single exact
    /// match for a concrete path) — the wildcard get of Appendix A.3.
    pub(crate) fn get_matching(&self, pattern: &Path) -> Vec<(&Path, &Value)> {
        if !pattern.is_pattern() {
            return self
                .get(pattern)
                .map(|v| (self.leaves.get_key_value(pattern).unwrap().0, v))
                .into_iter()
                .collect();
        }
        self.leaves
            .iter()
            .filter(|(p, _)| pattern.matches(p))
            .collect()
    }

    /// All leaves under a subtree root. `Path` orders by segments, so a
    /// subtree is the contiguous run of leaves from its root on.
    pub fn subtree(&self, root: &Path) -> Vec<(&Path, &Value)> {
        self.leaves
            .range(root..)
            .take_while(|(p, _)| root.is_ancestor_of(p))
            .collect()
    }

    /// Approximate in-memory size: serialized byte length of all leaves.
    /// Used as the Figure 11 memory proxy.
    pub(crate) fn approx_bytes(&self) -> usize {
        self.leaves
            .iter()
            .map(|(p, v)| {
                p.to_string().len() + serde_json::to_string(v).map(|s| s.len()).unwrap_or(0)
            })
            .sum()
    }

    /// Paths whose values differ between `self` and `other`, including paths
    /// present on only one side. Deterministic order.
    pub(crate) fn diff_paths(&self, other: &StateTree) -> Vec<Path> {
        let mut out = Vec::new();
        for (p, v) in &self.leaves {
            if other.leaves.get(p) != Some(v) {
                out.push(p.clone());
            }
        }
        for p in other.leaves.keys() {
            if !self.leaves.contains_key(p) {
                out.push(p.clone());
            }
        }
        out.sort();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn set_get_delete() {
        let mut t = StateTree::new();
        assert_eq!(t.set(Path::parse("/a/b"), json!(1)), None);
        assert_eq!(t.set(Path::parse("/a/b"), json!(2)), Some(json!(1)));
        assert_eq!(t.get(&Path::parse("/a/b")), Some(&json!(2)));
        assert_eq!(t.delete(&Path::parse("/a/b")), Some(json!(2)));
        assert!(t.get(&Path::parse("/a/b")).is_none());
    }

    #[test]
    #[should_panic(expected = "cannot set a wildcard path")]
    fn setting_pattern_panics() {
        StateTree::new().set(Path::parse("/a/*"), json!(1));
    }

    #[test]
    fn wildcard_get() {
        let mut t = StateTree::new();
        t.set(Path::parse("/devices/x/rpa/a"), json!(1));
        t.set(Path::parse("/devices/y/rpa/a"), json!(2));
        t.set(Path::parse("/devices/x/config"), json!(3));
        let hits = t.get_matching(&Path::parse("/devices/*/rpa/a"));
        assert_eq!(hits.len(), 2);
        let all = t.get_matching(&Path::parse("/devices/**"));
        assert_eq!(all.len(), 3);
        let exact = t.get_matching(&Path::parse("/devices/x/config"));
        assert_eq!(exact.len(), 1);
        assert_eq!(exact[0].1, &json!(3));
    }

    #[test]
    fn subtree_collects_descendants() {
        let mut t = StateTree::new();
        t.set(Path::parse("/devices/x/a"), json!(1));
        t.set(Path::parse("/devices/x/b"), json!(2));
        t.set(Path::parse("/devices/y/a"), json!(3));
        assert_eq!(t.subtree(&Path::parse("/devices/x")).len(), 2);
        assert_eq!(t.subtree(&Path::parse("/devices")).len(), 3);
    }

    /// The range walk against the whole-tree scan it replaced, on a
    /// seeded tree where `/devices/d1` sorts next to `/devices/d10` and
    /// `/devices/d1x`.
    #[test]
    fn subtree_range_matches_a_full_scan() {
        let mut t = StateTree::new();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut next = |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        let names = ["d1", "d10", "d1x", "d2", "d100", "e", "d1-"];
        for _ in 0..400 {
            let mut path = String::new();
            for _ in 0..1 + next(4) {
                path.push('/');
                path.push_str(if next(2) == 0 {
                    "devices"
                } else {
                    names[next(7) as usize]
                });
            }
            t.set(Path::parse(&path), json!(path));
        }
        let mut roots = vec![Path::parse("/")];
        roots.extend(t.leaves.keys().cloned());
        roots.extend(names.iter().map(|n| Path::parse(&format!("/devices/{n}"))));
        roots.push(Path::parse("/devices/d1/rpa"));
        for root in &roots {
            let scan: Vec<_> = t
                .leaves
                .iter()
                .filter(|(p, _)| root.is_ancestor_of(p))
                .collect();
            assert_eq!(t.subtree(root), scan, "under {root}");
        }
        let d1 = t.subtree(&Path::parse("/devices/d1"));
        assert!(d1.iter().all(|(p, _)| p.segments()[1] == "d1"));
    }

    #[test]
    fn diff_paths_finds_divergence_both_ways() {
        let mut a = StateTree::new();
        let mut b = StateTree::new();
        a.set(Path::parse("/same"), json!(1));
        b.set(Path::parse("/same"), json!(1));
        a.set(Path::parse("/changed"), json!(1));
        b.set(Path::parse("/changed"), json!(2));
        a.set(Path::parse("/only-a"), json!(1));
        b.set(Path::parse("/only-b"), json!(1));
        let diff = a.diff_paths(&b);
        assert_eq!(
            diff,
            vec![
                Path::parse("/changed"),
                Path::parse("/only-a"),
                Path::parse("/only-b")
            ]
        );
        assert!(a.diff_paths(&a).is_empty());
    }

    #[test]
    fn approx_bytes_grows_with_content() {
        let mut t = StateTree::new();
        let empty = t.approx_bytes();
        t.set(Path::parse("/a"), json!({"big": "x".repeat(100)}));
        assert!(t.approx_bytes() > empty + 100);
    }
}
