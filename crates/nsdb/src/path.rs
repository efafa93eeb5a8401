//! Path strings addressing nodes in the state tree.
//!
//! Paths look like `/devices/ssw-plane0-1/rpa/equalize`. A `*` segment
//! matches exactly one segment; a trailing `**` matches any remaining depth
//! (Appendix A.3's wildcard API).

use serde::{Deserialize, Serialize};
use std::fmt;

/// A parsed state-tree path.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Path {
    segments: Vec<String>,
}

impl Path {
    /// Parse from a `/`-separated string; empty segments are ignored, so
    /// `/a//b/` equals `/a/b`.
    pub fn parse(s: &str) -> Self {
        Path {
            segments: s
                .split('/')
                .filter(|p| !p.is_empty())
                .map(str::to_string)
                .collect(),
        }
    }

    /// Build from segments.
    pub fn from_segments(segments: impl IntoIterator<Item = impl Into<String>>) -> Self {
        Path {
            segments: segments.into_iter().map(Into::into).collect(),
        }
    }

    /// The segments.
    pub fn segments(&self) -> &[String] {
        &self.segments
    }

    /// Whether this path contains wildcard segments.
    pub fn is_pattern(&self) -> bool {
        self.segments.iter().any(|s| s == "*" || s == "**")
    }

    /// Whether `self` (a pattern or concrete path) matches the concrete
    /// path `other`.
    pub fn matches(&self, other: &Path) -> bool {
        Self::match_segments(&self.segments, &other.segments)
    }

    fn match_segments(pattern: &[String], concrete: &[String]) -> bool {
        match (pattern.first(), concrete.first()) {
            (None, None) => true,
            (Some(p), _) if p == "**" => {
                // `**` must be terminal; it swallows everything remaining.
                pattern.len() == 1
            }
            (Some(p), Some(c)) if p == "*" || p == c => {
                Self::match_segments(&pattern[1..], &concrete[1..])
            }
            _ => false,
        }
    }

    /// Whether `self` is a prefix of `other` (ancestor-or-self).
    pub(crate) fn is_ancestor_of(&self, other: &Path) -> bool {
        other.segments.len() >= self.segments.len()
            && other.segments[..self.segments.len()] == self.segments[..]
    }
}

impl fmt::Display for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.segments.is_empty() {
            return f.write_str("/");
        }
        for s in &self.segments {
            write!(f, "/{s}")?;
        }
        Ok(())
    }
}

impl From<&str> for Path {
    fn from(s: &str) -> Self {
        Path::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_roundtrip() {
        let p = Path::parse("/devices/ssw-plane0-1/rpa");
        assert_eq!(p.segments().len(), 3);
        assert_eq!(p.to_string(), "/devices/ssw-plane0-1/rpa");
        assert_eq!(Path::parse("/a//b/"), Path::parse("/a/b"));
        assert_eq!(Path::parse("/").to_string(), "/");
    }

    #[test]
    fn single_segment_wildcard() {
        let pattern = Path::parse("/devices/*/rpa");
        assert!(pattern.is_pattern());
        assert!(pattern.matches(&Path::parse("/devices/x/rpa")));
        assert!(!pattern.matches(&Path::parse("/devices/x/y/rpa")));
        assert!(!pattern.matches(&Path::parse("/devices/x")));
    }

    #[test]
    fn recursive_wildcard_is_terminal() {
        let pattern = Path::parse("/devices/**");
        assert!(pattern.matches(&Path::parse("/devices/x")));
        assert!(pattern.matches(&Path::parse("/devices/x/y/z")));
        assert!(!pattern.matches(&Path::parse("/other/x")));
        // `**` must match at least its own position's remainder — it also
        // matches zero further segments.
        assert!(pattern.matches(&Path::parse("/devices")));
        // Non-terminal `**` never matches.
        let bad = Path::parse("/devices/**/rpa");
        assert!(!bad.matches(&Path::parse("/devices/x/rpa")));
    }

    #[test]
    fn concrete_paths_match_exactly() {
        let p = Path::parse("/a/b");
        assert!(p.matches(&Path::parse("/a/b")));
        assert!(!p.matches(&Path::parse("/a/b/c")));
        assert!(!p.matches(&Path::parse("/a")));
    }

    #[test]
    fn ancestry() {
        let root = Path::parse("/");
        let a = Path::parse("/a");
        let ab = Path::parse("/a/b");
        assert!(root.is_ancestor_of(&ab));
        assert!(a.is_ancestor_of(&ab));
        assert!(a.is_ancestor_of(&a));
        assert!(!ab.is_ancestor_of(&a));
    }
}
