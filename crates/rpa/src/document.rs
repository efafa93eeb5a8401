//! RPA documents: the deployable unit the controller ships to switches.

use crate::path_selection::PathSelectionRpa;
use crate::route_attribute::RouteAttributeRpa;
use crate::route_filter::RouteFilterRpa;
use crate::signature::Destination;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A deployable RPA of any kind.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RpaDocument {
    /// Path Selection RPA.
    PathSelection(PathSelectionRpa),
    /// Route Attribute RPA.
    RouteAttribute(RouteAttributeRpa),
    /// Route Filter RPA.
    RouteFilter(RouteFilterRpa),
}

impl RpaDocument {
    /// Document name (unique per switch).
    pub fn name(&self) -> &str {
        match self {
            RpaDocument::PathSelection(d) => &d.name,
            RpaDocument::RouteAttribute(d) => &d.name,
            RpaDocument::RouteFilter(d) => &d.name,
        }
    }

    /// The expirations of the document's Route Attribute statements.
    pub fn deadlines(&self) -> impl Iterator<Item = u64> + '_ {
        let statements = match self {
            RpaDocument::RouteAttribute(d) => &d.statements[..],
            _ => &[],
        };
        statements.iter().filter_map(|st| st.expiration_time)
    }

    /// Lines of code of the serialized document — the unit of Table 3's
    /// "RPA LOC" column.
    pub fn loc(&self) -> usize {
        serde_json::to_string_pretty(self)
            .map(|s| s.lines().count())
            .unwrap_or(0)
    }

    /// The destination scopes this document's statements govern, or `None`
    /// when the document's effect is not destination-bounded (Route Filters
    /// constrain *sessions*, so a change to one can affect any prefix).
    /// Drives the incremental convergence engine's dirty-prefix computation:
    /// a `Some` scope means only prefixes some returned destination
    /// [`Destination::applies`] to can change decision outcome.
    pub fn destinations(&self) -> Option<Vec<&Destination>> {
        match self {
            RpaDocument::PathSelection(d) => {
                Some(d.statements.iter().map(|s| &s.destination).collect())
            }
            RpaDocument::RouteAttribute(d) => {
                Some(d.statements.iter().map(|s| &s.destination).collect())
            }
            RpaDocument::RouteFilter(_) => None,
        }
    }
}

/// Errors raised when installing or compiling RPA documents.
#[derive(Debug, Clone, PartialEq)]
pub enum RpaError {
    /// An `as_path_regex` failed to compile.
    BadRegex {
        /// Document the signature came from.
        document: String,
        /// The regex compile error text.
        error: String,
    },
    /// A fractional min-next-hop reached the engine unresolved; the
    /// controller's compiler must resolve fractions against topology first.
    UnresolvedFraction {
        /// Document the fraction came from.
        document: String,
    },
    /// No document with this name is installed.
    UnknownName(String),
}

impl fmt::Display for RpaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RpaError::BadRegex { document, error } => {
                write!(f, "document {document}: invalid as_path_regex: {error}")
            }
            RpaError::UnresolvedFraction { document } => {
                write!(f, "document {document}: fractional MinNextHop must be compiled to an absolute value")
            }
            RpaError::UnknownName(name) => write!(f, "no document named {name}"),
        }
    }
}

impl std::error::Error for RpaError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path_selection::{PathSelectionStatement, PathSet};
    use crate::signature::{Destination, PathSignature};
    use centralium_bgp::attrs::well_known;

    fn sample() -> RpaDocument {
        RpaDocument::PathSelection(PathSelectionRpa::single(
            "equalize-backbone",
            PathSelectionStatement::select(
                Destination::Community(well_known::BACKBONE_DEFAULT_ROUTE),
                vec![PathSet::new("via-backbone", PathSignature::any())],
            ),
        ))
    }

    #[test]
    fn name_dispatches_by_kind() {
        assert_eq!(sample().name(), "equalize-backbone");
    }

    #[test]
    fn loc_counts_pretty_lines() {
        let loc = sample().loc();
        assert!(loc > 5, "pretty JSON should span multiple lines, got {loc}");
        // Paper's Table 3 band for maintenance drains is < 50 LOC; a
        // single-statement document must comfortably fit.
        assert!(loc < 50);
    }

    #[test]
    fn serde_roundtrip_preserves_kind() {
        let doc = sample();
        let json = serde_json::to_string(&doc).unwrap();
        let back: RpaDocument = serde_json::from_str(&json).unwrap();
        assert_eq!(doc, back);
    }

    #[test]
    fn error_display() {
        let e = RpaError::BadRegex {
            document: "x".into(),
            error: "unclosed".into(),
        };
        assert!(e.to_string().contains("invalid as_path_regex"));
        assert!(RpaError::UnknownName("d".into())
            .to_string()
            .contains("no document named d"));
    }
}
