//! Regenerates **Table 1**: network migration categories with operation
//! frequency, change scope and typical duration.
//!
//! Frequencies are the paper's reported operational constants; scope and
//! duration come from the category metadata the workload model uses.

use super::Artefact;
use crate::report::Table;
use centralium_topology::MigrationCategory;

/// The table is constant; `tiny` changes nothing.
pub(crate) fn artefact(_tiny: bool) -> Artefact {
    let mut out = Artefact::default();
    let mut table = Table::new(&[
        "Migration",
        "Operation Frequency",
        "Change Scope",
        "Typical Duration",
    ]);
    for cat in MigrationCategory::ALL {
        let freq = match cat {
            MigrationCategory::TrafficDrainForMaintenance => "Daily",
            _ => "10+/year",
        };
        let scope = if cat.is_multi_dc() {
            "Multi-DC"
        } else {
            "Sub-DC"
        };
        let days = cat.typical_duration_days();
        let duration = if days < 1.0 {
            "<1 hour".to_string()
        } else if days >= 30.0 {
            format!("~{:.1} months", days / 30.0)
        } else {
            format!("~{days:.0} days")
        };
        table.row(&[
            format!("{} {}", cat.label(), cat.name()),
            freq.to_string(),
            scope.to_string(),
            duration,
        ]);
    }
    out.det("Table 1: Network Migration Categories");
    out.det(table.render());
    out
}
