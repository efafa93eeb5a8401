//! Regenerates **Table 3**: critical-path steps and days per migration
//! category, with and without RPA, plus the RPA LOC column.

use super::Artefact;
use crate::report::Table;
use centralium::planner::plan_all_categories;
use centralium_topology::{build_fabric, FabricSpec};

fn days(d: f64) -> String {
    if d < 1.0 {
        "<1".to_string()
    } else {
        format!("{d:.0}")
    }
}

/// Plans over the default fabric, which is already small; `tiny` changes
/// nothing.
pub(crate) fn artefact(_tiny: bool) -> Artefact {
    let mut out = Artefact::default();
    let (topo, _, _) = build_fabric(&FabricSpec::default());
    let mut table = Table::new(&[
        "",
        "#Steps w/o RPA",
        "#Steps w RPA",
        "#Days w/o RPA",
        "#Days w/ RPA",
        "RPA LOC",
    ]);
    for plan in plan_all_categories(&topo) {
        table.row(&[
            plan.category.label().to_string(),
            plan.steps_without().to_string(),
            plan.steps_with().to_string(),
            days(plan.days_without()),
            days(plan.days_with()),
            plan.rpa_loc().to_string(),
        ]);
    }
    out.det("Table 3: RPA-enabled reduction and time savings per migration category");
    out.det("(push cadence: 21 days; RPA deployments take minutes)\n");
    out.det(table.render());
    out.det("Paper reference: steps (2→1, 9→3, 3→1, 5→3, 3→1); days (42→<1, 189→21, 63→7, 105→21, <1→<1).");
    out.det("Note: our generated RPA documents are terser than production's (paper bands: 300-1000 / 200-300 / 50-100 / 100-200 / <50); relative ordering is preserved.");
    out.det("\nCritical-path steps, with RPA:");
    for plan in plan_all_categories(&topo) {
        out.det(format!("  {}:", plan.category));
        for step in &plan.with_rpa {
            out.det(format!("    - {} [{:?}]", step.description, step.kind));
        }
    }
    out
}
