//! Plain-text table rendering for the paper entries and the perf binaries.

use centralium_telemetry::span::SpanRecord;
use centralium_telemetry::MetricsSnapshot;

/// A simple fixed-width table.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header arity).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Render with column-aligned padding.
    pub fn render(&self) -> String {
        // A zero-column table has nothing to align (and the separator-width
        // arithmetic below would underflow on `widths.len() - 1`).
        if self.header.is_empty() {
            return String::new();
        }
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<w$}", c, w = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = fmt_row(&self.header);
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Tabulate the non-zero entries of a metrics snapshot — typically a
/// [`MetricsSnapshot::diff`] bracketing one experiment stage.
pub(crate) fn metrics_diff_table(snap: &MetricsSnapshot) -> Table {
    let mut table = Table::new(&["metric", "value"]);
    for (name, v) in &snap.counters {
        if *v != 0 {
            table.row(&[name.clone(), v.to_string()]);
        }
    }
    for (name, v) in &snap.gauges {
        if *v != 0 {
            table.row(&[name.clone(), v.to_string()]);
        }
    }
    for (name, h) in &snap.histograms {
        if h.count() > 0 {
            let mean = h.mean().unwrap_or(0.0);
            table.row(&[name.clone(), format!("count={} mean={mean:.2}", h.count())]);
        }
    }
    table
}

/// Tabulate per-phase deployment timings: the finished pipeline phases
/// among `records` (see [`SpanRecord::phase_sim_us`]), in order.
pub(crate) fn phase_table(records: &[SpanRecord]) -> Table {
    let mut table = Table::new(&["phase", "wall (ms)", "sim (ms)"]);
    for r in records {
        if let Some(sim_us) = r.phase_sim_us() {
            table.row(&[
                r.name.to_string(),
                format!("{:.3}", r.dur_ns as f64 / 1e6),
                format!("{:.1}", sim_us as f64 / 1e3),
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(&["name", "value"]);
        t.row(&["short".into(), "1".into()]);
        t.row(&["a-much-longer-name".into(), "22".into()]);
        let out = t.render();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].starts_with("short"));
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_is_enforced() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn empty_header_renders_empty() {
        // Regression: `widths.len() - 1` used to underflow and panic here.
        assert_eq!(Table::new(&[]).render(), "");
        assert_eq!(Table::default().render(), "");
    }

    #[test]
    fn metrics_diff_table_elides_zero_counters() {
        let reg = centralium_telemetry::MetricsRegistry::new();
        reg.counter("bgp.decisions").add(9);
        reg.counter("quiet").add(0);
        let out = metrics_diff_table(&reg.snapshot()).render();
        assert!(out.contains("bgp.decisions  9"));
        assert!(!out.contains("quiet"), "zero counters are elided:\n{out}");
    }

    #[test]
    fn phase_table_lists_finished_phases() {
        let tel = centralium_telemetry::Telemetry::new();
        tel.set_tracing(true);
        tel.phase("plan", 0).finish(1_500);
        drop(tel.phase("abandoned", 0));
        drop(tel.span("simnet", "converge"));
        let out = phase_table(&tel.spans()).render();
        assert!(out.contains("plan"));
        assert!(out.contains("1.5"), "sim ms column:\n{out}");
        assert_eq!(out.lines().count(), 3, "one phase row:\n{out}");
    }
}
