//! Rendering helpers for experiment reports.

use stats::Series;

/// Render one CCDF series at a few representative x probes, with an
/// optional paper-reference line for side-by-side comparison.
pub(crate) fn series_probes(series: &Series, probes: &[f64], unit: &str) -> String {
    let mut out = String::new();
    out.push_str(&format!("  {:<28}", series.label));
    for &x in probes {
        match series.interpolate(x) {
            Some(y) => out.push_str(&format!(" {y:>7.3}")),
            None => out.push_str(&format!(" {:>7}", "-")),
        }
    }
    out.push('\n');
    let _ = unit;
    out
}

/// Header row for [`series_probes`] output.
pub(crate) fn probes_header(measure: &str, probes: &[f64], unit: &str) -> String {
    let mut out = format!("  {measure} — CCDF at x = ");
    out.push_str(
        &probes
            .iter()
            .map(|p| format!("{p}{unit}"))
            .collect::<Vec<_>>()
            .join(", "),
    );
    out.push('\n');
    out.push_str(&format!("  {:<28}", "series"));
    for &x in probes {
        out.push_str(&format!(" {x:>7}"));
    }
    out.push('\n');
    out
}

/// A paper-vs-measured comparison line.
pub(crate) fn compare(label: &str, paper: &str, measured: &str) -> String {
    format!("  {label:<44} paper: {paper:<18} measured: {measured}\n")
}

/// Render a time-of-day series as a sparse table (every `step`-th bin).
pub(crate) fn tod_series(series: &Series, step: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!("  {:<10}", series.label));
    for (i, (x, y)) in series.points().enumerate() {
        if i % step == 0 {
            out.push_str(&format!(" {:>2.0}h:{:>5.2}", x.floor(), y));
        }
    }
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_probes() {
        let s = Series::labeled("Europe", vec![1.0, 10.0, 100.0], vec![0.9, 0.5, 0.1]);
        let header = probes_header("duration", &[1.0, 10.0], "min");
        assert!(header.contains("duration"));
        let row = series_probes(&s, &[1.0, 10.0, 50.0], "min");
        assert!(row.contains("Europe"));
        assert!(row.contains("0.900"));
    }

    #[test]
    fn renders_comparison_and_tod() {
        let c = compare("passive fraction (NA)", "80-85 %", "82.1 %");
        assert!(c.contains("paper"));
        let s = Series::labeled("Avg", vec![0.5, 1.5, 2.5, 3.5], vec![1.0, 2.0, 3.0, 4.0]);
        let t = tod_series(&s, 2);
        assert!(t.contains("Avg"));
    }
}
