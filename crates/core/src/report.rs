//! Plain-text table emission for the reproduction binaries.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// A simple table that renders to Markdown or CSV.
#[derive(Clone, Debug)]
pub struct TableBuilder {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TableBuilder {
    /// Start a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        TableBuilder {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row (must match the header arity).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render as aligned Markdown.
    pub fn to_markdown(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "### {}\n", self.title);
        let line = |cells: &[String], widths: &[usize], out: &mut String| {
            let mut s = String::from("|");
            for (c, w) in cells.iter().zip(widths) {
                let _ = write!(s, " {c:<w$} |");
            }
            let _ = writeln!(out, "{s}");
        };
        line(&self.headers, &widths, &mut out);
        let mut sep = String::from("|");
        for w in &widths {
            let _ = write!(sep, "{:-<1$}|", "", w + 2);
        }
        let _ = writeln!(out, "{sep}");
        for row in &self.rows {
            line(row, &widths, &mut out);
        }
        out
    }

    /// Render as CSV (RFC-4180-ish quoting for commas/quotes).
    pub fn to_csv(&self) -> String {
        fn field(s: &str) -> String {
            if s.contains([',', '"', '\n']) {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.headers
                .iter()
                .map(|h| field(h))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| field(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }

    /// Write the CSV rendering to `path` crash-safely: the contents go
    /// to a sibling temp file, are fsynced, and are renamed into place,
    /// so a kill mid-write leaves either the old file or the new one —
    /// never a truncated CSV that a resumed campaign could mistake for
    /// results.
    pub fn write_csv(&self, path: impl AsRef<Path>) -> io::Result<()> {
        cmp_common::journal::write_atomic(path, self.to_csv())
    }

    /// [`TableBuilder::write_csv`] with a `#`-comment provenance line
    /// first — the binaries stamp every emitted CSV with the producing
    /// git SHA and configuration fingerprint, so result files from
    /// different builds or sweeps are distinguishable after the fact —
    /// through an explicit [`cmp_common::fsx::Fs`] handle
    /// ([`cmp_common::fsx::Fs::real`] for the plain filesystem), so a
    /// service running under an armed fault seam exercises its CSV
    /// finalisation path too. Same atomicity: any injected fault leaves
    /// the target holding one complete version, old or new.
    pub fn write_csv_stamped_on(
        &self,
        fs: &cmp_common::fsx::Fs,
        path: impl AsRef<Path>,
        stamp: &str,
    ) -> io::Result<()> {
        fs.write_atomic(path, format!("# {stamp}\n{}", self.to_csv()))
    }
}

/// Assemble one Figure 6/7-style table from normalised rows: one row
/// per application (first-appearance order), one column per
/// configuration (first-appearance order), `metric` picking the
/// plotted ratio, a trailing `geomean` row, and `n/a` for cells that
/// failed or were never attempted. Applications listed in
/// `missing_baseline` render as all-`n/a` rows, so a partial matrix
/// still shows its full shape. Shared by `tcmp-fig` and the
/// campaign service, which must emit identical tables for identical
/// results.
pub fn figure_table(
    title: &str,
    rows: &[crate::experiment::NormalizedRow],
    missing_baseline: &[String],
    metric: impl Fn(&crate::experiment::NormalizedRow) -> f64,
) -> TableBuilder {
    let mut configs: Vec<String> = Vec::new();
    let mut apps: Vec<String> = Vec::new();
    for r in rows {
        if !configs.contains(&r.config) {
            configs.push(r.config.clone());
        }
        if !apps.contains(&r.app) {
            apps.push(r.app.clone());
        }
    }
    for app in missing_baseline {
        if !apps.contains(app) {
            apps.push(app.clone());
        }
    }

    let headers: Vec<String> = std::iter::once("application".to_string())
        .chain(configs.iter().cloned())
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut t = TableBuilder::new(title, &header_refs);
    let mut per_config: Vec<Vec<f64>> = vec![Vec::new(); configs.len()];
    for app in &apps {
        let mut row = vec![app.clone()];
        for (ci, config) in configs.iter().enumerate() {
            match rows.iter().find(|r| &r.app == app && &r.config == config) {
                Some(r) => {
                    let v = metric(r);
                    per_config[ci].push(v);
                    row.push(fmt_ratio(v));
                }
                // failed or never-attempted cell in a partial matrix
                None => row.push("n/a".to_string()),
            }
        }
        t.row(row);
    }
    let mut avg = vec!["geomean".to_string()];
    for c in &per_config {
        if c.is_empty() {
            avg.push("n/a".to_string());
        } else {
            avg.push(fmt_ratio(crate::experiment::geomean(c.iter().copied())));
        }
    }
    t.row(avg);
    t
}

/// Format a ratio with 3 decimals (`0.923`).
pub fn fmt_ratio(x: f64) -> String {
    format!("{x:.3}")
}

/// Format a fraction as a percentage (`92.3%`).
pub fn fmt_pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_rendering_aligns() {
        let mut t = TableBuilder::new("Demo", &["app", "value"]);
        t.row(vec!["MP3D".into(), "0.78".into()]);
        t.row(vec!["Unstructured".into(), "0.75".into()]);
        let md = t.to_markdown();
        assert!(md.contains("### Demo"));
        assert!(md.contains("| app "));
        assert!(md.contains("| Unstructured | 0.75 "));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn csv_quotes_special_fields() {
        let mut t = TableBuilder::new("x", &["a", "b"]);
        t.row(vec!["hello, world".into(), "say \"hi\"".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"hello, world\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        TableBuilder::new("x", &["a", "b"]).row(vec!["only-one".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_ratio(0.92345), "0.923");
        assert_eq!(fmt_pct(0.923), "92.3%");
    }
}
