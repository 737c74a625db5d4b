//! Plain-text table rendering for the bench binaries.
//!
//! The harness prints the same rows/series the paper's figures show;
//! everything renders as GitHub-flavoured markdown so the output can be
//! pasted straight into `EXPERIMENTS.md`.

/// Renders a markdown table from a header and rows of cells.
///
/// # Panics
///
/// Panics if any row's length differs from the header's.
pub fn markdown_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push_str("| ");
    out.push_str(&header.join(" | "));
    out.push_str(" |\n|");
    for _ in header {
        out.push_str("---|");
    }
    out.push('\n');
    for row in rows {
        assert_eq!(row.len(), header.len(), "row width mismatch");
        out.push_str("| ");
        out.push_str(&row.join(" | "));
        out.push_str(" |\n");
    }
    out
}

/// Renders a heatmap (Fig. 5 style): one row label per row, one column
/// label per column, `values[r][c]` formatted to two decimals.
///
/// # Panics
///
/// Panics if dimensions are inconsistent.
pub fn heatmap(
    corner: &str,
    col_labels: &[String],
    row_labels: &[String],
    values: &[Vec<f32>],
) -> String {
    assert_eq!(values.len(), row_labels.len(), "row count mismatch");
    let mut header: Vec<&str> = vec![corner];
    header.extend(col_labels.iter().map(|s| s.as_str()));
    let rows: Vec<Vec<String>> = row_labels
        .iter()
        .zip(values)
        .map(|(label, row)| {
            assert_eq!(row.len(), col_labels.len(), "column count mismatch");
            let mut cells = vec![label.clone()];
            cells.extend(row.iter().map(|v| format!("{v:.2}")));
            cells
        })
        .collect();
    markdown_table(&header, &rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_shape() {
        let out = markdown_table(
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["3".into(), "4".into()]],
        );
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("| a | b |"));
        assert!(lines[1].starts_with("|---|"));
        assert!(lines[3].contains("| 3 | 4 |"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_validates_rows() {
        let _ = markdown_table(&["a", "b"], &[vec!["1".into()]]);
    }

    #[test]
    fn heatmap_layout() {
        let out = heatmap(
            "attack \\ eps",
            &["0.1".into(), "0.5".into()],
            &["FGSM".into()],
            &[vec![1.25, 3.5]],
        );
        assert!(out.contains("| FGSM | 1.25 | 3.50 |"));
        assert!(out.contains("attack \\ eps"));
    }
}
