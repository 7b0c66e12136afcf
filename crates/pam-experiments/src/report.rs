//! Plain-text table rendering for experiment output.

/// Renders a table with a header row and aligned columns, in the style of
/// every table `pam_repro` and the benches print.
pub fn render_table(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let render_row = |cells: &[String], widths: &[usize]| -> String {
        let padded: Vec<String> = cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:<w$}", w = w))
            .collect();
        format!("| {} |", padded.join(" | "))
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    out.push_str(&render_row(&header_cells, &widths));
    out.push('\n');
    let divider: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    out.push_str(&format!("|-{}-|", divider.join("-|-")));
    out.push('\n');
    for row in rows {
        out.push_str(&render_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_aligned_and_complete() {
        let text = render_table(
            "Table X",
            &["vNF", "value"],
            &[
                vec!["Firewall".into(), "10".into()],
                vec!["Load Balancer".into(), ">10".into()],
            ],
        );
        assert!(text.starts_with("Table X\n"));
        assert!(text.contains("| vNF           | value |"));
        assert!(text.contains("| Firewall      | 10    |"));
        assert!(text.contains("| Load Balancer | >10   |"));
        assert_eq!(text.lines().count(), 5);
    }

    #[test]
    fn empty_rows_still_render_header() {
        let text = render_table("T", &["a"], &[]);
        assert!(text.contains("| a |"));
    }
}
