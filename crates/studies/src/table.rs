//! Plain-text rendering of figure results.
//!
//! Produces the "same rows the paper plots": one table per panel with the
//! x-axis in the first column and one `mean ± hw` column per series.

use crate::sweep::{FigureResult, Panel};
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Renders a whole figure as aligned text tables.
pub fn render(fig: &FigureResult) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {} — {} ==", fig.id, fig.title);
    for panel in &fig.panels {
        let _ = writeln!(out, "\n-- {} : {} --", panel.id, panel.title);
        out.push_str(&render_panel(panel, &fig.x_label));
    }
    out
}

/// Renders one panel as an aligned table.
pub fn render_panel(panel: &Panel, x_label: &str) -> String {
    // Collect the union of x values.
    let xs: BTreeSet<u64> = panel
        .series
        .iter()
        .flat_map(|s| s.points.iter().map(|&(x, _)| x.to_bits()))
        .collect();
    let xs: Vec<f64> = xs.into_iter().map(f64::from_bits).collect();

    let mut header: Vec<String> = vec![x_label.to_owned()];
    header.extend(panel.series.iter().map(|s| s.name.clone()));

    let mut rows: Vec<Vec<String>> = Vec::new();
    for &x in &xs {
        let mut row = vec![format_num(x)];
        for s in &panel.series {
            match s.points.iter().find(|&&(px, _)| px == x) {
                Some(&(_, v)) => row.push(format!("{:.5} ±{:.5}", v.mean, v.half_width)),
                None => row.push("-".to_owned()),
            }
        }
        rows.push(row);
    }
    align(&header, &rows)
}

/// Renders rows of a CSV file for machine consumption.
pub fn to_csv(fig: &FigureResult) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "panel,series,measure,x,mean,half_width");
    for panel in &fig.panels {
        for s in &panel.series {
            for &(x, v) in &s.points {
                let _ = writeln!(
                    out,
                    "{},{},{},{},{},{}",
                    panel.id, s.name, s.measure, x, v.mean, v.half_width
                );
            }
        }
    }
    out
}

#[expect(
    clippy::disallowed_methods,
    reason = "display only: decides whether a table value prints as an integer"
)]
fn format_num(x: f64) -> String {
    if x == x.trunc() {
        format!("{}", x as i64)
    } else {
        format!("{x}")
    }
}

fn align(header: &[String], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(String::len).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            let _ = write!(line, "{:<width$}", cell, width = widths[i]);
        }
        line.trim_end().to_owned()
    };
    out.push_str(&fmt_row(header, &widths));
    out.push('\n');
    let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{Series, ValueCi};

    fn sample_fig() -> FigureResult {
        FigureResult {
            id: "Figure X".into(),
            title: "Test".into(),
            x_label: "x".into(),
            panels: vec![Panel {
                id: "Xa".into(),
                title: "Panel A".into(),
                series: vec![
                    Series {
                        name: "alpha".into(),
                        measure: "m".into(),
                        points: vec![
                            (
                                1.0,
                                ValueCi {
                                    mean: 0.5,
                                    half_width: 0.01,
                                },
                            ),
                            (
                                2.0,
                                ValueCi {
                                    mean: 0.25,
                                    half_width: 0.02,
                                },
                            ),
                        ],
                    },
                    Series {
                        name: "beta".into(),
                        measure: "m".into(),
                        points: vec![(
                            1.0,
                            ValueCi {
                                mean: 0.75,
                                half_width: 0.0,
                            },
                        )],
                    },
                ],
            }],
        }
    }

    #[test]
    fn render_contains_all_series_and_points() {
        let text = render(&sample_fig());
        assert!(text.contains("Figure X"));
        assert!(text.contains("alpha"));
        assert!(text.contains("beta"));
        assert!(text.contains("0.50000"));
        assert!(text.contains("0.75000"));
        // Missing point shows a dash.
        assert!(text.lines().any(|l| l.starts_with('2') && l.contains('-')));
    }

    #[test]
    fn csv_has_one_row_per_point() {
        let csv = to_csv(&sample_fig());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 1 + 3); // header + 3 points
        assert!(lines[0].starts_with("panel,"));
        assert!(lines[1].starts_with("Xa,alpha,m,1,"));
    }

    #[test]
    fn integer_x_rendered_without_decimals() {
        assert_eq!(format_num(4.0), "4");
        assert_eq!(format_num(2.5), "2.5");
    }
}
