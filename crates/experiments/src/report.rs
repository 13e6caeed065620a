//! Plain-text rendering and JSON persistence of figure data and gated grids.

use crate::figures::FigurePanel;
use crate::simsweep::SweepStats;
use serde::Value;
use std::fmt::Write as _;
use std::path::Path;

/// Render a figure panel as an aligned text table: series down the side,
/// target delays across the top, the normalised metric in the cells.
pub fn render_panel(panel: &FigurePanel) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {} — {} ==", panel.id, panel.title);
    let _ = writeln!(out, "   (1.0 = {})", panel.baseline_desc);
    if let Some((label, v)) = &panel.reference {
        let _ = writeln!(out, "   dashed reference: {label} = {v:.3}");
    }
    let delays: Vec<u64> = panel
        .series
        .first()
        .map(|s| s.cells.iter().map(|c| c.delay_us).collect())
        .unwrap_or_default();
    let label_w = panel
        .series
        .iter()
        .map(|s| s.label.len())
        .max()
        .unwrap_or(8)
        .max("series".len());
    let _ = write!(out, "{:<label_w$}", "series");
    for d in &delays {
        let _ = write!(out, " {:>9}", format!("{d}us"));
    }
    out.push('\n');
    for s in &panel.series {
        let _ = write!(out, "{:<label_w$}", s.label);
        for c in &s.cells {
            let _ = write!(out, " {:>9.3}", c.value);
        }
        out.push('\n');
    }
    out
}

/// Persist any serialisable report as JSON. Serialisation failures surface
/// as `InvalidData` I/O errors rather than panics, so callers can report the
/// offending path.
pub fn write_json<T: serde::Serialize>(value: &T, path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let json = serde_json::to_string_pretty(value)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    std::fs::write(path, json)
}

/// Publish a gated grid's run: log what it executed, print its tables and
/// write its JSON files, by name, under `results/`.
pub(crate) fn publish(name: &str, stats: SweepStats, tables: &str, files: &[(String, Value)]) {
    let (executed, cached) = (stats.executed, stats.cached);
    eprintln!("[{name}] {executed} points executed, {cached} served from cache");
    println!("{tables}");
    for (file, value) in files {
        let path = Path::new("results").join(file);
        if let Err(e) = write_json(value, &path) {
            eprintln!("[{name}] could not write {}: {e}", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::{FigureCell, FigureSeries};
    use crate::scenario::BufferDepth;

    fn panel() -> FigurePanel {
        FigurePanel {
            id: "Fig9z".into(),
            title: "Test panel".into(),
            depth: BufferDepth::Shallow,
            baseline_desc: "unit".into(),
            reference: Some(("dash".into(), 0.9)),
            series: vec![FigureSeries {
                label: "tcp-ecn red[ece-bit]".into(),
                cells: vec![
                    FigureCell {
                        delay_us: 100,
                        value: 1.25,
                    },
                    FigureCell {
                        delay_us: 500,
                        value: 0.875,
                    },
                ],
            }],
        }
    }

    #[test]
    fn renders_aligned_table() {
        let txt = render_panel(&panel());
        assert!(txt.contains("Fig9z"));
        assert!(txt.contains("100us"));
        assert!(txt.contains("500us"));
        assert!(txt.contains("1.250"));
        assert!(txt.contains("0.875"));
        assert!(txt.contains("dash = 0.900"));
    }

    #[test]
    fn empty_panel_renders() {
        let mut p = panel();
        p.series.clear();
        let txt = render_panel(&p);
        assert!(txt.contains("series"));
    }

    #[test]
    fn json_roundtrip() {
        let dir = std::env::temp_dir().join("ecn_repro_test");
        let path = dir.join("panel.json");
        write_json(&panel(), &path).unwrap();
        let back: FigurePanel =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(back, panel());
        let _ = std::fs::remove_dir_all(dir);
    }
}
