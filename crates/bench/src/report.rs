//! Experiment output helpers: aligned console tables and JSON artifacts.

use cdbtune::persist::Persist;
use std::path::Path;

/// Prints an experiment banner plus a column header row.
pub fn print_header(title: &str, columns: &[&str]) {
    println!("\n=== {title} ===");
    let row: Vec<String> = columns.iter().map(|c| format!("{c:>16}")).collect();
    println!("{}", row.join(" "));
    println!("{}", "-".repeat(17 * columns.len()));
}

/// Prints one aligned data row.
pub fn print_row(cells: &[String]) {
    let row: Vec<String> = cells.iter().map(|c| format!("{c:>16}")).collect();
    println!("{}", row.join(" "));
}

/// Formats a float with sensible precision for table cells.
pub fn fmt(v: f64) -> String {
    if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

/// Writes an experiment's structured results under `results/<name>.json`
/// (the rows `verify_shapes` reads back).
pub fn write_json(name: &str, value: &impl Persist) {
    let dir = Path::new("results");
    if std::fs::create_dir_all(dir).is_err() {
        return; // read-only environment: console output still stands
    }
    let path = dir.join(format!("{name}.json"));
    if std::fs::write(&path, value.encode().to_text() + "\n").is_ok() {
        println!("[results written to {}]", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_scales_precision() {
        assert_eq!(fmt(12345.6), "12346");
        assert_eq!(fmt(42.42), "42.4");
        assert_eq!(fmt(0.1234), "0.123");
    }
}
