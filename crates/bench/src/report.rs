//! Experiment output: persisted rows laid out as [`Table`]s — the console
//! text of `experiments run` and the markdown of EXPERIMENTS.md come from
//! the same JSON `experiments check` decodes — and the result-file writer.

use cdbtune::jsonio::Json;
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

/// A run of records under one caption.
#[derive(Debug, PartialEq)]
pub struct Table {
    /// Caption.
    pub title: String,
    /// Column names (positions for tuple records).
    pub columns: Vec<String>,
    /// Formatted cells, one `Vec` per row.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Prints the table to the console.
    pub fn print(&self) {
        print_header(&self.title, &self.columns.iter().map(String::as_str).collect::<Vec<_>>());
        self.rows.iter().for_each(|r| print_row(r));
    }

    /// The table as a captioned markdown table.
    pub fn markdown(&self) -> String {
        let line = |cells: &mut dyn Iterator<Item = &str>| {
            format!("| {} |\n", cells.collect::<Vec<_>>().join(" | "))
        };
        let mut out = format!("*{}*\n\n", self.title);
        out += &line(&mut self.columns.iter().map(String::as_str));
        out += &line(&mut self.columns.iter().map(|_| "---:"));
        for row in &self.rows {
            out += &line(&mut row.iter().map(String::as_str));
        }
        out
    }
}

/// A scalar as a table cell (`-` for `null`); `None` for arrays and objects.
fn cell(j: &Json) -> Option<String> {
    match j {
        Json::Num(n) if n.fract() == 0.0 && n.abs() < 1e6 => Some(format!("{n:.0}")),
        Json::Num(n) => Some(fmt(*n)),
        Json::Str(s) => Some(s.clone()),
        Json::Bool(b) => Some(b.to_string()),
        Json::Null => Some("-".into()),
        Json::Arr(_) | Json::Obj(_) => None,
    }
}

/// An array of scalars as cells.
fn cells(j: &Json) -> Option<Vec<String>> {
    match j {
        Json::Arr(items) => items.iter().map(cell).collect(),
        _ => None,
    }
}

/// An object or tuple of scalars as `(column names, cells)`.
fn record(j: &Json) -> Option<(Vec<String>, Vec<String>)> {
    match j {
        Json::Obj(fields) => fields.iter().map(|(k, v)| Some((k.clone(), cell(v)?))).collect(),
        _ => cells(j).map(|c| ((1..=c.len()).map(|i| format!("#{i}")).collect(), c)),
    }
}

/// Lays persisted rows out as tables, by shape: an array of flat records
/// (objects or tuples of scalars) is one table with a column per field; an
/// object's series (arrays of scalars) are the columns of one table, its
/// scalars join the caption and anything deeper recurses under its key.
pub fn tables(caption: &str, rows: &Json) -> Vec<Table> {
    match rows {
        Json::Arr(items) => match items.iter().map(record).collect::<Option<Vec<_>>>() {
            Some(records) if !records.is_empty() => {
                let columns = records[0].0.clone();
                let rows = records.into_iter().map(|r| r.1).collect();
                vec![Table { title: caption.into(), columns, rows }]
            }
            _ => {
                let item = |(i, j)| tables(&format!("{caption} · {}", i + 1), j);
                items.iter().enumerate().flat_map(item).collect()
            }
        },
        Json::Obj(fields) => {
            let scalars = fields.iter().filter_map(|(k, v)| Some(format!(" · {k} = {}", cell(v)?)));
            let caption = caption.to_string() + &scalars.collect::<String>();
            let series: Vec<_> = fields.iter().filter_map(|(k, v)| Some((k, cells(v)?))).collect();
            let mut out = Vec::new();
            if let Some(len) = series.iter().map(|s| s.1.len()).max() {
                let at = |s: &(_, Vec<String>), i| s.1.get(i).cloned().unwrap_or("-".into());
                let columns = series.iter().map(|s| s.0.clone()).collect();
                let rows = (0..len).map(|i| series.iter().map(|s| at(s, i)).collect()).collect();
                out.push(Table { title: caption.clone(), columns, rows });
            }
            let deeper = fields.iter().filter(|(_, v)| cell(v).is_none() && cells(v).is_none());
            out.extend(deeper.flat_map(|(k, v)| tables(&format!("{caption} · {k}"), v)));
            out
        }
        _ => Vec::new(),
    }
}

/// Writes an experiment's rows to `results/<name>.json` under the current
/// directory (what `experiments check` decodes).
pub fn write_json(name: &str, rows: &Json) -> std::io::Result<()> {
    let dir = Path::new("results");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.json"));
    std::fs::write(&path, rows.to_text() + "\n")?;
    println!("[results written to {}]", path.display());
    Ok(())
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

    fn table(title: &str, columns: &[&str], rows: &[&[&str]]) -> Table {
        let strings = |cells: &[&str]| cells.iter().map(|c| c.to_string()).collect();
        let rows = rows.iter().map(|r| strings(r)).collect();
        Table { title: title.into(), columns: strings(columns), rows }
    }

    #[test]
    fn flat_records_are_one_table_keyed_by_field() {
        let rows = r#"[{"knobs": 20, "tps": 1234.6, "dqn": null}, {"knobs": 266, "tps": 9.5, "dqn": 1}]"#;
        let cells: [&[&str]; 2] = [&["20", "1235", "-"], &["266", "9.500", "1"]];
        let expected = table("fig", &["knobs", "tps", "dqn"], &cells);
        assert_eq!(tables("fig", &Json::parse(rows).unwrap()), [expected]);
    }

    #[test]
    fn series_scalars_and_nested_tuples_each_find_their_place() {
        let rows = r#"[{"workload": "RW", "steps": [5, 10], "tps": [1.5], "rows": [["DBA", 2.5]]}]"#;
        let cells: [&[&str]; 2] = [&["5", "1.500"], &["10", "-"]];
        let series = table("fig · 1 · workload = RW", &["steps", "tps"], &cells);
        let bars = table("fig · 1 · workload = RW · rows", &["#1", "#2"], &[&["DBA", "2.500"]]);
        assert_eq!(tables("fig", &Json::parse(rows).unwrap()), [series, bars]);
        assert_eq!(tables("fig", &Json::Arr(Vec::new())), []);
    }

    #[test]
    fn markdown_has_a_header_a_rule_and_the_rows() {
        let t = table("cap", &["a", "b"], &[&["1", "2"]]);
        assert_eq!(t.markdown(), "*cap*\n\n| a | b |\n| ---: | ---: |\n| 1 | 2 |\n");
    }
}
