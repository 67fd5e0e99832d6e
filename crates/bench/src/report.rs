//! CSV export for experiment results.
//!
//! Figure binaries print human-readable tables; fig02 and fig12 also
//! build a [`CsvTable`] of their series and, when `PRF_CSV_DIR` is set,
//! write it into that directory, ready for plotting.

use std::path::{Path, PathBuf};

use crate::vfs::{RealVfs, Vfs};

/// A simple CSV table builder (no external dependency; values are
/// escaped per RFC 4180 when needed).
#[derive(Debug, Clone)]
pub struct CsvTable {
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl CsvTable {
    /// Starts a table with the given column headers.
    pub fn new<S: Into<String>>(columns: impl IntoIterator<Item = S>) -> Self {
        CsvTable {
            columns: columns.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width does not match the header.
    pub fn row<S: Into<String>>(&mut self, values: impl IntoIterator<Item = S>) -> &mut Self {
        let row: Vec<String> = values.into_iter().map(Into::into).collect();
        assert_eq!(
            row.len(),
            self.columns.len(),
            "row width {} != header width {}",
            row.len(),
            self.columns.len()
        );
        self.rows.push(row);
        self
    }

    /// Column headers.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Data rows, in insertion order.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no data rows have been added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn escape(field: &str) -> String {
        if field.contains([',', '"', '\n']) {
            format!("\"{}\"", field.replace('"', "\"\""))
        } else {
            field.to_string()
        }
    }

    /// Renders the table as a CSV string.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let header: Vec<String> = self.columns.iter().map(|c| Self::escape(c)).collect();
        out.push_str(&header.join(","));
        out.push('\n');
        for row in &self.rows {
            let fields: Vec<String> = row.iter().map(|f| Self::escape(f)).collect();
            out.push_str(&fields.join(","));
            out.push('\n');
        }
        out
    }

    /// Writes the table to `$PRF_CSV_DIR/<name>.csv` when the environment
    /// variable is set; otherwise does nothing. Returns the path written.
    pub fn write_if_configured(&self, name: &str) -> Option<PathBuf> {
        let dir = crate::harness_args().csv_dir.as_deref()?;
        self.write_in(dir, name)
    }

    /// Writes the table to `<dir>/<name>.csv`, creating `dir` if needed.
    /// The name is passed through [`safe_file_name`] first, so a label
    /// containing `/` or `..` cannot escape `dir`. An I/O failure is a
    /// diagnostic and `None`, never a panic.
    pub fn write_in(&self, dir: &Path, name: &str) -> Option<PathBuf> {
        let file = format!("{}.csv", safe_file_name(name));
        write_into(dir, &file, self.to_csv().as_bytes(), &RealVfs)
    }
}

/// Writes `bytes` to `<dir>/<file>` over `vfs`, creating `dir` if needed,
/// and returns the path. An I/O failure is a diagnostic and `None`, never
/// a panic.
pub(crate) fn write_into(dir: &Path, file: &str, bytes: &[u8], vfs: &dyn Vfs) -> Option<PathBuf> {
    if let Err(e) = vfs.create_dir_all(dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        return None;
    }
    let path = dir.join(file);
    match vfs.write_file(&path, bytes) {
        Ok(()) => {
            eprintln!("wrote {}", path.display());
            Some(path)
        }
        Err(e) => {
            eprintln!("cannot write {}: {e}", path.display());
            None
        }
    }
}

/// Formats a fraction as a percentage string with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}", 100.0 * x)
}

/// Restricts a report name to `[A-Za-z0-9_.-]` for use as a file stem:
/// every other byte (path separators, spaces, `..` smuggled via `/`)
/// becomes `_`, so names derived from job labels cannot escape the
/// configured output directory. Empty input yields `"unnamed"`.
///
/// The mapping is **injective**: whenever any character was substituted
/// (or the input was empty), a short content hash of the *original* name
/// is appended, so distinct labels like `"a/b"` and `"a_b"` can never
/// sanitise to the same file and silently clobber each other's
/// `BENCH_*.json`/CSV/cache artifacts. Names that are already clean pass
/// through unchanged, keeping existing file names (and the committed
/// baselines) stable.
///
/// The CSV, JSON-report, Chrome-trace, and result-cache writers all
/// route file names through this.
pub fn safe_file_name(name: &str) -> String {
    if name.is_empty() {
        return format!("unnamed-{}", crate::digest::short_hash(name));
    }
    let mut substituted = false;
    let sanitized: String = name
        .chars()
        .map(|c| match c {
            'A'..='Z' | 'a'..='z' | '0'..='9' | '_' | '.' | '-' => c,
            _ => {
                substituted = true;
                '_'
            }
        })
        .collect();
    if substituted {
        format!("{sanitized}-{}", crate::digest::short_hash(name))
    } else {
        sanitized
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_simple_csv() {
        let mut t = CsvTable::new(["workload", "top3"]);
        t.row(["BFS", "62.1"]);
        t.row(["btree", "59.0"]);
        assert_eq!(t.to_csv(), "workload,top3\nBFS,62.1\nbtree,59.0\n");
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn escapes_commas_and_quotes() {
        let mut t = CsvTable::new(["a"]);
        t.row(["x,y"]);
        t.row(["say \"hi\""]);
        let csv = t.to_csv();
        assert!(csv.contains("\"x,y\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn rejects_ragged_rows() {
        let mut t = CsvTable::new(["a", "b"]);
        t.row(["only-one"]);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.629), "62.9");
    }

    #[test]
    fn safe_file_name_defuses_path_escapes() {
        use crate::digest::short_hash;
        // Already-clean names pass through untouched (committed baseline
        // files keep their names).
        assert_eq!(safe_file_name("fig11_energy"), "fig11_energy");
        // Substituted names carry a short hash of the original.
        assert_eq!(
            safe_file_name("../../etc/passwd"),
            format!(".._.._etc_passwd-{}", short_hash("../../etc/passwd"))
        );
        assert_eq!(
            safe_file_name("/absolute/path"),
            format!("_absolute_path-{}", short_hash("/absolute/path"))
        );
        assert_eq!(
            safe_file_name("BFS/partitioned seed 2"),
            format!(
                "BFS_partitioned_seed_2-{}",
                short_hash("BFS/partitioned seed 2")
            )
        );
        assert!(safe_file_name("nul\0byte").starts_with("nul_byte-"));
        assert!(safe_file_name("").starts_with("unnamed-"));
    }

    #[test]
    fn safe_file_name_is_injective_on_colliding_labels() {
        // Regression: "a/b" and "a_b" used to both map to "a_b", letting
        // two benches silently overwrite each other's artifacts.
        assert_ne!(safe_file_name("a/b"), safe_file_name("a_b"));
        assert_ne!(safe_file_name("a/b"), safe_file_name("a b"));
        assert_ne!(safe_file_name("a/b"), safe_file_name("a\\b"));
        assert_ne!(safe_file_name(""), safe_file_name("unnamed"));
        // Both still start with the readable sanitised stem.
        assert!(safe_file_name("a/b").starts_with("a_b-"));
        // Deterministic across calls.
        assert_eq!(safe_file_name("a/b"), safe_file_name("a/b"));
    }

    #[test]
    fn write_sanitizes_hostile_names() {
        let dir = std::env::temp_dir().join("prf_csv_sanitize_test");
        let mut t = CsvTable::new(["k"]);
        t.row(["v"]);
        let path = t.write_in(&dir, "../escape").expect("written");
        // The file landed inside the directory, not beside it.
        assert_eq!(path.parent().unwrap(), dir.as_path());
        let expected = format!(".._escape-{}.csv", crate::digest::short_hash("../escape"));
        assert_eq!(path.file_name().unwrap().to_str().unwrap(), expected);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn write_in_creates_the_dir_and_writes_the_csv() {
        let dir = std::env::temp_dir().join("prf_csv_test").join("nested");
        let mut t = CsvTable::new(["k", "v"]);
        t.row(["a", "1"]);
        let path = t.write_in(&dir, "unit_test").expect("written");
        assert_eq!(path, dir.join("unit_test.csv"));
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.starts_with("k,v"));
        let _ = std::fs::remove_dir_all(dir.parent().unwrap());
    }
}
