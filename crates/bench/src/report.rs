//! Table/CSV reporting shared by the experiment harnesses.

use std::fs;
use std::io::{self, Write};
use std::path::PathBuf;

/// The workspace root, resolved from this crate's manifest directory
/// (`crates/bench/` sits two levels below it). Canonicalized so harnesses
/// running with an arbitrary CWD still agree on one location; falls back to
/// the uncanonicalized path if the filesystem refuses (the join itself
/// cannot fail).
fn workspace_root() -> PathBuf {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
    root.canonicalize().unwrap_or(root)
}

/// Directory where harnesses drop their CSVs: `<target>/experiments/`,
/// where `<target>` honors `CARGO_TARGET_DIR` (resolved against the
/// workspace root when relative, matching cargo's own interpretation) and
/// defaults to `target/` at the workspace root.
///
/// Creates the directory; returns the error instead of panicking so
/// harnesses can report a usable message (read-only checkouts, exotic
/// `CARGO_TARGET_DIR` values) and still print their tables.
pub fn experiments_dir() -> io::Result<PathBuf> {
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(t) => {
            let t = PathBuf::from(t);
            if t.is_absolute() {
                t
            } else {
                // Cargo resolves a relative CARGO_TARGET_DIR against the
                // workspace root, not the process CWD.
                workspace_root().join(t)
            }
        }
        None => workspace_root().join("target"),
    };
    let dir = target.join("experiments");
    fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Column headers matching [`per_method_rows`].
pub const PER_METHOD_HEADERS: [&str; 11] = [
    "method",
    "attempts",
    "inline ok",
    "aborts",
    "promoted",
    "rerun",
    "nacked",
    "threaded",
    "switches",
    "chunks",
    "cancels",
];

/// Render a machine's per-method OAM statistics as table rows (one row
/// per registered method that saw traffic), for use with
/// [`PER_METHOD_HEADERS`].
pub fn per_method_rows(stats: &oam_model::MachineStats) -> Vec<Vec<String>> {
    stats
        .per_method_total()
        .iter()
        .map(|(id, m)| {
            vec![
                stats.method_name(*id),
                m.attempts.to_string(),
                m.inline_ok.to_string(),
                m.total_aborts().to_string(),
                m.promotions.to_string(),
                m.reruns.to_string(),
                m.nacks_sent.to_string(),
                m.threaded.to_string(),
                m.mode_switches.to_string(),
                m.chunks.to_string(),
                m.cancels.to_string(),
            ]
        })
        .collect()
}

/// Print an aligned table to stdout.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if cell.len() > widths[i] {
                widths[i] = cell.len();
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!("{}", fmt_row(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>()));
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Write the same data as CSV under `<experiments_dir>/<name>.csv` and
/// return the path written. Errors (directory creation, file write) are
/// returned for the harness to surface.
pub fn write_csv(name: &str, headers: &[&str], rows: &[Vec<String>]) -> io::Result<PathBuf> {
    let path = experiments_dir()?.join(format!("{name}.csv"));
    let mut f = fs::File::create(&path)?;
    writeln!(f, "{}", headers.join(","))?;
    for row in rows {
        writeln!(f, "{}", row.join(","))?;
    }
    println!("[csv] {}", path.display());
    Ok(path)
}

/// Is the quick (CI-sized) mode requested?
pub fn quick_mode() -> bool {
    std::env::var("OAM_QUICK").map(|v| v != "0").unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_root_contains_the_bench_crate() {
        let root = workspace_root();
        assert!(root.join("crates").join("bench").join("Cargo.toml").exists(), "{root:?}");
    }

    #[test]
    fn experiments_dir_is_created_and_absolute() {
        let dir = experiments_dir().expect("experiments dir");
        assert!(dir.is_dir());
        assert!(dir.is_absolute());
        assert!(dir.ends_with("experiments"));
    }
}
