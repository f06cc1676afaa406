//! Shared helpers for the figure-regeneration harnesses (`src/bin/fig*`,
//! `timing`, `ablation`) of the `datareuse` project.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::PathBuf;

/// Logarithmically spaced sizes in `[1, max]`, `per_decade` points per
/// decade, deduplicated and sorted — the x-axis sampling used for the
/// simulated curves of Fig. 4a/11a.
///
/// # Examples
///
/// ```
/// use datareuse_bench::log_sizes;
/// let s = log_sizes(1000, 4);
/// assert_eq!(*s.first().unwrap(), 1);
/// assert_eq!(*s.last().unwrap(), 1000);
/// assert!(s.windows(2).all(|w| w[0] < w[1]));
/// ```
pub fn log_sizes(max: u64, per_decade: usize) -> Vec<u64> {
    assert!(max >= 1 && per_decade >= 1);
    let mut out = vec![1u64];
    let decades = (max as f64).log10();
    let steps = (decades * per_decade as f64).ceil() as usize;
    for i in 1..=steps {
        let v = 10f64.powf(i as f64 / per_decade as f64).round() as u64;
        out.push(v.min(max));
    }
    out.push(max);
    out.sort_unstable();
    out.dedup();
    out
}

/// Prints an aligned text table.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (w, c) in widths.iter().zip(cells) {
            s.push_str(&format!("{c:>w$}  ", w = *w));
        }
        println!("{}", s.trim_end());
    };
    line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// Directory where figure scripts/data are written
/// (`target/figures`, created on demand).
pub fn figures_dir() -> PathBuf {
    let dir = PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or("target".into()))
        .join("figures");
    std::fs::create_dir_all(&dir).expect("create figures dir");
    dir
}

/// Writes a figure artifact and reports where it went.
pub fn write_figure(name: &str, contents: &str) {
    let path = figures_dir().join(name);
    std::fs::write(&path, contents).expect("write figure");
    println!("[figure written to {}]", path.display());
}

/// Formats a float with a fixed number of decimals for table cells.
pub fn fmt_f(v: f64, decimals: usize) -> String {
    format!("{v:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_sizes_cover_endpoints_and_are_strictly_increasing() {
        for max in [1u64, 7, 100, 25_344] {
            let s = log_sizes(max, 8);
            assert_eq!(*s.first().unwrap(), 1);
            assert_eq!(*s.last().unwrap(), max);
            assert!(s.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn fmt_f_rounds() {
        assert_eq!(fmt_f(2.465, 2), "2.46");
        assert_eq!(fmt_f(209.5, 1), "209.5");
    }
}
