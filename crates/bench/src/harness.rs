//! The shared CLI + artifact harness of the figure/table reproducers.
//!
//! Every binary under `src/bin` is one [`SweepGrid`](sprout::sim::sweep::SweepGrid) (or
//! [`SimSweep`](sprout::SimSweep)) plus a cell task; this module supplies the
//! parts they share:
//!
//! * [`FigureCli`] — the common flags `--quick`, `--threads N`, `--shards N`,
//!   `--out PATH` (plus the `SPROUT_SCALE=paper` environment switch the suite
//!   has always honoured).
//! * [`emit`] — writes the [`SweepReport`] JSON artifact and prints a
//!   human-readable table of the same rows to stdout.
//!
//! The JSON artifact is the machine-readable record CI uploads and diffs; it
//! contains nothing scheduling-dependent, so running the same figure with
//! different `--threads` or `--shards` values must produce byte-identical
//! files.

use sprout::sim::sweep::{SweepReport, SweepTimings};

/// Parsed common command-line flags of a figure binary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FigureCli {
    /// `--quick`: shrink horizons/replications to CI smoke scale (artifact
    /// shape is unchanged).
    pub quick: bool,
    /// `--threads N`: worker count for the sweep pool (results never depend
    /// on it). `None` when not given; see [`FigureCli::threads_or`].
    pub threads: Option<usize>,
    /// `--shards N`: event loops each simulation replication is sharded onto
    /// (results never depend on it either — the sharded engine's determinism
    /// contract). `None` when not given; see [`FigureCli::shards_or`].
    pub shards: Option<usize>,
    /// `--out PATH`: where to write the JSON artifact. `None` means the
    /// figure's default (`FIG_*.json` / `TAB_*.json` / `BENCH_*.json`).
    pub out: Option<String>,
}

impl FigureCli {
    /// Parses the current process arguments.
    ///
    /// # Panics
    ///
    /// Panics (with a usage message) on an unknown flag or a malformed
    /// `--threads` value, so a typo'd invocation cannot silently run the
    /// wrong experiment.
    pub fn parse() -> Self {
        Self::from_args(std::env::args().skip(1))
    }

    /// Like [`FigureCli::parse`], but bins with bin-specific value flags
    /// (e.g. `bench_serving --workers 4`) list them in `extra_value_flags`;
    /// each occurrence consumes one value and is returned as a
    /// `(flag, value)` pair instead of panicking as unknown.
    ///
    /// # Panics
    ///
    /// See [`FigureCli::parse`]; a listed extra flag missing its value also
    /// panics.
    pub fn parse_with_extras(extra_value_flags: &[&str]) -> (Self, Vec<(String, String)>) {
        Self::from_args_with_extras(std::env::args().skip(1), extra_value_flags)
    }

    /// Testable core of [`FigureCli::parse_with_extras`].
    ///
    /// # Panics
    ///
    /// See [`FigureCli::parse_with_extras`].
    pub fn from_args_with_extras(
        args: impl IntoIterator<Item = String>,
        extra_value_flags: &[&str],
    ) -> (Self, Vec<(String, String)>) {
        let mut extras = Vec::new();
        let mut plain = Vec::new();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if extra_value_flags.contains(&arg.as_str()) {
                let value = args
                    .next()
                    .unwrap_or_else(|| panic!("{arg} requires a value"));
                extras.push((arg, value));
            } else {
                plain.push(arg);
            }
        }
        (Self::from_args(plain), extras)
    }

    /// Parses an explicit argument list (testable core of [`FigureCli::parse`]).
    ///
    /// # Panics
    ///
    /// See [`FigureCli::parse`].
    pub fn from_args(args: impl IntoIterator<Item = String>) -> Self {
        let mut cli = FigureCli {
            quick: false,
            threads: None,
            shards: None,
            out: None,
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => cli.quick = true,
                "--threads" => {
                    let value = args
                        .next()
                        .unwrap_or_else(|| panic!("--threads requires a value"));
                    let threads: usize = value
                        .parse()
                        .unwrap_or_else(|_| panic!("--threads expects a number, got '{value}'"));
                    assert!(threads > 0, "--threads must be at least 1");
                    cli.threads = Some(threads);
                }
                "--shards" => {
                    let value = args
                        .next()
                        .unwrap_or_else(|| panic!("--shards requires a value"));
                    let shards: usize = value
                        .parse()
                        .unwrap_or_else(|_| panic!("--shards expects a number, got '{value}'"));
                    assert!(shards > 0, "--shards must be at least 1");
                    cli.shards = Some(shards);
                }
                "--out" => {
                    cli.out = Some(
                        args.next()
                            .unwrap_or_else(|| panic!("--out requires a path")),
                    );
                }
                other => panic!(
                    "unknown argument '{other}' (supported: --quick, --threads N, --shards N, --out PATH)"
                ),
            }
        }
        cli
    }

    /// The worker count to use: the `--threads` flag, or `default` when the
    /// flag is absent. Timing-sensitive benchmarks pass 1; simulation sweeps
    /// pass [`FigureCli::available_threads`].
    pub fn threads_or(&self, default: usize) -> usize {
        self.threads.unwrap_or(default).max(1)
    }

    /// The shard count to use: the `--shards` flag, or `default` when the
    /// flag is absent. Passed to `SimSweep::shards` / `SimConfig::with_shards`
    /// by the simulation bins; artifacts are shard-count-invariant.
    pub fn shards_or(&self, default: usize) -> usize {
        self.shards.unwrap_or(default).max(1)
    }

    /// The machine's available parallelism (the default for simulation and
    /// optimization sweeps, whose results are thread-count-invariant).
    pub fn available_threads() -> usize {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    }

    /// The artifact path: the `--out` flag or the figure's default.
    pub fn out_or<'a>(&'a self, default: &'a str) -> &'a str {
        self.out.as_deref().unwrap_or(default)
    }
}

/// Writes the report's JSON artifact to `out_path` and prints the rows as a
/// tab-separated table (axes, then metric means) with the notes as trailing
/// `#` comment lines — the format the original reproducers printed, now
/// derived from the same structured report CI consumes.
///
/// # Panics
///
/// Panics if the artifact cannot be written.
pub fn emit(report: &SweepReport, out_path: &str) {
    std::fs::write(out_path, report.to_json())
        .unwrap_or_else(|e| panic!("failed to write {out_path}: {e}"));

    println!("# {}", report.name);
    for (key, value) in &report.meta {
        println!("# {key}: {value}");
    }
    if let Some(first) = report.rows.first() {
        // Metric columns are the first-seen-ordered union across rows (rows
        // may differ, e.g. only functional-policy cells carry the analytic
        // bound), and every row prints by column name so the table stays
        // rectangular — absent metrics print as "-".
        let mut metric_columns: Vec<String> = Vec::new();
        for row in &report.rows {
            for (name, _) in &row.metrics {
                if !metric_columns.contains(name) {
                    metric_columns.push(name.clone());
                }
            }
        }
        let mut columns: Vec<String> = first.coords.iter().map(|(axis, _)| axis.clone()).collect();
        columns.extend(metric_columns.iter().cloned());
        println!("{}", columns.join("\t"));
        for row in &report.rows {
            let mut fields: Vec<String> =
                row.coords.iter().map(|(_, value)| value.clone()).collect();
            fields.extend(metric_columns.iter().map(|name| {
                row.metric(name)
                    .map_or_else(|| "-".to_string(), |m| format!("{:.6}", m.mean))
            }));
            println!("{}", fields.join("\t"));
        }
    }
    for note in &report.notes {
        println!("# {note}");
    }
    eprintln!("wrote {out_path}");
}

/// The side-channel artifact path for a figure artifact: `FIG_10.json` →
/// `FIG_10.timing.json`. Timing artifacts are never committed or diffed
/// (wall times differ run to run); CI uploads them next to the figure JSONs
/// so slow cells stay visible.
pub fn timing_path(out_path: &str) -> String {
    match out_path.strip_suffix(".json") {
        Some(stem) => format!("{stem}.timing.json"),
        None => format!("{out_path}.timing.json"),
    }
}

/// Like [`emit`], but also writes the wall-clock [`SweepTimings`]
/// side-channel next to the artifact (see [`timing_path`]) and prints a
/// slowest-cells summary to stderr.
///
/// # Panics
///
/// Panics if either artifact cannot be written.
pub fn emit_with_timings(report: &SweepReport, timings: &SweepTimings, out_path: &str) {
    emit(report, out_path);
    let timing_out = timing_path(out_path);
    std::fs::write(&timing_out, timings.to_json())
        .unwrap_or_else(|e| panic!("failed to write {timing_out}: {e}"));
    eprintln!("{}", timings.summary(5));
    eprintln!("wrote {timing_out}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> impl Iterator<Item = String> + use<> {
        list.iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .into_iter()
    }

    #[test]
    fn parses_the_common_flags() {
        let cli = FigureCli::from_args(args(&[]));
        assert_eq!(
            cli,
            FigureCli {
                quick: false,
                threads: None,
                shards: None,
                out: None
            }
        );
        let cli = FigureCli::from_args(args(&[
            "--quick",
            "--threads",
            "4",
            "--shards",
            "2",
            "--out",
            "x.json",
        ]));
        assert!(cli.quick);
        assert_eq!(cli.threads, Some(4));
        assert_eq!(cli.shards, Some(2));
        assert_eq!(cli.out.as_deref(), Some("x.json"));
        assert_eq!(cli.threads_or(8), 4);
        assert_eq!(cli.shards_or(1), 2);
        assert_eq!(cli.out_or("default.json"), "x.json");
        let cli = FigureCli::from_args(args(&["--quick"]));
        assert_eq!(cli.threads_or(8), 8);
        assert_eq!(cli.shards_or(1), 1);
        assert_eq!(cli.out_or("default.json"), "default.json");
    }

    #[test]
    #[should_panic(expected = "unknown argument")]
    fn unknown_flag_panics() {
        let _ = FigureCli::from_args(args(&["--qick"]));
    }

    #[test]
    fn extra_value_flags_are_split_out() {
        let (cli, extras) = FigureCli::from_args_with_extras(
            args(&["--quick", "--workers", "4", "--out", "x.json"]),
            &["--workers"],
        );
        assert!(cli.quick);
        assert_eq!(cli.out.as_deref(), Some("x.json"));
        assert_eq!(extras, vec![("--workers".to_string(), "4".to_string())]);
    }

    #[test]
    #[should_panic(expected = "--workers requires a value")]
    fn extra_flag_without_value_panics() {
        let _ = FigureCli::from_args_with_extras(args(&["--workers"]), &["--workers"]);
    }

    #[test]
    #[should_panic(expected = "expects a number")]
    fn malformed_threads_panics() {
        let _ = FigureCli::from_args(args(&["--threads", "many"]));
    }

    #[test]
    fn emit_writes_the_artifact_and_prints_rows() {
        use sprout::sim::sweep::{Sample, SweepGrid};
        let grid = SweepGrid::named("emit_test", 1).axis("x", ["a", "b"]);
        let report = grid
            .run(1, |cell, _, _| {
                Sample::new().metric("value", cell.idx("x") as f64)
            })
            .with_note("a note");
        let dir = std::env::temp_dir().join("sprout_harness_emit_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report.json");
        emit(&report, path.to_str().unwrap());
        let written = std::fs::read_to_string(&path).unwrap();
        assert_eq!(written, report.to_json());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn timing_paths_derive_from_the_artifact_path() {
        assert_eq!(timing_path("FIG_10.json"), "FIG_10.timing.json");
        assert_eq!(timing_path("out/custom"), "out/custom.timing.json");
    }

    #[test]
    fn emit_with_timings_writes_the_side_channel() {
        use sprout::sim::sweep::{Sample, SweepGrid};
        let grid = SweepGrid::named("emit_timed_test", 1).axis("x", ["a", "b"]);
        let (report, timings) = grid.run_timed(2, |cell, _, _| {
            Sample::new().metric("value", cell.idx("x") as f64)
        });
        let dir = std::env::temp_dir().join("sprout_harness_emit_timed_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report.json");
        emit_with_timings(&report, &timings, path.to_str().unwrap());
        let timing_json = std::fs::read_to_string(dir.join("report.timing.json")).unwrap();
        assert_eq!(timing_json, timings.to_json());
        assert!(timing_json.contains("\"wall_s\""));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
