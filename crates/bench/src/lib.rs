//! Shared harness utilities for the figure-regeneration binaries.
//!
//! The primary entry point is the **`figures`** driver, which executes any
//! named or file-loaded [`Scenario`](nbiot_sim::Scenario)
//! (`--scenario <name|path.json|path.toml>`, `--list` for the registry)
//! through the shared (point × run) scheduler:
//!
//! | Binary        | Paper artifact | Metric |
//! |---------------|----------------|--------|
//! | `figures`     | any scenario: Fig. 6(a) `fig6a`, Fig. 6(b) `fig6b`, Fig. 7 `fig7`, Fig. 6(a)+(b) in one grid `paper-suite` | the scenario's tables, captions derived from the actual config |
//! | `fig7`        | Fig. 7         | mean DR-SC transmissions vs group size; its `--json` is the only output carrying the fluid-model estimate |
//! | `ablations`   | beyond-paper sensitivity studies | TI, notify policy, adaptation grid, RACH contention, SC-PTM monitoring, paging density `nB`, channel serialization |
//! | `bench_report`| — | machine-trackable wall-clock of the macro workload (`BENCH_results.json`) |
//!
//! Common flags: `--runs <u32>` (default 100, the paper's repetition
//! count), `--devices <usize>`, `--seed <u64>`, `--threads <usize>`
//! (worker threads for the (point × run) fan-out; `0` = all cores, the
//! default; results are bit-identical for every setting), `--mix <name>`
//! (any registered traffic mix), `--json` (machine-readable output).

use std::fmt::Write as _;

pub mod coordinator;
pub mod diff;
pub mod scenarios;
pub mod toml_lite;

/// Process exit code for runtime failures (unreadable/corrupt inputs,
/// failed execution): the generic "something went wrong".
pub const EXIT_FAILURE: i32 = 1;
/// Process exit code for command-line usage errors.
pub const EXIT_USAGE: i32 = 2;
/// Process exit code for a campaign that exhausted its retry budget and
/// degraded to a partial merge — distinct from [`EXIT_FAILURE`] so
/// automation can tell "partial results written" from "nothing happened".
pub const EXIT_DEGRADED: i32 = 3;
/// Process exit code for a campaign halted early on request
/// (`--halt-after`), with checkpoints written but no merge attempted.
pub const EXIT_HALTED: i32 = 4;

/// Prints a one-line `<binary>: error: <message>` to stderr and exits
/// with [`EXIT_FAILURE`]. The CLI-facing alternative to panicking: bad
/// input files and failed runs are operator errors, not bugs, and get an
/// actionable message instead of a backtrace.
pub fn fail(message: impl core::fmt::Display) -> ! {
    fail_with(EXIT_FAILURE, message)
}

/// Prints a one-line usage error and exits with [`EXIT_USAGE`].
pub fn fail_usage(message: impl core::fmt::Display) -> ! {
    fail_with(EXIT_USAGE, message)
}

/// Prints a one-line error and exits with the given code.
pub fn fail_with(code: i32, message: impl core::fmt::Display) -> ! {
    let bin = std::env::args()
        .next()
        .as_deref()
        .map(std::path::Path::new)
        .and_then(|p| p.file_stem())
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "bench".to_string());
    eprintln!("{bin}: error: {message}");
    std::process::exit(code);
}

/// Writes `args` to stdout and flushes it: the one path result output
/// takes. A failed write, such as a full disk or a closed pipe, exits
/// through [`fail`] with one error line, where `println!` would panic.
pub fn write_stdout(args: core::fmt::Arguments<'_>) {
    use std::io::Write as _;
    let mut stdout = std::io::stdout().lock();
    if let Err(e) = stdout.write_fmt(args).and_then(|()| stdout.flush()) {
        fail(format_args!("cannot write to stdout: {e}"));
    }
}

/// `println!` through [`write_stdout`].
#[macro_export]
macro_rules! outln {
    () => {
        $crate::write_stdout(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// `print!` through [`write_stdout`].
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!($($arg)*))
    };
}

/// `Result` adapter for CLI entry points: unwraps `Ok`, routes `Err`
/// through [`fail`] / [`fail_usage`] as a one-line message.
pub trait OrFail<T> {
    /// Unwraps or exits with [`EXIT_FAILURE`] and the error message.
    fn or_fail(self) -> T;
    /// Unwraps or exits with [`EXIT_USAGE`] and the error message.
    fn or_fail_usage(self) -> T;
}

impl<T, E: core::fmt::Display> OrFail<T> for Result<T, E> {
    fn or_fail(self) -> T {
        self.unwrap_or_else(|e| fail(e))
    }

    fn or_fail_usage(self) -> T {
        self.unwrap_or_else(|e| fail_usage(e))
    }
}

/// Which shared flags were explicitly passed on the command line — the
/// scenario driver only overrides a scenario's own values for these.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GivenFlags {
    /// `--runs` was passed.
    pub runs: bool,
    /// `--devices` was passed.
    pub devices: bool,
    /// `--seed` was passed.
    pub seed: bool,
    /// `--threads` was passed.
    pub threads: bool,
}

/// Parsed command-line options shared by the figure binaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FigureOpts {
    /// Number of runs to average over (paper: 100).
    pub runs: u32,
    /// Group size for the fixed-size figures (paper: 100–1000; default 500).
    pub devices: usize,
    /// Master seed.
    pub seed: u64,
    /// Worker threads for the experiment work-item fan-out: `0` uses all
    /// available cores, `1` runs serially. Every setting produces
    /// bit-identical results; this only trades wall-clock for cores.
    pub threads: usize,
    /// Registered traffic mix selected with `--mix` (`None` = the
    /// config's own mix).
    pub mix: Option<String>,
    /// Emit JSON instead of a text table.
    pub json: bool,
    /// Which of the flags above were explicitly passed.
    pub given: GivenFlags,
}

impl Default for FigureOpts {
    fn default() -> Self {
        FigureOpts {
            runs: 100,
            devices: 500,
            seed: 0x4E42_494F_5421,
            threads: 0,
            mix: None,
            json: false,
            given: GivenFlags::default(),
        }
    }
}

impl FigureOpts {
    /// Parses `--runs`, `--devices`, `--seed`, `--threads` and `--json`
    /// from the process arguments, falling back to defaults.
    ///
    /// Exits with [`EXIT_USAGE`] and a one-line message on malformed
    /// values — appropriate for a CLI entry point.
    pub fn from_args() -> FigureOpts {
        Self::parse(std::env::args().skip(1))
    }

    /// Parses the shared figure flags from an explicit argument list
    /// (binaries with extra private flags strip them first).
    ///
    /// Same exit contract as [`FigureOpts::from_args`].
    pub fn parse(args: impl Iterator<Item = String>) -> FigureOpts {
        let mut opts = FigureOpts::default();
        let mut args = args;
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--runs" => {
                    opts.runs = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n| n > 0)
                        .unwrap_or_else(|| fail_usage("--runs needs a positive integer"));
                    opts.given.runs = true;
                }
                "--devices" => {
                    opts.devices = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n| n > 0)
                        .unwrap_or_else(|| fail_usage("--devices needs a positive integer"));
                    opts.given.devices = true;
                }
                "--seed" => {
                    opts.seed = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| fail_usage("--seed needs an integer"));
                    opts.given.seed = true;
                }
                "--threads" => {
                    opts.threads = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                        fail_usage("--threads needs an integer (0 = all cores)")
                    });
                    opts.given.threads = true;
                }
                "--mix" => {
                    let name = args
                        .next()
                        .unwrap_or_else(|| fail_usage("--mix needs a mix name"));
                    opts.mix = Some(resolve_mix(&name).name);
                }
                "--json" => opts.json = true,
                "--help" | "-h" => {
                    eprintln!(
                        "usage: [--runs N] [--devices N] [--seed N] [--threads N] \
                         [--mix NAME] [--json]\n\
                         defaults: --runs 100 --devices 500 --threads 0 (all cores)\n\
                         registered mixes: {}",
                        nbiot_traffic::TrafficMix::REGISTRY.join(", ")
                    );
                    std::process::exit(0);
                }
                other => fail_usage(format!("unknown flag {other}; try --help")),
            }
        }
        opts
    }

    /// Overrides a scenario's fields with the *explicitly passed* flags
    /// only — a file- or registry-loaded scenario keeps its own runs,
    /// devices, seed and thread count unless the user asked otherwise.
    pub fn apply_to_scenario(&self, scenario: &mut nbiot_sim::Scenario) {
        if self.given.runs {
            scenario.runs = self.runs;
        }
        if self.given.devices {
            scenario.devices = vec![self.devices];
        }
        if self.given.seed {
            scenario.master_seed = self.seed;
        }
        if self.given.threads {
            scenario.threads = self.threads;
        }
        if let Some(name) = &self.mix {
            scenario.mix = resolve_mix(name);
        }
    }
}

/// Resolves a registered traffic mix by name.
///
/// Exits with [`EXIT_USAGE`] and the list of known mixes on an unknown
/// name — appropriate for the CLI entry points this backs.
pub fn resolve_mix(name: &str) -> nbiot_traffic::TrafficMix {
    nbiot_traffic::TrafficMix::by_name(name).unwrap_or_else(|| {
        fail_usage(format!(
            "unknown traffic mix `{name}`; registered mixes: {}",
            nbiot_traffic::TrafficMix::REGISTRY.join(", ")
        ))
    })
}

/// Renders an aligned text table.
///
/// # Example
///
/// ```
/// let table = nbiot_bench::render_table(
///     &["mechanism", "value"],
///     &[vec!["DR-SC".into(), "0.0".into()]],
/// );
/// assert!(table.contains("DR-SC"));
/// ```
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let render_line = |cells: &mut dyn Iterator<Item = &str>| {
        let mut line = String::new();
        for (cell, w) in cells.zip(&widths) {
            let _ = write!(line, "{cell:<w$}  ");
        }
        line.truncate(line.trim_end().len());
        line
    };
    let header_line = render_line(&mut headers.iter().copied());
    // The divider spans exactly the header line: every padded column plus
    // the two-space gutters between columns (the old `sum + 2*cols - 2`
    // arithmetic under-drew whenever trailing columns were empty and
    // over-drew the degenerate zero/one-column edge cases).
    let divider = "-".repeat(header_line.len());
    let mut out = String::new();
    out.push_str(&header_line);
    out.push('\n');
    out.push_str(&divider);
    out.push('\n');
    for row in rows {
        out.push_str(&render_line(&mut row.iter().map(String::as_str)));
        out.push('\n');
    }
    out
}

/// Deterministic synthetic workloads shared by the `bench_report` stages
/// and the kernel regression pins, mirroring the structure DR-SC's solvers
/// see in real campaigns.
pub mod workload {
    use nbiot_des::SeedSequence;
    use nbiot_time::SimInstant;
    use rand::Rng;

    /// Shared shape of every frame-cover workload: `TI`-length windows
    /// tiling twice the longest eDRX cycle. One definition, so every
    /// `set_cover_*` bench stage measures the same instance geometry.
    const TI_MS: u64 = 10_000;
    /// Windows tiling the DR-SC search horizon (2 × longest eDRX).
    const N_WINDOWS: usize = (2 * 2_621_440 / TI_MS) as usize;
    /// Whole windows only.
    const HORIZON_MS: u64 = N_WINDOWS as u64 * TI_MS;
    /// The long-cycle ladder the sparse tail draws from.
    const LONG_CYCLES_MS: [u64; 5] = [163_840, 327_680, 655_360, 1_310_720, 2_621_440];

    /// A generalized paper-Fig.-3 frame-cover instance over `n_devices`
    /// devices: candidate sets are `TI`-length windows tiling the DR-SC
    /// search horizon, and a window covers every device with a paging
    /// occasion inside it. A bimodal cycle population (30 % short-cycle
    /// devices that appear in *every* window — exactly the paper's "dense"
    /// devices — plus a long-cycle tail) makes the sets wide, which is the
    /// shape the real mechanism produces before dense-filtering.
    ///
    /// Returns `(universe_size, sets)` for
    /// [`nbiot_grouping::set_cover::greedy_set_cover`].
    pub fn frame_cover_instance(n_devices: usize, seed: u64) -> (usize, Vec<Vec<usize>>) {
        frame_cover_instance_with(n_devices, 0.3, seed)
    }

    /// [`frame_cover_instance`] with an explicit dense-device share.
    ///
    /// `dense_share = 0.0` is the **post-dense-filtering** shape: the
    /// DR-SC pipeline attaches every device with `cycle <= TI` to the
    /// first transmission before solving, so at scale the cover kernel
    /// only ever sees the long-cycle tail. This sparse shape is what the
    /// `large-n-stress` benchmark point uses — the incidence lists stay
    /// proportional to the event count instead of `devices × windows`,
    /// which is exactly the regime the incremental solver's inverted
    /// index is built for (see `docs/KERNELS.md`).
    pub fn frame_cover_instance_with(
        n_devices: usize,
        dense_share: f64,
        seed: u64,
    ) -> (usize, Vec<Vec<usize>>) {
        let mut rng = SeedSequence::new(seed).rng(0);
        let mut sets: Vec<Vec<usize>> = vec![Vec::new(); N_WINDOWS];
        for d in 0..n_devices {
            if dense_share > 0.0 && rng.gen_bool(dense_share) {
                // Dense device: one PO in every window.
                for set in &mut sets {
                    set.push(d);
                }
            } else {
                // Long-cycle device: a ladder cycle and a random phase,
                // one PO per cycle inside the horizon.
                let cycle = LONG_CYCLES_MS[rng.gen_range(0..LONG_CYCLES_MS.len())];
                let mut t = rng.gen_range(0..cycle);
                while t < HORIZON_MS {
                    sets[(t / TI_MS) as usize].push(d);
                    t += cycle;
                }
            }
        }
        (n_devices, sets)
    }

    /// A cost-aware cover instance for the airtime-weighted kernel:
    /// `n_devices` devices in blocks of 16, each block coverable either by
    /// one "umbrella" window priced at the CE2 block airtime (368
    /// subframes) or by four 4-device "piece" windows priced at CE0 (27
    /// subframes each), with CE1-priced (104) half-block windows in
    /// between for texture. Count-greedy always takes the umbrella (raw
    /// gain 16 beats 8 and 4); the weighted kernel takes the pieces
    /// (gain/cost 4/27 beats 8/104 beats 16/368), paying 108 subframes per
    /// block instead of 368. This is exactly the coverage-class economics
    /// `DrScWeighted` exploits: a deep device in a window prices the whole
    /// window at the deep repetition count, so covering shallow devices
    /// through cheap shallow windows wins airtime.
    ///
    /// The candidate order is deterministically shuffled so lowest-index
    /// tie-breaking never accidentally favors one structure.
    ///
    /// Returns `(universe_size, sets, costs)` for
    /// [`nbiot_grouping::set_cover::greedy_set_cover_weighted`].
    pub fn weighted_cover_instance(
        n_devices: usize,
        seed: u64,
    ) -> (usize, Vec<Vec<usize>>, Vec<u32>) {
        // The three NPDSCH block airtimes of the default coverage ladder
        // (repetitions 1/8/32 — see `nbiot_phy::transfer`).
        const CE0: u32 = 27;
        const CE1: u32 = 104;
        const CE2: u32 = 368;
        let mut rng = SeedSequence::new(seed).rng(3);
        let mut candidates: Vec<(Vec<usize>, u32)> = Vec::new();
        let mut start = 0;
        while start < n_devices {
            let end = (start + 16).min(n_devices);
            candidates.push(((start..end).collect(), CE2));
            for half in (start..end).step_by(8) {
                candidates.push(((half..(half + 8).min(end)).collect(), CE1));
            }
            for piece in (start..end).step_by(4) {
                candidates.push(((piece..(piece + 4).min(end)).collect(), CE0));
            }
            start = end;
        }
        // Fisher-Yates on the (set, cost) pairs.
        for i in (1..candidates.len()).rev() {
            let j = rng.gen_range(0..=i);
            candidates.swap(i, j);
        }
        let costs = candidates.iter().map(|(_, c)| *c).collect();
        let sets = candidates.into_iter().map(|(s, _)| s).collect();
        (n_devices, sets, costs)
    }

    /// A sparse PO timeline for [`nbiot_grouping::set_cover::WindowCover`]:
    /// `n_devices` devices with periodic occasions over the DR-SC horizon.
    ///
    /// Returns `(events, dense)`, the input of
    /// [`nbiot_grouping::set_cover::PoTimeline::from_events`] and of the
    /// reference solver.
    pub fn window_cover_instance(
        n_devices: usize,
        cycle_s: u64,
        seed: u64,
    ) -> (Vec<Vec<SimInstant>>, Vec<bool>) {
        let mut rng = SeedSequence::new(seed).rng(1);
        let horizon_ms = 2 * 10_486 * 1000u64;
        let events = (0..n_devices)
            .map(|_| {
                let phase: u64 = rng.gen_range(0..cycle_s * 1000);
                (0..)
                    .map(|k| SimInstant::from_ms(phase + k * cycle_s * 1000))
                    .take_while(|t| t.as_ms() < horizon_ms)
                    .collect()
            })
            .collect();
        (events, vec![false; n_devices])
    }
}

/// Formats a fraction as a signed percentage with sensible precision.
pub fn pct(x: f64) -> String {
    if x.abs() < 0.0005 {
        format!("{:+.4}%", x * 100.0)
    } else {
        format!("{:+.2}%", x * 100.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let t = render_table(
            &["a", "longheader"],
            &[
                vec!["x".into(), "1".into()],
                vec!["yyyy".into(), "22".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("a     longheader"));
    }

    #[test]
    fn divider_spans_header_line_exactly() {
        for headers in [
            vec!["one"],
            vec!["a", "b"],
            vec!["mechanism", "x", "y", "z", "w"],
        ] {
            let rows = vec![vec![String::from("v"); headers.len()]];
            let t = render_table(&headers, &rows);
            let lines: Vec<&str> = t.lines().collect();
            assert_eq!(
                lines[1].len(),
                lines[0].len(),
                "divider must match the header width for {headers:?}"
            );
            assert!(lines[1].chars().all(|c| c == '-'));
        }
    }

    #[test]
    fn divider_handles_degenerate_tables() {
        // Zero columns: no divider dashes, no panic.
        let t = render_table(&[], &[]);
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines[0], "");
        assert_eq!(lines[1], "");
        // One short column: the old formula drew sum+2*1-2 = sum dashes,
        // which happened to fit, but sum+2*cols-2 overdraws wide gutters
        // once trailing cells go empty; the new divider always matches.
        let t1 = render_table(&["h"], &[vec!["x".into()]]);
        let lines1: Vec<&str> = t1.lines().collect();
        assert_eq!(lines1[1].len(), lines1[0].len());
    }

    #[test]
    fn workload_instances_are_coverable_and_solvers_agree() {
        let (n, sets) = workload::frame_cover_instance(120, 7);
        assert_eq!(sets.len(), 524);
        let fast = nbiot_grouping::set_cover::greedy_set_cover(n, &sets);
        let oracle = nbiot_grouping::set_cover::reference::greedy_set_cover(n, &sets);
        assert!(fast.is_some(), "tiled windows always cover the horizon");
        assert_eq!(fast, oracle);

        let (events, dense) = workload::window_cover_instance(40, 2_600, 7);
        assert!(events.iter().all(|e| !e.is_empty()));
        let ti = nbiot_time::SimDuration::from_secs(10);
        let zero = nbiot_time::SimInstant::ZERO;
        let timeline = nbiot_grouping::set_cover::PoTimeline::from_events(&events, &dense);
        let fast = nbiot_grouping::set_cover::WindowCover::new(ti).solve(zero, &timeline);
        let oracle =
            nbiot_grouping::set_cover::reference::window_cover_solve(ti, zero, &events, &dense);
        assert_eq!(fast, oracle);
    }

    #[test]
    fn weighted_instance_separates_the_kernels() {
        let (n, sets, costs) = workload::weighted_cover_instance(256, 7);
        let weighted = nbiot_grouping::set_cover::greedy_set_cover_weighted(n, &sets, &costs)
            .expect("umbrella-vs-pieces instances always cover");
        let oracle =
            nbiot_grouping::set_cover::reference::greedy_set_cover_weighted(n, &sets, &costs)
                .unwrap();
        assert_eq!(weighted, oracle, "kernel must agree with the oracle");
        let count = nbiot_grouping::set_cover::greedy_set_cover(n, &sets).unwrap();
        let airtime = |picks: &[usize]| picks.iter().map(|&s| u64::from(costs[s])).sum::<u64>();
        // Count-greedy takes the CE2 umbrellas (368/block); the weighted
        // kernel covers each block with four CE0 pieces (108/block).
        assert!(
            airtime(&weighted) < airtime(&count),
            "weighted {} must beat count {}",
            airtime(&weighted),
            airtime(&count)
        );
    }

    #[test]
    fn pct_precision() {
        assert_eq!(pct(0.1234), "+12.34%");
        assert_eq!(pct(0.0001), "+0.0100%");
        assert_eq!(pct(-0.05), "-5.00%");
    }

    #[test]
    fn default_opts_match_paper() {
        let o = FigureOpts::default();
        assert_eq!(o.runs, 100);
        assert_eq!(o.devices, 500);
        assert_eq!(o.threads, 0, "default fan-out uses all cores");
    }

    #[test]
    fn parse_records_given_flags_and_resolves_mix() {
        let args = ["--runs", "5", "--mix", "clustered-heterogeneous"]
            .into_iter()
            .map(String::from);
        let opts = FigureOpts::parse(args);
        assert!(opts.given.runs);
        assert!(!opts.given.devices && !opts.given.seed && !opts.given.threads);
        assert_eq!(opts.mix.as_deref(), Some("clustered-heterogeneous"));
    }

    #[test]
    fn scenario_overrides_respect_explicit_flags_only() {
        let args = ["--runs", "4", "--threads", "2"]
            .into_iter()
            .map(String::from);
        let opts = FigureOpts::parse(args);
        let mut scenario = nbiot_sim::Scenario::builtin("fig7").unwrap();
        let original_devices = scenario.devices.clone();
        let original_seed = scenario.master_seed;
        opts.apply_to_scenario(&mut scenario);
        assert_eq!(scenario.runs, 4);
        assert_eq!(scenario.threads, 2);
        // --devices/--seed were not passed: the scenario keeps its sweep.
        assert_eq!(scenario.devices, original_devices);
        assert_eq!(scenario.master_seed, original_seed);
        // The two defaults agree, so applying every default flag as if
        // passed leaves the default scenario unchanged.
        let all_given = FigureOpts {
            given: GivenFlags {
                runs: true,
                devices: true,
                seed: true,
                threads: true,
            },
            ..FigureOpts::default()
        };
        let mut scenario = nbiot_sim::Scenario::default();
        all_given.apply_to_scenario(&mut scenario);
        assert_eq!(scenario, nbiot_sim::Scenario::default());
    }
}
