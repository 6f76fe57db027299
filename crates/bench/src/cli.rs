//! Command-line parsing for the `dirtree-bench` front end.
//!
//! `dirtree-bench <experiment|all|list> [flags]`, with the sweep-runner
//! flags:
//!
//! - `--jobs N` — worker threads (default: available parallelism)
//! - `--out-dir PATH` — sweep output root (default `target/sweep`)
//! - `--trace` — dump a Chrome-trace-format event timeline per config
//!   under `<out-dir>/trace/`
//! - `--filter SUBSTR` — `all`: run the experiments whose name contains
//!   the substring; `scale_up` / `adaptive_ablation`: keep the machine
//!   sizes whose `P=<nodes>` contains it
//!
//! Flags may be written `--flag value` or `--flag=value`. Anything the
//! parser does not recognise is an error ([`Cli::from_args`]), which the
//! binary reports with [`usage`] and exit status 64.

use crate::experiments::{Experiment, REGISTRY};
use crate::runner::SweepOptions;
use std::path::PathBuf;

/// What the command line asks to run.
#[derive(Clone, Copy, Debug)]
pub enum Target {
    /// Print the experiment names.
    List,
    /// Every registry entry with `in_all`, in report order.
    All,
    One(&'static Experiment),
}

#[derive(Clone, Debug)]
pub struct Cli {
    pub target: Target,
    pub jobs: Option<usize>,
    pub trace: bool,
    pub filter: Option<String>,
    pub out_dir: Option<PathBuf>,
}

impl Cli {
    /// Parse the arguments after the program name. The error is the
    /// one-line reason; the caller adds [`usage`].
    pub fn from_args(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut target = None;
        let (mut jobs, mut filter, mut out_dir) = (None, None, None);
        let mut trace = false;
        while let Some(arg) = args.next() {
            if !arg.starts_with("--") {
                if target.is_some() {
                    return Err(format!("unexpected second experiment name {arg:?}"));
                }
                target = Some(match arg.as_str() {
                    "list" => Target::List,
                    "all" => Target::All,
                    name => Target::One(
                        REGISTRY
                            .iter()
                            .find(|e| e.name == name)
                            .ok_or_else(|| format!("unknown experiment {name:?}"))?,
                    ),
                });
                continue;
            }
            let (flag, inline) = match arg.split_once('=') {
                Some((f, v)) => (f.to_string(), Some(v.to_string())),
                None => (arg, None),
            };
            let mut value = || {
                inline
                    .clone()
                    .or_else(|| args.next())
                    .ok_or_else(|| format!("{flag} needs a value"))
            };
            match flag.as_str() {
                "--jobs" => {
                    let v = value()?;
                    let n = v.parse().ok().filter(|&n: &usize| n >= 1);
                    jobs =
                        Some(n.ok_or_else(|| {
                            format!("--jobs needs a positive integer, got {v:?}")
                        })?);
                }
                "--filter" => filter = Some(value()?),
                "--out-dir" => out_dir = Some(PathBuf::from(value()?)),
                "--trace" if inline.is_some() => {
                    return Err(format!("{flag} takes no value"));
                }
                "--trace" => trace = true,
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(Cli {
            target: target.ok_or("no experiment named")?,
            jobs,
            trace,
            filter,
            out_dir,
        })
    }

    /// The runner options implied by the parsed flags.
    pub fn sweep_options(&self) -> SweepOptions {
        let mut opts = SweepOptions::default();
        if let Some(jobs) = self.jobs {
            opts.jobs = jobs;
        }
        opts.trace = self.trace;
        if let Some(dir) = &self.out_dir {
            opts.out_dir = dir.clone();
        }
        opts
    }
}

/// The experiment names, one per line, in registry order (what
/// `dirtree-bench list` prints).
pub fn list() -> String {
    REGISTRY.iter().map(|e| format!("{}\n", e.name)).collect()
}

/// Usage text: the grammar plus the `list` output.
pub fn usage() -> String {
    format!(
        "usage: dirtree-bench <experiment|all|list> [--jobs N] [--trace] \
         [--filter SUBSTR] [--out-dir PATH]\n\
         experiments:\n{}",
        list()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        Cli::from_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_all_flags() {
        let cli = parse(&[
            "all",
            "--jobs",
            "4",
            "--trace",
            "--filter=fig",
            "--out-dir",
            "/tmp/x",
        ])
        .unwrap();
        assert!(matches!(cli.target, Target::All));
        assert_eq!(cli.jobs, Some(4));
        assert!(cli.trace);
        assert_eq!(cli.filter.as_deref(), Some("fig"));
        assert_eq!(cli.out_dir.as_deref(), Some(std::path::Path::new("/tmp/x")));
        let opts = cli.sweep_options();
        assert_eq!(opts.jobs, 4);
        assert!(opts.trace);
    }

    #[test]
    fn equals_form_defaults_and_name_position() {
        let cli = parse(&["--jobs=2", "fig10_floyd"]).unwrap();
        assert!(matches!(cli.target, Target::One(e) if e.name == "fig10_floyd"));
        assert_eq!(cli.jobs, Some(2));
        assert!(!cli.trace && cli.filter.is_none());
        let cli = parse(&["list"]).unwrap();
        assert!(matches!(cli.target, Target::List));
        assert!(cli.jobs.is_none());
        assert!(cli.sweep_options().jobs >= 1);
    }

    #[test]
    fn every_malformed_command_line_is_rejected() {
        for (args, reason) in [
            (&["table1", "--frobnicate"][..], "unknown flag --frobnicate"),
            (&["all", "--no-cache"], "unknown flag --no-cache"),
            (
                &["table1", "--jobs", "zero"],
                "--jobs needs a positive integer",
            ),
            (
                &["table1", "--jobs", "0"],
                "--jobs needs a positive integer",
            ),
            (&["table1", "--jobs=-1"], "--jobs needs a positive integer"),
            (&["table1", "--jobs"], "--jobs needs a value"),
            (&["all", "--filter"], "--filter needs a value"),
            (&["all", "--out-dir"], "--out-dir needs a value"),
            (&["table1", "--trace=yes"], "--trace takes no value"),
            (&["all", "--full"], "unknown flag --full"),
            (&["reproduce_everything"], "unknown experiment"),
            (&["table1", "table3"], "unexpected second experiment"),
            (&["--jobs", "2"], "no experiment named"),
            (&[], "no experiment named"),
        ] {
            let err = parse(args).expect_err(&format!("{args:?} must be rejected"));
            assert!(err.contains(reason), "{args:?}: {err}");
        }
    }

    #[test]
    fn usage_lists_every_experiment() {
        let text = usage();
        for e in REGISTRY {
            assert!(text.contains(&format!("\n{}\n", e.name)), "{}", e.name);
        }
    }
}
