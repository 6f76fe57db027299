//! Where `dirtree-bench all` puts its combined report, and what happens
//! when it cannot: the report goes to `<out-dir>/reproduction_report.txt`
//! whatever the working directory, and an unwritable report fails the run
//! like any other unwritten output (`FAILED:`, exit 1).

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh, empty directory under the system temp dir.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dirtree-all-report-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `dirtree-bench all --filter table1` (one analytic table, no
/// simulation) run from `cwd` with `out_dir`.
fn run_all(cwd: &Path, out_dir: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dirtree-bench"))
        .args(["all", "--filter", "table1", "--jobs", "1", "--out-dir"])
        .arg(out_dir)
        .current_dir(cwd)
        .output()
        .expect("dirtree-bench runs")
}

#[test]
fn all_writes_its_report_under_the_out_dir() {
    let cwd = scratch("cwd");
    let out_dir = scratch("out").join("records");
    let run = run_all(&cwd, &out_dir);
    assert!(run.status.success(), "{run:?}");
    let report = std::fs::read_to_string(out_dir.join("reproduction_report.txt"))
        .expect("the report is in the out-dir");
    assert!(report.starts_with("==================== table1 "));
    assert_eq!(
        String::from_utf8(run.stdout).unwrap(),
        format!("{report}\n")
    );
    assert!(
        !cwd.join("target").exists(),
        "nothing written to the working directory"
    );
    let _ = std::fs::remove_dir_all(&cwd);
    let _ = std::fs::remove_dir_all(out_dir.parent().unwrap());
}

#[test]
fn an_unwritable_report_fails_the_run() {
    let cwd = scratch("cwd-unwritable");
    let out_dir = cwd.join("not-a-directory");
    std::fs::write(&out_dir, "a regular file").unwrap();
    let run = run_all(&cwd, &out_dir);
    assert_eq!(run.status.code(), Some(1), "{run:?}");
    let stdout = String::from_utf8(run.stdout).unwrap();
    assert!(
        stdout.ends_with("FAILED: [reproduction_report]\n"),
        "{stdout}"
    );
    let stderr = String::from_utf8(run.stderr).unwrap();
    let path = out_dir.join("reproduction_report.txt");
    assert!(
        stderr.contains(&format!("FAILED: {}: output not written", path.display())),
        "{stderr}"
    );
    assert!(
        !cwd.join("target").exists(),
        "nothing written to the working directory"
    );
    let _ = std::fs::remove_dir_all(&cwd);
}
