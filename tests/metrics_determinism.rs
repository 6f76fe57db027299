//! The observability layer must not cost the sweep runner its
//! determinism contract: records — carrying the full per-class metrics
//! block — stay byte-identical at any `--jobs` level.

use dirtree_bench::runner::{Runner, SweepOptions};
use dirtree_bench::sweep::SweepSpec;
use dirtree_core::protocol::ProtocolKind;
use dirtree_machine::{MachineConfig, MsgClass};
use dirtree_workloads::WorkloadKind;
use std::fs;
use std::path::{Path, PathBuf};

fn spec() -> SweepSpec {
    SweepSpec::grid(
        "metrics-determinism",
        WorkloadKind::Floyd {
            vertices: 10,
            seed: 7,
        },
        &[2, 4],
        &[
            ProtocolKind::FullMap,
            ProtocolKind::DirTree {
                pointers: 2,
                arity: 2,
            },
        ],
        MachineConfig::test_default,
    )
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "dirtree-metrics-determinism-{tag}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn runner_in(dir: &Path, jobs: usize) -> Runner {
    Runner::new(SweepOptions {
        jobs,
        out_dir: dir.to_path_buf(),
        ..SweepOptions::default()
    })
}

#[test]
fn metrics_json_is_byte_identical_across_jobs() {
    let spec = spec();
    let (d1, d8) = (scratch_dir("j1"), scratch_dir("j8"));

    let (r1, r8) = (runner_in(&d1, 1), runner_in(&d8, 8));
    let serial = r1.run(&spec);
    r8.run(&spec);
    assert_eq!(r1.totals(), spec.configs.len());
    assert_eq!(r8.totals(), spec.configs.len());

    let jsonl = |d: &Path| fs::read_to_string(d.join("metrics-determinism.jsonl")).unwrap();
    let (f1, f8) = (jsonl(&d1), jsonl(&d8));
    assert_eq!(f1, f8, "--jobs 1 and --jobs 8 disagree byte-for-byte");

    // Every record carries a populated metrics block whose class totals
    // reconcile with the machine's own message counter.
    assert_eq!(f1.lines().count(), serial.records.len());
    for (line, record) in f1.lines().zip(&serial.records) {
        assert!(line.contains("\"metrics\":{"), "metrics block missing");
        assert!(record.metrics.total_messages() > 0, "empty metrics block");
        assert_eq!(record.metrics.total_messages(), record.messages);
        assert!(record.metrics.class(MsgClass::ReadReq).count > 0);
    }

    let _ = fs::remove_dir_all(&d1);
    let _ = fs::remove_dir_all(&d8);
}
