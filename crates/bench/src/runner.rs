//! Parallel, deterministic execution of [`SweepSpec`]s.
//!
//! A [`Runner`] owns a worker pool policy (`--jobs`) and an output
//! directory for JSON-lines records. Executing a spec:
//!
//! 1. Every config is simulated in-process on a `std::thread::scope`
//!    pool; workers pull config indices from a shared atomic counter.
//! 2. Records are assembled **in spec order** (never completion order) and
//!    written as one JSONL file per spec, so output is byte-identical
//!    regardless of `--jobs`.
//!
//! Nothing is kept between runs: a rerun simulates every config again.
//! Panicking simulations are caught per-config: the failure is recorded in
//! the outcome, the rest of the sweep continues. An output file that cannot
//! be written is recorded as a failure too, so the run still exits
//! non-zero.

use crate::sweep::{workload_key, RunRecord, SweepConfig, SweepSpec};
use dirtree_machine::{Machine, MsgTrace};
use dirtree_workloads::trace::{record_ops, OpTrace, ReplayDriver};
use std::collections::HashMap;
use std::fs;
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Execution policy for a [`Runner`].
#[derive(Clone, Debug)]
pub struct SweepOptions {
    /// Worker threads. Defaults to the machine's available parallelism.
    pub jobs: usize,
    /// Root for results: JSONL under `<out_dir>/`.
    pub out_dir: PathBuf,
    /// Dump a Chrome-trace (`trace_events`) JSON per config under
    /// `<out_dir>/trace/`.
    pub trace: bool,
}

impl Default for SweepOptions {
    fn default() -> Self {
        Self {
            jobs: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            out_dir: PathBuf::from("target/sweep"),
            trace: false,
        }
    }
}

/// One failure: a config's canonical key plus the panic message, or an
/// output path plus the I/O error.
#[derive(Clone, Debug)]
pub struct RunFailure {
    pub key: String,
    pub message: String,
}

/// The result of running one spec.
#[derive(Debug, Default)]
pub struct SweepOutcome {
    /// One record per non-failed config, in spec order.
    pub records: Vec<RunRecord>,
    /// Configs simulated this call (every config of the spec).
    pub executed: usize,
    pub failures: Vec<RunFailure>,
}

/// Parallel sweep executor. Cheap to share by reference; all methods
/// take `&self`.
pub struct Runner {
    opts: SweepOptions,
    /// Lifetime counter across all specs this runner has executed, for
    /// the end-of-run summary line of `dirtree-bench`.
    total_executed: AtomicUsize,
    all_failures: Mutex<Vec<RunFailure>>,
}

impl Runner {
    pub fn new(opts: SweepOptions) -> Self {
        Self {
            opts,
            total_executed: AtomicUsize::new(0),
            all_failures: Mutex::new(Vec::new()),
        }
    }

    pub fn options(&self) -> &SweepOptions {
        &self.opts
    }

    /// Simulations run across every spec so far.
    pub fn totals(&self) -> usize {
        self.total_executed.load(Ordering::Relaxed)
    }

    /// Every failure across every spec run so far, output writes included.
    pub fn failures(&self) -> Vec<RunFailure> {
        self.all_failures.lock().unwrap().clone()
    }

    /// Write `text` to `path` atomically (creating its directory). A write
    /// that fails is recorded as a [`RunFailure`] naming the path and the
    /// I/O error; returns whether the file was written.
    pub(crate) fn write_output(&self, path: &Path, text: &str) -> bool {
        let Err(e) = write_atomic(path, text) else {
            return true;
        };
        let mut failures = self.all_failures.lock().expect("failure list poisoned");
        failures.push(RunFailure {
            key: path.display().to_string(),
            message: format!("output not written: {e}"),
        });
        false
    }

    /// Simulate every config of `spec` in parallel and write
    /// `<out_dir>/<spec.name>.jsonl`. Records come back in spec order.
    pub fn run(&self, spec: &SweepSpec) -> SweepOutcome {
        // Workers claim indices from `next`; each result lands in its own
        // slot, so the assembly below is in spec order no matter which
        // worker finished when.
        type ConfigResult = Result<(RunRecord, Option<String>), String>;
        let n = spec.configs.len();
        let results: Vec<OnceLock<ConfigResult>> = (0..n).map(|_| OnceLock::new()).collect();
        let jobs = self.opts.jobs.clamp(1, n.max(1));
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..jobs {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(config) = spec.configs.get(i) else {
                        break;
                    };
                    let _ = results[i].set(run_config(config, self.opts.trace));
                });
            }
        });

        let mut outcome = SweepOutcome {
            executed: n,
            ..SweepOutcome::default()
        };
        for (i, slot) in results.into_iter().enumerate() {
            let config = &spec.configs[i];
            match slot
                .into_inner()
                .expect("worker pool exited without producing a result")
            {
                Ok((record, trace)) => {
                    if let Some(trace_json) = trace {
                        self.write_trace(spec, i, config, &trace_json);
                    }
                    outcome.records.push(record);
                }
                Err(message) => outcome.failures.push(RunFailure {
                    key: config.key(),
                    message,
                }),
            }
        }
        self.total_executed.fetch_add(n, Ordering::Relaxed);
        self.all_failures
            .lock()
            .unwrap()
            .extend(outcome.failures.iter().cloned());

        self.write_jsonl(spec, &outcome.records);
        outcome
    }

    /// Write one config's Chrome-trace JSON. The filename is fully
    /// determined by (spec name, spec index, config hash), so repeated
    /// `--trace` runs overwrite rather than accumulate.
    fn write_trace(&self, spec: &SweepSpec, idx: usize, config: &SweepConfig, json: &str) {
        let name = if spec.name.is_empty() {
            "adhoc"
        } else {
            &spec.name
        };
        let path = self.opts.out_dir.join("trace").join(format!(
            "{name}-{idx:03}-{:016x}.trace.json",
            config.config_hash()
        ));
        self.write_output(&path, json);
    }

    fn write_jsonl(&self, spec: &SweepSpec, records: &[RunRecord]) {
        if spec.name.is_empty() {
            return;
        }
        let mut body = String::new();
        for record in records {
            body.push_str(&record.to_json());
            body.push('\n');
        }
        let path = self.opts.out_dir.join(format!("{}.jsonl", spec.name));
        self.write_output(&path, &body);
    }
}

/// Ring-buffer capacity for `--trace` timelines: enough for every message
/// of the bundled experiment workloads; older events beyond it are dropped
/// (the trace is for inspection, the metrics are exact regardless).
const TRACE_CAPACITY: usize = 1 << 18;

/// Simulate one config, catching panics into an `Err` message. With
/// `trace`, the machine records every send and the Chrome-trace JSON is
/// returned alongside the record.
fn run_config(config: &SweepConfig, trace: bool) -> Result<(RunRecord, Option<String>), String> {
    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut machine = Machine::new(config.machine, config.protocol);
        if trace {
            machine.set_trace(MsgTrace::new(TRACE_CAPACITY));
        }
        let mut driver = ReplayDriver::new(op_trace_for(config));
        let outcome = machine.run(&mut driver);
        let trace_json = machine.take_trace().map(|t| t.chrome_trace_json());
        (RunRecord::from_outcome(config, &outcome), trace_json)
    }));
    result.map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        }
    })
}

/// Process-wide operation-trace cache: one recording per
/// `(workload, nodes)` pair, shared by every protocol config and every
/// spec the process runs. Recording polls the application programs on
/// the calling thread, one poll per barrier arrival or contended lock (not
/// per operation); it is paid once, and all simulations replay the result
/// — see `dirtree_workloads::trace` for why the streams are
/// config-independent.
/// The per-key `OnceLock` lets distinct workloads record concurrently
/// under `--jobs` while duplicate requests block on the first recorder;
/// the trace content is a pure function of the key either way, so sweep
/// records stay byte-identical at any jobs level.
fn op_trace_for(config: &SweepConfig) -> Arc<OpTrace> {
    type Slot = Arc<OnceLock<Arc<OpTrace>>>;
    static TRACES: OnceLock<Mutex<HashMap<(String, u32), Slot>>> = OnceLock::new();
    let workload = config.effective_workload();
    let key = (workload_key(&workload), config.machine.nodes);
    let slot: Slot = {
        let mut map = TRACES.get_or_init(Default::default).lock().unwrap();
        map.entry(key).or_default().clone()
    };
    slot.get_or_init(|| {
        let mut w = workload.build(config.machine.nodes);
        Arc::new(record_ops(&mut w))
    })
    .clone()
}

/// Write `text` (plus trailing newline) atomically: tmp file + rename, so
/// concurrent runners and killed processes never leave torn files.
fn write_atomic(path: &Path, text: &str) -> std::io::Result<()> {
    let dir = path.parent().expect("output paths always have a parent");
    fs::create_dir_all(dir)?;
    let tmp = dir.join(format!(
        ".tmp-{}-{:x}",
        std::process::id(),
        crate::sweep::hash_str(path.to_string_lossy().as_ref())
    ));
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(text.as_bytes())?;
        if !text.ends_with('\n') {
            f.write_all(b"\n")?;
        }
    }
    fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dirtree_core::protocol::ProtocolKind;
    use dirtree_machine::MachineConfig;
    use dirtree_workloads::WorkloadKind;

    fn tiny_spec(name: &str) -> SweepSpec {
        SweepSpec::grid(
            name,
            WorkloadKind::Floyd {
                vertices: 8,
                seed: 1996,
            },
            &[2, 4],
            &[
                ProtocolKind::FullMap,
                ProtocolKind::DirTree {
                    pointers: 4,
                    arity: 2,
                },
            ],
            MachineConfig::test_default,
        )
    }

    fn runner_in(dir: &Path, jobs: usize) -> Runner {
        Runner::new(SweepOptions {
            jobs,
            out_dir: dir.to_path_buf(),
            ..SweepOptions::default()
        })
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dirtree-runner-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn parallel_output_is_byte_identical_to_serial() {
        let d1 = scratch_dir("serial");
        let d8 = scratch_dir("parallel");
        let r1 = runner_in(&d1, 1);
        let r8 = runner_in(&d8, 8);
        let spec = tiny_spec("determinism");
        let o1 = r1.run(&spec);
        let o8 = r8.run(&spec);
        assert!(o1.failures.is_empty() && o8.failures.is_empty());
        let f1 = fs::read(d1.join("determinism.jsonl")).unwrap();
        let f8 = fs::read(d8.join("determinism.jsonl")).unwrap();
        assert_eq!(f1, f8, "JSONL output must not depend on --jobs");
        let _ = fs::remove_dir_all(&d1);
        let _ = fs::remove_dir_all(&d8);
    }

    #[test]
    fn vc_adaptive_output_is_byte_identical_to_serial() {
        // Adaptive routing breaks ties on live per-VC queue depths, so
        // this pins that the tie-break (and the whole VC timing path) is
        // a pure function of the config — never of worker scheduling.
        let d1 = scratch_dir("vc-serial");
        let d8 = scratch_dir("vc-parallel");
        let r1 = runner_in(&d1, 1);
        let r8 = runner_in(&d8, 8);
        let mut spec = tiny_spec("vc_determinism");
        for c in &mut spec.configs {
            c.machine.net.vcs = 3;
            c.machine.net.adaptive = true;
        }
        let o1 = r1.run(&spec);
        let o8 = r8.run(&spec);
        assert!(o1.failures.is_empty() && o8.failures.is_empty());
        let f1 = fs::read(d1.join("vc_determinism.jsonl")).unwrap();
        let f8 = fs::read(d8.join("vc_determinism.jsonl")).unwrap();
        assert_eq!(f1, f8, "VC JSONL output must not depend on --jobs");
        let _ = fs::remove_dir_all(&d1);
        let _ = fs::remove_dir_all(&d8);
    }

    #[test]
    fn trace_option_dumps_deterministic_chrome_traces() {
        let dir = scratch_dir("trace");
        let spec = tiny_spec("traced");
        let traced = Runner::new(SweepOptions {
            jobs: 2,
            out_dir: dir.clone(),
            trace: true,
        })
        .run(&spec);
        assert_eq!(traced.executed, spec.configs.len());
        assert!(traced.failures.is_empty());
        let trace_dir = dir.join("trace");
        let mut files: Vec<_> = fs::read_dir(&trace_dir)
            .expect("trace dir exists")
            .map(|e| e.unwrap().path())
            .collect();
        files.sort();
        assert_eq!(files.len(), spec.configs.len());
        let first = fs::read_to_string(&files[0]).unwrap();
        assert!(first.starts_with("{\"displayTimeUnit\""));
        assert!(first.contains("\"traceEvents\":["));
        assert!(first.contains("\"name\":\"read_req\""));
        // Re-running with --trace overwrites byte-identically.
        Runner::new(SweepOptions {
            jobs: 1,
            out_dir: dir.clone(),
            trace: true,
        })
        .run(&spec);
        assert_eq!(fs::read_to_string(&files[0]).unwrap(), first);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unwritable_output_is_a_failure() {
        // An out_dir that is a regular file: no record file can be written
        // under it, and the runner must say so instead of only warning.
        let file = scratch_dir("unwritable");
        fs::write(&file, "not a directory").unwrap();
        let runner = runner_in(&file, 1);
        let out = runner.run(&tiny_spec("blocked"));
        assert!(out.failures.is_empty(), "every simulation ran");
        let failures = runner.failures();
        assert_eq!(failures.len(), 1, "{failures:?}");
        let path = file.join("blocked.jsonl");
        assert_eq!(failures[0].key, path.display().to_string());
        assert!(failures[0].message.starts_with("output not written: "));
        let _ = fs::remove_file(&file);
    }

    #[test]
    fn failures_are_reported_and_do_not_abort_the_sweep() {
        let dir = scratch_dir("failures");
        let runner = runner_in(&dir, 2);
        let mut spec = tiny_spec("with-failure");
        // nodes=3 on a binary hypercube is invalid and panics in
        // Machine::new; the sweep must survive it.
        let mut bad = spec.configs[0].clone();
        bad.machine.nodes = 3;
        spec.configs.insert(1, bad);
        let out = runner.run(&spec);
        assert_eq!(out.failures.len(), 1);
        assert_eq!(out.records.len(), spec.configs.len() - 1);
        assert!(out.failures[0].key.contains("nodes=3"));
        assert_eq!(runner.failures().len(), 1);
        // Nothing is kept between runs: a rerun executes every config
        // again, the failed one included.
        let again = runner_in(&dir, 2).run(&spec);
        assert_eq!(again.executed, spec.configs.len());
        assert_eq!(again.failures.len(), 1);
        assert_eq!(again.records.len(), out.records.len());
        let _ = fs::remove_dir_all(&dir);
    }
}
