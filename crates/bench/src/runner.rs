//! Parallel, deterministic execution of [`SweepSpec`]s.
//!
//! A [`Runner`] owns a worker pool policy (`--jobs`), an output directory
//! for JSON-lines records, and the outcome of every config it has
//! simulated, keyed by [`SweepConfig::key`]. Executing a spec:
//!
//! 1. Every config is resolved on a `std::thread::scope` pool; workers
//!    pull config indices from a shared atomic counter. A config is
//!    simulated the first time any spec names it; a later spec that names
//!    it again, in the same experiment or another, gets the same record.
//! 2. Records are assembled **in spec order** (never completion order) and
//!    written as one JSONL file per spec, so output is byte-identical
//!    regardless of `--jobs`.
//!
//! Each distinct config is simulated once per runner (`dirtree-bench`
//! builds one per process); nothing is kept between runs. Panicking
//! simulations are caught per-config: the failure is recorded in the
//! outcome of every spec that names the config, the rest of the sweep
//! continues. An output file that cannot be written is recorded as a
//! failure too, so the run still exits non-zero.

use crate::sweep::{workload_key, RunRecord, SweepConfig, SweepSpec};
use dirtree_machine::{Machine, MsgTrace};
use dirtree_workloads::trace::{record_ops, OpTrace, ReplayDriver};
use std::any::Any;
use std::collections::HashMap;
use std::fs;
use std::hash::Hash;
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
    pub failures: Vec<RunFailure>,
}

/// A map whose values are each computed once. The first caller for a key
/// runs `init`; concurrent callers for the same key wait for it; later
/// callers get a clone of the stored value. The map lock is held only to
/// find a key's slot, so distinct keys compute concurrently.
struct OnceMap<K, V>(Mutex<HashMap<K, Arc<OnceLock<V>>>>);

impl<K: Eq + Hash, V: Clone> OnceMap<K, V> {
    fn get_or_init(&self, key: K, init: impl FnOnce() -> V) -> V {
        let slot = Arc::clone(self.0.lock().unwrap().entry(key).or_default());
        slot.get_or_init(init).clone()
    }

    fn len(&self) -> usize {
        self.0.lock().unwrap().len()
    }
}

/// Parallel sweep executor. Cheap to share by reference; all methods
/// take `&self`.
pub struct Runner {
    opts: SweepOptions,
    /// Every config's outcome by key: its record or its panic message.
    records: OnceMap<String, Result<RunRecord, String>>,
    /// One recorded operation stream per `(workload, nodes)` pair.
    traces: OnceMap<(String, u32), Arc<OpTrace>>,
    all_failures: Mutex<Vec<RunFailure>>,
}

impl Runner {
    pub fn new(opts: SweepOptions) -> Self {
        Self {
            opts,
            records: OnceMap(Mutex::default()),
            traces: OnceMap(Mutex::default()),
            all_failures: Mutex::new(Vec::new()),
        }
    }

    pub fn options(&self) -> &SweepOptions {
        &self.opts
    }

    /// Simulations run so far: the number of distinct configs resolved.
    pub fn totals(&self) -> usize {
        self.records.len()
    }

    /// Every failure across every spec run so far, output writes included.
    pub fn failures(&self) -> Vec<RunFailure> {
        self.all_failures.lock().unwrap().clone()
    }

    /// Write `text` to `path` atomically (creating its directory). A write
    /// that fails is recorded as a [`RunFailure`] naming the path and the
    /// I/O error; returns whether the file was written.
    pub fn write_output(&self, path: &Path, text: &str) -> bool {
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

    /// Resolve every config of `spec` in parallel and write
    /// `<out_dir>/<spec.name>.jsonl`. Records come back in spec order.
    pub fn run(&self, spec: &SweepSpec) -> SweepOutcome {
        // Workers claim indices from `next` and fill the memo; the
        // assembly below reads it back in spec order, no matter which
        // worker finished when.
        let jobs = self.opts.jobs.clamp(1, spec.configs.len().max(1));
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..jobs {
                scope.spawn(|| {
                    while let Some(config) = spec.configs.get(next.fetch_add(1, Ordering::Relaxed))
                    {
                        let _ = self.resolve(config);
                    }
                });
            }
        });

        let mut outcome = SweepOutcome::default();
        for config in &spec.configs {
            match self.resolve(config) {
                Ok(record) => outcome.records.push(record),
                Err(message) => outcome.failures.push(RunFailure {
                    key: config.key(),
                    message,
                }),
            }
        }
        self.all_failures
            .lock()
            .unwrap()
            .extend(outcome.failures.iter().cloned());

        self.write_jsonl(spec, &outcome.records);
        outcome
    }

    /// The outcome of `config`, simulated only if no earlier call has.
    fn resolve(&self, config: &SweepConfig) -> Result<RunRecord, String> {
        self.records
            .get_or_init(config.key(), || self.run_config(config))
    }

    /// Simulate one config, catching panics into an `Err` message. With
    /// `--trace`, the machine records every send and the timeline is
    /// written to `<out_dir>/trace/<config_hash:016x>.trace.json`.
    fn run_config(&self, config: &SweepConfig) -> Result<RunRecord, String> {
        catch_unwind(AssertUnwindSafe(|| {
            let mut machine = Machine::new(config.machine, config.protocol);
            if self.opts.trace {
                machine.set_trace(MsgTrace::new(TRACE_CAPACITY));
            }
            let mut driver = ReplayDriver::new(self.op_trace(config));
            let outcome = machine.run(&mut driver);
            if let Some(trace) = machine.take_trace() {
                let name = format!("{:016x}.trace.json", config.config_hash());
                let path = self.opts.out_dir.join("trace").join(name);
                self.write_output(&path, &trace.chrome_trace_json());
            }
            RunRecord::from_outcome(config, &outcome)
        }))
        .map_err(panic_message)
    }

    /// The operation stream `config` replays, recorded once per
    /// `(workload, nodes)` pair and shared by every protocol config and
    /// every spec of this runner. Recording polls the application programs
    /// on the calling thread, one poll per barrier arrival or contended
    /// lock (not per operation); see `dirtree_workloads::trace` for why
    /// the streams are config-independent. Distinct workloads record
    /// concurrently under `--jobs`; the stream is a pure function of its
    /// key either way, so records stay byte-identical at any jobs level.
    fn op_trace(&self, config: &SweepConfig) -> Arc<OpTrace> {
        let workload = config.effective_workload();
        let nodes = config.machine.nodes;
        self.traces
            .get_or_init((workload_key(&workload), nodes), || {
                Arc::new(record_ops(&mut workload.build(nodes)))
            })
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

/// The message of a caught panic.
pub fn panic_message(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
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
        let runner = Runner::new(SweepOptions {
            jobs: 2,
            out_dir: dir.clone(),
            trace: true,
        });
        assert!(runner.run(&spec).failures.is_empty());
        // A second spec naming the same configs simulates none of them:
        // one timeline per distinct config, named by its hash.
        runner.run(&tiny_spec("traced-again"));
        assert_eq!(runner.totals(), spec.configs.len());
        let trace_dir = dir.join("trace");
        let mut files: Vec<_> = fs::read_dir(&trace_dir)
            .expect("trace dir exists")
            .map(|e| e.unwrap().path())
            .collect();
        files.sort();
        let mut expected: Vec<_> = spec
            .configs
            .iter()
            .map(|c| trace_dir.join(format!("{:016x}.trace.json", c.config_hash())))
            .collect();
        expected.sort();
        assert_eq!(files, expected);
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
        assert_eq!(runner.totals(), spec.configs.len());
        // A second spec naming the failed config on the same runner does
        // not simulate it again, but still reports it, so the experiment
        // that ran that spec fails too.
        let repeat = SweepSpec {
            name: "repeat-failure".into(),
            configs: spec.configs[..2].to_vec(),
        };
        let second = runner.run(&repeat);
        assert_eq!(runner.totals(), spec.configs.len());
        assert_eq!(second.records.len(), 1);
        assert_eq!(second.failures.len(), 1);
        assert_eq!(second.failures[0].key, out.failures[0].key);
        assert_eq!(second.failures[0].message, out.failures[0].message);
        assert_eq!(runner.failures().len(), 2);
        // Nothing is kept between runs: a new runner simulates every
        // config again, the failed one included.
        let fresh = runner_in(&dir, 2);
        let again = fresh.run(&spec);
        assert_eq!(fresh.totals(), spec.configs.len());
        assert_eq!(again.failures.len(), 1);
        assert_eq!(again.records.len(), out.records.len());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_config_named_by_two_specs_is_simulated_once() {
        let overlapping = |runner: &Runner| {
            let a = tiny_spec("overlap-a");
            let b = SweepSpec::grid(
                "overlap-b",
                a.configs[0].workload,
                &[4, 8],
                &[
                    ProtocolKind::FullMap,
                    ProtocolKind::DirTree {
                        pointers: 4,
                        arity: 2,
                    },
                ],
                MachineConfig::test_default,
            );
            assert!(runner.run(&a).failures.is_empty());
            assert!(runner.run(&b).failures.is_empty());
            // a: P=2 and P=4; b: P=4 and P=8; each on two protocols.
            assert_eq!(runner.totals(), 6, "P=4's two configs ran twice");
        };
        let d1 = scratch_dir("overlap-serial");
        let d8 = scratch_dir("overlap-parallel");
        overlapping(&runner_in(&d1, 1));
        overlapping(&runner_in(&d8, 8));
        let read = |d: &Path, name: &str| fs::read_to_string(d.join(name)).unwrap();
        let (a, b) = (read(&d1, "overlap-a.jsonl"), read(&d1, "overlap-b.jsonl"));
        // The P=4 lines: the last two of a, the first two of b.
        let a_lines: Vec<&str> = a.lines().collect();
        let b_lines: Vec<&str> = b.lines().collect();
        assert_eq!(a_lines.len(), 4);
        assert_eq!(a_lines[2..], b_lines[..2]);
        assert!(a_lines[2].contains("|nodes=4|"));
        for name in ["overlap-a.jsonl", "overlap-b.jsonl"] {
            assert_eq!(read(&d1, name), read(&d8, name), "{name} depends on --jobs");
        }
        let _ = fs::remove_dir_all(&d1);
        let _ = fs::remove_dir_all(&d8);
    }
}
