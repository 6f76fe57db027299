//! Parallel, cached, deterministic execution of [`SweepSpec`]s.
//!
//! A [`Runner`] owns a worker pool policy (`--jobs`), a result cache under
//! `target/sweep/cache/`, and an output directory for JSON-lines records.
//! Executing a spec:
//!
//! 1. Each config is looked up in the cache by
//!    `(config_hash, code_hash)` — `code_hash` fingerprints the running
//!    executable, so results are invalidated whenever the simulator code
//!    changes.
//! 2. Cache misses are simulated in-process on a `std::thread::scope`
//!    pool; workers pull config indices from a shared atomic counter.
//! 3. Records are assembled **in spec order** (never completion order) and
//!    written as one JSONL file per spec, so output is byte-identical
//!    regardless of `--jobs`.
//!
//! Panicking simulations are caught per-config: the failure is recorded in
//! the outcome (and never cached), the rest of the sweep continues.

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
    /// Ignore (but still refresh) the result cache.
    pub no_cache: bool,
    /// Root for results: JSONL under `<out_dir>/`, cache under
    /// `<out_dir>/cache/`.
    pub out_dir: PathBuf,
    /// Dump a Chrome-trace (`trace_events`) JSON per config under
    /// `<out_dir>/trace/`. Forces every config to simulate (a cached
    /// record carries no event timeline to dump).
    pub trace: bool,
}

impl Default for SweepOptions {
    fn default() -> Self {
        Self {
            jobs: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            no_cache: false,
            out_dir: PathBuf::from("target/sweep"),
            trace: false,
        }
    }
}

/// One config's failure: the canonical key plus the panic message.
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
    /// Configs actually simulated this call.
    pub executed: usize,
    /// Configs served from the result cache.
    pub cached: usize,
    pub failures: Vec<RunFailure>,
}

/// Parallel cached sweep executor. Cheap to share by reference; all
/// methods take `&self`.
pub struct Runner {
    opts: SweepOptions,
    code_hash: u64,
    /// Lifetime counters across all specs this runner has executed, for
    /// the end-of-run summary line of `dirtree-bench`.
    total_executed: AtomicUsize,
    total_cached: AtomicUsize,
    all_failures: Mutex<Vec<RunFailure>>,
}

impl Runner {
    pub fn new(opts: SweepOptions) -> Self {
        Self {
            opts,
            code_hash: code_hash(),
            total_executed: AtomicUsize::new(0),
            total_cached: AtomicUsize::new(0),
            all_failures: Mutex::new(Vec::new()),
        }
    }

    pub fn options(&self) -> &SweepOptions {
        &self.opts
    }

    /// Total (executed, cached) across every spec run so far.
    pub fn totals(&self) -> (usize, usize) {
        (
            self.total_executed.load(Ordering::Relaxed),
            self.total_cached.load(Ordering::Relaxed),
        )
    }

    /// Every failure across every spec run so far.
    pub fn failures(&self) -> Vec<RunFailure> {
        self.all_failures.lock().unwrap().clone()
    }

    /// Run every config of `spec` (cache-aware, parallel) and write
    /// `<out_dir>/<spec.name>.jsonl`. Records come back in spec order.
    pub fn run(&self, spec: &SweepSpec) -> SweepOutcome {
        let n = spec.configs.len();
        // Resolve cache hits up front, single-threaded and in order.
        let mut slots: Vec<Option<Result<RunRecord, String>>> = Vec::with_capacity(n);
        let mut todo: Vec<usize> = Vec::new();
        for (i, config) in spec.configs.iter().enumerate() {
            let hit = if self.opts.trace {
                None // tracing re-simulates: cached records have no timeline
            } else {
                self.cache_lookup(config)
            };
            match hit {
                Some(record) => slots.push(Some(Ok(record))),
                None => {
                    slots.push(None);
                    todo.push(i);
                }
            }
        }
        let cached = n - todo.len();

        // Simulate the misses on a scoped worker pool. Workers claim
        // indices from `next`; each result lands in its own slot, so the
        // final assembly below is in spec order no matter which worker
        // finished when.
        type ConfigResult = Result<(RunRecord, Option<String>), String>;
        let results: Vec<Mutex<Option<ConfigResult>>> =
            todo.iter().map(|_| Mutex::new(None)).collect();
        let jobs = self.opts.jobs.clamp(1, todo.len().max(1));
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..jobs {
                scope.spawn(|| loop {
                    let t = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&i) = todo.get(t) else { break };
                    let outcome = run_config(&spec.configs[i], self.opts.trace);
                    *results[t].lock().unwrap() = Some(outcome);
                });
            }
        });
        for (t, &i) in todo.iter().enumerate() {
            let outcome = results[t]
                .lock()
                .unwrap()
                .take()
                .expect("worker pool exited without producing a result");
            if let Ok((record, trace)) = &outcome {
                self.cache_store(&spec.configs[i], record);
                if let Some(trace_json) = trace {
                    self.write_trace(spec, i, &spec.configs[i], trace_json);
                }
            }
            slots[i] = Some(outcome.map(|(record, _)| record));
        }

        let mut outcome = SweepOutcome {
            executed: todo.len(),
            cached,
            ..SweepOutcome::default()
        };
        for (i, slot) in slots.into_iter().enumerate() {
            match slot.expect("every slot is filled above") {
                Ok(record) => outcome.records.push(record),
                Err(message) => outcome.failures.push(RunFailure {
                    key: spec.configs[i].key(),
                    message,
                }),
            }
        }
        self.total_executed
            .fetch_add(outcome.executed, Ordering::Relaxed);
        self.total_cached
            .fetch_add(outcome.cached, Ordering::Relaxed);
        self.all_failures
            .lock()
            .unwrap()
            .extend(outcome.failures.iter().cloned());

        self.write_jsonl(spec, &outcome.records);
        outcome
    }

    fn cache_dir(&self) -> PathBuf {
        self.opts.out_dir.join("cache")
    }

    fn cache_path(&self, config: &SweepConfig) -> PathBuf {
        self.cache_dir().join(format!(
            "{:016x}-{:016x}.json",
            config.config_hash(),
            self.code_hash
        ))
    }

    fn cache_lookup(&self, config: &SweepConfig) -> Option<RunRecord> {
        if self.opts.no_cache {
            return None;
        }
        let text = fs::read_to_string(self.cache_path(config)).ok()?;
        let record = RunRecord::from_json(text.trim_end()).ok()?;
        // Guard against config-hash collisions: the stored key must match.
        (record.key == config.key()).then_some(record)
    }

    fn cache_store(&self, config: &SweepConfig, record: &RunRecord) {
        // Best-effort: a cache write failure only costs a re-simulation.
        let _ = write_atomic(&self.cache_path(config), &record.to_json());
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
        if let Err(e) = write_atomic(&path, json) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
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
        if let Err(e) = write_atomic(&path, &body) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
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
            machine.set_trace(MsgTrace::new(TRACE_CAPACITY, None));
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
/// spec the process runs. Recording spawns the application threads and
/// costs one thread hand-off per barrier arrival or contended lock (not
/// per operation); it is paid once, and all simulations replay the result
/// with zero context switches — see `dirtree_workloads::trace` for why
/// the streams are config-independent.
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
    let dir = path.parent().expect("cache paths always have a parent");
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

/// Fingerprint of the running executable (FxHash over its bytes), so cache
/// entries are keyed to the exact simulator build that produced them.
fn code_hash() -> u64 {
    static HASH: OnceLock<u64> = OnceLock::new();
    *HASH.get_or_init(|| {
        use std::hash::Hasher;
        let mut h = dirtree_sim::hash::FxHasher::default();
        match std::env::current_exe().and_then(fs::read) {
            Ok(bytes) => h.write(&bytes),
            // No executable to fingerprint (odd platform): fall back to a
            // constant, losing only cache invalidation on rebuild.
            Err(_) => h.write(b"dirtree-code-hash-unavailable"),
        }
        h.finish()
    })
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
    fn warm_cache_executes_zero_simulations() {
        let dir = scratch_dir("cache");
        let spec = tiny_spec("warm");
        let cold = runner_in(&dir, 4).run(&spec);
        assert_eq!(cold.executed, spec.configs.len());
        assert_eq!(cold.cached, 0);
        // Fresh runner, same out_dir and same code hash: all hits.
        let warm = runner_in(&dir, 4).run(&spec);
        assert_eq!(warm.executed, 0, "warm rerun must simulate nothing");
        assert_eq!(warm.cached, spec.configs.len());
        // The records and JSONL are identical either way.
        assert_eq!(
            cold.records
                .iter()
                .map(RunRecord::to_json)
                .collect::<Vec<_>>(),
            warm.records
                .iter()
                .map(RunRecord::to_json)
                .collect::<Vec<_>>(),
        );
        // no_cache bypasses lookups again.
        let mut opts = SweepOptions {
            jobs: 4,
            no_cache: true,
            out_dir: dir.clone(),
            ..SweepOptions::default()
        };
        let bypass = Runner::new(opts.clone()).run(&spec);
        assert_eq!(bypass.executed, spec.configs.len());
        opts.no_cache = false;
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_cache_entries_are_misses_that_get_overwritten() {
        let dir = scratch_dir("corrupt");
        let spec = tiny_spec("corrupt");
        let runner = runner_in(&dir, 2);
        let cold = runner.run(&spec);
        let paths: Vec<PathBuf> = spec.configs.iter().map(|c| runner.cache_path(c)).collect();
        let valid = fs::read_to_string(&paths[1]).unwrap();
        // Empty file; record truncated mid-histogram; a valid record whose
        // `key` is another config's; deep-nesting garbage.
        fs::write(&paths[0], "").unwrap();
        let cut = valid.find("\"buckets\":[[").expect("a non-empty histogram") + 12;
        fs::write(&paths[1], &valid[..cut]).unwrap();
        fs::copy(&paths[3], &paths[2]).unwrap();
        fs::write(&paths[3], "[".repeat(1 << 20)).unwrap();

        let again = runner_in(&dir, 2).run(&spec);
        assert_eq!(again.executed, spec.configs.len(), "every entry is a miss");
        assert_eq!(again.cached, 0);
        assert!(again.failures.is_empty());
        for ((config, path), before) in spec.configs.iter().zip(&paths).zip(&cold.records) {
            let text = fs::read_to_string(path).unwrap();
            let stored = RunRecord::from_json(text.trim_end()).expect("entry was overwritten");
            assert_eq!(stored.key, config.key());
            assert_eq!(stored.to_json(), before.to_json());
        }
        let healed = runner_in(&dir, 2).run(&spec);
        assert_eq!(healed.cached, spec.configs.len());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_option_dumps_deterministic_chrome_traces_and_skips_cache_hits() {
        let dir = scratch_dir("trace");
        let spec = tiny_spec("traced");
        // Warm the cache first, then run with tracing: every config must
        // re-simulate (cached records have no timeline).
        runner_in(&dir, 2).run(&spec);
        let traced = Runner::new(SweepOptions {
            jobs: 2,
            out_dir: dir.clone(),
            trace: true,
            ..SweepOptions::default()
        })
        .run(&spec);
        assert_eq!(traced.executed, spec.configs.len());
        assert_eq!(traced.cached, 0);
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
            ..SweepOptions::default()
        })
        .run(&spec);
        assert_eq!(fs::read_to_string(&files[0]).unwrap(), first);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn failures_are_reported_not_cached_and_do_not_abort_the_sweep() {
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
        // The failed config is never cached: rerunning executes it again.
        let again = runner_in(&dir, 2).run(&spec);
        assert_eq!(again.executed, 1);
        assert_eq!(again.failures.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }
}
