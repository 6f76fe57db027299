//! The repo's benchmark: one workload per process, one thread.
//!
//! `dirtree-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs the named workload and prints, as the last line of standard output,
//! one JSON object `{correct, attempted, failed, metrics}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. The
//! same numbers with per-config detail go to `out/result-<workload>-t<0|1>.json`
//! (`...-traceoff.json` from the build without the `trace` feature)
//! and the traced pass's spans to `out/trace-<workload>.json`.
//!
//! `run.py` builds this binary, pins it to one CPU and drives it; see
//! `README.md` for what each workload and metric is for.

mod checkrun;
mod digest;
mod json;
mod layers;
mod simrun;
mod spans;
mod stats;
mod table;
mod wrap;

use json::Value;
use spans::Clock;
use stats::median;
use std::collections::BTreeMap;
use std::path::PathBuf;
use table::Body;

/// How often set-up is repeated in an end-to-end run; `setup_s` is the
/// median, so one slow recording does not decide it.
const SETUP_REPEATS: usize = 3;
/// The checker's set-up takes tens of milliseconds and its first rounds run
/// on a cold heap, so it is repeated until the median is a warm one.
const CHECK_SETUP_REPEATS: usize = 11;

/// End-to-end metrics, printed by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("host_s", "s"),
    ("ops_per_s_gmean", "ops/s"),
];

/// Per-layer metrics, printed by every workload with `--trace 1`; a metric
/// whose layer the workload never enters reads 0. The per-protocol handler
/// metrics (`core.proto_self_ns_per_call.<Protocol>`) follow these.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("peak_rss_mb", "MB"),
    ("norm_time_dir4tree2", "ratio"),
    ("norm_time_adaptive", "ratio"),
    ("explored_per_s", "1/s"),
    ("workloads.record_us_per_op", "us/op"),
    ("workloads.replay_ns_per_op", "ns/op"),
    ("workloads.ops", "count"),
    ("core.proto_self_ns_per_call", "ns/call"),
    ("core.proto_calls_per_op", "calls/op"),
    ("core.cache_ns_per_access", "ns/access"),
    ("core.read_hit_frac", "frac"),
    ("core.evictions_per_kop", "1/kop"),
    ("core.inv_per_write_miss", "ratio"),
    ("machine.ns_per_event", "ns/event"),
    ("machine.ctx_ns_per_call", "ns/call"),
    ("machine.ctx_self_ns_per_call", "ns/call"),
    ("machine.ctx_calls_per_op", "calls/op"),
    ("machine.loop_ns_per_event", "ns/event"),
    ("machine.build_ms", "ms"),
    ("machine.read_miss_cycles_mean", "cycles"),
    ("machine.write_miss_cycles_mean", "cycles"),
    ("machine.max_ctrl_util", "frac"),
    ("net.send_ns_per_msg", "ns/msg"),
    ("net.share_est", "frac"),
    ("net.msgs_per_op", "msgs/op"),
    ("net.mean_hops", "hops"),
    ("net.contention_frac", "frac"),
    ("sim.queue_hold_ns", "ns"),
    ("sim.queue_share_est", "frac"),
    ("sim.events_per_op", "events/op"),
    ("sim.peak_queue_depth", "count"),
    ("sim.metrics_overhead_frac", "frac"),
    ("check.apply_ns", "ns"),
    ("check.clone_ns", "ns"),
    ("check.enabled_ns", "ns"),
    ("check.post_check_ns", "ns"),
    ("check.digest_ns", "ns"),
    ("check.canon_ns_per_perm", "ns"),
    ("check.explored", "count"),
    ("check.states", "count"),
    ("check.dedup_frac", "frac"),
    ("check.sleep_pruned_frac", "frac"),
    ("trace.overhead_frac", "frac"),
    ("trace.clock_pair_ns", "ns"),
    ("trace.wall_s", "s"),
    ("trace.driver_frac", "frac"),
    ("trace.proto_self_frac", "frac"),
    ("trace.ctx_frac", "frac"),
    ("trace.loop_frac", "frac"),
    ("trace.clock_frac", "frac"),
];

/// Named values of one run.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// The contract's `metrics` object over `names`, in table order.
    fn to_json(&self, names: &[(String, String)]) -> Value {
        let mut obj = Value::obj();
        for (name, unit) in names {
            obj.set(
                name,
                Value::obj()
                    .with("value", self.get(name))
                    .with("unit", unit.as_str()),
            );
        }
        obj
    }
}

/// Operations attempted and failed. One operation is one config run, one
/// exploration or one random walk; a failed check is never a warning.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    /// Count one operation; it failed if `problems` is not empty.
    pub fn judge(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.failures.extend(problems);
        }
    }

    pub fn failed(&self) -> u64 {
        self.failed
    }
}

fn per_layer_names() -> Vec<(String, String)> {
    let mut names: Vec<(String, String)> = PER_LAYER
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect();
    for protocol in table::protocol_names() {
        names.push((
            format!("core.proto_self_ns_per_call.{protocol}"),
            "ns/call".to_string(),
        ));
    }
    names
}

fn end_to_end_names() -> Vec<(String, String)> {
    END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// With `--trace 1`: stop after the plain pass. `run.py` uses it on the
    /// build without the `trace` feature, which is run for its `host_s` only.
    plain_only: bool,
}

fn usage(problem: &str) -> ! {
    eprintln!(
        "{problem}\nusage: dirtree-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        table::NAMES.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: digest::EXPECTED_SEED,
        seconds: 10.0,
        trace: false,
        plain_only: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        let bad = || -> ! { usage(&format!("bad value '{value}' for {flag}")) };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| bad()),
            "--seconds" => {
                args.seconds = value.parse().unwrap_or_else(|_| bad());
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    bad();
                }
            }
            "--trace" | "--plain-only" => {
                let on = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad(),
                };
                if flag == "--trace" {
                    args.trace = on;
                } else {
                    args.plain_only = on;
                }
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        usage("--workload is required");
    }
    args
}

/// A `key: value` line of a `/proc` status file.
fn proc_field(path: &str, key: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()?
        .lines()
        .find_map(|line| {
            let (k, v) = line.split_once(':')?;
            (k.trim() == key).then(|| v.trim().to_string())
        })
}

/// High-water mark of this process's resident set, in MB.
fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM")
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn host_block(args: &Args, reps: u32, clock: &Clock) -> Value {
    let cpus_allowed = proc_field("/proc/self/status", "Cpus_allowed_list").unwrap_or_default();
    Value::obj()
        .with(
            "cpu_model",
            proc_field("/proc/cpuinfo", "model name").unwrap_or_default(),
        )
        .with("pinned", !cpus_allowed.contains(['-', ',']))
        .with("cpus_allowed", cpus_allowed)
        .with("trace_feature", cfg!(feature = "trace"))
        .with("seed", args.seed)
        .with("seconds", args.seconds)
        .with("repetitions", reps)
        .with("trace.clock_pair_ns", clock.pair_ns)
        .with("trace.clock_empty_ns", clock.empty_ns)
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn write_out(file: &str, doc: &Value) {
    let dir = out_dir();
    let path = dir.join(file);
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, doc.pretty()))
    {
        eprintln!("error: could not write {}: {e}", path.display());
        std::process::exit(1);
    }
}

/// One workload's run: what both kinds of workload share.
struct Run<'a> {
    name: &'static str,
    args: &'a Args,
    /// Repetitions of the plain pass: from `--seconds` for an end-to-end
    /// run, one for a traced run (which needs it only as a reference).
    reps: u32,
    clock: Clock,
    m: Metrics,
    tally: Tally,
    detail: Value,
}

impl Run<'_> {
    fn setup_repeats(&self, end_to_end: usize) -> usize {
        if self.args.trace {
            1
        } else {
            end_to_end
        }
    }

    fn set_setup(&mut self, samples: &[f64]) {
        self.m.set("setup_s", median(samples));
        self.detail.set("setup_samples_s", samples);
    }

    fn traced_pass_wanted(&self) -> bool {
        self.args.trace && !self.args.plain_only
    }

    fn write_trace_file(&self, rows: Vec<Value>) {
        write_out(
            &format!("trace-{}.json", self.name),
            &Value::obj()
                .with("workload", self.name)
                .with("seed", self.args.seed)
                .with("clock_pair_ns", self.clock.pair_ns)
                .with("clock_empty_ns", self.clock.empty_ns)
                .with("configs", rows),
        );
    }

    fn sim(&mut self, w: &table::SimWorkload) {
        // Set-up several times (dropping each before the next, so peak
        // memory holds one copy); the last one feeds the timed pass.
        let mut setup_samples = Vec::new();
        let mut setup = None;
        for _ in 0..self.setup_repeats(SETUP_REPEATS) {
            drop(setup.take());
            let s = simrun::setup(w);
            setup_samples.push(s.seconds);
            setup = Some(s);
        }
        let setup = setup.expect("at least one set-up");
        self.set_setup(&setup_samples);

        let plain = simrun::plain_pass(
            w,
            self.name,
            self.args.seed,
            &setup,
            self.reps,
            &mut self.tally,
        );
        self.m.set("peak_rss_mb", peak_rss_mb());
        simrun::end_to_end(w, &setup, &plain, &mut self.m);
        simrun::exact_layers(w, &setup, &plain, &mut self.m);
        self.detail
            .set("configs", simrun::config_rows(w, &setup, &plain));

        if self.traced_pass_wanted() {
            let traced = simrun::traced_pass(w, &setup, &plain, self.args.seed, &mut self.tally);
            simrun::traced_layers(w, &setup, &plain, &traced, &self.clock, &mut self.m);
            self.write_trace_file(simrun::trace_rows(w, &traced, &self.clock));
        }
    }

    fn check(&mut self, shapes: &[table::CheckShape]) {
        let setup_samples: Vec<f64> = (0..self.setup_repeats(CHECK_SETUP_REPEATS))
            .map(|_| checkrun::setup(shapes))
            .collect();
        self.set_setup(&setup_samples);

        let runs = checkrun::plain_pass(
            shapes,
            self.name,
            self.args.seed,
            self.reps,
            &mut self.tally,
        );
        self.m.set("peak_rss_mb", peak_rss_mb());
        checkrun::end_to_end(&runs, &mut self.m);
        checkrun::exact_layers(&runs, &mut self.m);
        self.detail
            .set("configs", checkrun::shape_rows(shapes, &runs));

        if self.traced_pass_wanted() {
            let mut total = checkrun::Walk::default();
            let mut rows = Vec::new();
            for shape in shapes {
                let walk = checkrun::walk(shape, self.args.seed, &mut self.tally);
                rows.push(
                    Value::obj()
                        .with("label", shape.label.as_str())
                        .with("steps", shape.walk_steps)
                        .with("perms_tried", walk.perms)
                        .with("edges", walk.edges(&self.clock)),
                );
                total.merge(&walk);
            }
            checkrun::traced_layers(&total, &self.clock, &mut self.m);
            self.write_trace_file(rows);
        }
    }
}

fn main() {
    let args = parse_args();
    let Some(workload) = table::workload(&args.workload, args.seed) else {
        usage(&format!("unknown workload '{}'", args.workload));
    };
    let clock = Clock::calibrate();
    let reps = if args.trace {
        1
    } else {
        workload.repetitions(args.seconds)
    };
    let mut run = Run {
        name: workload.name,
        args: &args,
        reps,
        clock,
        m: Metrics::default(),
        tally: Tally::default(),
        detail: Value::obj()
            .with("workload", workload.name)
            .with("host", host_block(&args, reps, &clock)),
    };
    match &workload.body {
        Body::Sim(w) => run.sim(w),
        Body::Check(shapes) => run.check(shapes),
    }
    let Run {
        m,
        tally,
        mut detail,
        ..
    } = run;

    let names = if args.trace {
        per_layer_names()
    } else {
        end_to_end_names()
    };
    let result = Value::obj()
        .with("correct", tally.failed() == 0)
        .with("attempted", tally.attempted)
        .with("failed", tally.failed())
        .with("metrics", m.to_json(&names));

    for failure in &tally.failures {
        eprintln!("FAILED: {failure}");
    }
    detail.set(
        "failures",
        tally
            .failures
            .iter()
            .map(|f| Value::from(f.as_str()))
            .collect::<Vec<_>>(),
    );
    // Both tables in the detail file, whichever pass this was: the
    // end-to-end numbers of a traced run are there for reference only.
    detail.set("end_to_end", m.to_json(&end_to_end_names()));
    detail.set("per_layer", m.to_json(&per_layer_names()));
    detail.set("result", result.clone());
    write_out(
        &format!(
            "result-{}-t{}{}.json",
            workload.name,
            args.trace as u8,
            if cfg!(feature = "trace") {
                ""
            } else {
                "-traceoff"
            }
        ),
        &detail,
    );
    println!("{}", result.render());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is what the driver reads; this table is what the
    /// binary prints. They must name the same metrics with the same units.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            let Some(Value::Arr(items)) = doc.get(key) else {
                panic!("{key} missing");
            };
            items
                .iter()
                .map(|m| {
                    let field = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        assert_eq!(listed("end_to_end"), end_to_end_names());
        assert_eq!(listed("per_layer"), per_layer_names());
        let Some(Value::Arr(workloads)) = doc.get("workloads") else {
            panic!("workloads missing");
        };
        let names: Vec<&str> = workloads
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(names, table::NAMES);
    }

    /// The four `floyd_p64` rows of `expected.json` are the `scale_up` P=64
    /// slice: cycles and events must match the repo's own golden file.
    #[test]
    fn expected_floyd_p64_matches_the_scale_up_golden() {
        let golden = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../tests/golden/scale_up_p64.jsonl"
        );
        let golden = std::fs::read_to_string(golden).unwrap();
        let expected = json::parse(include_str!("../expected.json")).unwrap();
        let rows = expected
            .get("floyd_p64")
            .expect("floyd_p64 in expected.json");
        let mut matched = 0;
        for line in golden.lines() {
            let row = json::parse(line).unwrap();
            let protocol = row.get("protocol").and_then(Value::as_str).unwrap();
            let want = rows
                .get(protocol)
                .unwrap_or_else(|| panic!("{protocol} missing"));
            for key in ["cycles", "events"] {
                assert_eq!(want.get(key), row.get(key), "{protocol} {key}");
            }
            matched += 1;
        }
        assert_eq!(matched, 4);
    }

    #[test]
    fn tally_counts_operations_not_problems() {
        let mut t = Tally::default();
        t.judge(vec![]);
        t.judge(vec!["a".into(), "b".into()]);
        assert_eq!((t.attempted, t.failed()), (2, 1));
        assert_eq!(t.failures.len(), 2);
    }
}
