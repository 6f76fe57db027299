//! The four simulator workloads: set-up, the plain (timed) pass, the traced
//! pass, and the metrics computed from them.
//!
//! Each config is the body of `dirtree-bench`'s `runner::run_config` on
//! public API: `Machine::new` -> `ReplayDriver::new` -> `try_run`. Only
//! `try_run` is inside the timed section.

use crate::digest::{SimDigest, EXPECTED_SEED};
use crate::json::Value;
use crate::layers::{cache_replay, net_replay, queue_hold, QUEUE_HOLDS};
use crate::spans::{Agg, Clock};
use crate::stats::{gmean, median, ratio};
use crate::table::{SimConfig, SimWorkload};
use crate::wrap::{ProtoTrace, Sink, TracedDriver, TracedProtocol, CORE_SPANS, CTX_SPANS};
use crate::{Metrics, Tally};
use dirtree_core::protocol::{build_protocol, ProtocolKind};
use dirtree_machine::{DriverOp, Machine, RunOutcome};
use dirtree_workloads::{record_ops, OpTrace, ReplayDriver};
use std::sync::Arc;
use std::time::Instant;

/// One recorded application trace.
pub struct Recorded {
    pub trace: Arc<OpTrace>,
    /// Every driver op (reads, writes, work, sync): the unit of `ops/s`.
    pub ops: u64,
    /// Reads plus writes: what the machine must retire.
    pub mem_ops: u64,
    pub record_s: f64,
}

/// Everything done before the timed section.
pub struct Setup {
    pub traces: Vec<Recorded>,
    pub seconds: f64,
    /// `Machine::new` per config, milliseconds.
    pub build_ms: Vec<f64>,
}

/// Record every trace of the workload and build every config's machine once.
pub fn setup(w: &SimWorkload) -> Setup {
    let start = Instant::now();
    let traces = w
        .traces
        .iter()
        .map(|spec| {
            let t = Instant::now();
            let mut app = spec.build();
            let trace = record_ops(&mut app);
            drop(app);
            let record_s = t.elapsed().as_secs_f64();
            let ops = trace.iter().map(|s| s.len() as u64).sum();
            let mem_ops = trace
                .iter()
                .flatten()
                .filter(|op| matches!(op, DriverOp::Read(_) | DriverOp::Write(_)))
                .count() as u64;
            Recorded {
                trace: Arc::new(trace),
                ops,
                mem_ops,
                record_s,
            }
        })
        .collect();
    let build_ms = w
        .configs
        .iter()
        .map(|c| {
            let t = Instant::now();
            std::hint::black_box(Machine::new(c.machine, c.protocol));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    Setup {
        traces,
        seconds: start.elapsed().as_secs_f64(),
        build_ms,
    }
}

/// One config's results from the plain pass.
pub struct ConfigRun {
    /// Seconds per run, one sample per repetition (batch total / runs).
    pub samples_s: Vec<f64>,
    /// The first run's outcome; every later run must digest the same.
    pub outcome: RunOutcome,
    pub digest: SimDigest,
}

impl ConfigRun {
    pub fn median_s(&self) -> f64 {
        median(&self.samples_s)
    }
}

/// Check one finished run; every violated condition is one failure line.
fn judge(
    out: &RunOutcome,
    digest: &SimDigest,
    reference: Option<&SimDigest>,
    mem_ops: u64,
    workload: &str,
    label: &str,
    seed: u64,
) -> Vec<String> {
    let mut problems = Vec::new();
    if out.stats.reads + out.stats.writes != mem_ops {
        problems.push(format!(
            "{label}: retired {} ops, trace has {mem_ops}",
            out.stats.reads + out.stats.writes
        ));
    }
    match reference {
        Some(first) if first != digest => {
            problems.push(format!(
                "{label}: digest differs between runs of one config"
            ));
        }
        Some(_) => {}
        None if seed == EXPECTED_SEED => problems.extend(digest.mismatch(workload, label)),
        None => {}
    }
    problems
}

/// The timed pass: `reps` repetitions over every config, no wrappers.
pub fn plain_pass(
    w: &SimWorkload,
    name: &str,
    seed: u64,
    setup: &Setup,
    reps: u32,
    tally: &mut Tally,
) -> Vec<ConfigRun> {
    let mut results: Vec<Option<ConfigRun>> = w.configs.iter().map(|_| None).collect();
    for _ in 0..reps {
        for (c, slot) in w.configs.iter().zip(results.iter_mut()) {
            let rec = &setup.traces[c.trace];
            let mut batch_s = 0.0;
            for _ in 0..c.runs {
                let mut machine = Machine::new(c.machine, c.protocol);
                let mut driver = ReplayDriver::new(rec.trace.clone());
                let start = Instant::now();
                let result = machine.try_run(&mut driver);
                batch_s += start.elapsed().as_secs_f64();
                drop(machine);
                let out = match result {
                    Ok(out) => out,
                    Err(stall) => {
                        tally.judge(vec![format!("{}: {stall}", c.label)]);
                        continue;
                    }
                };
                let digest = SimDigest::of(&out);
                let reference = slot.as_ref().map(|r| &r.digest);
                tally.judge(judge(
                    &out,
                    &digest,
                    reference,
                    rec.mem_ops,
                    name,
                    &c.label,
                    seed,
                ));
                if slot.is_none() {
                    *slot = Some(ConfigRun {
                        samples_s: Vec::new(),
                        digest,
                        outcome: out,
                    });
                }
            }
            if let Some(run) = slot {
                run.samples_s.push(batch_s / c.runs as f64);
            }
        }
    }
    results
        .into_iter()
        .zip(&w.configs)
        .map(|(r, c)| r.unwrap_or_else(|| panic!("{}: no run completed", c.label)))
        .collect()
}

/// One config's results from the traced pass.
pub struct ConfigTrace {
    pub wall_ns: f64,
    pub next_op: Agg,
    pub proto: ProtoTrace,
    /// `net` replay of this run's sends: nanoseconds per message. `None`
    /// for a credited config, whose parked sends reach the network later
    /// than the wrapper sees them; it reports its uncredited twin's figure.
    pub net_ns_per_msg: Option<f64>,
    pub queue_hold_ns: f64,
}

/// Clock-compensated split of one traced run; the parts sum to `wall_ns`.
pub struct Split {
    pub driver_ns: f64,
    pub proto_self_ns: f64,
    pub ctx_ns: f64,
    pub loop_ns: f64,
    pub clock_ns: f64,
    pub proto_calls: u64,
    pub ctx_calls: u64,
}

impl ConfigTrace {
    pub fn split(&self, clock: &Clock) -> Split {
        let driver_ns = clock.inside(&self.next_op);
        let ctx_aggs = || self.proto.ctx.iter().flatten();
        let ctx_ns: f64 = ctx_aggs().map(|a| clock.inside(a)).sum();
        let ctx_footprint: f64 = ctx_aggs().map(|a| clock.footprint(a)).sum();
        let proto_inside: f64 = self.proto.core.iter().map(|a| clock.inside(a)).sum();
        let proto_calls: u64 = self.proto.core.iter().map(|a| a.count).sum();
        let ctx_calls: u64 = ctx_aggs().map(|a| a.count).sum();
        let spans = self.next_op.count + proto_calls + ctx_calls;
        let proto_self_ns = proto_inside - ctx_footprint;
        let clock_ns = spans as f64 * clock.pair_ns;
        Split {
            driver_ns,
            proto_self_ns,
            ctx_ns,
            loop_ns: self.wall_ns - driver_ns - proto_self_ns - ctx_ns - clock_ns,
            clock_ns,
            proto_calls,
            ctx_calls,
        }
    }

    /// The span edges of this run, for the trace file.
    pub fn edges(&self, clock: &Clock) -> Vec<Value> {
        let split = self.split(clock);
        let mut run = Agg::default();
        run.record(self.wall_ns as u64);
        let mut edges = vec![
            run.to_json("run", "", split.loop_ns),
            self.next_op
                .to_json("workloads.next_op", "run", split.driver_ns),
        ];
        for (p, core) in self.proto.core.iter().enumerate() {
            if core.count == 0 {
                continue;
            }
            let children: f64 = self.proto.ctx[p].iter().map(|a| clock.footprint(a)).sum();
            edges.push(core.to_json(CORE_SPANS[p], "run", clock.inside(core) - children));
            for (k, ctx) in self.proto.ctx[p].iter().enumerate() {
                if ctx.count > 0 {
                    edges.push(ctx.to_json(CTX_SPANS[k], CORE_SPANS[p], clock.inside(ctx)));
                }
            }
        }
        edges
    }
}

/// One wrapped run of `c`. Fails the tally if the wrappers changed the
/// simulated result or the replayed network disagrees with the run's own.
fn traced_run(
    c: &SimConfig,
    rec: &Recorded,
    plain: &ConfigRun,
    seed: u64,
    tally: &mut Tally,
) -> ConfigTrace {
    let sink = Sink::default();
    let protocol = TracedProtocol::new(
        build_protocol(c.protocol, c.machine.protocol),
        &c.machine,
        sink.clone(),
    );
    let mut machine = Machine::with_protocol(c.machine, Box::new(protocol));
    let mut driver = TracedDriver::new(ReplayDriver::new(rec.trace.clone()));
    let start = Instant::now();
    let result = machine.try_run(&mut driver);
    let wall_ns = start.elapsed().as_nanos() as f64;
    // Dropping the machine drops the wrapper, which hands over its trace.
    drop(machine);
    let proto = std::mem::take(&mut *sink.lock().expect("trace sink poisoned"));

    let mut problems = Vec::new();
    let mut net_ns_per_msg = None;
    match result {
        Err(stall) => problems.push(format!("{} (traced): {stall}", c.label)),
        Ok(out) => {
            if SimDigest::of(&out) != plain.digest {
                problems.push(format!("{}: the wrappers changed the result", c.label));
            }
            if c.machine.net.vc_credits == 0 {
                let (ns, stats) = net_replay(&proto.sends, &c.machine);
                if format!("{stats:?}") != format!("{:?}", out.net) {
                    problems.push(format!("{}: replayed network stats differ", c.label));
                }
                net_ns_per_msg = Some(ratio(ns, stats.messages as f64));
            }
        }
    }
    tally.judge(problems);
    let stats = &plain.outcome.stats;
    let (queue_hold_ns, _) = queue_hold(
        stats.peak_queue_depth,
        stats.cycles,
        stats.events,
        QUEUE_HOLDS,
        seed,
    );
    ConfigTrace {
        wall_ns,
        next_op: driver.next_op,
        proto,
        net_ns_per_msg,
        queue_hold_ns,
    }
}

/// The traced pass: one wrapped run per config.
pub fn traced_pass(
    w: &SimWorkload,
    setup: &Setup,
    plain: &[ConfigRun],
    seed: u64,
    tally: &mut Tally,
) -> Vec<ConfigTrace> {
    w.configs
        .iter()
        .zip(plain)
        .map(|(c, p)| traced_run(c, &setup.traces[c.trace], p, seed, tally))
        .collect()
}

/// Simulated cycles of the first config matching `pick`.
fn cycles_of(
    w: &SimWorkload,
    plain: &[ConfigRun],
    pick: impl Fn(&SimConfig) -> bool,
) -> Option<f64> {
    w.configs
        .iter()
        .zip(plain)
        .find(|(c, _)| pick(c) && c.machine.net.vc_credits == 0)
        .map(|(_, r)| r.outcome.cycles as f64)
}

/// `norm_time_dir4tree2` (Dir4Tree2 / FullMap on the same trace) and
/// `norm_time_adaptive` (gmean over traces of adaptive / better static),
/// each 0 where the workload lacks the configs.
fn norm_times(w: &SimWorkload, plain: &[ConfigRun]) -> (f64, f64) {
    let tree = |pointers, arity| ProtocolKind::DirTree { pointers, arity };
    let on = |trace: usize, kind: ProtocolKind| {
        cycles_of(w, plain, |c| c.trace == trace && c.protocol == kind)
    };
    let dir4tree2 = match (on(0, tree(4, 2)), on(0, ProtocolKind::FullMap)) {
        (Some(t), Some(f)) => t / f,
        _ => 0.0,
    };
    let adaptive: Vec<f64> = (0..w.traces.len())
        .filter_map(|t| {
            let a = on(
                t,
                ProtocolKind::DirTreeAdaptive {
                    pointers: 4,
                    arity: 2,
                },
            )?;
            let i = on(t, tree(4, 2))?;
            let u = on(
                t,
                ProtocolKind::DirTreeUpdate {
                    pointers: 4,
                    arity: 2,
                },
            )?;
            Some(a / i.min(u))
        })
        .collect();
    let adaptive = if adaptive.is_empty() {
        0.0
    } else {
        gmean(&adaptive)
    };
    (dir4tree2, adaptive)
}

/// Driver ops one pass over every config replays.
fn ops_replayed(w: &SimWorkload, setup: &Setup) -> f64 {
    w.configs
        .iter()
        .map(|c| setup.traces[c.trace].ops as f64)
        .sum()
}

/// `host_s`: the sum over configs of the median seconds inside `try_run`.
fn host_seconds(plain: &[ConfigRun]) -> f64 {
    plain.iter().map(ConfigRun::median_s).sum()
}

/// End-to-end metrics of a sim workload (`setup_s` and `peak_rss_mb` are
/// added by the caller, which owns the process-wide readings).
pub fn end_to_end(w: &SimWorkload, setup: &Setup, plain: &[ConfigRun], m: &mut Metrics) {
    let host_s = host_seconds(plain);
    let ops_per_s: Vec<f64> = w
        .configs
        .iter()
        .zip(plain)
        .map(|(c, r)| setup.traces[c.trace].ops as f64 / r.median_s())
        .collect();
    m.set("host_s", host_s);
    m.set("ops_per_s_gmean", gmean(&ops_per_s));
}

/// Per-layer metrics that need no traced pass: counters of the plain runs.
pub fn exact_layers(w: &SimWorkload, setup: &Setup, plain: &[ConfigRun], m: &mut Metrics) {
    let sum = |f: &dyn Fn(&RunOutcome) -> f64| plain.iter().map(|r| f(&r.outcome)).sum::<f64>();
    let ops = ops_replayed(w, setup);
    let events = sum(&|o| o.stats.events as f64);
    let host_s = host_seconds(plain);
    let recorded_ops: f64 = setup.traces.iter().map(|t| t.ops as f64).sum();
    let record_s: f64 = setup.traces.iter().map(|t| t.record_s).sum();
    let (dir4tree2, adaptive) = norm_times(w, plain);

    m.set("norm_time_dir4tree2", dir4tree2);
    m.set("norm_time_adaptive", adaptive);
    m.set(
        "workloads.record_us_per_op",
        ratio(record_s * 1e6, recorded_ops),
    );
    m.set("workloads.ops", ops);
    m.set(
        "core.read_hit_frac",
        ratio(
            sum(&|o| o.stats.read_hits as f64),
            sum(&|o| o.stats.reads as f64),
        ),
    );
    m.set(
        "core.evictions_per_kop",
        ratio(
            sum(&|o| o.stats.evictions as f64) * 1e3,
            sum(&|o| o.stats.total_ops() as f64),
        ),
    );
    m.set(
        "core.inv_per_write_miss",
        ratio(
            sum(&|o| o.stats.invalidations as f64),
            sum(&|o| o.stats.write_misses as f64),
        ),
    );
    m.set("machine.ns_per_event", ratio(host_s * 1e9, events));
    m.set(
        "machine.build_ms",
        setup.build_ms.iter().sum::<f64>() / setup.build_ms.len() as f64,
    );
    m.set(
        "machine.read_miss_cycles_mean",
        ratio(
            sum(&|o| o.stats.read_miss_latency.sum() as f64),
            sum(&|o| o.stats.read_miss_latency.count() as f64),
        ),
    );
    m.set(
        "machine.write_miss_cycles_mean",
        ratio(
            sum(&|o| o.stats.write_miss_latency.sum() as f64),
            sum(&|o| o.stats.write_miss_latency.count() as f64),
        ),
    );
    m.set(
        "machine.max_ctrl_util",
        plain
            .iter()
            .map(|r| {
                ratio(
                    r.outcome.stats.max_controller_busy as f64,
                    r.outcome.cycles as f64,
                )
            })
            .fold(0.0, f64::max),
    );
    m.set(
        "net.msgs_per_op",
        ratio(sum(&|o| o.net.messages as f64), ops),
    );
    m.set(
        "net.mean_hops",
        ratio(
            sum(&|o| o.net.total_hops as f64),
            sum(&|o| o.net.messages as f64),
        ),
    );
    m.set(
        "net.contention_frac",
        ratio(
            sum(&|o| o.net.contention_cycles() as f64),
            sum(&|o| o.net.latency.sum() as f64),
        ),
    );
    m.set("sim.events_per_op", ratio(events, ops));
    m.set(
        "sim.peak_queue_depth",
        plain
            .iter()
            .map(|r| r.outcome.stats.peak_queue_depth as f64)
            .fold(0.0, f64::max),
    );
}

/// Per-layer metrics of the traced pass and the outside estimates.
pub fn traced_layers(
    w: &SimWorkload,
    setup: &Setup,
    plain: &[ConfigRun],
    traced: &[ConfigTrace],
    clock: &Clock,
    m: &mut Metrics,
) {
    let splits: Vec<Split> = traced.iter().map(|t| t.split(clock)).collect();
    let total = |f: &dyn Fn(&Split) -> f64| splits.iter().map(f).sum::<f64>();
    let ops = ops_replayed(w, setup);
    let events: f64 = plain.iter().map(|r| r.outcome.stats.events as f64).sum();
    let host_ns = host_seconds(plain) * 1e9;
    let proto_calls = total(&|s| s.proto_calls as f64);
    let ctx_calls = total(&|s| s.ctx_calls as f64);

    m.set(
        "workloads.replay_ns_per_op",
        ratio(
            total(&|s| s.driver_ns),
            traced.iter().map(|t| t.next_op.count as f64).sum(),
        ),
    );
    m.set(
        "core.proto_self_ns_per_call",
        ratio(total(&|s| s.proto_self_ns), proto_calls),
    );
    for name in crate::table::protocol_names() {
        let of_protocol = || {
            w.configs
                .iter()
                .zip(&splits)
                .filter(|(c, _)| c.protocol.name() == name)
                .map(|(_, s)| s)
        };
        m.set(
            &format!("core.proto_self_ns_per_call.{name}"),
            ratio(
                of_protocol().map(|s| s.proto_self_ns).sum(),
                of_protocol().map(|s| s.proto_calls as f64).sum(),
            ),
        );
    }
    m.set("core.proto_calls_per_op", ratio(proto_calls, ops));

    // A credited config's sends reach the network when credits allow, not
    // when the wrapper sees them; it borrows its uncredited twin's figure.
    let net_ns_of: Vec<f64> = w
        .configs
        .iter()
        .zip(traced)
        .zip(plain)
        .map(|((c, t), r)| {
            let per_msg = t.net_ns_per_msg.or_else(|| {
                w.configs
                    .iter()
                    .zip(traced)
                    .find(|(o, _)| o.trace == c.trace && o.protocol == c.protocol)
                    .and_then(|(_, twin)| twin.net_ns_per_msg)
            });
            per_msg.unwrap_or(0.0) * r.outcome.net.messages as f64
        })
        .collect();
    let net_ns: f64 = net_ns_of.iter().sum();
    let replayed = || (0..traced.len()).filter(|&i| traced[i].net_ns_per_msg.is_some());
    m.set(
        "net.send_ns_per_msg",
        ratio(
            replayed().map(|i| net_ns_of[i]).sum(),
            replayed()
                .map(|i| plain[i].outcome.net.messages as f64)
                .sum(),
        ),
    );
    m.set("net.share_est", ratio(net_ns, host_ns));

    m.set(
        "machine.ctx_ns_per_call",
        ratio(total(&|s| s.ctx_ns), ctx_calls),
    );
    m.set(
        "machine.ctx_self_ns_per_call",
        ratio(total(&|s| s.ctx_ns) - net_ns, ctx_calls),
    );
    m.set("machine.ctx_calls_per_op", ratio(ctx_calls, ops));
    m.set(
        "machine.loop_ns_per_event",
        ratio(total(&|s| s.loop_ns), events),
    );

    let hold_ns: f64 = traced
        .iter()
        .zip(plain)
        .map(|(t, r)| t.queue_hold_ns * r.outcome.stats.events as f64)
        .sum();
    m.set("sim.queue_hold_ns", ratio(hold_ns, events));
    m.set("sim.queue_share_est", ratio(hold_ns, host_ns));

    let (cache_ns, accesses) = setup
        .traces
        .iter()
        .map(|t| cache_replay(&t.trace, w.configs[0].machine.cache))
        .fold((0.0, 0u64), |(ns, n), (a, b)| (ns + a, n + b));
    m.set("core.cache_ns_per_access", ratio(cache_ns, accesses as f64));

    let traced_ns: f64 = traced.iter().map(|t| t.wall_ns).sum();
    m.set("trace.overhead_frac", ratio(traced_ns, host_ns) - 1.0);
    m.set("trace.clock_pair_ns", clock.pair_ns);
    // The traced wall and its split; the five shares add up to 1.
    m.set("trace.wall_s", traced_ns / 1e9);
    m.set(
        "trace.driver_frac",
        ratio(total(&|s| s.driver_ns), traced_ns),
    );
    m.set(
        "trace.proto_self_frac",
        ratio(total(&|s| s.proto_self_ns), traced_ns),
    );
    m.set("trace.ctx_frac", ratio(total(&|s| s.ctx_ns), traced_ns));
    m.set("trace.loop_frac", ratio(total(&|s| s.loop_ns), traced_ns));
    m.set("trace.clock_frac", ratio(total(&|s| s.clock_ns), traced_ns));
}

/// Per-config rows of the result file.
pub fn config_rows(w: &SimWorkload, setup: &Setup, plain: &[ConfigRun]) -> Vec<Value> {
    w.configs
        .iter()
        .zip(plain)
        .zip(&setup.build_ms)
        .map(|((c, r), &build_ms)| {
            let events = r.outcome.stats.events;
            Value::obj()
                .with("label", c.label.as_str())
                .with("runs_per_repetition", c.runs)
                .with("median_s", r.median_s())
                .with("samples_s", &r.samples_s)
                .with("ops", setup.traces[c.trace].ops)
                .with("ns_per_event", ratio(r.median_s() * 1e9, events as f64))
                .with("build_ms", build_ms)
                .with("digest", r.digest.to_json())
        })
        .collect()
}

/// Per-config rows of the trace file: the split and every span edge.
pub fn trace_rows(w: &SimWorkload, traced: &[ConfigTrace], clock: &Clock) -> Vec<Value> {
    w.configs
        .iter()
        .zip(traced)
        .map(|(c, t)| {
            let s = t.split(clock);
            Value::obj()
                .with("label", c.label.as_str())
                .with("wall_ns", t.wall_ns)
                .with("driver_ns", s.driver_ns)
                .with("proto_self_ns", s.proto_self_ns)
                .with("ctx_ns", s.ctx_ns)
                .with("loop_ns", s.loop_ns)
                .with("clock_ns", s.clock_ns)
                .with("net_ns_per_msg_est", t.net_ns_per_msg.unwrap_or(0.0))
                .with("queue_hold_ns_est", t.queue_hold_ns)
                .with("edges", t.edges(clock))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TraceSpec;
    use dirtree_machine::MachineConfig;
    use dirtree_workloads::WorkloadKind;

    /// A small machine on the one protocol that asks for read hits: if the
    /// wrapper dropped `wants_read_hits` (cached by `Machine` at
    /// construction) or any other forwarded method, the adaptive detector
    /// would see different traffic and the digests would part.
    fn adaptive_workload() -> SimWorkload {
        let nodes = 8;
        SimWorkload {
            traces: vec![TraceSpec::App {
                kind: WorkloadKind::Broadcast {
                    blocks: 4,
                    rounds: 12,
                    scans: 2,
                },
                nodes,
            }],
            configs: vec![SimConfig {
                label: "Dir4Tree2A".into(),
                trace: 0,
                machine: MachineConfig::paper_default(nodes),
                protocol: ProtocolKind::DirTreeAdaptive {
                    pointers: 4,
                    arity: 2,
                },
                runs: 2,
            }],
        }
    }

    #[test]
    fn wrappers_are_transparent_on_the_adaptive_protocol() {
        let w = adaptive_workload();
        let setup = setup(&w);
        let mut tally = Tally::default();
        let plain = plain_pass(&w, "test", 7, &setup, 2, &mut tally);
        assert_eq!(tally.attempted, 4);
        assert_eq!(plain[0].samples_s.len(), 2);
        assert!(
            plain[0].outcome.stats.mode_flips_to_update > 0,
            "the workload must exercise the detector"
        );
        let traced = traced_pass(&w, &setup, &plain, 7, &mut tally);
        assert!(tally.failures.is_empty(), "{:?}", tally.failures);
        assert!(
            traced[0].proto.core[3].count > 0,
            "read hits were bracketed"
        );
        assert_eq!(
            traced[0].proto.sends.len() as u64,
            plain[0].outcome.net.messages
        );
    }

    #[test]
    fn split_adds_up_to_the_traced_wall() {
        let w = adaptive_workload();
        let setup = setup(&w);
        let mut tally = Tally::default();
        let plain = plain_pass(&w, "test", 7, &setup, 1, &mut tally);
        let traced = traced_pass(&w, &setup, &plain, 7, &mut tally);
        let clock = Clock::calibrate();
        let s = traced[0].split(&clock);
        let sum = s.driver_ns + s.proto_self_ns + s.ctx_ns + s.loop_ns + s.clock_ns;
        assert!(
            (sum - traced[0].wall_ns).abs() < 1.0,
            "{sum} vs {}",
            traced[0].wall_ns
        );
        assert!(s.proto_calls > 0 && s.ctx_calls > 0);
    }

    #[test]
    fn a_changed_result_is_a_failure_not_a_warning() {
        let w = adaptive_workload();
        let setup = setup(&w);
        let mut tally = Tally::default();
        let mut plain = plain_pass(&w, "test", 7, &setup, 1, &mut tally);
        plain[0].digest.sim = "0".into();
        traced_pass(&w, &setup, &plain, 7, &mut tally);
        assert_eq!(tally.failures.len(), 1, "{:?}", tally.failures);
        assert!(tally.failures[0].contains("wrappers changed"));
    }

    #[test]
    fn op_conservation_is_checked() {
        let w = adaptive_workload();
        let mut setup = setup(&w);
        setup.traces[0].mem_ops += 1;
        let mut tally = Tally::default();
        plain_pass(&w, "test", 7, &setup, 1, &mut tally);
        assert_eq!(tally.failed(), 2, "{:?}", tally.failures);
    }
}
