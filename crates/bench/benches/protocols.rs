//! Criterion benchmarks over whole-machine protocol runs: how fast the
//! simulator executes each protocol on a fixed contended workload, and
//! the relative cost of the invalidation machinery at scale.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dirtree_core::protocol::{build_protocol, ProtocolKind, ProtocolParams};
use dirtree_core::testkit::MockCtx;
use dirtree_machine::{DriverOp, Machine, MachineConfig, ScriptDriver};
use std::hint::black_box;

fn scripts(nodes: u32) -> Vec<Vec<DriverOp>> {
    (0..nodes as u64)
        .map(|n| {
            let mut ops = Vec::new();
            for i in 0..64u64 {
                ops.push(DriverOp::Read(i % 16));
                if (i + n) % 8 == 0 {
                    ops.push(DriverOp::Write(i % 16));
                }
            }
            ops.push(DriverOp::Barrier(0));
            ops
        })
        .collect()
}

fn bench_protocol_runs(c: &mut Criterion) {
    let mut g = c.benchmark_group("machine_run_16procs");
    for kind in [
        ProtocolKind::FullMap,
        ProtocolKind::LimitedNB { pointers: 4 },
        ProtocolKind::LimitLess { pointers: 4 },
        ProtocolKind::SinglyList,
        ProtocolKind::Sci,
        ProtocolKind::Stp { arity: 2 },
        ProtocolKind::SciTree,
        ProtocolKind::DirTree {
            pointers: 4,
            arity: 2,
        },
    ] {
        g.bench_with_input(
            BenchmarkId::from_parameter(kind.name()),
            &kind,
            |b, &kind| {
                b.iter(|| {
                    let mut m = Machine::new(MachineConfig::paper_default(16), kind);
                    let mut d = ScriptDriver::new(scripts(16));
                    black_box(m.run(&mut d).cycles)
                })
            },
        );
    }
    g.finish();
}

fn bench_invalidation_scaling(c: &mut Criterion) {
    // One write over P sharers: simulated write-miss latency work per
    // protocol family (sequential vs logarithmic fan-out).
    let mut g = c.benchmark_group("invalidation_storm_32procs");
    for kind in [
        ProtocolKind::FullMap,
        ProtocolKind::Sci,
        ProtocolKind::DirTree {
            pointers: 4,
            arity: 2,
        },
    ] {
        g.bench_with_input(
            BenchmarkId::from_parameter(kind.name()),
            &kind,
            |b, &kind| {
                b.iter(|| {
                    let nodes = 32;
                    let mut active: Vec<(u32, Vec<DriverOp>)> = (1..30u32)
                        .map(|k| (k, vec![DriverOp::Work(k as u64 * 2000), DriverOp::Read(0)]))
                        .collect();
                    active.push((31, vec![DriverOp::Work(100_000), DriverOp::Write(0)]));
                    let mut m = Machine::new(MachineConfig::paper_default(nodes), kind);
                    let mut d = ScriptDriver::sparse(nodes, active);
                    black_box(m.run(&mut d).cycles)
                })
            },
        );
    }
    g.finish();
}

/// Drop the mock's logs so a long measurement does not grow them.
fn clear_logs(ctx: &mut MockCtx) {
    ctx.sent.clear();
    ctx.completed.clear();
    ctx.events.clear();
}

fn bench_stp_repair(c: &mut Criterion) {
    // Two interior-node repairs (evict + rejoin of members 2 and 7, which
    // returns the 7-member tree to its starting shape) while
    // `background_blocks` other blocks hold trees naming the same nodes:
    // a handler's cost must depend on its own block only.
    let mut g = c.benchmark_group("stp_repair/background_blocks");
    for background in [1u64, 4096] {
        g.bench_with_input(
            BenchmarkId::from_parameter(background),
            &background,
            |b, &background| {
                let mut ctx = MockCtx::new(16);
                let mut p =
                    build_protocol(ProtocolKind::Stp { arity: 2 }, ProtocolParams::default());
                for block in 1..=background {
                    for n in [8, 7, 5, 4, 3] {
                        ctx.read(p.as_mut(), n, block);
                    }
                }
                for n in 1..=7 {
                    ctx.read(p.as_mut(), n, 0);
                }
                b.iter(|| {
                    for leaver in [2, 7] {
                        ctx.evict(p.as_mut(), leaver, 0);
                        ctx.read(p.as_mut(), leaver, 0);
                    }
                    clear_logs(&mut ctx);
                })
            },
        );
    }
    g.finish();
}

fn bench_scitree_mutate(c: &mut Criterion) {
    // One AVL delete plus one AVL insert (a sharer leaves and rejoins) on
    // a tree of `sharers` nodes: the children diff behind the fix-ups
    // should cost O(log sharers), not two snapshots of the whole tree.
    let mut g = c.benchmark_group("scitree_mutate");
    for sharers in [8u32, 32] {
        g.bench_with_input(
            BenchmarkId::from_parameter(sharers),
            &sharers,
            |b, &sharers| {
                let mut ctx = MockCtx::new(64);
                let mut p = build_protocol(ProtocolKind::SciTree, ProtocolParams::default());
                for n in 1..=sharers {
                    ctx.read(p.as_mut(), n, 0);
                }
                b.iter(|| {
                    ctx.evict(p.as_mut(), sharers / 2, 0);
                    ctx.read(p.as_mut(), sharers / 2, 0);
                    clear_logs(&mut ctx);
                })
            },
        );
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_protocol_runs,
    bench_invalidation_scaling,
    bench_stp_repair,
    bench_scitree_mutate
);
criterion_main!(benches);
