//! Criterion microbenchmarks for the simulation substrate itself: network
//! routing + contention bookkeeping, cache tag-store operations, and the
//! deterministic RNG. The event queue is measured by the benchmark's hold
//! model on the machine's own traffic (`sim.queue_hold_ns`), not here.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use dirtree_core::cache::{Cache, CacheConfig};
use dirtree_core::types::LineState;
use dirtree_net::{Network, NetworkConfig, Topology};
use dirtree_sim::SimRng;
use std::hint::black_box;

fn bench_network(c: &mut Criterion) {
    let mut g = c.benchmark_group("network");
    for nodes in [8u32, 32, 256] {
        g.bench_function(format!("send_contended_n{nodes}"), |b| {
            b.iter_batched(
                || Network::new(Topology::hypercube(nodes), NetworkConfig::default()),
                |mut net| {
                    let mut t = 0;
                    for i in 0..512u32 {
                        let src = i % nodes;
                        let dst = (i * 7 + 3) % nodes;
                        t = net.send(t / 2, src, dst, 16);
                    }
                    black_box(t)
                },
                BatchSize::SmallInput,
            )
        });
    }
    // The VC/adaptive path at the depth the scale-up study runs it: 3 VCs,
    // minimal-adaptive routing, a 10-dimensional cube (hops re-derived per
    // message, no route table). Eight times the sends of the cases above,
    // so the 60 K (link, VC) horizons fill up and the contended branches
    // (arbitration, non-zero backlog samples) run too.
    g.bench_function("send_vc_adaptive_n1024", |b| {
        let config = NetworkConfig {
            vcs: 3,
            adaptive: true,
            ..NetworkConfig::default()
        };
        b.iter_batched(
            || Network::new(Topology::hypercube(1024), config),
            |mut net| {
                let mut t = 0;
                for i in 0..4096u32 {
                    let src = (i * 37) % 1024;
                    let dst = (i * 97 + 13) % 1024;
                    t = net.send_vc(t / 2, src, dst, 16, i % 3);
                }
                black_box(t)
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_cache(c: &mut Criterion) {
    c.bench_function("cache/alloc_touch_paper_geometry", |b| {
        b.iter_batched(
            || Cache::new(CacheConfig::paper_default()),
            |mut cache| {
                for a in 0..4096u64 {
                    cache.allocate(a);
                    cache.set_state(a, LineState::V);
                    cache.touch(a / 2);
                }
                black_box(cache.len())
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_rng(c: &mut Criterion) {
    c.bench_function("rng/gen_range_1k", |b| {
        let mut rng = SimRng::new(7);
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..1024 {
                acc = acc.wrapping_add(rng.gen_range(1000));
            }
            black_box(acc)
        })
    });
}

criterion_group!(benches, bench_network, bench_cache, bench_rng);
criterion_main!(benches);
