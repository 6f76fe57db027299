//! Write your own execution-driven workload against the public API: a
//! simple parallel histogram with locks, run under two protocols. Each
//! processor's program is an `async` block that owns its `Env`; every
//! shared reference, barrier and lock is an `.await` on it.
//!
//! Run: `cargo run --example custom_workload`

use dirtree::machine::{Machine, MachineConfig};
use dirtree::prelude::*;
use dirtree::workloads::layout::Alloc;
use dirtree::workloads::rendezvous::ThreadedWorkload;

fn histogram_workload(nprocs: u32) -> ThreadedWorkload {
    let mut alloc = Alloc::new();
    let input = alloc.array(256); // shared input vector
    let hist = alloc.array(16); // shared histogram (lock-protected bins)
    ThreadedWorkload::new(nprocs, alloc.used(), move |tid, mut env| {
        Box::pin(async move {
            // Processor 0 publishes the input.
            if tid == 0 {
                let mut rng = SimRng::new(2026);
                for i in 0..input.len {
                    env.write(input.at(i), rng.gen_range(16)).await;
                }
                for b in 0..hist.len {
                    env.write(hist.at(b), 0).await;
                }
            }
            env.barrier().await;
            // Each processor bins its slice of the input.
            let per = input.len / nprocs as u64;
            let lo = tid as u64 * per;
            let hi = if tid as u32 + 1 == nprocs {
                input.len
            } else {
                lo + per
            };
            for i in lo..hi {
                let v = env.read(input.at(i)).await;
                let bin = v % hist.len;
                env.lock(bin as u32).await;
                let count = env.read(hist.at(bin)).await;
                env.write(hist.at(bin), count + 1).await;
                env.unlock(bin as u32).await;
            }
            env.barrier().await;
        })
    })
}

fn main() {
    for protocol in [
        ProtocolKind::FullMap,
        ProtocolKind::DirTree {
            pointers: 4,
            arity: 2,
        },
    ] {
        let mut config = MachineConfig::paper_default(8);
        config.verify = true;
        let mut machine = Machine::new(config, protocol);
        let mut workload = histogram_workload(8);
        let out = machine.run(&mut workload);
        let total: u64 = (0..16).map(|b| workload.value_at(256 + b)).sum();
        println!(
            "{:<12} cycles={:<8} msgs={:<6} lock acquisitions={}  (histogram total = {total})",
            protocol.name(),
            out.cycles,
            out.stats.critical_messages(),
            out.stats.lock_acquires,
        );
        assert_eq!(total, 256, "every input element must be counted once");
    }
}
