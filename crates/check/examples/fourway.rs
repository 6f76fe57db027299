//! Four-way reduction ablation: explore one FullMap shape with each
//! combination of the symmetry and sleep-set reductions and print the
//! work counters side by side — the measurement harness behind the
//! reduction numbers quoted in DESIGN.md §22.
//!
//! Usage:
//!   cargo run --release -p dirtree-check --example fourway -- \
//!     NODES BLOCKS ADDR_STRIDE FUEL [PROTO]
//!
//! A stride equal to NODES homes every block at node 0 (largest
//! home-fixing symmetry group); BLOCKS ≥ 2 gives the sleep sets
//! independent pairs to prune. PROTO defaults to `fullmap`; tree shapes
//! spell out as `tree:POINTERS:ARITY`, `update:POINTERS:ARITY`, or
//! `adaptive:POINTERS:ARITY`.

use dirtree_check::{explore, CheckConfig};
use dirtree_core::protocol::{build_protocol, ProtocolKind, ProtocolParams};

fn parse_kind(s: &str) -> ProtocolKind {
    if s.eq_ignore_ascii_case("fullmap") {
        return ProtocolKind::FullMap;
    }
    let parts: Vec<&str> = s.split(':').collect();
    let [family, pointers, arity] = parts[..] else {
        panic!("PROTO must be `fullmap` or FAMILY:POINTERS:ARITY, got {s:?}");
    };
    let pointers: u32 = pointers.parse().expect("POINTERS must be numeric");
    let arity: u32 = arity.parse().expect("ARITY must be numeric");
    match family {
        "tree" => ProtocolKind::DirTree { pointers, arity },
        "update" => ProtocolKind::DirTreeUpdate { pointers, arity },
        "adaptive" => ProtocolKind::DirTreeAdaptive { pointers, arity },
        other => panic!("unknown protocol family {other:?}"),
    }
}

fn main() {
    let a: Vec<String> = std::env::args().collect();
    let nodes: u32 = a[1].parse().unwrap();
    let blocks: u64 = a[2].parse().unwrap();
    let stride: u64 = a[3].parse().unwrap();
    let fuel: u32 = a[4].parse().unwrap();
    let kind = parse_kind(a.get(5).map_or("fullmap", String::as_str));
    let factory = || build_protocol(kind, ProtocolParams::default());
    for (sym, por) in [(true, true), (true, false), (false, true), (false, false)] {
        let mut cfg = CheckConfig::small(nodes, blocks);
        cfg.addr_stride = stride;
        cfg.fuel = fuel;
        cfg.symmetry = sym;
        cfg.por = por;
        let t = std::time::Instant::now();
        let out = explore(&cfg, factory);
        let s = out.stats().unwrap();
        println!(
            "sym={sym:5} por={por:5}: states={:8} explored={:9} dedup={:9} pruned={:8} |G|={} tried={:.2} pass={} [{:.2?}]",
            out.states(), s.explored, s.deduped, s.sleep_pruned, s.sym_group, s.mean_perms_tried(), out.is_pass(), t.elapsed()
        );
    }
}
