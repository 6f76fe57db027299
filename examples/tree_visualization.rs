//! Visualize how Dir₄Tree₂ builds its forest (Figures 1 and 5): drive the
//! real protocol implementation read-by-read with the zero-latency
//! `testkit::MockCtx` and dump the forest shape after every insertion.
//!
//! Run: `cargo run --example tree_visualization`

use dirtree::coherence::dir::dir_tree::DirTree;
use dirtree::coherence::protocol::ProtocolParams;
use dirtree::coherence::testkit::MockCtx;
use dirtree::coherence::types::{Addr, NodeId};

fn print_tree(p: &DirTree, root: NodeId, addr: Addr, depth: usize) {
    println!("{}node {root}", "    ".repeat(depth + 1));
    for &c in p.children_of(root, addr) {
        print_tree(p, c, addr, depth + 1);
    }
}

fn main() {
    const A: Addr = 0; // home = node 0
    let mut ctx = MockCtx::new(32);
    let mut proto = DirTree::new(4, 2, ProtocolParams::default());

    for reader in 1..=15u32 {
        ctx.read(&mut proto, reader, A);
        println!("after read miss #{reader}:");
        for (i, ptr) in proto.forest(A).iter().enumerate() {
            match ptr {
                Some(p) => {
                    println!("  pointer {i} (level {}):", p.level);
                    print_tree(&proto, p.node, A, 0);
                }
                None => println!("  pointer {i}: null"),
            }
        }
        println!();
    }
    println!("Compare with the paper's Figure 1 (14 copies) and Figure 5 (the");
    println!("15th request adopting processors 11 and 13).");
}
