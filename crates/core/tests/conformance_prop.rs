//! Property-based conformance: arbitrary read/write/evict sequences on
//! every protocol must preserve the single-writer/multiple-reader
//! invariant and always leave the last writer as the sole holder.

use dirtree_core::protocol::{build_protocol, ProtocolKind, ProtocolParams};
use dirtree_core::testkit::MockCtx;
use dirtree_core::types::LineState;
use dirtree_core::ProtoCtx;
use proptest::prelude::*;

#[derive(Clone, Copy, Debug)]
enum Step {
    Read(u32),
    Write(u32),
    Evict(u32),
}

fn arb_steps(nodes: u32) -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(
        prop_oneof![
            3 => (1..nodes).prop_map(Step::Read),
            2 => (1..nodes).prop_map(Step::Write),
            1 => (1..nodes).prop_map(Step::Evict),
        ],
        1..80,
    )
}

fn run(kind: ProtocolKind, steps: &[Step]) {
    const A: u64 = 0;
    let nodes = 16;
    let mut ctx = MockCtx::new(nodes);
    let mut p = build_protocol(kind, ProtocolParams::default());
    let update = p.is_update();
    for &step in steps {
        match step {
            Step::Read(n) => {
                if !ctx.line_state(n, A).readable() {
                    ctx.read(&mut *p, n, A);
                }
            }
            Step::Write(n) => {
                if update {
                    let before = ctx.completed.len();
                    ctx.begin_miss(&mut *p, n, A, dirtree_core::types::OpKind::Write);
                    ctx.run(&mut *p);
                    assert!(ctx.completed.len() > before, "update write stalled");
                } else if !ctx.line_state(n, A).writable() {
                    ctx.write(&mut *p, n, A);
                }
                ctx.assert_swmr(A);
            }
            Step::Evict(n) => {
                if matches!(ctx.line_state(n, A), LineState::V | LineState::E) {
                    ctx.evict(&mut *p, n, A);
                }
            }
        }
        ctx.assert_swmr(A);
    }
}

macro_rules! conformance {
    ($name:ident, $kind:expr) => {
        proptest! {
            #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]
            #[test]
            fn $name(steps in arb_steps(16)) {
                run($kind, &steps);
            }
        }
    };
}

conformance!(full_map, ProtocolKind::FullMap);
conformance!(limited_nb1, ProtocolKind::LimitedNB { pointers: 1 });
conformance!(limited_b2, ProtocolKind::LimitedB { pointers: 2 });
conformance!(limitless2, ProtocolKind::LimitLess { pointers: 2 });
conformance!(singly, ProtocolKind::SinglyList);
conformance!(sci, ProtocolKind::Sci);
conformance!(stp, ProtocolKind::Stp { arity: 2 });
conformance!(sci_tree, ProtocolKind::SciTree);
conformance!(
    dir1tree2,
    ProtocolKind::DirTree {
        pointers: 1,
        arity: 2
    }
);
conformance!(
    dir4tree2,
    ProtocolKind::DirTree {
        pointers: 4,
        arity: 2
    }
);
conformance!(
    dir4tree4,
    ProtocolKind::DirTree {
        pointers: 4,
        arity: 4
    }
);
conformance!(
    dir4tree2_update,
    ProtocolKind::DirTreeUpdate {
        pointers: 4,
        arity: 2
    }
);
