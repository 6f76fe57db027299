//! Integration tests for the model checker: the figure-set protocols are
//! exhaustively clean at the smallest configuration, exploration is
//! deterministic regardless of worker count, and budgets come back as
//! structured resource reports instead of hangs.

use dirtree_check::explore::SLEEP_MASK_BITS;
use dirtree_check::report;
use dirtree_check::roster::{exclusion, roster};
use dirtree_check::{
    explore, replay, CheckConfig, CheckOutcome, CheckState, Choice, MutantKind, Mutated, ProcOp,
};
use dirtree_core::ctx::ProtoCtx;
use dirtree_core::fingerprint::home_fixing_perms;
use dirtree_core::msg::MsgKind;
use dirtree_core::protocol::{build_protocol, ProtocolKind, ProtocolParams};
use dirtree_core::types::{LineState, NodeId, OpKind};
use dirtree_sim::SimRng;

/// Every protocol of the paper's figure set survives exhaustive
/// exploration at P = 2, one block (the CI fast tier; `check_all` covers
/// the larger shapes).
#[test]
fn figure_set_is_exhaustively_clean_at_p2() {
    let params = ProtocolParams::default();
    for kind in ProtocolKind::figure_set() {
        let cfg = CheckConfig::small(2, 1);
        let outcome = explore(&cfg, || build_protocol(kind, params));
        assert!(
            outcome.is_pass(),
            "{} failed exhaustive exploration: {outcome:?}",
            kind.name()
        );
        assert!(
            outcome.states() > 1000,
            "{} explored suspiciously few states ({})",
            kind.name(),
            outcome.states()
        );
    }
}

/// The BFS result — including the counterexample, when there is one — is
/// independent of the worker count.
#[test]
fn exploration_is_deterministic_across_jobs() {
    let factory = Mutated::factory(
        ProtocolKind::FullMap,
        ProtocolParams::default(),
        MutantKind::DropInv,
    );
    let mut cfg = CheckConfig::small(2, 1);
    cfg.jobs = 1;
    let CheckOutcome::Violation(serial) = explore(&cfg, &factory) else {
        panic!("mutant survived serial exploration");
    };
    cfg.jobs = 4;
    let CheckOutcome::Violation(parallel) = explore(&cfg, &factory) else {
        panic!("mutant survived parallel exploration");
    };
    assert_eq!(serial.choices, parallel.choices);
    assert_eq!(serial.violation, parallel.violation);
    assert_eq!(serial.states, parallel.states);
}

/// An exhausted depth budget is a structured report, not a hang or a
/// panic — the checker's bounded-step stall guard.
#[test]
fn depth_budget_reports_a_resource_limit() {
    let mut cfg = CheckConfig::small(2, 1);
    cfg.max_depth = 3;
    let outcome = explore(&cfg, || {
        build_protocol(ProtocolKind::FullMap, ProtocolParams::default())
    });
    let CheckOutcome::ResourceLimit { reason, depth, .. } = outcome else {
        panic!("expected a resource limit, got {outcome:?}");
    };
    assert_eq!(depth, 3);
    assert!(
        reason.contains("no quiescence after"),
        "unexpected reason: {reason}"
    );
}

/// Same guard for the state budget.
#[test]
fn state_budget_reports_a_resource_limit() {
    let mut cfg = CheckConfig::small(2, 1);
    cfg.max_states = 50;
    let outcome = explore(&cfg, || {
        build_protocol(ProtocolKind::FullMap, ProtocolParams::default())
    });
    let CheckOutcome::ResourceLimit { reason, .. } = outcome else {
        panic!("expected a resource limit, got {outcome:?}");
    };
    assert!(
        reason.contains("state budget"),
        "unexpected reason: {reason}"
    );
}

/// A replayed counterexample narrates every step and renders a message
/// trace with an explicit dropped-event count.
#[test]
fn replay_renders_steps_and_trace() {
    let factory = Mutated::factory(
        ProtocolKind::FullMap,
        ProtocolParams::default(),
        MutantKind::DropInv,
    );
    let cfg = CheckConfig::small(2, 1);
    let CheckOutcome::Violation(cx) = explore(&cfg, &factory) else {
        panic!("mutant survived exploration");
    };
    let rep = replay(&cfg, &factory, &cx.choices, 256);
    assert_eq!(rep.violation.as_deref(), Some(cx.violation.as_str()));
    assert_eq!(rep.steps.len(), cx.choices.len());
    assert!(!rep.trace.is_empty());
    assert_eq!(rep.trace_dropped, 0, "256-entry ring should hold it all");

    // A one-entry ring must drop traffic and say so.
    let tiny = replay(&cfg, &factory, &cx.choices, 1);
    assert!(tiny.trace_dropped > 0);
}

/// The silent-replacement / write-grant race the checker found in
/// Dir_1Tree_2 (fixed by zombie edges): the exact 12-step interleaving —
/// both processors read, the ex-root evicts and immediately rewrites
/// while its `ReplaceInv` is still in flight — must stay clean.
#[test]
fn dir1tree2_evict_then_write_race_stays_closed() {
    let cfg = CheckConfig::small(2, 1);
    let outcome = explore(&cfg, || {
        build_protocol(
            ProtocolKind::DirTree {
                pointers: 1,
                arity: 2,
            },
            ProtocolParams::default(),
        )
    });
    assert!(
        outcome.is_pass(),
        "Dir_1Tree_2 regressed (the PR-2 replacement race?): {outcome:?}"
    );
}

/// Symmetry-soundness mutant: `AsymmetricDropInv` keys on a processor
/// id's magnitude (it only swallows invalidations aimed at node 2), so
/// canonicalizing over node renamings would be *unsound* for it.
/// [`Mutated`] deliberately does not certify `Protocol::relabeled`; the
/// group must degenerate to the identity and exploration with both
/// reductions enabled must report the bug — with exactly the
/// counterexample the unreduced search finds.
#[test]
fn asymmetric_mutant_is_caught_with_reductions_enabled() {
    let factory = Mutated::factory(
        ProtocolKind::FullMap,
        ProtocolParams::default(),
        MutantKind::AsymmetricDropInv,
    );
    let cfg = CheckConfig::small(3, 1);
    assert!(cfg.symmetry && cfg.por, "reductions must default on");
    let CheckOutcome::Violation(reduced) = explore(&cfg, &factory) else {
        panic!("asymmetric mutant survived exploration with reductions on");
    };
    let mut off = cfg.clone();
    off.symmetry = false;
    off.por = false;
    let CheckOutcome::Violation(unreduced) = explore(&off, &factory) else {
        panic!("asymmetric mutant survived unreduced exploration");
    };
    assert_eq!(reduced.choices, unreduced.choices);
    assert_eq!(reduced.violation, unreduced.violation);
    assert_eq!(reduced.states, unreduced.states);
    let rep = replay(&cfg, &factory, &reduced.choices, 256);
    assert_eq!(rep.violation.as_deref(), Some(reduced.violation.as_str()));
}

/// Sleep sets prune *transitions*, never states: with symmetry off, the
/// POR-reduced search must visit exactly the unreduced reachable-state
/// set (same count, same verdict) while doing strictly less successor
/// work.
#[test]
fn sleep_sets_preserve_the_reachable_state_set() {
    let factory = || build_protocol(ProtocolKind::FullMap, ProtocolParams::default());
    let mut cfg = CheckConfig::small(2, 2);
    cfg.fuel = 2;
    cfg.symmetry = false;
    let por = explore(&cfg, factory);
    cfg.por = false;
    let full = explore(&cfg, factory);
    assert!(por.is_pass(), "{por:?}");
    assert!(full.is_pass(), "{full:?}");
    assert_eq!(por.states(), full.states());
    let (ps, fs) = (por.stats().unwrap(), full.stats().unwrap());
    assert!(
        ps.sleep_pruned > 0,
        "two blocks must give POR something to prune"
    );
    assert!(ps.explored < fs.explored);
    assert_eq!(fs.sleep_pruned, 0);
}

/// The symmetry reduction visits one representative per orbit: the
/// verdict is unchanged and the unreduced state count is bounded by the
/// group order times the reduced count.
#[test]
fn symmetry_quotients_states_without_changing_the_verdict() {
    let factory = || build_protocol(ProtocolKind::FullMap, ProtocolParams::default());
    let mut cfg = CheckConfig::small(3, 1);
    cfg.por = false;
    let sym = explore(&cfg, factory);
    cfg.symmetry = false;
    let full = explore(&cfg, factory);
    assert!(sym.is_pass(), "{sym:?}");
    assert!(full.is_pass(), "{full:?}");
    let ss = sym.stats().unwrap();
    assert_eq!(ss.sym_group, 2, "P=3, home 0 fixed: {{id, swap(1,2)}}");
    assert!(sym.states() < full.states());
    assert!(full.states() <= ss.sym_group * sym.states());
}

/// The acceptance bar for the reductions: on a shape where both the
/// reduced and unreduced searches can run to exhaustion — P = 5 with one
/// block homed at node 0, so the home-fixing group is the full S₄ on the
/// other processors (order 24) — the search with both reductions enabled
/// must do at least 10× fewer successor computations than the unreduced
/// one, with the same verdict. (With a single block every pair of
/// choices shares a footprint, so the sleep sets are inert here; their
/// pruning and state-set preservation are pinned by the two tests
/// above.)
#[test]
fn reductions_cut_explored_work_by_an_order_of_magnitude() {
    let factory = || build_protocol(ProtocolKind::FullMap, ProtocolParams::default());
    let mut cfg = CheckConfig::small(5, 1);
    assert!(cfg.symmetry && cfg.por, "reductions must default on");
    let on = explore(&cfg, factory);
    cfg.symmetry = false;
    cfg.por = false;
    let off = explore(&cfg, factory);
    assert!(on.is_pass(), "{on:?}");
    assert!(off.is_pass(), "{off:?}");
    let (s_on, s_off) = (on.stats().unwrap(), off.stats().unwrap());
    assert_eq!(s_on.sym_group, 24, "P=5, home 0 fixed: S4 on nodes 1..=4");
    assert!(
        s_off.explored >= 10 * s_on.explored,
        "expected >=10x: unreduced explored {} vs reduced {}",
        s_off.explored,
        s_on.explored
    );
}

/// The ternary (k=3) roster entries are not vacuous: arity only binds at
/// the Figure-6 case-3 merge, which needs all `i` pointers full plus a
/// new *remote* requester — with i=3 that takes four remotes, i.e. P=5.
/// There, an arity-3 tree must genuinely diverge from the arity-2 tree
/// (three equal-height roots adopted in one merge), and both must stay
/// exhaustively clean.
#[test]
fn ternary_merge_diverges_from_binary_at_p5() {
    let cfg = CheckConfig::small(5, 1);
    let run = |arity| {
        explore(&cfg, || {
            build_protocol(
                ProtocolKind::DirTree { pointers: 3, arity },
                ProtocolParams::default(),
            )
        })
    };
    let ternary = run(3);
    let binary = run(2);
    assert!(ternary.is_pass(), "{ternary:?}");
    assert!(binary.is_pass(), "{binary:?}");
    assert_ne!(
        ternary.states(),
        binary.states(),
        "arity never bound: the k=3 sweep would be re-checking the k=2 graphs"
    );
}

/// The same pair under the *update* write policy: today the two graphs are
/// the same graph. Update blocks merge pairs only whatever the arity
/// (`DirTree::insert_sharer` — a drift from when the update variant was a
/// file of its own), so `Dir3Tree3U` re-checks `Dir3Tree2U` and never
/// reaches a three-way adoption. Pinned as it is because
/// `benchmark/expected.json` pins the resulting count; when the merge
/// width is unified (ROADMAP, after a `[benchmark]` re-baseline) this flips
/// to `assert_ne!` like the invalidate case above.
#[test]
fn ternary_update_merge_does_not_diverge_from_binary_at_p5() {
    let cfg = CheckConfig::small(5, 1);
    let run = |arity| {
        explore(&cfg, || {
            build_protocol(
                ProtocolKind::DirTreeUpdate { pointers: 3, arity },
                ProtocolParams::default(),
            )
        })
    };
    let ternary = run(3);
    let binary = run(2);
    assert!(ternary.is_pass(), "{ternary:?}");
    assert!(binary.is_pass(), "{binary:?}");
    assert_eq!(ternary.states(), 18_891);
    assert_eq!(ternary.states(), binary.states());
    assert_eq!(ternary.stats(), binary.stats());
}

/// With both reductions enabled the result is bit-identical at any worker
/// count: verdict, state count and every work counter must match across
/// 1, 2, 3 and 8 jobs. The explorer expands and merges a layer in windows
/// of 64 frontier states per job, so FullMap P=3's widest layer (4 737
/// states) is 75 windows at one job and 10 at eight, and the window
/// boundaries fall at different places in it for every count; P=4 adds
/// the order-6 symmetry group.
#[test]
fn p4_reduced_exploration_is_deterministic_across_jobs() {
    let factory = || build_protocol(ProtocolKind::FullMap, ProtocolParams::default());
    for nodes in [4, 3] {
        let mut cfg = CheckConfig::small(nodes, 1);
        assert!(cfg.symmetry && cfg.por, "reductions must default on");
        cfg.jobs = 1;
        let serial = explore(&cfg, factory);
        assert!(serial.is_pass(), "P={nodes}: {serial:?}");
        for jobs in [2, 3, 8] {
            cfg.jobs = jobs;
            let parallel = explore(&cfg, factory);
            assert_eq!(serial.states(), parallel.states(), "P={nodes} jobs={jobs}");
            assert_eq!(serial.stats(), parallel.stats(), "P={nodes} jobs={jobs}");
        }
    }
}

/// Every mutant's counterexample, as the whole-layer merge reported it
/// before the explorer worked in windows, at the shapes
/// `tests/witness_catches_bugs.rs` and the tests above explore them: the
/// choice count, the violation, and `states` — `visited.len()` when the
/// violating layer *began*, not when its window did — at one job and at
/// three.
#[test]
fn mutant_counterexamples_are_pinned() {
    let tree = |pointers, arity| ProtocolKind::DirTree { pointers, arity };
    let writer_not_exclusive = |node, other| {
        format!(
            "coherence violation at node {node} addr 0x0: WriterNotExclusive {{ other: {other} }}"
        )
    };
    for (proto, kind, nodes, choices, states, violation) in [
        (
            ProtocolKind::FullMap,
            MutantKind::DropInv,
            2,
            8,
            399,
            writer_not_exclusive(1, 0),
        ),
        (
            ProtocolKind::FullMap,
            MutantKind::PrematureAck,
            2,
            9,
            609,
            writer_not_exclusive(1, 0),
        ),
        (
            tree(1, 2),
            MutantKind::StaleTreePointer,
            2,
            8,
            398,
            "invariant violation: valid copy at node 0 for 0x0 unreachable from the forest".into(),
        ),
        (
            tree(2, 2),
            MutantKind::StaleWaveScratch,
            2,
            20,
            9_381,
            writer_not_exclusive(0, 1),
        ),
        (
            ProtocolKind::FullMap,
            MutantKind::AsymmetricDropInv,
            3,
            8,
            1_208,
            writer_not_exclusive(0, 2),
        ),
    ] {
        let factory = Mutated::factory(proto, ProtocolParams::default(), kind);
        for jobs in [1, 3] {
            let mut cfg = CheckConfig::small(nodes, 1);
            cfg.jobs = jobs;
            let at = format!("{kind:?} on {} P={nodes} jobs={jobs}", proto.name());
            let CheckOutcome::Violation(cx) = explore(&cfg, &factory) else {
                panic!("{at}: survived exploration");
            };
            assert_eq!(
                (cx.choices.len(), cx.states, cx.violation.as_str()),
                (choices, states, violation.as_str()),
                "{at}"
            );
        }
    }
}

/// Empirical equivariance check behind the symmetry reduction's soundness
/// argument: running a choice sequence and then relabeling the state must
/// equal relabeling first and running the renamed sequence — and the node
/// signatures the canonicalization sorts by must move with the nodes
/// (`node_signature` of `π(i)` in `π(s)` equals that of `i` in `s`). Walked
/// over a deterministic pseudo-random path through each certifying family's
/// choice graph, comparing full state digests at every step: Dir_1Tree_2
/// and the four flat-directory overflow policies (i = 2, so that three
/// processors overflow the pointers) at P = 3 under the one swap, and the
/// shapes `check_mix` actually quotients — update, adaptive and ternary
/// trees — at P = 5 under all 24 home-fixing permutations.
#[test]
fn relabeling_commutes_with_execution() {
    let params = ProtocolParams::default();
    let tree = |pointers, arity| ProtocolKind::DirTree { pointers, arity };
    let update = |pointers, arity| ProtocolKind::DirTreeUpdate { pointers, arity };
    let adaptive = |pointers, arity| ProtocolKind::DirTreeAdaptive { pointers, arity };
    let p3 = [
        tree(1, 2),
        ProtocolKind::FullMap,
        ProtocolKind::LimitedNB { pointers: 2 },
        ProtocolKind::LimitedB { pointers: 2 },
        ProtocolKind::LimitLess { pointers: 2 },
    ];
    let p5 = [
        update(1, 2),
        adaptive(2, 2),
        tree(3, 3),
        update(3, 3),
        adaptive(3, 3),
    ];
    let shapes = p3
        .into_iter()
        .map(|kind| (kind, 3, 60usize))
        .chain(p5.into_iter().map(|kind| (kind, 5, 40)));
    for (kind, nodes, steps) in shapes {
        let name = format!("{} P={nodes}", kind.name());
        // One block homed at node 0: every other node is free.
        let perms = &home_fixing_perms(nodes, &[0])[1..];
        let fixed: Vec<bool> = (0..nodes).map(|i| i == 0).collect();
        let fresh = || CheckState::new(nodes, 2, vec![0], build_protocol(kind, params));
        let mut a = fresh();
        let mut renamed: Vec<CheckState> = perms.iter().map(|_| fresh()).collect();
        for step in 0..steps {
            let choices = a.enabled_choices();
            if choices.is_empty() {
                assert!(step > 10, "{name}: walk quiesced suspiciously early");
                break;
            }
            // A deterministic scramble so the walk leaves the lockstep paths.
            let c = choices[(step * 7 + 3) % choices.len()];
            a.apply(c)
                .unwrap_or_else(|v| panic!("{name}: walk hit a violation: {v}"));
            for (perm, b) in perms.iter().zip(&mut renamed) {
                let at = |node: NodeId| perm[node as usize];
                b.apply(match c {
                    Choice::Deliver { src, dst } => Choice::Deliver {
                        src: at(src),
                        dst: at(dst),
                    },
                    Choice::Local { node } => Choice::Local { node: at(node) },
                    Choice::Op { node, op } => Choice::Op { node: at(node), op },
                })
                .unwrap_or_else(|v| panic!("{name}: renamed walk diverged into a violation: {v}"));
                let ra = a
                    .relabeled(perm)
                    .unwrap_or_else(|| panic!("{name} does not certify Protocol::relabeled"));
                assert_eq!(
                    ra.digest(),
                    b.digest(),
                    "{name}: relabel(run(s)) != run(relabel(s)) at step {step} under {perm:?}"
                );
                for node in 0..nodes {
                    assert_eq!(
                        ra.ctx.node_signature(at(node), &fixed),
                        a.ctx.node_signature(node, &fixed),
                        "{name}: signature of node {node} did not follow it under {perm:?} \
                         at step {step}"
                    );
                }
            }
        }
    }
}

/// The flat-directory family's graphs, as measured before the three
/// implementations became one `FlatDir` (PR 15): a merge that moved a
/// single transition or let a policy-foreign field into the digest would
/// move these. Dir_iB and LimitLESS have no other exhaustive coverage in
/// the test suite. LimitLESS gained its symmetry/commutation certificates
/// in that merge, so its *raw* graph is what is pinned, and the reduced
/// search must now quotient it.
#[test]
fn flat_directories_keep_their_state_counts() {
    let params = ProtocolParams::default();
    for (kind, want) in [
        (ProtocolKind::FullMap, 43_602),
        (ProtocolKind::LimitedNB { pointers: 1 }, 46_296),
        (ProtocolKind::LimitedNB { pointers: 2 }, 44_863),
        (ProtocolKind::LimitedB { pointers: 2 }, 42_872),
    ] {
        let outcome = explore(&CheckConfig::small(3, 1), || build_protocol(kind, params));
        assert!(outcome.is_pass(), "{} P=3 B=1: {outcome:?}", kind.name());
        assert_eq!(outcome.states(), want, "{} P=3 B=1", kind.name());
    }

    let limitless = || build_protocol(ProtocolKind::LimitLess { pointers: 2 }, params);
    for (nodes, blocks, want) in [(3, 1, 85_547), (2, 2, 182_807), (4, 1, 18_741)] {
        let mut cfg = CheckConfig::small(nodes, blocks);
        cfg.symmetry = false;
        cfg.por = false;
        let raw = explore(&cfg, limitless);
        assert!(raw.is_pass(), "LimitLESS2 P={nodes} B={blocks}: {raw:?}");
        assert_eq!(raw.states(), want, "LimitLESS2 P={nodes} B={blocks} raw");
    }
    let reduced = explore(&CheckConfig::small(3, 1), limitless);
    assert!(reduced.is_pass(), "{reduced:?}");
    assert_eq!(reduced.stats().unwrap().sym_group, 2);
    assert!(reduced.states() < 85_547);
}

/// The two home-held tree protocols, which `check_all` does not carry
/// (both lose SWMR to a stale queued leave at P = 2 with three ops per
/// processor — the next test, and ROADMAP), on shapes they do survive.
/// Their shared `check_invariants` runs at every reachable state: child
/// lists within the arity and, at quiescence, every node's list against
/// the home's tree (STP's arrival order, the extension's AVL). The state
/// counts, measured before the two became one shell with two shapes, pin
/// that the merge moved no transition and that neither the shell's count
/// of outstanding parts nor the AVL's touched-node scratch changes which
/// states the fingerprint tells apart.
#[test]
fn baseline_tree_protocols_keep_their_state_counts() {
    let params = ProtocolParams::default();
    for (kind, one_block_p4, two_blocks_p3) in [
        (ProtocolKind::Stp { arity: 2 }, 21_277, 6_559),
        (ProtocolKind::SciTree, 31_897, 8_136),
    ] {
        for (nodes, blocks, want) in [(4, 1, one_block_p4), (3, 2, two_blocks_p3)] {
            let mut cfg = CheckConfig::small(nodes, blocks);
            cfg.fuel = 1;
            let outcome = explore(&cfg, || build_protocol(kind, params));
            let shape = format!("{} P={nodes} B={blocks}", kind.name());
            assert!(outcome.is_pass(), "{shape}: {outcome:?}");
            assert_eq!(outcome.states(), want, "{shape}");
        }
    }
}

/// The stale-leave bug both home-held tree protocols carry (ROADMAP): at
/// P = 2, one block, three ops per processor, a leave queued behind a
/// write and a re-read removes the re-joined member, and a later writer
/// is granted the block beside a surviving copy. BFS returns a shortest
/// counterexample, so its length is fixed by the protocol, not by hash
/// order. The join-generation fix turns both into passes.
#[test]
fn baseline_tree_protocols_lose_swmr_to_a_stale_leave() {
    let params = ProtocolParams::default();
    for (kind, steps) in [
        (ProtocolKind::Stp { arity: 2 }, 21),
        (ProtocolKind::SciTree, 23),
    ] {
        let outcome = explore(&CheckConfig::small(2, 1), || build_protocol(kind, params));
        let CheckOutcome::Violation(cx) = outcome else {
            panic!("{}: expected a violation, got {outcome:?}", kind.name());
        };
        assert!(
            cx.violation.contains("WriterNotExclusive"),
            "{}: {}",
            kind.name(),
            cx.violation
        );
        assert_eq!(cx.choices.len(), steps, "{}", kind.name());
    }
}

/// The other two baselines `check_all` leaves out fail at P = 2 already
/// (ROADMAP item 3), with BFS-shortest counterexamples: SinglyLinkedList
/// deadlocks in 12 choices at P=2 (one block or two) and loses SWMR in 15
/// at P=3; SnoopMSI loses SWMR in 12 at all three shapes, because the
/// checker delivers its bus broadcast point to point. A fix, or a bus
/// channel model, flips these to passes and puts the protocol on the
/// roster.
#[test]
fn list_and_snoop_counterexamples_are_pinned() {
    let params = ProtocolParams::default();
    for (kind, nodes, blocks, violation, steps) in [
        (ProtocolKind::SinglyList, 2, 1, "deadlock", 12),
        (ProtocolKind::SinglyList, 3, 1, "WriterNotExclusive", 15),
        (ProtocolKind::SinglyList, 2, 2, "deadlock", 12),
        (ProtocolKind::Snoop, 2, 1, "WriterNotExclusive", 12),
        (ProtocolKind::Snoop, 3, 1, "WriterNotExclusive", 12),
        (ProtocolKind::Snoop, 2, 2, "WriterNotExclusive", 12),
    ] {
        let cfg = CheckConfig::small(nodes, blocks);
        let outcome = explore(&cfg, || build_protocol(kind, params));
        let shape = format!("{} P={nodes} B={blocks}", kind.name());
        let CheckOutcome::Violation(cx) = outcome else {
            panic!("{shape}: expected a violation, got {outcome:?}");
        };
        assert!(
            cx.violation.contains(violation),
            "{shape}: {}",
            cx.violation
        );
        assert_eq!(cx.choices.len(), steps, "{shape}");
    }
}

/// A recall can find its line `WmIp` and still be stale. Node 1 owns the
/// block; node 0's write makes the home recall it; node 1 evicts (its
/// `WbEvict` is in flight) and writes again before the `WbReq` arrives.
/// Under pair-FIFO channels the eviction writeback answers the recall, so
/// the `WbReq` must be dropped: it sends nothing, and the run drains to
/// quiescence with node 1 the final owner. A recall that overtakes its
/// grant on another virtual channel also finds `WmIp` (ROADMAP item 1), so
/// line state alone cannot tell the two apart; the home has to say which
/// grant a recall follows.
#[test]
fn a_stale_recall_meets_a_write_miss_and_is_dropped() {
    let params = ProtocolParams::default();
    for kind in [
        ProtocolKind::FullMap,
        ProtocolKind::Stp { arity: 2 },
        ProtocolKind::SciTree,
        ProtocolKind::DirTree {
            pointers: 2,
            arity: 2,
        },
    ] {
        let name = kind.name();
        let mut s = CheckState::new(2, 3, vec![0], build_protocol(kind, params));
        s.ctx.enable_send_log();
        let step = |s: &mut CheckState, c: Choice| {
            s.apply(c)
                .unwrap_or_else(|v| panic!("{name}: {} failed: {v}", s.describe(c)))
        };
        let deliver = |src, dst| Choice::Deliver { src, dst };
        let op = |node, op| Choice::Op { node, op };
        for c in [
            op(1, ProcOp::Write(0)),
            deliver(1, 0),
            deliver(0, 1),
            op(0, ProcOp::Write(0)),
            deliver(0, 0),
            op(1, ProcOp::Evict(0)),
            op(1, ProcOp::Write(0)),
        ] {
            step(&mut s, c);
        }
        let recall = MsgKind::WbReq {
            for_op: OpKind::Write,
            requester: 0,
        };
        assert_eq!(
            s.ctx.peek_channel(0, 1).map(|m| &m.kind),
            Some(&recall),
            "{name}"
        );
        assert_eq!(s.ctx.line_state(1, 0), LineState::WmIp, "{name}");
        let sent = s.ctx.send_log().len();
        step(&mut s, deliver(0, 1));
        assert_eq!(
            s.ctx.send_log().len(),
            sent,
            "{name}: the stale recall sent something"
        );
        // Drain the channels in order, each FIFO.
        while let Some(c) = s
            .enabled_choices()
            .into_iter()
            .find(|c| !matches!(c, Choice::Op { .. }))
        {
            step(&mut s, c);
        }
        assert!(s.ctx.quiescent(), "{name}: drained but not quiescent");
        let lines = (s.ctx.line_state(0, 0), s.ctx.line_state(1, 0));
        assert_eq!(lines, (LineState::Iv, LineState::E), "{name}");
    }
}

/// One instance of every protocol family `check_all` leaves off its roster.
const EXCLUDED: [ProtocolKind; 5] = [
    ProtocolKind::SinglyList,
    ProtocolKind::Snoop,
    ProtocolKind::Stp { arity: 2 },
    ProtocolKind::SciTree,
    ProtocolKind::Sci,
];

/// Every `ProtocolKind` is either on the `check_all` roster or excluded by
/// name with a reason that cites the test pinning it. The match has no
/// wildcard, so a new variant does not compile until it is placed.
#[test]
fn every_protocol_kind_is_on_the_roster_or_excluded_with_its_pin() {
    let variant = |kind: ProtocolKind| match kind {
        ProtocolKind::FullMap => 0,
        ProtocolKind::LimitedNB { .. } => 1,
        ProtocolKind::LimitedB { .. } => 2,
        ProtocolKind::LimitLess { .. } => 3,
        ProtocolKind::SinglyList => 4,
        ProtocolKind::Sci => 5,
        ProtocolKind::Stp { .. } => 6,
        ProtocolKind::SciTree => 7,
        ProtocolKind::DirTree { .. } => 8,
        ProtocolKind::Snoop => 9,
        ProtocolKind::DirTreeUpdate { .. } => 10,
        ProtocolKind::DirTreeAdaptive { .. } => 11,
    };
    let roster = roster();
    let mut placed = [false; 12];
    for e in &roster {
        assert_eq!(exclusion(e.kind), None, "{} is on the roster", e.name);
        placed[variant(e.kind)] = true;
    }
    for kind in EXCLUDED {
        let reason = exclusion(kind).unwrap_or_else(|| panic!("{} has no reason", kind.name()));
        assert!(
            reason.contains(".rs: ") && reason.ends_with(')'),
            "{}: the reason must cite its pin: {reason}",
            kind.name()
        );
        assert!(
            !placed[variant(kind)],
            "{} is also on the roster",
            kind.name()
        );
        placed[variant(kind)] = true;
    }
    assert!(placed.iter().all(|&p| p), "unplaced variants: {placed:?}");
}

/// The explorer applies the last awake choice out of a state to the state
/// itself and every other choice to a clone of it, which is sound only if a
/// clone behaves exactly like its original. For every protocol, on the
/// roster or excluded from it, a seeded walk of 300 steps at P=3 clones
/// the state before each step and applies the chosen choice to both: the
/// results (violations included), the digests and the enabled choices
/// must agree. Every other step the walk goes on from the clone, so clones
/// of clones are compared too; a dead end or a violation sends it back to
/// the root. A `boxed_clone` that drops state the protocol acts on fails
/// here instead of silently moving a counter.
#[test]
fn clones_behave_like_their_originals() {
    let entries = roster()
        .into_iter()
        .map(|e| (e.name, e.kind, e.params))
        .chain(
            EXCLUDED
                .into_iter()
                .map(|kind| (kind.name(), kind, ProtocolParams::default())),
        );
    let cfg = CheckConfig::small(3, 1);
    for (seed, (name, kind, params)) in entries.enumerate() {
        let root = CheckState::new(3, cfg.fuel, cfg.addrs(), build_protocol(kind, params));
        let mut rng = SimRng::new(1996 + seed as u64);
        let mut cur = root.clone();
        let mut applied_steps = 0u32;
        for step in 0..300 {
            let choices = cur.enabled_choices();
            if choices.is_empty() {
                cur = root.clone();
                continue;
            }
            let choice = choices[rng.gen_index(choices.len())];
            let at = format!("{name} P=3 step {step}, {choice:?}");
            let mut twin = cur.clone();
            let applied = cur.apply(choice);
            assert_eq!(twin.apply(choice), applied, "{at}: results differ");
            assert_eq!(twin.digest(), cur.digest(), "{at}: digests differ");
            assert_eq!(
                twin.enabled_choices(),
                cur.enabled_choices(),
                "{at}: enabled choices differ"
            );
            applied_steps += 1;
            if applied.is_err() {
                cur = root.clone();
            } else if step % 2 == 1 {
                cur = twin;
            }
        }
        assert!(
            applied_steps > 200,
            "{name}: only {applied_steps} steps applied"
        );
    }
}

/// Where symmetry and sleep sets meet: two blocks both homed at node 0 of
/// four (`addr_stride` 4), so the group is S₃ on the other three *and* the
/// sleep masks are non-empty — the masks cross the canonicalization on
/// every successor. All four counters as measured with the minimum taken
/// over every permutation of the group; the sorting rule must reproduce
/// them exactly (same orbits, same minimiser cosets, same sleep sets).
#[test]
fn symmetric_two_block_shapes_keep_all_four_counters() {
    let params = ProtocolParams::default();
    for (kind, states, explored, deduped, sleep_pruned) in [
        (ProtocolKind::FullMap, 22_984, 63_192, 40_209, 126),
        (
            ProtocolKind::DirTree {
                pointers: 2,
                arity: 2,
            },
            22_712,
            61_726,
            39_015,
            126,
        ),
        (
            ProtocolKind::DirTreeAdaptive {
                pointers: 1,
                arity: 2,
            },
            25_526,
            66_740,
            41_215,
            126,
        ),
    ] {
        let mut cfg = CheckConfig::small(4, 2);
        cfg.addr_stride = 4;
        cfg.fuel = 1;
        let outcome = explore(&cfg, || build_protocol(kind, params));
        let name = kind.name();
        assert!(outcome.is_pass(), "{name}: {outcome:?}");
        let stats = outcome.stats().unwrap();
        assert_eq!(stats.sym_group, 6, "{name}");
        assert_eq!(
            (
                outcome.states(),
                stats.explored,
                stats.deduped,
                stats.sleep_pruned
            ),
            (states, explored, deduped, sleep_pruned),
            "{name} P=4 B=2 stride 4"
        );
    }
}

/// The regression guard for the canonicalization that does not depend on a
/// clock: the mean number of permutations relabeled and digested per call.
/// A signature that silently degrades to "everything ties" reads |G| here
/// (24 and 2), where a 2x timing gate might not notice.
#[test]
fn canonicalization_tries_few_permutations() {
    let params = ProtocolParams::default();
    let update = |pointers, arity| ProtocolKind::DirTreeUpdate { pointers, arity };
    for (kind, nodes, blocks, group, at_most) in [
        (update(3, 3), 5, 1, 24, 2.5),
        (update(1, 2), 3, 1, 2, 1.1),
        (ProtocolKind::FullMap, 2, 2, 1, 1.0),
    ] {
        let cfg = CheckConfig::small(nodes, blocks);
        let outcome = explore(&cfg, || build_protocol(kind, params));
        let name = format!("{} P={nodes} B={blocks}", kind.name());
        assert!(outcome.is_pass(), "{name}: {outcome:?}");
        let stats = outcome.stats().unwrap();
        assert_eq!(stats.sym_group, group, "{name}");
        assert_eq!(stats.canon_calls, stats.explored + 1, "{name}");
        let mean = stats.mean_perms_tried();
        assert!(
            (1.0..=at_most).contains(&mean),
            "{name}: {mean:.3} permutations tried per canonicalization, expected <= {at_most}"
        );
        let line = report::render(&name, &cfg, &outcome, None);
        assert!(
            line.contains(&format!("|G|={group} tried {mean:.2}")),
            "{line}"
        );
    }
}

/// The sleep-set reduction needs one mask bit per choice slot. A shape
/// with more slots than bits falls back to the unreduced search — and must
/// say so in its stats and on its report line rather than quietly doing
/// less than it was asked to.
#[test]
fn por_fallback_is_reported() {
    let factory = || build_protocol(ProtocolKind::FullMap, ProtocolParams::default());
    let mut cfg = CheckConfig::small(6, 2);
    cfg.max_states = 200;
    let outcome = explore(&cfg, factory);
    let stats = outcome.stats().expect("a budget stop carries stats");
    assert_eq!(stats.por_off_slots, 6 * 6 + 6 + 6 * 2 * 3);
    assert_eq!(stats.sleep_pruned, 0);
    let line = report::render("FullMap", &cfg, &outcome, None);
    assert!(line.contains("POR off: 78 choice slots > 64"), "{line}");

    // Asked not to reduce, or reducing: nothing to report.
    cfg.por = false;
    assert_eq!(explore(&cfg, factory).stats().unwrap().por_off_slots, 0);
    let small = explore(&CheckConfig::small(2, 2), factory);
    assert_eq!(small.stats().unwrap().por_off_slots, 0);
    assert!(!report::render("FullMap", &cfg, &small, None).contains("POR off"));
}

/// Every shape `check_all` explores — P=2 and P=3 with one or two blocks,
/// P=4 and P=5 with one — fits the sleep mask, so the roster never runs
/// with the reduction silently off.
#[test]
fn roster_shapes_fit_the_sleep_mask() {
    for (nodes, blocks) in [(2, 1), (3, 1), (2, 2), (3, 2), (4, 1), (5, 1)] {
        let cfg = CheckConfig::small(nodes, blocks);
        let root = CheckState::new(
            nodes,
            cfg.fuel,
            cfg.addrs(),
            build_protocol(ProtocolKind::FullMap, ProtocolParams::default()),
        );
        assert!(
            root.sleep_bits() <= SLEEP_MASK_BITS,
            "P={nodes} B={blocks}: {} choice slots",
            root.sleep_bits()
        );
    }
}
