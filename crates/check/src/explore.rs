//! Exhaustive breadth-first exploration of the choice graph.
//!
//! Layer-synchronous BFS over [`CheckState`]s, in **bounded windows**: a
//! layer's frontier is taken `WINDOW_PER_JOB × jobs` states at a time
//! (64 per job), and each window is expanded — on the calling thread and
//! `jobs − 1` scoped helpers claiming states in frontier order, nothing
//! spawned at one job — scanned for violations in frontier order and
//! merged into the visited set and the next frontier in frontier order,
//! before the next window is expanded. Only one window's successors are
//! alive at a time, so a duplicate is dropped while its memory is still
//! hot instead of after the whole layer has been cloned.
//!
//! The windows cannot change the result, at any `jobs`: `expand` is a
//! pure function of `(state, mask, group, commute)` and never reads the
//! visited set, the same-layer duplicate map or either frontier, and a
//! merge only touches the *next* layer's entries — never a mask of the
//! layer being expanded. The merge therefore sees the same successors in
//! the same order as a whole-layer expansion, so the visited set, every
//! sleep mask, the next frontier's order and all four counters are
//! identical. The first violation in frontier order is still the first
//! one found (no earlier window had one), and its `states` is
//! `visited.len()` as the layer began, recorded before the first window.
//! The state and depth budgets are checked between layers.
//!
//! A frontier state is expanded by value: the worker that claims it owns
//! it, applies every awake choice but the last to a clone, and applies the
//! last one to the state itself. Nothing reads a frontier state once its
//! successors exist — the merge keeps its arena index, not the state — and
//! a clone behaves exactly like its original
//! (`exhaustive.rs: clones_behave_like_their_originals`), so the
//! successors are exactly those that cloning for every choice would give,
//! and a state with one awake choice is never cloned. The successors share
//! the parent's witness until one of them writes ([`CheckState`] on the
//! copy-on-write witness).
//!
//! Deduplication uses the canonical 64-bit state digest; two states with
//! equal digests are assumed identical and one is pruned (a digest
//! collision could in principle hide a state — at the few-million-state
//! scale of these runs the probability is ~1e-7, and a collision can only
//! cause a *missed* path, never a false alarm).
//!
//! Two sound reductions shrink the search (both on by default, both inert
//! for protocols that do not certify the required properties):
//!
//! * **Processor-permutation symmetry.** States are deduplicated by their
//!   *canonical* digest: the ordinary digest of one fixed member of the
//!   state's orbit under the group of node renamings that fix every
//!   in-play home node
//!   ([`dirtree_core::fingerprint::home_fixing_perms`]). The member is
//!   found by sorting, not by trying the whole group: the free nodes are
//!   ordered by a node-id-free signature of what the checker sees of them
//!   ([`CheckCtx::node_signature`](crate::ctx::CheckCtx::node_signature)),
//!   and the minimum digest is taken over the renamings that sort — one
//!   per ordering of the ties, about two of 24 at P = 5
//!   ([`CheckState::canonicalize`] carries the argument that this is the
//!   same quotient and the same sleep sets;
//!   [`ExploreStats::perms_tried`] counts). The reduction is sound
//!   exactly when the protocol is equivariant — relabeling a state and
//!   then handling a relabeled message equals handling and then
//!   relabeling — which protocols certify via
//!   [`Protocol::relabeled`]; uncertified protocols (including the
//!   fault-injection mutants, whose bugs may be deliberately asymmetric)
//!   degrade the group to the identity.
//!
//! * **Sleep sets** (partial-order reduction in the Godefroid style).
//!   Deliveries/ops at different nodes touching different blocks commute
//!   (certified per protocol via [`Protocol::deliveries_commute`]), so of
//!   the two orders of an independent pair only one needs its second step
//!   explored. Each frontier state carries a *sleep mask* of choices whose
//!   exploration is provably redundant; masks live in canonical
//!   coordinates in the visited map and follow the classic state-matching
//!   rule (prune a revisit iff its mask is a superset of the stored one,
//!   else re-expand with the intersection — which strictly shrinks, so
//!   the loop terminates). Sleep sets prune *transitions*, never states:
//!   every reachable state is still visited, so all state predicates
//!   (witness, invariants, deadlock, quiescence sweep) are checked
//!   exactly as in the unreduced search.
//!
//! BFS + in-order merge make the result independent of `jobs` and of the
//! window size, and the first reported counterexample is *minimal* in
//! choice count (under the reductions: minimal up to commuting-step
//! reordering and node renaming, both of which preserve trace length).

use crate::state::{CheckState, Choice, FreeNodes};
use dirtree_core::fingerprint::{home_fixing_perms, invert_perm};
use dirtree_core::protocol::Protocol;
use dirtree_core::types::{Addr, NodeId};
use dirtree_sim::FxHashMap;
use std::sync::Mutex;

/// One exploration's shape and budgets.
#[derive(Clone, Debug)]
pub struct CheckConfig {
    pub nodes: u32,
    /// Blocks in play: addresses `0, stride, 2·stride, …` (homes
    /// interleave mod nodes).
    pub blocks: u64,
    /// Spacing between in-play addresses (default 1). A stride equal to
    /// `nodes` puts every block on home 0, which keeps the home-fixing
    /// symmetry group large while still giving the sleep-set reduction
    /// multiple blocks to commute across.
    pub addr_stride: u64,
    /// Processor operations available per node.
    pub fuel: u32,
    /// State budget: exceeding it stops with a structured resource report.
    pub max_states: usize,
    /// Depth cap — the checker's bounded-step stall guard.
    pub max_depth: usize,
    /// Worker threads for frontier expansion.
    pub jobs: usize,
    /// Processor-permutation symmetry reduction (inert unless the protocol
    /// certifies [`Protocol::relabeled`]).
    pub symmetry: bool,
    /// Sleep-set partial-order reduction (inert unless the protocol
    /// certifies [`Protocol::deliveries_commute`]).
    pub por: bool,
}

impl CheckConfig {
    /// Defaults for the small exhaustively-checkable configurations: fuel
    /// 3 per node at P=2, fuel 2 at P=3, fuel 1 at P≥4 (the update-family
    /// state spaces at P=4 are too large at fuel 2 — Dir_1Tree_2U passed
    /// 4M states without exhausting — so the P≥4 tier trades op depth for
    /// processor count; the deeper histories are covered by the P=2/P=3
    /// tiers). The 8M-state budget is what the largest two-block P=3
    /// shapes of `check_all --deep` need to exhaust (Dir2Tree2A up1/dn0:
    /// 6.8M). Both reductions on.
    pub fn small(nodes: u32, blocks: u64) -> Self {
        Self {
            nodes,
            blocks,
            addr_stride: 1,
            fuel: match nodes {
                0..=2 => 3,
                3 => 2,
                _ => 1,
            },
            max_states: 8_000_000,
            max_depth: 500,
            jobs: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            symmetry: true,
            por: true,
        }
    }

    pub fn addrs(&self) -> Vec<Addr> {
        let stride = self.addr_stride.max(1);
        (0..self.blocks).map(|i| i * stride).collect()
    }
}

/// Work counters for one exploration — the measure the reductions shrink.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExploreStats {
    /// Successor computations (`apply` calls). This is the unit of work:
    /// symmetry divides the number of expanded states, sleep sets cut
    /// choices per expansion, and both show up here.
    pub explored: u64,
    /// Successors dropped because their canonical digest was already
    /// visited with a covering sleep mask.
    pub deduped: u64,
    /// Enabled choices skipped by the sleep-set reduction.
    pub sleep_pruned: u64,
    /// Symmetry group order (1 = reduction inert for this protocol).
    pub sym_group: u64,
    /// Calls to [`CheckState::canonicalize`]: one per successor plus the
    /// root.
    pub canon_calls: u64,
    /// Permutations those calls relabeled and digested, the identity
    /// included — `canon_calls` when the group is trivial, at most
    /// `sym_group` per call. The mean is the clock-free measure of how
    /// well the node signatures tell processors apart.
    pub perms_tried: u64,
    /// Choice slots a sleep mask would need for this shape, when that is
    /// more than the mask's [`SLEEP_MASK_BITS`] and the sleep-set
    /// reduction — asked for and certified by the protocol — was therefore
    /// left off. 0 otherwise.
    pub por_off_slots: u32,
}

impl ExploreStats {
    /// Mean permutations tried per canonicalization.
    pub fn mean_perms_tried(&self) -> f64 {
        self.perms_tried as f64 / self.canon_calls.max(1) as f64
    }
}

/// Width of a sleep mask: one bit per choice slot
/// ([`CheckState::sleep_bits`]).
pub const SLEEP_MASK_BITS: u32 = u64::BITS;

/// The shortest path to a violating state.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// Choices from the initial state; applying them in order reproduces
    /// the violation on the last step.
    pub choices: Vec<Choice>,
    /// The violation message (witness, invariant, deadlock, or protocol
    /// misbehavior flagged by the context).
    pub violation: String,
    /// States visited before the violating layer was expanded.
    pub states: u64,
}

/// Structured exploration result.
#[derive(Clone, Debug)]
pub enum CheckOutcome {
    /// Every reachable state checked out; the graph is exhausted.
    Pass {
        states: u64,
        depth: usize,
        stats: ExploreStats,
    },
    /// A violating state was found (shortest path attached).
    Violation(Counterexample),
    /// A budget stopped the search before exhaustion — reported as data,
    /// not a panic, so harnesses can distinguish "too big" from "broken".
    ResourceLimit {
        states: u64,
        depth: usize,
        reason: String,
        stats: ExploreStats,
    },
}

impl CheckOutcome {
    pub fn is_pass(&self) -> bool {
        matches!(self, CheckOutcome::Pass { .. })
    }

    pub fn states(&self) -> u64 {
        match self {
            CheckOutcome::Pass { states, .. } | CheckOutcome::ResourceLimit { states, .. } => {
                *states
            }
            CheckOutcome::Violation(cx) => cx.states,
        }
    }

    /// Work counters (`None` for violations, which stop mid-layer).
    pub fn stats(&self) -> Option<ExploreStats> {
        match self {
            CheckOutcome::Pass { stats, .. } | CheckOutcome::ResourceLimit { stats, .. } => {
                Some(*stats)
            }
            CheckOutcome::Violation(_) => None,
        }
    }
}

/// Sentinel arena index for the initial state.
const ROOT: usize = usize::MAX;

struct Succ {
    choice: Choice,
    state: CheckState,
    /// Canonical digest (of the orbit's representative).
    canon: u64,
    /// Sleep mask in canonical coordinates: the intersection of the
    /// concrete mask's images under every permutation onto the
    /// representative,
    /// which makes it invariant under the canonical state's automorphisms
    /// and therefore consistently translatable by *any* arrival (see
    /// [`CheckState::canonicalize`]). The frontier entry expands with
    /// exactly this mask mapped back through `argmin`'s inverse, so the
    /// visited map always records what the expansion truly slept with.
    canon_mask: u64,
    /// Index into the group of the (first) canonicalizing permutation.
    argmin: usize,
}

struct Expanded {
    arena_idx: usize,
    /// First violating choice (in choice order) out of this state.
    violation: Option<(Choice, String)>,
    succs: Vec<Succ>,
    explored: u64,
    sleep_pruned: u64,
    /// Permutations tried over this expansion's canonicalizations (one
    /// call per entry of `succs`).
    perms_tried: u64,
}

/// A frontier entry awaiting expansion. `argmin` is kept so a same-layer
/// duplicate arrival can shrink `mask` in place (mapping the intersected
/// canonical mask back through this state's own canonicalizing
/// permutation) instead of forcing a second expansion.
struct Pending {
    arena_idx: usize,
    state: CheckState,
    /// Sleep mask in this state's concrete coordinates.
    mask: u64,
    argmin: usize,
}

/// The symmetry group one exploration canonicalizes over: its
/// permutations (identity first), their inverses, and which nodes it
/// moves — all fixed for the whole search.
struct Group {
    perms: Vec<Vec<NodeId>>,
    inverses: Vec<Vec<NodeId>>,
    free: FreeNodes,
}

/// Compute a frontier state's successors, consuming the state: the last
/// awake choice applies to it instead of to a clone (module docs).
fn expand(pending: Pending, group: &Group, commute: bool) -> Expanded {
    let Pending {
        arena_idx,
        state,
        mask: sleep,
        ..
    } = pending;
    let choices = state.enabled_choices();
    let mut explored = 0u64;
    let mut sleep_pruned = 0u64;
    let mut perms_tried = 0u64;
    let mut succs = Vec::with_capacity(choices.len());
    // Bit position and (node, block) footprint per enabled choice.
    let info: Vec<(u32, (NodeId, Addr))> = choices
        .iter()
        .map(|&c| (state.choice_bit(c), state.choice_footprint(c)))
        .collect();
    let asleep = |bit: u32| commute && sleep & (1u64 << bit) != 0;
    let last_awake = info.iter().rposition(|&(bit, _)| !asleep(bit));
    let mut parent = Some(state);
    for (i, &choice) in choices.iter().enumerate() {
        let (bit_i, fp_i) = info[i];
        if asleep(bit_i) {
            // Provably redundant: an equivalent trace taking this choice
            // first was (or will be) explored from an earlier sibling.
            sleep_pruned += 1;
            continue;
        }
        explored += 1;
        let mut s = if Some(i) == last_awake {
            parent.take()
        } else {
            parent.clone()
        }
        .expect("the parent is moved only by the last awake choice");
        match s.apply(choice) {
            Ok(()) => {
                // Successor sleep set: everything already asleep here plus
                // the siblings explored before `choice`, filtered down to
                // the choices independent of `choice` (different node AND
                // different block — the certified commutation condition).
                let mut mask = 0u64;
                if commute {
                    for (j, &(bit_j, fp_j)) in info.iter().enumerate() {
                        if j == i {
                            continue;
                        }
                        let candidate = j < i || sleep & (1u64 << bit_j) != 0;
                        if candidate && fp_i.0 != fp_j.0 && fp_i.1 != fp_j.1 {
                            mask |= 1u64 << bit_j;
                        }
                    }
                }
                let ((canon, argmin, canon_mask), tried) =
                    s.canonicalize_counted(&group.perms, &group.free, mask);
                perms_tried += tried;
                succs.push(Succ {
                    choice,
                    state: s,
                    canon,
                    canon_mask,
                    argmin,
                });
            }
            Err(violation) => {
                return Expanded {
                    arena_idx,
                    violation: Some((choice, violation)),
                    succs: Vec::new(),
                    explored,
                    sleep_pruned,
                    perms_tried: 0,
                }
            }
        }
    }
    Expanded {
        arena_idx,
        violation: None,
        succs,
        explored,
        sleep_pruned,
        perms_tried,
    }
}

/// Frontier states per worker in one expand-and-merge window.
const WINDOW_PER_JOB: usize = 64;

/// Expand one window of the frontier on `jobs` workers — the calling
/// thread and `jobs − 1` scoped helpers claiming states in order from a
/// shared iterator — and return the expansions in frontier order,
/// whichever worker finished when.
fn expand_window(window: Vec<Pending>, jobs: usize, group: &Group, commute: bool) -> Vec<Expanded> {
    let len = window.len();
    let claims = Mutex::new(window.into_iter().enumerate());
    let work = || {
        let mut done = Vec::new();
        loop {
            let next = claims
                .lock()
                .expect("a worker panicked while claiming a state")
                .next();
            let Some((i, p)) = next else {
                break done;
            };
            done.push((i, expand(p, group, commute)));
        }
    };
    let mut done = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..jobs.clamp(1, len)).map(|_| scope.spawn(work)).collect();
        let mut done = work();
        for h in helpers {
            done.extend(h.join().expect("expansion worker panicked"));
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, exp)| exp).collect()
}

/// Exhaustively explore every interleaving of `factory()`'s protocol
/// under `cfg`, checking coherence, deadlock-freedom, and the protocol's
/// structural invariants at every state.
pub fn explore<F>(cfg: &CheckConfig, factory: F) -> CheckOutcome
where
    F: Fn() -> Box<dyn Protocol> + Sync,
{
    let mut root = CheckState::new(cfg.nodes, cfg.fuel, cfg.addrs(), factory());
    if let Err(violation) = root.post_check() {
        return CheckOutcome::Violation(Counterexample {
            choices: Vec::new(),
            violation,
            states: 1,
        });
    }
    // Build the symmetry group. The identity probe asks the protocol
    // whether it certifies equivariance at all; `None` leaves the group
    // trivial (canonical digest = ordinary digest, zero overhead beyond
    // one comparison).
    let ident: Vec<NodeId> = (0..cfg.nodes).collect();
    let perms: Vec<Vec<NodeId>> = if cfg.symmetry && root.proto.relabeled(&ident).is_some() {
        let homes: Vec<NodeId> = cfg
            .addrs()
            .iter()
            .map(|&a| (a % cfg.nodes as u64) as NodeId)
            .collect();
        home_fixing_perms(cfg.nodes, &homes)
    } else {
        vec![ident]
    };
    let group = Group {
        inverses: perms.iter().map(|p| invert_perm(p)).collect(),
        free: FreeNodes::of(&perms),
        perms,
    };
    // Sleep sets need one mask bit per choice slot; huge shapes fall back
    // to the unreduced search rather than a wider mask type — and say so
    // in the stats.
    let por_wanted = cfg.por && root.proto.deliveries_commute();
    let commute = por_wanted && root.sleep_bits() <= SLEEP_MASK_BITS;
    let ((root_canon, _, _), root_tried) = root.canonicalize_counted(&group.perms, &group.free, 0);
    let mut stats = ExploreStats {
        sym_group: group.perms.len() as u64,
        canon_calls: 1,
        perms_tried: root_tried,
        por_off_slots: if por_wanted && !commute {
            root.sleep_bits()
        } else {
            0
        },
        ..Default::default()
    };

    // Visited: canonical digest -> sleep mask (canonical coordinates) the
    // state was last expanded with. An empty mask means "fully expanded".
    let mut visited: FxHashMap<u64, u64> = FxHashMap::default();
    visited.insert(root_canon, 0);
    // (parent arena index, producing choice) per non-root state ever put
    // on a frontier; counterexamples walk this chain back to the root.
    let mut arena: Vec<(usize, Choice)> = Vec::new();
    let mut frontier: Vec<Pending> = vec![Pending {
        arena_idx: ROOT,
        state: root,
        mask: 0,
        argmin: 0,
    }];
    let mut depth = 0usize;
    loop {
        if frontier.is_empty() {
            return CheckOutcome::Pass {
                states: visited.len() as u64,
                depth,
                stats,
            };
        }
        if depth >= cfg.max_depth {
            return CheckOutcome::ResourceLimit {
                states: visited.len() as u64,
                depth,
                reason: format!(
                    "no quiescence after {} steps ({} states still expanding)",
                    cfg.max_depth,
                    frontier.len()
                ),
                stats,
            };
        }
        if visited.len() > cfg.max_states {
            return CheckOutcome::ResourceLimit {
                states: visited.len() as u64,
                depth,
                reason: format!("state budget of {} exceeded", cfg.max_states),
                stats,
            };
        }

        // The layer expands and merges in windows of frontier order, so
        // only one window's successors are alive at a time (module docs on
        // why the result cannot depend on the window size).
        let layer_start_states = visited.len() as u64;
        let window_len = WINDOW_PER_JOB * cfg.jobs.max(1);
        let mut rest = std::mem::take(&mut frontier).into_iter();
        // Same-layer duplicate arrivals intersect their sleep masks into
        // the pending frontier entry instead of queueing a second
        // expansion of the same state — without this, convergent graphs
        // (many same-depth predecessors per state) re-expand constantly
        // and the sleep-set reduction costs more work than it saves. It
        // spans the whole layer, not one window.
        let mut layer: FxHashMap<u64, usize> = FxHashMap::default();
        loop {
            let window: Vec<Pending> = rest.by_ref().take(window_len).collect();
            if window.is_empty() {
                break;
            }
            let expanded = expand_window(window, cfg.jobs, &group, commute);

            // Violations first, in frontier order: any hit in this layer is
            // depth-minimal, and the first one is the one a whole-layer
            // scan would find (no earlier window had one).
            for exp in &expanded {
                stats.explored += exp.explored;
                stats.sleep_pruned += exp.sleep_pruned;
                stats.canon_calls += exp.succs.len() as u64;
                stats.perms_tried += exp.perms_tried;
                if let Some((choice, violation)) = &exp.violation {
                    let mut choices = vec![*choice];
                    let mut idx = exp.arena_idx;
                    while idx != ROOT {
                        let (parent, c) = arena[idx];
                        choices.push(c);
                        idx = parent;
                    }
                    choices.reverse();
                    return CheckOutcome::Violation(Counterexample {
                        choices,
                        violation: violation.clone(),
                        states: layer_start_states,
                    });
                }
            }
            for exp in expanded {
                for succ in exp.succs {
                    match visited.get(&succ.canon).copied() {
                        None => {
                            visited.insert(succ.canon, succ.canon_mask);
                            arena.push((exp.arena_idx, succ.choice));
                            layer.insert(succ.canon, frontier.len());
                            let mask = succ
                                .state
                                .map_mask(succ.canon_mask, &group.inverses[succ.argmin]);
                            frontier.push(Pending {
                                arena_idx: arena.len() - 1,
                                state: succ.state,
                                mask,
                                argmin: succ.argmin,
                            });
                        }
                        Some(stored) => {
                            // State-matching sleep rule: the earlier expansion
                            // (skipping `stored`) covers this arrival iff it
                            // explored at least everything this arrival needs,
                            // i.e. stored ⊆ canon_mask. Otherwise re-expand
                            // with the intersection (strictly smaller than
                            // `stored`, so re-expansion terminates).
                            if stored & !succ.canon_mask == 0 {
                                stats.deduped += 1;
                                continue;
                            }
                            let inter = stored & succ.canon_mask;
                            visited.insert(succ.canon, inter);
                            if let Some(&pos) = layer.get(&succ.canon) {
                                // Still pending in the next layer: shrink its
                                // mask in place (its own coordinates).
                                let p = &mut frontier[pos];
                                p.mask = p.state.map_mask(inter, &group.inverses[p.argmin]);
                                stats.deduped += 1;
                            } else {
                                let concrete =
                                    succ.state.map_mask(inter, &group.inverses[succ.argmin]);
                                arena.push((exp.arena_idx, succ.choice));
                                layer.insert(succ.canon, frontier.len());
                                frontier.push(Pending {
                                    arena_idx: arena.len() - 1,
                                    state: succ.state,
                                    mask: concrete,
                                    argmin: succ.argmin,
                                });
                            }
                        }
                    }
                }
            }
        }
        depth += 1;
    }
}
