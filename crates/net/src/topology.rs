//! k-ary n-cube topology and dimension-order (e-cube) routing.
//!
//! A k-ary n-cube has `k^n` nodes; a node's address is its base-`k`
//! expansion over `n` digits. Two nodes are linked when their addresses
//! differ by ±1 (mod k) in exactly one digit. For `k = 2` this is the binary
//! hypercube the paper simulates, where each link is its own dimension and
//! wraparound is degenerate.

/// Index of a node in the machine. Kept as `u32` so hot message structs stay
/// small (see the type-size guidance in the Rust perf book).
pub type NodeId = u32;

/// Index of a directed link. `u32` everywhere — node counts are bounded by
/// `u32::MAX` and each node has `2n` links, so link ids fit comfortably;
/// conversion to `usize` happens only at the array-indexing boundary.
pub type LinkId = u32;

/// Upper bound on the dimension count of any [`Topology`]: `k ≥ 2` and
/// `kⁿ ≤ u32::MAX` give `n ≤ 31`, so per-dimension scratch fits fixed stack
/// arrays and a `u32` bitmask.
pub(crate) const MAX_DIMS: usize = 32;

/// A k-ary n-cube.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Topology {
    k: u32,
    n: u32,
    nodes: u32,
}

impl Topology {
    /// Create a k-ary n-cube. `k ≥ 2`, `n ≥ 1`, and `k^n` must fit in `u32`.
    pub fn kary_ncube(k: u32, n: u32) -> Self {
        assert!(k >= 2, "radix must be at least 2");
        assert!(n >= 1, "dimension must be at least 1");
        let mut nodes: u64 = 1;
        for _ in 0..n {
            nodes *= k as u64;
            assert!(nodes <= u32::MAX as u64, "topology too large");
        }
        Self {
            k,
            n,
            nodes: nodes as u32,
        }
    }

    /// Binary n-cube (hypercube) with `nodes` processors; `nodes` must be a
    /// power of two. This is the paper's network.
    pub fn hypercube(nodes: u32) -> Self {
        assert!(
            nodes.is_power_of_two() && nodes >= 2,
            "hypercube size must be a power of two >= 2, got {nodes}"
        );
        Self::kary_ncube(2, nodes.trailing_zeros())
    }

    pub fn radix(&self) -> u32 {
        self.k
    }

    pub fn dimensions(&self) -> u32 {
        self.n
    }

    pub fn num_nodes(&self) -> u32 {
        self.nodes
    }

    /// Number of directed links: each node has one link per dimension per
    /// direction (2 directions for k > 2; for k = 2 the +/- links coincide
    /// but we keep the uniform 2-per-dimension indexing).
    pub fn num_directed_links(&self) -> LinkId {
        self.nodes * self.n * 2
    }

    #[inline]
    fn digit(&self, node: NodeId, dim: u32) -> u32 {
        (node / self.k.pow(dim)) % self.k
    }

    #[inline]
    fn with_digit(&self, node: NodeId, dim: u32, digit: u32) -> NodeId {
        let weight = self.k.pow(dim);
        let old = self.digit(node, dim);
        node - old * weight + digit * weight
    }

    /// Minimal hop distance between two nodes.
    pub fn distance(&self, a: NodeId, b: NodeId) -> u32 {
        assert!(a < self.nodes && b < self.nodes);
        let mut d = 0;
        for dim in 0..self.n {
            let da = self.digit(a, dim);
            let db = self.digit(b, dim);
            let diff = (db + self.k - da) % self.k;
            d += diff.min(self.k - diff);
        }
        d
    }

    /// Dense id for the directed link leaving `node` along `dim` in
    /// direction `plus` (true = +1 mod k).
    #[inline]
    pub fn link_id(&self, node: NodeId, dim: u32, plus: bool) -> LinkId {
        (node * self.n + dim) * 2 + plus as LinkId
    }

    /// The next hop from `cur` toward `dst` along `dim`, if that dimension
    /// is productive (the digits differ): the directed link taken and the
    /// node it reaches, using the shorter wraparound direction (ties go
    /// to +) exactly like [`Topology::route`]. `None` when the dimension is
    /// already resolved.
    ///
    /// This is the reference derivation of a hop, for deterministic e-cube
    /// (always the lowest productive dimension) and the minimal-adaptive
    /// mode (any productive dimension, chosen by link backlog) alike: both
    /// route minimally because every hop reduces the remaining distance by
    /// one. [`Topology::route`] is built on it; [`RouteTable::build`] and
    /// the VC/adaptive send of [`crate::Network`] read a `RoutePlan` from
    /// a [`DigitTable`] instead of asking per dimension per hop, and are
    /// tested against it.
    #[inline]
    pub fn hop_toward(&self, cur: NodeId, dst: NodeId, dim: u32) -> Option<(LinkId, NodeId)> {
        let have = self.digit(cur, dim);
        let want = self.digit(dst, dim);
        if have == want {
            return None;
        }
        let up = (want + self.k - have) % self.k;
        let down = self.k - up;
        let plus = up <= down;
        let next_digit = if plus {
            (have + 1) % self.k
        } else {
            (have + self.k - 1) % self.k
        };
        Some((
            self.link_id(cur, dim, plus),
            self.with_digit(cur, dim, next_digit),
        ))
    }

    /// The e-cube route from `src` to `dst`: the sequence of directed links
    /// traversed, fixing dimensions from 0 upward and taking the shorter
    /// wraparound direction (ties go to +). Deterministic and minimal.
    ///
    /// This is the reference derivation; the simulator's send path walks a
    /// [`RouteTable`] that must agree with it instead of re-deriving per
    /// message.
    pub fn route(&self, src: NodeId, dst: NodeId, out: &mut Vec<LinkId>) {
        assert!(src < self.nodes && dst < self.nodes);
        out.clear();
        let mut cur = src;
        for dim in 0..self.n {
            while let Some((link, next)) = self.hop_toward(cur, dst, dim) {
                out.push(link);
                cur = next;
            }
        }
        debug_assert_eq!(cur, dst);
    }

    /// Neighbors of a node (deduplicated for k = 2).
    pub fn neighbors(&self, node: NodeId) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(2 * self.n as usize);
        for dim in 0..self.n {
            let d = self.digit(node, dim);
            let up = self.with_digit(node, dim, (d + 1) % self.k);
            let down = self.with_digit(node, dim, (d + self.k - 1) % self.k);
            if !out.contains(&up) && up != node {
                out.push(up);
            }
            if !out.contains(&down) && down != node {
                out.push(down);
            }
        }
        out
    }

    /// Network diameter in hops.
    pub fn diameter(&self) -> u32 {
        self.n * (self.k / 2)
    }
}

/// Every node's base-`k` digits, node-major, followed by the `n` weights
/// `k^dim`, in one allocation: `nodes × n + n` words, 8 KB for the P = 256
/// hypercube and 40 KB at P = 1024. Built once per [`crate::Network`] by
/// counting, so that routes are derived from it without a division.
#[derive(Clone, Debug)]
pub struct DigitTable {
    k: u32,
    n: u32,
    table: Box<[u32]>,
}

/// What every minimal route from one node to another does, per dimension
/// (bit or index `dim`).
#[derive(Clone, Copy, Debug)]
pub(crate) struct RoutePlan {
    /// The dimensions whose digits differ.
    pub(crate) productive: u32,
    /// The dimensions travelled plus: `up <= down`, the tie rule of
    /// [`Topology::hop_toward`]. A minimal route never changes direction in
    /// a dimension: a plus step turns `(up, down)` into `(up − 1, down + 1)`
    /// and a minus step into `(up + 1, down − 1)`, so `up <= down` keeps its
    /// truth value until the digits meet. Set for every resolved dimension
    /// too, where it means nothing.
    pub(crate) plus: u32,
    /// Hops to make in each dimension, `min(up, down)`; zero exactly where
    /// `productive` is clear.
    pub(crate) hops: [u32; MAX_DIMS],
}

impl RoutePlan {
    /// The route's length in hops.
    #[inline]
    pub(crate) fn distance(&self) -> u64 {
        self.hops.iter().map(|&h| h as u64).sum()
    }
}

impl DigitTable {
    /// The table of `topo`.
    pub fn new(topo: &Topology) -> Self {
        let (k, n) = (topo.radix(), topo.dimensions());
        let mut table = Vec::with_capacity((topo.num_nodes() as usize + 1) * n as usize);
        // Node 0 is all zeros; each next node adds one to the lowest digit
        // and carries.
        let mut digits = [0u32; MAX_DIMS];
        for _ in 0..topo.num_nodes() {
            table.extend_from_slice(&digits[..n as usize]);
            for d in &mut digits[..n as usize] {
                *d += 1;
                if *d < k {
                    break;
                }
                *d = 0;
            }
        }
        let mut weight = 1u32;
        for _ in 0..n {
            table.push(weight);
            weight = weight.wrapping_mul(k);
        }
        Self {
            k,
            n,
            table: table.into_boxed_slice(),
        }
    }

    /// Number of nodes described.
    fn nodes(&self) -> u32 {
        (self.table.len() / self.n as usize - 1) as u32
    }

    /// The `n` digits of `node`, lowest dimension first.
    #[inline]
    fn digits(&self, node: NodeId) -> &[u32] {
        let n = self.n as usize;
        &self.table[node as usize * n..][..n]
    }

    /// `k^dim` for each dimension.
    #[inline]
    fn weights(&self) -> &[u32] {
        &self.table[self.table.len() - self.n as usize..]
    }

    /// The route plan from `src` to `dst`, without a division or a branch.
    #[inline]
    pub(crate) fn plan(&self, src: NodeId, dst: NodeId) -> RoutePlan {
        let k = self.k;
        let (mut productive, mut plus) = (0, 0);
        let mut hops = [0; MAX_DIMS];
        let dims = hops.iter_mut().zip(self.digits(src)).zip(self.digits(dst));
        for (dim, ((hops, &have), &want)) in dims.enumerate() {
            // `(want − have) mod k` as a select: the sum is in [1, 2k − 1].
            let sum = want + k - have;
            let up = if sum >= k { sum - k } else { sum };
            let down = k - up;
            productive |= ((have != want) as u32) << dim;
            plus |= ((up <= down) as u32) << dim;
            *hops = up.min(down);
        }
        RoutePlan {
            productive,
            plus,
            hops,
        }
    }

    /// The node one hop from `cur` along `dim`, wrapping at digit `k − 1`
    /// (plus) or `0` (minus); the next digit is a select.
    #[inline]
    pub(crate) fn step(&self, cur: NodeId, dim: usize, plus: bool) -> NodeId {
        let (at, weight) = (self.digits(cur)[dim], self.weights()[dim]);
        let up = if at == self.k - 1 { 0 } else { at + 1 };
        let down = if at == 0 { self.k - 1 } else { at - 1 };
        let next = if plus { up } else { down };
        cur - at * weight + next * weight
    }

    /// The e-cube walk of `plan` from `src`: each hop's directed link, in
    /// route order (dimensions ascending, as [`Topology::route`]).
    #[inline]
    pub(crate) fn ecube_walk(&self, src: NodeId, plan: &RoutePlan, mut hop: impl FnMut(LinkId)) {
        let mut cur = src;
        let mut rest = plan.productive;
        while rest != 0 {
            let dim = rest.trailing_zeros();
            rest &= rest - 1;
            let plus = plan.plus >> dim & 1 != 0;
            for _ in 0..plan.hops[dim as usize] {
                hop((cur * self.n + dim) * 2 + plus as LinkId);
                cur = self.step(cur, dim as usize, plus);
            }
        }
    }
}

/// Precomputed e-cube routes for every `(src, dst)` pair, stored as one flat
/// `LinkId` arena plus an offset table (CSR layout), so the single-channel
/// send path reduces to a slice lookup. Built once per [`crate::Network`]
/// from its [`DigitTable`], one `RoutePlan` per pair.
///
/// Size: `nodes² + 1` offsets plus one `LinkId` per hop of every pair-wise
/// route; for the P = 256 hypercube that is ~1.3 MB, built in about 2 ms.
#[derive(Clone, Debug)]
pub struct RouteTable {
    nodes: u32,
    offsets: Vec<u32>,
    links: Vec<LinkId>,
}

impl RouteTable {
    /// Walk every pair's plan, in `(src, dst)` lexicographic order, into
    /// an arena sized exactly: every node sees the same multiset of
    /// distances (the k-ary n-cube is vertex-transitive), so the total hop
    /// count is `nodes` times node 0's distance sum.
    pub fn build(digits: &DigitTable) -> Self {
        let nodes = digits.nodes();
        let from_zero: u64 = (0..nodes).map(|dst| digits.plan(0, dst).distance()).sum();
        let total = u32::try_from(from_zero * nodes as u64).expect("route arena exceeds u32");
        let mut offsets = Vec::with_capacity(nodes as usize * nodes as usize + 1);
        let mut links = Vec::with_capacity(total as usize);
        offsets.push(0);
        for src in 0..nodes {
            for dst in 0..nodes {
                digits.ecube_walk(src, &digits.plan(src, dst), |link| links.push(link));
                offsets.push(links.len() as u32);
            }
        }
        debug_assert_eq!(links.len(), total as usize);
        Self {
            nodes,
            offsets,
            links,
        }
    }

    /// The precomputed route from `src` to `dst`, as a link-id slice.
    #[inline]
    pub fn route(&self, src: NodeId, dst: NodeId) -> &[LinkId] {
        debug_assert!(src < self.nodes && dst < self.nodes);
        let pair = src as usize * self.nodes as usize + dst as usize;
        let lo = self.offsets[pair] as usize;
        let hi = self.offsets[pair + 1] as usize;
        &self.links[lo..hi]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hypercube_basics() {
        let t = Topology::hypercube(8);
        assert_eq!(t.radix(), 2);
        assert_eq!(t.dimensions(), 3);
        assert_eq!(t.num_nodes(), 8);
        assert_eq!(t.diameter(), 3);
    }

    #[test]
    fn hypercube_distance_is_hamming() {
        let t = Topology::hypercube(32);
        for a in 0..32u32 {
            for b in 0..32u32 {
                assert_eq!(t.distance(a, b), (a ^ b).count_ones());
            }
        }
    }

    #[test]
    fn route_length_equals_distance() {
        let t = Topology::hypercube(16);
        let mut path = Vec::new();
        for a in 0..16u32 {
            for b in 0..16u32 {
                t.route(a, b, &mut path);
                assert_eq!(path.len() as u32, t.distance(a, b));
            }
        }
    }

    #[test]
    fn route_links_are_in_range() {
        let t = Topology::kary_ncube(4, 3);
        let mut path = Vec::new();
        for a in (0..t.num_nodes()).step_by(7) {
            for b in (0..t.num_nodes()).step_by(5) {
                t.route(a, b, &mut path);
                for &l in &path {
                    assert!(l < t.num_directed_links());
                }
            }
        }
    }

    #[test]
    fn kary_distance_uses_wraparound() {
        // 8-ary 1-cube: a ring of 8 nodes.
        let t = Topology::kary_ncube(8, 1);
        assert_eq!(t.distance(0, 7), 1);
        assert_eq!(t.distance(0, 4), 4);
        assert_eq!(t.distance(1, 6), 3);
    }

    #[test]
    fn kary_route_matches_distance() {
        let t = Topology::kary_ncube(3, 3); // 27 nodes
        let mut path = Vec::new();
        for a in 0..t.num_nodes() {
            for b in 0..t.num_nodes() {
                t.route(a, b, &mut path);
                assert_eq!(path.len() as u32, t.distance(a, b), "{a}->{b}");
            }
        }
    }

    #[test]
    fn self_route_is_empty() {
        let t = Topology::hypercube(8);
        let mut path = vec![1, 2, 3];
        t.route(5, 5, &mut path);
        assert!(path.is_empty());
    }

    #[test]
    fn hypercube_neighbors_differ_by_one_bit() {
        let t = Topology::hypercube(16);
        for node in 0..16u32 {
            let nbrs = t.neighbors(node);
            assert_eq!(nbrs.len(), 4);
            for nb in nbrs {
                assert_eq!((node ^ nb).count_ones(), 1);
            }
        }
    }

    #[test]
    fn routing_is_deterministic() {
        let t = Topology::kary_ncube(5, 2);
        let mut p1 = Vec::new();
        let mut p2 = Vec::new();
        t.route(3, 21, &mut p1);
        t.route(3, 21, &mut p2);
        assert_eq!(p1, p2);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_hypercube_rejected() {
        Topology::hypercube(12);
    }

    /// Every pair of every hypercube from 2 to 256 nodes, and of a spread
    /// of radices: rings (n = 1), odd radices (no half-way tie) and even
    /// ones (the tie goes plus), up to 256 nodes.
    #[test]
    fn route_table_matches_reference_derivation() {
        let hypercubes = (1..=8).map(|n| Topology::hypercube(1 << n));
        let kary = [
            (2, 1),
            (3, 1),
            (3, 2),
            (3, 3),
            (4, 2),
            (4, 3),
            (5, 2),
            (5, 3),
            (6, 2),
            (7, 2),
            (8, 2),
            (10, 1),
            (16, 2),
        ]
        .map(|(k, n)| Topology::kary_ncube(k, n));
        for topo in hypercubes.chain(kary) {
            let table = RouteTable::build(&DigitTable::new(&topo));
            let mut path = Vec::new();
            for a in 0..topo.num_nodes() {
                for b in 0..topo.num_nodes() {
                    topo.route(a, b, &mut path);
                    assert_eq!(table.route(a, b), path.as_slice(), "{topo:?} {a}->{b}");
                }
            }
        }
    }

    /// P = 512 (n = 9) and P = 1024 (n = 10) hypercubes — the `scale_up`
    /// extension sizes. The CSR route-table arena must not overflow its
    /// `u32` offsets, and e-cube routes stay minimal with in-range links.
    /// Pairs are spot-verified on a deterministic sample; the full
    /// cross-product is covered at P = 256 below.
    #[test]
    fn p512_p1024_route_tables_build_without_overflow() {
        for nodes in [512u32, 1024] {
            let t = Topology::hypercube(nodes);
            assert_eq!(t.num_directed_links(), nodes * t.dimensions() * 2);
            let table = RouteTable::build(&DigitTable::new(&t));
            let mut path = Vec::new();
            for a in (0..nodes).step_by(37) {
                for b in (0..nodes).step_by(41) {
                    t.route(a, b, &mut path);
                    assert_eq!(path.len() as u32, (a ^ b).count_ones(), "{a}->{b}");
                    assert_eq!(table.route(a, b), path.as_slice(), "{a}->{b}");
                    for &l in &path {
                        assert!(l < t.num_directed_links());
                    }
                }
            }
        }
    }

    /// Any walk that only takes productive hops is minimal — the property
    /// the adaptive router relies on. Exercised with the *highest*
    /// productive dimension each hop (the opposite of e-cube order) so the
    /// walk is maximally different from the reference route while still
    /// reaching `dst` in exactly `distance` hops.
    #[test]
    fn productive_hops_reach_destination_minimally() {
        for t in [
            Topology::hypercube(512),
            Topology::hypercube(1024),
            Topology::kary_ncube(3, 3),
        ] {
            let nodes = t.num_nodes();
            for a in (0..nodes).step_by(97) {
                for b in (0..nodes).step_by(89) {
                    let mut cur = a;
                    let mut hops = 0;
                    while cur != b {
                        let (link, next) = (0..t.dimensions())
                            .rev()
                            .find_map(|dim| t.hop_toward(cur, b, dim))
                            .expect("cur != dst must have a productive dimension");
                        assert!(link < t.num_directed_links());
                        cur = next;
                        hops += 1;
                        assert!(hops <= t.diameter(), "walk exceeded the diameter");
                    }
                    assert_eq!(hops, t.distance(a, b), "{a}->{b}");
                }
            }
        }
    }

    /// P = 256 (n = 8 hypercube) construction and routing, in the default
    /// test tier: every pair routes with length = Hamming distance, every
    /// hop flips exactly one address bit, and the precomputed table agrees.
    #[test]
    fn p256_hypercube_construction_and_routing() {
        let t = Topology::hypercube(256);
        assert_eq!(t.radix(), 2);
        assert_eq!(t.dimensions(), 8);
        assert_eq!(t.num_directed_links(), 256 * 8 * 2);
        let table = RouteTable::build(&DigitTable::new(&t));
        let mut path = Vec::new();
        for a in 0..256u32 {
            for b in 0..256u32 {
                t.route(a, b, &mut path);
                assert_eq!(path.len() as u32, (a ^ b).count_ones(), "{a}->{b}");
                assert_eq!(table.route(a, b), path.as_slice(), "{a}->{b}");
                // E-cube: dimensions fixed in ascending order, each hop
                // leaving the node reached by flipping the previous bits.
                let mut cur = a;
                for &l in &path {
                    let node = l / (2 * t.dimensions());
                    let dim = (l / 2) % t.dimensions();
                    assert_eq!(node, cur, "hop leaves the wrong node");
                    assert!(l < t.num_directed_links());
                    cur ^= 1 << dim;
                }
                assert_eq!(cur, b);
            }
        }
    }
}
