//! Interconnect topologies: deterministic per-pair routes and costs.
//!
//! The paper's MetaBlade hangs every node off one Fast-Ethernet switch —
//! a star. At the 512–1024-rank scale the event-driven executor now
//! simulates, real machines of the era (Dubinski et al.'s teraflop
//! Beowulf, see PAPERS.md) were multi-switch trees with oversubscribed
//! uplinks, and direct-network machines used tori. A [`Topology`] names
//! one of those wiring plans and answers two questions about a node
//! pair, both as **pure functions** of `(topology, src, dst)`:
//!
//! * [`Topology::route`] — the ordered shared links a message traverses
//!   (used for per-link occupancy accounting and the route-property
//!   tests);
//! * [`Topology::path`] — the scalar cost profile of that route: how
//!   many latency hops it crosses and how many extra store-and-forward
//!   serializations it pays, with inter-switch links slowed by the
//!   uplink oversubscription factor.
//!
//! **Route determinism rules.** All queueing in this simulator is
//! carried by the ranks' own virtual clocks (see [`crate::comm`]); the
//! network layer holds no mutable link state, which is what makes
//! outcomes bit-identical under every executor policy. Contention on
//! shared links is therefore modeled *deterministically*: an
//! oversubscribed uplink serializes bytes at `oversubscription ×` the
//! edge gap (the time-averaged effective bandwidth of a saturated
//! shared link), and a torus hop chain re-serializes at every
//! intermediate router. Routes themselves are fixed by arithmetic —
//! fat-tree paths climb to the lowest common ancestor switch,
//! dimension-ordered torus routing breaks ring-distance ties in the
//! positive direction — so two messages between the same pair always
//! take the same links, in the same order, on every host and under
//! every `MB_PARALLEL` width.
//!
//! [`Topology::link_occupancy`] folds a finished run's per-peer traffic
//! counters over the routes, yielding bytes/messages per named link —
//! post-hoc derivation keeps the hot send path free of per-link
//! bookkeeping and keeps [`crate::comm::CommStats`] (and with it every
//! committed outcome fingerprint) unchanged.
//!
//! [`LinkTable`] interns every link cross-job contention accounting can
//! charge to a dense [`LinkId`], keyed on `(Link, ECMP way)`, so the
//! scheduler's per-event path never builds or compares a link name.

use std::collections::BTreeMap;
use std::fmt;

use crate::comm::CommStats;

/// A cluster interconnect wiring plan. `Star` is the paper's machine
/// and the default everywhere; the hierarchical variants make 128+ rank
/// simulations pay realistic bisection and incast costs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Topology {
    /// Every node one full-duplex link from a single ideal switch (the
    /// paper's §3.1 machine). Per-pair costs are uniform; the timing
    /// arithmetic is bit-identical to the pre-topology model.
    Star,
    /// A `levels`-tier tree of `radix`-port switch groups: nodes
    /// `[i·radix, (i+1)·radix)` share edge switch `i`, and each tier
    /// aggregates `radix` switches of the tier below. Inter-switch
    /// links are `uplink_oversubscription ×` slower than edge links
    /// (effective bandwidth under full-bisection load).
    FatTree {
        /// Ports per switch toward the lower tier (≥ 2).
        radix: usize,
        /// Switch tiers (≥ 1); capacity is `radix^levels` nodes.
        levels: usize,
        /// Effective slowdown of inter-switch links (≥ 1.0); 1.0 is a
        /// non-blocking (full-bisection) tree.
        uplink_oversubscription: f64,
    },
    /// A direct network: nodes on a 3-D wrap-around grid, one router
    /// per node, dimension-ordered routing. Use `1` for unused
    /// dimensions (e.g. `[16, 8, 1]` is a 2-D torus).
    Torus {
        /// Ring lengths per dimension (each ≥ 1); capacity is their
        /// product.
        dims: [usize; 3],
    },
}

/// One directed link in a route. Link identities are stable strings
/// (via `Display`) so occupancy counters aggregate across runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Link {
    /// Node NIC into its first switch.
    HostUp(usize),
    /// Last switch down into the destination NIC.
    HostDown(usize),
    /// Fat-tree uplink out of switch `sw` at tier `level` (1-based).
    Up {
        /// Tier of the switch the link leaves (1 = edge).
        level: usize,
        /// Switch index within the tier.
        sw: usize,
    },
    /// Fat-tree downlink into switch `sw` at tier `level`.
    Down {
        /// Tier of the switch the link enters (1 = edge).
        level: usize,
        /// Switch index within the tier.
        sw: usize,
    },
    /// Torus cable from router `from` to neighbouring router `to`.
    Hop {
        /// Source router (node id).
        from: usize,
        /// Destination router (node id).
        to: usize,
    },
}

impl Link {
    /// Fat-tree inter-switch links (`Up` / `Down`): the links ECMP
    /// spreads over and oversubscription slows.
    pub fn is_fabric(&self) -> bool {
        matches!(self, Link::Up { .. } | Link::Down { .. })
    }
}

impl fmt::Display for Link {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Link::HostUp(n) => write!(f, "host-up:{n}"),
            Link::HostDown(n) => write!(f, "host-down:{n}"),
            Link::Up { level, sw } => write!(f, "up:l{level}.s{sw}"),
            Link::Down { level, sw } => write!(f, "down:l{level}.s{sw}"),
            Link::Hop { from, to } => write!(f, "hop:{from}>{to}"),
        }
    }
}

/// Scalar cost profile of one route (see [`Topology::path`]). The
/// network model turns this into seconds; keeping it integer-and-factor
/// valued here keeps the cost function exactly reproducible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathProfile {
    /// Switch/router traversals, each charged one wire latency.
    pub latency_hops: usize,
    /// Store-and-forward re-serializations at the edge-link rate.
    pub edge_resers: usize,
    /// Store-and-forward re-serializations on inter-switch links, each
    /// at `oversub ×` the edge gap.
    pub uplink_resers: usize,
    /// Effective slowdown factor of the inter-switch links crossed
    /// (1.0 when the route stays under one switch).
    pub oversub: f64,
}

/// Aggregate traffic over one link (see [`Topology::link_occupancy`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkLoad {
    /// Messages that traversed the link.
    pub msgs: u64,
    /// Payload bytes that traversed the link.
    pub bytes: u64,
}

impl Topology {
    /// A validated fat-tree. Panics on a degenerate shape.
    pub fn fat_tree(radix: usize, levels: usize, uplink_oversubscription: f64) -> Self {
        assert!(radix >= 2, "fat-tree radix must be at least 2");
        assert!(levels >= 1, "fat-tree needs at least one switch tier");
        assert!(
            uplink_oversubscription >= 1.0,
            "oversubscription below 1.0 would make shared links faster than edge links"
        );
        Topology::FatTree {
            radix,
            levels,
            uplink_oversubscription,
        }
    }

    /// A validated 3-D torus (use dimension length 1 for unused axes).
    pub fn torus(dims: [usize; 3]) -> Self {
        assert!(
            dims.iter().all(|&d| d >= 1),
            "torus dimensions must all be at least 1"
        );
        Topology::Torus { dims }
    }

    /// Maximum node count this topology can wire; `None` = unbounded
    /// (the ideal star switch has as many ports as it needs).
    pub fn capacity(&self) -> Option<usize> {
        match *self {
            Topology::Star => None,
            Topology::FatTree { radix, levels, .. } => {
                Some(radix.checked_pow(levels as u32).unwrap_or(usize::MAX))
            }
            Topology::Torus { dims } => Some(dims[0] * dims[1] * dims[2]),
        }
    }

    /// Short stable label for bench records and metric names:
    /// `star`, `ft16x2o4`, `torus8x4x2`.
    pub fn label(&self) -> String {
        match *self {
            Topology::Star => "star".to_string(),
            Topology::FatTree {
                radix,
                levels,
                uplink_oversubscription: o,
            } => {
                if o.fract() == 0.0 {
                    format!("ft{radix}x{levels}o{}", o as u64)
                } else {
                    format!("ft{radix}x{levels}o{o}")
                }
            }
            Topology::Torus { dims } => format!("torus{}x{}x{}", dims[0], dims[1], dims[2]),
        }
    }

    /// Smallest tier at which `a` and `b` share an ancestor switch
    /// (1 = same edge switch). Fat-tree only.
    fn lca_level(radix: usize, a: usize, b: usize) -> usize {
        let (mut a, mut b, mut k) = (a / radix, b / radix, 1);
        while a != b {
            a /= radix;
            b /= radix;
            k += 1;
        }
        k
    }

    /// The cost profile of the `src → dst` route. Self-sends loop back
    /// through the local switch/router and cost exactly one latency hop.
    pub fn path(&self, src: usize, dst: usize) -> PathProfile {
        match *self {
            Topology::Star => PathProfile {
                latency_hops: 1,
                edge_resers: 1,
                uplink_resers: 0,
                oversub: 1.0,
            },
            Topology::FatTree {
                radix,
                uplink_oversubscription,
                ..
            } => {
                let k = Self::lca_level(radix, src, dst);
                PathProfile {
                    // Up through k−1 switches, across the tier-k ancestor,
                    // down through k−1: 2k−1 switch traversals.
                    latency_hops: 2 * k - 1,
                    // The final switch→NIC serialization (the star's one
                    // store-and-forward hop) plus 2(k−1) inter-switch
                    // egresses at the oversubscribed rate.
                    edge_resers: 1,
                    uplink_resers: 2 * (k - 1),
                    oversub: if k > 1 { uplink_oversubscription } else { 1.0 },
                }
            }
            Topology::Torus { dims } => {
                let h: usize = (0..3)
                    .map(|d| {
                        let (a, b) = (Self::coords(dims, src)[d], Self::coords(dims, dst)[d]);
                        let fwd = (b + dims[d] - a) % dims[d];
                        fwd.min(dims[d] - fwd)
                    })
                    .sum();
                PathProfile {
                    // One router+cable latency per hop; a neighbour is one
                    // direct cable (no switch in the middle), a self-send
                    // one loopback hop.
                    latency_hops: h.max(1),
                    // Each intermediate router store-and-forwards once.
                    edge_resers: h.saturating_sub(1),
                    uplink_resers: 0,
                    oversub: 1.0,
                }
            }
        }
    }

    fn coords(dims: [usize; 3], node: usize) -> [usize; 3] {
        [
            node % dims[0],
            (node / dims[0]) % dims[1],
            node / (dims[0] * dims[1]),
        ]
    }

    fn node_at(dims: [usize; 3], c: [usize; 3]) -> usize {
        c[0] + dims[0] * (c[1] + dims[1] * c[2])
    }

    /// The ordered directed links a `src → dst` message traverses.
    /// Deterministic: fat-tree routes climb to the lowest common
    /// ancestor; torus routes are dimension-ordered (x, then y, then z)
    /// taking the shorter ring direction, ties broken positively.
    pub fn route(&self, src: usize, dst: usize) -> Vec<Link> {
        match *self {
            Topology::Star => vec![Link::HostUp(src), Link::HostDown(dst)],
            Topology::FatTree { radix, .. } => {
                let k = Self::lca_level(radix, src, dst);
                let mut links = vec![Link::HostUp(src)];
                for l in 1..k {
                    links.push(Link::Up {
                        level: l,
                        sw: src / radix.pow(l as u32),
                    });
                }
                for l in (1..k).rev() {
                    links.push(Link::Down {
                        level: l,
                        sw: dst / radix.pow(l as u32),
                    });
                }
                links.push(Link::HostDown(dst));
                links
            }
            Topology::Torus { dims } => {
                let mut links = Vec::new();
                let mut cur = Self::coords(dims, src);
                let goal = Self::coords(dims, dst);
                for d in 0..3 {
                    while cur[d] != goal[d] {
                        let fwd = (goal[d] + dims[d] - cur[d]) % dims[d];
                        let back = dims[d] - fwd;
                        let from = Self::node_at(dims, cur);
                        // Shorter direction wins; an exact half-ring tie
                        // goes positive so both endpoints agree.
                        cur[d] = if fwd <= back {
                            (cur[d] + 1) % dims[d]
                        } else {
                            (cur[d] + dims[d] - 1) % dims[d]
                        };
                        links.push(Link::Hop {
                            from,
                            to: Self::node_at(dims, cur),
                        });
                    }
                }
                links
            }
        }
    }

    /// Parallel uplink "ways" a deterministic ECMP-style hash can
    /// spread flows over. A `radix`-port switch with oversubscription
    /// `o` has `⌊radix / o⌋` physical uplinks (at least one); the star
    /// switch and torus cables are single links.
    pub fn ecmp_ways(&self) -> usize {
        match *self {
            Topology::FatTree {
                radix,
                uplink_oversubscription,
                ..
            } => (((radix as f64) / uplink_oversubscription).floor() as usize).max(1),
            _ => 1,
        }
    }

    /// Links of the `src → dst` route for *cross-job contention
    /// accounting*, as ids of `links`, with deterministic ECMP-style
    /// spreading over the parallel uplink ways the table was built for.
    /// The way is an FNV-1a hash of `(src, dst, salt)` — callers salt
    /// with the job id, so two jobs between the same switch pair usually
    /// land on different physical uplinks while every rank of one flow
    /// stays on one way (no reordering). Host links and torus cables
    /// never spread (one NIC, one cable). A pure function of
    /// `(topology, src, dst, salt, ways)`, same on every host and under
    /// every executor width.
    pub fn contention_links<'t>(
        &self,
        links: &'t LinkTable,
        src: usize,
        dst: usize,
        salt: u64,
    ) -> impl Iterator<Item = LinkId> + 't {
        debug_assert!(*self == links.topo, "link table built for another topology");
        let ways = links.ways;
        let way = if ways > 1 {
            let mut h = mb_telemetry::Fnv::new();
            h.write_u64(src as u64);
            h.write_u64(dst as u64);
            h.write_u64(salt);
            (h.finish() % ways as u64) as usize
        } else {
            0
        };
        self.route(src, dst).into_iter().map(move |l| {
            let w = if l.is_fabric() { way } else { 0 };
            links.id(l, w)
        })
    }

    /// Fold a finished run's per-peer traffic counters over the routes:
    /// bytes and messages per named link. `node_ids` maps job rank →
    /// physical node (identity when `None`, the whole-cluster case).
    /// Purely derived data — consumes [`CommStats`], never feeds back
    /// into the simulation, so fingerprinted outcomes are untouched.
    pub fn link_occupancy(
        &self,
        stats: &[CommStats],
        node_ids: Option<&[usize]>,
    ) -> BTreeMap<String, LinkLoad> {
        let node = |rank: usize| node_ids.map_or(rank, |m| m[rank]);
        let mut occ: BTreeMap<String, LinkLoad> = BTreeMap::new();
        for (src, s) in stats.iter().enumerate() {
            for (dst, peer) in s.peers.iter().enumerate() {
                if peer.msgs_to == 0 {
                    continue;
                }
                for link in self.route(node(src), node(dst)) {
                    let load = occ.entry(link.to_string()).or_default();
                    load.msgs += peer.msgs_to;
                    load.bytes += peer.bytes_to;
                }
            }
        }
        occ
    }
}

/// Publish per-link loads into a telemetry registry as
/// `network/link_bytes` / `network/link_msgs` counters labelled by the
/// link name — they ride the Chrome counter-track and Prometheus export
/// paths like every other metric.
pub fn record_link_occupancy(
    reg: &mut mb_telemetry::metrics::Registry,
    occ: &BTreeMap<String, LinkLoad>,
) {
    for (link, load) in occ {
        reg.count("network/link_bytes", link, load.bytes);
        reg.count("network/link_msgs", link, load.msgs);
    }
}

/// Interned id of one contention link in a [`LinkTable`].
pub type LinkId = u32;

/// Slot no route between the table's nodes can use.
const NO_LINK: LinkId = LinkId::MAX;

/// The per-run table of every link cross-job contention accounting can
/// charge, interned to dense [`LinkId`]s.
///
/// A link's identity is the structural pair `(Link, ECMP way)`, so
/// [`LinkTable::id`] is index arithmetic and never builds a string. The
/// table is built once per run, and ids are assigned in ascending order
/// of the link *names* (`host-up:3`, `up:l1.s2.w3`, …): walking ids in
/// ascending order visits links exactly as a name-keyed map would, which
/// keeps every per-link sum and every per-link telemetry series in the
/// order name-keyed accounting produced. Beside its name, each id
/// carries the link's effective serialization gap and, for a level-1
/// uplink, the edge group it leaves.
#[derive(Debug, Clone)]
pub struct LinkTable {
    topo: Topology,
    ways: usize,
    /// Host links per direction (`nodes` on star and fat tree; torus
    /// routes cross none).
    hosts: usize,
    /// Per fat-tree tier `1..levels`: the first slot of its uplinks and
    /// its switch count (the downlinks follow the uplinks).
    tiers: Vec<(usize, usize)>,
    /// Structural slot → id.
    ids: Vec<LinkId>,
    /// By id: the structural link and its way.
    links: Vec<(Link, usize)>,
    /// By id (hence ascending).
    names: Vec<String>,
    /// By id: serialization seconds per byte.
    eff_gap: Vec<f64>,
}

impl LinkTable {
    /// Every link a route between nodes `0..nodes` of `topo` can cross,
    /// with fabric links spread over `ways` ECMP ways. Fat-tree fabric
    /// links serialize at `oversubscription ×` the edge gap
    /// `gap_s_per_byte` (the effective-bandwidth convention
    /// [`Topology::path`] charges inside one job); host links and torus
    /// cables at the edge gap.
    pub fn new(topo: &Topology, nodes: usize, ways: usize, gap_s_per_byte: f64) -> Self {
        if let Some(cap) = topo.capacity() {
            assert!(nodes <= cap, "{nodes} nodes exceed {}", topo.label());
        }
        let ways = ways.max(1);
        let mut hosts = 0;
        let mut tiers = Vec::new();
        // Every structural slot with its link, in slot order.
        let mut slots: Vec<Option<(Link, usize)>> = Vec::new();
        match *topo {
            Topology::Star | Topology::FatTree { .. } => {
                hosts = nodes;
                slots.extend((0..nodes).map(|n| Some((Link::HostUp(n), 0))));
                slots.extend((0..nodes).map(|n| Some((Link::HostDown(n), 0))));
                if let Topology::FatTree { radix, levels, .. } = *topo {
                    for level in 1..levels {
                        let switches = nodes.div_ceil(radix.pow(level as u32));
                        tiers.push((slots.len(), switches));
                        let ups = (0..switches).map(|sw| Link::Up { level, sw });
                        let downs = (0..switches).map(|sw| Link::Down { level, sw });
                        for link in ups.chain(downs) {
                            slots.extend((0..ways).map(|w| Some((link, w))));
                        }
                    }
                }
            }
            Topology::Torus { dims } => {
                // Intermediate routers of a route may lie beyond `nodes`:
                // cover the whole grid, six neighbours (±x, ±y, ±z) each.
                for from in 0..dims[0] * dims[1] * dims[2] {
                    let c = Topology::coords(dims, from);
                    for d in 0..3 {
                        for step in [1, dims[d] - 1] {
                            let mut to = c;
                            to[d] = (c[d] + step) % dims[d];
                            slots.push((dims[d] > 1).then(|| {
                                let to = Topology::node_at(dims, to);
                                (Link::Hop { from, to }, 0)
                            }));
                        }
                    }
                }
            }
        }
        let name = |&(link, way): &(Link, usize)| {
            if link.is_fabric() && ways > 1 {
                format!("{link}.w{way}")
            } else {
                link.to_string()
            }
        };
        let slot_names: Vec<Option<String>> = slots.iter().map(|s| s.as_ref().map(name)).collect();
        let mut named: Vec<(&str, (Link, usize))> = slot_names
            .iter()
            .zip(&slots)
            .filter_map(|(n, s)| Some((n.as_deref()?, (*s)?)))
            .collect();
        named.sort_by(|a, b| a.0.cmp(b.0));
        // A ring of two reaches the same neighbour both ways round.
        named.dedup_by(|a, b| a.0 == b.0);
        let find = |n: &str| named.binary_search_by(|e| e.0.cmp(n)).expect("named") as LinkId;
        let ids = slot_names
            .iter()
            .map(|n| n.as_deref().map_or(NO_LINK, find))
            .collect();
        let eff_gap = named
            .iter()
            .map(|(_, (link, _))| match *topo {
                Topology::FatTree {
                    uplink_oversubscription: o,
                    ..
                } if link.is_fabric() => gap_s_per_byte * o,
                _ => gap_s_per_byte,
            })
            .collect();
        Self {
            topo: *topo,
            ways,
            hosts,
            tiers,
            ids,
            links: named.iter().map(|e| e.1).collect(),
            names: named.iter().map(|e| e.0.to_string()).collect(),
            eff_gap,
        }
    }

    /// Number of distinct links.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when no route can cross any link (a zero-node table).
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// The topology the table was built for.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The id of `link` on ECMP way `way` (0 for non-fabric links).
    pub fn id(&self, link: Link, way: usize) -> LinkId {
        let slot = match link {
            Link::HostUp(n) | Link::HostDown(n) => {
                debug_assert!(n < self.hosts, "host link {link} beyond the table");
                let down = usize::from(matches!(link, Link::HostDown(_)));
                down * self.hosts + n
            }
            Link::Up { level, sw } | Link::Down { level, sw } => {
                let (base, switches) = self.tiers[level - 1];
                debug_assert!(
                    sw < switches && way < self.ways,
                    "{link} way {way} beyond the table"
                );
                let down = usize::from(matches!(link, Link::Down { .. }));
                base + (down * switches + sw) * self.ways + way
            }
            Link::Hop { from, to } => {
                let Topology::Torus { dims } = self.topo else {
                    unreachable!("torus hop on a {} table", self.topo.label())
                };
                let (a, b) = (Topology::coords(dims, from), Topology::coords(dims, to));
                let d = (0..3).find(|&d| a[d] != b[d]).expect("a hop moves");
                let back = usize::from(b[d] != (a[d] + 1) % dims[d]);
                from * 6 + d * 2 + back
            }
        };
        let id = self.ids[slot];
        assert_ne!(id, NO_LINK, "{link} way {way} is not in the table");
        id
    }

    /// The id of the link named `name`, if the table has one.
    pub fn lookup(&self, name: &str) -> Option<LinkId> {
        self.names
            .binary_search_by(|n| n.as_str().cmp(name))
            .ok()
            .map(|i| i as LinkId)
    }

    /// Stable name of a link: its [`Link`] `Display` string, with a
    /// `.w{way}` suffix on fabric links when flows spread over more than
    /// one way.
    pub fn name(&self, id: LinkId) -> &str {
        &self.names[id as usize]
    }

    /// The structural link behind an id, with its ECMP way.
    pub fn link(&self, id: LinkId) -> (Link, usize) {
        self.links[id as usize]
    }

    /// Effective serialization seconds per byte of a link.
    pub fn eff_gap(&self, id: LinkId) -> f64 {
        self.eff_gap[id as usize]
    }

    /// Fat-tree inter-switch link (any tier, any way)?
    pub fn is_fabric(&self, id: LinkId) -> bool {
        self.links[id as usize].0.is_fabric()
    }

    /// The edge switch a level-1 uplink leaves (any way); `None` for
    /// every other link.
    pub fn edge_group(&self, id: LinkId) -> Option<usize> {
        match self.links[id as usize].0 {
            Link::Up { level: 1, sw } => Some(sw),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift so the property loops are seeded, not
    /// host-random (the repo's proptest idiom).
    fn rng(seed: u64) -> impl FnMut(usize) -> usize {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        move |n| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s % n.max(1) as u64) as usize
        }
    }

    #[test]
    fn capacities_and_labels() {
        assert_eq!(Topology::Star.capacity(), None);
        assert_eq!(Topology::Star.label(), "star");
        let ft = Topology::fat_tree(16, 2, 4.0);
        assert_eq!(ft.capacity(), Some(256));
        assert_eq!(ft.label(), "ft16x2o4");
        let t = Topology::torus([8, 4, 2]);
        assert_eq!(t.capacity(), Some(64));
        assert_eq!(t.label(), "torus8x4x2");
    }

    #[test]
    #[should_panic(expected = "radix")]
    fn degenerate_fat_tree_is_rejected() {
        Topology::fat_tree(1, 2, 4.0);
    }

    #[test]
    fn star_route_is_two_links_through_the_switch() {
        let r = Topology::Star.route(3, 7);
        assert_eq!(r, vec![Link::HostUp(3), Link::HostDown(7)]);
        let p = Topology::Star.path(3, 7);
        assert_eq!(p.latency_hops, 1);
        assert_eq!(p.edge_resers, 1);
        assert_eq!(p.uplink_resers, 0);
    }

    #[test]
    fn fat_tree_same_edge_switch_reduces_to_star_costs() {
        let ft = Topology::fat_tree(16, 2, 4.0);
        let p = ft.path(0, 15); // both under edge switch 0
        assert_eq!(p, Topology::Star.path(0, 15));
        assert_eq!(ft.route(0, 15).len(), 2);
    }

    #[test]
    fn fat_tree_cross_switch_pays_uplinks_and_extra_latency() {
        let ft = Topology::fat_tree(16, 2, 4.0);
        let p = ft.path(0, 16); // edge switches 0 and 1, LCA at tier 2
        assert_eq!(p.latency_hops, 3);
        assert_eq!(p.edge_resers, 1);
        assert_eq!(p.uplink_resers, 2);
        assert_eq!(p.oversub, 4.0);
        let r = ft.route(0, 16);
        assert_eq!(
            r,
            vec![
                Link::HostUp(0),
                Link::Up { level: 1, sw: 0 },
                Link::Down { level: 1, sw: 1 },
                Link::HostDown(16),
            ]
        );
    }

    #[test]
    fn three_level_fat_tree_route_is_mirrored() {
        let ft = Topology::fat_tree(4, 3, 2.0);
        // 0 and 63 share only the tier-3 root: 2·3−1 = 5 switch hops.
        let p = ft.path(0, 63);
        assert_eq!(p.latency_hops, 5);
        assert_eq!(p.uplink_resers, 4);
        let up = ft.route(0, 63);
        let down = ft.route(63, 0);
        assert_eq!(up.len(), down.len());
        // The reverse route uses the same switches, mirrored.
        let mirrored: Vec<Link> = up
            .iter()
            .rev()
            .map(|l| match *l {
                Link::HostUp(n) => Link::HostDown(n),
                Link::HostDown(n) => Link::HostUp(n),
                Link::Up { level, sw } => Link::Down { level, sw },
                Link::Down { level, sw } => Link::Up { level, sw },
                other => other,
            })
            .collect();
        assert_eq!(down, mirrored);
    }

    #[test]
    fn torus_routes_are_dimension_ordered_and_minimal() {
        let t = Topology::torus([4, 4, 1]);
        // 0 → 10 = (0,0) → (2,2): 2 x-hops then 2 y-hops.
        let r = t.route(0, 10);
        assert_eq!(r.len(), 4);
        assert_eq!(t.path(0, 10).latency_hops, 4);
        assert_eq!(t.path(0, 10).edge_resers, 3);
        // Wrap-around: (0,0) → (3,0) is one backward hop, not three.
        assert_eq!(t.route(0, 3), vec![Link::Hop { from: 0, to: 3 }]);
        // Neighbours pay a single latency and no re-serialization.
        let p = t.path(0, 1);
        assert_eq!((p.latency_hops, p.edge_resers), (1, 0));
        // Self-send: loopback latency, empty route.
        assert_eq!(t.path(5, 5).latency_hops, 1);
        assert!(t.route(5, 5).is_empty());
    }

    #[test]
    fn routes_are_symmetric_loop_free_and_stable_across_seeds() {
        let topos = [
            Topology::fat_tree(4, 3, 4.0),
            Topology::fat_tree(16, 2, 2.0),
            Topology::torus([8, 4, 2]),
            Topology::torus([5, 5, 1]),
        ];
        for topo in topos {
            let n = topo.capacity().unwrap();
            for seed in [1u64, 42, 1999] {
                let mut r = rng(seed);
                for _ in 0..200 {
                    let (a, b) = (r(n), r(n));
                    let fwd = topo.route(a, b);
                    let rev = topo.route(b, a);
                    // Symmetric: both directions cross the same number of
                    // links and cost the same.
                    assert_eq!(fwd.len(), rev.len(), "{topo:?} {a}<->{b}");
                    assert_eq!(
                        topo.path(a, b),
                        topo.path(b, a),
                        "{topo:?} {a}<->{b} cost asymmetry"
                    );
                    // Loop-free: no link traversed twice.
                    let mut seen = fwd.clone();
                    seen.sort();
                    seen.dedup();
                    assert_eq!(seen.len(), fwd.len(), "{topo:?} {a}->{b} revisits a link");
                    // Stable: recomputation is bit-identical (pure function).
                    assert_eq!(fwd, topo.route(a, b), "{topo:?} {a}->{b} unstable");
                    // The profile agrees with the route structure.
                    let p = topo.path(a, b);
                    if a != b {
                        assert!(!fwd.is_empty());
                        assert!(p.latency_hops >= 1);
                    }
                }
            }
        }
    }

    #[test]
    fn link_occupancy_folds_traffic_over_routes() {
        use crate::comm::PeerTraffic;
        let ft = Topology::fat_tree(2, 2, 4.0);
        // Rank 0 sends 3 msgs / 300 bytes to rank 2 (cross-switch) and
        // 1 msg / 10 bytes to rank 1 (same switch).
        let mut s0 = CommStats {
            peers: vec![PeerTraffic::default(); 4],
            ..CommStats::default()
        };
        s0.peers[2] = PeerTraffic {
            msgs_to: 3,
            bytes_to: 300,
            ..PeerTraffic::default()
        };
        s0.peers[1] = PeerTraffic {
            msgs_to: 1,
            bytes_to: 10,
            ..PeerTraffic::default()
        };
        let quiet = CommStats {
            peers: vec![PeerTraffic::default(); 4],
            ..CommStats::default()
        };
        let occ = ft.link_occupancy(&[s0, quiet.clone(), quiet.clone(), quiet], None);
        // host-up:0 carries both flows; the uplink only the cross flow.
        assert_eq!(
            occ["host-up:0"],
            LinkLoad {
                msgs: 4,
                bytes: 310
            }
        );
        assert_eq!(
            occ["up:l1.s0"],
            LinkLoad {
                msgs: 3,
                bytes: 300
            }
        );
        assert_eq!(
            occ["down:l1.s1"],
            LinkLoad {
                msgs: 3,
                bytes: 300
            }
        );
        assert_eq!(occ["host-down:1"], LinkLoad { msgs: 1, bytes: 10 });
        // Registry publication round-trips the counters.
        let mut reg = mb_telemetry::metrics::Registry::new();
        record_link_occupancy(&mut reg, &occ);
        assert_eq!(
            reg.counter_value("network/link_bytes", "up:l1.s0"),
            Some(300)
        );
        assert_eq!(reg.counter_value("network/link_msgs", "host-up:0"), Some(4));
    }

    #[test]
    fn ecmp_ways_follow_the_physical_uplink_count() {
        assert_eq!(Topology::Star.ecmp_ways(), 1);
        assert_eq!(Topology::torus([8, 4, 2]).ecmp_ways(), 1);
        assert_eq!(Topology::fat_tree(16, 2, 4.0).ecmp_ways(), 4);
        assert_eq!(Topology::fat_tree(16, 2, 1.0).ecmp_ways(), 16);
        // Oversubscription beyond the radix still leaves one uplink.
        assert_eq!(Topology::fat_tree(4, 2, 8.0).ecmp_ways(), 1);
    }

    #[test]
    fn contention_links_spread_deterministically_and_stay_in_range() {
        let ft = Topology::fat_tree(16, 2, 4.0);
        let ways = ft.ecmp_ways();
        let names = |links: &LinkTable, salt: u64| -> Vec<String> {
            ft.contention_links(links, 0, 17, salt)
                .map(|l| links.name(l).to_string())
                .collect()
        };
        // Without spreading the names are exactly the route names.
        let plain = LinkTable::new(&ft, 32, 1, 8e-8);
        let route: Vec<String> = ft.route(0, 17).iter().map(|l| l.to_string()).collect();
        assert_eq!(names(&plain, 9), route);
        // With spreading, only fabric links gain a way suffix, the way
        // index is in range, and recomputation is bit-identical.
        let links = LinkTable::new(&ft, 32, ways, 8e-8);
        let spread = names(&links, 9);
        assert_eq!(spread, names(&links, 9));
        assert_eq!(spread.len(), route.len());
        assert!(spread[0].starts_with("host-up:"));
        assert!(spread.last().unwrap().starts_with("host-down:"));
        for name in &spread {
            if let Some((base, w)) = name.rsplit_once(".w") {
                assert!(
                    base.starts_with("up:") || base.starts_with("down:"),
                    "{name}"
                );
                assert!(w.parse::<usize>().unwrap() < ways, "{name}");
            }
        }
        // Different salts (jobs) can pick different ways for the same
        // pair: over many salts, more than one way must appear.
        let mut seen = std::collections::BTreeSet::new();
        for salt in 0..64u64 {
            for id in ft.contention_links(&links, 0, 17, salt) {
                if links.is_fabric(id) {
                    seen.insert(links.link(id).1);
                }
            }
        }
        assert!(seen.len() > 1, "hash never spread across ways: {seen:?}");
    }

    #[test]
    fn link_table_ids_follow_name_order_and_cover_every_route() {
        let cases = [
            (Topology::Star, 24, 1),
            (Topology::fat_tree(4, 3, 2.0), 64, 2),
            // Two-digit ways: name order (`.w10` < `.w2`) is not way order.
            (Topology::fat_tree(16, 2, 1.0), 40, 16),
            // Routes between the first 10 nodes cross routers 10..16.
            (Topology::torus([4, 4, 1]), 10, 1),
            // A ring of two reaches one neighbour both ways round.
            (Topology::torus([2, 3, 1]), 6, 1),
        ];
        for (topo, nodes, ways) in cases {
            let links = LinkTable::new(&topo, nodes, ways, 1e-8);
            for id in 1..links.len() as LinkId {
                assert!(links.name(id - 1) < links.name(id), "{topo:?} ids unsorted");
            }
            for a in 0..nodes {
                for b in 0..nodes {
                    for link in topo.route(a, b) {
                        let way = if link.is_fabric() { (a + b) % ways } else { 0 };
                        let id = links.id(link, way);
                        let name = if link.is_fabric() && ways > 1 {
                            format!("{link}.w{way}")
                        } else {
                            link.to_string()
                        };
                        assert_eq!(links.name(id), name, "{topo:?}");
                        assert_eq!(links.link(id), (link, way), "{topo:?}");
                        assert_eq!(links.lookup(&name), Some(id), "{topo:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn link_table_carries_gaps_and_edge_groups() {
        let ft = Topology::fat_tree(4, 3, 2.0);
        let links = LinkTable::new(&ft, 64, 1, 1e-8);
        let id = |n: &str| links.lookup(n).unwrap();
        assert_eq!(links.eff_gap(id("up:l2.s1")), 2e-8);
        assert_eq!(links.eff_gap(id("down:l1.s7")), 2e-8);
        assert_eq!(links.eff_gap(id("host-up:3")), 1e-8);
        assert_eq!(links.edge_group(id("up:l1.s5")), Some(5));
        assert_eq!(links.edge_group(id("up:l2.s1")), None);
        assert_eq!(links.edge_group(id("down:l1.s5")), None);
        assert_eq!(links.lookup("up:l3.s0"), None, "no tier above the root");
        // Torus cables run at the edge gap and belong to no edge group.
        let t = Topology::torus([4, 4, 1]);
        let links = LinkTable::new(&t, 16, 1, 1e-8);
        let hop = links.lookup("hop:0>1").unwrap();
        assert_eq!(links.eff_gap(hop), 1e-8);
        assert_eq!(links.edge_group(hop), None);
        assert!(!links.is_fabric(hop));
    }

    #[test]
    fn node_id_mapping_relabels_routes() {
        let ft = Topology::fat_tree(4, 2, 4.0);
        use crate::comm::PeerTraffic;
        let mut s0 = CommStats {
            peers: vec![PeerTraffic::default(); 2],
            ..CommStats::default()
        };
        s0.peers[1] = PeerTraffic {
            msgs_to: 1,
            bytes_to: 8,
            ..PeerTraffic::default()
        };
        let s1 = CommStats {
            peers: vec![PeerTraffic::default(); 2],
            ..CommStats::default()
        };
        // Job ranks 0,1 pinned to nodes 0 and 12: a cross-switch route.
        let occ = ft.link_occupancy(&[s0, s1], Some(&[0, 12]));
        assert!(occ.contains_key("up:l1.s0"), "{occ:?}");
        assert!(occ.contains_key("host-down:12"), "{occ:?}");
    }
}
