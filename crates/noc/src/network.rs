//! Link enumeration and routing.

use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

use gemini_arch::{ArchConfig, Coord, CoreId, Topology};

/// A node of the interconnect: a core router or a DRAM-controller port
/// inside an IO chiplet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NodeId {
    /// Router of the core at the given coordinate.
    Core(Coord),
    /// Port `slot` of DRAM controller `dram`, adjacent to edge core `at`.
    DramPort {
        /// DRAM stack index.
        dram: u32,
        /// The edge-core coordinate the port attaches to.
        at: Coord,
    },
}

/// Identifier of a directed link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct LinkId(pub u32);

impl LinkId {
    /// The index as `usize`.
    pub fn idx(&self) -> usize {
        self.0 as usize
    }
}

/// Physical nature of a link, which determines its bandwidth and energy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LinkKind {
    /// On-chip NoC link.
    Noc,
    /// Die-to-die link (crosses a chiplet boundary).
    D2d,
    /// DRAM controller to edge router (read injection).
    DramInj(u32),
    /// Edge router to DRAM controller (write ejection).
    DramEj(u32),
}

impl LinkKind {
    /// Whether this link is a D2D interface.
    pub fn is_d2d(&self) -> bool {
        matches!(self, LinkKind::D2d)
    }
}

/// A directed link of the interconnect.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Link {
    /// Source node.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// Physical kind.
    pub kind: LinkKind,
    /// Bandwidth in GB/s.
    pub bw: f64,
}

/// The interconnect of one architecture: all links plus routing.
#[derive(Debug, Clone)]
pub struct Network {
    arch: ArchConfig,
    links: Vec<Link>,
    /// Right-going and left-going horizontal mesh links, indexed by
    /// (x, y) of the *source*: `h_links[dir][y * x_cores + x]`.
    h_right: Vec<u32>,
    h_left: Vec<u32>,
    v_down: Vec<u32>,
    v_up: Vec<u32>,
    /// Torus wrap links per row (`x_cores - 1 -> 0`, `0 -> x_cores - 1`)
    /// and per column; empty on a mesh.
    wrap_h: Vec<(u32, u32)>,
    wrap_v: Vec<(u32, u32)>,
    /// Injection/ejection link ids per DRAM per port.
    dram_inj: Vec<Vec<u32>>,
    dram_ej: Vec<Vec<u32>>,
    /// DRAM port coordinates, cached from the arch.
    dram_ports: Vec<Vec<Coord>>,
    /// Dimension-order route legs, built on the first routing call so
    /// networks that never route (candidates pruned before mapping)
    /// never pay for them.
    legs: OnceLock<Legs>,
}

const NO_LINK: u32 = u32::MAX;

/// Every dimension-order leg of a network: the X leg between any two
/// cores of a row and the Y leg between any two cores of a column. A
/// route is an X leg followed by a Y leg, so `x·y·(x+y)` legs cover
/// every core-to-core and port-to-core route.
///
/// Leg `i` is `links[offs[i]..offs[i + 1]]`. X legs come first, at
/// `(y * x_len + ax) * x_len + bx`; Y legs follow, at
/// `x_len² · y_len + (x * y_len + ay) * y_len + by`.
#[derive(Debug, Clone)]
struct Legs {
    x_len: usize,
    y_len: usize,
    links: Vec<LinkId>,
    offs: Vec<u32>,
}

impl Legs {
    fn leg(&self, i: usize) -> &[LinkId] {
        &self.links[self.offs[i] as usize..self.offs[i + 1] as usize]
    }

    /// The X leg then the Y leg of the route from `a` to `b`.
    fn route(&self, a: Coord, b: Coord) -> [&[LinkId]; 2] {
        let (ax, ay, bx, by) = (a.x as usize, a.y as usize, b.x as usize, b.y as usize);
        let (xl, yl) = (self.x_len, self.y_len);
        [
            self.leg((ay * xl + ax) * xl + bx),
            self.leg(xl * xl * yl + (bx * yl + ay) * yl + by),
        ]
    }

    /// Appends the route from `a` to `b` onto `out`.
    fn append(&self, a: Coord, b: Coord, out: &mut Vec<LinkId>) {
        for leg in self.route(a, b) {
            out.extend_from_slice(leg);
        }
    }
}

/// Bitset over link ids; multicast trees dedup their links with it.
struct LinkSet(Vec<u64>);

impl LinkSet {
    fn new(n_links: usize) -> Self {
        Self(vec![0; n_links.div_ceil(64)])
    }

    /// Adds `l`; true if it was not in the set.
    fn insert(&mut self, l: LinkId) -> bool {
        let (w, bit) = (l.idx() / 64, 1u64 << (l.idx() % 64));
        let fresh = self.0[w] & bit == 0;
        self.0[w] |= bit;
        fresh
    }

    fn clear(&mut self) {
        self.0.fill(0);
    }
}

/// Walks one dimension of length `len` hop by hop from `a` to `b`,
/// pushing `fwd(c)` for each step out of `c` towards `c + 1` and
/// `bwd(c)` for each step towards `c - 1` (both modulo `len`). The mesh
/// goes straight; the torus takes the shorter way round, forward on a
/// tie.
fn walk_dim(
    len: u32,
    torus: bool,
    a: u32,
    b: u32,
    out: &mut Vec<LinkId>,
    fwd: impl Fn(u32) -> u32,
    bwd: impl Fn(u32) -> u32,
) {
    let mut c = a;
    while c != b {
        let fwd_dist = (b + len - c) % len;
        let bwd_dist = (c + len - b) % len;
        let go_fwd = if torus { fwd_dist <= bwd_dist } else { c < b };
        let l = if go_fwd { fwd(c) } else { bwd(c) };
        debug_assert_ne!(l, NO_LINK, "walk left the network");
        out.push(LinkId(l));
        c = if go_fwd {
            (c + 1) % len
        } else {
            (c + len - 1) % len
        };
    }
}

impl Network {
    /// Builds the interconnect for an architecture.
    pub fn new(arch: &ArchConfig) -> Self {
        let x = arch.x_cores();
        let y = arch.y_cores();
        let n = (x * y) as usize;
        let mut links = Vec::new();
        let mut h_right = vec![NO_LINK; n];
        let mut h_left = vec![NO_LINK; n];
        let mut v_down = vec![NO_LINK; n];
        let mut v_up = vec![NO_LINK; n];
        let mut wrap_h = Vec::new();
        let mut wrap_v = Vec::new();

        let core = |cx: u32, cy: u32| NodeId::Core(Coord::new(cx as u16, cy as u16));
        let push = |links: &mut Vec<Link>, from, to, kind, bw| -> u32 {
            let id = links.len() as u32;
            links.push(Link { from, to, kind, bw });
            id
        };
        let hkind = |cx: u32| {
            if arch.is_d2d_h(cx) {
                LinkKind::D2d
            } else {
                LinkKind::Noc
            }
        };
        let vkind = |cy: u32| {
            if arch.is_d2d_v(cy) {
                LinkKind::D2d
            } else {
                LinkKind::Noc
            }
        };
        let bw_of = |k: LinkKind| match k {
            LinkKind::D2d => arch.d2d_bw(),
            _ => arch.noc_bw(),
        };

        for cy in 0..y {
            for cx in 0..x {
                let i = (cy * x + cx) as usize;
                if cx + 1 < x {
                    let k = hkind(cx);
                    h_right[i] = push(&mut links, core(cx, cy), core(cx + 1, cy), k, bw_of(k));
                    h_left[(cy * x + cx + 1) as usize] =
                        push(&mut links, core(cx + 1, cy), core(cx, cy), k, bw_of(k));
                }
                if cy + 1 < y {
                    let k = vkind(cy);
                    v_down[i] = push(&mut links, core(cx, cy), core(cx, cy + 1), k, bw_of(k));
                    v_up[((cy + 1) * x + cx) as usize] =
                        push(&mut links, core(cx, cy + 1), core(cx, cy), k, bw_of(k));
                }
            }
        }

        if arch.topology() == Topology::FoldedTorus && x > 1 {
            for cy in 0..y {
                let k = if arch.xcut() > 1 {
                    LinkKind::D2d
                } else {
                    LinkKind::Noc
                };
                let f = push(&mut links, core(x - 1, cy), core(0, cy), k, bw_of(k));
                let b = push(&mut links, core(0, cy), core(x - 1, cy), k, bw_of(k));
                wrap_h.push((f, b));
            }
        }
        if arch.topology() == Topology::FoldedTorus && y > 1 {
            for cx in 0..x {
                let k = if arch.ycut() > 1 {
                    LinkKind::D2d
                } else {
                    LinkKind::Noc
                };
                let f = push(&mut links, core(cx, y - 1), core(cx, 0), k, bw_of(k));
                let b = push(&mut links, core(cx, 0), core(cx, y - 1), k, bw_of(k));
                wrap_v.push((f, b));
            }
        }

        let mut dram_inj = Vec::new();
        let mut dram_ej = Vec::new();
        let mut dram_ports = Vec::new();
        for d in 0..arch.dram_count() {
            let ports = arch.dram_ports(d);
            let mut inj = Vec::new();
            let mut ej = Vec::new();
            for &p in &ports {
                let pn = NodeId::DramPort { dram: d, at: p };
                inj.push(push(
                    &mut links,
                    pn,
                    NodeId::Core(p),
                    LinkKind::DramInj(d),
                    arch.noc_bw(),
                ));
                ej.push(push(
                    &mut links,
                    NodeId::Core(p),
                    pn,
                    LinkKind::DramEj(d),
                    arch.noc_bw(),
                ));
            }
            dram_inj.push(inj);
            dram_ej.push(ej);
            dram_ports.push(ports);
        }

        Self {
            arch: arch.clone(),
            links,
            h_right,
            h_left,
            v_down,
            v_up,
            wrap_h,
            wrap_v,
            dram_inj,
            dram_ej,
            dram_ports,
            legs: OnceLock::new(),
        }
    }

    /// The architecture this network belongs to.
    pub fn arch(&self) -> &ArchConfig {
        &self.arch
    }

    /// Number of directed links.
    pub fn n_links(&self) -> usize {
        self.links.len()
    }

    /// Link metadata.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.idx()]
    }

    /// All links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    fn legs(&self) -> &Legs {
        self.legs.get_or_init(|| self.build_legs())
    }

    /// Walks every X leg of every row and every Y leg of every column
    /// hop by hop. This is the only hop walk: every route is read from
    /// its result.
    fn build_legs(&self) -> Legs {
        let torus = self.arch.topology() == Topology::FoldedTorus;
        let (x, y) = (self.arch.x_cores(), self.arch.y_cores());
        let n_legs = (x * y * (x + y)) as usize;
        let mut links = Vec::new();
        let mut offs = Vec::with_capacity(n_legs + 1);
        offs.push(0);
        for cy in 0..y {
            let i = |cx: u32| (cy * x + cx) as usize;
            let wrap = self.wrap_h.get(cy as usize).copied();
            let (wf, wb) = wrap.unwrap_or((NO_LINK, NO_LINK));
            let fwd = |c: u32| if c + 1 == x { wf } else { self.h_right[i(c)] };
            let bwd = |c: u32| if c == 0 { wb } else { self.h_left[i(c)] };
            for ax in 0..x {
                for bx in 0..x {
                    walk_dim(x, torus, ax, bx, &mut links, fwd, bwd);
                    offs.push(links.len() as u32);
                }
            }
        }
        for cx in 0..x {
            let i = |cy: u32| (cy * x + cx) as usize;
            let wrap = self.wrap_v.get(cx as usize).copied();
            let (wf, wb) = wrap.unwrap_or((NO_LINK, NO_LINK));
            let fwd = |c: u32| if c + 1 == y { wf } else { self.v_down[i(c)] };
            let bwd = |c: u32| if c == 0 { wb } else { self.v_up[i(c)] };
            for ay in 0..y {
                for by in 0..y {
                    walk_dim(y, torus, ay, by, &mut links, fwd, bwd);
                    offs.push(links.len() as u32);
                }
            }
        }
        Legs {
            x_len: x as usize,
            y_len: y as usize,
            links,
            offs,
        }
    }

    /// Appends the XY (mesh) or dimension-order (torus) route from one
    /// core to another onto `out`. Routing is X-first, matching the
    /// paper's Fig.-9 discussion of XY routing.
    pub fn route_cores(&self, from: CoreId, to: CoreId, out: &mut Vec<LinkId>) {
        self.legs()
            .append(self.arch.coord(from), self.arch.coord(to), out);
    }

    /// Coordinates of the ports of DRAM `d`.
    pub fn dram_port_coords(&self, d: u32) -> &[Coord] {
        &self.dram_ports[d as usize]
    }

    /// Visits each port of DRAM `d` with the read path (DRAM -> core)
    /// into `scratch`; the callback receives the per-port path. The
    /// caller divides volume across ports, matching the template's
    /// multi-router DRAM attachment.
    pub fn for_each_dram_read_path(
        &self,
        d: u32,
        to: CoreId,
        scratch: &mut Vec<LinkId>,
        mut f: impl FnMut(&[LinkId]),
    ) {
        let legs = self.legs();
        let d = d as usize;
        let to = self.arch.coord(to);
        for (&p, &inj) in self.dram_ports[d].iter().zip(&self.dram_inj[d]) {
            scratch.clear();
            scratch.push(LinkId(inj));
            legs.append(p, to, scratch);
            f(scratch);
        }
    }

    /// Like [`Self::for_each_dram_read_path`] but for writes
    /// (core -> DRAM).
    pub fn for_each_dram_write_path(
        &self,
        from: CoreId,
        d: u32,
        scratch: &mut Vec<LinkId>,
        mut f: impl FnMut(&[LinkId]),
    ) {
        let legs = self.legs();
        let d = d as usize;
        let from = self.arch.coord(from);
        for (&p, &ej) in self.dram_ports[d].iter().zip(&self.dram_ej[d]) {
            scratch.clear();
            legs.append(from, p, scratch);
            scratch.push(LinkId(ej));
            f(scratch);
        }
    }

    /// Multicast tree from one core to many: the union of the unicast XY
    /// paths with each link counted once, in first-seen order. Returns
    /// the deduplicated link set in `out`.
    pub fn multicast_cores(&self, from: CoreId, tos: &[CoreId], out: &mut Vec<LinkId>) {
        out.clear();
        let legs = self.legs();
        let a = self.arch.coord(from);
        let mut seen = LinkSet::new(self.links.len());
        for &t in tos {
            if t == from {
                continue;
            }
            for leg in legs.route(a, self.arch.coord(t)) {
                out.extend(leg.iter().filter(|&&l| seen.insert(l)));
            }
        }
    }

    /// Multicast tree from one DRAM port set to many cores (per-port
    /// trees; callback gets each port's deduplicated tree, in first-seen
    /// order, so the caller can divide volume by port count). With one
    /// destination the tree is its read path, hop by hop.
    pub fn multicast_from_dram(
        &self,
        d: u32,
        tos: &[CoreId],
        out: &mut Vec<LinkId>,
        mut f: impl FnMut(&[LinkId]),
    ) {
        let legs = self.legs();
        let d = d as usize;
        let mut seen = LinkSet::new(self.links.len());
        for (&p, &inj) in self.dram_ports[d].iter().zip(&self.dram_inj[d]) {
            out.clear();
            seen.clear();
            let inj = LinkId(inj);
            seen.insert(inj);
            out.push(inj);
            for &t in tos {
                for leg in legs.route(p, self.arch.coord(t)) {
                    out.extend(leg.iter().filter(|&&l| seen.insert(l)));
                }
            }
            f(out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gemini_arch::presets;

    fn mesh() -> (ArchConfig, Network) {
        let a = presets::g_arch_72();
        let n = Network::new(&a);
        (a, n)
    }

    #[test]
    fn link_count_mesh() {
        let (a, n) = mesh();
        let x = a.x_cores();
        let y = a.y_cores();
        // Directed mesh links + 2 DRAMs x 6 ports x (inj+ej).
        let mesh_links = 2 * (x - 1) * y + 2 * (y - 1) * x;
        let dram_links = 2 * 2 * 6;
        assert_eq!(n.n_links() as u32, mesh_links + dram_links);
    }

    #[test]
    fn xy_route_shape() {
        let (a, n) = mesh();
        let mut p = Vec::new();
        n.route_cores(a.core_at(1, 1), a.core_at(4, 3), &mut p);
        assert_eq!(p.len(), 3 + 2);
        // X leg first: the first three links are horizontal.
        for l in &p[..3] {
            let link = n.link(*l);
            if let (NodeId::Core(f), NodeId::Core(t)) = (link.from, link.to) {
                assert_eq!(f.y, t.y, "X leg must stay in the row");
            } else {
                panic!("expected core-to-core link");
            }
        }
    }

    #[test]
    fn route_self_is_empty() {
        let (a, n) = mesh();
        let mut p = Vec::new();
        n.route_cores(a.core_at(2, 2), a.core_at(2, 2), &mut p);
        assert!(p.is_empty());
    }

    #[test]
    fn d2d_links_on_cut_boundary() {
        // g_arch_72 has xcut=2 on a 6-wide grid: links between columns 2
        // and 3 are D2D.
        let (a, n) = mesh();
        let mut p = Vec::new();
        n.route_cores(a.core_at(2, 0), a.core_at(3, 0), &mut p);
        assert_eq!(p.len(), 1);
        assert!(n.link(p[0]).kind.is_d2d());
        assert_eq!(n.link(p[0]).bw, a.d2d_bw());
        // Vertical links never cross (ycut=1).
        p.clear();
        n.route_cores(a.core_at(0, 2), a.core_at(0, 3), &mut p);
        assert_eq!(n.link(p[0]).kind, LinkKind::Noc);
    }

    #[test]
    fn torus_wraps_shorter_way() {
        let a = presets::t_arch(); // 12x10 folded torus
        let n = Network::new(&a);
        let mut p = Vec::new();
        // From x=0 to x=11: wrap (1 hop) beats 11 mesh hops.
        n.route_cores(a.core_at(0, 0), a.core_at(11, 0), &mut p);
        assert_eq!(p.len(), 1);
        // From x=0 to x=5: 5 hops, no wrap.
        p.clear();
        n.route_cores(a.core_at(0, 0), a.core_at(5, 0), &mut p);
        assert_eq!(p.len(), 5);
    }

    #[test]
    fn monolithic_mesh_has_no_d2d() {
        let a = ArchConfig::builder()
            .cores(4, 4)
            .cuts(1, 1)
            .build()
            .unwrap();
        let n = Network::new(&a);
        assert!(n.links().iter().all(|l| !l.kind.is_d2d()));
    }

    #[test]
    fn dram_read_paths_touch_all_ports() {
        let (a, n) = mesh();
        let mut scratch = Vec::new();
        let mut count = 0;
        n.for_each_dram_read_path(0, a.core_at(3, 3), &mut scratch, |path| {
            count += 1;
            assert!(matches!(n.link(path[0]).kind, LinkKind::DramInj(0)));
        });
        assert_eq!(count, 6, "DRAM 0 has 6 ports on the west edge");
    }

    #[test]
    fn dram_write_paths_end_in_ejection() {
        let (a, n) = mesh();
        let mut scratch = Vec::new();
        n.for_each_dram_write_path(a.core_at(3, 3), 1, &mut scratch, |path| {
            assert!(matches!(
                n.link(*path.last().unwrap()).kind,
                LinkKind::DramEj(1)
            ));
        });
    }

    #[test]
    fn multicast_dedups_shared_prefix() {
        let (a, n) = mesh();
        let mut tree = Vec::new();
        // Two destinations in the same row share the horizontal prefix.
        n.multicast_cores(
            a.core_at(0, 0),
            &[a.core_at(3, 0), a.core_at(3, 1)],
            &mut tree,
        );
        // Unicast would be 3 + 4 = 7 links; the tree shares 3.
        assert_eq!(tree.len(), 4);
    }

    #[test]
    fn leg_tables_are_lazy_and_hold_one_leg_per_row_and_column_pair() {
        for a in [presets::g_arch_72(), presets::t_arch()] {
            let n = Network::new(&a);
            assert!(n.legs.get().is_none(), "Network::new builds no tables");
            n.route_cores(a.core_at(0, 0), a.core_at(1, 1), &mut Vec::new());
            let legs = n.legs.get().expect("the first route builds the tables");
            let (x, y) = (a.x_cores() as usize, a.y_cores() as usize);
            assert_eq!(legs.offs.len(), x * y * (x + y) + 1);
        }
    }

    #[test]
    fn multicast_excludes_self() {
        let (a, n) = mesh();
        let mut tree = Vec::new();
        n.multicast_cores(a.core_at(2, 2), &[a.core_at(2, 2)], &mut tree);
        assert!(tree.is_empty());
    }
}
