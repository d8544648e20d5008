//! Fuzz-style end-to-end coverage: proptest-generated CNNs (random
//! depth, channel widths, strides, residual links) must survive the
//! whole pipeline — graph construction, DP partitioning, stripe
//! mapping, SA, parsing, evaluation and instruction generation — with
//! all invariants intact.
//!
//! The same file checks the routing tables of the interconnect on
//! preset and proptest-generated networks: every route, DRAM path and
//! multicast tree must equal an independent hop-by-hop reference, link
//! for link and in order, also when many threads route on one fresh
//! network at once.

mod common;

use std::collections::{HashMap, HashSet};
use std::sync::Barrier;

use proptest::prelude::*;

use common::{build_cnn as build, cnn_strategy};
use gemini::arch::{presets, Coord, CoreId};
use gemini::core::engine::{MappingEngine, MappingOptions};
use gemini::core::sa::SaOptions;
use gemini::noc::{LinkId, Network, NodeId};
use gemini::prelude::*;
use gemini::sim::{generate_program, validate_program};

/// Hop-by-hop reference for dimension-order routing, independent of
/// the network's route tables: X first, then Y; the mesh goes
/// straight, the torus the shorter way round (forward on a tie). Each
/// hop's link is found by its endpoints. Mesh links are enumerated
/// before wrap links, so on a two-wide torus, where a mesh link and a
/// wrap link join the same two cores, a wrap hop takes the last match
/// and a mesh hop the first.
struct RefWalk<'a> {
    net: &'a Network,
    by_ends: HashMap<(NodeId, NodeId), Vec<LinkId>>,
}

impl<'a> RefWalk<'a> {
    fn new(net: &'a Network) -> Self {
        let mut by_ends: HashMap<(NodeId, NodeId), Vec<LinkId>> = HashMap::new();
        for (i, l) in net.links().iter().enumerate() {
            by_ends
                .entry((l.from, l.to))
                .or_default()
                .push(LinkId(i as u32));
        }
        Self { net, by_ends }
    }

    fn route(&self, a: Coord, b: Coord) -> Vec<LinkId> {
        let arch = self.net.arch();
        let torus = arch.topology() == Topology::FoldedTorus;
        let mut out = Vec::new();
        let mut cur = a;
        for (len, along_x) in [(arch.x_cores(), true), (arch.y_cores(), false)] {
            let target = if along_x { b.x } else { b.y } as u32;
            loop {
                let c = if along_x { cur.x } else { cur.y } as u32;
                if c == target {
                    break;
                }
                let fwd = if torus {
                    (target + len - c) % len <= (c + len - target) % len
                } else {
                    c < target
                };
                let wraps = if fwd { c + 1 == len } else { c == 0 };
                let next = if fwd {
                    (c + 1) % len
                } else {
                    (c + len - 1) % len
                } as u16;
                let mut nxt = cur;
                if along_x {
                    nxt.x = next;
                } else {
                    nxt.y = next;
                }
                let cands = &self.by_ends[&(NodeId::Core(cur), NodeId::Core(nxt))];
                out.push(if wraps {
                    *cands.last().unwrap()
                } else {
                    cands[0]
                });
                cur = nxt;
            }
        }
        out
    }

    fn read_path(&self, d: u32, port: Coord, to: Coord) -> Vec<LinkId> {
        let inj = self.by_ends[&(NodeId::DramPort { dram: d, at: port }, NodeId::Core(port))][0];
        std::iter::once(inj).chain(self.route(port, to)).collect()
    }

    fn write_path(&self, from: Coord, d: u32, port: Coord) -> Vec<LinkId> {
        let ej = self.by_ends[&(NodeId::Core(port), NodeId::DramPort { dram: d, at: port })][0];
        let mut p = self.route(from, port);
        p.push(ej);
        p
    }
}

/// First-seen-order union of `paths`, deduplicated through a `HashSet`.
fn dedup_union(paths: impl IntoIterator<Item = Vec<LinkId>>) -> Vec<LinkId> {
    let mut seen = HashSet::new();
    paths
        .into_iter()
        .flatten()
        .filter(|l| seen.insert(*l))
        .collect()
}

/// Destination sets for the multicast checks: every core, each row,
/// each column, and a strided scatter in reverse order.
fn dest_sets(arch: &ArchConfig) -> Vec<Vec<CoreId>> {
    let (x, y) = (arch.x_cores(), arch.y_cores());
    let all: Vec<CoreId> = arch.cores().collect();
    let mut sets = vec![all.iter().rev().step_by(3).copied().collect()];
    sets.extend((0..y).map(|cy| (0..x).map(|cx| arch.core_at(cx, cy)).collect()));
    sets.extend((0..x).map(|cx| (0..y).map(|cy| arch.core_at(cx, cy)).collect()));
    sets.push(all);
    sets
}

/// Checks every route, DRAM path and multicast tree of a fresh
/// network for `arch` against [`RefWalk`]; returns the first mismatch.
fn check_tables(arch: &ArchConfig) -> Result<(), String> {
    let net = Network::new(arch);
    let walk = RefWalk::new(&net);
    let cores: Vec<CoreId> = arch.cores().collect();
    let mut got = Vec::new();
    for &a in &cores {
        for &b in &cores {
            got.clear();
            net.route_cores(a, b, &mut got);
            let want = walk.route(arch.coord(a), arch.coord(b));
            if got != want {
                return Err(format!("route {a:?}->{b:?}: {got:?} != {want:?}"));
            }
        }
    }
    for d in 0..arch.dram_count() {
        let ports = net.dram_port_coords(d).to_vec();
        for &c in &cores {
            let mut reads = Vec::new();
            net.for_each_dram_read_path(d, c, &mut got, |p| reads.push(p.to_vec()));
            let want: Vec<_> = ports
                .iter()
                .map(|&p| walk.read_path(d, p, arch.coord(c)))
                .collect();
            if reads != want {
                return Err(format!(
                    "DRAM {d} read paths to {c:?}: {reads:?} != {want:?}"
                ));
            }
            let mut writes = Vec::new();
            net.for_each_dram_write_path(c, d, &mut got, |p| writes.push(p.to_vec()));
            let want: Vec<_> = ports
                .iter()
                .map(|&p| walk.write_path(arch.coord(c), d, p))
                .collect();
            if writes != want {
                return Err(format!(
                    "DRAM {d} write paths from {c:?}: {writes:?} != {want:?}"
                ));
            }
            // One destination: the tree is the read path, hop by hop.
            let mut trees = Vec::new();
            net.multicast_from_dram(d, &[c], &mut got, |t| trees.push(t.to_vec()));
            if trees != reads {
                return Err(format!(
                    "DRAM {d} single-target tree to {c:?}: {trees:?} != {reads:?}"
                ));
            }
        }
    }
    for tos in dest_sets(arch) {
        for &from in &cores {
            net.multicast_cores(from, &tos, &mut got);
            let a = arch.coord(from);
            let want = dedup_union(
                tos.iter()
                    .filter(|&&t| t != from)
                    .map(|&t| walk.route(a, arch.coord(t))),
            );
            if got != want {
                return Err(format!("multicast {from:?}->{tos:?}: {got:?} != {want:?}"));
            }
        }
        for d in 0..arch.dram_count() {
            let mut trees = Vec::new();
            net.multicast_from_dram(d, &tos, &mut got, |t| trees.push(t.to_vec()));
            let want: Vec<_> = net
                .dram_port_coords(d)
                .iter()
                .map(|&p| dedup_union(tos.iter().map(|&t| walk.read_path(d, p, arch.coord(t)))))
                .collect();
            if trees != want {
                return Err(format!(
                    "DRAM {d} multicast to {tos:?}: {trees:?} != {want:?}"
                ));
            }
        }
    }
    Ok(())
}

#[test]
fn route_tables_match_the_hop_walk_on_presets() {
    let mono = ArchConfig::builder()
        .cores(4, 4)
        .cuts(1, 1)
        .build()
        .unwrap();
    for arch in [presets::g_arch_72(), presets::t_arch(), mono] {
        check_tables(&arch).unwrap_or_else(|e| panic!("{arch}: {e}"));
    }
}

/// Every route and DRAM multicast of `net`, in a fixed order.
fn route_everything(net: &Network) -> Vec<Vec<LinkId>> {
    let arch = net.arch();
    let cores: Vec<CoreId> = arch.cores().collect();
    let mut out = Vec::new();
    for &a in &cores {
        for &b in &cores {
            let mut p = Vec::new();
            net.route_cores(a, b, &mut p);
            out.push(p);
        }
    }
    let mut tree = Vec::new();
    for d in 0..arch.dram_count() {
        for set in dest_sets(arch) {
            net.multicast_from_dram(d, &set, &mut tree, |t| out.push(t.to_vec()));
        }
    }
    out
}

/// SA chains share one evaluator, and so one network, across threads:
/// the first routing calls race to build the lazy tables, and every
/// thread must still see the single-threaded routes.
#[test]
fn concurrent_first_routes_match_a_single_threaded_run() {
    const THREADS: usize = 4;
    let arch = presets::t_arch();
    let want = route_everything(&Network::new(&arch));
    let net = Network::new(&arch);
    let start = Barrier::new(THREADS);
    let results: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    route_everything(&net)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for got in results {
        assert!(got == want, "a concurrent run routed differently");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Route tables equal the hop walk on random meshes and tori,
    /// including one- and two-wide grids, chiplet cuts and several
    /// DRAMs.
    #[test]
    fn route_tables_match_the_hop_walk_on_random_networks(
        x in 1u32..9,
        y in 1u32..9,
        xcut in 1u32..4,
        ycut in 1u32..4,
        torus in any::<bool>(),
        drams in 1u32..5,
    ) {
        let arch = ArchConfig::builder()
            .cores(x, y)
            .cuts(if x % xcut == 0 { xcut } else { 1 }, if y % ycut == 0 { ycut } else { 1 })
            .topology(if torus { Topology::FoldedTorus } else { Topology::Mesh })
            .dram_count(drams)
            .build()
            .unwrap();
        let checked = check_tables(&arch);
        prop_assert!(checked.is_ok(), "{}: {:?}", arch, checked.err());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The full pipeline survives arbitrary generated CNNs and keeps
    /// its invariants (coverage, flow balance, positive metrics).
    #[test]
    fn pipeline_handles_random_cnns(cnn in cnn_strategy(), seed in 0u64..100) {
        let dnn = build(&cnn);
        prop_assert!(dnn.total_macs(1) > 0);
        let arch = gemini::arch::presets::g_arch_72();
        let ev = Evaluator::new(&arch);
        let engine = MappingEngine::new(&ev);
        let opts = MappingOptions {
            sa: SaOptions { iters: 40, seed, ..Default::default() },
            ..Default::default()
        };
        let m = engine.map(&dnn, 2, &opts);
        prop_assert!(m.report.delay_s > 0.0);
        prop_assert!(m.report.energy.total() > 0.0);
        for gm in m.group_mappings(&dnn) {
            gm.validate(&dnn).expect("parsed mapping covers outputs");
            let prog = generate_program(&dnn, &gm);
            validate_program(&dnn, &gm, &prog).expect("program replays");
        }
    }

    /// Evaluation is monotone in batch for a *fixed* mapping (more
    /// rounds through the same pipeline cannot be faster or cheaper).
    /// Note this is deliberately evaluated on one partition: the DP
    /// partitioner re-partitions per batch size with a heuristic cost
    /// proxy, so end-to-end `map_stripe` delays may legitimately invert
    /// slightly across batches (a 2-group split that the proxy likes at
    /// batch 1 can score worse under the full evaluator than the
    /// 1-group split it picks at batch 4).
    #[test]
    fn random_cnn_batch_monotone_for_fixed_mapping(cnn in cnn_strategy()) {
        let dnn = build(&cnn);
        let arch = gemini::arch::presets::g_arch_72();
        let ev = Evaluator::new(&arch);
        let engine = MappingEngine::new(&ev);
        let m4 = engine.map_stripe(&dnn, 4, &MappingOptions::default());
        let r1 = engine.evaluate(&dnn, &m4.partition, &m4.lms, 1);
        prop_assert!(m4.report.delay_s >= r1.delay_s * 0.999);
        prop_assert!(m4.report.energy.total() >= r1.energy.total() * 0.999);
        // Cross-partition sanity: heuristic repartitioning may invert,
        // but never drastically.
        let m1 = engine.map_stripe(&dnn, 1, &MappingOptions::default());
        prop_assert!(m4.report.delay_s >= m1.report.delay_s * 0.7);
    }
}
