//! DP-based graph partitioning (the "Graph Partition Engine" of Fig. 4).
//!
//! The paper adopts Tangram's dynamic-programming partitioner: the DNN's
//! topological order is segmented into contiguous *layer groups*, jointly
//! choosing each group's *batch unit* (samples per pipeline stage). The
//! DP minimizes an additive analytic cost per group — an estimate of the
//! group's energy-delay contribution that accounts for DRAM traffic
//! avoided by on-chip forwarding, weight residency in the aggregate GLB,
//! pipeline fill/drain overhead, and the D2D penalty of spreading a
//! pipeline across chiplets. The *spatial* mapping inside each group is
//! then refined by the stripe heuristic and simulated annealing.

use serde::{Deserialize, Serialize};

use gemini_arch::ArchConfig;
use gemini_model::{Dnn, LayerId};

use crate::encoding::GroupSpec;

/// Options for the graph partitioner.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PartitionOptions {
    /// Maximum layers per group (also bounded by the core count).
    pub max_group_layers: usize,
    /// Candidate batch units; values above the batch are clamped.
    pub batch_units: Vec<u32>,
}

impl Default for PartitionOptions {
    fn default() -> Self {
        Self {
            max_group_layers: 24,
            batch_units: vec![1, 2, 4, 8, 16],
        }
    }
}

/// The partition of a DNN into layer groups.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GraphPartition {
    /// Groups in execution order.
    pub groups: Vec<GroupSpec>,
}

impl GraphPartition {
    /// Total number of layer groups.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Whether there are no groups.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// The group index containing a layer, if any.
    pub fn group_of(&self, id: LayerId) -> Option<usize> {
        self.groups.iter().position(|g| g.members.contains(&id))
    }

    /// Average number of layers processed simultaneously (the metric of
    /// the paper's core-granularity discussion, Sec. VII-A2), weighted
    /// by group MACs.
    pub fn avg_layers_concurrent(&self, dnn: &Dnn) -> f64 {
        let mut weighted = 0.0;
        let mut total = 0.0;
        for g in &self.groups {
            let macs: u64 = g.members.iter().map(|&m| dnn.layer(m).macs(1)).sum();
            weighted += g.members.len() as f64 * macs as f64;
            total += macs as f64;
        }
        if total == 0.0 {
            0.0
        } else {
            weighted / total
        }
    }
}

/// Energy constants mirrored from the evaluator for the DP's analytic
/// estimate (pJ/byte and pJ/MAC); exactness is unnecessary, relative
/// magnitudes drive the segmentation.
const E_DRAM: f64 = 80.0;
const E_NOC_HOP: f64 = 0.6;
const E_MAC: f64 = 0.25;

/// Partitions a DNN into layer groups with batch units, Tangram-style.
///
/// One forward pass: each segment start `j` extends its segment one
/// layer at a time, updating per-sample integer aggregates (MACs,
/// weight, activation, internal and DRAM bytes, pipeline depth)
/// incrementally, and offers the [`group_cost`] of every batch unit to
/// the segment's end. Each `dp[i]` sees its candidates in (start
/// ascending, batch unit ascending) order, so ties resolve to the
/// earliest start and the smallest unit.
pub fn partition_graph(
    dnn: &Dnn,
    arch: &ArchConfig,
    batch: u32,
    opts: &PartitionOptions,
) -> GraphPartition {
    let layers: Vec<LayerId> = dnn.compute_ids().collect();
    let n = layers.len();
    if n == 0 {
        return GraphPartition { groups: vec![] };
    }
    let max_len = opts.max_group_layers.min(arch.n_cores() as usize).max(1);
    let mut units: Vec<u32> = opts
        .batch_units
        .iter()
        .map(|&u| u.min(batch))
        .filter(|&u| u >= 1)
        .collect();
    units.sort_unstable();
    units.dedup();

    let mut walk = SegmentWalk::new(dnn, &layers);

    // dp[i]: best cost covering layers[0..i]; choice[i] = (j, batch_unit)
    // meaning the last group is layers[j..i].
    let mut dp = vec![f64::INFINITY; n + 1];
    let mut choice = vec![(0usize, 1u32); n + 1];
    dp[0] = 0.0;
    for j in 0..n {
        if !dp[j].is_finite() {
            continue;
        }
        let mut agg = SegmentAggregates::default();
        for k in j..(j + max_len).min(n) {
            walk.push(&mut agg, j, k);
            let i = k + 1;
            for &bu in &units {
                let c = agg.cost(arch, bu, batch);
                if dp[j] + c < dp[i] {
                    dp[i] = dp[j] + c;
                    choice[i] = (j, bu);
                }
            }
        }
    }

    // Reconstruct.
    let mut groups = Vec::new();
    let mut i = n;
    while i > 0 {
        let (j, bu) = choice[i];
        groups.push(GroupSpec {
            members: layers[j..i].to_vec(),
            batch_unit: bu,
        });
        i = j;
    }
    groups.reverse();
    GraphPartition { groups }
}

/// Incremental aggregation of contiguous runs of the compute layers.
struct SegmentWalk<'a> {
    dnn: &'a Dnn,
    layers: &'a [LayerId],
    /// Index in `layers` of every compute layer, by layer id.
    pos: Vec<usize>,
    /// Index of each layer's last successor (`usize::MAX` if none).
    last_succ: Vec<usize>,
    /// Longest in-segment path ending at each member of the current
    /// segment.
    level: Vec<u32>,
}

impl<'a> SegmentWalk<'a> {
    fn new(dnn: &'a Dnn, layers: &'a [LayerId]) -> Self {
        let mut pos = vec![usize::MAX; dnn.len()];
        for (k, id) in layers.iter().enumerate() {
            pos[id.idx()] = k;
        }
        let last_succ = layers
            .iter()
            .map(|&id| {
                dnn.succs(id)
                    .iter()
                    .map(|s| pos[s.idx()])
                    .max()
                    .unwrap_or(usize::MAX)
            })
            .collect();
        Self {
            dnn,
            layers,
            pos,
            last_succ,
            level: vec![0; layers.len()],
        }
    }

    /// Extends `agg`, the aggregates of `layers[j..k]`, by `layers[k]`.
    fn push(&mut self, agg: &mut SegmentAggregates, j: usize, k: usize) {
        let dnn = self.dnn;
        let id = self.layers[k];
        let l = dnn.layer(id);
        let macs = l.macs(1);
        agg.macs += macs;
        agg.max_layer_macs = agg.max_layer_macs.max(macs);
        agg.weight_bytes += l.weight_bytes();
        let out = l.ofmap.bytes();
        agg.act_bytes += out;
        // The output goes to DRAM until its last successor joins.
        agg.ext_bytes += out;
        let mut depth = 1;
        let preds = dnn.preds(id);
        for (e, &p) in preds.iter().enumerate() {
            let vol = dnn.layer(p).ofmap.bytes();
            agg.act_bytes += vol;
            let q = self.pos[p.idx()];
            if (j..k).contains(&q) {
                agg.internal_bytes += vol;
                depth = depth.max(self.level[q] + 1);
                if self.last_succ[q] == k && !preds[..e].contains(&p) {
                    agg.ext_bytes -= vol;
                }
            } else {
                agg.ext_bytes += vol;
            }
        }
        self.level[k] = depth;
        agg.depth = agg.depth.max(depth);
    }
}

/// Analytic cost estimate of one candidate group (lower is better).
///
/// The DP needs an *additive* objective: summing per-group `delay *
/// energy` products would systematically favor fragmentation (for any
/// split, `sum(d_i * e_i) <= (sum d)(sum e)`). We therefore minimize the
/// energy-equivalent `E + P_ref * D`, with `P_ref` a chip-power scale
/// derived from the architecture — a standard scalarization whose
/// optimum tracks the E*D Pareto front. `f64::INFINITY` marks infeasible
/// segments.
///
/// [`partition_graph`] scores its segments with the same function,
/// building their aggregates incrementally instead of by a member scan.
pub fn group_cost(dnn: &Dnn, arch: &ArchConfig, seg: &[LayerId], bu: u32, batch: u32) -> f64 {
    SegmentAggregates::of(dnn, seg).cost(arch, bu, batch)
}

/// Per-sample aggregates of one candidate group, from which
/// [`SegmentAggregates::cost`] scores any batch unit: the MAC and
/// activation terms scale linearly with the batch unit, the weights and
/// the pipeline depth do not. All fields are exact integers, so scaling
/// them reproduces the per-layer `batch_unit`-scaled sums bit for bit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct SegmentAggregates {
    macs: u64,
    max_layer_macs: u64,
    weight_bytes: u64,
    /// Member outputs plus every member input edge.
    act_bytes: u64,
    /// Input edges whose producer is a member.
    internal_bytes: u64,
    /// Input edges from outside the group plus member outputs with a
    /// consumer outside it (or none at all): the DRAM traffic.
    ext_bytes: u64,
    depth: u32,
}

impl SegmentAggregates {
    /// Aggregates of an arbitrary member list (topological order), by a
    /// direct scan with membership tests.
    fn of(dnn: &Dnn, seg: &[LayerId]) -> Self {
        let in_seg = |l: LayerId| seg.contains(&l);
        let mut agg = SegmentAggregates {
            depth: dnn.depth_within(seg),
            ..Default::default()
        };
        for &id in seg {
            let l = dnn.layer(id);
            let macs = l.macs(1);
            agg.macs += macs;
            agg.max_layer_macs = agg.max_layer_macs.max(macs);
            agg.weight_bytes += l.weight_bytes();
            let out = l.ofmap.bytes();
            agg.act_bytes += out;
            // External inputs (DNN input or earlier groups) come from DRAM.
            for &p in dnn.preds(id) {
                let vol = dnn.layer(p).ofmap.bytes();
                agg.act_bytes += vol;
                if in_seg(p) {
                    agg.internal_bytes += vol;
                } else {
                    agg.ext_bytes += vol;
                }
            }
            // External outputs go to DRAM.
            let succs = dnn.succs(id);
            if succs.is_empty() || succs.iter().any(|&s| !in_seg(s)) {
                agg.ext_bytes += out;
            }
        }
        agg
    }

    /// The group's analytic cost at batch unit `bu` (see [`group_cost`]).
    fn cost(&self, arch: &ArchConfig, bu: u32, batch: u32) -> f64 {
        let m = arch.n_cores() as f64;
        let rounds = (batch as f64 / bu as f64).ceil().max(1.0);
        let depth = self.depth as f64;
        let b = bu as u64;
        let macs = self.macs * b;
        let max_layer_macs = self.max_layer_macs * b;
        let weight_bytes = self.weight_bytes;
        let ext_io_bytes = (self.ext_bytes * b) as f64;
        let internal_bytes = (self.internal_bytes * b) as f64;
        let act_bytes = (self.act_bytes * b) as f64;

        // Aggregate working set (mirrors the evaluator's per-core model):
        // weights plus one stage's activations must fit the combined GLBs;
        // overflow spills to DRAM every round (write + re-read).
        let glb_total = (arch.n_cores() as u64 * arch.glb_bytes()) as f64;
        let working_set = weight_bytes as f64 + act_bytes;
        let overflow = (working_set - glb_total).max(0.0);
        // Weights load once per group execution, amortized over the rounds.
        let dram_bytes = ext_io_bytes + weight_bytes as f64 / rounds + 2.0 * overflow;
        let freq = arch.freq_ghz() * 1e9;

        // Per-stage times. Compute assumes proportional allocation, so the
        // slowest stage is roughly total/M but never better than the largest
        // layer on its share of cores.
        let peak = m * arch.macs_per_core() as f64 * freq;
        let t_compute = (macs as f64 / peak).max(max_layer_macs as f64 / peak * 1.2);
        let t_dram = dram_bytes / (arch.dram_bw() * 1e9);
        // Internal forwarding rides the NoC; average distance ~ sqrt(M)/2
        // hops spread over ~M horizontal link columns. Cross-chiplet
        // fraction pays the D2D bandwidth ratio.
        let avg_hops = (m.sqrt() / 2.0).max(1.0);
        let noc_cap = arch.noc_bw() * 1e9 * m.sqrt();
        let cross_frac = 1.0 - 1.0 / arch.n_chiplets() as f64;
        let d2d_cap = arch.d2d_bw() * 1e9 * m.sqrt();
        let t_net = internal_bytes * avg_hops / noc_cap + internal_bytes * cross_frac / d2d_cap;
        let stage = t_compute.max(t_dram).max(t_net / depth.max(1.0))
            + gemini_sim::evaluate::STAGE_OVERHEAD_S;
        let delay = stage * (rounds + depth - 1.0) + gemini_sim::evaluate::GROUP_OVERHEAD_S;

        let energy = (dram_bytes * rounds * E_DRAM
            + internal_bytes * rounds * avg_hops * E_NOC_HOP
            + macs as f64 * rounds * E_MAC)
            * 1e-12;

        // Chip-power scale: ~3x the peak MAC power covers buffers, network
        // and DRAM interface activity.
        let p_ref = m * arch.macs_per_core() as f64 * freq * E_MAC * 1e-12 * 3.0;
        energy + delay * p_ref
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gemini_arch::presets;
    use gemini_model::zoo;

    fn partition(dnn: &Dnn, batch: u32) -> GraphPartition {
        partition_graph(
            dnn,
            &presets::g_arch_72(),
            batch,
            &PartitionOptions::default(),
        )
    }

    #[test]
    fn covers_all_compute_layers_once() {
        let dnn = zoo::resnet50();
        let p = partition(&dnn, 16);
        let mut seen = std::collections::HashSet::new();
        for g in &p.groups {
            assert!(!g.members.is_empty());
            assert!(g.members.len() <= 36);
            for &m in &g.members {
                assert!(!dnn.layer(m).is_input());
                assert!(seen.insert(m), "{m} appears twice");
            }
        }
        assert_eq!(seen.len(), dnn.compute_ids().count());
    }

    #[test]
    fn groups_are_contiguous_topo_segments() {
        let dnn = zoo::transformer_base();
        let p = partition(&dnn, 16);
        let layers: Vec<LayerId> = dnn.compute_ids().collect();
        let mut idx = 0;
        for g in &p.groups {
            for &m in &g.members {
                assert_eq!(m, layers[idx], "groups must tile the topo order");
                idx += 1;
            }
        }
    }

    #[test]
    fn pipelining_wins_over_singletons() {
        // LP mapping exists to keep dependent layers on-chip: the DP
        // should form multi-layer groups for batched ResNet.
        let dnn = zoo::resnet50();
        let p = partition(&dnn, 16);
        let multi = p.groups.iter().filter(|g| g.members.len() > 1).count();
        assert!(
            multi * 2 > p.groups.len(),
            "most groups should pipeline: {multi}/{} are multi-layer",
            p.groups.len()
        );
        assert!(p.avg_layers_concurrent(&dnn) > 1.5);
    }

    #[test]
    fn batch_units_divide_work() {
        let dnn = zoo::resnet50();
        let p = partition(&dnn, 64);
        for g in &p.groups {
            assert!(g.batch_unit >= 1 && g.batch_unit <= 64);
        }
        // At batch 64 at least some groups should use batch units > 1
        // (sub-batching amortizes fill/drain).
        assert!(p.groups.iter().any(|g| g.batch_unit > 1));
    }

    #[test]
    fn batch_one_forces_unit_batch() {
        let dnn = zoo::googlenet();
        let p = partition(&dnn, 1);
        assert!(p.groups.iter().all(|g| g.batch_unit == 1));
    }

    #[test]
    fn group_of_finds_layers() {
        let dnn = zoo::two_conv_example();
        let p = partition(&dnn, 4);
        assert!(p.group_of(LayerId(1)).is_some());
        assert_eq!(
            p.group_of(LayerId(0)),
            None,
            "input pseudo-layer is unmapped"
        );
    }

    #[test]
    fn infinite_costs_never_win() {
        let dnn = zoo::pnasnet();
        let p = partition(&dnn, 8);
        assert!(!p.is_empty());
    }

    #[test]
    fn incremental_aggregates_match_a_member_scan() {
        // Branchy graphs (concat fan-in, residual fan-out) exercise the
        // output-closing and depth updates of the walk.
        for dnn in [zoo::googlenet(), zoo::resnet50(), zoo::transformer_base()] {
            let layers: Vec<LayerId> = dnn.compute_ids().collect();
            let mut walk = SegmentWalk::new(&dnn, &layers);
            for j in 0..layers.len() {
                let mut agg = SegmentAggregates::default();
                for k in j..(j + 12).min(layers.len()) {
                    walk.push(&mut agg, j, k);
                    assert_eq!(
                        agg,
                        SegmentAggregates::of(&dnn, &layers[j..=k]),
                        "{} segment {j}..={k}",
                        dnn.name()
                    );
                }
            }
        }
    }

    #[test]
    fn group_cost_prefers_feasible_residency() {
        // A single huge-weight FC layer: streaming cost should exceed a
        // small conv's cost by orders of magnitude.
        let dnn = zoo::resnet50();
        let arch = presets::g_arch_72();
        let layers: Vec<LayerId> = dnn.compute_ids().collect();
        let c_small = group_cost(&dnn, &arch, &layers[..1], 1, 1);
        assert!(c_small.is_finite());
        assert!(c_small > 0.0);
    }
}
