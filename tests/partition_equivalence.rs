//! The one-pass partition DP against the per-segment DP it replaced.
//!
//! `partition_graph` builds each segment's cost from incrementally
//! updated per-sample aggregates instead of rescanning the segment for
//! every (segment, batch unit) pair. The reference below is the former
//! DP verbatim: every segment scored by a fresh member scan, with the
//! batch unit folded into every term. Both must pick the same groups
//! and batch units everywhere — any drift in a cost term, a tie order
//! or the depth would show as a different partition on some graph.

use gemini::arch::{presets, ArchConfig};
use gemini::core::dse::DseSpec;
use gemini::core::partition::{partition_graph, GraphPartition, PartitionOptions};
use gemini::core::GroupSpec;
use gemini::model::{zoo, Dnn, LayerId};

const E_DRAM: f64 = 80.0;
const E_NOC_HOP: f64 = 0.6;
const E_MAC: f64 = 0.25;

/// The former `partition_graph`: one `reference_group_cost` call per
/// (segment, batch unit).
fn reference_partition(
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

    let mut dp = vec![f64::INFINITY; n + 1];
    let mut choice = vec![(0usize, 1u32); n + 1];
    dp[0] = 0.0;
    for i in 1..=n {
        for j in i.saturating_sub(max_len)..i {
            if !dp[j].is_finite() {
                continue;
            }
            let seg = &layers[j..i];
            for &bu in &units {
                let c = reference_group_cost(dnn, arch, seg, bu, batch);
                if dp[j] + c < dp[i] {
                    dp[i] = dp[j] + c;
                    choice[i] = (j, bu);
                }
            }
        }
    }

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

/// The former `group_cost`: a member scan at batch unit `bu`.
fn reference_group_cost(dnn: &Dnn, arch: &ArchConfig, seg: &[LayerId], bu: u32, batch: u32) -> f64 {
    let m = arch.n_cores() as f64;
    let in_seg = |l: LayerId| seg.contains(&l);
    let rounds = (batch as f64 / bu as f64).ceil().max(1.0);
    let depth = dnn.depth_within(seg) as f64;

    let mut macs: u64 = 0;
    let mut weight_bytes: u64 = 0;
    let mut ext_io_bytes: f64 = 0.0;
    let mut internal_bytes: f64 = 0.0;
    let mut act_bytes: f64 = 0.0;
    let mut max_layer_macs: u64 = 0;

    for &id in seg {
        let l = dnn.layer(id);
        macs += l.macs(bu);
        max_layer_macs = max_layer_macs.max(l.macs(bu));
        weight_bytes += l.weight_bytes();
        let out_bytes = l.ofmap.bytes() * bu as u64;
        act_bytes += out_bytes as f64;
        for &p in dnn.preds(id) {
            let vol = dnn.layer(p).ofmap.bytes() as f64 * bu as f64;
            act_bytes += vol;
            if in_seg(p) {
                internal_bytes += vol;
            } else {
                ext_io_bytes += vol;
            }
        }
        let succs = dnn.succs(id);
        if succs.is_empty() || succs.iter().any(|&s| !in_seg(s)) {
            ext_io_bytes += out_bytes as f64;
        }
    }

    let glb_total = (arch.n_cores() as u64 * arch.glb_bytes()) as f64;
    let working_set = weight_bytes as f64 + act_bytes;
    let overflow = (working_set - glb_total).max(0.0);
    let dram_bytes = ext_io_bytes + weight_bytes as f64 / rounds + 2.0 * overflow;
    let freq = arch.freq_ghz() * 1e9;

    let peak = m * arch.macs_per_core() as f64 * freq;
    let t_compute = (macs as f64 / peak).max(max_layer_macs as f64 / peak * 1.2);
    let t_dram = dram_bytes / (arch.dram_bw() * 1e9);
    let avg_hops = (m.sqrt() / 2.0).max(1.0);
    let noc_cap = arch.noc_bw() * 1e9 * m.sqrt();
    let cross_frac = 1.0 - 1.0 / arch.n_chiplets() as f64;
    let d2d_cap = arch.d2d_bw() * 1e9 * m.sqrt();
    let t_net = internal_bytes * avg_hops / noc_cap + internal_bytes * cross_frac / d2d_cap;
    let stage =
        t_compute.max(t_dram).max(t_net / depth.max(1.0)) + gemini::sim::evaluate::STAGE_OVERHEAD_S;
    let delay = stage * (rounds + depth - 1.0) + gemini::sim::evaluate::GROUP_OVERHEAD_S;

    let energy = (dram_bytes * rounds * E_DRAM
        + internal_bytes * rounds * avg_hops * E_NOC_HOP
        + macs as f64 * rounds * E_MAC)
        * 1e-12;

    let p_ref = m * arch.macs_per_core() as f64 * freq * E_MAC * 1e-12 * 3.0;
    energy + delay * p_ref
}

/// Every zoo workload, decode steps at a fixed position.
const ZOO: [&str; 16] = [
    "rn-50",
    "rnx",
    "ires",
    "pnas",
    "tf",
    "tf-large",
    "bert",
    "gn",
    "dn-121",
    "mbv2",
    "effnet",
    "vgg",
    "two-conv",
    "tiny-resnet",
    "gpt2-decode@128",
    "decode-tiny@64",
];

fn option_sets() -> [PartitionOptions; 2] {
    [
        PartitionOptions::default(),
        PartitionOptions {
            max_group_layers: 3,
            batch_units: vec![16, 1, 4],
        },
    ]
}

fn assert_same(dnn: &Dnn, arch: &ArchConfig, batch: u32, opts: &PartitionOptions, what: &str) {
    let got = partition_graph(dnn, arch, batch, opts);
    let want = reference_partition(dnn, arch, batch, opts);
    assert!(!got.is_empty(), "{what}: empty partition");
    assert_eq!(got, want, "{what}");
}

/// Every zoo graph at batches 1, 3, 8 and 64 (batch-unit sets {1},
/// {1,2,3}, {1,2,4,8}, {1,2,4,8,16}) under both option sets.
fn check_zoo_on(arch_name: &str, arch: &ArchConfig) {
    for name in ZOO {
        let dnn = zoo::by_name(name).expect("zoo workload").graph;
        for batch in [1, 3, 8, 64] {
            for (o, opts) in option_sets().iter().enumerate() {
                let what = format!("{name} on {arch_name}, batch {batch}, options {o}");
                assert_same(&dnn, arch, batch, opts, &what);
            }
        }
    }
}

// One test per architecture, so the harness runs them in parallel.
#[test]
fn zoo_graphs_on_g_arch_match_the_reference() {
    check_zoo_on("g-arch", &presets::g_arch_72());
}

#[test]
fn zoo_graphs_on_t_arch_match_the_reference() {
    check_zoo_on("t-arch", &presets::t_arch());
}

#[test]
fn zoo_graphs_on_simba_s_match_the_reference() {
    check_zoo_on("simba-s", &presets::simba_s_arch());
}

#[test]
fn transformer_on_strided_72tops_candidates_matches_the_reference() {
    let dnn = zoo::by_name("tf").expect("zoo workload").graph;
    let candidates = DseSpec::table1(72.0).candidates();
    let mut checked = 0;
    for (i, arch) in candidates.iter().enumerate().step_by(293) {
        for (o, opts) in option_sets().iter().enumerate() {
            assert_same(&dnn, arch, 8, opts, &format!("candidate {i}, options {o}"));
        }
        checked += 1;
    }
    assert!(checked >= 10, "only {checked} candidates sampled");
}
