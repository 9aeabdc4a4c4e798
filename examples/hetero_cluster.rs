//! Heterogeneous edge hardware: virtualize a mixed cluster into unit
//! VMs (the Sec. 3 reduction), schedule with PaMO, and map the
//! placement back to physical boxes.
//!
//! ```text
//! cargo run --release --example hetero_cluster
//! ```

use pamo::prelude::*;
use pamo::stats::rng::seeded;
use pamo::workload::clip::clip_set;
use pamo::workload::{PhysicalServer, Virtualization};

fn main() {
    // A realistic mixed rack: two embedded boards, one workstation.
    let servers = vec![
        PhysicalServer::new("jetson-nx-0", 1.0, 15e6),
        PhysicalServer::new("jetson-nx-1", 1.0, 15e6),
        PhysicalServer::new("xeon-igpu", 3.3, 90e6),
    ];
    let v = Virtualization::new(&servers);
    println!(
        "virtualized {} physical servers into {} unit VMs (skipped: {:?})",
        servers.len(),
        v.n_vms(),
        v.skipped
    );
    for vm in 0..v.n_vms() {
        println!(
            "  vm{vm} -> {} @ {:.1} Mbps",
            servers[v.physical_of(vm)].name,
            v.vm_uplinks()[vm] / 1e6
        );
    }

    let scenario = v.to_scenario(clip_set(6, 31), ConfigSpace::default());
    let pref = TruePreference::new(&scenario, [1.0, 2.0, 1.0, 1.0, 1.0]);
    let mut cfg = PamoConfig::default().plus();
    cfg.bo.max_iters = 5;
    cfg.pool_size = 30;
    let decision = Pamo::new(cfg)
        .decide(&scenario, &pref, &mut seeded(5))
        .expect("schedulable");

    let assignment = scenario.schedule(&decision.configs).unwrap();
    println!("\nPaMO placement (stream -> VM -> physical box):");
    for (i, st) in assignment.streams.iter().enumerate() {
        let vm = assignment.server_of[i];
        println!(
            "  {} ({:>4}p@{:>2}fps) -> vm{} -> {}",
            st.id,
            decision.configs[st.id.source].resolution,
            decision.configs[st.id.source].fps,
            vm,
            servers[v.physical_of(vm)].name
        );
    }
    println!(
        "\noutcome: {:.0} ms latency, {:.3} mAP, {:.1} Mbps, {:.1} W — U = {:.4}",
        decision.outcome.latency_s * 1000.0,
        decision.outcome.accuracy,
        decision.outcome.network_bps / 1e6,
        decision.outcome.power_w,
        decision.true_benefit
    );

    // How much work did the big box absorb?
    let mut per_box = vec![0usize; servers.len()];
    for (i, _) in assignment.streams.iter().enumerate() {
        per_box[v.physical_of(assignment.server_of[i])] += 1;
    }
    for (p, count) in per_box.iter().enumerate() {
        println!("  {}: {count} streams", servers[p].name);
    }
    // With 30 Mbps per xeon VM vs 15 on the Jetsons, the rank-pairing
    // matching pulls groups toward the workstation.
    assert!(
        per_box[2] > 0,
        "the workstation's faster per-VM uplink should attract streams"
    );
}
