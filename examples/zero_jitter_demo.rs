//! The scheduling substrate on its own: high-rate splitting, Theorem-3
//! grouping, rank-pairing placement, and discrete-event verification that
//! the resulting schedule is jitter-free while a naive placement is not.
//!
//! ```text
//! cargo run --release --example zero_jitter_demo
//! ```

use pamo::sched::theory::{gcd_all, zero_jitter_offsets};
use pamo::sched::{
    assign_groups_to_servers, const2_zero_jitter_ok, split_high_rate, StreamId, StreamTiming,
};
use pamo::sim::des::{simulate, SimConfig, SimStream};

fn main() {
    // Five streams, one of them high-rate (30 fps with 110 ms frames).
    let streams = vec![
        StreamTiming::from_rate(StreamId::source(0), 10.0, 0.030),
        StreamTiming::from_rate(StreamId::source(1), 5.0, 0.050),
        StreamTiming::from_rate(StreamId::source(2), 20.0, 0.020),
        StreamTiming::from_rate(StreamId::source(3), 10.0, 0.040),
        StreamTiming::from_rate(StreamId::source(4), 30.0, 0.110), // high rate
    ];
    println!("input streams:");
    for s in &streams {
        println!(
            "  {}: T = {} ms, p = {} ms, util = {:.2}{}",
            s.id,
            s.period / 1000,
            s.proc / 1000,
            s.utilization(),
            if s.is_high_rate() {
                "  << high-rate"
            } else {
                ""
            }
        );
    }

    // Step 1: split. ceil(s·p) substreams per high-rate stream.
    let split = split_high_rate(&streams);
    println!(
        "\nafter splitting: {} scheduler-visible streams",
        split.len()
    );

    // Step 2+3: Theorem-3 grouping + rank pairing onto 6 servers with
    // heterogeneous uplinks.
    let bits = vec![8e5, 1.5e6, 4e5, 8e5, 1.2e6];
    let uplinks = vec![5e6, 10e6, 15e6, 20e6, 25e6, 30e6];
    let assignment = assign_groups_to_servers(&streams, &bits, &uplinks).expect("schedulable");
    println!(
        "placement (total comm latency {:.4} s):",
        assignment.total_comm_latency
    );
    for (g, members) in assignment.groups.iter().enumerate() {
        let server = assignment.group_server[g];
        let timings: Vec<StreamTiming> = members.iter().map(|&i| assignment.streams[i]).collect();
        let ids: Vec<String> = timings.iter().map(|t| t.id.to_string()).collect();
        println!(
            "  group {g} -> server {server} ({} Mbps): [{}], gcd window {} ms, Σp {} ms, Const2 {}",
            uplinks[server] / 1e6,
            ids.join(", "),
            gcd_all(timings.iter().map(|t| t.period)) / 1000,
            timings.iter().map(|t| t.proc).sum::<u64>() / 1000,
            const2_zero_jitter_ok(&timings)
        );
    }

    // Step 4: verify in the simulator — Theorem-1 offsets vs naive.
    let build = |zero_jitter: bool| -> Vec<SimStream> {
        let mut phases = vec![0u64; assignment.streams.len()];
        if zero_jitter {
            for server in 0..uplinks.len() {
                let members = assignment.streams_on(server);
                let timings: Vec<StreamTiming> =
                    members.iter().map(|&i| assignment.streams[i]).collect();
                for (&idx, &off) in members
                    .iter()
                    .zip(zero_jitter_offsets(&timings).expect("Const2 holds").iter())
                {
                    phases[idx] = off;
                }
            }
        }
        assignment
            .streams
            .iter()
            .enumerate()
            .map(|(i, st)| SimStream {
                id: st.id,
                period: st.period,
                proc: st.proc,
                trans: 0,
                server: assignment.server_of[i],
                phase: phases[i],
            })
            .collect()
    };
    let cfg = SimConfig::default();
    let zj = simulate(&build(true), uplinks.len(), &cfg);
    let naive = simulate(&build(false), uplinks.len(), &cfg);
    println!("\nsimulated 20 s:");
    println!(
        "  Theorem-1 offsets: max jitter {:.6} s, mean latency {:.4} s",
        zj.max_jitter_s, zj.mean_latency_s
    );
    println!(
        "  naive phase-0:     max jitter {:.6} s, mean latency {:.4} s",
        naive.max_jitter_s, naive.mean_latency_s
    );
    assert_eq!(zj.max_jitter_s, 0.0, "Theorem 1 must hold in simulation");
}
