//! Output invariants. They check properties every correct output has,
//! not a golden digest, so an optimisation that changes the numerics
//! but keeps the system's guarantees still passes.

use eva_sched::theory::{const1_utilization_ok, const2_zero_jitter_ok};
use eva_sched::{Assignment, StreamTiming};
use eva_sim::SimReport;

/// A placement of `n_cameras` cameras on `n_servers` servers is valid
/// when every camera is placed, every stream sits on a real server, and
/// every server's streams meet the paper's zero-jitter (`Const2`) and
/// utilisation (`Const1`) constraints.
pub fn placement(a: &Assignment, n_cameras: usize, n_servers: usize) -> Result<(), String> {
    if a.server_of.len() != a.streams.len() {
        return Err(format!(
            "{} streams but {} server slots",
            a.streams.len(),
            a.server_of.len()
        ));
    }
    let mut placed = vec![false; n_cameras];
    let mut per_server: Vec<Vec<StreamTiming>> = vec![Vec::new(); n_servers];
    for (st, &server) in a.streams.iter().zip(&a.server_of) {
        let Some(slot) = placed.get_mut(st.id.source) else {
            return Err(format!("stream of unknown camera {}", st.id.source));
        };
        *slot = true;
        let Some(members) = per_server.get_mut(server) else {
            return Err(format!("stream on unknown server {server}"));
        };
        members.push(*st);
    }
    if let Some(cam) = placed.iter().position(|&p| !p) {
        return Err(format!("camera {cam} is not placed"));
    }
    for (server, members) in per_server.iter().enumerate() {
        if !const2_zero_jitter_ok(members) {
            return Err(format!("server {server} violates Const2 (zero jitter)"));
        }
        if !const1_utilization_ok(members) {
            return Err(format!("server {server} violates Const1 (utilisation)"));
        }
    }
    Ok(())
}

/// A benefit is usable when finite and not below the benefit scale's
/// lower reference.
pub fn benefit(u: f64, floor: f64) -> Result<(), String> {
    if !u.is_finite() {
        return Err(format!("benefit {u} is not finite"));
    }
    if u < floor {
        return Err(format!("benefit {u} is below the floor {floor}"));
    }
    Ok(())
}

/// Frames are conserved across the uplink paths simulated on one
/// placement over one horizon. The lossless paths deliver every frame
/// and drop none, and the faulted path delivers or counts as dropped
/// exactly the frames the lossless paths delivered, stream by stream.
pub fn frames_conserved(lossless: &[&SimReport], faulted: &SimReport) -> Result<(), String> {
    let Some(reference) = lossless.first() else {
        return Err("no lossless path to compare against".into());
    };
    for (path, r) in lossless.iter().enumerate() {
        if r.streams.len() != faulted.streams.len() {
            return Err(format!(
                "path {path} has {} streams, the faulted path {}",
                r.streams.len(),
                faulted.streams.len()
            ));
        }
        for (s, f) in r.streams.iter().zip(&faulted.streams) {
            if s.id != f.id {
                return Err(format!("path {path}: stream order differs"));
            }
            if s.dropped != 0 {
                return Err(format!(
                    "path {path}, stream {}: dropped {}",
                    s.id, s.dropped
                ));
            }
            if s.frames == 0 {
                return Err(format!("path {path}, stream {}: no frames", s.id));
            }
            if f.frames + f.dropped != s.frames {
                return Err(format!(
                    "stream {}: {} delivered + {} dropped under faults != {} generated",
                    s.id, f.frames, f.dropped, s.frames
                ));
            }
        }
    }
    let generated: u64 = reference.streams.iter().map(|s| s.frames).sum();
    if generated == 0 {
        return Err("no frames generated".into());
    }
    Ok(())
}
