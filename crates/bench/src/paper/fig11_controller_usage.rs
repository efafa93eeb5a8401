//! Regenerates **Figure 11**: CDFs of CPU utilization and memory usage
//! across the controller's NSDB and Switch Agent tasks.
//!
//! "Their single-core-equivalent CPU utilization peaks out below 25%, with
//! 75% of tasks never exceeding 15% ... memory consumption peaks out well
//! below 3GB, with 50% of tasks never exceeding 1.5GB."
//!
//! Measurement: a full fabric managed by a fleet of service tasks (two NSDB
//! replicas and several Switch Agent shards, as in production's 10–20 tasks
//! per DC). The workload deploys RPAs fleet-wide and runs continuous
//! reconcile rounds. CPU is measured busy-wall-time over elapsed wall-time
//! per task; memory is the task's state superset plus the service baseline.

use super::Artefact;
use crate::scenarios::converged_fabric;
use crate::stats::render_cdf;
use centralium::apps::path_equalization::equalize_backbone_paths;
use centralium::compile::compile_intent;
use centralium::switch_agent::SwitchAgent;
use centralium_bgp::attrs::well_known;
use centralium_nsdb::{Path, ReplicatedNsdb};
use centralium_simnet::ManagementPlane;
use centralium_topology::FabricSpec;
use std::time::Instant;

const AGENT_SHARDS: usize = 8;
const NSDB_REPLICAS: usize = 2;
const ROUNDS: usize = 20;

/// CPU is host time; memory is a deterministic state-size estimate.
/// `tiny` manages the 22-device tiny fabric instead of 264 devices.
pub(crate) fn artefact(tiny: bool) -> Artefact {
    let spec = if tiny {
        FabricSpec::tiny()
    } else {
        FabricSpec {
            pods: 8,
            planes: 4,
            ssws_per_plane: 8,
            racks_per_pod: 16,
            grids: 4,
            fauus_per_grid: 8,
            backbone_devices: 8,
            link_capacity_gbps: 100.0,
        }
    };
    let mut out = Artefact::default();
    let mut fab = converged_fabric(&spec, 21);
    let mgmt = ManagementPlane::compute(fab.net.topology(), fab.idx.rsw[0][0]);
    out.det(format!(
        "Figure 11: controller resource usage over a {}-device fabric, {} agent shards + {} NSDB replicas, {} reconcile rounds\n",
        fab.net.topology().device_count(),
        AGENT_SHARDS,
        NSDB_REPLICAS,
        ROUNDS
    ));

    // Shard devices across agents round-robin (production shards by scope).
    let mut agents: Vec<SwitchAgent> = (0..AGENT_SHARDS)
        .map(|_| SwitchAgent::new(mgmt.clone()))
        .collect();
    let mut nsdb = ReplicatedNsdb::new(NSDB_REPLICAS);
    let devices = fab.net.device_ids();
    let intent = equalize_backbone_paths(
        well_known::BACKBONE_DEFAULT_ROUTE,
        centralium_topology::Layer::Backbone,
    );
    let docs = compile_intent(fab.net.topology(), &intent).expect("compiles");
    for (i, (dev, doc)) in docs.iter().enumerate() {
        agents[i % AGENT_SHARDS].set_intended(*dev, doc).unwrap();
        nsdb.publish(
            Path::parse(&format!("/devices/d{}/rpa/{}", dev.0, doc.name())),
            serde_json::to_value(doc).expect("serializes"),
        );
    }

    let mut busy_wall = [0.0f64; AGENT_SHARDS];
    let wall_start = Instant::now();
    for _ in 0..ROUNDS {
        for (i, agent) in agents.iter_mut().enumerate() {
            let t = Instant::now();
            agent.poll_current(&fab.net).unwrap();
            agent.reconcile(&mut fab.net).unwrap();
            busy_wall[i] += t.elapsed().as_secs_f64();
        }
        fab.net.run_until_quiescent();
        // NSDB read traffic: apps consuming current state.
        for dev in devices.iter().take(64) {
            let _ = nsdb.get_matching(&Path::parse(&format!("/devices/d{}/**", dev.0)));
        }
    }
    // Idle time between rounds dominates in production; model a polling
    // cadence where each round occupies a 1-second slot.
    let elapsed = wall_start.elapsed().as_secs_f64().max(ROUNDS as f64 * 1.0);

    let mut cpu: Vec<f64> = busy_wall.iter().map(|b| 100.0 * b / elapsed).collect();
    // NSDB task CPU: ops over the same window, at a nominal cost per op.
    let (reads, writes, _) = nsdb.op_counters();
    let nsdb_busy = (reads + writes) as f64 * 20e-6; // 20 µs/op
    for _ in 0..NSDB_REPLICAS {
        cpu.push(100.0 * nsdb_busy / elapsed);
    }

    let mut mem_gb: Vec<f64> = agents
        .iter()
        .map(|a| a.service.approx_memory_bytes() as f64 / 1e9)
        .collect();
    for _ in 0..NSDB_REPLICAS {
        mem_gb.push(
            (256.0 * 1024.0 * 1024.0 + nsdb.approx_bytes() as f64 / NSDB_REPLICAS as f64) / 1e9,
        );
    }

    let cpu_label = "single-core-equivalent CPU utilization";
    out.host(render_cdf(cpu_label, "%", &cpu));
    out.det(render_cdf("memory usage", "GB", &mem_gb));
    let max_cpu = cpu.iter().cloned().fold(0.0, f64::max);
    let max_mem = mem_gb.iter().cloned().fold(0.0, f64::max);
    out.host(format!("max CPU {max_cpu:.2}% (paper: peaks below 25%)"));
    out.det(format!("max memory {max_mem:.2} GB (paper: well below 3 GB)"));
    out
}
