//! The profiling layer, exercised end-to-end on real convergence runs:
//! route provenance chains, span tracing with Chrome-trace export, and the
//! hot-path log-bucket histograms plus memory accounting.
//!
//! Span tracing is process-global, so the tests that toggle it serialize on
//! one mutex (cargo runs tests on threads in one process).

use centralium_bgp::attrs::well_known;
use centralium_bgp::Prefix;
use centralium_rpa::{
    Destination, PathSelectionRpa, PathSelectionStatement, PathSet, PathSignature, RpaDocument,
};
use centralium_simnet::{SimConfig, SimNet};
use centralium_telemetry::{span, ProvenanceKind, ProvenanceRecord, Telemetry};
use centralium_topology::{build_fabric, FabricSpec};

fn tiny_net() -> (SimNet, Vec<centralium_topology::DeviceId>) {
    let (topo, idx, _) = build_fabric(&FabricSpec::tiny());
    let net = SimNet::new(topo, SimConfig::builder().seed(7).build());
    (net, idx.backbone.clone())
}

fn tracing_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    match LOCK.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[test]
fn provenance_chain_covers_cause_and_effect() {
    let (mut net, backbone) = tiny_net();
    net.establish_all();
    let log = net.trace_provenance(Prefix::DEFAULT);
    for &eb in &backbone {
        net.originate(eb, Prefix::DEFAULT, [well_known::BACKBONE_DEFAULT_ROUTE]);
    }
    net.run_until_quiescent().expect_converged();

    let records = log.records();
    assert!(!records.is_empty(), "convergence produced no provenance");
    let has = |k: ProvenanceKind| records.iter().any(|r| r.kind == k);
    assert!(has(ProvenanceKind::UpdateReceived), "no UPDATE arrivals");
    assert!(has(ProvenanceKind::DecisionFlip), "no decision flips");
    assert!(has(ProvenanceKind::FibDelta), "no FIB deltas");
    assert!(has(ProvenanceKind::AdjRibInChanged), "no RIB changes");
    assert!(
        log.device_hops().len() > 1,
        "a fabric-wide route must traverse devices: {:?}",
        log.device_hops()
    );
    // Sequence numbers are the causal order; times never regress along it.
    for pair in records.windows(2) {
        assert!(pair[0].seq < pair[1].seq);
        assert!(pair[0].time_us <= pair[1].time_us);
    }

    // JSONL export: one parseable object per record.
    let mut buf = Vec::new();
    log.export_jsonl(&mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();
    assert_eq!(text.lines().count(), records.len());
    for line in text.lines() {
        let v: serde::Value = serde_json::from_str(line).unwrap();
        assert_eq!(v.get("prefix").unwrap().as_str(), Some("0.0.0.0/0"));
        assert!(v.get("kind").unwrap().as_str().is_some());
    }
}

/// Journal and provenance attached, a run with session churn, an RPA deploy
/// and message loss: FIBs, journal JSONL bytes and provenance records, driven
/// either one event at a time or in whole windows.
fn observed_run(stepped: bool) -> (String, Vec<u8>, Vec<ProvenanceRecord>) {
    let (topo, idx, _) = build_fabric(&FabricSpec::tiny());
    let mut cfg = SimConfig::builder().seed(21).build();
    cfg.fault.drop_probability = 0.02;
    let mut net = SimNet::new(topo, cfg);
    net.set_telemetry(Telemetry::with_journal(1 << 20));
    let log = net.trace_provenance(Prefix::DEFAULT);
    let settle = |net: &mut SimNet| {
        if stepped {
            while net.step() {}
        } else {
            net.run_until_quiescent().expect_converged();
        }
    };
    net.establish_all();
    for &eb in &idx.backbone {
        net.originate(eb, Prefix::DEFAULT, [well_known::BACKBONE_DEFAULT_ROUTE]);
    }
    settle(&mut net);
    let ssw = idx.ssw[0][0];
    net.deploy_rpa(
        ssw,
        RpaDocument::PathSelection(PathSelectionRpa::single(
            "equalize",
            PathSelectionStatement::select(
                Destination::Community(well_known::BACKBONE_DEFAULT_ROUTE),
                vec![PathSet::new("all", PathSignature::any())],
            ),
        )),
        300,
    );
    net.device_down(idx.fadu[0][0]);
    settle(&mut net);
    net.device_up(idx.fadu[0][0]);
    settle(&mut net);
    let mut journal = Vec::new();
    net.telemetry()
        .journal()
        .expect("journal attached")
        .export_jsonl(&mut journal)
        .unwrap();
    (format!("{:?}", net.fib_snapshot()), journal, log.records())
}

#[test]
fn observability_does_not_change_the_schedule() {
    let (fibs, journal, provenance) = observed_run(false);
    let (ref_fibs, ref_journal, ref_provenance) = observed_run(true);
    assert!(fibs == ref_fibs, "wide windows changed the FIBs");
    assert!(
        journal == ref_journal,
        "journal JSONL differs from the stepped run"
    );
    assert_eq!(provenance, ref_provenance);
    // The run exercised every record source: pre-pass (session transitions),
    // device work (decisions), merge (dropped messages).
    let text = String::from_utf8(journal).unwrap();
    for kind in ["SessionTransition", "BgpDecision", "FaultInjected"] {
        assert!(text.contains(kind), "no {kind} event journaled");
    }
    assert!(!provenance.is_empty());
    for pair in provenance.windows(2) {
        assert!(pair[0].seq < pair[1].seq);
        assert!(pair[0].time_us <= pair[1].time_us);
    }
}

#[test]
fn spans_cover_a_run_and_export_chrome_trace() {
    let _g = tracing_lock();
    span::set_tracing(true);
    span::drain();
    let (mut net, backbone) = tiny_net();
    net.establish_all();
    for &eb in &backbone {
        net.originate(eb, Prefix::DEFAULT, [well_known::BACKBONE_DEFAULT_ROUTE]);
    }
    net.run_until_quiescent().expect_converged();
    span::set_tracing(false);
    let records = span::drain();

    let names: Vec<&str> = records.iter().map(|r| r.name.as_ref()).collect();
    assert!(names.contains(&"converge"), "no converge span: {names:?}");
    assert!(
        names.iter().any(|n| *n == "deliver" || *n == "originate"),
        "no per-event work spans: {names:?}"
    );
    let converge = records.iter().find(|r| r.name == "converge").unwrap();
    assert!(
        converge.args.iter().any(|(k, v)| *k == "events" && *v > 0),
        "converge span must carry the event count: {:?}",
        converge.args
    );

    // Tracing also arms the per-event latency histogram and the per-device
    // busy accounting.
    let snap = net.telemetry().metrics().snapshot();
    let lat = snap.log_histogram("simnet.event.latency_ns").unwrap();
    assert!(lat.count() > 0, "no event latencies recorded");
    assert!(
        snap.counters
            .iter()
            .any(|(k, v)| k.ends_with(".busy_ns") && *v > 0),
        "no per-device busy time recorded"
    );

    // The Chrome Trace Event export must round-trip as JSON with the
    // structure chrome://tracing and Perfetto load.
    let mut buf = Vec::new();
    span::export_chrome_trace(&records, &mut buf).unwrap();
    let doc: serde::Value = serde_json::from_str(std::str::from_utf8(&buf).unwrap()).unwrap();
    let events = doc.get("traceEvents").unwrap().as_array().unwrap();
    assert_eq!(events.len(), records.len());
    for ev in events {
        assert_eq!(ev.get("ph").unwrap().as_str(), Some("X"));
        assert!(ev.get("ts").unwrap().as_f64().is_some());
        assert!(ev.get("dur").unwrap().as_f64().is_some());
        assert!(ev.get("name").unwrap().as_str().is_some());
    }
}

#[test]
fn histograms_and_memory_gauges_populate_without_tracing() {
    let _g = tracing_lock();
    span::set_tracing(false);
    let (mut net, backbone) = tiny_net();
    net.establish_all();
    for &eb in &backbone {
        net.originate(eb, Prefix::DEFAULT, [well_known::BACKBONE_DEFAULT_ROUTE]);
    }
    net.run_until_quiescent().expect_converged();
    let snap = net.telemetry().metrics().snapshot();

    let jobs = snap.log_histogram("simnet.window.jobs").unwrap();
    assert_eq!(
        jobs.count(),
        snap.counter("simnet.phase.windows"),
        "one jobs observation per window"
    );
    assert!(jobs.count() > 0);
    assert!(jobs.percentile(0.5).is_some());
    let batches = snap.log_histogram("simnet.batch.routes").unwrap();
    assert_eq!(batches.count(), snap.counter("simnet.batches_delivered"));

    // Tracing was off: the per-event latency histogram stays empty.
    assert_eq!(
        snap.log_histogram("simnet.event.latency_ns")
            .unwrap()
            .count(),
        0
    );

    // Memory accounting lands at the quiescence phase boundary.
    assert!(snap.gauge("mem.adj_rib_in_bytes") > 0);
    assert!(snap.gauge("mem.event_queue_hwm") > 0);
}
