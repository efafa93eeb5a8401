//! The profiling layer, exercised end-to-end on real convergence runs:
//! route provenance chains (a view of the journal), span tracing with
//! Chrome-trace export, and the hot-path log-bucket histograms plus memory
//! accounting.

use centralium_bgp::attrs::well_known;
use centralium_bgp::Prefix;
use centralium_rpa::{
    Destination, PathSelectionRpa, PathSelectionStatement, PathSet, PathSignature, RpaDocument,
};
use centralium_simnet::{ChaosPlan, SimConfig, SimNet};
use centralium_telemetry::{span, write_jsonl, Event, EventKind, FieldValue, Telemetry};
use centralium_topology::{build_fabric, FabricSpec};

fn tiny_net() -> (SimNet, Vec<centralium_topology::DeviceId>) {
    let (topo, idx, _) = build_fabric(&FabricSpec::tiny());
    let net = SimNet::new(topo, SimConfig::builder().seed(7).build());
    (net, idx.backbone.clone())
}

/// The provenance view: the journal's events of a provenance kind, in
/// stream order.
fn provenance(net: &SimNet) -> Vec<Event> {
    let journal = net.telemetry().journal().expect("journal attached");
    journal
        .snapshot()
        .into_iter()
        .filter(|e| e.kind.is_provenance())
        .collect()
}

/// The tiny fabric with a journal attached and the default route traced,
/// converged.
fn traced_tiny_net() -> (SimNet, Vec<centralium_topology::DeviceId>) {
    let (mut net, backbone) = tiny_net();
    net.set_telemetry(Telemetry::with_journal(1 << 20));
    net.establish_all();
    net.trace_provenance(Prefix::DEFAULT);
    for &eb in &backbone {
        net.originate(eb, Prefix::DEFAULT, [well_known::BACKBONE_DEFAULT_ROUTE]);
    }
    net.run_until_quiescent().expect_converged();
    (net, backbone)
}

#[test]
fn provenance_chain_covers_cause_and_effect() {
    let (net, _) = traced_tiny_net();
    let records = provenance(&net);
    assert!(!records.is_empty(), "convergence produced no provenance");
    let has = |k: EventKind| records.iter().any(|r| r.kind == k);
    assert!(has(EventKind::UpdateReceived), "no UPDATE arrivals");
    assert!(has(EventKind::DecisionFlip), "no decision flips");
    assert!(has(EventKind::FibDelta), "no FIB deltas");
    assert!(has(EventKind::AdjRibInChanged), "no RIB changes");
    let devices: std::collections::BTreeSet<&str> = records
        .iter()
        .filter_map(|r| r.get("device").and_then(FieldValue::as_str))
        .collect();
    assert!(
        devices.len() > 1,
        "a fabric-wide route must traverse devices: {devices:?}"
    );
    // The stream's order is the causal order; times never regress along it.
    for pair in records.windows(2) {
        assert!(pair[0].time_us <= pair[1].time_us);
    }

    // JSONL export: one parseable object per record.
    let mut buf = Vec::new();
    write_jsonl(&records, &mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();
    assert_eq!(text.lines().count(), records.len());
    for line in text.lines() {
        let v: serde::Value = serde_json::from_str(line).unwrap();
        let fields = v.get("fields").unwrap();
        assert_eq!(fields.get("prefix").unwrap().as_str(), Some("0.0.0.0/0"));
        assert!(v.get("kind").unwrap().as_str().is_some());
    }
}

#[test]
fn failed_rpa_removal_is_no_provenance_step() {
    let (mut net, backbone) = traced_tiny_net();
    let before = provenance(&net).len();

    net.remove_rpa(backbone[0], "no-such-doc", 300);
    net.run_until_quiescent().expect_converged();

    let snap = net.telemetry().metrics().snapshot();
    assert_eq!(snap.counter("simnet.rpa_failures"), 1);
    let after = provenance(&net);
    assert!(
        after[before..]
            .iter()
            .all(|e| e.kind != EventKind::RpaInstall),
        "a removal that failed was logged as an RPA step: {:?}",
        &after[before..]
    );
}

/// Journal attached and provenance armed, a run with session churn, an RPA
/// deploy and an RPA removal lost to chaos: FIBs, journal JSONL bytes and
/// the provenance view, driven either one event at a time or in whole
/// windows.
fn observed_run(stepped: bool) -> (String, Vec<u8>, Vec<Event>) {
    let (topo, idx, _) = build_fabric(&FabricSpec::tiny());
    let mut net = SimNet::new(topo, SimConfig::builder().seed(21).build());
    net.set_telemetry(Telemetry::with_journal(1 << 20));
    net.trace_provenance(Prefix::DEFAULT);
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
    net.set_chaos(ChaosPlan::with_rpc_loss(21, 1.0));
    net.remove_rpa(ssw, "equalize", 300);
    net.device_up(idx.fadu[0][0]);
    settle(&mut net);
    let mut journal = Vec::new();
    net.telemetry()
        .journal()
        .expect("journal attached")
        .export_jsonl(&mut journal)
        .unwrap();
    (
        format!("{:?}", net.fib_snapshot()),
        journal,
        provenance(&net),
    )
}

#[test]
fn observability_does_not_change_the_schedule() {
    let (fibs, journal, provenance) = observed_run(false);
    let (ref_fibs, ref_journal, ref_provenance) = observed_run(true);
    assert!(fibs == ref_fibs, "FIBs differ from the stepped run");
    assert!(
        journal == ref_journal,
        "journal JSONL differs from the stepped run"
    );
    assert_eq!(provenance, ref_provenance);
    // The run exercised every record source: pre-pass (session transitions),
    // device work (decisions), and the RPC scheduling outside any window
    // (the lost removal).
    let text = String::from_utf8(journal).unwrap();
    for kind in ["SessionTransition", "BgpDecision", "FaultInjected"] {
        assert!(text.contains(kind), "no {kind} event journaled");
    }
    assert!(!provenance.is_empty());
    for pair in provenance.windows(2) {
        assert!(pair[0].time_us <= pair[1].time_us);
    }
}

#[test]
fn spans_cover_a_run_and_export_chrome_trace() {
    let (mut net, backbone) = tiny_net();
    net.telemetry().set_tracing(true);
    net.establish_all();
    for &eb in &backbone {
        net.originate(eb, Prefix::DEFAULT, [well_known::BACKBONE_DEFAULT_ROUTE]);
    }
    net.run_until_quiescent().expect_converged();
    net.telemetry().set_tracing(false);
    let records = net.telemetry().spans();

    let names: Vec<&str> = records.iter().map(|r| r.name.as_ref()).collect();
    assert!(names.contains(&"converge"), "no converge span: {names:?}");
    assert!(
        names.contains(&"deliver_batch") && names.contains(&"originate"),
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
    assert!(snap.gauge("mem.loc_rib_bytes") > 0);
    assert!(snap.gauge("mem.event_queue_hwm") > 0);
}

#[test]
fn tracing_is_per_fabric() {
    // Two fabrics converge concurrently; only the armed one is traced. The
    // barrier arms one before either starts converging.
    let start = std::sync::Barrier::new(2);
    let converge = |traced: bool| {
        let (mut net, backbone) = tiny_net();
        net.telemetry().set_tracing(traced);
        start.wait();
        net.establish_all();
        for &eb in &backbone {
            net.originate(eb, Prefix::DEFAULT, [well_known::BACKBONE_DEFAULT_ROUTE]);
        }
        net.run_until_quiescent().expect_converged();
        net
    };
    let (armed, quiet) = std::thread::scope(|s| {
        let armed = s.spawn(|| converge(true));
        let quiet = s.spawn(|| converge(false));
        (armed.join().unwrap(), quiet.join().unwrap())
    });
    let simnet_spans = |net: &SimNet| {
        net.telemetry()
            .spans()
            .iter()
            .filter(|r| r.cat.starts_with("simnet"))
            .count()
    };
    let latencies = |net: &SimNet| {
        let snap = net.telemetry().metrics().snapshot();
        snap.log_histogram("simnet.event.latency_ns")
            .unwrap()
            .count()
    };
    assert!(
        simnet_spans(&armed) > 0,
        "the armed fabric recorded no spans"
    );
    assert!(latencies(&armed) > 0, "the armed fabric timed no events");
    assert_eq!(
        simnet_spans(&quiet),
        0,
        "tracing leaked into the other fabric"
    );
    assert_eq!(latencies(&quiet), 0, "the other fabric timed its events");
}
