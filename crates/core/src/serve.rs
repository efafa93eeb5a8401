//! The agent side of the TCP service plane: [`AgentServer`] owns a
//! `(SimNet, SwitchAgent)` pair and serves the [`ControlTransport`] RPC
//! surface to remote controllers.
//!
//! Threading model (the container has no async runtime, so this is plain
//! `std::net` + threads):
//!
//! - an **accept thread** takes connections off the listener;
//! - a **connection thread** per controller decodes `CRP1` Request frames
//!   from the connection's first byte and runs each one itself, under the
//!   one lock that holds the fabric — requests from any number of
//!   connections serialize on it, and a controller that outruns the
//!   simulator waits for it. A request pays its decode, its work and its
//!   encode, and no hand-off to another thread; between requests the
//!   thread polls its socket briefly before it blocks, so a controller's
//!   next RPC seldom waits for a wake-up.
//!
//! Request execution reuses [`InProcessTransport`] under the lock, so the
//! remote path shares every line of apply logic with the local one —
//! byte-identical FIBs are a test invariant, not an aspiration. A request
//! that panics poisons the lock: every later request gets an error rather
//! than a half-updated fabric.
//!
//! The server records `serve.*` metrics into the served fabric's own
//! registry, so whoever gets the `SimNet` back from
//! [`AgentServer::shutdown`] reads them with the rest, all recorded by the
//! connection threads: `serve.rpc.<kind>` counters and the `serve.rpc_us`
//! execution-time histogram (under the lock), `serve.request_bytes`,
//! `serve.response_bytes`, `serve.malformed_requests` (payloads that are not
//! a `Request`) and `serve.frame_errors` (sessions closed on bad framing, a
//! Response frame or an unknown frame kind; the server sends nothing
//! back).

use crate::error::Error;
use crate::switch_agent::SwitchAgent;
use crate::transport::{ControlTransport, InProcessTransport, Request, Response};
use centralium_simnet::SimNet;
use centralium_telemetry::{Counter, LogHistogram, MetricsRegistry};
use centralium_wire::frame::{read_frame, write_frame, Frame, FrameKind};
use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a connection thread polls its socket for the next request
/// before it blocks. A controller sends its next RPC within microseconds of
/// the last reply while it walks a wave; a thread that slept in between
/// pays a wake-up, about 4 µs of an 11 µs loopback round trip on a 2-core
/// VM. Past this budget the controller is busy elsewhere and the thread
/// blocks as before.
const POLL_BEFORE_BLOCKING: Duration = Duration::from_micros(50);

/// The served pair and the metric handles only a request holding the lock
/// touches. `None` once [`AgentServer::shutdown`] has taken the fabric back.
type Served = Arc<Mutex<Option<Fabric>>>;

/// What a request runs against.
struct Fabric {
    net: SimNet,
    agent: SwitchAgent,
    rpc_us: LogHistogram,
    rpc_counts: HashMap<&'static str, Counter>,
}

impl Fabric {
    fn new(net: SimNet, agent: SwitchAgent) -> Self {
        let rpc_us = net.telemetry().metrics().log_histogram("serve.rpc_us");
        Fabric {
            net,
            agent,
            rpc_us,
            rpc_counts: HashMap::new(),
        }
    }

    /// Count, run and time one request.
    fn run(&mut self, req: Request) -> Response {
        let kind = rpc_kind(&req);
        let metrics = self.net.telemetry().metrics();
        self.rpc_counts
            .entry(kind)
            .or_insert_with(|| metrics.counter(&format!("serve.rpc.{kind}")))
            .inc();
        let started = Instant::now();
        let mut transport = InProcessTransport::new(&mut self.net, &mut self.agent);
        let resp = execute(&mut transport, req).unwrap_or_else(|e| Response::Error {
            message: e.to_string(),
        });
        self.rpc_us.observe(started.elapsed().as_micros() as u64);
        resp
    }
}

/// The connection threads' `serve.*` metric handles.
#[derive(Clone)]
struct ConnMetrics {
    request_bytes: Counter,
    response_bytes: Counter,
    malformed_requests: Counter,
    frame_errors: Counter,
}

impl ConnMetrics {
    fn new(m: &MetricsRegistry) -> Self {
        ConnMetrics {
            request_bytes: m.counter("serve.request_bytes"),
            response_bytes: m.counter("serve.response_bytes"),
            malformed_requests: m.counter("serve.malformed_requests"),
            frame_errors: m.counter("serve.frame_errors"),
        }
    }
}

/// A TCP server exposing one `(SimNet, SwitchAgent)` pair to remote
/// controllers. Bind with [`AgentServer::bind`], stop (and get the fabric
/// back) with [`AgentServer::shutdown`].
pub struct AgentServer {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    connections: Arc<AtomicU64>,
    served: Served,
    accept_handle: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for AgentServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AgentServer")
            .field("local_addr", &self.local_addr)
            .field("connections", &self.connections.load(Ordering::Relaxed))
            .finish()
    }
}

impl AgentServer {
    /// Bind `addr` (use port 0 for an ephemeral port) and start serving the
    /// given fabric. The server owns `net` and `agent` until
    /// [`AgentServer::shutdown`] hands them back.
    pub fn bind(addr: &str, net: SimNet, agent: SwitchAgent) -> Result<Self, Error> {
        let listener = TcpListener::bind(addr).map_err(|e| Error::Io {
            context: format!("bind agent server on {addr}"),
            source: e,
        })?;
        let local_addr = listener.local_addr().map_err(|e| Error::Io {
            context: format!("resolve local address of {addr}"),
            source: e,
        })?;
        let stop = Arc::new(AtomicBool::new(false));
        let connections = Arc::new(AtomicU64::new(0));
        let metrics = ConnMetrics::new(net.telemetry().metrics());
        let served: Served = Arc::new(Mutex::new(Some(Fabric::new(net, agent))));
        let accept_handle = {
            let stop = Arc::clone(&stop);
            let connections = Arc::clone(&connections);
            let served = Arc::clone(&served);
            std::thread::spawn(move || run_acceptor(listener, stop, connections, served, metrics))
        };
        Ok(AgentServer {
            local_addr,
            stop,
            connections,
            served,
            accept_handle: Some(accept_handle),
        })
    }

    /// The bound address — connect a
    /// [`TcpTransport`](crate::transport::TcpTransport) here.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Total connections accepted so far.
    pub fn connections_accepted(&self) -> u64 {
        self.connections.load(Ordering::Relaxed)
    }

    /// Stop accepting, wait for the request in flight, and return the
    /// fabric. Later requests on open connections get an error.
    ///
    /// # Panics
    /// Panics if a request panicked while it held the fabric: what it left
    /// behind may be half-updated.
    pub fn shutdown(mut self) -> (SimNet, SwitchAgent) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        let fabric = self
            .served
            .lock()
            .expect("a request panicked while holding the fabric")
            .take()
            .expect("shutdown called once");
        (fabric.net, fabric.agent)
    }
}

/// Run `req` under the fabric's lock. A request that panics poisons the
/// lock on its way out, so it and every later request get an error, and
/// none runs on what the panic left behind.
fn run_locked(served: &Mutex<Option<Fabric>>, req: Request) -> Response {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut fabric = served
            .lock()
            .map_err(|_| "a request panicked while holding the fabric")?;
        let fabric = fabric.as_mut().ok_or("agent server is shutting down")?;
        Ok::<_, &str>(fabric.run(req))
    }));
    match outcome {
        Ok(Ok(resp)) => resp,
        Ok(Err(message)) => Response::Error {
            message: message.into(),
        },
        Err(_) => Response::Error {
            message: "the request panicked".into(),
        },
    }
}

/// The `<kind>` of a request's `serve.rpc.<kind>` counter.
fn rpc_kind(req: &Request) -> &'static str {
    match req {
        Request::Now => "now",
        Request::RunUntilQuiescent => "run_until_quiescent",
        Request::RunUntil { .. } => "run_until",
        Request::ForceFullReconvergence => "force_full_reconvergence",
        Request::Topology => "topology",
        Request::SetIntended { .. } => "set_intended",
        Request::SeedIntended { .. } => "seed_intended",
        Request::ClearIntended { .. } => "clear_intended",
        Request::Reconcile => "reconcile",
        Request::PollCurrent => "poll_current",
        Request::PollDevices { .. } => "poll_devices",
        Request::OutOfSync => "out_of_sync",
        Request::NextRetryDue { .. } => "next_retry_due",
        Request::HealthCheck { .. } => "health_check",
    }
}

/// Map one request onto the in-process transport. This is the entire
/// server-side semantics: anything the remote API does, the local API does.
fn execute(t: &mut InProcessTransport<'_>, req: Request) -> Result<Response, Error> {
    Ok(match req {
        Request::Now => Response::Now { now: t.now()? },
        Request::RunUntilQuiescent => Response::Quiescent {
            report: t.run_until_quiescent()?,
        },
        Request::RunUntil { deadline } => Response::Ran {
            events: t.run_until(deadline)?,
        },
        Request::ForceFullReconvergence => {
            t.force_full_reconvergence()?;
            Response::Ok
        }
        Request::Topology => Response::Topology {
            topo: t.topology()?.into_owned(),
        },
        Request::SetIntended { device, doc } => {
            t.set_intended(device, &doc)?;
            Response::Ok
        }
        Request::SeedIntended { path, value } => {
            t.seed_intended(&path, value)?;
            Response::Ok
        }
        Request::ClearIntended { device, name } => {
            t.clear_intended(device, &name)?;
            Response::Ok
        }
        Request::Reconcile => Response::Ops {
            ops: t.reconcile()?,
        },
        Request::PollCurrent => {
            t.poll_current()?;
            Response::Ok
        }
        Request::PollDevices { devices } => {
            t.poll_devices(&devices)?;
            Response::Ok
        }
        Request::OutOfSync => Response::Paths {
            paths: t.out_of_sync_paths()?,
        },
        Request::NextRetryDue { now } => Response::Due {
            due: t.next_retry_due(now)?,
        },
        Request::HealthCheck { check } => Response::Health {
            report: t.health_check(&check)?,
        },
    })
}

fn run_acceptor(
    listener: TcpListener,
    stop: Arc<AtomicBool>,
    connections: Arc<AtomicU64>,
    served: Served,
    metrics: ConnMetrics,
) {
    loop {
        let Ok((stream, _peer)) = listener.accept() else {
            if stop.load(Ordering::SeqCst) {
                return;
            }
            continue;
        };
        if stop.load(Ordering::SeqCst) {
            return;
        }
        connections.fetch_add(1, Ordering::Relaxed);
        let served = Arc::clone(&served);
        let metrics = metrics.clone();
        // Connection threads are detached: they exit when the peer closes.
        std::thread::spawn(move || {
            let _ = serve_connection(stream, &served, &metrics);
        });
    }
}

/// One controller session: request/response frames until the peer hangs
/// up. Bad framing or a frame that is not a Request ends it, counted in
/// `serve.frame_errors`.
fn serve_connection(
    stream: TcpStream,
    served: &Mutex<Option<Fabric>>,
    metrics: &ConnMetrics,
) -> Result<(), Error> {
    stream.set_nodelay(true).map_err(|e| Error::Io {
        context: "configure accepted socket".into(),
        source: e,
    })?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| Error::Io {
        context: "clone accepted socket".into(),
        source: e,
    })?);
    let mut writer = BufWriter::new(stream);
    loop {
        if reader.buffer().is_empty() {
            poll_for_request(reader.get_ref())?;
        }
        let frame = match read_frame(&mut reader) {
            Ok(Some(frame)) if frame.kind == FrameKind::Request => frame,
            // Clean EOF at a frame boundary: the controller hung up.
            Ok(None) => return Ok(()),
            Ok(Some(_)) => {
                metrics.frame_errors.inc();
                return Err(Error::Protocol(centralium_wire::WireError::BadFrameKind(3)));
            }
            Err(e) => {
                metrics.frame_errors.inc();
                return Err(Error::Io {
                    context: "read request frame".into(),
                    source: e,
                });
            }
        };
        metrics.request_bytes.add(frame.payload.len() as u64);
        let resp = dispatch(served, &frame.payload, metrics);
        let payload = match serde_json::to_string(&resp) {
            Ok(json) => json.into_bytes(),
            Err(_) => continue,
        };
        metrics.response_bytes.add(payload.len() as u64);
        write_frame(&mut writer, &Frame::response(frame.corr, payload))
            .map_err(io_err("send response"))?;
        writer.flush().map_err(io_err("flush response"))?;
    }
}

/// Decode a request payload and run it, turning every failure mode into a
/// `Response::Error` the controller can interpret.
fn dispatch(served: &Mutex<Option<Fabric>>, payload: &[u8], metrics: &ConnMetrics) -> Response {
    match std::str::from_utf8(payload)
        .ok()
        .and_then(|text| serde_json::from_str(text).ok())
    {
        Some(req) => run_locked(served, req),
        None => {
            metrics.malformed_requests.inc();
            Response::Error {
                message: "malformed request payload".into(),
            }
        }
    }
}

/// Return once `stream` has bytes to read, has closed, or has stayed
/// silent for [`POLL_BEFORE_BLOCKING`], without sleeping in the kernel. The
/// socket is non-blocking only for the poll (the flag is shared with the
/// writer's handle, which is idle between a reply and the next request).
/// Each empty peek yields, so a client on the same core still runs.
fn poll_for_request(stream: &TcpStream) -> Result<(), Error> {
    stream
        .set_nonblocking(true)
        .map_err(io_err("poll for request"))?;
    let started = Instant::now();
    let mut byte = [0u8; 1];
    while started.elapsed() < POLL_BEFORE_BLOCKING {
        match stream.peek(&mut byte) {
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => std::thread::yield_now(),
            // Bytes, EOF or an error: the blocking read reports which.
            _ => break,
        }
    }
    stream
        .set_nonblocking(false)
        .map_err(io_err("poll for request"))
}

fn io_err(context: &'static str) -> impl FnOnce(std::io::Error) -> Error {
    move |e| Error::Io {
        context: context.to_string(),
        source: e,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::{HealthCheck, HealthReport, TrafficProbe};
    use crate::transport::TcpTransport;
    use centralium_bgp::attrs::well_known;
    use centralium_bgp::msg::{BgpMessage, OpenMessage, UpdateMessage};
    use centralium_bgp::{PathAttributes, Prefix};
    use centralium_simnet::MAX_DEADLINE;
    use centralium_simnet::{ManagementPlane, SimConfig};
    use centralium_topology::{build_fabric, Asn, DeviceId, FabricSpec};
    use centralium_wire::{bgp, frame};
    use std::net::Shutdown;

    fn fabric() -> (SimNet, SwitchAgent) {
        fabric_of(&FabricSpec::tiny())
    }

    fn fabric_of(spec: &FabricSpec) -> (SimNet, SwitchAgent) {
        let (topo, idx, _) = build_fabric(spec);
        let mut net = SimNet::new(topo, SimConfig::default());
        net.establish_all();
        for &eb in &idx.backbone {
            net.originate(eb, Prefix::DEFAULT, [well_known::BACKBONE_DEFAULT_ROUTE]);
        }
        net.run_until_quiescent().expect_converged();
        let mgmt = ManagementPlane::compute(net.topology(), idx.rsw[0][0]);
        (net, SwitchAgent::new(mgmt))
    }

    #[test]
    fn socket_smoke_rpc_roundtrip() {
        let (net, agent) = fabric();
        let expect_now = net.now();
        let server = AgentServer::bind("127.0.0.1:0", net, agent).expect("bind");
        let addr = server.local_addr().to_string();
        let mut transport = TcpTransport::connect(&addr).expect("connect");
        assert_eq!(transport.now().expect("now RPC"), expect_now);
        let topo = transport.topology().expect("topology RPC").into_owned();
        assert!(topo.device_count() > 0);
        transport.poll_current().expect("poll RPC");
        // Idle past the poll budget: the server blocks, and still answers.
        std::thread::sleep(10 * POLL_BEFORE_BLOCKING);
        assert!(transport.out_of_sync_paths().expect("sync RPC").is_empty());
        drop(transport);
        let (net, _agent) = server.shutdown();
        assert_eq!(net.now(), expect_now, "no RPC advanced the clock");
        let served = net.telemetry().metrics().snapshot();
        assert_eq!(served.counter("serve.rpc.now"), 1);
        assert_eq!(served.counter("serve.rpc.topology"), 1);
        let rpc_us = served.log_histogram("serve.rpc_us").expect("registered");
        assert_eq!(
            rpc_us.count(),
            4,
            "now, topology, poll_current, out_of_sync"
        );
        assert!(served.counter("serve.request_bytes") > 0);
        assert!(served.counter("serve.response_bytes") > served.counter("serve.request_bytes"));
        assert_eq!(served.counter("serve.malformed_requests"), 0);
        assert_eq!(served.counter("serve.frame_errors"), 0);
    }

    #[test]
    fn wildcard_writes_get_an_error_and_the_server_keeps_serving() {
        let (net, agent) = fabric();
        let expect_now = net.now();
        let server = AgentServer::bind("127.0.0.1:0", net, agent).expect("bind");
        let addr = server.local_addr().to_string();
        let mut transport = TcpTransport::connect(&addr).expect("connect");
        let seeded = transport.seed_intended("/devices/*/rpa/x", serde_json::Value::Null);
        assert!(seeded.is_err(), "wildcard seed accepted");
        let star = centralium_rpa::RpaDocument::RouteFilter(centralium_rpa::RouteFilterRpa {
            name: "*".into(),
            statements: vec![],
        });
        let set = transport.set_intended(centralium_topology::DeviceId(1), &star);
        assert!(set.is_err(), "RPA named `*` accepted");
        // The same connection still gets answers.
        assert_eq!(transport.now().expect("now RPC"), expect_now);
        drop(transport);
        let (_net, agent) = server.shutdown();
        assert!(
            agent.service.store.out_of_sync().is_empty(),
            "nothing written"
        );
    }

    #[test]
    fn deeply_nested_request_gets_an_error_not_a_stack_overflow() {
        let (net, agent) = fabric();
        let expect_now = net.now();
        let server = AgentServer::bind("127.0.0.1:0", net, agent).expect("bind");
        let mut sock = TcpStream::connect(server.local_addr()).expect("connect");
        // Well framed, 100,000 levels deep: the JSON parser recurses per
        // level, so unbounded it overflows the connection thread's stack and
        // aborts the process.
        write_frame(&mut sock, &Frame::request(1, vec![b'['; 100_000])).expect("send");
        let frame = read_frame(&mut sock).expect("read").expect("frame");
        assert_eq!((frame.kind, frame.corr), (FrameKind::Response, 1));
        let text = std::str::from_utf8(&frame.payload).expect("utf-8");
        let resp: Response = serde_json::from_str(text).expect("response");
        assert!(matches!(resp, Response::Error { .. }), "got {resp:?}");
        // The server is still there for the next controller.
        let addr = server.local_addr().to_string();
        let mut transport = TcpTransport::connect(&addr).expect("fresh connection");
        assert_eq!(transport.now().expect("now RPC"), expect_now);
        drop(transport);
        let (net, _agent) = server.shutdown();
        let served = net.telemetry().metrics().snapshot();
        assert_eq!(served.counter("serve.malformed_requests"), 1);
        let now_request = serde_json::to_string(&Request::Now).expect("serialize");
        assert_eq!(
            served.counter("serve.request_bytes"),
            (100_000 + now_request.len()) as u64
        );
    }

    #[test]
    fn a_new_session_refetches_the_topology() {
        let (net, agent) = fabric();
        let tiny_devices = net.topology().device_count();
        let server = AgentServer::bind("127.0.0.1:0", net, agent).expect("bind");
        let addr = server.local_addr().to_string();
        let mut transport = TcpTransport::connect(&addr).expect("connect");
        let fetched = transport.topology().expect("topology RPC").device_count();
        assert_eq!(fetched, tiny_devices);
        server.shutdown();
        // The agent comes back on the same address serving a larger fabric.
        let (net, agent) = fabric_of(&FabricSpec::default());
        let default_devices = net.topology().device_count();
        assert_ne!(default_devices, tiny_devices);
        let server = AgentServer::bind(&addr, net, agent).expect("rebind");
        // The next RPC re-dials, like after any lost session.
        transport.disconnect();
        let fetched = transport.topology().expect("topology RPC").device_count();
        assert_eq!(fetched, default_devices, "topology cached across sessions");
        drop(transport);
        server.shutdown();
    }

    #[test]
    fn concurrent_controllers_serialize_on_the_fabric_lock() {
        let (net, agent) = fabric();
        let server = AgentServer::bind("127.0.0.1:0", net, agent).expect("bind");
        let addr = server.local_addr().to_string();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let addr = addr.clone();
                std::thread::spawn(move || {
                    let mut t = TcpTransport::connect(&addr).expect("connect");
                    for _ in 0..8 {
                        t.now().expect("now RPC");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("client thread");
        }
        assert!(server.connections_accepted() >= 4);
        let (net, _agent) = server.shutdown();
        let served = net.telemetry().metrics().snapshot();
        assert_eq!(
            served.counter("serve.rpc.now"),
            32,
            "4 clients x 8 requests"
        );
        let rpc_us = served.log_histogram("serve.rpc_us").expect("registered");
        assert_eq!(rpc_us.count(), 32);
    }

    #[test]
    fn a_panicked_request_poisons_the_fabric_for_every_later_request() {
        let (net, agent) = fabric();
        let server = AgentServer::bind("127.0.0.1:0", net, agent).expect("bind");
        let addr = server.local_addr().to_string();
        let mut transport = TcpTransport::connect(&addr).expect("connect");
        transport.now().expect("now RPC before the panic");
        // A request that dies while holding the fabric, as `run_locked`
        // runs one.
        let served = Arc::clone(&server.served);
        let panicked = std::thread::spawn(move || {
            let _fabric = served.lock().expect("not poisoned yet");
            panic!("request panicked mid-update");
        })
        .join();
        assert!(panicked.is_err());
        for _ in 0..2 {
            let err = transport.now().expect_err("poisoned fabric answered");
            assert!(err.to_string().contains("panicked"), "{err}");
        }
        // A new session gets the same answer.
        let mut fresh = TcpTransport::connect(&addr).expect("connect");
        assert!(fresh.poll_current().is_err());
        drop((transport, fresh));
        let shutdown = std::panic::catch_unwind(AssertUnwindSafe(|| server.shutdown()));
        assert!(shutdown.is_err(), "a poisoned fabric is not handed back");
    }

    #[test]
    fn a_failing_check_reports_the_same_failures_over_tcp() {
        let (mut net, agent) = fabric();
        let (_, idx, _) = build_fabric(&FabricSpec::tiny());
        for grid in &idx.fadu {
            for &fadu in grid {
                net.device_down(fadu);
            }
        }
        net.run_until_quiescent().expect_converged();
        let rsws: Vec<DeviceId> = idx.rsw.iter().flatten().copied().collect();
        let check = HealthCheck {
            probe: Some(TrafficProbe {
                sources: rsws.clone(),
                dest: Prefix::DEFAULT,
                gbps_each: 10.0,
            }),
            max_link_utilization: Some(0.01),
            min_nexthops: rsws
                .iter()
                .map(|&r| (r, Prefix::DEFAULT, 1))
                .chain([(idx.ssw[0][0], Prefix::DEFAULT, 99)])
                .chain(rsws.iter().map(|&r| (r, Prefix::DEFAULT, 99)))
                .collect(),
            expect_rpa: vec![
                (idx.ssw[0][0], "equalize".into()),
                (idx.ssw[0][1], "equalize".into()),
                (idx.fsw[0][0], "drain".into()),
            ],
        };
        let mut agent = agent;
        let local = InProcessTransport::new(&mut net, &mut agent)
            .health_check(&check)
            .expect("in-process check");
        assert!(
            local.failures[0].contains("black-holed"),
            "{:?}",
            local.failures
        );
        assert!(local.failures.len() > rsws.len(), "{:?}", local.failures);
        let server = AgentServer::bind("127.0.0.1:0", net, agent).expect("bind");
        let mut transport =
            TcpTransport::connect(&server.local_addr().to_string()).expect("connect");
        let remote = transport.health_check(&check).expect("health RPC");
        assert_eq!(remote.failures, local.failures);
        drop(transport);
        server.shutdown();
    }

    #[test]
    fn non_finite_check_numbers_are_rejected_on_every_transport() {
        let (mut net, mut agent) = fabric();
        let (_, idx, _) = build_fabric(&FabricSpec::tiny());
        // Every probe would black-hole: a NaN rate must not pass vacuously.
        for grid in &idx.fadu {
            for &fadu in grid {
                net.device_down(fadu);
            }
        }
        net.run_until_quiescent().expect_converged();
        let probe = |gbps_each| TrafficProbe {
            sources: vec![idx.rsw[0][0]],
            dest: Prefix::DEFAULT,
            gbps_each,
        };
        let bad = [
            HealthCheck {
                probe: Some(probe(f64::NAN)),
                ..Default::default()
            },
            HealthCheck {
                probe: Some(probe(-1.0)),
                ..Default::default()
            },
            HealthCheck {
                probe: Some(probe(1.0)),
                max_link_utilization: Some(f64::INFINITY),
                ..Default::default()
            },
        ];
        let rejected =
            |r: Result<HealthReport, Error>| matches!(r, Err(Error::InvalidHealthCheck { .. }));
        for check in &bad {
            let local = InProcessTransport::new(&mut net, &mut agent).health_check(check);
            assert!(rejected(local), "in-process accepted {check:?}");
        }
        let server = AgentServer::bind("127.0.0.1:0", net, agent).expect("bind");
        let mut transport =
            TcpTransport::connect(&server.local_addr().to_string()).expect("connect");
        for check in &bad {
            assert!(
                rejected(transport.health_check(check)),
                "tcp accepted {check:?}"
            );
        }
        drop(transport);
        let (net, _agent) = server.shutdown();
        let served = net.telemetry().metrics().snapshot();
        assert_eq!(
            served.counter("serve.rpc.health_check"),
            0,
            "rejected before sending"
        );
    }

    /// How long a test waits for the server's answer or close.
    const HANG: Duration = Duration::from_secs(2);

    /// Send `bytes` on a fresh connection, half-close it, and read until the
    /// server closes: the frames it sent back. A read that times out is a
    /// hang and fails the test.
    fn exchange(addr: SocketAddr, bytes: &[u8]) -> Vec<Frame> {
        let mut sock = TcpStream::connect(addr).expect("connect");
        sock.set_read_timeout(Some(HANG)).expect("read timeout");
        // The server may close before it has read everything; what it sent
        // back up to then is still the answer.
        let _ = sock.write_all(bytes);
        let _ = sock.shutdown(Shutdown::Write);
        let mut frames = Vec::new();
        loop {
            match read_frame(&mut sock) {
                Ok(Some(frame)) => frames.push(frame),
                Ok(None) => return frames,
                Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => return frames,
                Err(e) => panic!("neither a response nor a close within {HANG:?}: {e}"),
            }
        }
    }

    /// A frame with any kind octet, as a peer could send it.
    fn raw_frame(kind: u8, corr: u64, payload: &[u8]) -> Vec<u8> {
        let mut bytes = frame::encode(&Frame::request(corr, payload.to_vec())).expect("encode");
        bytes[4] = kind;
        bytes
    }

    fn request_frame(corr: u64, req: &Request) -> Vec<u8> {
        let json = serde_json::to_string(req).expect("serialize");
        frame::encode(&Frame::request(corr, json.into_bytes())).expect("encode")
    }

    /// What the server makes of `bytes` on one connection, walked with the
    /// same decoder: `(malformed request payloads, frame errors)`.
    fn predict(mut bytes: &[u8]) -> (u64, u64) {
        let mut malformed = 0;
        loop {
            match frame::decode(bytes) {
                Ok(Some((f, used))) if f.kind == FrameKind::Request => {
                    let parsed = std::str::from_utf8(&f.payload)
                        .ok()
                        .and_then(|text| serde_json::from_str::<Request>(text).ok());
                    malformed += u64::from(parsed.is_none());
                    bytes = &bytes[used..];
                }
                Ok(None) if bytes.is_empty() => return (malformed, 0),
                // Bad framing, a Response, or a frame cut short by the close.
                _ => return (malformed, 1),
            }
        }
    }

    /// Kind-1 (BGP octet) frames: a KEEPALIVE and an OPEN as a session's
    /// first frame, and an UPDATE after a request.
    fn bgp_kind_frames() -> Vec<Vec<u8>> {
        let keepalive = bgp::encode_one(&BgpMessage::Keepalive).expect("encode");
        let open = bgp::encode_one(&BgpMessage::Open(OpenMessage {
            asn: Asn(4_201_000_001),
            hold_time_secs: 90,
        }))
        .expect("encode");
        let mut attrs = PathAttributes::default();
        attrs.prepend(Asn(4_200_000_017), 2);
        let update = bgp::encode_one(&BgpMessage::Update(UpdateMessage::announce(
            "10.0.0.0/8".parse::<Prefix>().expect("prefix"),
            attrs,
        )))
        .expect("encode");
        let mut after_request = request_frame(1, &Request::Now);
        after_request.extend(raw_frame(1, 0, &update));
        vec![
            raw_frame(1, 0, &keepalive),
            raw_frame(1, 0, &open),
            after_request,
        ]
    }

    /// Send each of `sessions`, then check the server closed every one
    /// unanswered but for its requests, counted one frame error each, and
    /// still serves a fresh controller.
    fn closed_on_unanswered(sessions: &[Vec<u8>]) {
        let (net, agent) = fabric();
        let expect_now = net.now();
        let server = AgentServer::bind("127.0.0.1:0", net, agent).expect("bind");
        let mut answered = 0;
        for bytes in sessions {
            let frames = exchange(server.local_addr(), bytes);
            assert!(frames
                .iter()
                .all(|f| (f.kind, f.corr) == (FrameKind::Response, 1)));
            answered += frames.len();
        }
        assert_eq!(answered, 1, "only the request is answered");
        let mut transport =
            TcpTransport::connect(&server.local_addr().to_string()).expect("fresh connection");
        assert_eq!(transport.now().expect("now RPC"), expect_now);
        drop(transport);
        let (net, _agent) = server.shutdown();
        let served = net.telemetry().metrics().snapshot();
        assert_eq!(served.counter("serve.frame_errors"), sessions.len() as u64);
        assert_eq!(served.counter("serve.rpc.now"), 2);
    }

    #[test]
    fn a_bgp_kind_frame_is_closed_on_unanswered() {
        closed_on_unanswered(&bgp_kind_frames());
    }

    #[test]
    fn a_response_frame_from_a_controller_is_closed_on_unanswered() {
        let response = frame::encode(&Frame::response(7, b"\"Ok\"".to_vec())).expect("encode");
        let mut after_request = request_frame(1, &Request::Now);
        after_request.extend(&response);
        closed_on_unanswered(&[response, after_request]);
    }

    #[test]
    fn a_far_deadline_gets_an_error_and_the_clock_stays() {
        let (net, agent) = fabric();
        let expect_now = net.now();
        let server = AgentServer::bind("127.0.0.1:0", net, agent).expect("bind");
        let mut transport =
            TcpTransport::connect(&server.local_addr().to_string()).expect("connect");
        for deadline in [u64::MAX, MAX_DEADLINE + 1] {
            let err = transport
                .run_until(deadline)
                .expect_err("far deadline accepted");
            assert!(err.to_string().contains("latest deadline"), "{err}");
            assert_eq!(transport.now().expect("now RPC"), expect_now);
        }
        // A request that schedules events still runs on the unchanged clock.
        transport
            .force_full_reconvergence()
            .expect("schedules at now + 1");
        let report = transport.run_until_quiescent().expect("converges");
        assert!(report.converged && report.finished_at < MAX_DEADLINE);
        assert!(transport.now().expect("now RPC") >= expect_now);
        drop(transport);
        server.shutdown();
    }

    /// xorshift64*: a fixed seed, a reproducible corpus.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn bytes(&mut self, len: usize) -> Vec<u8> {
            (0..len).map(|_| self.next() as u8).collect()
        }
    }

    /// Well-typed requests with hostile arguments, as JSON payloads: device
    /// ids the fabric lacks, empty and 10k-long device lists, far
    /// deadlines, non-finite and negative health numbers, degenerate paths.
    fn hostile_requests() -> Vec<Vec<u8>> {
        let ghost = DeviceId(u32::MAX);
        let doc = centralium_rpa::RpaDocument::RouteFilter(centralium_rpa::RouteFilterRpa {
            name: "x".into(),
            statements: vec![],
        });
        let probe = |sources: Vec<DeviceId>, gbps_each| TrafficProbe {
            sources,
            dest: Prefix::DEFAULT,
            gbps_each,
        };
        let checks = [
            HealthCheck {
                probe: Some(probe(vec![DeviceId(1)], f64::NAN)),
                ..Default::default()
            },
            HealthCheck {
                probe: Some(probe(vec![DeviceId(1)], -1.0)),
                ..Default::default()
            },
            HealthCheck {
                probe: Some(probe(vec![ghost], 1.0)),
                max_link_utilization: Some(0.5),
                min_nexthops: vec![(ghost, Prefix::DEFAULT, usize::MAX)],
                expect_rpa: vec![(ghost, "x".into())],
            },
            HealthCheck {
                probe: Some(probe(vec![], 1.0)),
                ..Default::default()
            },
        ];
        let requests = [
            Request::SetIntended { device: ghost, doc },
            Request::ClearIntended {
                device: ghost,
                name: "x".into(),
            },
            Request::PollDevices { devices: vec![] },
            Request::PollDevices {
                devices: vec![ghost],
            },
            Request::PollDevices {
                devices: (0..10_000).map(DeviceId).collect(),
            },
            Request::RunUntil { deadline: u64::MAX },
            Request::RunUntil {
                deadline: MAX_DEADLINE + 1,
            },
            Request::NextRetryDue { now: u64::MAX },
            Request::SeedIntended {
                path: String::new(),
                value: serde_json::Value::Null,
            },
            Request::SeedIntended {
                path: "//".into(),
                value: serde_json::Value::Null,
            },
        ];
        let mut out: Vec<Vec<u8>> = requests
            .iter()
            .map(|r| serde_json::to_string(r).expect("serialize").into_bytes())
            .collect();
        out.extend(checks.into_iter().map(|check| {
            serde_json::to_string(&Request::HealthCheck { check })
                .expect("serialize")
                .into_bytes()
        }));
        // An infinite rate and utilization limit: JSON has no infinity, but
        // an overflowing literal parses to one.
        let finite = HealthCheck {
            probe: Some(probe(vec![DeviceId(1)], 1.5)),
            max_link_utilization: Some(0.25),
            ..Default::default()
        };
        let json = serde_json::to_string(&Request::HealthCheck { check: finite }).expect("json");
        for (from, to) in [("1.5", "1e999"), ("0.25", "1e999")] {
            assert!(json.contains(from), "{json}");
            out.push(json.replacen(from, to, 1).into_bytes());
        }
        out
    }

    /// Seeded smoke test of everything a socket reaches: random bytes,
    /// bit-flipped frames, BGP-kind and Response frames, and well-typed
    /// requests with hostile arguments, one connection each. Every
    /// connection ends in responses or a close, the counters match what was
    /// sent, and the fabric comes out unpoisoned on the clock it went in.
    #[test]
    fn socket_input_smoke() {
        let (net, agent) = fabric();
        let expect_now = net.now();
        let server = AgentServer::bind("127.0.0.1:0", net, agent).expect("bind");
        let addr = server.local_addr();
        let mut rng = Rng(0x5EED_0060_CAFE_0001);
        let mut sessions: Vec<Vec<u8>> = Vec::new();
        for _ in 0..100 {
            let len = rng.below(64);
            sessions.push(rng.bytes(len));
        }
        // Past the magic, so the header checks behind it run too.
        for _ in 0..100 {
            let len = rng.below(32);
            let mut bytes = b"CRP1".to_vec();
            bytes.extend(rng.bytes(len));
            sessions.push(bytes);
        }
        let seeds = [
            request_frame(1, &Request::Now),
            request_frame(2, &Request::Topology),
        ];
        for _ in 0..150 {
            let mut bytes = seeds[rng.below(seeds.len())].clone();
            let bit = rng.below(bytes.len() * 8);
            bytes[bit / 8] ^= 1 << (bit % 8);
            sessions.push(bytes);
        }
        sessions.extend(bgp_kind_frames());
        for _ in 0..10 {
            let len = rng.below(32);
            sessions.push(raw_frame(1, rng.next(), &rng.bytes(len)));
            sessions.push(raw_frame(3, rng.next(), &rng.bytes(len)));
        }

        let (mut malformed, mut frame_errors) = (0, 0);
        let mut send = |bytes: &[u8]| {
            let (m, e) = predict(bytes);
            malformed += m;
            frame_errors += e;
            let frames = exchange(addr, bytes);
            for frame in &frames {
                assert_eq!(frame.kind, FrameKind::Response);
                let text = std::str::from_utf8(&frame.payload).expect("utf-8");
                let resp: Response = serde_json::from_str(text).expect("a response");
                assert!(!matches!(resp, Response::Ran { .. }), "ran {bytes:?}");
            }
            frames.len()
        };
        for bytes in &sessions {
            send(bytes);
        }
        for (corr, payload) in hostile_requests().iter().enumerate() {
            let answered = send(&raw_frame(2, corr as u64, payload));
            assert_eq!(answered, 1, "{}", String::from_utf8_lossy(payload));
        }
        assert!(
            malformed > 40 && frame_errors > 250,
            "{malformed} {frame_errors}"
        );

        let mut transport = TcpTransport::connect(&addr.to_string()).expect("fresh connection");
        assert_eq!(transport.now().expect("now RPC"), expect_now);
        drop(transport);
        let (net, _agent) = server.shutdown();
        assert_eq!(net.now(), expect_now);
        let served = net.telemetry().metrics().snapshot();
        assert_eq!(served.counter("serve.frame_errors"), frame_errors);
        assert_eq!(served.counter("serve.malformed_requests"), malformed);
    }
}
