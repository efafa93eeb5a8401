//! The agent side of the TCP service plane: [`AgentServer`] owns a
//! `(SimNet, SwitchAgent)` pair and serves the [`ControlTransport`] RPC
//! surface to remote controllers.
//!
//! Threading model (the container has no async runtime, so this is plain
//! `std::net` + threads):
//!
//! - an **accept thread** takes connections off the listener;
//! - a **connection thread** per controller performs the RFC 4271
//!   OPEN/KEEPALIVE preamble, then decodes `CRP1` Request frames and
//!   forwards them as jobs;
//! - one **executor thread** owns the simulation and the agent, draining a
//!   bounded channel — requests from any number of connections serialize
//!   here, and the bound (16 jobs) backpressures a controller that outruns
//!   the simulator.
//!
//! Request execution reuses [`InProcessTransport`] on the executor side, so
//! the remote path shares every line of apply logic with the local one —
//! byte-identical FIBs are a test invariant, not an aspiration.
//!
//! The server records `serve.*` metrics into the served fabric's own
//! registry, so whoever gets the `SimNet` back from
//! [`AgentServer::shutdown`] reads them with the rest: `serve.rpc.<kind>`
//! counters and the `serve.rpc_us` execution-time histogram on the executor,
//! and on the connection threads `serve.request_bytes`,
//! `serve.response_bytes`, `serve.malformed_requests` (payloads that are not
//! a `Request`), `serve.frame_errors` (sessions ended with a NOTIFICATION)
//! and `serve.queue_stalls` (requests that found the executor queue full).

use crate::error::Error;
use crate::switch_agent::SwitchAgent;
use crate::transport::{
    expect_keepalive, expect_open, ControlTransport, InProcessTransport, Request, Response,
    SERVICE_HOLD_SECS,
};
use centralium_bgp::msg::{BgpMessage, NotificationCode, OpenMessage};
use centralium_simnet::SimNet;
use centralium_telemetry::{Counter, MetricsRegistry};
use centralium_topology::Asn;
use centralium_wire::bgp;
use centralium_wire::frame::{read_frame, write_frame, Frame, FrameKind};
use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, Sender, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// ASN the agent side presents in its service-plane OPEN (a 4-byte
/// extension-band ASN, so the handshake always exercises RFC 6793).
pub(crate) const AGENT_ASN: Asn = Asn(4_201_000_000);

/// Executor-queue depth: how many decoded requests may sit between the
/// connection threads and the simulation before senders block.
const JOB_QUEUE_DEPTH: usize = 16;

/// One unit of work for the executor thread.
enum Job {
    /// Execute a request and reply on the connection's channel.
    Rpc {
        req: Request,
        reply: Sender<Response>,
    },
    /// Drain and return ownership of the fabric.
    Stop,
}

/// The connection threads' `serve.*` metric handles.
#[derive(Clone)]
struct ConnMetrics {
    request_bytes: Counter,
    response_bytes: Counter,
    malformed_requests: Counter,
    frame_errors: Counter,
    queue_stalls: Counter,
}

impl ConnMetrics {
    fn new(m: &MetricsRegistry) -> Self {
        ConnMetrics {
            request_bytes: m.counter("serve.request_bytes"),
            response_bytes: m.counter("serve.response_bytes"),
            malformed_requests: m.counter("serve.malformed_requests"),
            frame_errors: m.counter("serve.frame_errors"),
            queue_stalls: m.counter("serve.queue_stalls"),
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
    job_tx: SyncSender<Job>,
    accept_handle: Option<JoinHandle<()>>,
    exec_handle: Option<JoinHandle<(SimNet, SwitchAgent)>>,
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
        let (job_tx, job_rx) = sync_channel::<Job>(JOB_QUEUE_DEPTH);
        let metrics = ConnMetrics::new(net.telemetry().metrics());
        let exec_handle = std::thread::spawn(move || run_executor(net, agent, job_rx));
        let accept_handle = {
            let stop = Arc::clone(&stop);
            let connections = Arc::clone(&connections);
            let job_tx = job_tx.clone();
            std::thread::spawn(move || run_acceptor(listener, stop, connections, job_tx, metrics))
        };
        Ok(AgentServer {
            local_addr,
            stop,
            connections,
            job_tx,
            accept_handle: Some(accept_handle),
            exec_handle: Some(exec_handle),
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

    /// Stop accepting, drain the executor, and return the fabric. In-flight
    /// connections see their sockets close.
    pub fn shutdown(mut self) -> (SimNet, SwitchAgent) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        let _ = self.job_tx.send(Job::Stop);
        self.exec_handle
            .take()
            .expect("shutdown called once")
            .join()
            .expect("executor thread panicked")
    }
}

/// The executor: sole owner of the simulation. Every RPC from every
/// connection serializes through here.
fn run_executor(
    mut net: SimNet,
    mut agent: SwitchAgent,
    jobs: Receiver<Job>,
) -> (SimNet, SwitchAgent) {
    let rpc_us = net.telemetry().metrics().log_histogram("serve.rpc_us");
    let mut rpc_counts: HashMap<&'static str, Counter> = HashMap::new();
    while let Ok(job) = jobs.recv() {
        match job {
            Job::Stop => break,
            Job::Rpc { req, reply } => {
                let kind = rpc_kind(&req);
                rpc_counts
                    .entry(kind)
                    .or_insert_with(|| {
                        let name = format!("serve.rpc.{kind}");
                        net.telemetry().metrics().counter(&name)
                    })
                    .inc();
                let started = Instant::now();
                let mut transport = InProcessTransport::new(&mut net, &mut agent);
                let resp = execute(&mut transport, req).unwrap_or_else(|e| Response::Error {
                    message: e.to_string(),
                });
                rpc_us.observe(started.elapsed().as_micros() as u64);
                // A dead connection thread is not the executor's problem.
                let _ = reply.send(resp);
            }
        }
    }
    (net, agent)
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
    job_tx: SyncSender<Job>,
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
        let job_tx = job_tx.clone();
        let metrics = metrics.clone();
        // Connection threads are detached: they exit when the peer closes
        // or when the executor stops answering.
        std::thread::spawn(move || {
            let _ = serve_connection(stream, job_tx, &metrics);
        });
    }
}

/// One controller session: preamble, then request/response frames until the
/// peer hangs up.
fn serve_connection(
    stream: TcpStream,
    job_tx: SyncSender<Job>,
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
    // Server side of the preamble: OPEN in, OPEN out, KEEPALIVE in,
    // KEEPALIVE out. A protocol violation gets a NOTIFICATION before close.
    let handshake = (|| -> Result<(), Error> {
        let _controller_asn = expect_open(&mut reader)?;
        let open = bgp::encode_one(&BgpMessage::Open(OpenMessage {
            asn: AGENT_ASN,
            hold_time_secs: SERVICE_HOLD_SECS,
        }))
        .map_err(Error::Protocol)?;
        write_frame(&mut writer, &Frame::bgp(open)).map_err(io_err("send OPEN"))?;
        writer.flush().map_err(io_err("flush OPEN"))?;
        expect_keepalive(&mut reader)?;
        let keepalive = bgp::encode_one(&BgpMessage::Keepalive).map_err(Error::Protocol)?;
        write_frame(&mut writer, &Frame::bgp(keepalive)).map_err(io_err("send KEEPALIVE"))?;
        writer.flush().map_err(io_err("flush KEEPALIVE"))?;
        Ok(())
    })();
    if let Err(e) = handshake {
        notify_and_close(
            &mut writer,
            NotificationCode::FiniteStateMachineError,
            metrics,
        );
        return Err(e);
    }
    loop {
        let frame = match read_frame(&mut reader) {
            Ok(Some(frame)) => frame,
            // Clean EOF at a frame boundary: the controller hung up.
            Ok(None) => return Ok(()),
            Err(e) => {
                // Malformed framing: tell the peer why before closing.
                notify_and_close(&mut writer, NotificationCode::Cease, metrics);
                return Err(Error::Io {
                    context: "read request frame".into(),
                    source: e,
                });
            }
        };
        match frame.kind {
            FrameKind::Request => {
                metrics.request_bytes.add(frame.payload.len() as u64);
                let resp = dispatch(&job_tx, &frame.payload, metrics);
                let payload = match serde_json::to_string(&resp) {
                    Ok(json) => json.into_bytes(),
                    Err(_) => continue,
                };
                metrics.response_bytes.add(payload.len() as u64);
                write_frame(&mut writer, &Frame::response(frame.corr, payload))
                    .map_err(io_err("send response"))?;
                writer.flush().map_err(io_err("flush response"))?;
            }
            FrameKind::Bgp => {
                // Liveness: answer KEEPALIVE with KEEPALIVE; a NOTIFICATION
                // ends the session; anything else is a protocol error.
                match bgp::decode_exact(&frame.payload) {
                    Ok(BgpMessage::Keepalive) => {
                        let keepalive =
                            bgp::encode_one(&BgpMessage::Keepalive).map_err(Error::Protocol)?;
                        write_frame(&mut writer, &Frame::bgp(keepalive))
                            .map_err(io_err("send KEEPALIVE"))?;
                        writer.flush().map_err(io_err("flush KEEPALIVE"))?;
                    }
                    Ok(BgpMessage::Notification(_)) => return Ok(()),
                    Ok(_) | Err(_) => {
                        notify_and_close(
                            &mut writer,
                            NotificationCode::FiniteStateMachineError,
                            metrics,
                        );
                        return Err(Error::Protocol(
                            centralium_wire::WireError::UnknownMessageType(0),
                        ));
                    }
                }
            }
            FrameKind::Response => {
                notify_and_close(
                    &mut writer,
                    NotificationCode::FiniteStateMachineError,
                    metrics,
                );
                return Err(Error::Protocol(centralium_wire::WireError::BadFrameKind(3)));
            }
        }
    }
}

/// Decode a request payload and run it through the executor, turning every
/// failure mode into a `Response::Error` the controller can interpret.
fn dispatch(job_tx: &SyncSender<Job>, payload: &[u8], metrics: &ConnMetrics) -> Response {
    let req: Request = match std::str::from_utf8(payload)
        .ok()
        .and_then(|text| serde_json::from_str(text).ok())
    {
        Some(req) => req,
        None => {
            metrics.malformed_requests.inc();
            return Response::Error {
                message: "malformed request payload".into(),
            };
        }
    };
    let (reply_tx, reply_rx) = std::sync::mpsc::channel();
    let job = Job::Rpc {
        req,
        reply: reply_tx,
    };
    let sent = match job_tx.try_send(job) {
        Ok(()) => true,
        Err(TrySendError::Full(job)) => {
            metrics.queue_stalls.inc();
            job_tx.send(job).is_ok()
        }
        Err(TrySendError::Disconnected(_)) => false,
    };
    if !sent {
        return Response::Error {
            message: "agent server is shutting down".into(),
        };
    }
    reply_rx.recv().unwrap_or_else(|_| Response::Error {
        message: "agent server is shutting down".into(),
    })
}

/// Tell the peer why its session ends, counting it in `serve.frame_errors`.
fn notify_and_close(
    writer: &mut BufWriter<TcpStream>,
    code: NotificationCode,
    metrics: &ConnMetrics,
) {
    metrics.frame_errors.inc();
    if let Ok(frame) = bgp::encode_one(&BgpMessage::Notification(code)) {
        let _ = write_frame(writer, &Frame::bgp(frame));
        let _ = writer.flush();
    }
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
    use crate::transport::{client_preamble, TcpTransport, CONTROLLER_ASN};
    use centralium_bgp::attrs::well_known;
    use centralium_bgp::Prefix;
    use centralium_simnet::{ManagementPlane, SimConfig};
    use centralium_topology::{build_fabric, FabricSpec};

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
        let mut transport = TcpTransport::connect(&addr).expect("connect + preamble");
        assert_eq!(transport.now().expect("now RPC"), expect_now);
        let topo = transport.topology().expect("topology RPC").into_owned();
        assert!(topo.device_count() > 0);
        transport.poll_current().expect("poll RPC");
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
        client_preamble(&mut &sock, &mut &sock, CONTROLLER_ASN).expect("preamble");
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
    fn concurrent_controllers_serialize_through_the_executor() {
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
        server.shutdown();
    }

    #[test]
    fn garbage_preamble_gets_a_notification_not_a_hang() {
        let (net, agent) = fabric();
        let server = AgentServer::bind("127.0.0.1:0", net, agent).expect("bind");
        let mut sock = TcpStream::connect(server.local_addr()).expect("connect");
        // A correctly-framed but non-OPEN first message violates the
        // preamble: the server must answer with a NOTIFICATION and close.
        let keepalive = bgp::encode_one(&BgpMessage::Keepalive).expect("encode");
        write_frame(&mut sock, &Frame::bgp(keepalive)).expect("send");
        let frame = read_frame(&mut sock).expect("read").expect("frame");
        assert_eq!(frame.kind, FrameKind::Bgp);
        assert!(matches!(
            bgp::decode_exact(&frame.payload).expect("server frame"),
            BgpMessage::Notification(NotificationCode::FiniteStateMachineError)
        ));
        server.shutdown();
    }
}
