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

use crate::error::Error;
use crate::switch_agent::SwitchAgent;
use crate::transport::{
    expect_keepalive, expect_open, ControlTransport, InProcessTransport, Request, Response,
    SERVICE_HOLD_SECS,
};
use centralium_bgp::msg::{BgpMessage, NotificationCode, OpenMessage};
use centralium_simnet::SimNet;
use centralium_telemetry::span;
use centralium_topology::Asn;
use centralium_wire::bgp;
use centralium_wire::frame::{read_frame, write_frame, Frame, FrameKind};
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, Sender, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// ASN the agent side presents in its service-plane OPEN (a 4-byte
/// extension-band ASN, so the handshake always exercises RFC 6793).
pub const AGENT_ASN: Asn = Asn(4_201_000_000);

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
        // Every server thread hands its buffered spans to the sink as its
        // last act: a join can return before thread-local destructors run.
        let exec_handle = std::thread::spawn(move || {
            let state = run_executor(net, agent, job_rx);
            span::flush_thread();
            state
        });
        let accept_handle = {
            let stop = Arc::clone(&stop);
            let connections = Arc::clone(&connections);
            let job_tx = job_tx.clone();
            std::thread::spawn(move || {
                run_acceptor(listener, stop, connections, job_tx);
                span::flush_thread();
            })
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
    while let Ok(job) = jobs.recv() {
        match job {
            Job::Stop => break,
            Job::Rpc { req, reply } => {
                let mut transport = InProcessTransport::new(&mut net, &mut agent);
                let resp = execute(&mut transport, req).unwrap_or_else(|e| Response::Error {
                    message: e.to_string(),
                });
                // A dead connection thread is not the executor's problem.
                let _ = reply.send(resp);
            }
        }
    }
    (net, agent)
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
        // Connection threads are detached: they exit when the peer closes
        // or when the executor stops answering.
        std::thread::spawn(move || {
            let _ = serve_connection(stream, job_tx);
            span::flush_thread();
        });
    }
}

/// One controller session: preamble, then request/response frames until the
/// peer hangs up.
fn serve_connection(stream: TcpStream, job_tx: SyncSender<Job>) -> Result<(), Error> {
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
        notify_and_close(&mut writer, NotificationCode::FiniteStateMachineError);
        return Err(e);
    }
    loop {
        let frame = match read_frame(&mut reader) {
            Ok(Some(frame)) => frame,
            // Clean EOF at a frame boundary: the controller hung up.
            Ok(None) => return Ok(()),
            Err(e) => {
                // Malformed framing: tell the peer why before closing.
                notify_and_close(&mut writer, NotificationCode::Cease);
                return Err(Error::Io {
                    context: "read request frame".into(),
                    source: e,
                });
            }
        };
        match frame.kind {
            FrameKind::Request => {
                let resp = dispatch(&job_tx, &frame.payload);
                let payload = match serde_json::to_string(&resp) {
                    Ok(json) => json.into_bytes(),
                    Err(_) => continue,
                };
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
                        notify_and_close(&mut writer, NotificationCode::FiniteStateMachineError);
                        return Err(Error::Protocol(
                            centralium_wire::WireError::UnknownMessageType(0),
                        ));
                    }
                }
            }
            FrameKind::Response => {
                notify_and_close(&mut writer, NotificationCode::FiniteStateMachineError);
                return Err(Error::Protocol(centralium_wire::WireError::BadFrameKind(3)));
            }
        }
    }
}

/// Decode a request payload and run it through the executor, turning every
/// failure mode into a `Response::Error` the controller can interpret.
fn dispatch(job_tx: &SyncSender<Job>, payload: &[u8]) -> Response {
    let req: Request = match std::str::from_utf8(payload)
        .ok()
        .and_then(|text| serde_json::from_str(text).ok())
    {
        Some(req) => req,
        None => {
            return Response::Error {
                message: "malformed request payload".into(),
            }
        }
    };
    let (reply_tx, reply_rx) = std::sync::mpsc::channel();
    if job_tx
        .send(Job::Rpc {
            req,
            reply: reply_tx,
        })
        .is_err()
    {
        return Response::Error {
            message: "agent server is shutting down".into(),
        };
    }
    reply_rx.recv().unwrap_or_else(|_| Response::Error {
        message: "agent server is shutting down".into(),
    })
}

fn notify_and_close(writer: &mut BufWriter<TcpStream>, code: NotificationCode) {
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
    use crate::transport::TcpTransport;
    use centralium_bgp::attrs::well_known;
    use centralium_bgp::Prefix;
    use centralium_simnet::{ManagementPlane, SimConfig};
    use centralium_topology::{build_fabric, FabricSpec};

    fn fabric() -> (SimNet, SwitchAgent) {
        let (topo, idx, _) = build_fabric(&FabricSpec::tiny());
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
