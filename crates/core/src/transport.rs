//! The transport-agnostic controller↔agent RPC surface.
//!
//! Historically the deployment pipeline called the [`SwitchAgent`] and the
//! [`SimNet`] directly — an in-process-only service plane. [`ControlTransport`]
//! extracts that call surface into a trait so the same pipeline drives:
//!
//! - [`InProcessTransport`]: thin delegation to `(&mut SimNet, &mut
//!   SwitchAgent)`. This is the original code path, bit for bit — the
//!   simulator-only benchmarks and tests must not change behavior.
//! - [`TcpTransport`]: the same operations as RPCs over a real socket to a
//!   [`serve::AgentServer`](crate::serve::AgentServer): JSON in
//!   `centralium-wire`'s `CRP1` Request and Response frames, from the
//!   first byte of a connection. Reconnects with the [`RetryPolicy`]
//!   backoff schedule and fails fast through a [`CircuitBreaker`] once the
//!   endpoint is wedged — the same semantics the agent applies to device
//!   RPCs, one level up.
//!
//! The caller picks one by building it and handing it to
//! [`deploy_intent_over`](crate::deploy_intent_over) (or the removal and
//! resume entries); [`Controller`](crate::Controller) builds an
//! [`InProcessTransport`] over its own fabric. A [`TcpTransport`] records
//! the controller's phases and journal events into the handle given to
//! [`TcpTransport::set_telemetry`].
//!
//! The trait is deliberately the *full* controller-side surface — including
//! clock advancement (`run_until*`) — because in this reproduction the
//! controller drives simulated time. Over TCP those become RPCs and the
//! server advances its own simulation; against real hardware they would be
//! wall-clock waits.

use crate::error::Error;
use crate::health::{run_health_check, HealthCheck, HealthReport};
use crate::retry::{CircuitBreaker, RetryPolicy};
use crate::switch_agent::{check_deadline, IssuedOp, SwitchAgent};
use centralium_nsdb::store::View;
use centralium_nsdb::Path;
use centralium_rpa::RpaDocument;
use centralium_simnet::{ConvergenceReport, SimNet, SimTime};
use centralium_telemetry::Telemetry;
use centralium_topology::{DeviceId, Topology};
use centralium_wire::frame::{read_frame, write_frame, Frame, FrameKind};
use centralium_wire::WireError;
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::borrow::Cow;
use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// The operations the deployment pipeline needs from the service plane.
///
/// Everything is `&mut self` + `Result`: a remote transport can fail on any
/// call, and even "read" operations advance connection state.
pub trait ControlTransport {
    /// Human-readable transport name (for telemetry/errors).
    fn describe(&self) -> &'static str;

    /// The telemetry sink this transport's side of the world records into.
    fn telemetry(&self) -> Telemetry;

    /// Current simulated time.
    fn now(&mut self) -> Result<SimTime, Error>;

    /// Drain the fabric's event queue; the convergence barrier.
    fn run_until_quiescent(&mut self) -> Result<ConvergenceReport, Error>;

    /// Advance simulated time to `deadline`, returning events processed.
    fn run_until(&mut self, deadline: SimTime) -> Result<u64, Error>;

    /// Force a full-fabric re-convergence: every device re-runs its full
    /// decision process (the oracle's forced pass, reachable over TCP).
    fn force_full_reconvergence(&mut self) -> Result<(), Error>;

    /// The fabric topology (borrowed in-process; fetched once per session
    /// and cached remote).
    fn topology(&mut self) -> Result<Cow<'_, Topology>, Error>;

    /// Record that `device` should run `doc` (agent intended state).
    fn set_intended(&mut self, device: DeviceId, doc: &RpaDocument) -> Result<(), Error>;

    /// Seed a raw intended-state record (deployment resume rebuilds intended
    /// state from durable NSDB records).
    fn seed_intended(&mut self, path: &str, value: Value) -> Result<(), Error>;

    /// Record that `device` should no longer run the named RPA.
    fn clear_intended(&mut self, device: DeviceId, name: &str) -> Result<(), Error>;

    /// One reconciliation round; returns the issued operations.
    fn reconcile(&mut self) -> Result<Vec<IssuedOp>, Error>;

    /// Poll ground truth from the whole fleet.
    fn poll_current(&mut self) -> Result<(), Error>;

    /// Poll ground truth from the given devices only (the deployment's
    /// per-round poll).
    fn poll_devices(&mut self, devices: &[DeviceId]) -> Result<(), Error>;

    /// Paths whose intended and current state disagree.
    fn out_of_sync_paths(&mut self) -> Result<Vec<String>, Error>;

    /// Earliest instant a held-back RPC becomes issuable (see
    /// [`SwitchAgent::next_retry_due`]).
    fn next_retry_due(&mut self, now: SimTime) -> Result<Option<SimTime>, Error>;

    /// Run a health check against the fabric's current state.
    fn health_check(&mut self, check: &HealthCheck) -> Result<HealthReport, Error>;
}

// ---------------------------------------------------------------------------
// in-process
// ---------------------------------------------------------------------------

/// Direct calls against a locally-owned simulation and agent — the legacy
/// code path, preserved byte-identically.
#[derive(Debug)]
pub struct InProcessTransport<'a> {
    /// The emulated fabric.
    pub net: &'a mut SimNet,
    /// The switch agent.
    pub agent: &'a mut SwitchAgent,
}

impl<'a> InProcessTransport<'a> {
    /// Borrow a net + agent pair as a transport.
    pub fn new(net: &'a mut SimNet, agent: &'a mut SwitchAgent) -> Self {
        InProcessTransport { net, agent }
    }
}

impl ControlTransport for InProcessTransport<'_> {
    fn describe(&self) -> &'static str {
        "in-process"
    }

    fn telemetry(&self) -> Telemetry {
        self.net.telemetry().clone()
    }

    fn now(&mut self) -> Result<SimTime, Error> {
        Ok(self.net.now())
    }

    fn run_until_quiescent(&mut self) -> Result<ConvergenceReport, Error> {
        Ok(self.net.run_until_quiescent())
    }

    /// Refuses a deadline past `MAX_DEADLINE` (`SimTime::MAX / 2`) with
    /// [`Error::DeadlineOutOfRange`], leaving the clock where it was.
    fn run_until(&mut self, deadline: SimTime) -> Result<u64, Error> {
        check_deadline(deadline)?;
        Ok(self.net.run_until(deadline))
    }

    fn force_full_reconvergence(&mut self) -> Result<(), Error> {
        self.net.force_full_reconvergence();
        Ok(())
    }

    fn topology(&mut self) -> Result<Cow<'_, Topology>, Error> {
        Ok(Cow::Borrowed(self.net.topology()))
    }

    fn set_intended(&mut self, device: DeviceId, doc: &RpaDocument) -> Result<(), Error> {
        self.agent.set_intended(device, doc)
    }

    fn seed_intended(&mut self, path: &str, value: Value) -> Result<(), Error> {
        let path = Path::parse(path);
        if path.is_pattern() {
            return Err(Error::InvalidPath {
                path: path.to_string(),
            });
        }
        self.agent.service.store.set(View::Intended, path, value);
        Ok(())
    }

    fn clear_intended(&mut self, device: DeviceId, name: &str) -> Result<(), Error> {
        self.agent.clear_intended(device, name);
        Ok(())
    }

    fn reconcile(&mut self) -> Result<Vec<IssuedOp>, Error> {
        self.agent.reconcile(self.net)
    }

    fn poll_current(&mut self) -> Result<(), Error> {
        self.agent.poll_current(self.net)
    }

    fn poll_devices(&mut self, devices: &[DeviceId]) -> Result<(), Error> {
        self.agent.poll_devices(self.net, devices)
    }

    fn out_of_sync_paths(&mut self) -> Result<Vec<String>, Error> {
        Ok(self
            .agent
            .service
            .store
            .out_of_sync()
            .iter()
            .map(|p| p.to_string())
            .collect())
    }

    fn next_retry_due(&mut self, now: SimTime) -> Result<Option<SimTime>, Error> {
        Ok(self.agent.next_retry_due(now))
    }

    fn health_check(&mut self, check: &HealthCheck) -> Result<HealthReport, Error> {
        check.validate()?;
        Ok(run_health_check(self.net, check))
    }
}

// ---------------------------------------------------------------------------
// the RPC protocol
// ---------------------------------------------------------------------------

/// A control-plane RPC: one per [`ControlTransport`] operation. Serialized
/// as JSON inside a `CRP1` Request frame.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[non_exhaustive]
pub(crate) enum Request {
    /// [`ControlTransport::now`].
    Now,
    /// [`ControlTransport::run_until_quiescent`].
    RunUntilQuiescent,
    /// [`ControlTransport::run_until`].
    RunUntil {
        /// Target simulated instant.
        deadline: SimTime,
    },
    /// [`ControlTransport::force_full_reconvergence`].
    ForceFullReconvergence,
    /// [`ControlTransport::topology`].
    Topology,
    /// [`ControlTransport::set_intended`].
    SetIntended {
        /// Target device.
        device: DeviceId,
        /// The document to run.
        doc: RpaDocument,
    },
    /// [`ControlTransport::seed_intended`].
    SeedIntended {
        /// NSDB-style path of the record.
        path: String,
        /// The raw record.
        value: Value,
    },
    /// [`ControlTransport::clear_intended`].
    ClearIntended {
        /// Target device.
        device: DeviceId,
        /// RPA document name.
        name: String,
    },
    /// [`ControlTransport::reconcile`].
    Reconcile,
    /// [`ControlTransport::poll_current`].
    PollCurrent,
    /// [`ControlTransport::poll_devices`].
    PollDevices {
        /// Devices to poll.
        devices: Vec<DeviceId>,
    },
    /// [`ControlTransport::out_of_sync_paths`].
    OutOfSync,
    /// [`ControlTransport::next_retry_due`].
    NextRetryDue {
        /// Current simulated time on the caller's side of the clock.
        now: SimTime,
    },
    /// [`ControlTransport::health_check`].
    HealthCheck {
        /// The check to run.
        check: HealthCheck,
    },
}

/// Reply to a [`Request`], JSON inside a `CRP1` Response frame echoing the
/// request's correlation id.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[non_exhaustive]
pub(crate) enum Response {
    /// Operation succeeded with no payload.
    Ok,
    /// Simulated time.
    Now {
        /// Current instant, µs.
        now: SimTime,
    },
    /// Convergence-barrier outcome.
    Quiescent {
        /// The run's report.
        report: ConvergenceReport,
    },
    /// `run_until` outcome.
    Ran {
        /// Events processed.
        events: u64,
    },
    /// The fabric topology.
    Topology {
        /// A full topology snapshot.
        topo: Topology,
    },
    /// Issued reconcile operations.
    Ops {
        /// Operations issued this round.
        ops: Vec<IssuedOp>,
    },
    /// Out-of-sync paths.
    Paths {
        /// Diverged store paths, rendered.
        paths: Vec<String>,
    },
    /// Next retry deadline.
    Due {
        /// Earliest actionable instant, if any.
        due: Option<SimTime>,
    },
    /// Health-check outcome.
    Health {
        /// The report.
        report: HealthReport,
    },
    /// The server-side operation failed.
    Error {
        /// Rendered server-side error.
        message: String,
    },
}

// ---------------------------------------------------------------------------
// TCP client
// ---------------------------------------------------------------------------

/// The endpoint key the client-side breaker/backoff schedules are keyed by
/// (there is one logical endpoint: the agent server).
const ENDPOINT: DeviceId = DeviceId(u32::MAX);

/// Per-RPC socket read and write timeout.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// A connected service-plane session.
struct Session {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    /// The topology this session's agent reported. It lives and dies with
    /// the session: the agent behind the next one may have restarted on a
    /// different fabric.
    topology: Option<Topology>,
}

/// [`ControlTransport`] over a real TCP connection to an
/// [`AgentServer`](crate::serve::AgentServer).
///
/// Connection management carries the `core::retry` semantics to the
/// endpoint level: every RPC gets `RetryPolicy::max_retries` attempts with
/// the policy's backoff between reconnects, and consecutive failures trip a
/// [`CircuitBreaker`] so a dead server fails fast until its cooldown. Read
/// deadlines come from the socket read timeout.
pub struct TcpTransport {
    addr: String,
    session: Option<Session>,
    retry: RetryPolicy,
    breaker: CircuitBreaker,
    telemetry: Telemetry,
    started: Instant,
    next_corr: u64,
}

impl std::fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport")
            .field("addr", &self.addr)
            .field("connected", &self.session.is_some())
            .finish()
    }
}

impl TcpTransport {
    /// Connect to an agent server.
    pub fn connect(addr: &str) -> Result<Self, Error> {
        Self::connect_with(addr, RetryPolicy::default())
    }

    /// [`TcpTransport::connect`] with an explicit reconnect schedule.
    pub(crate) fn connect_with(addr: &str, retry: RetryPolicy) -> Result<Self, Error> {
        let mut t = TcpTransport {
            addr: addr.to_string(),
            session: None,
            retry,
            breaker: CircuitBreaker::default(),
            telemetry: Telemetry::new(),
            started: Instant::now(),
            next_corr: 1,
        };
        t.ensure_session()?;
        Ok(t)
    }

    /// Record into `telemetry` (e.g. the controller's fabric handle) instead
    /// of the private handle [`TcpTransport::connect`] starts with.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Wall-clock µs since this transport was created — the clock the
    /// endpoint breaker runs on.
    fn wall_us(&self) -> SimTime {
        self.started.elapsed().as_micros() as SimTime
    }

    fn ensure_session(&mut self) -> Result<(), Error> {
        if self.session.is_some() {
            return Ok(());
        }
        let stream = TcpStream::connect(&self.addr).map_err(|e| Error::Io {
            context: format!("connect to {}", self.addr),
            source: e,
        })?;
        stream
            .set_read_timeout(Some(IO_TIMEOUT))
            .and_then(|()| stream.set_write_timeout(Some(IO_TIMEOUT)))
            .and_then(|()| stream.set_nodelay(true))
            .map_err(|e| Error::Io {
                context: format!("configure socket to {}", self.addr),
                source: e,
            })?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| Error::Io {
            context: format!("clone socket to {}", self.addr),
            source: e,
        })?);
        let writer = BufWriter::new(stream);
        self.session = Some(Session {
            reader,
            writer,
            topology: None,
        });
        Ok(())
    }

    /// One attempt: serialize, frame, send, read the one response frame.
    fn try_rpc(&mut self, req: &Request) -> Result<Response, Error> {
        self.ensure_session()?;
        let corr = self.next_corr;
        self.next_corr += 1;
        let payload = serde_json::to_string(req)
            .map_err(|e| Error::NsdbEncode {
                record: "service-plane request".into(),
                source: e,
            })?
            .into_bytes();
        let session = self.session.as_mut().expect("ensure_session");
        write_frame(&mut session.writer, &Frame::request(corr, payload)).map_err(|e| {
            Error::Io {
                context: format!("send RPC to {}", self.addr),
                source: e,
            }
        })?;
        session.writer.flush().map_err(|e| Error::Io {
            context: format!("flush RPC to {}", self.addr),
            source: e,
        })?;
        let frame = read_frame(&mut session.reader)
            .map_err(|e| Error::Io {
                context: format!("read RPC response from {}", self.addr),
                source: e,
            })?
            .ok_or_else(|| Error::Io {
                context: format!("read RPC response from {}", self.addr),
                source: std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ),
            })?;
        // A failed attempt drops its session, so the one frame on this
        // connection answers this request; anything else is the server's
        // protocol violation.
        if frame.kind == FrameKind::Request {
            return Err(Error::Protocol(WireError::BadFrameKind(2)));
        }
        if frame.corr != corr {
            return Err(Error::Protocol(WireError::CorrelationMismatch {
                expected: corr,
                got: frame.corr,
            }));
        }
        let text = std::str::from_utf8(&frame.payload).map_err(|_| {
            Error::Protocol(WireError::Unrepresentable {
                what: "response payload is not UTF-8",
            })
        })?;
        serde_json::from_str(text).map_err(|e| Error::NsdbDecode {
            record: "service-plane response".into(),
            source: e,
        })
    }

    /// Issue an RPC with reconnect/backoff/circuit-breaker semantics.
    fn rpc(&mut self, req: &Request) -> Result<Response, Error> {
        if !self.breaker.allows(ENDPOINT, self.wall_us()) {
            return Err(Error::Unreachable { device: ENDPOINT });
        }
        let mut attempts = 0;
        loop {
            match self.try_rpc(req) {
                Ok(Response::Error { message }) => {
                    // A server-side semantic failure: the connection is
                    // healthy, so don't retry or penalize the endpoint.
                    return Err(Error::Io {
                        context: format!("execute RPC on {}", self.addr),
                        source: std::io::Error::other(message),
                    });
                }
                Ok(resp) => {
                    self.breaker.record_success(ENDPOINT);
                    return Ok(resp);
                }
                Err(e @ Error::Protocol(_)) => {
                    // A protocol violation will not heal with a retry.
                    self.session = None;
                    return Err(e);
                }
                Err(e) => {
                    self.session = None;
                    self.telemetry
                        .metrics()
                        .counter("transport.tcp.retries")
                        .inc();
                    if self.breaker.record_failure(ENDPOINT, self.wall_us()) {
                        self.telemetry
                            .metrics()
                            .counter("transport.tcp.circuit_open")
                            .inc();
                    }
                    if attempts >= self.retry.max_retries {
                        let _ = e;
                        return Err(Error::RetryExhausted {
                            device: ENDPOINT,
                            attempts: attempts + 1,
                        });
                    }
                    if !self.breaker.allows(ENDPOINT, self.wall_us()) {
                        return Err(Error::Unreachable { device: ENDPOINT });
                    }
                    let backoff = self.retry.backoff_us(attempts, ENDPOINT);
                    std::thread::sleep(Duration::from_micros(backoff));
                    attempts += 1;
                }
            }
        }
    }

    fn expect_ok(&mut self, req: &Request) -> Result<(), Error> {
        match self.rpc(req)? {
            Response::Ok => Ok(()),
            other => Err(Self::unexpected(other)),
        }
    }

    fn unexpected(resp: Response) -> Error {
        Error::Io {
            context: "interpret RPC response".into(),
            source: std::io::Error::other(format!("unexpected response {resp:?}")),
        }
    }
}

impl ControlTransport for TcpTransport {
    fn describe(&self) -> &'static str {
        "tcp"
    }

    fn telemetry(&self) -> Telemetry {
        self.telemetry.clone()
    }

    fn now(&mut self) -> Result<SimTime, Error> {
        match self.rpc(&Request::Now)? {
            Response::Now { now } => Ok(now),
            other => Err(Self::unexpected(other)),
        }
    }

    fn run_until_quiescent(&mut self) -> Result<ConvergenceReport, Error> {
        match self.rpc(&Request::RunUntilQuiescent)? {
            Response::Quiescent { report } => Ok(report),
            other => Err(Self::unexpected(other)),
        }
    }

    fn run_until(&mut self, deadline: SimTime) -> Result<u64, Error> {
        match self.rpc(&Request::RunUntil { deadline })? {
            Response::Ran { events } => Ok(events),
            other => Err(Self::unexpected(other)),
        }
    }

    fn force_full_reconvergence(&mut self) -> Result<(), Error> {
        self.expect_ok(&Request::ForceFullReconvergence)
    }

    fn topology(&mut self) -> Result<Cow<'_, Topology>, Error> {
        let cached = self.session.as_ref().and_then(|s| s.topology.as_ref());
        if cached.is_none() {
            let topo = match self.rpc(&Request::Topology)? {
                Response::Topology { topo } => topo,
                other => return Err(Self::unexpected(other)),
            };
            let session = self.session.as_mut().expect("a successful RPC left it");
            session.topology = Some(topo);
        }
        let session = self.session.as_ref().expect("cached");
        Ok(Cow::Borrowed(session.topology.as_ref().expect("cached")))
    }

    fn set_intended(&mut self, device: DeviceId, doc: &RpaDocument) -> Result<(), Error> {
        self.expect_ok(&Request::SetIntended {
            device,
            doc: doc.clone(),
        })
    }

    fn seed_intended(&mut self, path: &str, value: Value) -> Result<(), Error> {
        self.expect_ok(&Request::SeedIntended {
            path: path.to_string(),
            value,
        })
    }

    fn clear_intended(&mut self, device: DeviceId, name: &str) -> Result<(), Error> {
        self.expect_ok(&Request::ClearIntended {
            device,
            name: name.to_string(),
        })
    }

    fn reconcile(&mut self) -> Result<Vec<IssuedOp>, Error> {
        match self.rpc(&Request::Reconcile)? {
            Response::Ops { ops } => Ok(ops),
            other => Err(Self::unexpected(other)),
        }
    }

    fn poll_current(&mut self) -> Result<(), Error> {
        self.expect_ok(&Request::PollCurrent)
    }

    fn poll_devices(&mut self, devices: &[DeviceId]) -> Result<(), Error> {
        self.expect_ok(&Request::PollDevices {
            devices: devices.to_vec(),
        })
    }

    fn out_of_sync_paths(&mut self) -> Result<Vec<String>, Error> {
        match self.rpc(&Request::OutOfSync)? {
            Response::Paths { paths } => Ok(paths),
            other => Err(Self::unexpected(other)),
        }
    }

    fn next_retry_due(&mut self, now: SimTime) -> Result<Option<SimTime>, Error> {
        match self.rpc(&Request::NextRetryDue { now })? {
            Response::Due { due } => Ok(due),
            other => Err(Self::unexpected(other)),
        }
    }

    fn health_check(&mut self, check: &HealthCheck) -> Result<HealthReport, Error> {
        check.validate()?;
        match self.rpc(&Request::HealthCheck {
            check: check.clone(),
        })? {
            Response::Health { report } => Ok(report),
            other => Err(Self::unexpected(other)),
        }
    }
}

#[cfg(test)]
impl TcpTransport {
    /// Drop the session, so the next RPC re-dials.
    pub(crate) fn disconnect(&mut self) {
        self.session = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn a_response_to_another_request_is_a_protocol_error_without_retry() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        // A server that answers the first request under the next id.
        let server = std::thread::spawn(move || {
            let (mut sock, _) = listener.accept().expect("accept");
            let req = read_frame(&mut sock).expect("read").expect("a request");
            let reply = Frame::response(req.corr + 1, br#""Ok""#.to_vec());
            write_frame(&mut sock, &reply).expect("reply");
            (listener, sock)
        });
        let mut transport = TcpTransport::connect(&addr).expect("connect");
        let err = transport.now().expect_err("a stray response was taken");
        assert!(
            matches!(
                err,
                Error::Protocol(WireError::CorrelationMismatch {
                    expected: 1,
                    got: 2
                })
            ),
            "{err}"
        );
        let (listener, _sock) = server.join().expect("server thread");
        listener.set_nonblocking(true).expect("nonblocking");
        assert!(listener.accept().is_err(), "the transport reconnected");
        let retries = transport.telemetry().metrics().snapshot();
        assert_eq!(retries.counter("transport.tcp.retries"), 0);
    }
}
