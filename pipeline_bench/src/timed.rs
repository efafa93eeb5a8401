//! A [`ControlTransport`] decorator that records one span per call.
//!
//! The controller pipeline is generic over its transport, so wrapping the
//! transport is how the bench sees every controller→agent call from outside:
//! the time a deploy spends under these spans is the service plane plus the
//! emulator, and what is left of the deploy span is the controller itself
//! (compile, plan, NSDB writes, wave bookkeeping).

use crate::trace::Tracer;
use centralium::health::{HealthCheck, HealthReport};
use centralium::switch_agent::IssuedOp;
use centralium::transport::ControlTransport;
use centralium::Error;
use centralium_rpa::RpaDocument;
use centralium_simnet::{ConvergenceReport, SimTime};
use centralium_telemetry::Telemetry;
use centralium_topology::{DeviceId, Topology};
use serde_json::Value;
use std::borrow::Cow;

/// Forwards every call to `inner` unchanged, inside a span. The span's layer
/// is the crate the call's time belongs to when the transport is in-process;
/// over TCP every call also crosses `wire` (frame + JSON) and the server's
/// executor thread.
pub struct TimedTransport<'a, T: ControlTransport> {
    inner: &'a mut T,
    tracer: &'a Tracer,
    events: u64,
}

impl<'a, T: ControlTransport> TimedTransport<'a, T> {
    /// Wrap `inner`; spans go to `tracer`.
    pub fn new(inner: &'a mut T, tracer: &'a Tracer) -> Self {
        TimedTransport {
            inner,
            tracer,
            events: 0,
        }
    }

    /// Events the fabric processed under `run_until_quiescent` so far.
    pub fn events(&self) -> u64 {
        self.events
    }
}

macro_rules! timed {
    ($self:ident, $layer:literal, $name:literal, $call:expr) => {{
        let id = $self.tracer.enter($layer, $name);
        let r = $call;
        $self.tracer.exit(id);
        r
    }};
}

impl<T: ControlTransport> ControlTransport for TimedTransport<'_, T> {
    fn describe(&self) -> &'static str {
        self.inner.describe()
    }

    fn telemetry(&self) -> Telemetry {
        self.inner.telemetry()
    }

    fn now(&mut self) -> Result<SimTime, Error> {
        timed!(self, "simnet", "now", self.inner.now())
    }

    fn run_until_quiescent(&mut self) -> Result<ConvergenceReport, Error> {
        let report = timed!(
            self,
            "simnet",
            "run_until_quiescent",
            self.inner.run_until_quiescent()
        )?;
        self.events += report.events_processed;
        Ok(report)
    }

    fn run_until(&mut self, deadline: SimTime) -> Result<u64, Error> {
        timed!(self, "simnet", "run_until", self.inner.run_until(deadline))
    }

    fn force_full_reconvergence(&mut self) -> Result<(), Error> {
        timed!(
            self,
            "simnet",
            "force_full_reconvergence",
            self.inner.force_full_reconvergence()
        )
    }

    fn topology(&mut self) -> Result<Cow<'_, Topology>, Error> {
        timed!(self, "topology", "topology", self.inner.topology())
    }

    fn set_intended(&mut self, device: DeviceId, doc: &RpaDocument) -> Result<(), Error> {
        timed!(
            self,
            "core",
            "set_intended",
            self.inner.set_intended(device, doc)
        )
    }

    fn seed_intended(&mut self, path: &str, value: Value) -> Result<(), Error> {
        timed!(
            self,
            "core",
            "seed_intended",
            self.inner.seed_intended(path, value)
        )
    }

    fn clear_intended(&mut self, device: DeviceId, name: &str) -> Result<(), Error> {
        timed!(
            self,
            "core",
            "clear_intended",
            self.inner.clear_intended(device, name)
        )
    }

    fn reconcile(&mut self) -> Result<Vec<IssuedOp>, Error> {
        timed!(self, "core", "reconcile", self.inner.reconcile())
    }

    fn poll_current(&mut self) -> Result<(), Error> {
        timed!(self, "core", "poll_current", self.inner.poll_current())
    }

    fn poll_devices(&mut self, devices: &[DeviceId]) -> Result<(), Error> {
        timed!(
            self,
            "core",
            "poll_devices",
            self.inner.poll_devices(devices)
        )
    }

    fn out_of_sync_paths(&mut self) -> Result<Vec<String>, Error> {
        timed!(
            self,
            "nsdb",
            "out_of_sync_paths",
            self.inner.out_of_sync_paths()
        )
    }

    fn next_retry_due(&mut self, now: SimTime) -> Result<Option<SimTime>, Error> {
        timed!(
            self,
            "core",
            "next_retry_due",
            self.inner.next_retry_due(now)
        )
    }

    fn health_check(&mut self, check: &HealthCheck) -> Result<HealthReport, Error> {
        timed!(self, "core", "health_check", self.inner.health_check(check))
    }
}
