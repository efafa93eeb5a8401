//! The unified error type of the controller stack.
//!
//! Before this type existed the crate reported failures through a mix of
//! `expect` panics (NSDB serialization), silently skipped records
//! (reconciliation) and ad-hoc strings. [`Error`] replaces those paths with
//! one typed surface the facade crate re-exports; the deployment pipeline's
//! domain outcomes stay on [`DeployError`](crate::DeployError), which wraps
//! internal failures as `DeployError::Internal(Error)`.

use centralium_rpa::RpaError;
use centralium_topology::DeviceId;
use centralium_wire::WireError;
use std::fmt;

/// Unified error for NSDB persistence, the RPA layer and the switch agent.
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// A record failed to serialize for NSDB persistence.
    NsdbEncode {
        /// The record (usually an NSDB path) being written.
        record: String,
        /// The underlying serialization error.
        source: serde_json::Error,
    },
    /// A durable NSDB record failed to deserialize — corrupt or written by
    /// an incompatible version.
    NsdbDecode {
        /// The record (usually an NSDB path) being read.
        record: String,
        /// The underlying deserialization error.
        source: serde_json::Error,
    },
    /// The RPA layer rejected a document.
    Rpa(RpaError),
    /// The switch agent cannot reach a device over the management plane.
    Unreachable {
        /// The unreachable device.
        device: DeviceId,
    },
    /// The RPC retry budget toward a device is exhausted.
    RetryExhausted {
        /// The device the RPCs targeted.
        device: DeviceId,
        /// Attempts made before giving up.
        attempts: u32,
    },
    /// Socket-level I/O failed on the service plane (connect, read, write).
    Io {
        /// What was being attempted, e.g. `"connect to 127.0.0.1:4271"`.
        context: String,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// A service-plane peer violated the wire protocol — bad framing, an
    /// unexpected frame kind, or a response to another request.
    Protocol(WireError),
    /// A write named an NSDB path that cannot hold a record: a wildcard
    /// pattern, or an RPA name that is not exactly one concrete segment.
    InvalidPath {
        /// The offending path.
        path: String,
    },
    /// A health check carries a number it cannot be judged by: a
    /// non-finite or negative probe rate, or a non-finite utilization limit.
    InvalidHealthCheck {
        /// The offending field, e.g. `"probe.gbps_each"`.
        field: &'static str,
        /// Its value.
        value: f64,
    },
    /// A deadline past the last instant the clock may reach: `run_until`'s or an RPA's.
    DeadlineOutOfRange {
        /// The requested deadline, µs.
        deadline: u64,
        /// The latest deadline accepted, µs.
        max: u64,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::NsdbEncode { record, source } => {
                write!(f, "failed to serialize NSDB record {record}: {source}")
            }
            Error::NsdbDecode { record, source } => {
                write!(f, "failed to deserialize NSDB record {record}: {source}")
            }
            Error::Rpa(e) => write!(f, "RPA error: {e}"),
            Error::Unreachable { device } => {
                write!(
                    f,
                    "device d{} unreachable over the management plane",
                    device.0
                )
            }
            Error::RetryExhausted { device, attempts } => {
                write!(
                    f,
                    "RPC retry budget toward d{} exhausted after {attempts} attempts",
                    device.0
                )
            }
            Error::Io { context, source } => {
                write!(
                    f,
                    "service-plane I/O failed while trying to {context}: {source}"
                )
            }
            Error::Protocol(e) => write!(f, "wire protocol violation: {e}"),
            Error::InvalidPath { path } => write!(
                f,
                "cannot write NSDB path {path}: it must be concrete, with the RPA name one segment"
            ),
            Error::InvalidHealthCheck { field, value } => write!(
                f,
                "invalid health check: {field} is {value}, which no threshold can judge"
            ),
            Error::DeadlineOutOfRange { deadline, max } => write!(
                f,
                "deadline {deadline} µs is out of range: the latest deadline is {max} µs"
            ),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::NsdbEncode { source, .. } | Error::NsdbDecode { source, .. } => Some(source),
            Error::Rpa(e) => Some(e),
            Error::Io { source, .. } => Some(source),
            Error::Protocol(e) => Some(e),
            Error::Unreachable { .. }
            | Error::RetryExhausted { .. }
            | Error::InvalidPath { .. }
            | Error::InvalidHealthCheck { .. }
            | Error::DeadlineOutOfRange { .. } => None,
        }
    }
}

impl From<RpaError> for Error {
    fn from(e: RpaError) -> Self {
        Error::Rpa(e)
    }
}

impl From<WireError> for Error {
    fn from(e: WireError) -> Self {
        Error::Protocol(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_record() {
        let e = Error::NsdbDecode {
            record: "/deploy/state".into(),
            source: serde_json::from_value::<u64>(serde_json::Value::Null).unwrap_err(),
        };
        assert!(e.to_string().contains("/deploy/state"));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn rpa_errors_convert() {
        let e: Error = RpaError::UnknownName("x".into()).into();
        assert!(matches!(e, Error::Rpa(_)));
        assert!(e.to_string().contains("no document named x"));
    }
}
