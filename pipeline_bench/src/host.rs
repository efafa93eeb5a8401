//! Host fingerprint: a number only counts next to the machine and the build
//! it came from.

use std::process::Command;

/// What the run header records about the host and the build.
#[derive(Debug, Clone)]
pub struct Host {
    /// Cores available to this process.
    pub nproc: usize,
    /// CPU model string.
    pub cpu: String,
    /// Kernel release.
    pub kernel: String,
    /// `rustc -V` of the toolchain on the path.
    pub rustc: String,
    /// `git rev-parse HEAD`, or "unknown" outside a git checkout.
    pub git_sha: String,
    /// Build profile; a debug build is refused before this is read.
    pub profile: &'static str,
}

fn first_line_of(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

impl Host {
    /// Read the fingerprint.
    pub fn read() -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string());
        Host {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            cpu,
            kernel,
            rustc: first_line_of("rustc", &["-V"]),
            // Only the checkout's own repository counts, not one above it.
            git_sha: if std::path::Path::new(".git").exists() {
                first_line_of("git", &["rev-parse", "HEAD"])
            } else {
                "unknown".to_string()
            },
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        }
    }

    /// `key: value` lines for the run header.
    pub fn lines(&self) -> Vec<(&'static str, String)> {
        vec![
            ("nproc", self.nproc.to_string()),
            ("cpu", self.cpu.clone()),
            ("kernel", self.kernel.clone()),
            ("rustc", self.rustc.clone()),
            ("git_sha", self.git_sha.clone()),
            ("profile", self.profile.to_string()),
        ]
    }
}
