//! The host fingerprint every result is stamped with, and the process's peak
//! memory.

use std::path::Path;
use std::process::Command;

/// What a result was measured on.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// Hardware threads available to the process.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu: String,
    /// `rustc -V` of the compiler on `PATH`.
    pub rustc: String,
    /// `git rev-parse HEAD` of the checkout, or `unknown` outside a git
    /// checkout.
    pub commit: String,
}

impl Fingerprint {
    /// Fingerprints this host and the checkout at `root`.
    pub fn take(root: &Path) -> Fingerprint {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".to_owned());
        // Stop git at the checkout, so a checkout that is not a repository
        // never reports the commit of an enclosing one.
        let mut git = Command::new("git");
        git.arg("-C").arg(root).args(["rev-parse", "HEAD"]);
        if let Some(parent) = root.parent() {
            git.env("GIT_CEILING_DIRECTORIES", parent);
        }
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
            rustc: stdout_of(Command::new("rustc").arg("-V")),
            commit: stdout_of(&mut git),
        }
    }

    /// The fingerprint as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"cpu\":{},\"rustc\":{},\"commit\":{}}}",
            self.nproc,
            json_str(&self.cpu),
            json_str(&self.rustc),
            json_str(&self.commit)
        )
    }
}

/// The trimmed standard output of a command that succeeded, else `unknown`.
fn stdout_of(cmd: &mut Command) -> String {
    cmd.stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Peak resident memory of this process in MiB (`VmHWM`), `NaN` where
/// `/proc` does not report it.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
