//! `gust-verify`: offline schedule-cache safety auditor.
//!
//! Audits one or more `GUST` containers against the full
//! safety contract the unsafe kernels rely on (see `gust::verify`) and
//! reports every violation with its window/color/slot location.
//!
//! ```text
//! usage: gust-verify <file>...
//! ```
//!
//! Exit status: `0` when every file is intact and passes the audit,
//! `1` when any file is corrupt or fails the audit, `2` on usage or
//! I/O errors and on files that are not a `GUST` container.

use gust::schedule::serialize::{read_schedule_file_verified, ReadScheduleError};
use std::io::Read as _;
use std::path::Path;
use std::process::ExitCode;

/// Outcome of auditing one file.
enum FileOutcome {
    Clean,
    Rejected,
    Unusable,
}

/// Sniffs the 4-byte magic and runs the auditing reader.
fn audit_file(path: &Path) -> FileOutcome {
    let mut magic = [0u8; 4];
    match std::fs::File::open(path).and_then(|mut f| f.read_exact(&mut magic)) {
        Ok(()) => {}
        Err(err) => {
            eprintln!("gust-verify: {}: {err}", path.display());
            return FileOutcome::Unusable;
        }
    }
    if &magic != b"GUST" {
        eprintln!(
            "gust-verify: {}: unrecognized magic {:?} (expected GUST)",
            path.display(),
            String::from_utf8_lossy(&magic)
        );
        return FileOutcome::Unusable;
    }
    match read_schedule_file_verified(path) {
        Ok(s) => {
            println!(
                "{}: OK (flat schedule, {}x{})",
                path.display(),
                s.rows(),
                s.cols()
            );
            FileOutcome::Clean
        }
        Err(ReadScheduleError::Audit(report)) => {
            eprintln!(
                "{}: REJECTED (flat schedule): {} violation(s)",
                path.display(),
                report.violations().len()
            );
            for violation in report.violations() {
                eprintln!("  - {violation}");
            }
            FileOutcome::Rejected
        }
        Err(err) => {
            eprintln!("{}: REJECTED (flat schedule): {err}", path.display());
            FileOutcome::Rejected
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "-h" || a == "--help") {
        eprintln!("usage: gust-verify <file>...");
        eprintln!("audits GUST schedule containers; exits nonzero on violation");
        return ExitCode::from(2);
    }
    let mut worst: u8 = 0;
    for arg in &args {
        let code = match audit_file(Path::new(arg)) {
            FileOutcome::Clean => 0,
            FileOutcome::Rejected => 1,
            FileOutcome::Unusable => 2,
        };
        worst = worst.max(code);
    }
    ExitCode::from(worst)
}
