//! Append-only audit trail of operator commands.
//!
//! Every command the daemon receives — accepted or rejected — is
//! recorded with its outcome and two timestamps: the daemon's wall
//! clock (milliseconds since daemon start) and the service-clock
//! instant the command was applied at. Records are held in memory for
//! the `/v1/audit` endpoint and, when a path is configured, appended
//! as JSON lines to a file that survives the daemon. A record the file
//! does not take (full disk, revoked file) is still served from memory
//! and counted in `artemis_audit_write_errors_total`.

use artemis_core::wire::CommandResult;
use artemis_core::ServiceCommand;
use artemis_simnet::SimTime;
use serde::{Deserialize, Serialize};
use std::io::Write;
use std::path::Path;

/// One audited operator command with its outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AuditRecord {
    /// Position in the audit trail (0-based, gapless).
    pub seq: u64,
    /// Wall-clock milliseconds since the daemon started.
    pub wall_ms: u64,
    /// Service-clock instant the command was applied at.
    pub at: SimTime,
    /// The command exactly as applied.
    pub command: ServiceCommand,
    /// What it did, or why it was rejected.
    pub result: CommandResult,
}

impl AuditRecord {
    /// True when the command applied successfully.
    pub fn accepted(&self) -> bool {
        matches!(self.result, CommandResult::Outcome(_))
    }
}

/// The append-only audit log. Records are never mutated or removed.
pub struct AuditLog {
    records: Vec<AuditRecord>,
    file: Option<std::fs::File>,
    write_errors: u64,
}

impl AuditLog {
    /// An in-memory-only audit log.
    pub fn in_memory() -> Self {
        AuditLog {
            records: Vec::new(),
            file: None,
            write_errors: 0,
        }
    }

    /// An audit log that additionally appends each record as one JSON
    /// line to `path` (created if missing, appended if present).
    pub fn with_file(path: &Path) -> std::io::Result<Self> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(AuditLog {
            records: Vec::new(),
            file: Some(file),
            write_errors: 0,
        })
    }

    /// Append one command/outcome pair, returning the stored record.
    pub fn record(
        &mut self,
        wall_ms: u64,
        at: SimTime,
        command: ServiceCommand,
        result: CommandResult,
    ) -> &AuditRecord {
        let rec = AuditRecord {
            seq: self.records.len() as u64,
            wall_ms,
            at,
            command,
            result,
        };
        if let Some(file) = self.file.as_mut() {
            // Audit persistence must never take the control plane down:
            // a record the file does not take is kept in memory and
            // counted, so the loss shows on `/metrics`.
            let persisted =
                serde_json::to_string(&rec).is_ok_and(|line| writeln!(file, "{line}").is_ok());
            self.write_errors += u64::from(!persisted);
        }
        self.records.push(rec);
        self.records.last().expect("just pushed")
    }

    /// Every record from `from` (a `seq`) on, oldest first.
    pub fn records_from(&self, from: u64) -> &[AuditRecord] {
        let start = (from as usize).min(self.records.len());
        &self.records[start..]
    }

    /// Total records appended.
    pub fn len(&self) -> u64 {
        self.records.len() as u64
    }

    /// Records the file did not take (serialization or write failed).
    /// Always 0 for an in-memory log.
    pub(crate) fn write_errors(&self) -> u64 {
        self.write_errors
    }

    /// True before the first record.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use artemis_core::CommandOutcome;

    #[test]
    fn records_are_appended_in_order_and_sliceable() {
        let mut log = AuditLog::in_memory();
        assert!(log.is_empty());
        log.record(
            1,
            SimTime::from_secs(1),
            ServiceCommand::Pause,
            CommandResult::Outcome(CommandOutcome::Paused),
        );
        log.record(
            2,
            SimTime::from_secs(2),
            ServiceCommand::Resume,
            CommandResult::Rejected(artemis_core::ServiceError::NotPaused),
        );
        assert_eq!(log.len(), 2);
        assert!(log.records_from(0)[0].accepted());
        assert!(!log.records_from(1)[0].accepted());
        assert_eq!(log.records_from(1)[0].seq, 1);
        assert!(log.records_from(99).is_empty());
    }

    #[test]
    fn file_backed_log_writes_json_lines() {
        let dir = std::env::temp_dir().join(format!("artemisd-audit-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("audit.jsonl");
        let _ = std::fs::remove_file(&path);
        {
            let mut log = AuditLog::with_file(&path).unwrap();
            log.record(
                1,
                SimTime::from_secs(1),
                ServiceCommand::Pause,
                CommandResult::Outcome(CommandOutcome::Paused),
            );
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let rec: AuditRecord = serde_json::from_str(text.lines().next().unwrap()).unwrap();
        assert_eq!(rec.command, ServiceCommand::Pause);
        let _ = std::fs::remove_file(&path);
    }
}
