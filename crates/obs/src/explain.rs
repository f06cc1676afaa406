//! The exploration audit log: a thread-safe NDJSON record sink.
//!
//! The eq. 12–22 cost model evaluates thousands of copy candidates and
//! keeps a handful; everything else is silently dominated or pruned.
//! [`Explain`] is the sink those decisions are written into when the user
//! passes `--explain FILE`: one structured JSON record per decision,
//! appended in deterministic generation order, serialized to NDJSON
//! (one object per line).
//!
//! The sink is threaded through the exploration as an `Option<&Explain>`
//! so the disabled path stays zero-cost: callers guard record
//! *construction* behind the option, and `None` means no allocation and
//! no locking on the hot path. The sink itself is a mutex around a
//! vector of pre-serialized lines — `Sync`, so the order-preserving
//! parallel pair sweep can hand records back from worker closures and
//! the caller can append them in pair order, keeping the log
//! byte-identical regardless of thread count.

use std::sync::Mutex;

use crate::json::Json;

/// An append-only sink of exploration decision records.
///
/// # Examples
///
/// ```
/// use datareuse_obs::{Explain, Json};
///
/// let sink = Explain::new();
/// sink.emit(&Json::obj([("record", Json::str("candidate")), ("id", Json::UInt(0))]));
/// assert_eq!(sink.len(), 1);
/// assert!(sink.to_ndjson().starts_with("{\"record\":\"candidate\""));
/// ```
#[derive(Debug, Default)]
pub struct Explain {
    lines: Mutex<Vec<String>>,
}

impl Explain {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one record, serialized immediately to its NDJSON line.
    pub fn emit(&self, record: &Json) {
        self.lines
            .lock()
            .expect("explain sink poisoned")
            .push(record.to_string());
    }

    /// Appends a batch of pre-serialized lines in order. Used by the
    /// parallel sweep to splice per-pair record batches back in
    /// deterministic pair order.
    pub fn emit_lines(&self, lines: impl IntoIterator<Item = String>) {
        self.lines
            .lock()
            .expect("explain sink poisoned")
            .extend(lines);
    }

    /// Number of records emitted so far.
    pub fn len(&self) -> usize {
        self.lines.lock().expect("explain sink poisoned").len()
    }

    /// Whether no record has been emitted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The whole log as NDJSON: one record per line, trailing newline.
    /// Empty string when no records were emitted.
    pub fn to_ndjson(&self) -> String {
        let lines = self.lines.lock().expect("explain sink poisoned");
        let mut out = String::new();
        for line in lines.iter() {
            out.push_str(line);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_keep_emission_order() {
        let sink = Explain::new();
        assert!(sink.is_empty());
        sink.emit(&Json::obj([("id", Json::UInt(0))]));
        sink.emit_lines(["{\"id\":1}".to_string(), "{\"id\":2}".to_string()]);
        assert_eq!(sink.len(), 3);
        assert_eq!(sink.to_ndjson(), "{\"id\":0}\n{\"id\":1}\n{\"id\":2}\n");
        for (i, line) in sink.to_ndjson().lines().enumerate() {
            let parsed = Json::parse(line).expect("each record is one JSON object");
            assert_eq!(parsed.get("id").and_then(Json::as_u64), Some(i as u64));
        }
    }

    #[test]
    fn empty_sink_serializes_to_empty_string() {
        assert_eq!(Explain::new().to_ndjson(), "");
    }
}
