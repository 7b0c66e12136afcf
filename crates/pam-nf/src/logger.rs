//! The sampling packet logger vNF.
//!
//! Records a bounded ring of log entries describing sampled packets. Two
//! properties matter for the reproduction:
//!
//! * the logger *samples* — by default it logs one packet in four
//!   (`sample_every = 4`), which is the interpretation that reconciles the
//!   poster's Table 1 (Logger has the lowest raw SmartNIC capacity) with its
//!   Figure 1(b) (the Monitor, not the Logger, is the hot spot); the sampling
//!   fraction corresponds to the `load_factor` of its capacity profile;
//! * its runtime state (the ring buffer) is small, so PAM's choice to migrate
//!   the Logger is also the cheapest state transfer in the chain.
//!
//! A record stores the packet's parsed 5-tuple, not text: the human-readable
//! summary is rendered only when the state is exported. The exported JSON —
//! the bytes that size the Logger's migration — carries that summary as a
//! string field.

use std::collections::VecDeque;

use pam_types::Result;
use pam_wire::five_tuple::parse_canonical_decimal;
use pam_wire::FiveTuple;
use serde::value::{Map, Value};
use serde::{Deserialize, Error, Serialize};

use crate::nf::{NetworkFunction, NfContext, NfKind, NfState, NfVerdict};
use crate::packet::Packet;

/// One log record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogEntry {
    /// Nanosecond timestamp of the logged packet.
    pub timestamp_nanos: u64,
    /// Flow the packet belonged to.
    pub flow: u64,
    /// Packet size in bytes.
    pub size: u64,
    /// The packet's 5-tuple (`None` for a frame that is not IPv4).
    pub tuple: Option<FiveTuple>,
}

impl LogEntry {
    /// Human-readable description of the packet: its 5-tuple, or the size of
    /// a non-IP frame.
    pub fn summary(&self) -> String {
        match self.tuple {
            Some(tuple) => tuple.to_string(),
            None => format!("{NON_IP_PREFIX}{}{NON_IP_SUFFIX}", self.size),
        }
    }
}

const NON_IP_PREFIX: &str = "non-ip frame of ";
const NON_IP_SUFFIX: &str = " bytes";

// Hand-written: the record holds the parsed tuple, its JSON the rendered
// `summary` text (whose bytes size the Logger's state transfer).
impl Serialize for LogEntry {
    fn to_value(&self) -> Value {
        let mut map = Map::new();
        map.insert("timestamp_nanos", self.timestamp_nanos.to_value());
        map.insert("flow", self.flow.to_value());
        map.insert("size", self.size.to_value());
        map.insert("summary", Value::String(self.summary()));
        Value::Object(map)
    }
}

impl Deserialize for LogEntry {
    fn from_value(value: &Value) -> std::result::Result<Self, Error> {
        let map = value
            .as_object()
            .ok_or_else(|| Error::custom("a log entry must be an object"))?;
        let field = |name: &str| {
            map.get(name)
                .ok_or_else(|| Error::custom(format!("missing field `{name}`")))
        };
        let size = u64::from_value(field("size")?)?;
        let summary = field("summary")?
            .as_str()
            .ok_or_else(|| Error::custom("`summary` must be a string"))?;
        // Only summaries this record format prints are accepted, so an
        // import followed by an export reproduces the same bytes.
        let non_ip_size = summary
            .strip_prefix(NON_IP_PREFIX)
            .and_then(|rest| rest.strip_suffix(NON_IP_SUFFIX))
            .and_then(parse_canonical_decimal::<u64>);
        let tuple = match non_ip_size {
            Some(bytes) if bytes == size => None,
            _ => Some(
                summary
                    .parse::<FiveTuple>()
                    .map_err(|_| Error::custom(format!("unrecognised log summary `{summary}`")))?,
            ),
        };
        Ok(LogEntry {
            timestamp_nanos: u64::from_value(field("timestamp_nanos")?)?,
            flow: u64::from_value(field("flow")?)?,
            size,
            tuple,
        })
    }
}

/// Serialised logger state.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct LoggerState {
    entries: Vec<LogEntry>,
    observed: u64,
    logged: u64,
    sample_every: u64,
}

/// One pre-copy round's worth of logger state: the ring entries appended
/// since the last round (always the tail of the ring — appends happen at the
/// back, evictions only at the front) plus the counters.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct LoggerDelta {
    appended: Vec<LogEntry>,
    observed: u64,
    logged: u64,
    sample_every: u64,
}

/// The sampling logger vNF.
#[derive(Debug)]
pub struct Logger {
    /// The ring, oldest entry at the front. A `VecDeque` keeps steady-state
    /// eviction O(1); the old `Vec::remove(0)` memmoved the whole 4096-entry
    /// ring for every sampled packet once it filled.
    entries: VecDeque<LogEntry>,
    /// Ring entries appended since the last `clear_dirty` (saturates at the
    /// ring capacity: older appends have been evicted again).
    appended_since_clear: usize,
    capacity: usize,
    sample_every: u64,
    observed: u64,
    logged: u64,
}

impl Logger {
    /// Creates a logger with a ring of `capacity` entries that logs one
    /// packet out of every `sample_every` (values of 0 are treated as 1).
    pub fn new(capacity: usize, sample_every: u64) -> Self {
        Logger {
            entries: VecDeque::with_capacity(capacity.clamp(1, 4096)),
            appended_since_clear: 0,
            capacity: capacity.max(1),
            sample_every: sample_every.max(1),
            observed: 0,
            logged: 0,
        }
    }

    /// The logger used by the evaluation scenarios: a 4096-entry ring that
    /// samples one packet in four (matching the Figure 1 scenario's
    /// `load_factor = 0.25`).
    pub fn evaluation_default() -> Self {
        Logger::new(4096, 4)
    }

    /// Number of packets observed (logged or not).
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// Number of packets actually logged.
    pub fn logged(&self) -> u64 {
        self.logged
    }

    /// The current ring contents, oldest first.
    pub fn entries(&self) -> &VecDeque<LogEntry> {
        &self.entries
    }

    /// The sampling period (1 = log everything).
    pub fn sample_every(&self) -> u64 {
        self.sample_every
    }
}

impl NetworkFunction for Logger {
    fn kind(&self) -> NfKind {
        NfKind::Logger
    }

    fn process(&mut self, packet: &mut Packet, ctx: &NfContext) -> NfVerdict {
        self.observed += 1;
        if self.observed % self.sample_every != 0 {
            return NfVerdict::Forward;
        }
        if self.entries.len() >= self.capacity {
            self.entries.pop_front();
        }
        self.entries.push_back(LogEntry {
            timestamp_nanos: ctx.now.as_nanos(),
            flow: packet.flow_id().raw(),
            size: packet.size().as_bytes(),
            tuple: packet.five_tuple(),
        });
        self.appended_since_clear = (self.appended_since_clear + 1).min(self.capacity);
        self.logged += 1;
        NfVerdict::Forward
    }

    fn export_state(&self) -> NfState {
        let state = LoggerState {
            entries: self.entries.iter().copied().collect(),
            observed: self.observed,
            logged: self.logged,
            sample_every: self.sample_every,
        };
        NfState::encode(NfKind::Logger, &state)
    }

    fn import_state(&mut self, state: NfState) -> Result<()> {
        let decoded: LoggerState = state.decode(NfKind::Logger)?;
        self.entries = VecDeque::from(decoded.entries);
        if self.entries.len() > self.capacity {
            let excess = self.entries.len() - self.capacity;
            self.entries.drain(..excess);
        }
        self.observed = decoded.observed;
        self.logged = decoded.logged;
        self.sample_every = decoded.sample_every.max(1);
        self.appended_since_clear = 0;
        Ok(())
    }

    fn flow_count(&self) -> usize {
        self.entries.len()
    }

    fn clear_dirty(&mut self) {
        self.appended_since_clear = 0;
    }

    fn dirty_flow_count(&self) -> usize {
        self.appended_since_clear.min(self.entries.len())
    }

    fn export_dirty_state(&self) -> NfState {
        // Entries appended since the last clear are exactly the ring's tail.
        let tail = self.dirty_flow_count();
        let delta = LoggerDelta {
            appended: self
                .entries
                .iter()
                .skip(self.entries.len() - tail)
                .copied()
                .collect(),
            observed: self.observed,
            logged: self.logged,
            sample_every: self.sample_every,
        };
        NfState::encode(NfKind::Logger, &delta)
    }

    fn import_dirty_state(&mut self, state: NfState) -> Result<()> {
        let delta: LoggerDelta = state.decode(NfKind::Logger)?;
        self.entries.extend(delta.appended);
        if self.entries.len() > self.capacity {
            let excess = self.entries.len() - self.capacity;
            self.entries.drain(..excess);
        }
        self.observed = delta.observed;
        self.logged = delta.logged;
        self.sample_every = delta.sample_every.max(1);
        Ok(())
    }

    fn reset(&mut self) {
        self.entries.clear();
        self.appended_since_clear = 0;
        self.observed = 0;
        self.logged = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pam_types::SimTime;
    use pam_wire::{PacketBuilder, TransportKind};
    use std::net::Ipv4Addr;

    fn packet(n: u64) -> Packet {
        let bytes = PacketBuilder::new()
            .ips(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 9, 9, 9))
            .ports(5000 + n as u16, 443)
            .transport(TransportKind::Tcp)
            .total_len(100)
            .build();
        Packet::from_bytes(n, bytes, SimTime::from_micros(n))
    }

    #[test]
    fn samples_one_in_n() {
        let mut logger = Logger::new(1000, 4);
        for i in 0..100 {
            let verdict = logger.process(&mut packet(i), &NfContext::at(SimTime::from_micros(i)));
            assert_eq!(verdict, NfVerdict::Forward);
        }
        assert_eq!(logger.observed(), 100);
        assert_eq!(logger.logged(), 25);
        assert_eq!(logger.entries().len(), 25);
        assert_eq!(logger.sample_every(), 4);
    }

    #[test]
    fn sample_every_one_logs_everything() {
        let mut logger = Logger::new(1000, 1);
        for i in 0..10 {
            logger.process(&mut packet(i), &NfContext::at(SimTime::ZERO));
        }
        assert_eq!(logger.logged(), 10);
        // Zero is clamped to one.
        assert_eq!(Logger::new(10, 0).sample_every(), 1);
    }

    #[test]
    fn ring_buffer_keeps_newest_entries() {
        let mut logger = Logger::new(5, 1);
        for i in 0..20 {
            logger.process(&mut packet(i), &NfContext::at(SimTime::from_micros(i)));
        }
        assert_eq!(logger.entries().len(), 5);
        // Oldest remaining entry is from packet 15.
        assert_eq!(logger.entries()[0].timestamp_nanos, 15_000);
        assert_eq!(logger.entries()[4].timestamp_nanos, 19_000);
        assert_eq!(logger.logged(), 20);
    }

    #[test]
    fn log_entries_describe_the_packet() {
        let mut logger = Logger::new(10, 1);
        logger.process(&mut packet(3), &NfContext::at(SimTime::from_micros(7)));
        let entry = &logger.entries()[0];
        assert_eq!(entry.size, 100);
        assert!(entry.summary().contains("TCP"));
        assert!(entry.summary().contains("10.0.0.1"));
        assert_eq!(entry.timestamp_nanos, 7_000);
    }

    #[test]
    fn non_ip_packets_are_still_loggable() {
        let mut logger = Logger::new(10, 1);
        let mut junk = Packet::from_bytes(1, vec![0u8; 33], SimTime::ZERO);
        logger.process(&mut junk, &NfContext::at(SimTime::ZERO));
        assert!(logger.entries()[0].summary().contains("non-ip"));
        assert_eq!(logger.entries()[0].tuple, None);
    }

    /// Exported JSON captured from records that stored the formatted summary
    /// string: these bytes size the Logger's state transfer, so typed
    /// records must reproduce them exactly.
    const FULL_BEFORE: &str = r#"{"entries":[{"timestamp_nanos":1000,"flow":12741182689276118978,"size":100,"summary":"TCP 10.0.0.1:5000 -> 10.9.9.9:443"},{"timestamp_nanos":2000,"flow":17765803333420054092,"size":64,"summary":"UDP 192.168.1.7:53000 -> 8.8.8.8:53"},{"timestamp_nanos":3000,"flow":7878349077260470309,"size":33,"summary":"non-ip frame of 33 bytes"}],"observed":3,"logged":3,"sample_every":1}"#;
    const DIRTY: &str = r#"{"appended":[{"timestamp_nanos":4000,"flow":17765803333420054092,"size":64,"summary":"UDP 192.168.1.7:53000 -> 8.8.8.8:53"},{"timestamp_nanos":5000,"flow":12741182689276118978,"size":100,"summary":"TCP 10.0.0.1:5000 -> 10.9.9.9:443"}],"observed":5,"logged":5,"sample_every":1}"#;
    const FULL_AFTER: &str = r#"{"entries":[{"timestamp_nanos":2000,"flow":17765803333420054092,"size":64,"summary":"UDP 192.168.1.7:53000 -> 8.8.8.8:53"},{"timestamp_nanos":3000,"flow":7878349077260470309,"size":33,"summary":"non-ip frame of 33 bytes"},{"timestamp_nanos":4000,"flow":17765803333420054092,"size":64,"summary":"UDP 192.168.1.7:53000 -> 8.8.8.8:53"},{"timestamp_nanos":5000,"flow":12741182689276118978,"size":100,"summary":"TCP 10.0.0.1:5000 -> 10.9.9.9:443"}],"observed":5,"logged":5,"sample_every":1}"#;

    fn json(state: &NfState) -> String {
        serde_json::to_string(&state.data).unwrap()
    }

    #[test]
    fn exported_json_is_byte_identical_to_the_string_record_format() {
        let tcp = packet(0);
        let udp = PacketBuilder::new()
            .ips(Ipv4Addr::new(192, 168, 1, 7), Ipv4Addr::new(8, 8, 8, 8))
            .ports(53000, 53)
            .transport(TransportKind::Udp)
            .total_len(64)
            .build();
        let mut udp = Packet::from_bytes(2, udp, SimTime::ZERO);
        let mut tcp = Packet::from_bytes(1, tcp.bytes().to_vec(), SimTime::ZERO);
        let mut junk = Packet::from_bytes(3, vec![0u8; 33], SimTime::ZERO);

        let mut logger = Logger::new(4, 1);
        logger.process(&mut tcp, &NfContext::at(SimTime::from_micros(1)));
        logger.process(&mut udp, &NfContext::at(SimTime::from_micros(2)));
        logger.process(&mut junk, &NfContext::at(SimTime::from_micros(3)));
        let full = logger.export_state();
        assert_eq!(json(&full), FULL_BEFORE);
        assert_eq!(full.estimated_size.as_bytes(), 224);

        logger.clear_dirty();
        logger.process(&mut udp, &NfContext::at(SimTime::from_micros(4)));
        logger.process(&mut tcp, &NfContext::at(SimTime::from_micros(5)));
        let dirty = logger.export_dirty_state();
        assert_eq!(json(&dirty), DIRTY);
        assert_eq!(dirty.estimated_size.as_bytes(), 165);
        let full = logger.export_state();
        assert_eq!(json(&full), FULL_AFTER);
        assert_eq!(full.estimated_size.as_bytes(), 291);

        // Import -> export round trips, full and dirty, reproduce the bytes.
        let mut target = Logger::new(4, 1);
        target
            .import_state(NfState::encode(
                NfKind::Logger,
                &serde_json::from_str::<serde_json::Value>(FULL_BEFORE).unwrap(),
            ))
            .unwrap();
        assert_eq!(json(&target.export_state()), FULL_BEFORE);
        target.import_dirty_state(dirty).unwrap();
        assert_eq!(json(&target.export_state()), FULL_AFTER);
        assert_eq!(target.entries(), logger.entries());
    }

    #[test]
    fn summaries_this_format_never_prints_are_rejected_on_import() {
        let state = |summary: &str, size: u64| {
            let entry = format!(
                r#"{{"entries":[{{"timestamp_nanos":1,"flow":2,"size":{size},"summary":"{summary}"}}],"observed":1,"logged":1,"sample_every":1}}"#
            );
            NfState::encode(
                NfKind::Logger,
                &serde_json::from_str::<serde_json::Value>(&entry).unwrap(),
            )
        };
        let mut logger = Logger::new(4, 1);
        logger
            .import_state(state("non-ip frame of 33 bytes", 33))
            .unwrap();
        logger
            .import_state(state("UDP 1.2.3.4:5 -> 6.7.8.9:10", 64))
            .unwrap();
        for (summary, size) in [
            ("non-ip frame of 33 bytes", 34),
            ("non-ip frame of 033 bytes", 33),
            ("a packet", 64),
            ("UDP 1.2.3.4:05 -> 6.7.8.9:10", 64),
        ] {
            assert!(
                logger.import_state(state(summary, size)).is_err(),
                "{summary}"
            );
        }
    }

    #[test]
    fn state_round_trip_and_capacity_clamp() {
        let mut source = Logger::new(100, 2);
        for i in 0..50 {
            source.process(&mut packet(i), &NfContext::at(SimTime::from_micros(i)));
        }
        let state = source.export_state();

        // Import into a logger with a smaller ring: the oldest entries are dropped.
        let mut small = Logger::new(10, 1);
        small.import_state(state.clone()).unwrap();
        assert_eq!(small.entries().len(), 10);
        assert_eq!(small.observed(), 50);
        assert_eq!(small.logged(), 25);
        assert_eq!(small.sample_every(), 2);

        // Import into an equal-sized logger preserves everything.
        let mut same = Logger::new(100, 1);
        same.import_state(state).unwrap();
        assert_eq!(same.entries().len(), 25);
    }

    #[test]
    fn logger_state_is_much_smaller_than_monitor_state() {
        use crate::monitor::FlowMonitor;
        use crate::nf::NetworkFunction as _;

        let mut logger = Logger::evaluation_default();
        let mut monitor = FlowMonitor::evaluation_default();
        for i in 0..2000 {
            let mut p = packet(i);
            logger.process(&mut p, &NfContext::at(SimTime::ZERO));
            monitor.process(&mut p, &NfContext::at(SimTime::ZERO));
        }
        let logger_size = logger.export_state().estimated_size;
        let monitor_size = monitor.export_state().estimated_size;
        assert!(
            monitor_size.as_bytes() > logger_size.as_bytes(),
            "monitor state ({monitor_size}) should exceed logger state ({logger_size})"
        );
    }

    #[test]
    fn reset_and_wrong_kind_import() {
        let mut logger = Logger::new(10, 1);
        logger.process(&mut packet(1), &NfContext::at(SimTime::ZERO));
        logger.reset();
        assert_eq!(logger.observed(), 0);
        assert!(logger.entries().is_empty());
        assert!(logger
            .import_state(NfState::empty(NfKind::Monitor))
            .is_err());
        assert_eq!(logger.kind(), NfKind::Logger);
    }
}
