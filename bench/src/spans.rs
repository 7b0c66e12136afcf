//! Spans recorded from the benchmark's own files, around the calls into each
//! layer. Kept in memory, written as JSON lines when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval. `parent` is the index of the span that caused it;
/// spans of one cell share `run_id`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What ran: `setup`, `run`, `fleet.window`, `replay.traffic.synth`, ...
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// The cell (operation) the span belongs to.
    pub run_id: u32,
    /// Exact counts taken at the same boundary, as `(name, value)`.
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans against one monotonic clock.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    run_id: u32,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run_id: 0,
        }
    }
}

impl Recorder {
    /// Sets the cell id given to spans opened from now on.
    pub fn set_run(&mut self, run_id: u32) {
        self.run_id = run_id;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> u32 {
        let index = self.spans.len() as u32;
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            run_id: self.run_id,
            counts: Vec::new(),
        });
        self.open.push(index);
        index
    }

    /// Closes the innermost open span; returns its duration in nanoseconds.
    pub fn end(&mut self) -> u64 {
        let end_ns = self.now_ns();
        let Some(index) = self.open.pop() else {
            return 0;
        };
        let span = &mut self.spans[index as usize];
        span.end_ns = end_ns;
        span.duration_ns()
    }

    /// Attaches `counts` to the closed span `index`.
    pub fn annotate(&mut self, index: u32, counts: Vec<(&'static str, u64)>) {
        if let Some(span) = self.spans.get_mut(index as usize) {
            span.counts = counts;
        }
    }

    /// Times `work` as one span.
    pub fn time<T>(&mut self, name: &'static str, work: impl FnOnce() -> T) -> (T, u64) {
        self.begin(name);
        let out = work();
        (out, self.end())
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Each span's self time: its duration minus the part its children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            let slot = &mut own[parent as usize];
            *slot = slot.saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Total duration of the spans called `name`, in seconds.
pub fn total_s(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e9)
        .sum()
}

/// One JSON object per span per line:
/// `{"id":3,"name":"fleet.window","start_ns":..,"end_ns":..,"self_ns":..,"parent":2,"run_id":0,"counts":{"events":812}}`.
pub fn to_jsonl(spans: &[Span]) -> String {
    let own = self_times(spans);
    let mut out = String::new();
    for (id, span) in spans.iter().enumerate() {
        let parent = span
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"parent\":{parent},\"run_id\":{},\"counts\":{{",
            span.name, span.start_ns, span.end_ns, own[id], span.run_id
        );
        for (i, (name, value)) in span.counts.iter().enumerate() {
            let comma = if i == 0 { "" } else { "," };
            let _ = write!(out, "{comma}\"{name}\":{value}");
        }
        out.push_str("}}\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            run_id: 0,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let spans = vec![
            span("run", 0, 100, None),
            span("fleet.window", 10, 40, Some(0)),
            span("fleet.window", 40, 90, Some(0)),
            span("inner", 50, 60, Some(2)),
            span("report", 100, 130, None),
        ];
        assert_eq!(self_times(&spans), vec![20, 30, 40, 10, 30]);
        assert_eq!(total_s(&spans, "fleet.window"), 80e-9);
    }

    #[test]
    fn recorder_nests_spans_under_the_innermost_open_one() {
        let mut recorder = Recorder::default();
        recorder.set_run(7);
        recorder.begin("run");
        let window = recorder.begin("fleet.window");
        recorder.end();
        recorder.annotate(window, vec![("events", 3)]);
        let ((), inner) = recorder.time("fleet.window", || ());
        let outer = recorder.end();
        assert!(outer >= inner);
        let spans = recorder.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[1].counts, vec![("events", 3)]);
        assert!(spans.iter().all(|s| s.run_id == 7));
        assert!(spans[1].end_ns <= spans[2].start_ns);
        // Closing with nothing open is harmless.
        assert_eq!(recorder.end(), 0);
    }

    #[test]
    fn jsonl_has_one_parseable_object_per_span() {
        let mut spans = vec![span("run", 0, 100, None), span("w", 10, 40, Some(0))];
        spans[1].counts = vec![("events", 5), ("pkts", 2)];
        let text = to_jsonl(&spans);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let second: serde_json::Value = serde_json::from_str(lines[1]).unwrap();
        let object = second.as_object().unwrap();
        assert_eq!(object.get("name").unwrap().as_str(), Some("w"));
        assert_eq!(object.get("self_ns").unwrap(), &serde_json::json!(30u64));
        assert_eq!(object.get("parent").unwrap(), &serde_json::json!(0u64));
        let first: serde_json::Value = serde_json::from_str(lines[0]).unwrap();
        assert_eq!(
            first.as_object().unwrap().get("parent").unwrap(),
            &serde_json::Value::Null
        );
    }
}
