//! The benchmark's own span recorder: spans around the calls it makes
//! into each layer, kept in memory and written out when the run ends.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

pub struct Span {
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_us - self.start_us) * 1e-6
    }
}

/// An open span; hand it back to [`Tracer::end`].
pub struct Open(Option<usize>);

/// Records nothing when disabled, so the untraced pass pays one branch.
pub struct Tracer {
    enabled: bool,
    run_id: u64,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool, run_id: u64, origin: Instant) -> Self {
        Tracer { enabled, run_id, origin, spans: Vec::new(), stack: Vec::new() }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    pub fn begin(&mut self, name: &str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_us: self.now_us(),
            end_us: f64::NAN,
            parent: self.stack.last().copied(),
        });
        self.stack.push(index);
        Open(Some(index))
    }

    pub fn end(&mut self, open: Open) {
        let Some(index) = open.0 else { return };
        let popped = self.stack.pop();
        assert_eq!(popped, Some(index), "spans must close innermost first");
        self.spans[index].end_us = self.now_us();
    }

    /// Runs `f` inside a span.
    pub fn scoped<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of every closed span whose name starts with
    /// `prefix`.
    pub fn durations(&self, prefix: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name.starts_with(prefix) && s.end_us.is_finite())
            .map(Span::secs)
            .collect()
    }

    /// Writes `{"run_id": .., "spans": [{name, start_us, end_us, parent}]}`.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut out = format!("{{\"run_id\": {}, \"spans\": [\n", self.run_id);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {i}, \"name\": {}, \"start_us\": {:.1}, \"end_us\": {:.1}, \
                 \"parent\": {parent}, \"run_id\": {}}}",
                crate::report::json_string(&s.name),
                s.start_us,
                s.end_us,
                self.run_id
            );
            out.push_str(if i + 1 == self.spans.len() { "\n" } else { ",\n" });
        }
        out.push_str("]}\n");
        std::fs::write(path, out)
    }
}
