//! In-memory span recording for the traced pass.
//!
//! Spans are recorded around calls into the program's public functions,
//! from this crate only; nothing inside the program is instrumented. They
//! stay in memory and are written out when the run ends.

use std::time::Instant;

/// One timed call: a layer name, the item or serve it belongs to, and its
/// start and end in microseconds since the tracer started.
pub struct Span {
    pub name: String,
    pub owner: u64,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1000.0
    }
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name` owned by item or serve `owner`,
    /// returning its result and the span's duration in milliseconds.
    pub fn span<T>(&mut self, name: &str, owner: u64, f: impl FnOnce() -> T) -> (T, f64) {
        let start = self.origin.elapsed();
        let out = std::hint::black_box(f());
        let end = self.origin.elapsed();
        let span = Span {
            name: name.to_string(),
            owner,
            start_us: start.as_secs_f64() * 1e6,
            end_us: end.as_secs_f64() * 1e6,
        };
        let ms = span.ms();
        self.spans.push(span);
        (out, ms)
    }
}
