//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around each call it
//! makes into a layer's public functions: name, start, end, parent and op
//! id. They stay in memory until the run ends and are then written out as
//! one JSON document.

use std::time::Instant;

/// One closed span. Times are host nanoseconds since the recorder started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name of the call, e.g. `trainsim.coarse_profiled`.
    pub name: &'static str,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch (`0` while open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op this span belongs to.
    pub op: u64,
}

impl Span {
    /// Duration in host nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans; the open stack supplies each new span's parent.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }
}

impl Tracer {
    /// Sets the op id stamped on spans opened from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Runs `f` inside a span called `name`; returns its result and the
    /// span's duration in host nanoseconds.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end;
        (out, span.duration_ns() as f64)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Every span recorded so far, in opening order.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// For each root span called `name`, the share of its duration covered
    /// by its direct children.
    pub fn coverage(&self, name: &str) -> Vec<f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parent.is_none() && s.name == name && s.duration_ns() > 0)
            .map(|(i, s)| child_ns[i] as f64 / s.duration_ns() as f64)
            .collect()
    }

    /// The spans as a JSON array (one object per span).
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{}}}",
                    s.name, s.start_ns, s.end_ns, parent, s.op
                )
            })
            .collect();
        format!("[{}]", rows.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_coverage_counts_direct_children_only() {
        let mut t = Tracer::default();
        t.set_op(3);
        let ((), _) = t.span("op", |t| {
            t.span("child", |t| {
                t.span("grandchild", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert!(spans.iter().all(|s| s.op == 3 && s.end_ns >= s.start_ns));
        let cov = t.coverage("op");
        assert_eq!(cov.len(), 1);
        assert!(cov[0] > 0.5 && cov[0] <= 1.0, "{cov:?}");
        assert!(t.to_json().starts_with("[{\"name\":\"op\""));
    }
}
