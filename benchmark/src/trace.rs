//! Host-time spans of the traced pass. Spans are recorded from the
//! benchmark's side of each call into a layer (in-program spans are a
//! later change), kept in memory, and written as JSON lines when the
//! pass ends.

use crate::json::Value;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its tracer; children name their parent by it.
pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    step: Option<u64>,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
}

pub struct Tracer {
    workload: &'static str,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(workload: &'static str) -> Self {
        Tracer {
            workload,
            origin: Instant::now(),
            // A traced repeat opens one span per step; reserve so the
            // recording itself does not reallocate mid-measurement.
            spans: Vec::with_capacity(4096),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn open(
        &mut self,
        name: &'static str,
        step: Option<u64>,
        parent: Option<SpanId>,
    ) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            step,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.spans.len() - 1
    }

    /// Close a span; returns its duration in seconds.
    pub fn close(&mut self, id: SpanId) -> f64 {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        (end_ns - span.start_ns) as f64 * 1e-9
    }

    /// Run `f` under a span; returns its result and duration in seconds.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.open(name, None, parent);
        let r = f();
        (r, self.close(id))
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// One JSON object per line:
    /// `{id, name, workload, step, start_ns, end_ns, parent}`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let opt = |v: Option<u64>| v.map_or(Value::Null, |n| Value::Num(n as f64));
        for (id, s) in self.spans.iter().enumerate() {
            let line = Value::obj([
                ("id", Value::Num(id as f64)),
                ("name", Value::str(s.name)),
                ("workload", Value::str(self.workload)),
                ("step", opt(s.step)),
                ("start_ns", Value::Num(s.start_ns as f64)),
                ("end_ns", Value::Num(s.end_ns as f64)),
                ("parent", opt(s.parent.map(|p| p as u64))),
            ])
            .to_line();
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn spans_nest_and_serialize_one_per_line() {
        let mut t = Tracer::new("lj-strong");
        let root = t.open("run", None, None);
        let step = t.open("runtime.run_step", Some(3), Some(root));
        let dt = t.close(step);
        t.close(root);
        assert!(dt >= 0.0);
        // Under the benchmark's own ignored out/ directory, unique per
        // test process.
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-trace-{}", std::process::id()));
        let path = dir.join("t.jsonl");
        t.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let lines: Vec<_> = text.lines().map(|l| json::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[1].get("parent").and_then(json::Value::as_f64),
            Some(0.0)
        );
        assert_eq!(
            lines[1].get("step").and_then(json::Value::as_f64),
            Some(3.0)
        );
        assert_eq!(lines[0].get("parent"), Some(&json::Value::Null));
        let (s0, e0) = (
            lines[0].get("start_ns").unwrap().as_f64().unwrap(),
            lines[0].get("end_ns").unwrap().as_f64().unwrap(),
        );
        let (s1, e1) = (
            lines[1].get("start_ns").unwrap().as_f64().unwrap(),
            lines[1].get("end_ns").unwrap().as_f64().unwrap(),
        );
        assert!(s0 <= s1 && e1 <= e0, "child lies inside its parent");
    }
}
