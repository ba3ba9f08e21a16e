//! The traced run's span recorder. Spans are taken in the benchmark's
//! own code around each call it makes into a layer (name, start, end,
//! parent and the id of the operation they belong to), kept in memory,
//! and written out as JSON when the run ends. Nothing inside the program
//! is instrumented.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::util::{median, Res};

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub op: u64,
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
}

pub struct Spans {
    t0: Instant,
    next_id: AtomicU64,
    next_op: AtomicU64,
    rows: Mutex<Vec<Span>>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            t0: Instant::now(),
            next_id: AtomicU64::new(1),
            next_op: AtomicU64::new(1),
            rows: Mutex::new(Vec::new()),
        }
    }
}

/// Where a span hangs: the operation it belongs to and its parent span.
#[derive(Clone, Copy, Debug)]
pub struct Ctx {
    pub op: u64,
    pub parent: Option<u64>,
}

impl Spans {
    /// A fresh operation id, the root context for its spans.
    pub fn op(&self) -> Ctx {
        Ctx {
            op: self.next_op.fetch_add(1, Ordering::Relaxed),
            parent: None,
        }
    }

    /// Runs `f` inside a span named `name`; `f` receives the context its
    /// own child spans should use. Returns `f`'s result and the span's
    /// duration in seconds.
    pub fn time<T>(&self, ctx: Ctx, name: &str, f: impl FnOnce(Ctx) -> T) -> (T, f64) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let out = f(Ctx {
            op: ctx.op,
            parent: Some(id),
        });
        let end = Instant::now();
        let span = Span {
            id,
            parent: ctx.parent,
            op: ctx.op,
            name: name.to_string(),
            start_us: start.duration_since(self.t0).as_secs_f64() * 1e6,
            end_us: end.duration_since(self.t0).as_secs_f64() * 1e6,
        };
        self.rows.lock().expect("span recorder poisoned").push(span);
        (out, (end - start).as_secs_f64())
    }

    /// Median seconds of `n` calls of `f`, each in a span named `name`
    /// of an operation of its own.
    pub fn median_of(&self, n: usize, name: &str, mut f: impl FnMut(Ctx) -> Res<()>) -> Res<f64> {
        let mut secs = Vec::new();
        for _ in 0..n {
            let (r, s) = self.time(self.op(), name, &mut f);
            r?;
            secs.push(s);
        }
        Ok(median(&secs))
    }

    pub fn snapshot(&self) -> Vec<Span> {
        self.rows.lock().expect("span recorder poisoned").clone()
    }

    /// Writes every span as one JSON array.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut s = String::from("[\n");
        for (i, sp) in self.snapshot().iter().enumerate() {
            if i > 0 {
                s.push_str(",\n");
            }
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "{{\"id\":{},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\
                 \"start_us\":{:.1},\"end_us\":{:.1}}}",
                sp.id, sp.op, sp.name, sp.start_us, sp.end_us
            );
        }
        s.push_str("\n]\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents() {
        let spans = Spans::default();
        let op = spans.op();
        let ((), outer) = spans.time(op, "outer", |ctx| {
            spans.time(ctx, "inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let rows = spans.snapshot();
        assert_eq!(rows.len(), 2);
        let outer_row = rows.iter().find(|s| s.name == "outer").unwrap();
        let inner_row = rows.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner_row.parent, Some(outer_row.id));
        assert_eq!(inner_row.op, outer_row.op);
        assert!(outer >= 0.005);
    }
}
