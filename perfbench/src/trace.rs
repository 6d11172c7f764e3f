//! In-memory spans recorded around the benchmark's calls into each
//! layer's public entry point.
//!
//! A span has a name, start and end (ns since the tracer's origin), the
//! span that caused it, and the id of the request or operation it
//! belongs to. Spans nest on one thread, so a span's *self time* is its
//! duration minus the time its direct children cover. Spans stay in
//! memory until [`Tracer::write_tsv`] writes them out at the end of the
//! run. A tracer made by [`Tracer::off`] records nothing, so timing the
//! same code under both measures what the spans cost.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// No parent.
const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    request: u64,
}

/// Per-name totals over every closed span.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Spans closed under this name.
    pub count: u64,
    /// Summed span durations (ns).
    pub total_ns: u64,
    /// Summed self times (ns): duration minus direct children.
    pub self_ns: u64,
}

/// A single-threaded span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    recording: bool,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
            recording: true,
        }
    }
}

impl Tracer {
    /// A tracer that records no spans: [`Tracer::span`] only runs its
    /// closure.
    pub fn off() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            recording: false,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, request);
        let out = f();
        self.close(id);
        out
    }

    /// Opens a span whose children are recorded by nested calls;
    /// close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, request: u64) -> u32 {
        if !self.recording {
            return ROOT;
        }
        let parent = self.open.last().copied().unwrap_or(ROOT);
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn close(&mut self, id: u32) {
        if !self.recording {
            return;
        }
        let end = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = end;
    }

    /// Totals per span name, self time computed from direct children.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            let dur = s.end_ns - s.start_ns;
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(covered);
        }
        out
    }

    /// Writes every span as one tab-separated line:
    /// `id name request parent start_ns end_ns`.
    ///
    /// # Errors
    ///
    /// I/O errors creating or writing the file.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\trequest\tparent\tstart_ns\tend_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                out,
                "{id}\t{}\t{}\t{parent}\t{}\t{}",
                s.name, s.request, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_direct_children_only() {
        let mut t = Tracer::default();
        let outer = t.open("outer", 7);
        t.span("a", 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let b = t.open("b", 7);
        t.span("c", 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close(b);
        t.close(outer);
        let totals = t.totals();
        let outer = totals["outer"];
        let sum_children = totals["a"].total_ns + totals["b"].total_ns;
        assert_eq!(outer.self_ns, outer.total_ns - sum_children);
        assert_eq!(
            totals["b"].self_ns,
            totals["b"].total_ns - totals["c"].total_ns
        );
        let all_self: u64 = totals.values().map(|t| t.self_ns).sum();
        assert_eq!(all_self, outer.total_ns);
    }

    #[test]
    fn off_runs_closures_and_records_nothing() {
        let mut t = Tracer::off();
        let outer = t.open("outer", 1);
        assert_eq!(t.span("a", 1, || 41 + 1), 42);
        t.close(outer);
        assert!(t.totals().is_empty());
    }
}
