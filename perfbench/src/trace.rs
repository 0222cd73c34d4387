//! Spans recorded by the benchmark around every layer call it makes.
//!
//! Each client thread owns a [`Tracer`]: no sharing, no locks. A span has
//! a name (`<layer>.<call>`), a start, an end and the span that was open
//! when it began (its parent). Aggregates (count, total and self time per
//! name) cover every span; the raw spans are kept in memory up to a cap
//! per thread and written out as JSON lines when the run ends.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::util::nanos_since;

/// Raw spans kept per thread and window; aggregates keep counting past it.
const RAW_SPAN_CAP: usize = 5_000;

/// One recorded span. Times are nanoseconds since the run's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the same thread's list.
    pub parent: Option<u32>,
}

/// Totals for one span name. `self_ns` is the duration not covered by
/// child spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Agg {
    /// Mean span duration in nanoseconds (`NaN` without spans).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

#[derive(Debug)]
struct Open {
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
    index: Option<u32>,
}

/// A per-thread span recorder; every method is a no-op when disabled,
/// so untraced runs pay one predictable branch per call site.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<Open>,
    aggs: Vec<(&'static str, Agg)>,
}

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Self {
            enabled,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            aggs: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span named `name` as a child of the innermost open span.
    #[inline]
    pub fn begin(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start_ns = nanos_since(self.epoch);
        let parent = self.stack.last().and_then(|o| o.index);
        let index = (self.spans.len() < RAW_SPAN_CAP).then(|| {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
            });
            (self.spans.len() - 1) as u32
        });
        self.stack.push(Open {
            name,
            start_ns,
            child_ns: 0,
            index,
        });
    }

    /// Closes the innermost open span.
    #[inline]
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = nanos_since(self.epoch);
        let open = self.stack.pop().expect("end() without a matching begin()");
        let dur = end_ns.saturating_sub(open.start_ns);
        if let Some(i) = open.index {
            self.spans[i as usize].end_ns = end_ns;
        }
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        let agg = self.agg_mut(open.name);
        agg.count += 1;
        agg.total_ns += dur;
        agg.self_ns += dur.saturating_sub(open.child_ns);
    }

    fn agg_mut(&mut self, name: &'static str) -> &mut Agg {
        let pos = match self.aggs.iter().position(|(n, _)| *n == name) {
            Some(p) => p,
            None => {
                self.aggs.push((name, Agg::default()));
                self.aggs.len() - 1
            }
        };
        &mut self.aggs[pos].1
    }

    /// Totals for `name` (all zero if no such span was recorded).
    pub fn agg(&self, name: &str) -> Agg {
        self.aggs
            .iter()
            .find(|(n, _)| *n == name)
            .map_or_else(Agg::default, |(_, a)| *a)
    }

    /// Self time summed over every span of `layer` (the name prefix
    /// before the first dot).
    pub fn layer_self_ns(&self, layer: &str) -> u64 {
        self.aggs
            .iter()
            .filter(|(n, _)| n.split('.').next() == Some(layer))
            .map(|(_, a)| a.self_ns)
            .sum()
    }

    /// Folds another thread's tracer into this one; its raw spans are
    /// appended as a separate thread list.
    pub fn absorb(&mut self, other: Tracer, threads: &mut Vec<Vec<Span>>) {
        for (name, a) in &other.aggs {
            let mine = self.agg_mut(name);
            mine.count += a.count;
            mine.total_ns += a.total_ns;
            mine.self_ns += a.self_ns;
        }
        threads.push(other.spans);
    }
}

/// Writes the raw spans as JSON lines (`run`, `thread`, `name`,
/// `start_ns`, `end_ns`, `parent`), one span per line, creating the
/// parent directory. Each thread's spans are labelled with its run.
pub fn write_spans(path: &Path, threads: &[(&str, Vec<Span>)]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (t, (label, spans)) in threads.iter().enumerate() {
        for s in spans {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"run\":\"{label}\",\"thread\":{t},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_parents_link() {
        let mut t = Tracer::new(true, Instant::now());
        t.begin("driver.block");
        t.begin("core.x");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end();
        t.end();
        let block = t.agg("driver.block");
        let child = t.agg("core.x");
        assert_eq!((block.count, child.count), (1, 1));
        assert!(block.total_ns >= child.total_ns);
        assert_eq!(block.self_ns, block.total_ns - child.total_ns);
        assert_eq!(t.layer_self_ns("core"), child.self_ns);
        assert_eq!(t.spans[1].parent, Some(0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        t.begin("core.x");
        t.end();
        assert_eq!(t.agg("core.x").count, 0);
        assert!(t.spans.is_empty());
    }
}
