//! The traced run's two span sources.
//!
//! - [`ObsCapture`] installs a process-global obs sink for the spans the
//!   program already emits (design stages, serve request/parse, store
//!   append, simulate) and derives self times from them with the folded
//!   exporter of `fsmgen_obs::trace`.
//! - [`Recorder`] keeps the benchmark's own spans around each layer call
//!   (name, start, end, parent, and a request id for serve traffic) in
//!   memory and writes them out as JSON lines when the run ends.

use fsmgen_obs::trace::export_folded;
use fsmgen_obs::{ExportOptions, JsonlObsSink, ObsSink};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Per-span-name totals from a folded export.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans of this name that closed.
    pub count: u64,
    /// Their summed self time (wall minus child spans), in µs.
    pub self_us: u64,
    /// Their summed wall time, children included, in µs.
    pub wall_us: u64,
}

impl SpanTotals {
    /// Mean self time per span, in ms (0 when none closed).
    #[must_use]
    pub fn mean_self_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_us as f64 / self.count as f64 / 1e3
        }
    }
}

/// Sums folded `root;child;leaf self_us` lines by span name.
#[must_use]
pub fn fold_totals(folded: &str) -> BTreeMap<String, SpanTotals> {
    let mut totals: BTreeMap<String, SpanTotals> = BTreeMap::new();
    for line in folded.lines() {
        let Some((stack, self_us)) = line.rsplit_once(' ') else {
            continue;
        };
        let Ok(self_us) = self_us.parse::<u64>() else {
            continue;
        };
        let names: Vec<&str> = stack.split(';').collect();
        if let Some(leaf) = names.last() {
            let t = totals.entry((*leaf).to_string()).or_default();
            t.count += 1;
            t.self_us += self_us;
        }
        for (i, name) in names.iter().enumerate() {
            // A name recurring in one stack counts its subtree once.
            if !names[..i].contains(name) {
                totals.entry((*name).to_string()).or_default().wall_us += self_us;
            }
        }
    }
    totals
}

/// The obs stream of one traced phase, captured in memory.
pub struct ObsCapture {
    sink: Arc<JsonlObsSink<Vec<u8>>>,
}

impl ObsCapture {
    /// Installs a process-global stamped JSONL sink (farm workers and
    /// server threads report to it too), like
    /// `experiments::profiling::with_trace_jsonl` does for a file.
    #[must_use]
    pub fn install() -> ObsCapture {
        let sink = Arc::new(JsonlObsSink::new(Vec::new()));
        fsmgen_obs::install_global(Arc::clone(&sink) as Arc<dyn ObsSink>);
        ObsCapture { sink }
    }

    /// Uninstalls the sink; later events are not captured.
    #[must_use]
    pub fn stop(self) -> ObsCapture {
        fsmgen_obs::clear_global();
        self
    }

    /// Uninstalls the sink and folds what it saw into per-name totals.
    ///
    /// # Panics
    ///
    /// Panics if another owner of the sink is still alive (every thread
    /// that reported to it must have finished).
    #[must_use]
    pub fn finish(self) -> BTreeMap<String, SpanTotals> {
        fsmgen_obs::clear_global();
        let sink = Arc::try_unwrap(self.sink)
            .unwrap_or_else(|_| panic!("obs sink still shared after clear_global"));
        let jsonl = sink.into_inner();
        let mut folded = Vec::new();
        export_folded(
            &mut jsonl.as_slice(),
            &mut folded,
            &ExportOptions::default(),
        )
        .expect("exporting an in-memory trace cannot fail");
        fold_totals(&String::from_utf8_lossy(&folded))
    }
}

/// One benchmark-side span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Layer call, e.g. `farm.design_batch`.
    pub name: &'static str,
    /// Start, in ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, in ns since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span on the same thread.
    pub parent: Option<usize>,
    /// The request a serve span belongs to.
    pub request: Option<u64>,
}

thread_local! {
    /// Open recorder spans on this thread, innermost last.
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// In-memory recorder for the benchmark's own spans. A disabled recorder
/// takes no timestamps and stores nothing.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<SpanRecord>>,
}

/// Closes its span on drop.
pub struct SpanGuard<'a> {
    recorder: &'a Recorder,
    index: Option<usize>,
}

impl Recorder {
    /// A recorder that records only when `enabled`.
    #[must_use]
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<SpanRecord>> {
        self.spans.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span around a layer call on this thread.
    #[must_use]
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard {
                recorder: self,
                index: None,
            };
        }
        let parent = OPEN.with(|open| open.borrow().last().copied());
        let start_ns = self.ns(Instant::now());
        let index = {
            let mut spans = self.lock();
            spans.push(SpanRecord {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                request: None,
            });
            spans.len() - 1
        };
        OPEN.with(|open| open.borrow_mut().push(index));
        SpanGuard {
            recorder: self,
            index: Some(index),
        }
    }

    /// Records a finished span measured elsewhere (e.g. a request's
    /// timeline reconstructed from generator samples).
    pub fn record(&self, name: &'static str, start: Instant, end: Instant, request: Option<u64>) {
        if self.enabled {
            let record = SpanRecord {
                name,
                start_ns: self.ns(start),
                end_ns: self.ns(end),
                parent: None,
                request,
            };
            self.lock().push(record);
        }
    }

    /// A copy of everything recorded so far.
    #[cfg(test)]
    fn spans(&self) -> Vec<SpanRecord> {
        self.lock().clone()
    }

    /// Writes every span as one JSON line.
    ///
    /// # Errors
    ///
    /// File creation or write failures.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.lock().iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or_else(|| "null".to_string(), |v| v.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {}, \"request\": {}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.request)
            )?;
        }
        out.flush()
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(index) = self.index {
            let end_ns = self.recorder.ns(Instant::now());
            if let Some(span) = self.recorder.lock().get_mut(index) {
                span.end_ns = end_ns;
            }
            OPEN.with(|open| {
                let mut open = open.borrow_mut();
                if let Some(pos) = open.iter().rposition(|&i| i == index) {
                    open.remove(pos);
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn folded_lines_sum_self_and_wall_time() {
        let folded =
            "design;markov 10\ndesign;minimize 30\ndesign 5\nserve;serve_request;serve_parse 2\n\
                      serve;serve_request 3\n";
        let t = fold_totals(folded);
        assert_eq!(
            t["markov"],
            SpanTotals {
                count: 1,
                self_us: 10,
                wall_us: 10
            }
        );
        assert_eq!(t["design"].count, 1);
        assert_eq!(t["design"].self_us, 5);
        assert_eq!(t["design"].wall_us, 45);
        assert_eq!(t["serve_request"].wall_us, 5);
        assert_eq!(t["serve_request"].self_us, 3);
        assert!((t["minimize"].mean_self_ms() - 0.03).abs() < 1e-12);
    }

    #[test]
    fn obs_capture_sees_spans_from_other_threads() {
        let capture = ObsCapture::install();
        std::thread::spawn(|| {
            let _root = fsmgen_obs::span("design");
            let _stage = fsmgen_obs::span("minimize");
            std::thread::sleep(std::time::Duration::from_millis(2));
        })
        .join()
        .unwrap();
        let totals = capture.finish();
        assert_eq!(totals["minimize"].count, 1);
        assert!(totals["minimize"].self_us >= 2000);
        assert!(totals["design"].wall_us >= totals["minimize"].wall_us);
    }

    #[test]
    fn recorder_tracks_parents_and_skips_work_when_disabled() {
        let rec = Recorder::new(true);
        {
            let _outer = rec.span("outer");
            let _inner = rec.span("inner");
        }
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        assert!(spans[0].end_ns >= spans[1].end_ns);

        let off = Recorder::new(false);
        drop(off.span("outer"));
        off.record("x", Instant::now(), Instant::now(), Some(1));
        assert!(off.spans().is_empty());
    }
}
