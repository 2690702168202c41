//! In-memory span recorder and the two decorators that time a layer from
//! outside: [`TimedStorage`] around any [`ChainStorage`] and [`TimedExecutor`]
//! around any [`BatchExecutor`]. (An engine only calls its executor for a
//! batch of at least two signatures per worker that its signature cache has
//! not seen — catch-up and cold connects, not the steady path, where admission
//! already verified and cached every transaction.)
//!
//! A span is one call across a layer boundary: name, start, end, the span that
//! was open on the same thread when it began (its parent) and the block or
//! transaction it concerned. Spans stay in memory for the whole run and are
//! written to `bench/out/trace-<workload>.json` at exit. A layer's *self time* is
//! its spans' duration minus what their child spans cover.

use ng_chain::sigcache::BatchExecutor;
use ng_chain::undo::BlockUndo;
use ng_core::block::NgBlock;
use ng_crypto::schnorr::BatchEntry;
use ng_crypto::sha256::Hash256;
use ng_storage::{ChainStorage, RollCommit, Snapshot, StoreError};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    /// `<layer>.<operation>`.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the span that was open on this thread when this one began.
    pub parent: Option<u32>,
    /// The block or transaction the call concerned.
    pub object: Option<Hash256>,
    /// Units of work the call covered (signatures in a batch; 1 otherwise).
    pub units: u32,
}

impl Span {
    /// How long the call took.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

thread_local! {
    /// The innermost span open on this thread. One recorder is live at a time.
    static OPEN: Cell<Option<u32>> = const { Cell::new(None) };
}

/// The span store. Shared (`Arc`) between the driver and the decorators it
/// hands to engines, which may run on other threads.
pub struct Recorder {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Recorder")
    }
}

impl Recorder {
    /// A fresh, empty recorder.
    pub fn new() -> Arc<Self> {
        Arc::new(Recorder {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        })
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        // Every update is a single push or a single field store, so the data
        // is valid even if a holder panicked.
        self.spans.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &self,
        name: &'static str,
        object: Option<Hash256>,
        units: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let parent = OPEN.get();
        let id = {
            let mut spans = self.lock();
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
                object,
                units,
            });
            (spans.len() - 1) as u32
        };
        OPEN.set(Some(id));
        let out = f();
        OPEN.set(parent);
        let end = self.now_ns();
        self.lock()[id as usize].end_ns = end;
        out
    }

    /// Everything recorded so far.
    pub fn snapshot(&self) -> Vec<Span> {
        self.lock().clone()
    }
}

/// How many spans the tracer holds now — a position drivers use to bound the
/// timed region within the span list. Zero when not tracing.
pub fn mark(tracer: &Tracer) -> usize {
    tracer.as_ref().map_or(0, |recorder| recorder.lock().len())
}

/// `Some` under `--trace`, `None` otherwise: the untraced run pays one branch.
pub type Tracer = Option<Arc<Recorder>>;

/// Runs `f` inside a span when tracing, bare otherwise.
pub fn span<T>(
    tracer: &Tracer,
    name: &'static str,
    object: Option<Hash256>,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        Some(recorder) => recorder.span(name, object, 1, f),
        None => f(),
    }
}

/// Per-name totals of a span set.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Fold {
    /// Spans of this name.
    pub count: u64,
    /// Σ units of work.
    pub units: u64,
    /// Σ duration.
    pub total_ns: u64,
    /// Σ duration minus the part covered by child spans.
    pub self_ns: u64,
}

impl Fold {
    /// Total time in microseconds.
    pub fn total_us(&self) -> f64 {
        self.total_ns as f64 / 1e3
    }
}

/// Folds spans into per-name totals and self times. Children of one span run
/// one after another on its thread, so their durations never overlap.
pub fn fold(spans: &[Span]) -> BTreeMap<&'static str, Fold> {
    let mut covered = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            covered[parent as usize] += span.duration_ns();
        }
    }
    let mut folds: BTreeMap<&'static str, Fold> = BTreeMap::new();
    for (span, covered) in spans.iter().zip(covered) {
        let entry = folds.entry(span.name).or_default();
        entry.count += 1;
        entry.units += u64::from(span.units);
        entry.total_ns += span.duration_ns();
        entry.self_ns += span.duration_ns().saturating_sub(covered);
    }
    folds
}

/// Σ total time of every span whose name starts with `prefix`, microseconds.
pub fn layer_total_us(folds: &BTreeMap<&'static str, Fold>, prefix: &str) -> f64 {
    folds
        .iter()
        .filter(|(name, _)| name.starts_with(prefix))
        .map(|(_, fold)| fold.total_us())
        .sum()
}

/// Writes spans and their fold as one JSON document.
pub fn write_json(
    path: &Path,
    workload: &str,
    spans: &[Span],
    metrics: &BTreeMap<&'static str, f64>,
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(out, "{{\"workload\":\"{workload}\",\"layers\":{{")?;
    for (i, (name, f)) in fold(spans).iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        write!(
            out,
            "{sep}\"{name}\":{{\"count\":{},\"units\":{},\"total_us\":{},\"self_us\":{}}}",
            f.count,
            f.units,
            f.total_ns as f64 / 1e3,
            f.self_ns as f64 / 1e3
        )?;
    }
    write!(out, "}},\"metrics\":{{")?;
    for (i, (name, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        write!(out, "{sep}\"{name}\":{value}")?;
    }
    write!(out, "}},\"spans\":[")?;
    for (id, span) in spans.iter().enumerate() {
        let sep = if id == 0 { "" } else { "," };
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        let object = span
            .object
            .map_or("null".to_string(), |h| format!("\"{}\"", &h.to_hex()[..16]));
        write!(
            out,
            "{sep}\n{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
             \"parent\":{parent},\"object\":{object},\"units\":{}}}",
            span.name, span.start_ns, span.end_ns, span.units
        )?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}

/// Times every [`ChainStorage`] call of the wrapped backend as a child span of
/// whatever driver call caused it.
#[derive(Debug)]
pub struct TimedStorage<S> {
    inner: S,
    recorder: Arc<Recorder>,
}

impl<S: ChainStorage> TimedStorage<S> {
    /// Wraps `inner`.
    pub fn new(inner: S, recorder: Arc<Recorder>) -> Self {
        TimedStorage { inner, recorder }
    }
}

impl<S: ChainStorage> ChainStorage for TimedStorage<S> {
    fn store_block(&mut self, block: &NgBlock, height: u64) -> Result<(), StoreError> {
        let inner = &mut self.inner;
        self.recorder
            .span("storage.store_block", Some(block.id()), 1, || {
                inner.store_block(block, height)
            })
    }

    fn store_undo(
        &mut self,
        id: &Hash256,
        height: u64,
        undo: &BlockUndo,
    ) -> Result<(), StoreError> {
        let inner = &mut self.inner;
        self.recorder.span("storage.store_undo", Some(*id), 1, || {
            inner.store_undo(id, height, undo)
        })
    }

    fn commit_roll(&mut self, roll: &RollCommit) -> Result<(), StoreError> {
        let inner = &mut self.inner;
        self.recorder
            .span("storage.commit_roll", Some(roll.anchor), 1, || {
                inner.commit_roll(roll)
            })
    }

    fn note_invalidated(&mut self, id: &Hash256) -> Result<(), StoreError> {
        let inner = &mut self.inner;
        self.recorder
            .span("storage.note_invalidated", Some(*id), 1, || {
                inner.note_invalidated(id)
            })
    }

    fn store_snapshot(&mut self, snapshot: &Snapshot) -> Result<(), StoreError> {
        let inner = &mut self.inner;
        self.recorder.span(
            "storage.store_snapshot",
            Some(snapshot.root.id()),
            1,
            || inner.store_snapshot(snapshot),
        )
    }

    fn latest_snapshot(&mut self) -> Result<Option<Snapshot>, StoreError> {
        let inner = &mut self.inner;
        self.recorder.span("storage.latest_snapshot", None, 1, || {
            inner.latest_snapshot()
        })
    }
}

/// Times every `verify_chunks` call of the wrapped executor; the span's
/// `units` is the number of signatures in the call.
pub struct TimedExecutor {
    inner: Arc<dyn BatchExecutor>,
    recorder: Arc<Recorder>,
}

impl TimedExecutor {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn BatchExecutor>, recorder: Arc<Recorder>) -> Arc<Self> {
        Arc::new(TimedExecutor { inner, recorder })
    }
}

impl BatchExecutor for TimedExecutor {
    fn workers(&self) -> usize {
        self.inner.workers()
    }

    fn verify_chunks(&self, chunks: Vec<Vec<BatchEntry>>) -> Vec<bool> {
        let sigs: usize = chunks.iter().map(Vec::len).sum();
        self.recorder
            .span("parallel.verify_chunks", None, sigs as u32, || {
                self.inner.verify_chunks(chunks)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ng_storage::MemoryStorage;

    fn span_of(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            object: None,
            units: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span_of("engine.handle", 0, 100, None),
            span_of("storage.commit_roll", 10, 40, Some(0)),
            span_of("parallel.verify_chunks", 50, 70, Some(0)),
            span_of("engine.handle", 200, 260, None),
            span_of("storage.commit_roll", 210, 220, Some(3)),
        ];
        let folds = fold(&spans);
        let handle = folds["engine.handle"];
        assert_eq!(
            (handle.count, handle.total_ns, handle.self_ns),
            (2, 160, 100)
        );
        let roll = folds["storage.commit_roll"];
        assert_eq!((roll.count, roll.total_ns, roll.self_ns), (2, 40, 40));
        assert_eq!(layer_total_us(&folds, "storage."), 0.04);
        assert_eq!(layer_total_us(&folds, "simnet."), 0.0);
    }

    #[test]
    fn nested_calls_record_their_parent() {
        let recorder = Recorder::new();
        let tracer: Tracer = Some(recorder.clone());
        span(&tracer, "outer", None, || {
            span(&tracer, "inner", None, || ());
            span(&tracer, "inner", None, || ());
        });
        span(&tracer, "outer", None, || ());
        let spans = recorder.snapshot();
        let parents: Vec<Option<u32>> = spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0), None]);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(span(&None, "untraced", None, || 7), 7);
    }

    #[test]
    fn decorators_forward_and_record() {
        let recorder = Recorder::new();
        let mut storage = TimedStorage::new(MemoryStorage::default(), recorder.clone());
        storage
            .commit_roll(&RollCommit {
                anchor: Hash256::ZERO,
                anchor_height: 0,
                rolling: Hash256::ZERO,
                disconnected: vec![],
                connected: vec![],
            })
            .expect("memory storage accepts");
        let pool: Arc<dyn BatchExecutor> = Arc::new(ng_node::parallel::WorkerPool::new(1));
        let executor = TimedExecutor::new(pool, recorder.clone());
        assert_eq!(
            executor.verify_chunks(vec![vec![], vec![]]),
            vec![true, true]
        );
        let names: Vec<&str> = recorder.snapshot().iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["storage.commit_roll", "parallel.verify_chunks"]);
    }
}
