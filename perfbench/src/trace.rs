//! Spans recorded from the benchmark's own code: a timing wrapper
//! around the public `CrossbarEngine`/`ProgrammedXbar` traits, and
//! counter deltas read from the telemetry the crates already keep.
//! Nothing here adds a span or counter inside a crate.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use funcsim::{CrossbarEngine, FuncsimError, ProgrammedXbar};
use telemetry::MetricSnapshot;

use crate::stats::Hist;
use xbar::CrossbarParams;

/// Nanoseconds since the benchmark's clock origin.
pub fn now_ns() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One engine call: which tile, how many vectors, when.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    pub tile: u32,
    pub n: u32,
    pub start: u64,
    pub end: u64,
}

const SLOTS: usize = 64;

/// Collects engine calls from every thread. Each thread appends to its
/// own slot, so recording never contends across pool workers.
pub struct Recorder {
    on: AtomicBool,
    slots: Vec<Mutex<Vec<Call>>>,
}

fn slot_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SLOT: usize = NEXT.fetch_add(1, Ordering::Relaxed) % SLOTS;
    }
    SLOT.with(|s| *s)
}

impl Recorder {
    pub fn new() -> Arc<Recorder> {
        Arc::new(Recorder {
            on: AtomicBool::new(false),
            slots: (0..SLOTS).map(|_| Mutex::new(Vec::new())).collect(),
        })
    }

    /// Starts or stops recording (the wrapper only times calls while
    /// on).
    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::SeqCst);
    }

    /// Takes every call recorded so far, ordered by start time.
    pub fn drain(&self) -> Vec<Call> {
        let mut all: Vec<Call> = self
            .slots
            .iter()
            .flat_map(|s| std::mem::take(&mut *s.lock().expect("recorder slot")))
            .collect();
        all.sort_unstable_by_key(|c| c.start);
        all
    }
}

/// Wraps an engine so every programmed tile reports its calls to a
/// [`Recorder`]. Tiles are numbered in programming order, which is
/// layer order for a network.
pub struct TimedEngine<E> {
    inner: E,
    recorder: Arc<Recorder>,
    next_tile: AtomicU32,
}

impl<E: CrossbarEngine> TimedEngine<E> {
    pub fn new(inner: E, recorder: Arc<Recorder>) -> Self {
        TimedEngine {
            inner,
            recorder,
            next_tile: AtomicU32::new(0),
        }
    }

    /// Tiles programmed so far.
    pub fn tiles(&self) -> u32 {
        self.next_tile.load(Ordering::SeqCst)
    }
}

struct TimedTile {
    inner: Box<dyn ProgrammedXbar>,
    tile: u32,
    recorder: Arc<Recorder>,
}

impl ProgrammedXbar for TimedTile {
    fn currents_batch(&self, v_levels: &[f32], n: usize) -> Result<Vec<f64>, FuncsimError> {
        if !self.recorder.on.load(Ordering::Relaxed) {
            return self.inner.currents_batch(v_levels, n);
        }
        let start = now_ns();
        let out = self.inner.currents_batch(v_levels, n);
        let end = now_ns();
        self.recorder.slots[slot_index()]
            .lock()
            .expect("recorder slot")
            .push(Call {
                tile: self.tile,
                n: n as u32,
                start,
                end,
            });
        out
    }
}

impl<E: CrossbarEngine> CrossbarEngine for TimedEngine<E> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn program(
        &self,
        params: &CrossbarParams,
        g_levels: &[f32],
    ) -> Result<Box<dyn ProgrammedXbar>, FuncsimError> {
        let inner = self.inner.program(params, g_levels)?;
        Ok(Box::new(TimedTile {
            inner,
            tile: self.next_tile.fetch_add(1, Ordering::SeqCst),
            recorder: Arc::clone(&self.recorder),
        }))
    }
}

/// Wall time covered by the calls (overlapping calls on different
/// threads count once), seconds.
pub fn wall_s(calls: &[Call]) -> f64 {
    let mut iv: Vec<(u64, u64)> = calls.iter().map(|c| (c.start, c.end)).collect();
    crate::stats::union_ns(&mut iv) as f64 * 1e-9
}

/// A telemetry snapshot reduced to what the ledger reads.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    counters: Vec<(String, u64)>,
    hists: Vec<(String, Hist)>,
    /// `(name, count, total seconds)` of timers.
    timers: Vec<(String, u64, f64)>,
}

impl Counters {
    /// Snapshot of every registered telemetry metric.
    pub fn take() -> Counters {
        let mut c = Counters::default();
        for m in telemetry::snapshot() {
            match m {
                MetricSnapshot::Counter { name, value } => c.counters.push((name, value)),
                MetricSnapshot::Histogram(h) => c.hists.push((
                    h.name,
                    Hist {
                        max: h.bounds.last().copied().unwrap_or(0.0),
                        bounds: h.bounds,
                        counts: h.buckets,
                        count: h.count,
                        sum: h.sum,
                    },
                )),
                MetricSnapshot::Timer {
                    name,
                    count,
                    total_ns,
                    ..
                } => c.timers.push((name, count, total_ns as f64 * 1e-9)),
                MetricSnapshot::Gauge { .. } => {}
            }
        }
        c
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Sum of every counter whose name starts with `prefix` and ends
    /// with `suffix`.
    pub fn counter_sum(&self, prefix: &str, suffix: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(n, _)| n.starts_with(prefix) && n.ends_with(suffix))
            .map(|(_, v)| v)
            .sum()
    }

    /// A histogram (empty when never registered).
    pub fn hist(&self, name: &str) -> Hist {
        self.hists
            .iter()
            .find(|(n, _)| n == name)
            .map_or_else(Hist::default, |(_, h)| h.clone())
    }

    /// `(count, seconds)` of a timer.
    pub fn timer(&self, name: &str) -> (u64, f64) {
        self.timers
            .iter()
            .find(|t| t.0 == name)
            .map_or((0, 0.0), |t| (t.1, t.2))
    }

    /// Everything recorded between `before` and `self`.
    pub fn since(&self, before: &Counters) -> Counters {
        Counters {
            counters: self
                .counters
                .iter()
                .map(|(n, v)| (n.clone(), v.saturating_sub(before.counter(n))))
                .collect(),
            hists: self
                .hists
                .iter()
                .map(|(n, h)| (n.clone(), h.since(&before.hist(n))))
                .collect(),
            timers: self
                .timers
                .iter()
                .map(|(n, c, s)| {
                    let (pc, ps) = before.timer(n);
                    (n.clone(), c.saturating_sub(pc), s - ps)
                })
                .collect(),
        }
    }
}
