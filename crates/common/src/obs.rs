//! Unified observability layer: a per-component metrics registry, a
//! cycle-sampled time series, and JSONL/CSV export.
//!
//! Every simulated component — CPU cores, the cache hierarchy and its
//! MSHRs, the criticality predictors, the DRAM channel controllers and
//! their schedulers — maintains plain counter fields on its hot paths
//! (a handful of integer adds per event; see [`crate::stats`]). This
//! module is the *pull side*: it gives those scattered counters one
//! coherent, documented surface.
//!
//! The design is a two-pass visitor:
//!
//! 1. **Registration** (once, at system construction): each component
//!    walks its metrics through a [`MetricVisitor`], producing a
//!    [`Schema`] — an ordered list of `(component, name, kind, unit)`
//!    definitions. Registration is the only pass that allocates.
//! 2. **Sampling** (every *epoch* cycles): the same walk runs again
//!    with a row-writing visitor that appends one `f64` per registered
//!    metric to the in-memory [`SeriesSet`]. Because registration and
//!    sampling share one `observe` function per component
//!    ([`Observable::observe`]), the schema and the rows cannot drift
//!    apart.
//!
//! Nothing here runs on the per-cycle tick path: components keep
//! incrementing their own fields, and the DRAM controller's
//! allocation-free `tick_into` guarantee (enforced by
//! `crates/dram/tests/tick_alloc.rs`) is untouched. Sampling cost is
//! `O(metrics)` every epoch, amortized to nothing.
//!
//! The exported formats are documented in DESIGN.md §6e and pinned
//! byte for byte by this module's tests. The sweep journal and the
//! checkpoint carry a series in binary instead ([`SeriesSet::encode`]).
//!
//! # Examples
//!
//! ```
//! use critmem_common::obs::{MetricVisitor, Observable, Sampler, Schema};
//!
//! struct Widget { pulls: u64 }
//! impl Observable for Widget {
//!     fn observe(&self, v: &mut dyn MetricVisitor) {
//!         v.counter("pulls", "events", self.pulls);
//!         v.gauge("pull_rate", "events/cycle", self.pulls as f64 / 100.0);
//!     }
//! }
//!
//! let w = Widget { pulls: 42 };
//! let schema = Schema::build(|v| {
//!     v.component("widget");
//!     w.observe(v);
//! });
//! let mut sampler = Sampler::new(schema, 100);
//! assert!(sampler.due(100));
//! sampler.sample(100, |v| {
//!     v.component("widget");
//!     w.observe(v);
//! });
//! let series = sampler.into_series();
//! assert_eq!(series.len(), 1);
//! assert_eq!(series.value(0, "widget.pulls"), Some(42.0));
//! ```

use crate::codec::{ByteReader, ByteWriter, CodecError, Snapshot};
use std::fmt::Write as _;

/// Whether a metric is a monotonically non-decreasing count or an
/// instantaneous/derived reading.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Cumulative since the start of the run; consumers difference
    /// adjacent samples for per-epoch rates. Exported as an integer.
    Counter,
    /// Instantaneous or derived value (occupancy, a rate, a mean).
    /// Exported as a float.
    Gauge,
}

impl MetricKind {
    /// The lowercase schema string ("counter" / "gauge").
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
        }
    }
}

/// One registered metric: its owning component, short name, kind, and
/// unit. The full id is `component.name`, e.g. `dram.ch0.row_hits`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    /// Owning component path, e.g. `cpu.core0` or `dram.ch2`.
    pub component: String,
    /// Metric name within the component, e.g. `row_hits`.
    pub name: &'static str,
    /// Counter or gauge.
    pub kind: MetricKind,
    /// Unit string, e.g. `cycles`, `requests`, `ratio`.
    pub unit: &'static str,
}

impl MetricDef {
    /// The full dotted id (`component.name`).
    pub fn id(&self) -> String {
        format!("{}.{}", self.component, self.name)
    }
}

/// The visitor each component walks its metrics through. One
/// implementation collects a [`Schema`]; another writes a sample row.
///
/// Components must emit the same metrics in the same order on every
/// walk — which is automatic when both passes share one
/// [`Observable::observe`] body.
pub trait MetricVisitor {
    /// Switches the current component path for subsequent metrics.
    fn component(&mut self, path: &str);
    /// Visits a cumulative counter.
    fn counter(&mut self, name: &'static str, unit: &'static str, value: u64);
    /// Visits an instantaneous or derived gauge.
    fn gauge(&mut self, name: &'static str, unit: &'static str, value: f64);
}

/// A component that exposes metrics to the observability layer.
pub trait Observable {
    /// Walks every metric of this component through `v`, in a fixed
    /// order. Called once for registration and once per sample.
    fn observe(&self, v: &mut dyn MetricVisitor);
}

/// The ordered metric definitions of one run configuration.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Schema {
    defs: Vec<MetricDef>,
}

impl Schema {
    /// Builds a schema by running a registration pass over `walk`.
    pub fn build(walk: impl FnOnce(&mut dyn MetricVisitor)) -> Self {
        let mut c = SchemaCollector {
            defs: Vec::new(),
            component: String::new(),
        };
        walk(&mut c);
        Schema { defs: c.defs }
    }

    /// The ordered definitions.
    pub fn defs(&self) -> &[MetricDef] {
        &self.defs
    }

    /// Number of metrics per sample row.
    pub fn len(&self) -> usize {
        self.defs.len()
    }

    /// Whether the schema is empty.
    pub fn is_empty(&self) -> bool {
        self.defs.is_empty()
    }

    /// Index of the metric with the given full dotted id.
    pub fn index_of(&self, id: &str) -> Option<usize> {
        self.defs.iter().position(|d| d.id() == id)
    }
}

/// Registration-pass visitor: records definitions, ignores values.
struct SchemaCollector {
    defs: Vec<MetricDef>,
    component: String,
}

impl MetricVisitor for SchemaCollector {
    fn component(&mut self, path: &str) {
        self.component.clear();
        self.component.push_str(path);
    }
    fn counter(&mut self, name: &'static str, unit: &'static str, _value: u64) {
        self.defs.push(MetricDef {
            component: self.component.clone(),
            name,
            kind: MetricKind::Counter,
            unit,
        });
    }
    fn gauge(&mut self, name: &'static str, unit: &'static str, _value: f64) {
        self.defs.push(MetricDef {
            component: self.component.clone(),
            name,
            kind: MetricKind::Gauge,
            unit,
        });
    }
}

/// Sampling-pass visitor: appends one value per registered metric.
struct RowWriter<'a> {
    schema: &'a Schema,
    values: &'a mut Vec<f64>,
    /// Index of the next expected metric within the row.
    at: usize,
}

impl MetricVisitor for RowWriter<'_> {
    fn component(&mut self, _path: &str) {}
    fn counter(&mut self, name: &'static str, _unit: &'static str, value: u64) {
        let def = &self.schema.defs[self.at];
        debug_assert_eq!(def.name, name, "sample order diverged from schema");
        debug_assert_eq!(def.kind, MetricKind::Counter);
        self.at += 1;
        self.values.push(value as f64);
    }
    fn gauge(&mut self, name: &'static str, _unit: &'static str, value: f64) {
        let def = &self.schema.defs[self.at];
        debug_assert_eq!(def.name, name, "sample order diverged from schema");
        debug_assert_eq!(def.kind, MetricKind::Gauge);
        debug_assert!(value.is_finite(), "gauge {name} sampled non-finite {value}");
        self.at += 1;
        self.values
            .push(if value.is_finite() { value } else { 0.0 });
    }
}

/// A cycle-stamped time series over one [`Schema`]: row *i* holds the
/// value of every registered metric at `cycles[i]`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SeriesSet {
    schema: Schema,
    cycles: Vec<u64>,
    /// Row-major values, `cycles.len() * schema.len()` long.
    values: Vec<f64>,
}

impl SeriesSet {
    /// Creates an empty series over `schema`.
    pub fn new(schema: Schema) -> Self {
        SeriesSet {
            schema,
            cycles: Vec::new(),
            values: Vec::new(),
        }
    }

    /// The schema rows follow.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.cycles.len()
    }

    /// Whether no sample has been recorded.
    pub fn is_empty(&self) -> bool {
        self.cycles.is_empty()
    }

    /// The cycle stamps of all samples.
    pub fn cycles(&self) -> &[u64] {
        &self.cycles
    }

    /// The values of sample `row`, in schema order.
    pub fn row(&self, row: usize) -> &[f64] {
        let w = self.schema.len();
        &self.values[row * w..(row + 1) * w]
    }

    /// The value of the metric with dotted id `id` at sample `row`.
    pub fn value(&self, row: usize, id: &str) -> Option<f64> {
        let i = self.schema.index_of(id)?;
        self.row(row).get(i).copied()
    }

    /// Serializes for the sweep journal: the schema (a `u32` metric
    /// count, then per metric its component, name, a `u8` kind tag —
    /// 0 = counter, 1 = gauge — and unit), then the row block a
    /// checkpoint's sampler holds.
    pub fn encode(&self, w: &mut ByteWriter) {
        w.put_u32(self.schema.len() as u32);
        for d in self.schema.defs() {
            w.put_str(&d.component);
            w.put_str(d.name);
            w.put_u8(match d.kind {
                MetricKind::Counter => 0,
                MetricKind::Gauge => 1,
            });
            w.put_str(d.unit);
        }
        self.put_rows(w);
    }

    /// Deserializes a journaled series.
    ///
    /// # Errors
    ///
    /// Fails on a truncated stream, an unknown kind tag, or a row block
    /// whose value count does not fill whole rows of the schema.
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let n = r.get_u32()? as usize;
        let defs = (0..n)
            .map(|_| {
                let component = r.get_str()?;
                let name = r.get_str()?;
                let kind = match r.get_u8()? {
                    0 => MetricKind::Counter,
                    1 => MetricKind::Gauge,
                    tag => {
                        return Err(CodecError {
                            message: format!("unknown metric kind tag {tag}"),
                            offset: r.position() - 1,
                        })
                    }
                };
                let unit = r.get_str()?;
                Ok(MetricDef {
                    component,
                    name: leak_name(&name),
                    kind,
                    unit: leak_name(&unit),
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let mut series = SeriesSet::new(Schema { defs });
        series.get_rows(r)?;
        Ok(series)
    }

    /// Writes the row block: the `cycles` sequence, a `u32` value
    /// count, then each value's raw `f64` bits.
    fn put_rows(&self, w: &mut ByteWriter) {
        w.put_u64_seq(&self.cycles);
        w.put_u32(self.values.len() as u32);
        for &v in &self.values {
            w.put_f64(v);
        }
    }

    /// Replaces this series' rows with a block [`Self::put_rows`]
    /// wrote, rejecting one whose values do not fill exactly one row of
    /// this schema per cycle stamp.
    fn get_rows(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        let cycles = r.get_u64_seq()?;
        let offset = r.position();
        let n = r.get_u32()? as usize;
        if n != cycles.len() * self.schema.len() {
            return Err(CodecError {
                message: format!(
                    "{n} sample values for {} rows of {} metrics",
                    cycles.len(),
                    self.schema.len()
                ),
                offset,
            });
        }
        self.values = (0..n).map(|_| r.get_f64()).collect::<Result<_, _>>()?;
        self.cycles = cycles;
        Ok(())
    }

    /// The full column of a metric across all samples.
    pub fn column(&self, id: &str) -> Option<Vec<f64>> {
        let i = self.schema.index_of(id)?;
        Some(
            self.cycles
                .iter()
                .enumerate()
                .map(|(r, _)| self.row(r)[i])
                .collect(),
        )
    }
}

/// The epoch sampler: snapshots registered metrics every `epoch`
/// cycles into a [`SeriesSet`].
#[derive(Debug, Clone)]
pub struct Sampler {
    epoch: u64,
    next_at: u64,
    window: Option<usize>,
    series: SeriesSet,
}

impl Sampler {
    /// Creates a sampler that fires every `epoch` cycles (first at
    /// cycle `epoch`).
    ///
    /// # Panics
    ///
    /// Panics if `epoch` is zero.
    pub fn new(schema: Schema, epoch: u64) -> Self {
        assert!(epoch > 0, "sampling epoch must be nonzero");
        Sampler {
            epoch,
            next_at: epoch,
            window: None,
            series: SeriesSet::new(schema),
        }
    }

    /// Retains only the most recent `window` samples: each new sample
    /// past the cap evicts the oldest row. This bounds the sampler's
    /// memory for unbounded-horizon runs (e.g. synthesized traffic
    /// replay), turning the series into a sliding window of the run's
    /// trailing behavior instead of its full history.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    #[must_use]
    pub fn with_window(mut self, window: usize) -> Self {
        assert!(window > 0, "sample window must be nonzero");
        self.window = Some(window);
        self
    }

    /// The sampling epoch in cycles.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The sliding-window cap, when one was set.
    pub fn window(&self) -> Option<usize> {
        self.window
    }

    /// Whether a sample is due at `now`.
    #[inline]
    pub fn due(&self, now: u64) -> bool {
        now >= self.next_at
    }

    /// The cycle at which the next sample falls due. Event-horizon
    /// accessor for skip-ahead: a caller that batch-advances the clock
    /// must stop no later than this cycle.
    #[inline]
    pub fn next_due(&self) -> u64 {
        self.next_at
    }

    /// Number of samples recorded so far (after any window eviction).
    pub fn samples_taken(&self) -> usize {
        self.series.cycles.len()
    }

    /// Cycle stamp of the most recent sample, if any.
    pub fn last_sampled(&self) -> Option<u64> {
        self.series.cycles.last().copied()
    }

    /// Records one sample at `now` by running `walk` with a
    /// row-writing visitor, then schedules the next epoch.
    ///
    /// # Panics
    ///
    /// Panics if `walk` emits a different number of metrics than the
    /// schema registered.
    pub fn sample(&mut self, now: u64, walk: impl FnOnce(&mut dyn MetricVisitor)) {
        let before = self.series.values.len();
        let mut w = RowWriter {
            schema: &self.series.schema,
            values: &mut self.series.values,
            at: 0,
        };
        walk(&mut w);
        assert_eq!(
            self.series.values.len() - before,
            self.series.schema.len(),
            "sample row width diverged from schema"
        );
        self.series.cycles.push(now);
        if let Some(cap) = self.window {
            let extra = self.series.cycles.len().saturating_sub(cap);
            if extra > 0 {
                self.series.cycles.drain(..extra);
                self.series.values.drain(..extra * self.series.schema.len());
            }
        }
        // Epochs are anchored to the grid, not to the sample cycle, so
        // a caller that checks `due` late does not drift.
        while self.next_at <= now {
            self.next_at += self.epoch;
        }
    }

    /// Consumes the sampler, returning the recorded series.
    pub fn into_series(self) -> SeriesSet {
        self.series
    }
}

impl Snapshot for Sampler {
    /// The epoch and schema come from the constructor; the captured
    /// state is the next fire cycle plus the series' row block.
    fn save_state(&self, w: &mut ByteWriter) {
        w.put_u64(self.next_at);
        self.series.put_rows(w);
    }

    /// Fails when the saved rows are not as wide as this sampler's
    /// schema (a checkpoint sampled under another predictor).
    fn load_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        self.next_at = r.get_u64()?;
        self.series.get_rows(r)
    }
}

/// One run's labeled series within a [`SeriesExport`].
#[derive(Debug, Clone, PartialEq)]
pub struct RunSeries {
    /// Unique run label (e.g. `swim|CASRAS-Crit|MaxStallTime-64`).
    pub run: String,
    /// The sampled time series.
    pub series: SeriesSet,
}

/// A deterministic collection of sampled runs, exportable as JSONL or
/// CSV.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SeriesExport {
    /// Sampling epoch in CPU cycles (uniform across runs).
    pub epoch: u64,
    /// The runs, sorted by label (the deterministic merge order).
    pub runs: Vec<RunSeries>,
}

impl SeriesExport {
    /// Creates an empty export with the given epoch.
    pub fn new(epoch: u64) -> Self {
        SeriesExport {
            epoch,
            runs: Vec::new(),
        }
    }

    /// Adds one run's series under `label`, keeping runs sorted by
    /// label so that merge order — and therefore every export byte —
    /// is independent of execution order (worker count, completion
    /// interleaving).
    ///
    /// # Panics
    ///
    /// Panics if `label` is already present (runs must be uniquely
    /// keyed) or contains characters that would break the line formats
    /// (`"`, `\`, newline, or comma).
    pub fn push(&mut self, label: impl Into<String>, series: SeriesSet) {
        let run = label.into();
        assert!(
            !run.contains(['"', '\\', '\n', ',']),
            "run label {run:?} contains characters reserved by the export formats"
        );
        match self.runs.binary_search_by(|r| r.run.as_str().cmp(&run)) {
            Ok(_) => panic!("duplicate run label {run:?}"),
            Err(i) => self.runs.insert(i, RunSeries { run, series }),
        }
    }

    /// Serializes to JSON Lines (see DESIGN.md §6e): one `export`
    /// header line, then per run one `run` line carrying the schema
    /// followed by its `sample` lines in cycle order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"type\":\"export\",\"version\":1,\"epoch\":{},\"runs\":{}}}",
            self.epoch,
            self.runs.len()
        );
        for r in &self.runs {
            let _ = write!(
                out,
                "{{\"type\":\"run\",\"run\":\"{}\",\"samples\":{},\"metrics\":[",
                r.run,
                r.series.len()
            );
            for (i, d) in r.series.schema.defs().iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"id\":\"{}\",\"kind\":\"{}\",\"unit\":\"{}\"}}",
                    d.id(),
                    d.kind.as_str(),
                    d.unit
                );
            }
            out.push_str("]}\n");
            for row in 0..r.series.len() {
                let _ = write!(
                    out,
                    "{{\"type\":\"sample\",\"run\":\"{}\",\"cycle\":{},\"v\":[",
                    r.run, r.series.cycles[row]
                );
                for (i, (v, d)) in r
                    .series
                    .row(row)
                    .iter()
                    .zip(r.series.schema.defs())
                    .enumerate()
                {
                    if i > 0 {
                        out.push(',');
                    }
                    format_value(&mut out, *v, d.kind);
                }
                out.push_str("]}\n");
            }
        }
        out
    }

    /// Serializes to CSV: a header of `run,cycle,<metric ids…>`, then
    /// one row per sample. Requires every run to share one schema
    /// (true whenever the runs share a system configuration).
    ///
    /// # Panics
    ///
    /// Panics if runs disagree on the schema.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let Some(first) = self.runs.first() else {
            out.push_str("run,cycle\n");
            return out;
        };
        let schema = &first.series.schema;
        out.push_str("run,cycle");
        for d in schema.defs() {
            out.push(',');
            out.push_str(&d.id());
        }
        out.push('\n');
        for r in &self.runs {
            assert_eq!(
                r.series.schema, *schema,
                "CSV export requires a uniform schema across runs"
            );
            for row in 0..r.series.len() {
                let _ = write!(out, "{},{}", r.run, r.series.cycles[row]);
                for (v, d) in r.series.row(row).iter().zip(schema.defs()) {
                    out.push(',');
                    format_value(&mut out, *v, d.kind);
                }
                out.push('\n');
            }
        }
        out
    }
}

/// Formats one value per its kind, losslessly: counters as integers,
/// gauges via `f64`'s shortest round-trip representation.
fn format_value(out: &mut String, v: f64, kind: MetricKind) {
    match kind {
        MetricKind::Counter => {
            let _ = write!(out, "{}", v as u64);
        }
        MetricKind::Gauge => {
            if v == v.trunc() && v.abs() < 1e15 {
                // Integral gauges keep `.0`, reading as floats.
                let _ = write!(out, "{v:.1}");
            } else {
                let _ = write!(out, "{v}");
            }
        }
    }
}

/// Interns a decoded metric name or unit as `&'static str`. Decoding is
/// the journal-resume path, once per journaled series; the leaked
/// strings are the price of keeping sampled defs allocation-light.
fn leak_name(s: &str) -> &'static str {
    Box::leak(s.to_string().into_boxed_str())
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fake {
        a: u64,
        b: f64,
    }

    impl Observable for Fake {
        fn observe(&self, v: &mut dyn MetricVisitor) {
            v.counter("events", "events", self.a);
            v.gauge("level", "ratio", self.b);
        }
    }

    fn sample_fake(f: &Fake, epoch: u64, points: &[(u64, u64, f64)]) -> SeriesSet {
        let schema = Schema::build(|v| {
            v.component("fake");
            f.observe(v);
        });
        let mut s = Sampler::new(schema, epoch);
        for &(cycle, a, b) in points {
            let snap = Fake { a, b };
            s.sample(cycle, |v| {
                v.component("fake");
                snap.observe(v);
            });
        }
        s.into_series()
    }

    #[test]
    fn schema_registration_orders_metrics() {
        let f = Fake { a: 0, b: 0.0 };
        let schema = Schema::build(|v| {
            v.component("fake");
            f.observe(v);
        });
        assert_eq!(schema.len(), 2);
        assert_eq!(schema.defs()[0].id(), "fake.events");
        assert_eq!(schema.defs()[0].kind, MetricKind::Counter);
        assert_eq!(schema.defs()[1].id(), "fake.level");
        assert_eq!(schema.defs()[1].unit, "ratio");
    }

    #[test]
    fn sampler_epoch_grid() {
        let f = Fake { a: 1, b: 0.5 };
        let schema = Schema::build(|v| f.observe(v));
        let mut s = Sampler::new(schema, 100);
        assert!(!s.due(99));
        assert!(s.due(100));
        s.sample(100, |v| f.observe(v));
        assert!(!s.due(150));
        assert!(s.due(200));
        // A late check lands back on the grid, not 250+100.
        s.sample(250, |v| f.observe(v));
        assert!(s.due(300));
    }

    #[test]
    fn windowed_sampler_keeps_only_the_tail() {
        let f = Fake { a: 0, b: 0.0 };
        let schema = Schema::build(|v| {
            v.component("fake");
            f.observe(v);
        });
        let mut s = Sampler::new(schema, 10).with_window(3);
        assert_eq!(s.window(), Some(3));
        for i in 1..=8u64 {
            let snap = Fake {
                a: i,
                b: i as f64 / 10.0,
            };
            s.sample(i * 10, |v| snap.observe(v));
        }
        let series = s.into_series();
        assert_eq!(series.len(), 3, "window must cap retained rows");
        assert_eq!(series.cycles(), &[60, 70, 80]);
        assert_eq!(series.value(0, "fake.events"), Some(6.0));
        assert_eq!(series.value(2, "fake.events"), Some(8.0));
        assert_eq!(series.value(2, "fake.level"), Some(0.8));
    }

    #[test]
    fn series_lookup_by_id() {
        let f = Fake { a: 0, b: 0.0 };
        let series = sample_fake(&f, 10, &[(10, 3, 0.25), (20, 7, 0.5)]);
        assert_eq!(series.len(), 2);
        assert_eq!(series.value(0, "fake.events"), Some(3.0));
        assert_eq!(series.value(1, "fake.level"), Some(0.5));
        assert_eq!(series.column("fake.events"), Some(vec![3.0, 7.0]));
        assert_eq!(series.value(0, "fake.nope"), None);
    }

    /// Every number printed for `series` reads back as exactly the
    /// stored value: the cycles and then each row's values, in order.
    fn assert_reads_back(series: &SeriesSet, cycles: &[&str], rows: &[Vec<&str>]) {
        let got: Vec<u64> = cycles.iter().map(|c| c.parse().unwrap()).collect();
        assert_eq!(got, series.cycles());
        assert_eq!(rows.len(), series.len());
        for (i, row) in rows.iter().enumerate() {
            let got: Vec<u64> = row
                .iter()
                .map(|v| v.parse::<f64>().unwrap().to_bits())
                .collect();
            let want: Vec<u64> = series.row(i).iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "row {i}");
        }
    }

    /// Two runs pushed out of label order, one with a value `f64`'s
    /// shortest form needs every digit for.
    fn two_run_export() -> SeriesExport {
        let f = Fake { a: 0, b: 0.0 };
        let mut e = SeriesExport::new(10);
        e.push(
            "runB",
            sample_fake(&f, 10, &[(10, 1, 0.125), (20, 2, 1.0 / 3.0)]),
        );
        e.push("runA", sample_fake(&f, 10, &[(10, 9, 42.0)]));
        e
    }

    const FAKE_METRICS: &str = r#"[{"id":"fake.events","kind":"counter","unit":"events"},{"id":"fake.level","kind":"gauge","unit":"ratio"}]"#;

    /// The `v` array of every `sample` line of a JSONL export, split
    /// into its number lexemes.
    fn jsonl_values(text: &str) -> Vec<Vec<&str>> {
        text.lines()
            .filter_map(|l| l.split_once(r#""v":["#))
            .map(|(_, v)| v.trim_end_matches("]}").split(',').collect())
            .collect()
    }

    #[test]
    fn jsonl_round_trips() {
        let e = two_run_export();
        // Deterministic order: sorted by label regardless of push order.
        assert_eq!(e.runs[0].run, "runA");
        let text = e.to_jsonl();
        let jsonl = [
            r#"{"type":"export","version":1,"epoch":10,"runs":2}"#.to_string(),
            format!(r#"{{"type":"run","run":"runA","samples":1,"metrics":{FAKE_METRICS}}}"#),
            r#"{"type":"sample","run":"runA","cycle":10,"v":[9,42.0]}"#.to_string(),
            format!(r#"{{"type":"run","run":"runB","samples":2,"metrics":{FAKE_METRICS}}}"#),
            r#"{"type":"sample","run":"runB","cycle":10,"v":[1,0.125]}"#.to_string(),
            r#"{"type":"sample","run":"runB","cycle":20,"v":[2,0.3333333333333333]}"#.to_string(),
        ];
        assert_eq!(text, jsonl.join("\n") + "\n");
        let values = jsonl_values(&text);
        assert_reads_back(&e.runs[0].series, &["10"], &values[..1]);
        assert_reads_back(&e.runs[1].series, &["10", "20"], &values[1..]);
    }

    #[test]
    fn csv_round_trips_values() {
        let e = two_run_export();
        let text = e.to_csv();
        assert_eq!(
            text,
            "run,cycle,fake.events,fake.level\n\
             runA,10,9,42.0\n\
             runB,10,1,0.125\n\
             runB,20,2,0.3333333333333333\n"
        );
        let rows: Vec<Vec<&str>> = text
            .lines()
            .skip(1)
            .map(|l| l.split(',').collect())
            .collect();
        for run in &e.runs {
            let mine: Vec<&Vec<&str>> = rows.iter().filter(|r| r[0] == run.run).collect();
            let cycles: Vec<&str> = mine.iter().map(|r| r[1]).collect();
            let values: Vec<Vec<&str>> = mine.iter().map(|r| r[2..].to_vec()).collect();
            assert_reads_back(&run.series, &cycles, &values);
        }
    }

    #[test]
    fn empty_export_parses() {
        let e = SeriesExport::new(1000);
        assert_eq!(
            e.to_jsonl(),
            "{\"type\":\"export\",\"version\":1,\"epoch\":1000,\"runs\":0}\n"
        );
        assert_eq!(e.to_csv(), "run,cycle\n");
    }

    #[test]
    fn gauge_formatting_survives_awkward_values() {
        // Shortest-repr floats and integral gauges both read back exactly.
        let f = Fake { a: 0, b: 0.0 };
        let mut e = SeriesExport::new(1);
        e.push(
            "r",
            sample_fake(&f, 1, &[(1, u32::MAX as u64, 0.1 + 0.2), (2, 0, 3.0)]),
        );
        let text = e.to_jsonl();
        assert_eq!(
            text.lines().skip(2).collect::<Vec<_>>(),
            [
                r#"{"type":"sample","run":"r","cycle":1,"v":[4294967295,0.30000000000000004]}"#,
                r#"{"type":"sample","run":"r","cycle":2,"v":[0,3.0]}"#,
            ]
        );
        assert_reads_back(&e.runs[0].series, &["1", "2"], &jsonl_values(&text));
        assert_eq!(
            e.to_csv(),
            "run,cycle,fake.events,fake.level\n\
             r,1,4294967295,0.30000000000000004\n\
             r,2,0,3.0\n"
        );
    }

    fn encoded(series: &SeriesSet) -> Vec<u8> {
        let mut w = ByteWriter::new();
        series.encode(&mut w);
        w.into_bytes()
    }

    #[test]
    fn series_round_trips_through_the_codec() {
        let f = Fake { a: 0, b: 0.0 };
        let schema = Schema::build(|v| {
            v.component("fake");
            f.observe(v);
        });
        let mut windowed = Sampler::new(schema.clone(), 10).with_window(2);
        for i in 1..=5u64 {
            let snap = Fake {
                a: i,
                b: 1.0 / i as f64,
            };
            windowed.sample(i * 10, |v| snap.observe(v));
        }
        for series in [windowed.into_series(), SeriesSet::new(schema)] {
            let bytes = encoded(&series);
            let mut r = ByteReader::new(&bytes);
            assert_eq!(SeriesSet::decode(&mut r).unwrap(), series);
            assert!(r.is_empty());
        }
    }

    #[test]
    fn malformed_series_is_a_codec_error() {
        let f = Fake { a: 0, b: 0.0 };
        let series = sample_fake(&f, 10, &[(10, 1, 0.5), (20, 2, 0.25)]);
        let bytes = encoded(&series);
        let decode = |bytes: &[u8]| SeriesSet::decode(&mut ByteReader::new(bytes));
        // Every cut of the block is truncated, never a panic.
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
        // The value count sits after the two cycle stamps: 3 values do
        // not fill whole rows of 2 metrics.
        let count_at = bytes.len() - 4 * 8 - 4;
        let mut bad = bytes.clone();
        bad[count_at..count_at + 4].copy_from_slice(&3u32.to_le_bytes());
        let err = decode(&bad).unwrap_err();
        assert!(err.message.contains("3 sample values"), "{err}");
        // The first metric's kind tag follows its component and name.
        let tag_at = 4 + (4 + "fake".len()) + (4 + "events".len());
        assert_eq!(bytes[tag_at], 0);
        let mut bad = bytes.clone();
        bad[tag_at] = 7;
        let err = decode(&bad).unwrap_err();
        assert!(err.message.contains("kind tag 7"), "{err}");
    }

    #[test]
    fn merge_is_order_independent() {
        let f = Fake { a: 0, b: 0.0 };
        let mk = |labels: &[&str]| {
            let mut e = SeriesExport::new(5);
            for l in labels {
                e.push(*l, sample_fake(&f, 5, &[(5, 1, 1.5)]));
            }
            e
        };
        let (a, b) = (mk(&["x", "z", "y"]), mk(&["y", "x", "z"]));
        assert_eq!(a, b);
        assert_eq!(a.to_jsonl(), b.to_jsonl());
    }

    #[test]
    #[should_panic(expected = "duplicate run label")]
    fn duplicate_labels_are_rejected() {
        let f = Fake { a: 0, b: 0.0 };
        let mut e = SeriesExport::new(5);
        e.push("x", sample_fake(&f, 5, &[]));
        e.push("x", sample_fake(&f, 5, &[]));
    }
}
