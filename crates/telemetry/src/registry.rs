//! The metrics registry and the Prometheus text-format renderer.
//!
//! A [`Registry`] owns a set of metric *families* (one name, one kind,
//! one label schema), each with one child metric per distinct label-value
//! tuple. Registration is idempotent get-or-create: two call sites asking
//! for the same family receive handles to the same atomics, and a
//! kind/schema mismatch on an existing name is a panic (it is a
//! programming error, never an operational condition).
//!
//! ## Determinism
//!
//! [`Registry::render`] is byte-deterministic for a fixed registry state:
//! families render in lexicographic name order (they live in a
//! `BTreeMap`), children in lexicographic label-value order (ditto), and
//! every number is formatted without any float round-trip that could
//! vary (histogram sums render from their integer nanounit
//! representation). Two registries holding the same state render the
//! same bytes regardless of registration or mutation order — pinned by a
//! golden test.
//!
//! ## Collectors
//!
//! Values that only exist at scrape time (process RSS, uptime, a foreign
//! subsystem's counter) are supplied by *collectors*: closures invoked
//! under the registry lock during [`Registry::render`] that append whole
//! families to the output. Collectors must not touch the registry they
//! are registered with (the lock is held) and their family names must
//! not collide with registered families (collisions are skipped with a
//! debug assertion).

use crate::metrics::{Counter, Gauge, Histogram};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, OnceLock};

/// A handle-granting registry of metric families. See the module docs.
#[derive(Default)]
pub struct Registry {
    inner: Arc<Mutex<Inner>>,
}

#[derive(Default)]
struct Inner {
    families: BTreeMap<String, Family>,
    collectors: Vec<Collector>,
}

type Collector = Box<dyn Fn(&mut CollectorBuf) + Send + Sync>;

struct Family {
    help: String,
    labels: Vec<String>,
    data: FamilyData,
}

enum FamilyData {
    Counter(BTreeMap<Vec<String>, Arc<Counter>>),
    Gauge(BTreeMap<Vec<String>, Arc<Gauge>>),
    Histogram {
        bounds: Vec<f64>,
        children: BTreeMap<Vec<String>, Arc<Histogram>>,
    },
}

impl FamilyData {
    fn kind(&self) -> &'static str {
        match self {
            FamilyData::Counter(_) => "counter",
            FamilyData::Gauge(_) => "gauge",
            FamilyData::Histogram { .. } => "histogram",
        }
    }
}

/// Is `name` a legal Prometheus metric name (`[a-zA-Z_:][a-zA-Z0-9_:]*`)?
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Is `name` a legal label name (`[a-zA-Z_][a-zA-Z0-9_]*`; colons are
/// reserved for metric names)?
pub fn valid_label_name(name: &str) -> bool {
    valid_metric_name(name) && !name.contains(':')
}

fn check_name(name: &str) {
    assert!(valid_metric_name(name), "invalid metric name {name:?}");
}

fn check_labels(names: &[&str]) {
    for n in names {
        assert!(valid_label_name(n), "invalid label name {n:?}");
        assert!(*n != "le", "label name \"le\" is reserved for histograms");
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create an unlabeled counter family.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.counter_vec(name, help, &[]).with(&[])
    }

    /// Get or create a counter family with the given label schema.
    pub fn counter_vec(&self, name: &str, help: &str, labels: &[&str]) -> CounterVec {
        check_name(name);
        check_labels(labels);
        let mut inner = self.inner.lock().expect("registry lock");
        let fam = inner
            .families
            .entry(name.to_string())
            .or_insert_with(|| Family {
                help: help.to_string(),
                labels: labels.iter().map(|s| s.to_string()).collect(),
                data: FamilyData::Counter(BTreeMap::new()),
            });
        assert_family(name, fam, "counter", labels);
        CounterVec {
            inner: Arc::clone(&self.inner),
            name: name.to_string(),
        }
    }

    /// Get or create an unlabeled gauge family.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.gauge_vec(name, help, &[]).with(&[])
    }

    /// Get or create a gauge family with the given label schema.
    pub fn gauge_vec(&self, name: &str, help: &str, labels: &[&str]) -> GaugeVec {
        check_name(name);
        check_labels(labels);
        let mut inner = self.inner.lock().expect("registry lock");
        let fam = inner
            .families
            .entry(name.to_string())
            .or_insert_with(|| Family {
                help: help.to_string(),
                labels: labels.iter().map(|s| s.to_string()).collect(),
                data: FamilyData::Gauge(BTreeMap::new()),
            });
        assert_family(name, fam, "gauge", labels);
        GaugeVec {
            inner: Arc::clone(&self.inner),
            name: name.to_string(),
        }
    }

    /// Get or create an unlabeled histogram family over `bounds` (finite,
    /// strictly increasing; see [`Histogram::with_bounds`]).
    pub fn histogram(&self, name: &str, help: &str, bounds: Vec<f64>) -> Arc<Histogram> {
        self.histogram_vec(name, help, &[], bounds).with(&[])
    }

    /// Get or create a labeled histogram family. Every child shares
    /// `bounds`; re-registration with different bounds panics.
    pub fn histogram_vec(
        &self,
        name: &str,
        help: &str,
        labels: &[&str],
        bounds: Vec<f64>,
    ) -> HistogramVec {
        check_name(name);
        check_labels(labels);
        let mut inner = self.inner.lock().expect("registry lock");
        let fam = inner
            .families
            .entry(name.to_string())
            .or_insert_with(|| Family {
                help: help.to_string(),
                labels: labels.iter().map(|s| s.to_string()).collect(),
                data: FamilyData::Histogram {
                    bounds: bounds.clone(),
                    children: BTreeMap::new(),
                },
            });
        assert_family(name, fam, "histogram", labels);
        if let FamilyData::Histogram { bounds: have, .. } = &fam.data {
            assert_eq!(
                have, &bounds,
                "histogram {name:?} re-registered with different bounds"
            );
        }
        HistogramVec {
            inner: Arc::clone(&self.inner),
            name: name.to_string(),
        }
    }

    /// Register a scrape-time collector (see the module docs).
    pub fn register_collector<F>(&self, collect: F)
    where
        F: Fn(&mut CollectorBuf) + Send + Sync + 'static,
    {
        self.inner
            .lock()
            .expect("registry lock")
            .collectors
            .push(Box::new(collect));
    }

    /// Render the whole registry in Prometheus text format 0.0.4.
    ///
    /// Byte-deterministic for a fixed registry state; see the module docs.
    pub fn render(&self) -> String {
        let inner = self.inner.lock().expect("registry lock");
        let mut blocks: BTreeMap<String, String> = BTreeMap::new();
        for (name, fam) in &inner.families {
            blocks.insert(name.clone(), render_family(name, fam));
        }
        let mut buf = CollectorBuf::default();
        for collect in &inner.collectors {
            collect(&mut buf);
        }
        for fam in buf.families {
            if blocks.contains_key(&fam.name) {
                debug_assert!(false, "collector family {:?} collides", fam.name);
                continue;
            }
            blocks.insert(fam.name.clone(), render_collected(&fam));
        }
        let mut out = String::new();
        for block in blocks.values() {
            out.push_str(block);
        }
        out
    }
}

fn assert_family(name: &str, fam: &Family, kind: &str, labels: &[&str]) {
    assert_eq!(
        fam.data.kind(),
        kind,
        "metric {name:?} already registered as a {}",
        fam.data.kind()
    );
    assert!(
        fam.labels
            .iter()
            .map(String::as_str)
            .eq(labels.iter().copied()),
        "metric {name:?} already registered with labels {:?}, asked for {labels:?}",
        fam.labels
    );
}

macro_rules! vec_handle {
    ($(#[$doc:meta])* $handle:ident, $metric:ident, $variant:ident, $ctor:expr) => {
        $(#[$doc])*
        #[derive(Clone)]
        pub struct $handle {
            inner: Arc<Mutex<Inner>>,
            name: String,
        }

        impl $handle {
            /// The child metric for this label-value tuple (created on
            /// first use). The tuple length must match the family's label
            /// schema. Call sites on warm paths should cache the returned
            /// handle: the lookup takes the registry lock.
            pub fn with(&self, values: &[&str]) -> Arc<$metric> {
                let mut inner = self.inner.lock().expect("registry lock");
                let fam = inner
                    .families
                    .get_mut(&self.name)
                    .expect("family outlives its handles");
                assert_eq!(
                    fam.labels.len(),
                    values.len(),
                    "metric {:?} takes {} label(s), got {values:?}",
                    self.name,
                    fam.labels.len()
                );
                let key: Vec<String> = values.iter().map(|s| s.to_string()).collect();
                match &mut fam.data {
                    FamilyData::$variant(children) => {
                        Arc::clone(children.entry(key).or_insert_with(|| Arc::new($ctor)))
                    }
                    _ => unreachable!("kind checked at registration"),
                }
            }
        }
    };
}

vec_handle!(
    /// Handle to a labeled counter family.
    CounterVec,
    Counter,
    Counter,
    Counter::new()
);
vec_handle!(
    /// Handle to a labeled gauge family.
    GaugeVec,
    Gauge,
    Gauge,
    Gauge::new()
);

/// Handle to a labeled histogram family.
#[derive(Clone)]
pub struct HistogramVec {
    inner: Arc<Mutex<Inner>>,
    name: String,
}

impl HistogramVec {
    /// The child histogram for this label-value tuple (created on first
    /// use, sharing the family's bounds). Cache the handle on warm paths.
    pub fn with(&self, values: &[&str]) -> Arc<Histogram> {
        let mut inner = self.inner.lock().expect("registry lock");
        let fam = inner
            .families
            .get_mut(&self.name)
            .expect("family outlives its handles");
        assert_eq!(
            fam.labels.len(),
            values.len(),
            "metric {:?} takes {} label(s), got {values:?}",
            self.name,
            fam.labels.len()
        );
        let key: Vec<String> = values.iter().map(|s| s.to_string()).collect();
        match &mut fam.data {
            FamilyData::Histogram { bounds, children } => Arc::clone(
                children
                    .entry(key)
                    .or_insert_with(|| Arc::new(Histogram::with_bounds(bounds.clone()))),
            ),
            _ => unreachable!("kind checked at registration"),
        }
    }
}

// ---------------------------------------------------------------------------
// Collectors
// ---------------------------------------------------------------------------

/// One scrape-time sample value.
#[derive(Debug, Clone, Copy)]
enum SampleValue {
    U64(u64),
    F64(f64),
}

struct CollectedFamily {
    name: String,
    help: String,
    kind: &'static str,
    value: SampleValue,
}

/// Buffer a collector writes scrape-time families into.
#[derive(Default)]
pub struct CollectorBuf {
    families: Vec<CollectedFamily>,
}

impl CollectorBuf {
    fn push(&mut self, name: &str, help: &str, kind: &'static str, value: SampleValue) {
        check_name(name);
        self.families.push(CollectedFamily {
            name: name.to_string(),
            help: help.to_string(),
            kind,
            value,
        });
    }

    /// Append an unlabeled integer gauge family.
    pub fn gauge_u64(&mut self, name: &str, help: &str, value: u64) {
        self.push(name, help, "gauge", SampleValue::U64(value));
    }

    /// Append an unlabeled float gauge family.
    pub fn gauge_f64(&mut self, name: &str, help: &str, value: f64) {
        self.push(name, help, "gauge", SampleValue::F64(value));
    }
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

/// Escape a HELP string: backslash and newline.
fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Escape a label value: backslash, double quote, newline.
fn escape_label(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Format a fixed-point nanounit sum (`value × 1e9`) without a float
/// round-trip: integer part, then fractional digits with trailing zeros
/// trimmed.
fn format_nanos(n: u64) -> String {
    let whole = n / 1_000_000_000;
    let frac = n % 1_000_000_000;
    if frac == 0 {
        format!("{whole}")
    } else {
        let digits = format!("{frac:09}");
        format!("{whole}.{}", digits.trim_end_matches('0'))
    }
}

/// Format an `f64` for exposition. Rust's shortest-round-trip `Display`
/// is deterministic for a given value; `+Inf` follows the Prometheus
/// spelling.
fn format_f64(v: f64) -> String {
    if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// Render `{label="value",…}` for a child (empty string when unlabeled).
/// `extra` appends a final pair (the histogram `le` label).
fn label_block(names: &[String], values: &[String], extra: Option<(&str, &str)>) -> String {
    let mut pairs: Vec<String> = names
        .iter()
        .zip(values)
        .map(|(n, v)| format!("{n}=\"{}\"", escape_label(v)))
        .collect();
    if let Some((n, v)) = extra {
        pairs.push(format!("{n}=\"{}\"", escape_label(v)));
    }
    if pairs.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", pairs.join(","))
    }
}

fn render_family(name: &str, fam: &Family) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# HELP {name} {}", escape_help(&fam.help));
    let _ = writeln!(out, "# TYPE {name} {}", fam.data.kind());
    match &fam.data {
        FamilyData::Counter(children) => {
            for (values, c) in children {
                let labels = label_block(&fam.labels, values, None);
                let _ = writeln!(out, "{name}{labels} {}", c.get());
            }
        }
        FamilyData::Gauge(children) => {
            for (values, g) in children {
                let labels = label_block(&fam.labels, values, None);
                let _ = writeln!(out, "{name}{labels} {}", g.get());
            }
        }
        FamilyData::Histogram { children, .. } => {
            for (values, h) in children {
                let le_bounds = h.bounds();
                for (bound, cum) in le_bounds.iter().zip(h.cumulative()) {
                    let le = format_f64(*bound);
                    let labels = label_block(&fam.labels, values, Some(("le", &le)));
                    let _ = writeln!(out, "{name}_bucket{labels} {cum}");
                }
                let labels = label_block(&fam.labels, values, Some(("le", "+Inf")));
                let _ = writeln!(out, "{name}_bucket{labels} {}", h.count());
                let plain = label_block(&fam.labels, values, None);
                let _ = writeln!(out, "{name}_sum{plain} {}", format_nanos(h.sum_nanos()));
                let _ = writeln!(out, "{name}_count{plain} {}", h.count());
            }
        }
    }
    out
}

fn render_collected(fam: &CollectedFamily) -> String {
    let value = match fam.value {
        SampleValue::U64(v) => format!("{v}"),
        SampleValue::F64(v) => format_f64(v),
    };
    format!(
        "# HELP {n} {h}\n# TYPE {n} {k}\n{n} {value}\n",
        n = fam.name,
        h = escape_help(&fam.help),
        k = fam.kind,
    )
}

// ---------------------------------------------------------------------------
// The global registry and zero-cost lazy handles
// ---------------------------------------------------------------------------

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// Install (idempotently) and return the process-wide registry. Library
/// instrumentation behind [`LazyCounter`] handles becomes live — "armed"
/// — at this call; before it, every lazy handle is inert.
pub fn install() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

/// The process-wide registry, if [`install`] has been called. One atomic
/// load; `None` means telemetry is disarmed and instrumentation should
/// do nothing.
pub fn global() -> Option<&'static Registry> {
    GLOBAL.get()
}

/// A `static`-friendly counter handle for library crates: inert (one
/// atomic load, no RMW, no allocation) until the process installs the
/// global registry, after which the first use registers the family and
/// caches the child handle for the process lifetime.
///
/// ```
/// use dcr_telemetry::LazyCounter;
/// static FROBS: LazyCounter = LazyCounter::new("frobs_total", "Frobs frobbed.");
/// FROBS.inc();                 // no-op: registry not installed
/// dcr_telemetry::install();
/// FROBS.add(2);                // registers, then counts
/// assert_eq!(FROBS.get(), Some(2));
/// ```
pub struct LazyCounter {
    name: &'static str,
    help: &'static str,
    cell: OnceLock<Arc<Counter>>,
}

impl LazyCounter {
    /// A handle for the family `name` (registered on first armed use).
    pub const fn new(name: &'static str, help: &'static str) -> Self {
        Self {
            name,
            help,
            cell: OnceLock::new(),
        }
    }

    fn resolve(&self) -> Option<&Arc<Counter>> {
        let reg = global()?;
        Some(self.cell.get_or_init(|| reg.counter(self.name, self.help)))
    }

    /// Add `n` if armed; no-op (one relaxed load) otherwise.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = self.resolve() {
            c.add(n);
        }
    }

    /// Increment by one if armed.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value, or `None` while disarmed.
    pub fn get(&self) -> Option<u64> {
        self.resolve().map(|c| c.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_shares_atomics() {
        let reg = Registry::new();
        let a = reg.counter("x_total", "X.");
        let b = reg.counter("x_total", "X.");
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
    }

    #[test]
    #[should_panic(expected = "already registered as a counter")]
    fn kind_conflict_panics() {
        let reg = Registry::new();
        let _ = reg.counter("x_total", "X.");
        let _ = reg.gauge("x_total", "X.");
    }

    #[test]
    #[should_panic(expected = "already registered with labels")]
    fn label_schema_conflict_panics() {
        let reg = Registry::new();
        let _ = reg.counter_vec("x_total", "X.", &["a"]);
        let _ = reg.counter_vec("x_total", "X.", &["b"]);
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn bad_name_panics() {
        let _ = Registry::new().counter("2fast", "no");
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn le_label_is_reserved() {
        let _ = Registry::new().counter_vec("x_total", "X.", &["le"]);
    }

    #[test]
    fn name_validation() {
        assert!(valid_metric_name("dcr_server_requests_total"));
        assert!(valid_metric_name("_x:y"));
        assert!(!valid_metric_name(""));
        assert!(!valid_metric_name("9lives"));
        assert!(!valid_metric_name("a-b"));
        assert!(valid_label_name("route"));
        assert!(!valid_label_name("a:b"));
    }

    #[test]
    fn format_nanos_trims() {
        assert_eq!(format_nanos(0), "0");
        assert_eq!(format_nanos(1_000_000_000), "1");
        assert_eq!(format_nanos(104_500_000_000), "104.5");
        assert_eq!(format_nanos(1), "0.000000001");
    }

    #[test]
    fn collector_families_render_sorted_in() {
        let reg = Registry::new();
        reg.counter("zz_total", "Z.").inc();
        reg.register_collector(|buf| {
            buf.gauge_u64("aa_bytes", "A.", 7);
        });
        let text = reg.render();
        let aa = text.find("aa_bytes 7").expect("collected sample");
        let zz = text.find("zz_total 1").expect("registered sample");
        assert!(aa < zz, "families must merge in name order:\n{text}");
    }
}
