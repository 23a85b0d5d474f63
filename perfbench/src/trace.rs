//! The benchmark's own span recorder.
//!
//! `faultnet_obs` spans are flat (name → count and total), so they cannot
//! say how much of a parent's time its children took. The traced run
//! therefore records its own spans here, around the calls it makes into
//! each layer's public functions: name, layer, start, end and parent id.
//! Spans stay in memory and are written out once, at the end, in Chrome
//! trace form. A layer's self time is the sum over its spans of the span's
//! duration minus the part its child spans cover; the root spans (one per
//! pass) carry no layer, so their self time is the wall time no layer
//! accounts for.
//!
//! A disabled recorder does nothing, not even read the clock, so the
//! verification passes of untraced runs share the traced code path at no
//! cost.

use std::fmt::Write as _;
use std::time::Instant;

/// The repository's layers, one per crate the benchmark calls into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// Graph construction (`faultnet-topology`).
    Topology,
    /// Fault instances and churn schedules (`faultnet-faultmodel`).
    FaultModel,
    /// Sampling, censuses, conditioning, churn (`faultnet-percolation`).
    Percolation,
    /// Probe engine and routers (`faultnet-routing`).
    Routing,
    /// Tables and reports (`faultnet-experiments`, `faultnet-analysis`).
    Experiments,
    /// Query parsing, resolution, engine and caches (`faultnet-server`).
    Server,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 6] = [
        Layer::Topology,
        Layer::FaultModel,
        Layer::Percolation,
        Layer::Routing,
        Layer::Experiments,
        Layer::Server,
    ];

    /// The layer's metric prefix.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Topology => "topology",
            Layer::FaultModel => "faultmodel",
            Layer::Percolation => "percolation",
            Layer::Routing => "routing",
            Layer::Experiments => "experiments",
            Layer::Server => "server",
        }
    }
}

#[derive(Debug, Clone)]
struct SpanRecord {
    name: &'static str,
    layer: Option<Layer>,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Handle of an open span; pass it back to [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// An in-memory span recorder (see the module docs).
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<SpanRecord>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder that records.
    pub fn enabled() -> Self {
        Tracer {
            enabled: true,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder that does nothing.
    pub fn disabled() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::enabled()
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span. `layer` is `None` only
    /// for root spans.
    pub fn enter(&mut self, name: &'static str, layer: Option<Layer>) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(SpanRecord {
            name,
            layer,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes the span `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: SpanId) {
        if let Some(id) = id.0 {
            let end = self.now_ns();
            let popped = self.open.pop();
            assert_eq!(popped, Some(id), "spans must close innermost first");
            self.spans[id].end_ns = end;
        }
    }

    /// Runs `f` inside a span of `layer`.
    pub fn span<R>(&mut self, name: &'static str, layer: Layer, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name, Some(layer));
        let out = f();
        self.exit(id);
        out
    }

    /// Summed duration in seconds of every closed span called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .fold(0.0, |total, d| total + d)
    }

    /// Number of recorded spans.
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Moves every span of `other` into this recorder, shifted onto this
    /// recorder's clock.
    pub fn append(&mut self, other: Tracer) {
        let shift = other
            .epoch
            .checked_duration_since(self.epoch)
            .map_or(0, |d| d.as_nanos() as u64);
        let base = self.spans.len();
        self.spans
            .extend(other.spans.into_iter().map(|s| SpanRecord {
                parent: s.parent.map(|p| p + base),
                start_ns: s.start_ns + shift,
                end_ns: s.end_ns + shift,
                ..s
            }));
    }

    /// Per-layer self time in seconds, plus the self time of the root
    /// spans (the unattributed remainder), as `(per_layer, unattributed)`.
    pub fn self_times(&self) -> (Vec<(Layer, f64)>, f64) {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut per_layer: Vec<(Layer, f64)> = Layer::ALL.iter().map(|&l| (l, 0.0)).collect();
        let mut unattributed = 0.0;
        for (span, children) in self.spans.iter().zip(&child_ns) {
            let own = (span.end_ns - span.start_ns).saturating_sub(*children) as f64 * 1e-9;
            match span.layer {
                Some(layer) => {
                    let slot = per_layer
                        .iter_mut()
                        .find(|(l, _)| *l == layer)
                        .expect("every layer has a slot");
                    slot.1 += own;
                }
                None => unattributed += own,
            }
        }
        (per_layer, unattributed)
    }

    /// The spans in Chrome trace-event form (complete `"X"` events, times
    /// in microseconds; `args.parent` carries the parent span's id).
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (id, span) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1,\"args\":{{\"id\":{},\"parent\":{}}}}}",
                span.name,
                span.layer.map_or("root", Layer::name),
                span.start_ns as f64 * 1e-3,
                (span.end_ns - span.start_ns) as f64 * 1e-3,
                id,
                parent
            );
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut tracer = Tracer::enabled();
        let root = tracer.enter("pass", None);
        let outer = tracer.enter("outer", Some(Layer::Percolation));
        tracer.span("inner", Layer::Routing, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        tracer.exit(outer);
        tracer.exit(root);
        let (layers, unattributed) = tracer.self_times();
        let routing = layers.iter().find(|(l, _)| *l == Layer::Routing).unwrap().1;
        let perc = layers
            .iter()
            .find(|(l, _)| *l == Layer::Percolation)
            .unwrap()
            .1;
        assert!(routing >= 0.005);
        assert!(perc < routing);
        let total: f64 = layers.iter().map(|(_, s)| s).sum::<f64>() + unattributed;
        assert!((total - tracer.total_s("pass")).abs() < 1e-6);
        assert!(tracer.chrome_trace().contains("\"parent\":1"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::disabled();
        let id = tracer.enter("pass", None);
        tracer.exit(id);
        assert_eq!(tracer.total_s("pass"), 0.0);
    }
}
