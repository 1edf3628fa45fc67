//! Wall-clock spans recorded around calls into the configurator's layers.
//!
//! Spans stay in memory until the run ends. Each records its name, the
//! operation it belongs to, its parent and its start and end; a layer's
//! self time is its duration minus the part its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer function the span wraps, e.g. `mlp.fit`.
    pub name: &'static str,
    /// Operation the call belongs to; spans of one operation share it.
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Seconds since the recorder was created.
    pub start_s: f64,
    /// Seconds since the recorder was created.
    pub end_s: f64,
}

impl Span {
    /// Wall seconds between start and end.
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Collects spans; nesting follows the call structure of [`Recorder::span`].
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Tags the spans recorded from now on with operation `op`.
    pub fn begin_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Runs `f` inside a span named `name`; spans `f` opens become its
    /// children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let idx = self.spans.len();
        let start_s = self.epoch.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start_s,
            end_s: start_s,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_s = self.epoch.elapsed().as_secs_f64();
        out
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals, each clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            children[p].push((s.start_s.max(parent.start_s), s.end_s.min(parent.end_s)));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut intervals)| {
            intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut current: Option<(f64, f64)> = None;
            for (a, b) in intervals.into_iter().filter(|(a, b)| b > a) {
                current = match current {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = current {
                covered += cb - ca;
            }
            (s.duration_s() - covered).max(0.0)
        })
        .collect()
}

/// Time one operation spent in one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Summed span durations.
    pub total_s: f64,
    /// Summed self times.
    pub self_s: f64,
    /// Calls made.
    pub calls: usize,
}

/// Per layer name, per operation: the summed time of its spans.
pub fn by_layer(spans: &[Span]) -> BTreeMap<&'static str, BTreeMap<u64, LayerTime>> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, BTreeMap<u64, LayerTime>> = BTreeMap::new();
    for (s, self_s) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default().entry(s.op).or_default();
        t.total_s += s.duration_s();
        t.self_s += self_s;
        t.calls += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_s: f64, end_s: f64) -> Span {
        Span {
            name,
            op: 0,
            parent,
            start_s,
            end_s,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        // parent 0..10 with children 1..3 and 2..5 (overlapping: 4 s
        // covered) and 7..8; the grandchild 1.5..2 must not count against
        // the parent.
        let spans = vec![
            span("p", None, 0.0, 10.0),
            span("a", Some(0), 1.0, 3.0),
            span("g", Some(1), 1.5, 2.0),
            span("b", Some(0), 2.0, 5.0),
            span("c", Some(0), 7.0, 8.0),
        ];
        let selfs = self_times(&spans);
        assert!((selfs[0] - 5.0).abs() < 1e-12);
        assert!((selfs[1] - 1.5).abs() < 1e-12);
        assert!((selfs[2] - 0.5).abs() < 1e-12);
        assert!((selfs[3] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![span("p", None, 0.0, 2.0), span("c", Some(0), 1.0, 4.0)];
        assert!((self_times(&spans)[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn recorder_nests_and_groups_by_layer() {
        let mut rec = Recorder::new();
        rec.begin_op(3);
        let v = rec.span("outer", |rec| {
            rec.span("inner", |_| 1) + rec.span("inner", |_| 2)
        });
        assert_eq!(v, 3);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 3 && s.end_s >= s.start_s));
        let layers = by_layer(spans);
        assert_eq!(layers["inner"][&3].calls, 2);
        let outer = layers["outer"][&3];
        let inner = layers["inner"][&3];
        assert!((outer.self_s - (outer.total_s - inner.total_s)).abs() < 1e-9);
    }
}
