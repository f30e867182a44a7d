//! The benchmark's own span recorder: spans around its calls into each
//! crate's public functions, kept in memory and written out at exit.

use crate::json::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Rank thread (universe workloads) or client connection (serve).
    pub lane: usize,
    /// Spans of one operation share its sequence number; 0 for set-up.
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, within the same recorder.
    pub parent: Option<usize>,
}

/// One lane's spans. Each rank or client thread owns its recorder, so
/// recording takes no lock; `merge` joins them when the threads are done.
#[derive(Debug, Default)]
pub struct Recorder {
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn with_capacity(n: usize) -> Self {
        Recorder {
            spans: Vec::with_capacity(n),
        }
    }

    /// Record a finished span and return its index, for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        lane: usize,
        op: u64,
        (start_ns, end_ns): (u64, u64),
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name,
            lane,
            op,
            start_ns,
            end_ns,
            parent,
        });
        self.spans.len() - 1
    }

    /// Duration in µs of the first span called `name`.
    pub fn duration_us(&self, name: &str) -> Option<f64> {
        self.spans
            .iter()
            .find(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
    }
}

/// Join per-lane recorders into one list, re-basing parent indices.
pub fn merge(lanes: Vec<Recorder>) -> Vec<Span> {
    let mut all = Vec::with_capacity(lanes.iter().map(|r| r.spans.len()).sum());
    for lane in lanes {
        let base = all.len();
        all.extend(lane.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    all
}

pub fn to_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj([
                    ("id", Json::Num(id as f64)),
                    ("name", Json::str(s.name)),
                    ("lane", Json::Num(s.lane as f64)),
                    ("op", Json::Num(s.op as f64)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                ])
            })
            .collect(),
    )
}

/// Total length of the union of `[start, end]` intervals.
pub fn covered_ns(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut open: Option<(u64, u64)> = None;
    for &(start, end) in intervals.iter() {
        match open {
            Some((s, e)) if start <= e => open = Some((s, e.max(end))),
            Some((s, e)) => {
                total += e - s;
                open = Some((start, end));
            }
            None => open = Some((start, end)),
        }
    }
    total + open.map_or(0, |(s, e)| e - s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_rebases_parents() {
        let mut a = Recorder::default();
        let root = a.record("window", 0, 0, (0, 100), None);
        a.record("op", 0, 1, (10, 20), Some(root));
        let mut b = Recorder::default();
        let root = b.record("window", 1, 0, (0, 90), None);
        b.record("op", 1, 1, (5, 25), Some(root));
        assert_eq!(b.duration_us("op"), Some(0.02));
        let all = merge(vec![a, b]);
        assert_eq!(all[1].parent, Some(0));
        assert_eq!(all[3].parent, Some(2));
        assert_eq!(
            to_json(&all).to_string().matches("\"parent\":null").count(),
            2
        );
    }

    #[test]
    fn union_counts_overlap_once() {
        assert_eq!(covered_ns(&mut [(10, 20), (0, 5), (15, 30), (30, 31)]), 26);
        assert_eq!(covered_ns(&mut []), 0);
    }
}
