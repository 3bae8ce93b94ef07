//! Hierarchical wall-clock span tracing with per-thread buffers.
//!
//! Each thread accumulates its spans into a thread-local tree (no
//! cross-thread synchronization while a span is open). When a thread
//! exits — or when [`take_report`] runs on the calling thread — the local
//! tree is merged under a process-global mutex into a single
//! [`TraceReport`], combining nodes by name and summing call counts and
//! wall time. Spans opened on worker threads therefore appear as root
//! nodes of the merged tree (one tree per thread, merged at the root).
//!
//! Tracing is disabled unless `V6_TRACE` is set to `1`/`true` (or
//! [`set_enabled`] was called): [`span`] then returns an inert guard
//! after one relaxed atomic load.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Tri-state enable flag: 0 = not yet read from env, 1 = off, 2 = on.
static ENABLED: AtomicU8 = AtomicU8::new(0);

/// Is span tracing currently enabled?
///
/// The first call reads the `V6_TRACE` environment variable (`1` or
/// `true` enable tracing); subsequent calls are a single atomic load.
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => {
            let on = std::env::var("V6_TRACE")
                .map(|v| v == "1" || v.eq_ignore_ascii_case("true"))
                .unwrap_or(false);
            ENABLED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
            on
        }
    }
}

/// Force tracing on or off, overriding `V6_TRACE` (used by benches/tests).
pub fn set_enabled(on: bool) {
    ENABLED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// One node of a local (per-thread) span tree.
#[derive(Debug)]
struct LocalNode {
    name: &'static str,
    calls: u64,
    wall_ns: u64,
    children: Vec<usize>,
}

/// Per-thread span buffer: an arena of nodes plus the open-span stack.
#[derive(Debug, Default)]
struct LocalTree {
    nodes: Vec<LocalNode>,
    roots: Vec<usize>,
    stack: Vec<usize>,
}

impl LocalTree {
    /// Open a span named `name` under the current top of stack, reusing an
    /// existing sibling node with the same name when present.
    fn open(&mut self, name: &'static str) -> usize {
        let siblings = match self.stack.last() {
            Some(&parent) => &self.nodes[parent].children,
            None => &self.roots,
        };
        let found = siblings
            .iter()
            .copied()
            .find(|&i| self.nodes[i].name == name);
        let idx = match found {
            Some(i) => i,
            None => {
                let i = self.nodes.len();
                self.nodes.push(LocalNode {
                    name,
                    calls: 0,
                    wall_ns: 0,
                    children: Vec::new(),
                });
                match self.stack.last() {
                    Some(&parent) => self.nodes[parent].children.push(i),
                    None => self.roots.push(i),
                }
                i
            }
        };
        self.stack.push(idx);
        idx
    }

    /// Close the span `idx`, crediting `elapsed_ns` to it.
    fn close(&mut self, idx: usize, elapsed_ns: u64) {
        let node = &mut self.nodes[idx];
        node.calls += 1;
        node.wall_ns += elapsed_ns;
        // Guards drop LIFO under normal control flow; be lenient if an
        // outer guard was dropped early and pop through to `idx`.
        while let Some(top) = self.stack.pop() {
            if top == idx {
                break;
            }
        }
    }

    /// Convert the arena into an owned tree and hand it to the global
    /// merged report, leaving this buffer empty.
    fn flush(&mut self) {
        if self.nodes.is_empty() {
            return;
        }
        let roots = std::mem::take(&mut self.roots);
        let trees: Vec<TraceNode> = roots.iter().map(|&i| self.to_node(i)).collect();
        self.nodes.clear();
        self.stack.clear();
        let mut merged = MERGED.lock().expect("trace merge lock poisoned");
        merge_nodes(&mut merged, trees);
    }

    fn to_node(&self, idx: usize) -> TraceNode {
        let n = &self.nodes[idx];
        TraceNode {
            name: n.name.to_owned(),
            calls: n.calls,
            wall_ns: n.wall_ns,
            children: n.children.iter().map(|&c| self.to_node(c)).collect(),
        }
    }
}

impl Drop for LocalTree {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static LOCAL: RefCell<LocalTree> = RefCell::new(LocalTree::default());
}

/// Trees flushed from finished threads (and from [`take_report`] callers),
/// merged by name.
static MERGED: Mutex<Vec<TraceNode>> = Mutex::new(Vec::new());

/// Merge `src` trees into `dst`, combining nodes with equal names.
fn merge_nodes(dst: &mut Vec<TraceNode>, src: Vec<TraceNode>) {
    for node in src {
        match dst.iter_mut().find(|d| d.name == node.name) {
            Some(existing) => {
                existing.calls += node.calls;
                existing.wall_ns += node.wall_ns;
                merge_nodes(&mut existing.children, node.children);
            }
            None => dst.push(node),
        }
    }
}

/// RAII guard for an open span; the span closes (and its wall time is
/// recorded) when the guard drops. Inert when tracing is disabled.
///
/// Guards must be dropped on the thread that opened them.
#[must_use = "a span records nothing unless the guard is held to the end of the region"]
#[derive(Debug)]
pub struct SpanGuard {
    active: Option<(Instant, usize)>,
}

/// Open a span named `name` on the current thread.
///
/// When tracing is disabled (no `V6_TRACE=1`, no [`set_enabled`]) this is
/// a single atomic load returning an inert guard.
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { active: None };
    }
    let idx = LOCAL.with(|l| l.borrow_mut().open(name));
    SpanGuard {
        active: Some((Instant::now(), idx)),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((start, idx)) = self.active.take() {
            let elapsed = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            // try_with: the TLS buffer may already be gone during thread
            // teardown, in which case the span is silently dropped.
            let _ = LOCAL.try_with(|l| l.borrow_mut().close(idx, elapsed));
        }
    }
}

/// One node of a merged trace tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceNode {
    /// Span name as passed to [`span`].
    pub name: String,
    /// Times a span with this name closed at this tree position.
    pub calls: u64,
    /// Total wall time across all calls, in nanoseconds.
    pub wall_ns: u64,
    /// Child spans, sorted by name in a finished [`TraceReport`].
    pub children: Vec<TraceNode>,
}

impl TraceNode {
    /// Total wall time of direct children, in nanoseconds.
    pub fn child_wall_ns(&self) -> u64 {
        self.children.iter().map(|c| c.wall_ns).sum()
    }

    /// Wall time not attributed to any child span (saturating).
    pub fn self_wall_ns(&self) -> u64 {
        self.wall_ns.saturating_sub(self.child_wall_ns())
    }

    /// Direct child named `name`, if any.
    pub fn child(&self, name: &str) -> Option<&TraceNode> {
        self.children.iter().find(|c| c.name == name)
    }

    fn sort_recursive(&mut self) {
        self.children.sort_by(|a, b| a.name.cmp(&b.name));
        for c in &mut self.children {
            c.sort_recursive();
        }
    }

    fn render_into(&self, depth: usize, out: &mut String) {
        let ms = self.wall_ns as f64 / 1e6;
        out.push_str(&format!(
            "{:indent$}{name}  calls={calls}  wall={ms:.3}ms",
            "",
            indent = depth * 2,
            name = self.name,
            calls = self.calls,
        ));
        if !self.children.is_empty() {
            let self_ms = self.self_wall_ns() as f64 / 1e6;
            out.push_str(&format!("  self={self_ms:.3}ms"));
        }
        out.push('\n');
        for c in &self.children {
            c.render_into(depth + 1, out);
        }
    }
}

/// A merged span tree: per-span wall time, child rollups, call counts.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceReport {
    /// Root spans. Spans opened on worker threads merge in at this level
    /// (each thread contributes its own roots).
    pub roots: Vec<TraceNode>,
}

impl TraceReport {
    /// True when no spans were recorded.
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }

    /// Walk `path` (root name, then child names) to a node, if present.
    pub fn find(&self, path: &[&str]) -> Option<&TraceNode> {
        let (first, rest) = path.split_first()?;
        let mut node = self.roots.iter().find(|r| &r.name == first)?;
        for name in rest {
            node = node.child(name)?;
        }
        Some(node)
    }

    /// Render the tree as an indented text listing, two spaces per level.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for r in &self.roots {
            r.render_into(0, &mut out);
        }
        out
    }
}

/// Drain all spans recorded so far into a [`TraceReport`].
///
/// Flushes the calling thread's buffer plus everything already merged
/// from finished threads, then resets the merged state. Live threads
/// other than the caller keep their in-progress buffers until they exit —
/// join workers before reporting. Call this outside any open span, or the
/// open span's partial data is dropped.
pub fn take_report() -> TraceReport {
    let _ = LOCAL.try_with(|l| l.borrow_mut().flush());
    let mut merged = MERGED.lock().expect("trace merge lock poisoned");
    let mut roots = std::mem::take(&mut *merged);
    drop(merged);
    roots.sort_by(|a, b| a.name.cmp(&b.name));
    for r in &mut roots {
        r.sort_recursive();
    }
    TraceReport { roots }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Tracing state (the enable flag, the merged tree) is process-global,
    // so all tracing assertions live in this single #[test]: cargo runs
    // unit tests of one binary in parallel threads.
    #[test]
    fn spans_record_merge_and_disable() {
        set_enabled(true);
        let _ = take_report(); // discard anything earlier tests recorded

        {
            let _outer = span("outer");
            for _ in 0..3 {
                let _inner = span("inner");
            }
        }
        let handle = std::thread::spawn(|| {
            let _w = span("worker");
            let _n = span("nested");
        });
        handle.join().unwrap();

        let report = take_report();
        assert!(!report.is_empty());
        let outer = report.find(&["outer"]).expect("outer span");
        assert_eq!(outer.calls, 1);
        let inner = report.find(&["outer", "inner"]).expect("inner span");
        assert_eq!(inner.calls, 3);
        assert!(outer.wall_ns >= inner.wall_ns);
        assert!(outer.self_wall_ns() <= outer.wall_ns);
        // The worker thread's spans merge in as a separate root.
        let worker = report.find(&["worker"]).expect("worker root");
        assert_eq!(worker.calls, 1);
        assert_eq!(worker.child("nested").map(|n| n.calls), Some(1));
        // Roots and children are sorted by name.
        let names: Vec<&str> = report.roots.iter().map(|r| r.name.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
        // Render shows the hierarchy.
        let text = report.render();
        assert!(text.contains("outer  calls=1"));
        assert!(text.contains("  inner  calls=3"));

        // Draining leaves the report empty.
        assert!(take_report().is_empty());

        // Same-name spans merge across take_report generations too.
        {
            let _a = span("again");
        }
        {
            let _a = span("again");
        }
        assert_eq!(take_report().find(&["again"]).map(|n| n.calls), Some(2));

        // Disabled: inert guards, nothing recorded.
        set_enabled(false);
        assert!(!enabled());
        {
            let _g = span("ghost");
        }
        set_enabled(true);
        assert!(take_report().find(&["ghost"]).is_none());
        set_enabled(false);
    }
}
