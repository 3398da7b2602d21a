//! Hierarchical stage-attribution profiler.
//!
//! A [`scope!`](crate::scope) records the wall time of a lexical region
//! against a `/`-separated stage path. Nested scopes extend the
//! enclosing scope's path, so `scope!("seal")` inside
//! `scope!("campaign/run/drain")` lands at `campaign/run/drain/seal`;
//! a scope opened with an empty per-thread stack uses its name as the
//! full path, so a `/`-separated name can root a stage anywhere.
//!
//! Recording is thread-local (one `Instant::now()` pair plus a map
//! update per scope — scopes are placed at coarse boundaries: campaign
//! phases, 8k-record drains, 64k-row seals, analysis passes) and merges into a
//! process-global table whenever a thread's outermost scope closes.
//! [`take_stages`] drains that table; [`stage_tree`] folds the flat
//! paths into a tree whose exclusive times are derived as
//! `incl − Σ children.incl` — robust to scopes crossing threads, at the
//! cost that on a multi-core host stage times are CPU-seconds, not
//! wall-clock (they can sum past the root).

use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::OnceLock;
use std::time::Instant;

/// Accumulated statistics for one stage path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageStat {
    /// Total inclusive wall nanoseconds.
    pub incl_ns: u64,
    /// Number of times the scope ran.
    pub count: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Globally enable or disable stage recording (the profiling on/off
/// fingerprint test uses this). Disabled scopes cost one relaxed load
/// and a branch.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Relaxed);
}

/// Whether stage recording is enabled.
pub fn enabled() -> bool {
    ENABLED.load(Relaxed)
}

struct TlState {
    /// Full paths of the open scopes, innermost last.
    stack: Vec<String>,
    table: HashMap<String, StageStat>,
}

thread_local! {
    static TL: RefCell<TlState> = RefCell::new(TlState {
        stack: Vec::new(),
        table: HashMap::new(),
    });
}

fn global_table() -> &'static Mutex<HashMap<String, StageStat>> {
    static TABLE: OnceLock<Mutex<HashMap<String, StageStat>>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(HashMap::new()))
}

fn flush_into_global(table: &mut HashMap<String, StageStat>) {
    if table.is_empty() {
        return;
    }
    let mut global = global_table().lock();
    for (path, stat) in table.drain() {
        let e = global.entry(path).or_default();
        e.incl_ns = e.incl_ns.wrapping_add(stat.incl_ns);
        e.count = e.count.wrapping_add(stat.count);
    }
}

/// RAII guard produced by [`scope!`](crate::scope); records on drop.
pub struct ScopeGuard {
    start: Option<Instant>,
}

/// Open a scope named `name` (prefer the [`scope!`](crate::scope)
/// macro). Returns a guard that records the elapsed wall time when
/// dropped.
pub fn enter(name: &'static str) -> ScopeGuard {
    if !enabled() {
        return ScopeGuard { start: None };
    }
    TL.with(|tl| {
        let mut tl = tl.borrow_mut();
        let path = match tl.stack.last() {
            Some(parent) => format!("{parent}/{name}"),
            None => name.to_string(),
        };
        tl.stack.push(path);
    });
    ScopeGuard {
        start: Some(Instant::now()),
    }
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let elapsed = start.elapsed().as_nanos() as u64;
        TL.with(|tl| {
            let mut tl = tl.borrow_mut();
            let Some(path) = tl.stack.pop() else { return };
            let stat = tl.table.entry(path).or_default();
            stat.incl_ns = stat.incl_ns.wrapping_add(elapsed);
            stat.count += 1;
            if tl.stack.is_empty() {
                let mut table = std::mem::take(&mut tl.table);
                drop(tl);
                flush_into_global(&mut table);
                // Hand the (now empty) map back to reuse its capacity.
                TL.with(|tl| {
                    let mut tl = tl.borrow_mut();
                    if tl.table.is_empty() {
                        tl.table = table;
                    }
                });
            }
        });
    }
}

/// Open a stage scope for the rest of the lexical block.
///
/// ```
/// # use telemetry::scope;
/// {
///     scope!("campaign/run");
///     // ... epoch work; nested scope!("drain") records at
///     //     campaign/run/drain ...
/// }
/// ```
#[macro_export]
macro_rules! scope {
    ($name:expr) => {
        let _telemetry_scope_guard = $crate::profile::enter($name);
    };
}

/// Drain the global stage table (flushing the calling thread first),
/// returning `(path, stat)` pairs in unspecified order. Other threads
/// flush themselves whenever their outermost scope closes, so this sees
/// every finished scope in the process.
pub fn take_stages() -> Vec<(String, StageStat)> {
    TL.with(|tl| {
        let mut tl = tl.borrow_mut();
        let mut table = std::mem::take(&mut tl.table);
        drop(tl);
        flush_into_global(&mut table);
    });
    let mut global = global_table().lock();
    let mut out: Vec<(String, StageStat)> = global.drain().collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// Discard all recorded stages (calling thread and global table).
pub fn reset_stages() {
    let _ = take_stages();
}

/// One node of the folded stage tree.
#[derive(Debug, Clone, PartialEq)]
pub struct StageNode {
    /// Last path segment.
    pub name: String,
    /// Full `/`-separated path.
    pub path: String,
    /// Inclusive wall nanoseconds.
    pub incl_ns: u64,
    /// `incl_ns − Σ children.incl_ns`, clamped at zero.
    pub excl_ns: u64,
    /// Times the scope ran (0 for implied intermediate nodes).
    pub count: u64,
    /// Child stages, heaviest first.
    pub children: Vec<StageNode>,
}

/// Fold flat `(path, stat)` pairs into root trees, heaviest-first at
/// every level. Intermediate paths that were never scoped directly
/// (e.g. `campaign/run` when only `campaign/run/drain` recorded) are
/// materialized with `incl_ns` equal to the sum of their children.
pub fn stage_tree(stages: &[(String, StageStat)]) -> Vec<StageNode> {
    fn insert_segs(roots: &mut Vec<StageNode>, segs: &[&str], prefix: &str, stat: StageStat) {
        let Some((first, rest)) = segs.split_first() else {
            return;
        };
        let path = if prefix.is_empty() {
            (*first).to_string()
        } else {
            format!("{prefix}/{first}")
        };
        let node = match roots.iter_mut().position(|n| n.name == *first) {
            Some(i) => &mut roots[i],
            None => {
                roots.push(StageNode {
                    name: (*first).to_string(),
                    path: path.clone(),
                    incl_ns: 0,
                    excl_ns: 0,
                    count: 0,
                    children: Vec::new(),
                });
                roots.last_mut().expect("just pushed")
            }
        };
        if rest.is_empty() {
            node.incl_ns = node.incl_ns.wrapping_add(stat.incl_ns);
            node.count = node.count.wrapping_add(stat.count);
        } else {
            insert_segs(&mut node.children, rest, &path, stat);
        }
    }

    fn finalize(node: &mut StageNode) {
        for c in &mut node.children {
            finalize(c);
        }
        let child_sum: u64 = node.children.iter().map(|c| c.incl_ns).sum();
        if node.count == 0 {
            // Implied intermediate node: its time is exactly its
            // children's.
            node.incl_ns = child_sum;
        }
        node.excl_ns = node.incl_ns.saturating_sub(child_sum);
        node.children.sort_by_key(|c| std::cmp::Reverse(c.incl_ns));
    }

    let mut roots: Vec<StageNode> = Vec::new();
    for (path, stat) in stages {
        let segs: Vec<&str> = path.split('/').collect();
        insert_segs(&mut roots, &segs, "", *stat);
    }
    for r in &mut roots {
        finalize(r);
    }
    roots.sort_by_key(|r| std::cmp::Reverse(r.incl_ns));
    roots
}

/// Fraction of the named root's inclusive time covered by its direct
/// children (`None` when the root is absent or zero-time). The
/// `stage_tree_covers_campaign` test gates this at ≥0.9 for `campaign`.
pub fn root_child_coverage(tree: &[StageNode], root: &str) -> Option<f64> {
    let r = tree.iter().find(|n| n.name == root)?;
    if r.incl_ns == 0 {
        return None;
    }
    let child_sum: u64 = r.children.iter().map(|c| c.incl_ns).sum();
    Some(child_sum as f64 / r.incl_ns as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::PoisonError;

    /// The stage table and the enabled flag are process-global, and the
    /// test harness runs tests on parallel threads: the tests that record
    /// or drain stages hold this lock, so none drains another's scopes
    /// or records while another has recording switched off.
    static STAGES: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn nested_scopes_build_paths() {
        let _guard = STAGES.lock().unwrap_or_else(PoisonError::into_inner);
        reset_stages();
        {
            scope!("outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                scope!("inner");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        let stages = take_stages();
        let paths: Vec<&str> = stages.iter().map(|(p, _)| p.as_str()).collect();
        assert!(paths.contains(&"outer"), "paths: {paths:?}");
        assert!(paths.contains(&"outer/inner"), "paths: {paths:?}");
        let outer = &stages.iter().find(|(p, _)| p == "outer").unwrap().1;
        let inner = &stages.iter().find(|(p, _)| p == "outer/inner").unwrap().1;
        assert!(outer.incl_ns >= inner.incl_ns);
        assert_eq!(outer.count, 1);
    }

    #[test]
    fn slash_names_root_anywhere() {
        let _guard = STAGES.lock().unwrap_or_else(PoisonError::into_inner);
        reset_stages();
        {
            scope!("campaign/run"); // empty stack: name is the path
        }
        let stages = take_stages();
        assert!(stages.iter().any(|(p, _)| p == "campaign/run"));
    }

    #[test]
    fn tree_derives_exclusive_and_fills_gaps() {
        let stages = vec![
            (
                "campaign".to_string(),
                StageStat {
                    incl_ns: 100,
                    count: 1,
                },
            ),
            (
                "campaign/run/drain".to_string(),
                StageStat {
                    incl_ns: 30,
                    count: 4,
                },
            ),
            (
                "campaign/build".to_string(),
                StageStat {
                    incl_ns: 20,
                    count: 1,
                },
            ),
        ];
        let tree = stage_tree(&stages);
        assert_eq!(tree.len(), 1);
        let c = &tree[0];
        assert_eq!(c.name, "campaign");
        assert_eq!(c.incl_ns, 100);
        // children: implied `run` (30) + `build` (20) → excl 50.
        assert_eq!(c.excl_ns, 50);
        let run = c.children.iter().find(|n| n.name == "run").unwrap();
        assert_eq!(run.incl_ns, 30);
        assert_eq!(run.count, 0); // implied
        assert_eq!(run.children[0].name, "drain");
        assert_eq!(run.children[0].path, "campaign/run/drain");
        assert_eq!(root_child_coverage(&tree, "campaign"), Some(0.5));
    }

    #[test]
    fn disabled_scopes_record_nothing() {
        let _guard = STAGES.lock().unwrap_or_else(PoisonError::into_inner);
        reset_stages();
        set_enabled(false);
        {
            scope!("ghost");
        }
        set_enabled(true);
        assert!(take_stages().iter().all(|(p, _)| p != "ghost"));
    }
}
