//! Lock-region model: which guards are live at each statement.
//!
//! Built on the statement tree from [`crate::tree`], this module
//! walks a function body tracking a stack of live lock guards and
//! invokes a visitor per statement with the guards live *at that
//! statement*. The concurrency rules in `crate::concurrency` are
//! all phrased over this walk.
//!
//! Acquisition patterns recognised (receiver is the identifier
//! immediately before the final `.`):
//!
//! - `recv.lock()` / `recv.read()` / `recv.write()` with **no
//!   arguments** — `Mutex`/`RwLock` (std or parking_lot). Requiring
//!   an empty argument list keeps `io::Read::read(&mut buf)` and
//!   `io::Write::write(&buf)` out of the model.
//! - `recv.get_or_init(...)` — `OnceLock` initialisation, which
//!   serialises racers exactly like a lock region.
//! - `recv.lock_foo()` / `recv.foo_lock()` — the workspace's helper
//!   convention (e.g. `Shared::lock_queue`); the lock name is the
//!   stripped suffix/prefix (`queue`).
//!
//! Lifetime model: a guard bound by `let g = ...` lives to the end of
//! the enclosing block, or until a `drop(g);` statement. An unbound
//! (temporary) guard lives for its statement only — including any
//! nested blocks, which matches Rust's temporary-lifetime rules for
//! `if let`/`match` scrutinees closely enough for linting.

use crate::lexer::{Token, TokenKind};
use crate::tree::{Block, FnTree, Stmt};

/// A guard that is live at the visited statement.
#[derive(Debug, Clone)]
pub struct LiveGuard {
    /// The lock's name (receiver identifier or helper suffix).
    pub lock: String,
    /// The `let` binding holding the guard, if any.
    pub var: Option<String>,
    /// Line of the acquisition.
    pub line: u32,
    /// Unique id of this acquisition within the function — two
    /// acquisitions of the same lock in one function are distinct
    /// lock *regions* (the raw material of the check-then-act rule).
    pub region: usize,
}

/// One "acquired while held" observation: `acquired` was taken while
/// `held` was live. Aggregated workspace-wide into the lock-order
/// graph.
#[derive(Debug, Clone)]
pub struct LockEdge {
    /// The lock already held.
    pub held: String,
    /// Line where the held lock was acquired.
    pub held_line: u32,
    /// The lock being acquired.
    pub acquired: String,
    /// Line of the inner acquisition.
    pub line: u32,
    /// Enclosing function name.
    pub func: String,
}

/// One recognised lock acquisition inside a statement.
#[derive(Debug)]
struct Acquisition {
    lock: String,
    line: u32,
}

/// Walks `func`, calling `visit(stmt, live_guards)` for every
/// statement and appending acquired-while-held edges to `edges`.
pub fn walk_fn(
    tokens: &[Token],
    func: &FnTree,
    edges: &mut Vec<LockEdge>,
    visit: &mut dyn FnMut(&Stmt, &[LiveGuard]),
) {
    let mut live: Vec<LiveGuard> = Vec::new();
    let mut next_region = 0usize;
    walk_block(
        tokens,
        &func.body,
        &func.name,
        &mut live,
        &mut next_region,
        edges,
        visit,
    );
}

#[allow(
    clippy::too_many_arguments,
    reason = "the recursive walk threads the lock state through every nested block"
)]
fn walk_block(
    tokens: &[Token],
    block: &Block,
    func: &str,
    live: &mut Vec<LiveGuard>,
    next_region: &mut usize,
    edges: &mut Vec<LockEdge>,
    visit: &mut dyn FnMut(&Stmt, &[LiveGuard]),
) {
    let base = live.len();
    for stmt in &block.stmts {
        // `drop(g);` ends the named guard early.
        if let Some(var) = drop_target(tokens, stmt) {
            if let Some(pos) = live.iter().rposition(|g| g.var.as_deref() == Some(var)) {
                live.remove(pos);
            }
            visit(stmt, live);
            continue;
        }

        let acqs = acquisitions(tokens, stmt);
        let bound = let_binding(tokens, stmt);
        let pre = live.len();
        for (idx, acq) in acqs.iter().enumerate() {
            for held in live.iter() {
                if held.lock != acq.lock {
                    edges.push(LockEdge {
                        held: held.lock.clone(),
                        held_line: held.line,
                        acquired: acq.lock.clone(),
                        line: acq.line,
                        func: func.to_owned(),
                    });
                }
            }
            let var = if idx == 0 { bound.clone() } else { None };
            live.push(LiveGuard {
                lock: acq.lock.clone(),
                var,
                line: acq.line,
                region: *next_region,
            });
            *next_region += 1;
        }

        visit(stmt, live);
        for child in &stmt.blocks {
            // Each branch sees the same entry state: a `drop(g)` in a
            // conditionally-taken block (shed path, early return) must
            // not end the guard for the parent or a sibling branch.
            let snapshot = live.clone();
            walk_block(tokens, child, func, live, next_region, edges, visit);
            *live = snapshot;
        }

        // Temporaries acquired by this statement die with it; a
        // `let`-bound guard survives to the end of the block.
        let pushed = live.split_off(pre.min(live.len()));
        for g in pushed {
            if g.var.is_some() {
                live.push(g);
            }
        }
    }
    live.truncate(base);
}

/// If the statement is exactly `drop(IDENT)` (plus `;`), the ident.
fn drop_target<'a>(tokens: &'a [Token], stmt: &Stmt) -> Option<&'a str> {
    let idx: Vec<usize> = stmt.own_token_indices().collect();
    if idx.len() < 4 {
        return None;
    }
    let t = |k: usize| &tokens[idx[k]];
    if t(0).is_ident("drop")
        && t(1).is_punct("(")
        && t(2).kind == TokenKind::Ident
        && t(3).is_punct(")")
    {
        return Some(tokens[idx[2]].text.as_str());
    }
    None
}

/// If the statement starts with `let [mut] IDENT =`, the ident.
fn let_binding(tokens: &[Token], stmt: &Stmt) -> Option<String> {
    let mut it = stmt.own_token_indices();
    let first = it.next()?;
    if !tokens[first].is_ident("let") {
        return None;
    }
    let mut k = it.next()?;
    if tokens[k].is_ident("mut") {
        k = it.next()?;
    }
    if tokens[k].kind != TokenKind::Ident {
        return None;
    }
    Some(tokens[k].text.clone())
}

/// Scans the statement's own tokens for lock acquisitions.
fn acquisitions(tokens: &[Token], stmt: &Stmt) -> Vec<Acquisition> {
    let idx: Vec<usize> = stmt.own_token_indices().collect();
    let mut out = Vec::new();
    for (pos, &i) in idx.iter().enumerate() {
        let t = &tokens[i];
        if t.kind != TokenKind::Ident || pos == 0 {
            continue;
        }
        if !tokens[idx[pos - 1]].is_punct(".") {
            continue;
        }
        let open = idx.get(pos + 1).map(|&j| &tokens[j]);
        if !open.is_some_and(|o| o.is_punct("(")) {
            continue;
        }
        let argless = idx.get(pos + 2).is_some_and(|&j| tokens[j].is_punct(")"));
        let name = t.text.as_str();
        let lock = match name {
            "lock" | "read" | "write" if argless => receiver(tokens, &idx, pos),
            "get_or_init" => receiver(tokens, &idx, pos),
            _ if argless && name.len() > 5 && name.starts_with("lock_") => {
                Some(name["lock_".len()..].to_owned())
            }
            _ if argless && name.len() > 5 && name.ends_with("_lock") => {
                Some(name[..name.len() - "_lock".len()].to_owned())
            }
            _ => None,
        };
        if let Some(lock) = lock {
            out.push(Acquisition { lock, line: t.line });
        }
    }
    out
}

/// The identifier directly before the `.` at `idx[pos - 1]`, if any:
/// `self.state.lock()` → `state`, `THRESHOLDS.read()` → `THRESHOLDS`.
fn receiver(tokens: &[Token], idx: &[usize], pos: usize) -> Option<String> {
    if pos < 2 {
        return None;
    }
    let t = &tokens[idx[pos - 2]];
    if t.kind == TokenKind::Ident && !t.is_ident("self") {
        return Some(t.text.clone());
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::tree::functions;

    /// Runs the walk and returns, per visited statement, the first
    /// identifier of the statement plus the live lock names.
    fn trace(src: &str) -> (Vec<(String, Vec<String>)>, Vec<LockEdge>) {
        let lexed = lex(src);
        let fns = functions(&lexed.tokens);
        let mut edges = Vec::new();
        let mut out = Vec::new();
        for f in &fns {
            walk_fn(&lexed.tokens, f, &mut edges, &mut |stmt, live| {
                let first = stmt
                    .own_token_indices()
                    .next()
                    .map(|i| lexed.tokens[i].text.clone())
                    .unwrap_or_default();
                out.push((first, live.iter().map(|g| g.lock.clone()).collect()));
            });
        }
        (out, edges)
    }

    fn live_at<'a>(trace: &'a [(String, Vec<String>)], first: &str) -> &'a [String] {
        &trace.iter().find(|(f, _)| f == first).expect("stmt").1
    }

    #[test]
    fn let_bound_guard_lives_to_block_end() {
        let (t, _) = trace(
            "fn f(&self) { before(); let g = self.state.lock(); during(); } fn g(&self) { after(); }",
        );
        assert!(live_at(&t, "before").is_empty());
        assert_eq!(live_at(&t, "during"), ["state"]);
        assert!(live_at(&t, "after").is_empty());
    }

    #[test]
    fn drop_ends_guard_early() {
        let (t, _) = trace("fn f(&self) { let g = self.state.lock(); a(); drop(g); b(); }");
        assert_eq!(live_at(&t, "a"), ["state"]);
        assert!(live_at(&t, "b").is_empty());
    }

    #[test]
    fn temporary_guard_covers_its_statement_and_children() {
        let (t, _) =
            trace("fn f() { if let Some(v) = CACHE.read().get(&k) { inside(v); } outside(); }");
        assert_eq!(live_at(&t, "if"), ["CACHE"]);
        assert_eq!(live_at(&t, "inside"), ["CACHE"]);
        assert!(live_at(&t, "outside").is_empty());
    }

    #[test]
    fn helper_method_names_the_lock() {
        let (t, _) = trace("fn f(shared: &S) { let mut queue = shared.lock_queue(); q(); }");
        assert_eq!(live_at(&t, "q"), ["queue"]);
    }

    #[test]
    fn io_read_write_with_args_is_not_a_lock() {
        let (t, _) = trace("fn f(s: &mut T) { s.read(&mut buf); s.write(&buf); after(); }");
        for (_, live) in &t {
            assert!(live.is_empty(), "io read/write misread as lock: {t:?}");
        }
    }

    #[test]
    fn nested_acquisition_records_edge() {
        let (_, edges) =
            trace("fn f(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); }");
        assert_eq!(edges.len(), 1);
        assert_eq!(edges[0].held, "alpha");
        assert_eq!(edges[0].acquired, "beta");
        assert_eq!(edges[0].func, "f");
    }

    #[test]
    fn reacquiring_same_lock_makes_no_edge() {
        let (_, edges) = trace("fn f(&self) { let a = self.alpha.lock(); self.alpha.lock(); }");
        assert!(edges.is_empty());
    }

    #[test]
    fn once_lock_get_or_init_is_a_region() {
        let (t, _) = trace("fn f(cell: &C) { cell.once.get_or_init(|| build(key)); done(); }");
        assert_eq!(live_at(&t, "cell"), ["once"]);
        assert!(live_at(&t, "done").is_empty());
    }

    #[test]
    fn drop_in_branch_is_scoped_to_that_branch() {
        // The shed path drops the guard and bails; the fall-through
        // path still holds it.
        let (t, _) = trace(
            "fn f(&self) { let mut queue = self.lock_queue(); if full { drop(queue); shed(); return; } held(); drop(queue); after(); }",
        );
        assert!(live_at(&t, "shed").is_empty());
        assert_eq!(live_at(&t, "held"), ["queue"]);
        assert!(live_at(&t, "after").is_empty());
    }

    #[test]
    fn guard_bound_in_child_block_dies_with_it() {
        let (t, _) = trace(
            "fn f(&self) { let v = { let s = self.state.lock(); inner(); make() }; later(v); }",
        );
        assert_eq!(live_at(&t, "inner"), ["state"]);
        assert!(live_at(&t, "later").is_empty());
    }
}
