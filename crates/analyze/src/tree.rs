//! A lightweight brace/statement tree on top of the lexer.
//!
//! The token rules in [`crate::rules`] are happy with a flat token
//! stream, but the concurrency rules in `crate::concurrency` need
//! to know *where* a statement lives: which block encloses it, and
//! therefore how long a `let`-bound lock guard acquired earlier in
//! that block stays live. This module recovers exactly that much
//! structure — functions, blocks, statements — from the token stream
//! without attempting real Rust parsing.
//!
//! The grammar is deliberately approximate:
//!
//! - A **function** is an `fn` keyword followed by an identifier; its
//!   body is the first `{` at paren/bracket depth zero (trait method
//!   signatures that end in `;` have no body and are skipped).
//! - A **statement** runs to the next `;` at block depth zero, or
//!   ends after a closing `}` unless the next token continues the
//!   expression (`else`, `.`, `?`, `,`, `)`, `]`, `;`, or a binary
//!   operator) — so `if`/`match`/`loop` tails and struct literals
//!   stay inside one statement.
//! - Child blocks are recorded with their token spans so callers can
//!   iterate a statement's *own* tokens (excluding nested blocks,
//!   whose statements are visited in their own right).
//!
//! Token spans are half-open index ranges into the `Lexed` token
//! vector; misclassifying an exotic construct degrades a concurrency
//! rule's precision, never the lint pass's soundness on other files.

use crate::lexer::{Token, TokenKind};

/// One function item: name, declaration line, and body block.
#[derive(Debug)]
pub struct FnTree {
    /// The function's identifier (not its full path).
    pub name: String,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// The body block.
    pub body: Block,
}

/// A brace-delimited block: `{ ... }`.
#[derive(Debug)]
pub struct Block {
    /// Token index of the opening `{`.
    pub start: usize,
    /// One past the token index of the closing `}`.
    pub end: usize,
    /// The statements inside, in source order.
    pub stmts: Vec<Stmt>,
}

/// One statement, including any nested blocks it contains.
#[derive(Debug)]
pub struct Stmt {
    /// Token index of the first token.
    pub start: usize,
    /// One past the last token (includes the trailing `;` if any).
    pub end: usize,
    /// Line of the first token.
    pub first_line: u32,
    /// Line of the last token.
    pub last_line: u32,
    /// Nested blocks, in source order.
    pub blocks: Vec<Block>,
}

impl Stmt {
    /// Indices of the statement's own tokens: the span minus any
    /// tokens that belong to a nested block. Nested blocks' statements
    /// are visited separately, so scanning own tokens avoids
    /// attributing an inner statement's writes to the outer one
    /// (which would see the wrong set of live guards).
    pub fn own_token_indices(&self) -> impl Iterator<Item = usize> + '_ {
        let ranges: Vec<(usize, usize)> = self.blocks.iter().map(|b| (b.start, b.end)).collect();
        (self.start..self.end).filter(move |i| !ranges.iter().any(|&(s, e)| *i >= s && *i < e))
    }

    /// Whether the statement's line span covers `line`.
    #[must_use]
    pub fn covers_line(&self, line: u32) -> bool {
        self.first_line <= line && line <= self.last_line
    }
}

/// Extracts every function body in the token stream. Nested `fn`
/// items inside another body are folded into the outer function's
/// tree rather than listed separately.
#[must_use]
pub fn functions(tokens: &[Token]) -> Vec<FnTree> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let is_fn = tokens[i].is_ident("fn")
            && tokens
                .get(i + 1)
                .is_some_and(|t| t.kind == TokenKind::Ident);
        if !is_fn {
            i += 1;
            continue;
        }
        let name = tokens[i + 1].text.clone();
        let line = tokens[i].line;
        // Find the body `{` at paren/bracket depth zero; a `;` first
        // means a bodiless signature (trait method, extern decl).
        let mut j = i + 2;
        let mut depth = 0i32;
        let mut advanced = false;
        while j < tokens.len() {
            let t = &tokens[j];
            if t.is_punct("(") || t.is_punct("[") {
                depth += 1;
            } else if t.is_punct(")") || t.is_punct("]") {
                depth -= 1;
            } else if t.is_punct(";") && depth <= 0 {
                i = j + 1;
                advanced = true;
                break;
            } else if t.is_punct("{") && depth <= 0 {
                let (body, next) = parse_block(tokens, j);
                out.push(FnTree { name, line, body });
                i = next;
                advanced = true;
                break;
            }
            j += 1;
        }
        if !advanced {
            break;
        }
    }
    out
}

/// Tokens that continue the current statement when they directly
/// follow a closing `}` (method chains, `if`/`else` tails, a block
/// used as an operand or argument).
fn continues_statement(tok: &Token) -> bool {
    if tok.is_ident("else") {
        return true;
    }
    if tok.kind != TokenKind::Punct {
        return false;
    }
    matches!(
        tok.text.as_str(),
        "." | "?"
            | ";"
            | ","
            | ")"
            | "]"
            | "=="
            | "!="
            | "<="
            | ">="
            | "&&"
            | "||"
            | "+"
            | "-"
            | "*"
            | "/"
            | "=>"
    )
}

/// Parses the block opening at `tokens[open]` (which must be `{`).
/// Returns the block and the index one past its closing `}`.
fn parse_block(tokens: &[Token], open: usize) -> (Block, usize) {
    let mut stmts = Vec::new();
    let mut i = open + 1;
    let mut start = i;
    let mut child_blocks: Vec<Block> = Vec::new();

    fn flush(
        tokens: &[Token],
        start: usize,
        end: usize,
        blocks: &mut Vec<Block>,
        stmts: &mut Vec<Stmt>,
    ) {
        if end <= start {
            blocks.clear();
            return;
        }
        stmts.push(Stmt {
            start,
            end,
            first_line: tokens[start].line,
            last_line: tokens[end - 1].line,
            blocks: std::mem::take(blocks),
        });
    }

    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_punct("}") {
            flush(tokens, start, i, &mut child_blocks, &mut stmts);
            return (
                Block {
                    start: open,
                    end: i + 1,
                    stmts,
                },
                i + 1,
            );
        }
        if t.is_punct("{") {
            let (child, next) = parse_block(tokens, i);
            child_blocks.push(child);
            i = next;
            let cont = tokens.get(i).is_some_and(continues_statement);
            if !cont {
                flush(tokens, start, i, &mut child_blocks, &mut stmts);
                start = i;
            }
            continue;
        }
        if t.is_punct(";") {
            i += 1;
            flush(tokens, start, i, &mut child_blocks, &mut stmts);
            start = i;
            continue;
        }
        i += 1;
    }
    // Unterminated block (truncated file): flush what we have.
    flush(tokens, start, i, &mut child_blocks, &mut stmts);
    (
        Block {
            start: open,
            end: i,
            stmts,
        },
        i,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> Vec<FnTree> {
        functions(&lex(src).tokens)
    }

    #[test]
    fn finds_functions_and_statements() {
        let fns = parse("fn a() { x(); y(); }\nfn b(q: u32) -> u32 { q }\n");
        assert_eq!(fns.len(), 2);
        assert_eq!(fns[0].name, "a");
        assert_eq!(fns[0].body.stmts.len(), 2);
        assert_eq!(fns[1].name, "b");
        assert_eq!(fns[1].body.stmts.len(), 1);
    }

    #[test]
    fn trait_signatures_have_no_body() {
        let fns = parse("trait T { fn sig(&self) -> u32; fn has(&self) { body(); } }");
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].name, "has");
    }

    #[test]
    fn if_else_is_one_statement_with_two_blocks() {
        let fns = parse("fn f() { if a { b(); } else { c(); } d(); }");
        let body = &fns[0].body;
        assert_eq!(body.stmts.len(), 2);
        assert_eq!(body.stmts[0].blocks.len(), 2);
        assert_eq!(body.stmts[0].blocks[0].stmts.len(), 1);
    }

    #[test]
    fn let_block_tail_is_one_statement() {
        let fns = parse("fn f() { let v = { inner(); produce() }; use_it(v); }");
        let body = &fns[0].body;
        assert_eq!(body.stmts.len(), 2);
        assert_eq!(body.stmts[0].blocks.len(), 1);
        assert_eq!(body.stmts[0].blocks[0].stmts.len(), 2);
    }

    #[test]
    fn own_tokens_exclude_child_blocks() {
        let src = "fn f() { if cond { hidden(); } }";
        let lexed = lex(src);
        let fns = functions(&lexed.tokens);
        let stmt = &fns[0].body.stmts[0];
        let own: Vec<&str> = stmt
            .own_token_indices()
            .map(|i| lexed.tokens[i].text.as_str())
            .collect();
        assert!(own.contains(&"cond"));
        assert!(!own.contains(&"hidden"));
    }

    #[test]
    fn match_scrutinee_stays_in_statement() {
        let fns = parse("fn f() { match m.lock().kind { A => { a(); } B => b(), } done(); }");
        let body = &fns[0].body;
        assert_eq!(body.stmts.len(), 2);
        let own: usize = body.stmts[0].blocks.len();
        assert_eq!(own, 1); // the match body
    }

    #[test]
    fn nested_fn_folds_into_outer() {
        let fns = parse("fn outer() { fn inner() { x(); } inner(); }");
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].name, "outer");
    }

    #[test]
    fn unterminated_block_does_not_panic() {
        let fns = parse("fn f() { a(); b()");
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].body.stmts.len(), 2);
    }
}
