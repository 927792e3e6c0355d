//! What the lexer promises at its edges: columns count characters, not
//! bytes; every Unicode whitespace character separates tokens; each
//! lexical error keeps its exact position and message; and `%%` with no
//! name after it is two moduli, which no expression accepts.

use cmm_parse::lexer::lex;
use cmm_parse::parse_module;
use cmm_parse::token::Tok;

/// The identifiers of a source with their `(line, column)`.
fn idents(src: &str) -> Vec<(String, u32, u32)> {
    lex(src)
        .expect("source lexes")
        .iter()
        .filter_map(|t| match &t.tok {
            Tok::Ident(s) => Some((s.to_string(), t.pos.line, t.pos.col)),
            _ => None,
        })
        .collect()
}

fn ident(name: &str, line: u32, col: u32) -> (String, u32, u32) {
    (name.to_string(), line, col)
}

/// The lexical error of a source, as `line:col: message`.
fn error(src: &str) -> String {
    lex(src).expect_err("source is rejected").to_string()
}

#[test]
fn columns_count_characters_after_non_ascii_text() {
    assert_eq!(idents("/* ü */ a"), vec![ident("a", 1, 9)]);
    assert_eq!(idents("/* ü\n ö */ x"), vec![ident("x", 2, 7)]);
    assert_eq!(idents("// ü ö\n  y"), vec![ident("y", 2, 3)]);
    assert_eq!(
        idents("a \"été\" b"),
        vec![ident("a", 1, 1), ident("b", 1, 9)]
    );
    assert_eq!(
        idents("s = \"日本\"; t"),
        vec![ident("s", 1, 1), ident("t", 1, 11)]
    );
}

#[test]
fn unicode_whitespace_separates_tokens() {
    // No-break space, em space, ideographic space, next line and
    // vertical tab: each is one column and none is a newline.
    assert_eq!(
        idents("a\u{00A0}b\u{2003}c\u{3000}d\u{0085}e\u{000B}f"),
        vec![
            ident("a", 1, 1),
            ident("b", 1, 3),
            ident("c", 1, 5),
            ident("d", 1, 7),
            ident("e", 1, 9),
            ident("f", 1, 11),
        ]
    );
    let m = parse_module("f(bits32\u{00A0}x)\u{2003}{ return (x); }").unwrap();
    assert!(m.proc("f").is_some());
}

#[test]
fn unterminated_comments_and_strings_point_at_their_start() {
    assert_eq!(error("a /* b"), "1:3: unterminated comment");
    assert_eq!(error("x\n  /* ü"), "2:3: unterminated comment");
    assert_eq!(error("a \"bc"), "1:3: unterminated string literal");
    assert_eq!(error("\u{00A0}\"ü"), "1:2: unterminated string literal");
}

#[test]
fn bad_escapes_point_past_the_escape() {
    assert_eq!(error("\"a\\qb\""), "1:5: bad string escape Some('q')");
    assert_eq!(error("\"\\é\""), "1:4: bad string escape Some('é')");
    assert_eq!(error("\"ab\\"), "1:5: bad string escape None");
}

#[test]
fn malformed_numbers_point_past_the_literal() {
    assert_eq!(error("0x"), "1:3: malformed hexadecimal literal");
    assert_eq!(error("0xg"), "1:3: malformed hexadecimal literal");
    assert_eq!(
        error("0x1_0000_0000_0000_0000"),
        "1:24: malformed hexadecimal literal"
    );
    assert_eq!(
        error("18446744073709551616"),
        "1:21: malformed integer literal"
    );
    assert_eq!(error("1.5e"), "1:5: malformed float literal");
    assert_eq!(error("7::bits12"), "1:10: unsupported width bits12");
    assert_eq!(error("7::bitsx"), "1:9: bad bits suffix");
    assert_eq!(error("7::float16"), "1:11: unsupported width float16");
    assert_eq!(error("7::word"), "1:8: unknown literal suffix ::word");
    assert_eq!(error("0x7::float32"), "1:13: hex literal with float suffix");
    assert_eq!(error("1.5::bits32"), "1:12: float literal with bits suffix");
}

#[test]
fn stray_characters_are_named_at_their_column() {
    assert_eq!(error("f @"), "1:3: unexpected character '@'");
    assert_eq!(error("/* ü */ é"), "1:9: unexpected character 'é'");
    assert_eq!(error("a\n\"ö\" é"), "2:5: unexpected character 'é'");
    assert_eq!(error("!x"), "1:2: expected `!=`");
}

#[test]
fn a_double_percent_without_a_name_is_two_moduli() {
    let toks: Vec<Tok> = lex("a %% 3").unwrap().into_iter().map(|t| t.tok).collect();
    assert_eq!(toks.len(), 5, "{toks:?}");
    assert!(matches!(toks[1], Tok::Percent) && matches!(toks[2], Tok::Percent));
    let e = parse_module("f(bits32 a) { return (a %% 3); }").unwrap_err();
    assert_eq!(e.to_string(), "1:26: expected an expression, found `%`");
}
