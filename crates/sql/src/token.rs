//! The SQL lexer.
//!
//! Produces a flat token stream. Keywords are not distinguished from identifiers at the lexical
//! level; the parser matches identifier tokens case-insensitively against keywords, which keeps
//! the lexer small and allows keywords to be used as column names where unambiguous.

use crate::error::SqlError;

/// A single token with its byte offset in the input (used for error reporting and for slicing
/// out view definition text).
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// The token kind and payload.
    pub kind: TokenKind,
    /// Byte offset of the first character of the token in the original input.
    pub start: usize,
}

/// The kinds of tokens the lexer produces.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// An identifier or keyword (unquoted, case preserved) or a `"quoted"` identifier.
    Ident(String),
    /// A numeric literal (integer or decimal), kept as text.
    Number(String),
    /// A `'single quoted'` string literal with escapes resolved.
    String(String),
    /// A positional prepared-statement parameter (`$1`, `$2`, ...; the payload is the 1-based
    /// position as written).
    Parameter(usize),
    /// `(`
    LeftParen,
    /// `)`
    RightParen,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `;`
    Semicolon,
    /// `*`
    Star,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `=`
    Eq,
    /// `<>` or `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// `||` string concatenation
    Concat,
    /// End of input.
    Eof,
}

impl TokenKind {
    /// If this token is an identifier, return its text.
    pub fn as_ident(&self) -> Option<&str> {
        match self {
            TokenKind::Ident(s) => Some(s),
            _ => None,
        }
    }
}

/// Tokenize a SQL string.
pub fn tokenize(input: &str) -> Result<Vec<Token>, SqlError> {
    let bytes = input.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        let start = i;
        match c {
            c if c.is_whitespace() => {
                i += 1;
            }
            '-' if bytes.get(i + 1) == Some(&b'-') => {
                // Line comment.
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '(' => {
                tokens.push(Token { kind: TokenKind::LeftParen, start });
                i += 1;
            }
            ')' => {
                tokens.push(Token { kind: TokenKind::RightParen, start });
                i += 1;
            }
            ',' => {
                tokens.push(Token { kind: TokenKind::Comma, start });
                i += 1;
            }
            '.' => {
                tokens.push(Token { kind: TokenKind::Dot, start });
                i += 1;
            }
            ';' => {
                tokens.push(Token { kind: TokenKind::Semicolon, start });
                i += 1;
            }
            '*' => {
                tokens.push(Token { kind: TokenKind::Star, start });
                i += 1;
            }
            '+' => {
                tokens.push(Token { kind: TokenKind::Plus, start });
                i += 1;
            }
            '-' => {
                tokens.push(Token { kind: TokenKind::Minus, start });
                i += 1;
            }
            '/' => {
                tokens.push(Token { kind: TokenKind::Slash, start });
                i += 1;
            }
            '%' => {
                tokens.push(Token { kind: TokenKind::Percent, start });
                i += 1;
            }
            '=' => {
                tokens.push(Token { kind: TokenKind::Eq, start });
                i += 1;
            }
            '|' if bytes.get(i + 1) == Some(&b'|') => {
                tokens.push(Token { kind: TokenKind::Concat, start });
                i += 2;
            }
            '!' if bytes.get(i + 1) == Some(&b'=') => {
                tokens.push(Token { kind: TokenKind::NotEq, start });
                i += 2;
            }
            '<' => {
                if bytes.get(i + 1) == Some(&b'>') {
                    tokens.push(Token { kind: TokenKind::NotEq, start });
                    i += 2;
                } else if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token { kind: TokenKind::LtEq, start });
                    i += 2;
                } else {
                    tokens.push(Token { kind: TokenKind::Lt, start });
                    i += 1;
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token { kind: TokenKind::GtEq, start });
                    i += 2;
                } else {
                    tokens.push(Token { kind: TokenKind::Gt, start });
                    i += 1;
                }
            }
            '$' => {
                // Positional parameter: $1, $2, ...
                let mut digits = String::new();
                i += 1;
                while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                    digits.push(bytes[i] as char);
                    i += 1;
                }
                let position: usize = digits.parse().map_err(|_| SqlError::Lex {
                    message: "expected a parameter number after '$'".into(),
                    position: start,
                })?;
                if position == 0 {
                    return Err(SqlError::Lex {
                        message: "parameter numbers start at $1".into(),
                        position: start,
                    });
                }
                tokens.push(Token { kind: TokenKind::Parameter(position), start });
            }
            // Quoted text is sliced out of the input between its (ASCII) delimiters, so a
            // multi-byte character arrives whole.
            '\'' => {
                // String literal; '' escapes a quote.
                let mut value = String::new();
                loop {
                    let Some(len) = input[i + 1..].find('\'') else {
                        return Err(SqlError::Lex {
                            message: "unterminated string literal".into(),
                            position: start,
                        });
                    };
                    value.push_str(&input[i + 1..i + 1 + len]);
                    i += len + 2;
                    if bytes.get(i) != Some(&b'\'') {
                        break;
                    }
                    value.push('\'');
                }
                tokens.push(Token { kind: TokenKind::String(value), start });
            }
            '"' => {
                // Quoted identifier.
                let Some(len) = input[i + 1..].find('"') else {
                    return Err(SqlError::Lex {
                        message: "unterminated quoted identifier".into(),
                        position: start,
                    });
                };
                let value = input[i + 1..i + 1 + len].to_string();
                tokens.push(Token { kind: TokenKind::Ident(value), start });
                i += len + 2;
            }
            c if c.is_ascii_digit() => {
                let mut value = String::new();
                let mut seen_dot = false;
                while i < bytes.len() {
                    let d = bytes[i] as char;
                    if d.is_ascii_digit() {
                        value.push(d);
                        i += 1;
                    } else if d == '.'
                        && !seen_dot
                        && bytes.get(i + 1).map(|b| (*b as char).is_ascii_digit()).unwrap_or(false)
                    {
                        seen_dot = true;
                        value.push(d);
                        i += 1;
                    } else {
                        break;
                    }
                }
                tokens.push(Token { kind: TokenKind::Number(value), start });
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut value = String::new();
                while i < bytes.len() {
                    let d = bytes[i] as char;
                    if d.is_ascii_alphanumeric() || d == '_' {
                        value.push(d);
                        i += 1;
                    } else {
                        break;
                    }
                }
                tokens.push(Token { kind: TokenKind::Ident(value), start });
            }
            _ => {
                // Name the character typed, not its first UTF-8 byte.
                let other = input[i..].chars().next().unwrap_or(c);
                return Err(SqlError::Lex {
                    message: format!("unexpected character '{other}'"),
                    position: start,
                });
            }
        }
    }
    tokens.push(Token { kind: TokenKind::Eof, start: bytes.len() });
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(sql: &str) -> Vec<TokenKind> {
        tokenize(sql).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn tokenizes_simple_select() {
        let k = kinds("SELECT a, b FROM t WHERE a >= 10");
        assert_eq!(k[0], TokenKind::Ident("SELECT".into()));
        assert!(k.contains(&TokenKind::Comma));
        assert!(k.contains(&TokenKind::GtEq));
        assert!(k.contains(&TokenKind::Number("10".into())));
        assert_eq!(*k.last().unwrap(), TokenKind::Eof);
    }

    #[test]
    fn strings_and_escapes() {
        let k = kinds("SELECT 'it''s', \"Weird Col\"");
        assert!(k.contains(&TokenKind::String("it's".into())));
        assert!(k.contains(&TokenKind::Ident("Weird Col".into())));
    }

    #[test]
    fn non_ascii_text_arrives_whole() {
        let k = kinds("SELECT 'Zürich', 'l''Übersee', \"größe\"");
        assert!(k.contains(&TokenKind::String("Zürich".into())), "{k:?}");
        assert!(k.contains(&TokenKind::String("l'Übersee".into())), "{k:?}");
        assert!(k.contains(&TokenKind::Ident("größe".into())), "{k:?}");
        let err = tokenize("SELECT ä").unwrap_err().to_string();
        assert!(err.contains("unexpected character 'ä'"), "{err}");
    }

    #[test]
    fn numbers_with_decimals_and_qualified_names() {
        let k = kinds("t.price * 1.5");
        assert_eq!(
            k,
            vec![
                TokenKind::Ident("t".into()),
                TokenKind::Dot,
                TokenKind::Ident("price".into()),
                TokenKind::Star,
                TokenKind::Number("1.5".into()),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn comparison_operators() {
        let k = kinds("a <> b != c <= d >= e < f > g");
        assert_eq!(k.iter().filter(|t| **t == TokenKind::NotEq).count(), 2);
        assert!(k.contains(&TokenKind::LtEq));
        assert!(k.contains(&TokenKind::GtEq));
    }

    #[test]
    fn comments_are_skipped() {
        let k = kinds("SELECT 1 -- trailing comment\n + 2");
        assert_eq!(
            k,
            vec![
                TokenKind::Ident("SELECT".into()),
                TokenKind::Number("1".into()),
                TokenKind::Plus,
                TokenKind::Number("2".into()),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn unterminated_string_is_an_error() {
        assert!(matches!(tokenize("SELECT 'oops"), Err(SqlError::Lex { .. })));
    }

    #[test]
    fn token_positions_are_byte_offsets() {
        let tokens = tokenize("SELECT x").unwrap();
        assert_eq!(tokens[0].start, 0);
        assert_eq!(tokens[1].start, 7);
    }

    #[test]
    fn concat_operator() {
        let k = kinds("a || b");
        assert!(k.contains(&TokenKind::Concat));
    }

    #[test]
    fn positional_parameters() {
        let k = kinds("price > $1 AND name = $12");
        assert!(k.contains(&TokenKind::Parameter(1)));
        assert!(k.contains(&TokenKind::Parameter(12)));
        assert!(matches!(tokenize("price > $"), Err(SqlError::Lex { .. })));
        assert!(matches!(tokenize("price > $0"), Err(SqlError::Lex { .. })));
    }
}
