//! A recursive-descent SQL parser for the engine's SQL subset plus the SQL-PLE provenance
//! language extension.
//!
//! Supported statements: `CREATE TABLE`, `DROP TABLE`, `INSERT`, `CREATE VIEW`, `DROP VIEW` and
//! queries (`SELECT` with joins, subqueries in FROM, uncorrelated sublinks, GROUP BY / HAVING,
//! set operations, ORDER BY / LIMIT / OFFSET, `INTO`). SQL-PLE adds `SELECT PROVENANCE`, the
//! from-item annotations `BASERELATION` and `PROVENANCE (attrs)`.

use perm_algebra::DataType;

use crate::ast::*;
use crate::error::SqlError;
use crate::token::{tokenize, Token, TokenKind};

/// Words that terminate an implicit table alias.
const RESERVED_AFTER_TABLE: &[&str] = &[
    "FROM",
    "WHERE",
    "GROUP",
    "HAVING",
    "ORDER",
    "LIMIT",
    "OFFSET",
    "UNION",
    "INTERSECT",
    "EXCEPT",
    "ON",
    "JOIN",
    "INNER",
    "LEFT",
    "RIGHT",
    "FULL",
    "CROSS",
    "BASERELATION",
    "PROVENANCE",
    "INTO",
    "AND",
    "OR",
    "NOT",
    "AS",
    "SET",
    "VALUES",
    "WHEN",
    "THEN",
    "ELSE",
    "END",
    "ASC",
    "DESC",
    "IS",
    "IN",
    "BETWEEN",
    "LIKE",
];

/// Parse a single SQL statement.
pub fn parse_statement(sql: &str) -> Result<Statement, SqlError> {
    let mut parser = Parser::new(sql)?;
    let stmt = parser.parse_statement()?;
    parser.consume_semicolons();
    parser.expect_eof()?;
    Ok(stmt)
}

/// Parse a script of `;`-separated statements.
pub fn parse_statements(sql: &str) -> Result<Vec<Statement>, SqlError> {
    let mut parser = Parser::new(sql)?;
    let mut out = Vec::new();
    loop {
        parser.consume_semicolons();
        if parser.at_eof() {
            break;
        }
        out.push(parser.parse_statement()?);
    }
    Ok(out)
}

/// Parse a single query (`SELECT ...`).
pub fn parse_query(sql: &str) -> Result<Query, SqlError> {
    let mut parser = Parser::new(sql)?;
    let query = parser.parse_query()?;
    parser.consume_semicolons();
    parser.expect_eof()?;
    Ok(query)
}

/// Parse one `VALUES` row, `(e1, e2, ...)`, and nothing after it.
pub(crate) fn parse_row(sql: &str) -> Result<Vec<Expr>, SqlError> {
    let mut parser = Parser::new(sql)?;
    let row = parser.parse_row()?;
    parser.expect_eof()?;
    Ok(row)
}

struct Parser<'a> {
    input: &'a str,
    tokens: Vec<Token>,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Result<Parser<'a>, SqlError> {
        Ok(Parser { input, tokens: tokenize(input)?, pos: 0 })
    }

    // ----- token helpers -------------------------------------------------------------------

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos.min(self.tokens.len() - 1)].kind
    }

    fn peek_at(&self, offset: usize) -> &TokenKind {
        &self.tokens[(self.pos + offset).min(self.tokens.len() - 1)].kind
    }

    fn position(&self) -> usize {
        self.tokens[self.pos.min(self.tokens.len() - 1)].start
    }

    fn advance(&mut self) -> TokenKind {
        let kind = self.tokens[self.pos.min(self.tokens.len() - 1)].kind.clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        kind
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek(), TokenKind::Eof)
    }

    fn error(&self, message: impl Into<String>) -> SqlError {
        SqlError::Parse { message: message.into(), position: self.position() }
    }

    fn expect_eof(&self) -> Result<(), SqlError> {
        if self.at_eof() {
            Ok(())
        } else {
            Err(self.error(format!("unexpected trailing input near {:?}", self.peek())))
        }
    }

    fn consume_semicolons(&mut self) {
        while matches!(self.peek(), TokenKind::Semicolon) {
            self.advance();
        }
    }

    fn consume(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == kind {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<(), SqlError> {
        if self.consume(kind) {
            Ok(())
        } else {
            Err(self.error(format!("expected {kind:?}, found {:?}", self.peek())))
        }
    }

    fn peek_keyword(&self, word: &str) -> bool {
        self.peek().as_ident().is_some_and(|s| s.eq_ignore_ascii_case(word))
    }

    fn peek_keyword_at(&self, offset: usize, word: &str) -> bool {
        self.peek_at(offset).as_ident().is_some_and(|s| s.eq_ignore_ascii_case(word))
    }

    fn parse_keyword(&mut self, word: &str) -> bool {
        if self.peek_keyword(word) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn parse_keywords(&mut self, words: &[&str]) -> bool {
        let saved = self.pos;
        for w in words {
            if !self.parse_keyword(w) {
                self.pos = saved;
                return false;
            }
        }
        true
    }

    fn expect_keyword(&mut self, word: &str) -> Result<(), SqlError> {
        if self.parse_keyword(word) {
            Ok(())
        } else {
            Err(self.error(format!("expected keyword {word}, found {:?}", self.peek())))
        }
    }

    fn parse_identifier(&mut self) -> Result<String, SqlError> {
        match self.advance() {
            TokenKind::Ident(s) => Ok(s),
            other => Err(self.error(format!("expected identifier, found {other:?}"))),
        }
    }

    /// A possibly-qualified identifier (`a` or `a.b`).
    fn parse_object_name(&mut self) -> Result<String, SqlError> {
        let first = self.parse_identifier()?;
        if self.consume(&TokenKind::Dot) {
            let second = self.parse_identifier()?;
            Ok(format!("{first}.{second}"))
        } else {
            Ok(first)
        }
    }

    fn parse_string(&mut self) -> Result<String, SqlError> {
        match self.advance() {
            TokenKind::String(s) => Ok(s),
            other => Err(self.error(format!("expected string literal, found {other:?}"))),
        }
    }

    fn parse_u64(&mut self) -> Result<u64, SqlError> {
        match self.advance() {
            TokenKind::Number(n) => n
                .parse::<u64>()
                .map_err(|_| self.error(format!("expected an unsigned integer, found {n}"))),
            other => Err(self.error(format!("expected a number, found {other:?}"))),
        }
    }

    // ----- statements ----------------------------------------------------------------------

    fn parse_statement(&mut self) -> Result<Statement, SqlError> {
        if self.peek_keyword("CREATE") {
            self.advance();
            self.parse_keyword("OR"); // allow CREATE OR REPLACE VIEW (replace handled by caller)
            self.parse_keyword("REPLACE");
            if self.parse_keyword("TABLE") {
                return self.parse_create_table();
            }
            if self.parse_keyword("VIEW") {
                return self.parse_create_view();
            }
            return Err(self.error("expected TABLE or VIEW after CREATE"));
        }
        if self.peek_keyword("DROP") {
            self.advance();
            let is_view = if self.parse_keyword("TABLE") {
                false
            } else if self.parse_keyword("VIEW") {
                true
            } else {
                return Err(self.error("expected TABLE or VIEW after DROP"));
            };
            let if_exists = self.parse_keywords(&["IF", "EXISTS"]);
            let name = self.parse_identifier()?;
            return Ok(if is_view {
                Statement::DropView { name, if_exists }
            } else {
                Statement::DropTable { name, if_exists }
            });
        }
        if self.peek_keyword("INSERT") {
            self.advance();
            self.expect_keyword("INTO")?;
            return self.parse_insert();
        }
        if self.peek_keyword("SELECT") || matches!(self.peek(), TokenKind::LeftParen) {
            let query = self.parse_query()?;
            return Ok(Statement::Query(Box::new(query)));
        }
        Err(self.error(format!("unsupported statement starting with {:?}", self.peek())))
    }

    fn parse_create_table(&mut self) -> Result<Statement, SqlError> {
        let name = self.parse_identifier()?;
        self.expect(&TokenKind::LeftParen)?;
        let mut columns = Vec::new();
        loop {
            let col_name = self.parse_identifier()?;
            let data_type = self.parse_data_type()?;
            // Ignore simple column constraints.
            while self.parse_keyword("PRIMARY")
                || self.parse_keyword("KEY")
                || self.parse_keyword("NOT")
                || self.parse_keyword("NULL")
                || self.parse_keyword("UNIQUE")
            {}
            columns.push(ColumnDef { name: col_name, data_type });
            if !self.consume(&TokenKind::Comma) {
                break;
            }
        }
        self.expect(&TokenKind::RightParen)?;
        Ok(Statement::CreateTable { name, columns })
    }

    fn parse_create_view(&mut self) -> Result<Statement, SqlError> {
        let name = self.parse_identifier()?;
        self.expect_keyword("AS")?;
        let body_start = self.position();
        let query = self.parse_query()?;
        let body_end = self.position();
        let body_sql =
            self.input[body_start..body_end].trim().trim_end_matches(';').trim().to_string();
        Ok(Statement::CreateView { name, query: Box::new(query), body_sql })
    }

    fn parse_insert(&mut self) -> Result<Statement, SqlError> {
        let table = self.parse_identifier()?;
        let mut columns = None;
        if matches!(self.peek(), TokenKind::LeftParen) && !self.peek_keyword_at(1, "SELECT") {
            self.expect(&TokenKind::LeftParen)?;
            let mut cols = Vec::new();
            loop {
                cols.push(self.parse_identifier()?);
                if !self.consume(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(&TokenKind::RightParen)?;
            columns = Some(cols);
        }
        if self.parse_keyword("VALUES") {
            let mut rows = Vec::new();
            loop {
                rows.push(self.parse_row()?);
                if !self.consume(&TokenKind::Comma) {
                    break;
                }
            }
            return Ok(Statement::Insert { table, columns, source: InsertSource::Values(rows) });
        }
        let query = self.parse_query()?;
        Ok(Statement::Insert { table, columns, source: InsertSource::Query(Box::new(query)) })
    }

    /// One `VALUES` row: a parenthesised, comma-separated list of expressions.
    fn parse_row(&mut self) -> Result<Vec<Expr>, SqlError> {
        self.expect(&TokenKind::LeftParen)?;
        let mut row = Vec::new();
        loop {
            row.push(self.parse_expr()?);
            if !self.consume(&TokenKind::Comma) {
                break;
            }
        }
        self.expect(&TokenKind::RightParen)?;
        Ok(row)
    }

    fn parse_data_type(&mut self) -> Result<DataType, SqlError> {
        let name = self.parse_identifier()?.to_ascii_uppercase();
        let data_type = match name.as_str() {
            "INT" | "INTEGER" | "BIGINT" | "SMALLINT" => DataType::Int,
            "FLOAT" | "REAL" | "DOUBLE" | "DECIMAL" | "NUMERIC" => {
                self.parse_keyword("PRECISION");
                // Optional (precision, scale).
                if self.consume(&TokenKind::LeftParen) {
                    while !self.consume(&TokenKind::RightParen) {
                        self.advance();
                    }
                }
                DataType::Float
            }
            "TEXT" | "STRING" | "VARCHAR" | "CHAR" | "CHARACTER" => {
                if self.consume(&TokenKind::LeftParen) {
                    while !self.consume(&TokenKind::RightParen) {
                        self.advance();
                    }
                }
                DataType::Text
            }
            "BOOL" | "BOOLEAN" => DataType::Bool,
            "DATE" => DataType::Date,
            other => return Err(self.error(format!("unsupported data type {other}"))),
        };
        Ok(data_type)
    }

    // ----- queries -------------------------------------------------------------------------

    fn parse_query(&mut self) -> Result<Query, SqlError> {
        let body = self.parse_set_expr()?;
        let mut order_by = Vec::new();
        if self.parse_keywords(&["ORDER", "BY"]) {
            loop {
                let expr = self.parse_expr()?;
                let asc = if self.parse_keyword("DESC") {
                    false
                } else {
                    self.parse_keyword("ASC");
                    true
                };
                order_by.push(OrderByItem { expr, asc });
                if !self.consume(&TokenKind::Comma) {
                    break;
                }
            }
        }
        let mut limit = None;
        let mut offset = None;
        if self.parse_keyword("LIMIT") {
            limit = Some(self.parse_u64()?);
        }
        if self.parse_keyword("OFFSET") {
            offset = Some(self.parse_u64()?);
        }
        Ok(Query { body, order_by, limit, offset })
    }

    fn parse_set_expr(&mut self) -> Result<SetExpr, SqlError> {
        let mut left = self.parse_set_operand()?;
        loop {
            let op = if self.peek_keyword("UNION") {
                SetOperator::Union
            } else if self.peek_keyword("INTERSECT") {
                SetOperator::Intersect
            } else if self.peek_keyword("EXCEPT") {
                SetOperator::Except
            } else {
                break;
            };
            self.advance();
            let all = self.parse_keyword("ALL");
            self.parse_keyword("DISTINCT");
            let right = self.parse_set_operand()?;
            left = SetExpr::SetOperation { left: Box::new(left), right: Box::new(right), op, all };
        }
        Ok(left)
    }

    fn parse_set_operand(&mut self) -> Result<SetExpr, SqlError> {
        if matches!(self.peek(), TokenKind::LeftParen) {
            self.advance();
            let query = self.parse_query()?;
            self.expect(&TokenKind::RightParen)?;
            return Ok(SetExpr::Query(Box::new(query)));
        }
        Ok(SetExpr::Select(Box::new(self.parse_select()?)))
    }

    fn parse_select(&mut self) -> Result<Select, SqlError> {
        self.expect_keyword("SELECT")?;
        let distinct = self.parse_keyword("DISTINCT");
        // SQL-PLE: the PROVENANCE keyword directly after SELECT [DISTINCT].
        let provenance = self.parse_keyword("PROVENANCE");
        if provenance && self.peek_keyword("DISTINCT") {
            return Err(
                self.error("DISTINCT goes before PROVENANCE: SELECT DISTINCT PROVENANCE ...")
            );
        }

        let mut projection = Vec::new();
        loop {
            projection.push(self.parse_select_item()?);
            if !self.consume(&TokenKind::Comma) {
                break;
            }
        }

        let mut into = None;
        if self.parse_keyword("INTO") {
            into = Some(self.parse_identifier()?);
        }

        let mut from = Vec::new();
        if self.parse_keyword("FROM") {
            loop {
                from.push(self.parse_table_ref()?);
                if !self.consume(&TokenKind::Comma) {
                    break;
                }
            }
        }

        let selection = if self.parse_keyword("WHERE") { Some(self.parse_expr()?) } else { None };

        let mut group_by = Vec::new();
        if self.parse_keywords(&["GROUP", "BY"]) {
            loop {
                group_by.push(self.parse_expr()?);
                if !self.consume(&TokenKind::Comma) {
                    break;
                }
            }
        }

        let having = if self.parse_keyword("HAVING") { Some(self.parse_expr()?) } else { None };

        Ok(Select { distinct, provenance, projection, into, from, selection, group_by, having })
    }

    fn parse_select_item(&mut self) -> Result<SelectItem, SqlError> {
        if self.consume(&TokenKind::Star) {
            return Ok(SelectItem::Wildcard);
        }
        // alias.*
        if let TokenKind::Ident(name) = self.peek().clone() {
            if matches!(self.peek_at(1), TokenKind::Dot)
                && matches!(self.peek_at(2), TokenKind::Star)
            {
                self.advance();
                self.advance();
                self.advance();
                return Ok(SelectItem::QualifiedWildcard(name));
            }
        }
        let expr = self.parse_expr()?;
        let alias = if self.parse_keyword("AS") {
            Some(self.parse_identifier()?)
        } else if let TokenKind::Ident(name) = self.peek() {
            if !is_reserved(name) {
                let name = name.clone();
                self.advance();
                Some(name)
            } else {
                None
            }
        } else {
            None
        };
        Ok(SelectItem::Expr { expr, alias })
    }

    fn parse_table_ref(&mut self) -> Result<TableRef, SqlError> {
        let mut left = self.parse_table_factor()?;
        loop {
            let kind = if self.parse_keywords(&["CROSS", "JOIN"]) {
                JoinOperator::Cross
            } else if self.parse_keywords(&["LEFT", "OUTER", "JOIN"])
                || self.parse_keywords(&["LEFT", "JOIN"])
            {
                JoinOperator::LeftOuter
            } else if self.parse_keywords(&["RIGHT", "OUTER", "JOIN"])
                || self.parse_keywords(&["RIGHT", "JOIN"])
            {
                JoinOperator::RightOuter
            } else if self.parse_keywords(&["FULL", "OUTER", "JOIN"])
                || self.parse_keywords(&["FULL", "JOIN"])
            {
                JoinOperator::FullOuter
            } else if self.parse_keywords(&["INNER", "JOIN"]) || self.parse_keyword("JOIN") {
                JoinOperator::Inner
            } else {
                break;
            };
            let right = self.parse_table_factor()?;
            let condition = if kind == JoinOperator::Cross {
                None
            } else {
                self.expect_keyword("ON")?;
                Some(self.parse_expr()?)
            };
            left = TableRef::Join { left: Box::new(left), right: Box::new(right), kind, condition };
        }
        Ok(left)
    }

    fn parse_table_factor(&mut self) -> Result<TableRef, SqlError> {
        if matches!(self.peek(), TokenKind::LeftParen) {
            self.advance();
            let query = self.parse_query()?;
            self.expect(&TokenKind::RightParen)?;
            let annotation_before_alias = self.parse_from_annotation()?;
            self.parse_keyword("AS");
            let alias = self.parse_identifier()?;
            let annotation = match annotation_before_alias {
                Some(a) => Some(a),
                None => self.parse_from_annotation()?,
            };
            return Ok(TableRef::Subquery { query: Box::new(query), alias, annotation });
        }
        let name = self.parse_identifier()?;
        let mut alias = None;
        let mut annotation = self.parse_from_annotation()?;
        if self.parse_keyword("AS") {
            alias = Some(self.parse_identifier()?);
        } else if let TokenKind::Ident(next) = self.peek() {
            if !is_reserved(next) {
                let next = next.clone();
                self.advance();
                alias = Some(next);
            }
        }
        if annotation.is_none() {
            annotation = self.parse_from_annotation()?;
        }
        Ok(TableRef::Table { name, alias, annotation })
    }

    /// Parse an SQL-PLE from-item annotation (`BASERELATION` or `PROVENANCE (attrs)`).
    fn parse_from_annotation(&mut self) -> Result<Option<FromAnnotation>, SqlError> {
        if self.parse_keyword("BASERELATION") {
            return Ok(Some(FromAnnotation::BaseRelation));
        }
        if self.peek_keyword("PROVENANCE") && matches!(self.peek_at(1), TokenKind::LeftParen) {
            self.advance();
            self.expect(&TokenKind::LeftParen)?;
            let mut attrs = Vec::new();
            loop {
                attrs.push(self.parse_identifier()?);
                if !self.consume(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(&TokenKind::RightParen)?;
            return Ok(Some(FromAnnotation::Provenance(attrs)));
        }
        Ok(None)
    }

    // ----- expressions ---------------------------------------------------------------------

    fn parse_expr(&mut self) -> Result<Expr, SqlError> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> Result<Expr, SqlError> {
        let mut left = self.parse_and()?;
        while self.parse_keyword("OR") {
            let right = self.parse_and()?;
            left =
                Expr::BinaryOp { left: Box::new(left), op: BinaryOp::Or, right: Box::new(right) };
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<Expr, SqlError> {
        let mut left = self.parse_not()?;
        while self.parse_keyword("AND") {
            let right = self.parse_not()?;
            left =
                Expr::BinaryOp { left: Box::new(left), op: BinaryOp::And, right: Box::new(right) };
        }
        Ok(left)
    }

    fn parse_not(&mut self) -> Result<Expr, SqlError> {
        if self.peek_keyword("NOT") && !self.peek_keyword_at(1, "EXISTS") {
            self.advance();
            let inner = self.parse_not()?;
            return Ok(Expr::Not(Box::new(inner)));
        }
        self.parse_comparison()
    }

    fn parse_comparison(&mut self) -> Result<Expr, SqlError> {
        let left = self.parse_additive()?;

        // IS [NOT] NULL
        if self.parse_keyword("IS") {
            let negated = self.parse_keyword("NOT");
            self.expect_keyword("NULL")?;
            return Ok(Expr::IsNull { expr: Box::new(left), negated });
        }

        // [NOT] BETWEEN / IN / LIKE
        let negated = self.parse_keyword("NOT");
        if self.parse_keyword("BETWEEN") {
            let low = self.parse_additive()?;
            self.expect_keyword("AND")?;
            let high = self.parse_additive()?;
            return Ok(Expr::Between {
                expr: Box::new(left),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }
        if self.parse_keyword("IN") {
            self.expect(&TokenKind::LeftParen)?;
            if self.peek_keyword("SELECT") {
                let query = self.parse_query()?;
                self.expect(&TokenKind::RightParen)?;
                return Ok(Expr::InSubquery {
                    expr: Box::new(left),
                    query: Box::new(query),
                    negated,
                });
            }
            let mut list = Vec::new();
            loop {
                list.push(self.parse_expr()?);
                if !self.consume(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(&TokenKind::RightParen)?;
            return Ok(Expr::InList { expr: Box::new(left), list, negated });
        }
        if self.parse_keyword("LIKE") {
            let pattern = self.parse_additive()?;
            return Ok(Expr::Like { expr: Box::new(left), pattern: Box::new(pattern), negated });
        }
        if negated {
            return Err(self.error("expected BETWEEN, IN or LIKE after NOT"));
        }

        // Plain comparison operators.
        let op = match self.peek() {
            TokenKind::Eq => Some(BinaryOp::Eq),
            TokenKind::NotEq => Some(BinaryOp::NotEq),
            TokenKind::Lt => Some(BinaryOp::Lt),
            TokenKind::LtEq => Some(BinaryOp::LtEq),
            TokenKind::Gt => Some(BinaryOp::Gt),
            TokenKind::GtEq => Some(BinaryOp::GtEq),
            _ => None,
        };
        if let Some(op) = op {
            self.advance();
            let right = self.parse_additive()?;
            return Ok(Expr::BinaryOp { left: Box::new(left), op, right: Box::new(right) });
        }
        Ok(left)
    }

    fn parse_additive(&mut self) -> Result<Expr, SqlError> {
        let mut left = self.parse_multiplicative()?;
        loop {
            let op = match self.peek() {
                TokenKind::Plus => BinaryOp::Plus,
                TokenKind::Minus => BinaryOp::Minus,
                TokenKind::Concat => BinaryOp::Concat,
                _ => break,
            };
            self.advance();
            let right = self.parse_multiplicative()?;
            left = Expr::BinaryOp { left: Box::new(left), op, right: Box::new(right) };
        }
        Ok(left)
    }

    fn parse_multiplicative(&mut self) -> Result<Expr, SqlError> {
        let mut left = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                TokenKind::Star => BinaryOp::Multiply,
                TokenKind::Slash => BinaryOp::Divide,
                TokenKind::Percent => BinaryOp::Modulo,
                _ => break,
            };
            self.advance();
            let right = self.parse_unary()?;
            left = Expr::BinaryOp { left: Box::new(left), op, right: Box::new(right) };
        }
        Ok(left)
    }

    fn parse_unary(&mut self) -> Result<Expr, SqlError> {
        if self.consume(&TokenKind::Minus) {
            let inner = self.parse_unary()?;
            return Ok(Expr::UnaryMinus(Box::new(inner)));
        }
        if self.consume(&TokenKind::Plus) {
            return self.parse_unary();
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Result<Expr, SqlError> {
        match self.peek().clone() {
            TokenKind::Number(n) => {
                self.advance();
                Ok(Expr::Literal(Literal::Number(n)))
            }
            TokenKind::String(s) => {
                self.advance();
                Ok(Expr::Literal(Literal::String(s)))
            }
            TokenKind::Parameter(position) => {
                self.advance();
                Ok(Expr::Parameter(position))
            }
            TokenKind::LeftParen => {
                self.advance();
                if self.peek_keyword("SELECT") {
                    let query = self.parse_query()?;
                    self.expect(&TokenKind::RightParen)?;
                    Ok(Expr::ScalarSubquery(Box::new(query)))
                } else {
                    let inner = self.parse_expr()?;
                    self.expect(&TokenKind::RightParen)?;
                    Ok(Expr::Nested(Box::new(inner)))
                }
            }
            TokenKind::Ident(word) => self.parse_ident_expression(word),
            other => Err(self.error(format!("unexpected token {other:?} in expression"))),
        }
    }

    fn parse_ident_expression(&mut self, word: String) -> Result<Expr, SqlError> {
        let upper = word.to_ascii_uppercase();
        match upper.as_str() {
            "TRUE" => {
                self.advance();
                return Ok(Expr::Literal(Literal::Boolean(true)));
            }
            "FALSE" => {
                self.advance();
                return Ok(Expr::Literal(Literal::Boolean(false)));
            }
            "NULL" => {
                self.advance();
                return Ok(Expr::Literal(Literal::Null));
            }
            "DATE" => {
                if let TokenKind::String(_) = self.peek_at(1) {
                    self.advance();
                    let s = self.parse_string()?;
                    return Ok(Expr::Literal(Literal::Date(s)));
                }
            }
            "INTERVAL" => {
                self.advance();
                let value = self.parse_string()?;
                let unit = self.parse_identifier()?.to_ascii_lowercase();
                return Ok(Expr::Literal(Literal::Interval { value, unit }));
            }
            "CASE" => {
                self.advance();
                return self.parse_case();
            }
            "CAST" => {
                self.advance();
                self.expect(&TokenKind::LeftParen)?;
                let expr = self.parse_expr()?;
                self.expect_keyword("AS")?;
                let data_type = self.parse_data_type()?;
                self.expect(&TokenKind::RightParen)?;
                return Ok(Expr::Cast { expr: Box::new(expr), data_type });
            }
            "EXTRACT" => {
                self.advance();
                self.expect(&TokenKind::LeftParen)?;
                let field = self.parse_identifier()?.to_ascii_lowercase();
                self.expect_keyword("FROM")?;
                let expr = self.parse_expr()?;
                self.expect(&TokenKind::RightParen)?;
                return Ok(Expr::Extract { field, expr: Box::new(expr) });
            }
            "EXISTS" => {
                self.advance();
                self.expect(&TokenKind::LeftParen)?;
                let query = self.parse_query()?;
                self.expect(&TokenKind::RightParen)?;
                return Ok(Expr::Exists { query: Box::new(query), negated: false });
            }
            "NOT" => {
                // NOT EXISTS reaches here via parse_not's look-ahead exception.
                self.advance();
                self.expect_keyword("EXISTS")?;
                self.expect(&TokenKind::LeftParen)?;
                let query = self.parse_query()?;
                self.expect(&TokenKind::RightParen)?;
                return Ok(Expr::Exists { query: Box::new(query), negated: true });
            }
            _ => {}
        }

        // Function call?
        if matches!(self.peek_at(1), TokenKind::LeftParen) {
            self.advance();
            self.expect(&TokenKind::LeftParen)?;
            let name = word.to_ascii_lowercase();
            if self.consume(&TokenKind::Star) {
                self.expect(&TokenKind::RightParen)?;
                return Ok(Expr::Function { name, args: vec![], distinct: false, star: true });
            }
            let distinct = self.parse_keyword("DISTINCT");
            let mut args = Vec::new();
            if !self.consume(&TokenKind::RightParen) {
                loop {
                    args.push(self.parse_expr()?);
                    if !self.consume(&TokenKind::Comma) {
                        break;
                    }
                }
                self.expect(&TokenKind::RightParen)?;
            }
            return Ok(Expr::Function { name, args, distinct, star: false });
        }

        // Plain (possibly qualified) identifier.
        let name = self.parse_object_name()?;
        Ok(Expr::Identifier(name))
    }

    fn parse_case(&mut self) -> Result<Expr, SqlError> {
        let operand =
            if self.peek_keyword("WHEN") { None } else { Some(Box::new(self.parse_expr()?)) };
        let mut branches = Vec::new();
        while self.parse_keyword("WHEN") {
            let when = self.parse_expr()?;
            self.expect_keyword("THEN")?;
            let then = self.parse_expr()?;
            branches.push((when, then));
        }
        let else_expr =
            if self.parse_keyword("ELSE") { Some(Box::new(self.parse_expr()?)) } else { None };
        self.expect_keyword("END")?;
        if branches.is_empty() {
            return Err(self.error("CASE expression requires at least one WHEN branch"));
        }
        Ok(Expr::Case { operand, branches, else_expr })
    }
}

fn is_reserved(word: &str) -> bool {
    RESERVED_AFTER_TABLE.iter().any(|w| w.eq_ignore_ascii_case(word))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_select() {
        let q = parse_query("SELECT name, numEmpl FROM shop WHERE numEmpl < 10").unwrap();
        let SetExpr::Select(select) = &q.body else { panic!("expected select") };
        assert_eq!(select.projection.len(), 2);
        assert!(select.selection.is_some());
        assert!(!select.provenance);
    }

    #[test]
    fn parses_select_provenance_keyword() {
        let q = parse_query("SELECT PROVENANCE name, sum(price) FROM shop, sales, items WHERE name=sName AND itemId = id GROUP BY name").unwrap();
        let SetExpr::Select(select) = &q.body else { panic!("expected select") };
        assert!(select.provenance);
        assert_eq!(select.from.len(), 3);
        assert_eq!(select.group_by.len(), 1);
    }

    #[test]
    fn parses_from_annotations() {
        let q = parse_query(
            "SELECT PROVENANCE total * 10 FROM totalItemPrice PROVENANCE (pId, pPrice)",
        )
        .unwrap();
        let SetExpr::Select(select) = &q.body else { panic!("expected select") };
        match &select.from[0] {
            TableRef::Table { name, annotation, .. } => {
                assert_eq!(name, "totalItemPrice");
                assert_eq!(
                    annotation,
                    &Some(FromAnnotation::Provenance(vec!["pId".into(), "pPrice".into()]))
                );
            }
            other => panic!("unexpected from item {other:?}"),
        }

        let q = parse_query(
            "SELECT PROVENANCE total * 10 FROM (SELECT sum(price) AS total FROM items) BASERELATION AS sub",
        )
        .unwrap();
        let SetExpr::Select(select) = &q.body else { panic!("expected select") };
        match &select.from[0] {
            TableRef::Subquery { alias, annotation, .. } => {
                assert_eq!(alias, "sub");
                assert_eq!(annotation, &Some(FromAnnotation::BaseRelation));
            }
            other => panic!("unexpected from item {other:?}"),
        }
    }

    #[test]
    fn parses_joins() {
        let q = parse_query(
            "SELECT * FROM a JOIN b ON a.x = b.y LEFT OUTER JOIN c ON b.y = c.z CROSS JOIN d",
        )
        .unwrap();
        let SetExpr::Select(select) = &q.body else { panic!("expected select") };
        let TableRef::Join { kind, left, .. } = &select.from[0] else { panic!("expected join") };
        assert_eq!(*kind, JoinOperator::Cross);
        let TableRef::Join { kind, left, .. } = left.as_ref() else { panic!("expected join") };
        assert_eq!(*kind, JoinOperator::LeftOuter);
        let TableRef::Join { kind, .. } = left.as_ref() else { panic!("expected join") };
        assert_eq!(*kind, JoinOperator::Inner);
    }

    #[test]
    fn parses_group_by_having_order_limit() {
        let q = parse_query(
            "SELECT sname, count(*) AS c FROM sales GROUP BY sname HAVING count(*) > 1 ORDER BY c DESC, sname LIMIT 5 OFFSET 2",
        )
        .unwrap();
        assert_eq!(q.order_by.len(), 2);
        assert!(!q.order_by[0].asc);
        assert!(q.order_by[1].asc);
        assert_eq!(q.limit, Some(5));
        assert_eq!(q.offset, Some(2));
        let SetExpr::Select(select) = &q.body else { panic!("expected select") };
        assert!(select.having.is_some());
    }

    #[test]
    fn parses_set_operations() {
        let q = parse_query("SELECT x FROM a UNION ALL SELECT x FROM b INTERSECT SELECT x FROM c")
            .unwrap();
        let SetExpr::SetOperation { op, all, .. } = &q.body else { panic!("expected set op") };
        assert_eq!(*op, SetOperator::Intersect);
        assert!(!*all);
    }

    #[test]
    fn parses_sublinks() {
        let q = parse_query(
            "SELECT name FROM shop WHERE numEmpl < 10 OR name IN (SELECT sName FROM sales)",
        )
        .unwrap();
        let SetExpr::Select(select) = &q.body else { panic!("expected select") };
        let Some(Expr::BinaryOp { op: BinaryOp::Or, right, .. }) = &select.selection else {
            panic!("expected OR predicate")
        };
        assert!(matches!(right.as_ref(), Expr::InSubquery { .. }));

        let q =
            parse_query("SELECT 1 WHERE EXISTS (SELECT * FROM t) AND NOT EXISTS (SELECT * FROM u)")
                .unwrap();
        let SetExpr::Select(select) = &q.body else { panic!("expected select") };
        let Some(Expr::BinaryOp { op: BinaryOp::And, left, right }) = &select.selection else {
            panic!("expected AND predicate")
        };
        assert!(matches!(left.as_ref(), Expr::Exists { negated: false, .. }));
        assert!(matches!(right.as_ref(), Expr::Exists { negated: true, .. }));

        let q = parse_query("SELECT x FROM t WHERE x > (SELECT avg(x) FROM t)").unwrap();
        let SetExpr::Select(select) = &q.body else { panic!("expected select") };
        let Some(Expr::BinaryOp { right, .. }) = &select.selection else {
            panic!("expected comparison")
        };
        assert!(matches!(right.as_ref(), Expr::ScalarSubquery(_)));
    }

    #[test]
    fn parses_date_interval_case_cast_extract() {
        let q = parse_query(
            "SELECT CASE WHEN d >= date '1995-01-01' THEN 1 ELSE 0 END, CAST(x AS FLOAT), EXTRACT(year FROM d), d + interval '3' month FROM t",
        )
        .unwrap();
        let SetExpr::Select(select) = &q.body else { panic!("expected select") };
        assert_eq!(select.projection.len(), 4);
    }

    #[test]
    fn parses_between_like_in_list() {
        let q = parse_query(
            "SELECT * FROM part WHERE p_size BETWEEN 1 AND 15 AND p_type LIKE 'PROMO%' AND p_brand NOT IN ('Brand#1', 'Brand#2')",
        )
        .unwrap();
        let SetExpr::Select(select) = &q.body else { panic!("expected select") };
        assert!(select.selection.is_some());
    }

    #[test]
    fn parses_statements_create_insert_drop_view() {
        let stmts = parse_statements(
            "CREATE TABLE items (id INT, price DECIMAL(10,2));\n\
             INSERT INTO items VALUES (1, 100), (2, 10);\n\
             CREATE VIEW totals AS SELECT sum(price) AS total FROM items;\n\
             DROP TABLE IF EXISTS scratch;",
        )
        .unwrap();
        assert_eq!(stmts.len(), 4);
        match &stmts[0] {
            Statement::CreateTable { name, columns } => {
                assert_eq!(name, "items");
                assert_eq!(columns[1].data_type, DataType::Float);
            }
            other => panic!("unexpected {other:?}"),
        }
        match &stmts[2] {
            Statement::CreateView { name, body_sql, .. } => {
                assert_eq!(name, "totals");
                assert!(body_sql.starts_with("SELECT"));
                assert!(!body_sql.contains(';'));
            }
            other => panic!("unexpected {other:?}"),
        }
        match &stmts[3] {
            Statement::DropTable { if_exists, .. } => assert!(*if_exists),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_select_into() {
        let q = parse_query("SELECT PROVENANCE name INTO stored_prov FROM shop").unwrap();
        let SetExpr::Select(select) = &q.body else { panic!("expected select") };
        assert_eq!(select.into.as_deref(), Some("stored_prov"));
    }

    #[test]
    fn parses_insert_from_query() {
        let stmt = parse_statement("INSERT INTO target SELECT * FROM source WHERE x > 3").unwrap();
        match stmt {
            Statement::Insert { source: InsertSource::Query(_), .. } => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_error_reports_position() {
        let err = parse_query("SELECT FROM WHERE").unwrap_err();
        assert!(matches!(err, SqlError::Parse { .. }));
    }

    #[test]
    fn aliases_and_qualified_wildcards() {
        let q = parse_query("SELECT s.*, i.price p FROM shop AS s, items i").unwrap();
        let SetExpr::Select(select) = &q.body else { panic!("expected select") };
        assert!(matches!(&select.projection[0], SelectItem::QualifiedWildcard(q) if q == "s"));
        assert!(
            matches!(&select.projection[1], SelectItem::Expr { alias: Some(a), .. } if a == "p")
        );
        assert!(matches!(&select.from[1], TableRef::Table { alias: Some(a), .. } if a == "i"));
    }
}
