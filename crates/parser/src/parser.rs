//! Recursive-descent parsers for queries and policy expressions.

use crate::ast::{FromItem, QueryAst, SelectItem};
use crate::lexer::tokenize;
use crate::token::Token;
use geoqp_common::{
    value::days_from_civil, GeoError, LocationPattern, LocationSet, Result, TableRef, Value,
};
use geoqp_expr::{AggFunc, BinaryOp, ScalarExpr};
use geoqp_policy::{PolicyExpression, ShipAttrs};

/// Parse a `SELECT` query.
pub fn parse_query(sql: &str) -> Result<QueryAst> {
    let tokens = tokenize(sql)?;
    let mut p = Parser { tokens, pos: 0 };
    let q = p.query()?;
    p.expect_end()?;
    Ok(q)
}

/// Parse a policy expression
/// (`SHIP … [AS AGGREGATES …] FROM … TO … [WHERE …] [GROUP BY …]`).
pub fn parse_policy(text: &str) -> Result<PolicyExpression> {
    let tokens = tokenize(text)?;
    let mut p = Parser { tokens, pos: 0 };
    let e = p.policy()?;
    p.expect_end()?;
    Ok(e)
}

/// Parse a *negative* policy statement
/// (`DENY SHIP <attrs|*> FROM <table> TO <locations|*> [WHERE …]`),
/// expanded into positive grants by
/// [`expand_denials`](geoqp_policy::expand_denials).
pub fn parse_denial(text: &str) -> Result<geoqp_policy::DenyExpression> {
    let tokens = tokenize(text)?;
    let mut p = Parser { tokens, pos: 0 };
    p.expect_kw("deny")?;
    let e = p.policy()?;
    p.expect_end()?;
    match e.kind {
        geoqp_policy::PolicyKind::Basic => Ok(geoqp_policy::DenyExpression::new(
            e.table,
            e.attrs,
            e.to,
            e.predicate,
        )),
        _ => Err(GeoError::Parse(
            "denials cannot carry AS AGGREGATES / GROUP BY clauses".into(),
        )),
    }
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek().is_some_and(|t| t.is_kw(kw)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(GeoError::Parse(format!(
                "expected `{kw}`, found {}",
                self.describe_here()
            )))
        }
    }

    fn eat(&mut self, tok: &Token) -> bool {
        if self.peek() == Some(tok) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, tok: &Token) -> Result<()> {
        if self.eat(tok) {
            Ok(())
        } else {
            Err(GeoError::Parse(format!(
                "expected `{tok}`, found {}",
                self.describe_here()
            )))
        }
    }

    fn describe_here(&self) -> String {
        match self.peek() {
            Some(t) => format!("`{t}`"),
            None => "end of input".to_string(),
        }
    }

    fn expect_end(&mut self) -> Result<()> {
        // Allow a trailing semicolon.
        self.eat(&Token::Semi);
        if self.pos == self.tokens.len() {
            Ok(())
        } else {
            Err(GeoError::Parse(format!(
                "unexpected trailing input at {}",
                self.describe_here()
            )))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            other => Err(GeoError::Parse(format!(
                "expected identifier, found {:?}",
                other
            ))),
        }
    }

    /// `name` or `qualifier.name`, joined with a dot and lower-cased.
    fn qualified_name(&mut self) -> Result<String> {
        let first = self.ident()?.to_ascii_lowercase();
        if self.eat(&Token::Dot) {
            let second = self.ident()?.to_ascii_lowercase();
            Ok(format!("{first}.{second}"))
        } else {
            Ok(first)
        }
    }

    // ---------------------------------------------------------- queries

    fn query(&mut self) -> Result<QueryAst> {
        self.expect_kw("select")?;
        let mut select = vec![self.select_item()?];
        while self.eat(&Token::Comma) {
            select.push(self.select_item()?);
        }

        self.expect_kw("from")?;
        let mut from = vec![self.parse_from_item()?];
        while self.eat(&Token::Comma) {
            from.push(self.parse_from_item()?);
        }

        let where_clause = if self.eat_kw("where") {
            Some(self.expr()?)
        } else {
            None
        };

        let mut group_by = Vec::new();
        if self.eat_kw("group") {
            self.expect_kw("by")?;
            group_by.push(self.qualified_name()?);
            while self.eat(&Token::Comma) {
                group_by.push(self.qualified_name()?);
            }
        }

        let mut order_by = Vec::new();
        if self.eat_kw("order") {
            self.expect_kw("by")?;
            loop {
                let col = self.qualified_name()?;
                let desc = if self.eat_kw("desc") {
                    true
                } else {
                    self.eat_kw("asc");
                    false
                };
                order_by.push((col, desc));
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }

        let limit = if self.eat_kw("limit") {
            match self.next() {
                Some(Token::Int(n)) if n >= 0 => Some(n as usize),
                other => {
                    return Err(GeoError::Parse(format!(
                        "LIMIT expects a non-negative integer, found {other:?}"
                    )))
                }
            }
        } else {
            None
        };

        Ok(QueryAst {
            select,
            from,
            where_clause,
            group_by,
            order_by,
            limit,
        })
    }

    fn select_item(&mut self) -> Result<SelectItem> {
        if self.eat(&Token::Star) {
            return Ok(SelectItem::Star);
        }
        // Aggregate call?
        if let Some(Token::Ident(name)) = self.peek() {
            if let Some(func) = AggFunc::parse(name) {
                if self.tokens.get(self.pos + 1) == Some(&Token::LParen) {
                    self.pos += 2; // consume name and `(`
                    let arg = if func == AggFunc::Count && self.eat(&Token::Star) {
                        None
                    } else {
                        Some(self.expr()?)
                    };
                    self.expect(&Token::RParen)?;
                    let alias = self.alias()?;
                    return Ok(SelectItem::Agg { func, arg, alias });
                }
            }
        }
        let expr = self.expr()?;
        let alias = self.alias()?;
        Ok(SelectItem::Scalar { expr, alias })
    }

    fn alias(&mut self) -> Result<Option<String>> {
        if self.eat_kw("as") {
            Ok(Some(self.ident()?.to_ascii_lowercase()))
        } else {
            Ok(None)
        }
    }

    fn parse_from_item(&mut self) -> Result<FromItem> {
        let name = self.qualified_name()?;
        let table = TableRef::parse(&name);
        // Optional alias: `AS c` or bare `c` (but not a clause keyword).
        let alias = if self.eat_kw("as") {
            Some(self.ident()?.to_ascii_lowercase())
        } else {
            match self.peek() {
                Some(Token::Ident(s))
                    if !["where", "group", "order", "limit", "on"]
                        .iter()
                        .any(|kw| s.eq_ignore_ascii_case(kw)) =>
                {
                    let a = s.to_ascii_lowercase();
                    self.pos += 1;
                    Some(a)
                }
                _ => None,
            }
        };
        Ok(FromItem { table, alias })
    }

    // ------------------------------------------------------ expressions

    fn expr(&mut self) -> Result<ScalarExpr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<ScalarExpr> {
        let mut lhs = self.and_expr()?;
        while self.eat_kw("or") {
            let rhs = self.and_expr()?;
            lhs = lhs.or(rhs);
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<ScalarExpr> {
        let mut lhs = self.not_expr()?;
        while self.eat_kw("and") {
            let rhs = self.not_expr()?;
            lhs = lhs.and(rhs);
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> Result<ScalarExpr> {
        if self.eat_kw("not") {
            Ok(self.not_expr()?.not())
        } else {
            self.comparison()
        }
    }

    fn comparison(&mut self) -> Result<ScalarExpr> {
        let lhs = self.additive()?;

        // Negated postfix forms: `x NOT LIKE / NOT IN / NOT BETWEEN`.
        let negated = if self.peek().is_some_and(|t| t.is_kw("not"))
            && self
                .tokens
                .get(self.pos + 1)
                .is_some_and(|t| t.is_kw("like") || t.is_kw("in") || t.is_kw("between"))
        {
            self.pos += 1;
            true
        } else {
            false
        };

        if self.eat_kw("like") {
            let pattern = match self.next() {
                Some(Token::Str(s)) => s,
                other => {
                    return Err(GeoError::Parse(format!(
                        "LIKE expects a string pattern, found {other:?}"
                    )))
                }
            };
            return Ok(ScalarExpr::Like {
                expr: Box::new(lhs),
                pattern,
                negated,
            });
        }
        if self.eat_kw("in") {
            self.expect(&Token::LParen)?;
            let mut list = vec![self.literal_value()?];
            while self.eat(&Token::Comma) {
                list.push(self.literal_value()?);
            }
            self.expect(&Token::RParen)?;
            return Ok(ScalarExpr::InList {
                expr: Box::new(lhs),
                list,
                negated,
            });
        }
        if self.eat_kw("between") {
            let low = self.additive()?;
            self.expect_kw("and")?;
            let high = self.additive()?;
            return Ok(ScalarExpr::Between {
                expr: Box::new(lhs),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }
        if negated {
            return Err(GeoError::Parse(
                "`NOT` must be followed by LIKE, IN, or BETWEEN here".into(),
            ));
        }
        if self.eat_kw("is") {
            let negated = self.eat_kw("not");
            self.expect_kw("null")?;
            return Ok(ScalarExpr::IsNull {
                expr: Box::new(lhs),
                negated,
            });
        }

        let op = match self.peek() {
            Some(Token::Eq) => Some(BinaryOp::Eq),
            Some(Token::NotEq) => Some(BinaryOp::NotEq),
            Some(Token::Lt) => Some(BinaryOp::Lt),
            Some(Token::LtEq) => Some(BinaryOp::LtEq),
            Some(Token::Gt) => Some(BinaryOp::Gt),
            Some(Token::GtEq) => Some(BinaryOp::GtEq),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let rhs = self.additive()?;
            return Ok(ScalarExpr::binary(op, lhs, rhs));
        }
        Ok(lhs)
    }

    fn additive(&mut self) -> Result<ScalarExpr> {
        let mut lhs = self.multiplicative()?;
        loop {
            if self.eat(&Token::Plus) {
                lhs = lhs.add(self.multiplicative()?);
            } else if self.eat(&Token::Minus) {
                lhs = lhs.sub(self.multiplicative()?);
            } else {
                return Ok(lhs);
            }
        }
    }

    fn multiplicative(&mut self) -> Result<ScalarExpr> {
        let mut lhs = self.unary()?;
        loop {
            if self.eat(&Token::Star) {
                lhs = lhs.mul(self.unary()?);
            } else if self.eat(&Token::Slash) {
                lhs = lhs.div(self.unary()?);
            } else {
                return Ok(lhs);
            }
        }
    }

    fn unary(&mut self) -> Result<ScalarExpr> {
        if self.eat(&Token::Minus) {
            let e = self.unary()?;
            // Fold negation of numeric literals.
            return Ok(match e {
                ScalarExpr::Literal(Value::Int64(i)) => ScalarExpr::lit(-i),
                ScalarExpr::Literal(Value::Float64(f)) => ScalarExpr::lit(-f),
                other => ScalarExpr::Unary {
                    op: geoqp_expr::UnaryOp::Neg,
                    expr: Box::new(other),
                },
            });
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<ScalarExpr> {
        match self.peek().cloned() {
            Some(Token::LParen) => {
                self.pos += 1;
                let e = self.expr()?;
                self.expect(&Token::RParen)?;
                Ok(e)
            }
            Some(Token::Int(i)) => {
                self.pos += 1;
                Ok(ScalarExpr::lit(i))
            }
            Some(Token::Float(f)) => {
                self.pos += 1;
                Ok(ScalarExpr::lit(f))
            }
            Some(Token::Str(s)) => {
                self.pos += 1;
                Ok(ScalarExpr::lit(Value::str(s)))
            }
            Some(Token::Ident(name)) => {
                if name.eq_ignore_ascii_case("date") {
                    // DATE '1995-01-15'
                    if let Some(Token::Str(_)) = self.tokens.get(self.pos + 1) {
                        self.pos += 1;
                        if let Some(Token::Str(s)) = self.next() {
                            return parse_date(&s).map(|d| ScalarExpr::lit(Value::Date(d)));
                        }
                        unreachable!("peeked string");
                    }
                }
                if name.eq_ignore_ascii_case("true") {
                    self.pos += 1;
                    return Ok(ScalarExpr::lit(true));
                }
                if name.eq_ignore_ascii_case("false") {
                    self.pos += 1;
                    return Ok(ScalarExpr::lit(false));
                }
                if name.eq_ignore_ascii_case("null") {
                    self.pos += 1;
                    return Ok(ScalarExpr::Literal(Value::Null));
                }
                let col = self.qualified_name()?;
                Ok(ScalarExpr::col(col))
            }
            other => Err(GeoError::Parse(format!(
                "expected expression, found {other:?}"
            ))),
        }
    }

    fn literal_value(&mut self) -> Result<Value> {
        match self.primary()? {
            ScalarExpr::Literal(v) => Ok(v),
            other => Err(GeoError::Parse(format!(
                "expected a literal, found expression {other}"
            ))),
        }
    }

    // ----------------------------------------------------------- policy

    fn policy(&mut self) -> Result<PolicyExpression> {
        self.expect_kw("ship")?;
        let attrs = if self.eat(&Token::Star) {
            ShipAttrs::Star
        } else {
            let mut list = vec![self.ident()?.to_ascii_lowercase()];
            while self.eat(&Token::Comma) {
                list.push(self.ident()?.to_ascii_lowercase());
            }
            ShipAttrs::list(list)
        };

        let mut functions = Vec::new();
        if self.eat_kw("as") {
            self.expect_kw("aggregates")?;
            loop {
                let name = self.ident()?;
                let f = AggFunc::parse(&name).ok_or_else(|| {
                    GeoError::Parse(format!("unknown aggregate function `{name}`"))
                })?;
                functions.push(f);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }

        self.expect_kw("from")?;
        let table = TableRef::parse(&self.qualified_name()?);
        // Multi-table expressions: `from t1, t2, …` (footnote 4; the
        // where clause then carries the join predicate).
        let mut joined_tables = Vec::new();
        while self.eat(&Token::Comma) {
            joined_tables.push(TableRef::parse(&self.qualified_name()?));
        }
        // Optional table alias (`from Customer C to …`), ignored; only
        // meaningful in the single-table form.
        if joined_tables.is_empty() {
            if let Some(Token::Ident(s)) = self.peek() {
                if !s.eq_ignore_ascii_case("to") {
                    self.pos += 1;
                }
            }
        }

        self.expect_kw("to")?;
        let to = if self.eat(&Token::Star) {
            LocationPattern::Star
        } else {
            let mut locs = vec![self.ident()?];
            while self.eat(&Token::Comma) {
                locs.push(self.ident()?);
            }
            LocationPattern::Set(LocationSet::from_iter(locs))
        };

        let predicate = if self.eat_kw("where") {
            Some(self.expr()?)
        } else {
            None
        };

        let mut group_by = Vec::new();
        if self.eat_kw("group") {
            self.expect_kw("by")?;
            group_by.push(self.ident()?.to_ascii_lowercase());
            while self.eat(&Token::Comma) {
                group_by.push(self.ident()?.to_ascii_lowercase());
            }
        }

        if functions.is_empty() {
            if !group_by.is_empty() {
                return Err(GeoError::Parse(
                    "GROUP BY in a policy expression requires AS AGGREGATES".into(),
                ));
            }
            Ok(PolicyExpression::basic(table, attrs, to, predicate)
                .with_joined_tables(joined_tables))
        } else {
            Ok(
                PolicyExpression::aggregate(table, attrs, functions, group_by, to, predicate)
                    .with_joined_tables(joined_tables),
            )
        }
    }
}

/// Parse an ISO date (`YYYY-MM-DD`) into days since 1970-01-01.
fn parse_date(s: &str) -> Result<i32> {
    let parts: Vec<&str> = s.split('-').collect();
    if parts.len() != 3 {
        return Err(GeoError::Parse(format!("bad date literal `{s}`")));
    }
    let y: i32 = parts[0]
        .parse()
        .map_err(|_| GeoError::Parse(format!("bad year in `{s}`")))?;
    let m: u32 = parts[1]
        .parse()
        .map_err(|_| GeoError::Parse(format!("bad month in `{s}`")))?;
    let d: u32 = parts[2]
        .parse()
        .map_err(|_| GeoError::Parse(format!("bad day in `{s}`")))?;
    if !(1..=12).contains(&m) || !(1..=31).contains(&d) {
        return Err(GeoError::Parse(format!("date out of range `{s}`")));
    }
    Ok(days_from_civil(y, m, d))
}

#[cfg(test)]
mod tests {
    use super::*;
    use geoqp_policy::PolicyKind;

    #[test]
    fn parses_paper_running_query() {
        let q = parse_query(
            "SELECT C.name, SUM(O.totprice), SUM(S.quantity) \
             FROM Customer AS C, Orders AS O, Supply AS S \
             WHERE C.custkey=O.custkey AND O.ordkey=S.ordkey \
             GROUP BY C.name",
        )
        .unwrap();
        assert_eq!(q.select.len(), 3);
        assert_eq!(q.from.len(), 3);
        assert_eq!(q.group_by, vec!["c.name"]);
        assert!(matches!(
            q.select[1],
            SelectItem::Agg {
                func: AggFunc::Sum,
                ..
            }
        ));
        let w = q.where_clause.unwrap();
        assert_eq!(
            w.to_string(),
            "((c.custkey = o.custkey) AND (o.ordkey = s.ordkey))"
        );
    }

    #[test]
    fn parses_predicates_and_literals() {
        let q = parse_query(
            "SELECT a FROM t WHERE a BETWEEN 1 AND 10 AND s LIKE 'A%' \
             AND r IN ('EUROPE','ASIA') AND d < DATE '1995-03-15' AND b IS NOT NULL",
        )
        .unwrap();
        let w = q.where_clause.unwrap().to_string();
        assert!(w.contains("BETWEEN"));
        assert!(w.contains("LIKE 'A%'"));
        assert!(w.contains("IN ('EUROPE', 'ASIA')"));
        assert!(w.contains("1995-03-15"));
        assert!(w.contains("IS NOT NULL"));
    }

    #[test]
    fn parses_order_limit_and_arithmetic() {
        let q = parse_query(
            "SELECT l_extendedprice * (1 - l_discount) AS revenue \
             FROM lineitem ORDER BY revenue DESC, l_orderkey LIMIT 10",
        )
        .unwrap();
        assert_eq!(
            q.order_by,
            vec![("revenue".into(), true), ("l_orderkey".into(), false)]
        );
        assert_eq!(q.limit, Some(10));
        match &q.select[0] {
            SelectItem::Scalar { expr, alias } => {
                assert_eq!(alias.as_deref(), Some("revenue"));
                assert_eq!(expr.to_string(), "(l_extendedprice * (1 - l_discount))");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn count_star() {
        let q = parse_query("SELECT COUNT(*) AS n FROM t").unwrap();
        assert!(matches!(
            q.select[0],
            SelectItem::Agg {
                func: AggFunc::Count,
                arg: None,
                ..
            }
        ));
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(parse_query("SELECT FROM t").is_err());
        assert!(parse_query("SELECT a FROM t WHERE").is_err());
        assert!(parse_query("SELECT a FROM t LIMIT x").is_err());
        assert!(parse_query("SELECT a FROM t trailing garbage ,").is_err());
        assert!(parse_query("SELECT a FROM t WHERE d < DATE '19-1'").is_err());
    }

    #[test]
    fn parses_table3_policy_expressions() {
        // e1 of Table 3.
        let e = parse_policy("ship * from db-5.nation to *").unwrap();
        assert_eq!(e.table, TableRef::qualified("db-5", "nation"));
        assert_eq!(e.attrs, ShipAttrs::Star);
        assert_eq!(e.to, LocationPattern::Star);
        assert!(matches!(e.kind, PolicyKind::Basic));

        // e3 of Table 3.
        let e =
            parse_policy("ship partkey, suppkey, supplycost from db-2.partsupp to L3, L4").unwrap();
        assert_eq!(e.to.to_string(), "L3, L4");

        // e4 of Table 3 (with predicate).
        let e = parse_policy(
            "ship partkey, mfgr, size, type, name from db-3.part to L4 \
             where size > 40 OR type LIKE '%COPPER%'",
        )
        .unwrap();
        assert_eq!(
            e.predicate.unwrap().to_string(),
            "((size > 40) OR (type LIKE '%COPPER%'))"
        );

        // e5 of Table 3 (aggregate).
        let e = parse_policy(
            "ship extendedprice, discount as aggregates sum from db-4.lineitem \
             to L1 group by suppkey, orderkey",
        )
        .unwrap();
        match &e.kind {
            PolicyKind::Aggregate {
                functions,
                group_by,
            } => {
                assert!(functions.contains(&AggFunc::Sum));
                assert_eq!(group_by.len(), 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn policy_with_table_alias_from_example1() {
        let e =
            parse_policy("ship mktseg, region from Customer C to Europe where mktseg='commercial'")
                .unwrap();
        assert_eq!(e.table, TableRef::bare("customer"));
        assert!(e.predicate.is_some());
    }

    #[test]
    fn policy_group_by_requires_aggregates() {
        assert!(parse_policy("ship a from t to * group by b").is_err());
        assert!(parse_policy("ship a as aggregates median from t to *").is_err());
    }

    #[test]
    fn policy_display_reparses() {
        let text = "ship acctbal as aggregates SUM, AVG from customer to * group by mktseg, region";
        let e = parse_policy(text).unwrap();
        let e2 = parse_policy(&e.to_string()).unwrap();
        assert_eq!(e, e2);
    }
}

#[cfg(test)]
mod denial_tests {
    use super::*;
    use geoqp_policy::ShipAttrs;

    #[test]
    fn parses_denials() {
        let d = parse_denial("deny ship salary from emp to B, C").unwrap();
        assert_eq!(d.table, TableRef::bare("emp"));
        assert_eq!(d.attrs, ShipAttrs::list(["salary"]));
        assert!(d.predicate.is_none());

        let d = parse_denial("deny ship * from emp to * where dept = 'engineering'").unwrap();
        assert_eq!(d.attrs, ShipAttrs::Star);
        assert!(d.predicate.is_some());
    }

    #[test]
    fn denials_reject_aggregate_clauses() {
        assert!(
            parse_denial("deny ship salary as aggregates sum from emp to * group by dept").is_err()
        );
        assert!(parse_denial("ship salary from emp to *").is_err());
    }

    #[test]
    fn denial_display_reparses() {
        let d = parse_denial("deny ship salary from emp to A where (dept = 'x')").unwrap();
        let d2 = parse_denial(&d.to_string()).unwrap();
        assert_eq!(d, d2);
    }
}

#[cfg(test)]
mod multi_table_policy_tests {
    use super::*;

    #[test]
    fn parses_multi_table_from_clause() {
        let e = parse_policy("ship c_name, o_price from cust, ord to E where c_k = o_k").unwrap();
        assert_eq!(e.table, TableRef::bare("cust"));
        assert_eq!(e.joined_tables, vec![TableRef::bare("ord")]);
        assert!(e.predicate.is_some());
        // Round trip.
        let again = parse_policy(&e.to_string()).unwrap();
        assert_eq!(again, e);
    }
}
