//! The policy catalog (Figure 2's "policy catalog").

use crate::expression::{PolicyExpression, PolicyKind};
use geoqp_common::{Result, Schema, TableRef};
use std::collections::BTreeSet;
use std::fmt;

/// A policy expression as stored in the catalog: validated against the
/// governed table's schema, with `ship *` expanded and the table's full
/// attribute set recorded (needed by the evaluator's multi-table grouping
/// check).
#[derive(Debug, Clone)]
pub struct RegisteredExpression {
    /// Stable id: registration order in a catalog built with
    /// [`PolicyCatalog::register`], the log's pid in a materialized
    /// snapshot — so an id names one policy in every snapshot.
    pub id: usize,
    /// The original expression.
    pub expr: PolicyExpression,
    /// `A_e`, fully expanded.
    pub attrs: BTreeSet<String>,
    /// All attributes of the governed table.
    pub table_attrs: BTreeSet<String>,
}

impl RegisteredExpression {
    /// True when the expression governs `table` (any of its tables).
    pub fn governs(&self, table: &TableRef) -> bool {
        self.expr.tables().any(|t| t.matches(table))
    }

    /// True when the expression applies to a query reading `tables`:
    /// every governed table must be among the query's tables (a
    /// multi-table expression only speaks for the *joined* data; paper
    /// footnote 4).
    pub fn applies_to<'a>(&self, mut tables: impl Iterator<Item = &'a TableRef> + Clone) -> bool {
        self.expr
            .tables()
            .all(|et| tables.clone().any(|qt| et.matches(qt)))
            && tables.any(|qt| self.governs(qt))
    }
}

impl fmt::Display for RegisteredExpression {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}: {}", self.id, self.expr)
    }
}

/// All dataflow policies known to the deployment. Populated offline by the
/// data officers (Figure 2), read at optimization time by the policy
/// evaluator.
#[derive(Debug, Clone, Default)]
pub struct PolicyCatalog {
    expressions: Vec<RegisteredExpression>,
}

impl PolicyCatalog {
    /// Empty catalog.
    pub fn new() -> PolicyCatalog {
        PolicyCatalog::default()
    }

    /// Register an expression, validating it against the governed table's
    /// schema. Returns the assigned id: one past the largest held, so a
    /// catalog materialized from a churned log (whose ids have gaps)
    /// never hands out the id of a policy still live.
    pub fn register(&mut self, expr: PolicyExpression, table_schema: &Schema) -> Result<usize> {
        let attrs = expr.validate(table_schema)?;
        let table_attrs = table_schema
            .fields()
            .iter()
            .map(|f| f.name.clone())
            .collect();
        let id = self.expressions.iter().map(|e| e.id + 1).max().unwrap_or(0);
        self.expressions.push(RegisteredExpression {
            id,
            expr,
            attrs,
            table_attrs,
        });
        Ok(id)
    }

    /// Crate-internal: rebuild a catalog from already-validated
    /// registered expressions, ids being the log's pids — the versioned
    /// log's materialization path, where validation happened once at
    /// append time.
    pub(crate) fn from_registered(expressions: Vec<RegisteredExpression>) -> PolicyCatalog {
        PolicyCatalog { expressions }
    }

    /// All expressions, in registration order.
    pub fn expressions(&self) -> &[RegisteredExpression] {
        &self.expressions
    }

    /// Expressions governing a table.
    pub fn for_table<'a>(
        &'a self,
        table: &'a TableRef,
    ) -> impl Iterator<Item = &'a RegisteredExpression> + 'a {
        self.expressions.iter().filter(move |e| e.governs(table))
    }

    /// Number of registered expressions.
    pub fn len(&self) -> usize {
        self.expressions.len()
    }

    /// True when no expression is registered — under the conservative
    /// disclosure model this means *nothing* may leave its source site.
    pub fn is_empty(&self) -> bool {
        self.expressions.is_empty()
    }

    /// The canonical byte rendering of the catalog's registered
    /// expressions, one display line per expression. Two catalogs are
    /// the *same* exactly when these bytes match — tests compare
    /// snapshots materialized from the catalog log with it.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for e in &self.expressions {
            out.extend_from_slice(e.to_string().as_bytes());
            out.push(b'\n');
        }
        out
    }

    /// Count of basic / aggregate expressions (experiment reporting).
    pub fn kind_counts(&self) -> (usize, usize) {
        let basic = self
            .expressions
            .iter()
            .filter(|e| matches!(e.expr.kind, PolicyKind::Basic))
            .count();
        (basic, self.expressions.len() - basic)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expression::ShipAttrs;
    use geoqp_common::{DataType, Field, LocationPattern};
    use geoqp_expr::AggFunc;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::Str),
        ])
        .unwrap()
    }

    #[test]
    fn register_and_filter_by_table() {
        let mut cat = PolicyCatalog::new();
        cat.register(
            PolicyExpression::basic(
                TableRef::qualified("db-1", "t"),
                ShipAttrs::Star,
                LocationPattern::Star,
                None,
            ),
            &schema(),
        )
        .unwrap();
        cat.register(
            PolicyExpression::aggregate(
                TableRef::qualified("db-2", "u"),
                ShipAttrs::list(["a"]),
                [AggFunc::Sum],
                [],
                LocationPattern::Star,
                None,
            ),
            &schema(),
        )
        .unwrap();
        assert_eq!(cat.len(), 2);
        assert_eq!(cat.kind_counts(), (1, 1));
        assert_eq!(cat.for_table(&TableRef::qualified("db-1", "t")).count(), 1);
        // A bare reference matches any database's table of that name.
        assert_eq!(cat.for_table(&TableRef::bare("u")).count(), 1);
        assert_eq!(cat.for_table(&TableRef::bare("nope")).count(), 0);
    }

    #[test]
    fn register_rejects_invalid() {
        let mut cat = PolicyCatalog::new();
        let bad = PolicyExpression::basic(
            TableRef::bare("t"),
            ShipAttrs::list(["ghost"]),
            LocationPattern::Star,
            None,
        );
        assert!(cat.register(bad, &schema()).is_err());
        assert!(cat.is_empty());
    }

    #[test]
    fn star_attrs_expand_and_table_attrs_recorded() {
        let mut cat = PolicyCatalog::new();
        cat.register(
            PolicyExpression::basic(
                TableRef::bare("t"),
                ShipAttrs::Star,
                LocationPattern::Star,
                None,
            ),
            &schema(),
        )
        .unwrap();
        let e = &cat.expressions()[0];
        assert_eq!(e.attrs.len(), 2);
        assert_eq!(e.table_attrs.len(), 2);
    }
}
