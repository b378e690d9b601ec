//! Logical plan operators.

use geoqp_common::{DataType, Field, GeoError, Location, LocationSet, Result, Schema, TableRef};
use geoqp_expr::{AggCall, ScalarExpr};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::sync::Arc;

/// A sort key: column name plus direction.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SortKey {
    /// Column to sort by.
    pub column: String,
    /// Descending when true.
    pub descending: bool,
}

impl SortKey {
    /// Ascending sort key.
    pub fn asc(column: impl Into<String>) -> SortKey {
        SortKey {
            column: column.into(),
            descending: false,
        }
    }

    /// Descending sort key.
    pub fn desc(column: impl Into<String>) -> SortKey {
        SortKey {
            column: column.into(),
            descending: true,
        }
    }
}

/// A logical relational-algebra plan.
///
/// Children are reference counted so that the optimizer's rule engine can
/// share subtrees freely while enumerating alternatives. Every constructor
/// derives and validates its output schema eagerly, so a `LogicalPlan`
/// value is well-typed by construction.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum LogicalPlan {
    /// Scan a base table stored at a fixed location.
    TableScan {
        /// The table.
        table: TableRef,
        /// Where the table lives (condition c1 of Definition 1 ties leaf
        /// compliance to this location).
        location: Location,
        /// The table's schema.
        schema: Arc<Schema>,
    },
    /// Filter rows by a boolean predicate.
    Filter {
        /// Input plan.
        input: Arc<LogicalPlan>,
        /// The predicate (boolean-typed over the input schema).
        predicate: ScalarExpr,
    },
    /// Compute output expressions (projection, masking, renaming).
    Project {
        /// Input plan.
        input: Arc<LogicalPlan>,
        /// `(expression, output name)` pairs.
        exprs: Vec<(ScalarExpr, String)>,
        /// Derived output schema.
        schema: Arc<Schema>,
    },
    /// Inner equi-join with an optional residual filter.
    Join {
        /// Left input.
        left: Arc<LogicalPlan>,
        /// Right input.
        right: Arc<LogicalPlan>,
        /// Equi-join key pairs `(left column, right column)`.
        on: Vec<(String, String)>,
        /// Residual non-equi condition over the joined schema.
        filter: Option<ScalarExpr>,
        /// Concatenated output schema.
        schema: Arc<Schema>,
    },
    /// Grouped aggregation. `group_by` lists input columns; the output
    /// schema is the group columns followed by the aggregate aliases.
    Aggregate {
        /// Input plan.
        input: Arc<LogicalPlan>,
        /// Grouping columns (possibly empty for a full-table aggregate).
        group_by: Vec<String>,
        /// Aggregate calls.
        aggs: Vec<AggCall>,
        /// Derived output schema.
        schema: Arc<Schema>,
    },
    /// Bag union of inputs with identical schemas (used when a global table
    /// is partitioned across locations, Section 7.5).
    Union {
        /// The inputs.
        inputs: Vec<Arc<LogicalPlan>>,
        /// The common schema.
        schema: Arc<Schema>,
    },
    /// Sort rows.
    Sort {
        /// Input plan.
        input: Arc<LogicalPlan>,
        /// Sort keys, most significant first.
        keys: Vec<SortKey>,
    },
    /// Keep the first `fetch` rows.
    Limit {
        /// Input plan.
        input: Arc<LogicalPlan>,
        /// Row budget.
        fetch: usize,
    },
}

impl LogicalPlan {
    /// Create a table scan. An `Arc<Schema>` is shared, not copied: a
    /// scan of a catalog table holds the catalog's own schema.
    pub fn scan(
        table: TableRef,
        location: Location,
        schema: impl Into<Arc<Schema>>,
    ) -> LogicalPlan {
        LogicalPlan::TableScan {
            table,
            location,
            schema: schema.into(),
        }
    }

    /// Create a filter, validating that the predicate is boolean over the
    /// input schema.
    pub fn filter(input: Arc<LogicalPlan>, predicate: ScalarExpr) -> Result<LogicalPlan> {
        let t = predicate.data_type(input.schema())?;
        if t != DataType::Bool {
            return Err(GeoError::Plan(format!(
                "filter predicate must be BOOLEAN, got {t}: {predicate}"
            )));
        }
        Ok(LogicalPlan::Filter { input, predicate })
    }

    /// Create a projection; output names must be unique.
    pub fn project(
        input: Arc<LogicalPlan>,
        exprs: Vec<(ScalarExpr, String)>,
    ) -> Result<LogicalPlan> {
        let mut fields = Vec::with_capacity(exprs.len());
        for (e, name) in &exprs {
            fields.push(Field::new(name.clone(), e.data_type(input.schema())?));
        }
        let schema = Schema::new(fields)?;
        Ok(LogicalPlan::Project {
            input,
            exprs,
            schema: Arc::new(schema),
        })
    }

    /// Convenience: project bare columns, keeping their names.
    pub fn project_columns(input: Arc<LogicalPlan>, columns: &[&str]) -> Result<LogicalPlan> {
        let exprs = columns
            .iter()
            .map(|c| (ScalarExpr::col(*c), c.to_string()))
            .collect();
        LogicalPlan::project(input, exprs)
    }

    /// Create an inner equi-join. Key columns must exist on their sides and
    /// be mutually comparable; the residual filter must be boolean over the
    /// concatenated schema.
    pub fn join(
        left: Arc<LogicalPlan>,
        right: Arc<LogicalPlan>,
        on: Vec<(String, String)>,
        filter: Option<ScalarExpr>,
    ) -> Result<LogicalPlan> {
        if on.is_empty() && filter.is_none() {
            return Err(GeoError::Plan(
                "join requires at least one key pair or a residual filter".into(),
            ));
        }
        let schema = left.schema().join(right.schema())?;
        for (l, r) in &on {
            let lf = left
                .schema()
                .field_by_name(l)
                .ok_or_else(|| GeoError::Plan(format!("left join key `{l}` not found")))?;
            let rf = right
                .schema()
                .field_by_name(r)
                .ok_or_else(|| GeoError::Plan(format!("right join key `{r}` not found")))?;
            if !lf.data_type.comparable_with(rf.data_type) {
                return Err(GeoError::Plan(format!(
                    "join keys `{l}` ({}) and `{r}` ({}) are incomparable",
                    lf.data_type, rf.data_type
                )));
            }
        }
        if let Some(f) = &filter {
            let t = f.data_type(&schema)?;
            if t != DataType::Bool {
                return Err(GeoError::Plan(format!(
                    "join filter must be BOOLEAN, got {t}"
                )));
            }
        }
        Ok(LogicalPlan::Join {
            left,
            right,
            on,
            filter,
            schema: Arc::new(schema),
        })
    }

    /// Create a grouped aggregation. Group columns must exist; aggregate
    /// aliases must not collide with group columns or each other.
    pub fn aggregate(
        input: Arc<LogicalPlan>,
        group_by: Vec<String>,
        aggs: Vec<AggCall>,
    ) -> Result<LogicalPlan> {
        if aggs.is_empty() {
            return Err(GeoError::Plan(
                "aggregate requires at least one aggregate call".into(),
            ));
        }
        let mut fields = Vec::with_capacity(group_by.len() + aggs.len());
        for g in &group_by {
            let f = input
                .schema()
                .field_by_name(g)
                .ok_or_else(|| GeoError::Plan(format!("group-by column `{g}` not found")))?;
            fields.push(f.clone());
        }
        for a in &aggs {
            fields.push(Field::new(a.alias.clone(), a.result_type(input.schema())?));
        }
        let schema = Schema::new(fields)?;
        Ok(LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
            schema: Arc::new(schema),
        })
    }

    /// Create a bag union; all inputs must share one schema.
    pub fn union(inputs: Vec<Arc<LogicalPlan>>) -> Result<LogicalPlan> {
        let first = inputs
            .first()
            .ok_or_else(|| GeoError::Plan("union requires at least one input".into()))?;
        let schema = first.schema_ref();
        for i in &inputs[1..] {
            if i.schema() != schema.as_ref() {
                return Err(GeoError::Plan(format!(
                    "union inputs have mismatched schemas: {} vs {}",
                    schema,
                    i.schema()
                )));
            }
        }
        Ok(LogicalPlan::Union { inputs, schema })
    }

    /// Create a sort, validating key columns.
    pub fn sort(input: Arc<LogicalPlan>, keys: Vec<SortKey>) -> Result<LogicalPlan> {
        for k in &keys {
            input.schema().require_index(&k.column)?;
        }
        Ok(LogicalPlan::Sort { input, keys })
    }

    /// Create a limit.
    pub fn limit(input: Arc<LogicalPlan>, fetch: usize) -> LogicalPlan {
        LogicalPlan::Limit { input, fetch }
    }

    /// The plan's output schema.
    pub fn schema(&self) -> &Schema {
        match self {
            LogicalPlan::TableScan { schema, .. }
            | LogicalPlan::Project { schema, .. }
            | LogicalPlan::Join { schema, .. }
            | LogicalPlan::Aggregate { schema, .. }
            | LogicalPlan::Union { schema, .. } => schema,
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. } => input.schema(),
        }
    }

    /// Shared reference to the output schema.
    pub fn schema_ref(&self) -> Arc<Schema> {
        match self {
            LogicalPlan::TableScan { schema, .. }
            | LogicalPlan::Project { schema, .. }
            | LogicalPlan::Join { schema, .. }
            | LogicalPlan::Aggregate { schema, .. }
            | LogicalPlan::Union { schema, .. } => Arc::clone(schema),
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. } => input.schema_ref(),
        }
    }

    /// Child plans, in order.
    pub fn children(&self) -> Vec<&Arc<LogicalPlan>> {
        match self {
            LogicalPlan::TableScan { .. } => vec![],
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. } => vec![input],
            LogicalPlan::Join { left, right, .. } => vec![left, right],
            LogicalPlan::Union { inputs, .. } => inputs.iter().collect(),
        }
    }

    /// Short operator name for display.
    pub fn name(&self) -> &'static str {
        match self {
            LogicalPlan::TableScan { .. } => "TableScan",
            LogicalPlan::Filter { .. } => "Filter",
            LogicalPlan::Project { .. } => "Project",
            LogicalPlan::Join { .. } => "Join",
            LogicalPlan::Aggregate { .. } => "Aggregate",
            LogicalPlan::Union { .. } => "Union",
            LogicalPlan::Sort { .. } => "Sort",
            LogicalPlan::Limit { .. } => "Limit",
        }
    }

    /// All base tables referenced by the plan.
    pub fn tables(&self) -> BTreeSet<TableRef> {
        let mut out = BTreeSet::new();
        self.visit(&mut |p| {
            if let LogicalPlan::TableScan { table, .. } = p {
                out.insert(table.clone());
            }
        });
        out
    }

    /// The set of source locations the plan reads from.
    pub fn source_locations(&self) -> LocationSet {
        let mut out = LocationSet::new();
        self.visit(&mut |p| {
            if let LogicalPlan::TableScan { location, .. } = p {
                out.insert(location.clone());
            }
        });
        out
    }

    /// Number of join operators in the plan (the paper's query-complexity
    /// measure `j`).
    pub fn join_count(&self) -> usize {
        let mut n = 0;
        self.visit(&mut |p| {
            if matches!(p, LogicalPlan::Join { .. }) {
                n += 1;
            }
        });
        n
    }

    /// Total operator count.
    pub fn node_count(&self) -> usize {
        let mut n = 0;
        self.visit(&mut |_| n += 1);
        n
    }

    /// Pre-order traversal.
    pub fn visit(&self, f: &mut impl FnMut(&LogicalPlan)) {
        f(self);
        for c in self.children() {
            c.visit(f);
        }
    }

    /// Rebuild this node with new children (same arity and order as
    /// [`LogicalPlan::children`]). Used by generic plan rewrites.
    pub fn with_children(&self, mut children: Vec<Arc<LogicalPlan>>) -> Result<LogicalPlan> {
        let expect = self.children().len();
        if children.len() != expect {
            return Err(GeoError::Plan(format!(
                "with_children arity mismatch: expected {expect}, got {}",
                children.len()
            )));
        }
        Ok(match self {
            LogicalPlan::TableScan { .. } => self.clone(),
            LogicalPlan::Filter { predicate, .. } => {
                LogicalPlan::filter(children.pop().unwrap(), predicate.clone())?
            }
            LogicalPlan::Project { exprs, .. } => {
                LogicalPlan::project(children.pop().unwrap(), exprs.clone())?
            }
            LogicalPlan::Join { on, filter, .. } => {
                let right = children.pop().unwrap();
                let left = children.pop().unwrap();
                LogicalPlan::join(left, right, on.clone(), filter.clone())?
            }
            LogicalPlan::Aggregate { group_by, aggs, .. } => {
                LogicalPlan::aggregate(children.pop().unwrap(), group_by.clone(), aggs.clone())?
            }
            LogicalPlan::Union { .. } => LogicalPlan::union(children)?,
            LogicalPlan::Sort { keys, .. } => {
                LogicalPlan::sort(children.pop().unwrap(), keys.clone())?
            }
            LogicalPlan::Limit { fetch, .. } => LogicalPlan::limit(children.pop().unwrap(), *fetch),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geoqp_expr::AggFunc;

    fn customer() -> Arc<LogicalPlan> {
        Arc::new(LogicalPlan::scan(
            TableRef::qualified("db-n", "customer"),
            Location::new("N"),
            Schema::new(vec![
                Field::new("custkey", DataType::Int64),
                Field::new("name", DataType::Str),
                Field::new("acctbal", DataType::Float64),
            ])
            .unwrap(),
        ))
    }

    fn orders() -> Arc<LogicalPlan> {
        Arc::new(LogicalPlan::scan(
            TableRef::qualified("db-e", "orders"),
            Location::new("E"),
            Schema::new(vec![
                Field::new("o_custkey", DataType::Int64),
                Field::new("ordkey", DataType::Int64),
                Field::new("totprice", DataType::Float64),
            ])
            .unwrap(),
        ))
    }

    #[test]
    fn filter_validates_type() {
        let c = customer();
        assert!(LogicalPlan::filter(
            Arc::clone(&c),
            ScalarExpr::col("acctbal").gt(ScalarExpr::lit(0i64))
        )
        .is_ok());
        assert!(LogicalPlan::filter(Arc::clone(&c), ScalarExpr::col("acctbal")).is_err());
        assert!(LogicalPlan::filter(c, ScalarExpr::col("nope").is_null()).is_err());
    }

    #[test]
    fn project_derives_schema() {
        let p = LogicalPlan::project(
            customer(),
            vec![
                (ScalarExpr::col("name"), "name".into()),
                (
                    ScalarExpr::col("acctbal").mul(ScalarExpr::lit(2i64)),
                    "double_bal".into(),
                ),
            ],
        )
        .unwrap();
        assert_eq!(p.schema().names(), vec!["name", "double_bal"]);
        assert_eq!(p.schema().field(1).data_type, DataType::Float64);
    }

    #[test]
    fn join_produces_concatenated_schema() {
        let j = LogicalPlan::join(
            customer(),
            orders(),
            vec![("custkey".into(), "o_custkey".into())],
            None,
        )
        .unwrap();
        assert_eq!(j.schema().len(), 6);
        assert_eq!(j.join_count(), 1);
        assert_eq!(j.source_locations().len(), 2);
        assert_eq!(j.tables().len(), 2);
    }

    #[test]
    fn join_rejects_bad_keys() {
        assert!(LogicalPlan::join(
            customer(),
            orders(),
            vec![("name".into(), "o_custkey".into())],
            None
        )
        .is_err());
        assert!(LogicalPlan::join(
            customer(),
            orders(),
            vec![("missing".into(), "o_custkey".into())],
            None
        )
        .is_err());
        assert!(LogicalPlan::join(customer(), orders(), vec![], None).is_err());
    }

    #[test]
    fn aggregate_schema_is_groups_then_aggs() {
        let a = LogicalPlan::aggregate(
            customer(),
            vec!["name".into()],
            vec![AggCall::new(
                AggFunc::Sum,
                ScalarExpr::col("acctbal"),
                "total",
            )],
        )
        .unwrap();
        assert_eq!(a.schema().names(), vec!["name", "total"]);
        assert!(LogicalPlan::aggregate(customer(), vec![], vec![]).is_err());
        assert!(LogicalPlan::aggregate(
            customer(),
            vec!["ghost".into()],
            vec![AggCall::count_star("n")]
        )
        .is_err());
    }

    #[test]
    fn union_requires_same_schema() {
        let u = LogicalPlan::union(vec![customer(), customer()]).unwrap();
        assert_eq!(u.schema().len(), 3);
        assert!(LogicalPlan::union(vec![customer(), orders()]).is_err());
        assert!(LogicalPlan::union(vec![]).is_err());
    }

    #[test]
    fn with_children_round_trip() {
        let j = LogicalPlan::join(
            customer(),
            orders(),
            vec![("custkey".into(), "o_custkey".into())],
            None,
        )
        .unwrap();
        let kids: Vec<_> = j.children().into_iter().cloned().collect();
        let rebuilt = j.with_children(kids).unwrap();
        assert_eq!(rebuilt, j);
        assert!(j.with_children(vec![customer()]).is_err());
    }

    #[test]
    fn node_count_counts_all() {
        let j = LogicalPlan::join(
            customer(),
            orders(),
            vec![("custkey".into(), "o_custkey".into())],
            None,
        )
        .unwrap();
        assert_eq!(j.node_count(), 3);
    }

    #[test]
    fn sort_and_limit_pass_schema_through() {
        let s = LogicalPlan::sort(customer(), vec![SortKey::desc("acctbal")]).unwrap();
        assert_eq!(s.schema().len(), 3);
        let l = LogicalPlan::limit(Arc::new(s), 10);
        assert_eq!(l.schema().len(), 3);
        assert!(LogicalPlan::sort(customer(), vec![SortKey::asc("nope")]).is_err());
    }
}
