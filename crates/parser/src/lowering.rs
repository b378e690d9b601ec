//! Lowering parsed queries to validated logical plans.

use crate::ast::{FromItem, QueryAst, SelectItem};
use geoqp_common::{GeoError, Result};
use geoqp_expr::{AggCall, ScalarExpr};
use geoqp_plan::logical::{LogicalPlan, SortKey};
use geoqp_storage::Catalog;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// One resolved FROM item: its plan plus the mapping from user-visible
/// column spellings to plan column names.
struct ResolvedItem {
    alias: String,
    plan: Arc<LogicalPlan>,
    /// Plan-level column names (post-qualification).
    columns: Vec<String>,
    /// Whether this item's columns were qualified to `alias.col`.
    qualified: bool,
}

/// Lower a parsed query into a logical plan against the catalog.
///
/// * Bare table names resolving to several site partitions become a
///   `Union` of per-site scans (the paper's Section 7.5 GAV rewrite
///   `t = t_1 ∪ … ∪ t_n`).
/// * Comma joins with `WHERE` equi-predicates become a join tree built
///   greedily over connected items; remaining conjuncts become filters.
/// * Column references may be qualified (`c.name`); ambiguous bare
///   references are rejected.
pub fn lower_query(ast: &QueryAst, catalog: &Catalog) -> Result<Arc<LogicalPlan>> {
    // ---- resolve FROM items ------------------------------------------
    let mut items = Vec::with_capacity(ast.from.len());
    for f in &ast.from {
        items.push(resolve_from_item(f, catalog)?);
    }
    {
        let mut seen = BTreeSet::new();
        for it in &items {
            if !seen.insert(it.alias.clone()) {
                return Err(GeoError::Plan(format!(
                    "duplicate table alias `{}`",
                    it.alias
                )));
            }
        }
    }

    // Qualify columns of items participating in name collisions.
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    for it in &items {
        for c in &it.columns {
            *counts.entry(c.as_str()).or_default() += 1;
        }
    }
    let colliding: BTreeSet<String> = counts
        .iter()
        .filter(|(_, n)| **n > 1)
        .map(|(c, _)| c.to_string())
        .collect();
    if !colliding.is_empty() {
        for it in &mut items {
            if it.columns.iter().any(|c| colliding.contains(c)) {
                let exprs: Vec<(ScalarExpr, String)> = it
                    .columns
                    .iter()
                    .map(|c| (ScalarExpr::col(c.clone()), format!("{}.{}", it.alias, c)))
                    .collect();
                it.plan = Arc::new(LogicalPlan::project(Arc::clone(&it.plan), exprs)?);
                it.columns = it
                    .plan
                    .schema()
                    .names()
                    .iter()
                    .map(|s| s.to_string())
                    .collect();
                it.qualified = true;
            }
        }
    }

    let resolver = Resolver::new(&items);

    // ---- split WHERE into conjuncts and rewrite column names ---------
    let mut conjuncts: Vec<ScalarExpr> = Vec::new();
    if let Some(w) = &ast.where_clause {
        for c in geoqp_expr::split_conjunction(w) {
            conjuncts.push(resolver.rewrite(c)?);
        }
    }

    // ---- greedy join tree over connected items -----------------------
    let mut remaining: Vec<ResolvedItem> = items;
    let first = remaining.remove(0);
    let mut acc = first.plan;
    let mut acc_cols: BTreeSet<String> = first.columns.into_iter().collect();

    while !remaining.is_empty() {
        // Find an item connected to the accumulated tree by an equi
        // conjunct: (item index, equi-join keys, conjunct indices used).
        type Connection = (usize, Vec<(String, String)>, Vec<usize>);
        let mut chosen: Option<Connection> = None;
        'items: for (idx, it) in remaining.iter().enumerate() {
            let item_cols: BTreeSet<String> = it.columns.iter().cloned().collect();
            let mut keys = Vec::new();
            let mut used = Vec::new();
            for (ci, c) in conjuncts.iter().enumerate() {
                if let Some((l, r)) = geoqp_expr::predicate::as_equi_join(c, &acc_cols, &item_cols)
                {
                    keys.push((l, r));
                    used.push(ci);
                }
            }
            if !keys.is_empty() {
                chosen = Some((idx, keys, used));
                break 'items;
            }
        }
        let (idx, keys, used) = chosen.ok_or_else(|| {
            GeoError::Plan(
                "FROM items are not connected by equi-join predicates (cross joins unsupported)"
                    .into(),
            )
        })?;
        // Remove consumed conjuncts (descending order keeps indices valid).
        for ci in used.iter().rev() {
            conjuncts.remove(*ci);
        }
        let it = remaining.remove(idx);
        acc_cols.extend(it.columns.iter().cloned());
        acc = Arc::new(LogicalPlan::join(acc, it.plan, keys, None)?);
    }

    // ---- residual filters --------------------------------------------
    if let Some(filter) = geoqp_expr::conjoin(conjuncts) {
        acc = Arc::new(LogicalPlan::filter(acc, filter)?);
    }

    // ---- aggregation / projection -------------------------------------
    let has_agg = ast
        .select
        .iter()
        .any(|s| matches!(s, SelectItem::Agg { .. }))
        || !ast.group_by.is_empty();

    let mut plan = if has_agg {
        let group_cols: Vec<String> = ast
            .group_by
            .iter()
            .map(|g| resolver.resolve(g))
            .collect::<Result<_>>()?;
        let mut calls = Vec::new();
        let mut output: Vec<(String, String)> = Vec::new(); // (source col, out name)
        for (i, s) in ast.select.iter().enumerate() {
            match s {
                SelectItem::Star => {
                    return Err(GeoError::Plan(
                        "SELECT * cannot be combined with aggregation".into(),
                    ))
                }
                SelectItem::Scalar { expr, alias } => {
                    let col = expr.as_column().ok_or_else(|| {
                        GeoError::Plan(format!(
                            "non-aggregate select item must be a grouping column: {expr}"
                        ))
                    })?;
                    let resolved = resolver.resolve(col)?;
                    if !group_cols.contains(&resolved) {
                        return Err(GeoError::Plan(format!(
                            "column `{col}` must appear in GROUP BY"
                        )));
                    }
                    let out = alias.clone().unwrap_or_else(|| short_name(&resolved));
                    output.push((resolved, out));
                }
                SelectItem::Agg { func, arg, alias } => {
                    let arg = arg.as_ref().map(|e| resolver.rewrite(e)).transpose()?;
                    let name = alias
                        .clone()
                        .unwrap_or_else(|| format!("{}_{}", func.to_string().to_lowercase(), i));
                    calls.push(AggCall {
                        func: *func,
                        arg,
                        alias: name.clone(),
                    });
                    output.push((name.clone(), name));
                }
            }
        }
        if calls.is_empty() {
            return Err(GeoError::Plan(
                "GROUP BY query needs at least one aggregate in SELECT".into(),
            ));
        }
        let agg = Arc::new(LogicalPlan::aggregate(acc, group_cols, calls)?);
        // Reorder/rename to the SELECT order.
        let exprs: Vec<(ScalarExpr, String)> = output
            .into_iter()
            .map(|(src, out)| (ScalarExpr::col(src), out))
            .collect();
        Arc::new(LogicalPlan::project(agg, exprs)?)
    } else if ast.select.len() == 1 && matches!(ast.select[0], SelectItem::Star) {
        acc
    } else {
        let mut exprs = Vec::new();
        for (i, s) in ast.select.iter().enumerate() {
            match s {
                SelectItem::Star => {
                    return Err(GeoError::Plan(
                        "SELECT * must be the only select item".into(),
                    ))
                }
                SelectItem::Scalar { expr, alias } => {
                    let rewritten = resolver.rewrite(expr)?;
                    let name = alias
                        .clone()
                        .unwrap_or_else(|| match rewritten.as_column() {
                            Some(c) => short_name(c),
                            None => format!("col_{i}"),
                        });
                    exprs.push((rewritten, name));
                }
                SelectItem::Agg { .. } => unreachable!("handled by has_agg"),
            }
        }
        // De-duplicate output names deterministically.
        let mut seen: BTreeMap<String, usize> = BTreeMap::new();
        for (_, name) in exprs.iter_mut() {
            let n = seen.entry(name.clone()).or_insert(0);
            if *n > 0 {
                *name = format!("{name}_{n}");
            }
            *n += 1;
        }
        Arc::new(LogicalPlan::project(acc, exprs)?)
    };

    // ---- order by / limit ---------------------------------------------
    if !ast.order_by.is_empty() {
        let keys: Vec<SortKey> = ast
            .order_by
            .iter()
            .map(|(c, desc)| {
                // Prefer output names; fall back through the resolver for
                // qualified spellings.
                let name = if plan.schema().index_of(c).is_some() {
                    c.clone()
                } else {
                    resolver.resolve(c)?
                };
                Ok(SortKey {
                    column: name,
                    descending: *desc,
                })
            })
            .collect::<Result<_>>()?;
        plan = Arc::new(LogicalPlan::sort(plan, keys)?);
    }
    if let Some(n) = ast.limit {
        plan = Arc::new(LogicalPlan::limit(plan, n));
    }
    Ok(plan)
}

/// Strip a qualifier for output naming (`c.name` → `name`).
fn short_name(resolved: &str) -> String {
    match resolved.rsplit_once('.') {
        Some((_, n)) => n.to_string(),
        None => resolved.to_string(),
    }
}

fn resolve_from_item(f: &FromItem, catalog: &Catalog) -> Result<ResolvedItem> {
    let entries = catalog.resolve(&f.table);
    if entries.is_empty() {
        return Err(GeoError::Plan(format!("unknown table `{}`", f.table)));
    }
    let plan: Arc<LogicalPlan> = if entries.len() == 1 {
        let e = &entries[0];
        Arc::new(LogicalPlan::scan(
            e.table.clone(),
            e.location.clone(),
            Arc::clone(&e.schema),
        ))
    } else {
        // Partitioned table: union of per-site scans.
        let scans: Vec<Arc<LogicalPlan>> = entries
            .iter()
            .map(|e| {
                Arc::new(LogicalPlan::scan(
                    e.table.clone(),
                    e.location.clone(),
                    Arc::clone(&e.schema),
                ))
            })
            .collect();
        Arc::new(LogicalPlan::union(scans)?)
    };
    let alias = f.alias.clone().unwrap_or_else(|| f.table.table.clone());
    let columns = plan
        .schema()
        .names()
        .iter()
        .map(|s| s.to_string())
        .collect();
    Ok(ResolvedItem {
        alias,
        plan,
        columns,
        qualified: false,
    })
}

/// Resolves user column spellings (`name`, `c.name`) to plan column names.
struct Resolver {
    /// alias → (qualified?, columns)
    items: BTreeMap<String, (bool, BTreeSet<String>)>,
}

impl Resolver {
    fn new(items: &[ResolvedItem]) -> Resolver {
        Resolver {
            items: items
                .iter()
                .map(|it| {
                    let cols: BTreeSet<String> = if it.qualified {
                        // Store the *base* names for lookup.
                        it.columns.iter().map(|c| short_name(c)).collect()
                    } else {
                        it.columns.iter().cloned().collect()
                    };
                    (it.alias.clone(), (it.qualified, cols))
                })
                .collect(),
        }
    }

    fn resolve(&self, spelling: &str) -> Result<String> {
        if let Some((alias, col)) = spelling.split_once('.') {
            let (qualified, cols) = self.items.get(alias).ok_or_else(|| {
                GeoError::Plan(format!("unknown table alias `{alias}` in `{spelling}`"))
            })?;
            if !cols.contains(col) {
                return Err(GeoError::Plan(format!(
                    "table `{alias}` has no column `{col}`"
                )));
            }
            Ok(if *qualified {
                spelling.to_string()
            } else {
                col.to_string()
            })
        } else {
            let mut hits = Vec::new();
            for (alias, (qualified, cols)) in &self.items {
                if cols.contains(spelling) {
                    hits.push(if *qualified {
                        format!("{alias}.{spelling}")
                    } else {
                        spelling.to_string()
                    });
                }
            }
            match hits.len() {
                0 => Err(GeoError::Plan(format!("unknown column `{spelling}`"))),
                1 => Ok(hits.pop().unwrap()),
                _ => Err(GeoError::Plan(format!(
                    "ambiguous column `{spelling}`; qualify with a table alias"
                ))),
            }
        }
    }

    fn rewrite(&self, expr: &ScalarExpr) -> Result<ScalarExpr> {
        // rename_columns is infallible, so collect errors first.
        for c in expr.referenced_columns() {
            self.resolve(&c)?;
        }
        Ok(expr.rename_columns(&|n| self.resolve(n).expect("checked above")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use geoqp_common::{DataType, Field, Location, Schema};
    use geoqp_storage::TableStats;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_database("db-n", Location::new("N")).unwrap();
        c.add_database("db-e", Location::new("E")).unwrap();
        c.add_database("db-a", Location::new("A")).unwrap();
        c.add_table(
            "db-n",
            "customer",
            Schema::new(vec![
                Field::new("custkey", DataType::Int64),
                Field::new("name", DataType::Str),
                Field::new("acctbal", DataType::Float64),
            ])
            .unwrap(),
            TableStats::new(100, 40.0),
        )
        .unwrap();
        c.add_table(
            "db-e",
            "orders",
            Schema::new(vec![
                Field::new("custkey", DataType::Int64),
                Field::new("ordkey", DataType::Int64),
                Field::new("totprice", DataType::Float64),
            ])
            .unwrap(),
            TableStats::new(1000, 24.0),
        )
        .unwrap();
        c.add_table(
            "db-a",
            "supply",
            Schema::new(vec![
                Field::new("s_ordkey", DataType::Int64),
                Field::new("quantity", DataType::Int64),
            ])
            .unwrap(),
            TableStats::new(4000, 16.0),
        )
        .unwrap();
        c
    }

    #[test]
    fn lowers_running_example() {
        // Q_ex from the paper's Section 2 (custkey collides between
        // customer and orders, so both get qualified).
        let ast = parse_query(
            "SELECT C.name, SUM(O.totprice) AS sum_price, SUM(S.quantity) AS sum_qty \
             FROM Customer AS C, Orders AS O, Supply AS S \
             WHERE C.custkey = O.custkey AND O.ordkey = S.s_ordkey \
             GROUP BY C.name",
        )
        .unwrap();
        let plan = lower_query(&ast, &catalog()).unwrap();
        assert_eq!(plan.schema().names(), vec!["name", "sum_price", "sum_qty"]);
        assert_eq!(plan.join_count(), 2);
        assert_eq!(plan.source_locations().len(), 3);
    }

    #[test]
    fn ambiguous_bare_column_is_rejected() {
        let ast = parse_query(
            "SELECT custkey FROM customer, orders WHERE customer.custkey = orders.custkey",
        )
        .unwrap();
        let err = lower_query(&ast, &catalog()).unwrap_err();
        assert!(err.message().contains("ambiguous"));
    }

    #[test]
    fn unconnected_items_are_rejected() {
        let ast = parse_query("SELECT name FROM customer, supply").unwrap();
        let err = lower_query(&ast, &catalog()).unwrap_err();
        assert!(err.message().contains("not connected"));
    }

    #[test]
    fn residual_filters_survive() {
        let ast = parse_query("SELECT name FROM customer WHERE acctbal > 100.0 AND name LIKE 'A%'")
            .unwrap();
        let plan = lower_query(&ast, &catalog()).unwrap();
        // Plan: Project(Filter(Scan)).
        assert_eq!(plan.schema().names(), vec!["name"]);
        let mut has_filter = false;
        plan.visit(&mut |p| {
            if matches!(p, LogicalPlan::Filter { .. }) {
                has_filter = true;
            }
        });
        assert!(has_filter);
    }

    #[test]
    fn select_star_keeps_schema() {
        let ast = parse_query("SELECT * FROM supply WHERE quantity > 5").unwrap();
        let plan = lower_query(&ast, &catalog()).unwrap();
        assert_eq!(plan.schema().names(), vec!["s_ordkey", "quantity"]);
    }

    #[test]
    fn order_by_and_limit() {
        let ast = parse_query("SELECT name, acctbal FROM customer ORDER BY acctbal DESC LIMIT 5")
            .unwrap();
        let plan = lower_query(&ast, &catalog()).unwrap();
        assert!(matches!(plan.as_ref(), LogicalPlan::Limit { fetch: 5, .. }));
    }

    #[test]
    fn non_grouped_select_item_rejected() {
        let ast =
            parse_query("SELECT name, acctbal, SUM(custkey) FROM customer GROUP BY name").unwrap();
        let err = lower_query(&ast, &catalog()).unwrap_err();
        assert!(err.message().contains("GROUP BY"));
    }

    #[test]
    fn partitioned_table_becomes_union() {
        let mut c = catalog();
        c.add_database("db-x", Location::new("X")).unwrap();
        c.add_table(
            "db-x",
            "supply",
            Schema::new(vec![
                Field::new("s_ordkey", DataType::Int64),
                Field::new("quantity", DataType::Int64),
            ])
            .unwrap(),
            TableStats::new(500, 16.0),
        )
        .unwrap();
        let ast = parse_query("SELECT * FROM supply").unwrap();
        let plan = lower_query(&ast, &c).unwrap();
        assert!(matches!(plan.as_ref(), LogicalPlan::Union { .. }));
        assert_eq!(plan.source_locations().len(), 2);
    }

    #[test]
    fn unknown_table_and_column_errors() {
        let ast = parse_query("SELECT x FROM ghost").unwrap();
        assert!(lower_query(&ast, &catalog()).is_err());
        let ast = parse_query("SELECT ghostcol FROM customer").unwrap();
        assert!(lower_query(&ast, &catalog()).is_err());
        let ast = parse_query("SELECT z.name FROM customer").unwrap();
        assert!(lower_query(&ast, &catalog()).is_err());
    }
}
