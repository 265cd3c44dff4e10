// Package query defines the abstract syntax and a parser for the HiveQL
// subset this reproduction compiles: single-block SELECT queries with
// projections, aggregates, inner equi-joins, conjunctive predicates,
// GROUP BY, ORDER BY and LIMIT — the shapes the paper's three job
// categories (Extract, Groupby, Join) are compiled from.
//
// The parser exists so examples, the CLI and the serving layer can
// accept textual queries; the workload generator constructs ASTs
// directly. Query.String renders the normalized text every cache key,
// routing fingerprint and trace ID derives from; it is a fixed point of
// Parse-then-String. Memo is the bounded, goroutine-safe raw-text →
// normalized-text cache the request path consults before parsing, so a
// repeated text is lexed, parsed and rendered once.
package query
