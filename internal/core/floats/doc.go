// Package floats holds dependency-free floating-point helpers for the
// whole estimation stack. It is a leaf package (imports only math) so
// that histogram, selectivity, predict and trace — which sit *below*
// internal/core in the import graph — can use ApproxEqual without a
// cycle. ApproxEqual is the project's sanctioned float comparison,
// enforced by the saqpvet floatcmp analyzer.
package floats
