// Package floatcmp flags exact equality comparisons between
// floating-point operands in the estimation and prediction packages.
// Selectivities, histogram bucket boundaries and fitted model
// coefficients all accumulate rounding error; `==` on such values makes
// behaviour depend on the exact association order of float operations,
// which is precisely the kind of silent drift that corrupts the
// regression models the paper fits. Callers should use
// saqp/internal/core/floats.ApproxEqual with an explicit tolerance, or
// add a reviewed //lint:allow saqpvet/floatcmp suppression where
// exactness is genuinely intended (e.g. a bit-identical sentinel).
package floatcmp
