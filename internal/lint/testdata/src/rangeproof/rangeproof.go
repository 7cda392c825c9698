// Package rangeproof exercises the rangeproof analyzer: writes the
// interval interpreter proves (constants, branch-narrowed arguments),
// writes it cannot prove without a covering check assertion, violated
// function contracts on arguments and results, and a malformed //inv:
// annotation.
package rangeproof

import "dctcpplus/internal/check"

// Gauge carries a unit-interval level.
type Gauge struct {
	// level is a fraction of capacity.
	//inv: 0 <= level && level <= 1
	level float64
}

// SetHalf is provable: the constant lies inside the contract.
func (g *Gauge) SetHalf() { g.level = 0.5 }

// Fill is provable by branch narrowing: every exit clamps into range.
func (g *Gauge) Fill(x float64) {
	if x < 0 {
		x = 0
	}
	if x > 1 {
		x = 1
	}
	g.level = x
}

// Leak is not provable — nothing bounds x and no assertion in this
// function covers the write.
func (g *Gauge) Leak(x float64) {
	g.level = x
}

// Audit enforces the contract at runtime, but not inside Leak: an
// assertion discharges only the writes of its own function.
func (g *Gauge) Audit() {
	check.Unit("gauge.level", g.level)
}

// floor declares a result contract its body violates.
//
// inv: return >= 1
func floor() int {
	return 0
}

// scaled declares a parameter contract one caller violates.
//
// inv: n >= 1
func scaled(n int) int {
	return n * 2
}

func callers() int {
	return scaled(0) + floor()
}

// Broken carries an unparsable contract.
type Broken struct {
	//inv: v <
	v int
}
