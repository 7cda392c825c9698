// Package checkcover pairs contracted fields with internal/check
// assertions: an anonymous assertion that still implies its contract
// (accepted by rangeproof), and an assertion drifted away from the
// contract, which discharges nothing and leaves the write flagged.
package checkcover

import "dctcpplus/internal/check"

// Meter has contracted floors its writers cannot prove statically.
type Meter struct {
	//inv: depth >= 1
	depth int
	//inv: ratio >= 1
	ratio float64
}

// Deepen's assertion discharges the contract; its empty name costs only
// the runtime message, not the proof.
func (m *Meter) Deepen(d int) {
	m.depth = d
	check.AtLeast("", float64(m.depth), 1)
}

// Rescale's assertion drifted: it asserts a floor of 0 while the contract
// declares a floor of 1, so the contract is not what runs. The write is
// left unproven and rangeproof reports it; no assertion elsewhere in the
// package could discharge it.
func (m *Meter) Rescale(r float64) {
	m.ratio = r
	check.AtLeast("meter.ratio", m.ratio, 0)
}
