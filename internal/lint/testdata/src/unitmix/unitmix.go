// Package unitmix adds a byte count to a packet count: two suffixed names
// meeting at one operator, which unitflow reports.
package unitmix

// Overflow mixes units in the addition.
func Overflow(qBytes, droppedPkts int) bool {
	return qBytes+droppedPkts > 0
}
