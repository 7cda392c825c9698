package packet

// This file provides modular ("serial number") arithmetic for 32-bit
// wrapping sequence spaces, in the style of RFC 1982 and TCP's SEQ_LT
// macros. The simulator's own transport runs in a flat int64 byte space
// that never wraps, but trace parsers and wire-format tools deal in the
// 32-bit numbers real TCP carries — and plain <, >, - on those silently
// give the wrong answer near the wrap point.

// Seq32 is a wrapping 32-bit sequence number.
type Seq32 uint32

// SeqLT reports a < b in modular arithmetic: true when a precedes b and
// the distance forward from a to b is less than half the space.
func SeqLT(a, b Seq32) bool { return int32(a-b) < 0 }

// SeqLEQ reports a <= b in modular arithmetic.
func SeqLEQ(a, b Seq32) bool { return a == b || SeqLT(a, b) }

// SeqGT reports a > b in modular arithmetic.
func SeqGT(a, b Seq32) bool { return SeqLT(b, a) }

// SeqGEQ reports a >= b in modular arithmetic.
func SeqGEQ(a, b Seq32) bool { return !SeqLT(a, b) }

// SeqDelta returns the signed modular distance a - b: positive when a is
// ahead of b, negative when behind, correct across the wrap point for
// distances under half the space.
func SeqDelta(a, b Seq32) int32 { return int32(a - b) }

// SeqAdd advances a by n (which may be negative), wrapping modulo 2^32.
func SeqAdd(a Seq32, n int32) Seq32 { return a + Seq32(n) }
