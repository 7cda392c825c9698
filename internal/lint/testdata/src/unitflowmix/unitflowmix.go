// Package unitflowmix exercises the unitflow analyzer: byte, packet and
// segment taint tracked through name-neutral locals, function summaries,
// parameters, struct literals and range statements — flows that no check
// of two suffixed names meeting at one operator can see.
package unitflowmix

// Port is a switch port with unit-committed counters.
type Port struct {
	pkts       int
	queueBytes int
}

// Link models a link with a byte-valued backlog.
type Link struct {
	backlogBytes int
}

// Bytes returns the link's backlog; its name is its unit contract.
func (l *Link) Bytes() int { return l.backlogBytes }

// queued returns a byte quantity through a name-neutral function: the
// callee summary is derived from the body's return taint.
func queued(l *Link) int {
	q := l.backlogBytes
	return q
}

// windowSegs returns the congestion window in MSS segments.
func windowSegs() int { return 10 }

// Mixup routes byte-tainted values into packet- and segment-committed
// destinations through neutral intermediaries.
func Mixup(l *Link, p *Port) {
	q := l.Bytes() // q carries bytes (name-based callee summary)
	p.pkts = q     // flagged: bytes into a packets field
	n := queued(l) // n carries bytes (body-derived callee summary)
	nSegs := n     // flagged: bytes into a segments variable
	_ = nSegs
	sendPkts(q)           // flagged: bytes into a packets parameter
	if q > windowSegs() { // flagged: byte taint compared against segments
		p.queueBytes = q // clean: bytes into bytes
	}
}

// Build pre-fills a port from a byte count via a keyed struct literal.
func Build(l *Link) Port {
	return Port{pkts: l.Bytes()} // flagged: bytes into a packets field
}

// Drain folds a byte-valued series into a packet counter through the
// range value variable.
func Drain(sizesBytes []int, p *Port) {
	for _, v := range sizesBytes {
		p.pkts += v // flagged: v inherits bytes from the ranged container
	}
}

// sendPkts consumes a packet count.
func sendPkts(nPkts int) { _ = nPkts }
